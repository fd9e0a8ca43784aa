/* Compiled inner loops for the fused execution plan.
 *
 * One translation unit, one build (-O3, no -march): every kernel that
 * has a vector body carries it as a per-function
 * __attribute__((target(...))) variant and the caller names the body to
 * run (`isa`, one of REPRO_ISA_*), so the same object is valid on every
 * x86-64 host and still uses AVX-512 where the CPU has it.
 * repro_isa_supported() is the __builtin_cpu_supports probe the Python
 * side asks once per process.
 *
 * All kernels operate on *bytes*: a packed activation/filter row is an
 * opaque little-endian bit stream, so one kernel serves every packing
 * word width (uchar..ulong).  Bit i of byte j holds channel 8*j + i,
 * exactly the layout numpy.packbits(bitorder="little") produces and the
 * little-endian word views in repro.core.bitpack reinterpret.
 *
 * The xor-popcount kernels read their filters from the *interleaved*
 * layout repro_interleave_filters() writes: filters in blocks of 16,
 * and inside a block the k-th 64-bit word of all 16 filters side by
 * side.  A vector lane then belongs to one filter: the activation word
 * is broadcast, xor/popcount/add run full width for any row length (no
 * sub-lane tail, no horizontal reduction), and the 16 lane counts of a
 * block compare against 16 thresholds into exactly two output bytes.
 *
 * Threading contract (mirrors bitpack.fused_xor_threshold_rows): every
 * kernel writes only rows [row_start, row_stop) of its output, so the
 * execution plan's tile pool may call it concurrently on disjoint row
 * ranges.  No kernel allocates, locks, or touches global state; cffi
 * releases the GIL for the duration of each call.
 *
 * OpenMP-free by design — parallelism belongs to the plan's shared
 * thread pool, not to a second competing runtime.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define REPRO_X86 1
#include <immintrin.h>
#define TARGET_AVX2 __attribute__((target("avx2,popcnt")))
#define TARGET_AVX512 __attribute__((target( \
    "avx512f,avx512bw,avx512vl,avx512vpopcntdq,avx512vnni")))
#else
#define REPRO_X86 0
#endif

#define ALWAYS_INLINE static inline __attribute__((always_inline))

enum { REPRO_ISA_SCALAR = 0, REPRO_ISA_AVX2 = 1, REPRO_ISA_AVX512 = 2 };

/* Filters per interleaved block == output bits per block (two bytes). */
#define FB 16
/* Largest first-layer patch (k*k*cin rounded up to 4 bytes) the input
 * convolution has stack room for — the Python side checks it before
 * adopting the kernel — and the pixels it convolves per inner block. */
#define PATCH_MAX 4096
#define PIXELS 4

/* Whether this host can execute the given ISA body. */
int repro_isa_supported(int isa)
{
    if (isa == REPRO_ISA_SCALAR)
        return 1;
#if REPRO_X86
    __builtin_cpu_init();
    if (isa == REPRO_ISA_AVX2)
        return __builtin_cpu_supports("avx2")
            && __builtin_cpu_supports("popcnt");
    if (isa == REPRO_ISA_AVX512)
        return __builtin_cpu_supports("avx512f")
            && __builtin_cpu_supports("avx512bw")
            && __builtin_cpu_supports("avx512vl")
            && __builtin_cpu_supports("avx512vpopcntdq")
            && __builtin_cpu_supports("avx512vnni");
#endif
    return 0;
}

/* One 64-bit word from a (possibly unaligned) byte pointer; `len` < 8
 * reads a row's partial last word, zero-extended.  The full-word branch
 * is a constant-size copy, i.e. a single load. */
ALWAYS_INLINE uint64_t load_word(const uint8_t *p, ptrdiff_t len)
{
    uint64_t v = 0;
    if (len >= 8)
        memcpy(&v, p, 8);
    else
        memcpy(&v, p, (size_t)len);
    return v;
}

/* Re-lay `cols` packed filter rows (n_bytes each, row stride b_stride)
 * into blocks of FB filters: wt[(blk * n_words + k) * FB + lane] is word
 * k of filter blk*FB + lane.  Partial last words and the lanes past
 * `cols` in the last block are zero.  wt holds
 * ceil(cols/FB) * FB * ceil(n_bytes/8) words. */
void repro_interleave_filters(
    const uint8_t *b, ptrdiff_t b_stride, ptrdiff_t cols, ptrdiff_t n_bytes,
    uint64_t *wt)
{
    const ptrdiff_t n_words = (n_bytes + 7) / 8;
    const ptrdiff_t n_blocks = (cols + FB - 1) / FB;
    memset(wt, 0, (size_t)(n_blocks * n_words * FB) * sizeof(uint64_t));
    for (ptrdiff_t j = 0; j < cols; j++) {
        const uint8_t *src = b + j * b_stride;
        uint64_t *dst = wt + (j / FB) * n_words * FB + j % FB;
        for (ptrdiff_t k = 0; k < n_words; k++) {
            const ptrdiff_t left = n_bytes - 8 * k;
            dst[k * FB] = load_word(src + 8 * k, left);
        }
    }
}

/* What one block of FB filters does with its FB disagreement counts per
 * row: threshold into two packed output bytes (bits != NULL) or store
 * them as int64 (counts != NULL).  Exactly one of the two is set. */
typedef struct {
    const uint8_t *a;       /* activation rows */
    ptrdiff_t a_stride, n_bytes;
    const uint64_t *wblk;   /* this block's interleaved words */
    int64_t thresh[FB];     /* lanes past `cols` never pass */
    unsigned flip;          /* FB flip bits */
    unsigned valid;         /* FB lane-valid bits */
    uint8_t *bits;          /* row 0 of this block's output bytes */
    ptrdiff_t bits_stride;
    int bits_bytes;         /* 1 or 2 bytes of the row belong to the block */
    int64_t *counts;        /* row 0, first column of this block */
    ptrdiff_t counts_stride;
    int lanes;              /* valid columns in this block */
} block_job;

/* Shared epilogue of the scalar and AVX2 bodies. */
ALWAYS_INLINE void emit_block(const block_job *job, ptrdiff_t row,
                              const int64_t *cnt)
{
    if (job->bits) {
        unsigned bits = 0;
        for (int l = 0; l < FB; l++)
            bits |= (unsigned)(cnt[l] <= job->thresh[l]) << l;
        bits = (bits ^ job->flip) & job->valid;
        uint8_t *o = job->bits + row * job->bits_stride;
        o[0] = (uint8_t)bits;
        if (job->bits_bytes > 1)
            o[1] = (uint8_t)(bits >> 8);
    } else {
        memcpy(job->counts + row * job->counts_stride, cnt,
               (size_t)job->lanes * sizeof(int64_t));
    }
}

static void block_rows_scalar(const block_job *job,
                              ptrdiff_t row_start, ptrdiff_t row_stop)
{
    const ptrdiff_t n_words = (job->n_bytes + 7) / 8;
    for (ptrdiff_t r = row_start; r < row_stop; r++) {
        const uint8_t *arow = job->a + r * job->a_stride;
        int64_t cnt[FB] = {0};
        for (ptrdiff_t k = 0; k < n_words; k++) {
            uint64_t av = load_word(arow + 8 * k, job->n_bytes - 8 * k);
            const uint64_t *w = job->wblk + k * FB;
            for (int l = 0; l < FB; l++)
                cnt[l] += __builtin_popcountll(av ^ w[l]);
        }
        emit_block(job, r, cnt);
    }
}

#if REPRO_X86
/* Per-64-bit-lane popcount: nibble look-up (pshufb) summed by psadbw. */
ALWAYS_INLINE TARGET_AVX2 __m256i popcount_epi64_avx2(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    __m256i lo = _mm256_and_si256(v, low);
    __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    __m256i per_byte = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                       _mm256_shuffle_epi8(lut, hi));
    return _mm256_sad_epu8(per_byte, _mm256_setzero_si256());
}

TARGET_AVX2 static void block_rows_avx2(const block_job *job,
                                        ptrdiff_t row_start, ptrdiff_t row_stop)
{
    const ptrdiff_t n_words = (job->n_bytes + 7) / 8;
    for (ptrdiff_t r = row_start; r < row_stop; r++) {
        const uint8_t *arow = job->a + r * job->a_stride;
        __m256i acc[FB / 4];
        for (int q = 0; q < FB / 4; q++)
            acc[q] = _mm256_setzero_si256();
        for (ptrdiff_t k = 0; k < n_words; k++) {
            __m256i av = _mm256_set1_epi64x(
                (long long)load_word(arow + 8 * k, job->n_bytes - 8 * k));
            const __m256i *w = (const __m256i *)(job->wblk + k * FB);
            for (int q = 0; q < FB / 4; q++)
                acc[q] = _mm256_add_epi64(acc[q], popcount_epi64_avx2(
                    _mm256_xor_si256(av, _mm256_loadu_si256(w + q))));
        }
        int64_t cnt[FB];
        for (int q = 0; q < FB / 4; q++)
            _mm256_storeu_si256((__m256i *)(cnt + 4 * q), acc[q]);
        emit_block(job, r, cnt);
    }
}

/* R rows x one block (two zmm of eight filters): every loaded filter
 * vector is reused R times, every broadcast activation word twice.  R is
 * a compile-time constant at both call sites, so acc[] lives in
 * registers and the row loops unroll. */
ALWAYS_INLINE TARGET_AVX512 void block_avx512(const int R, const block_job *job,
                                              ptrdiff_t row)
{
    const ptrdiff_t full = job->n_bytes / 8, rest = job->n_bytes % 8;
    const uint8_t *arow = job->a + row * job->a_stride;
    __m512i acc[4][2];
    for (int r = 0; r < R; r++)
        acc[r][0] = acc[r][1] = _mm512_setzero_si512();
    /* The full-word loop and the partial last word share one step; kept
     * apart so the full-word broadcast is a plain load (vpbroadcastq
     * from memory costs no ALU port, from a register it costs the
     * popcount's). */
#define BLOCK_STEP(k, len)                                                  \
    do {                                                                    \
        const __m512i w0 = _mm512_loadu_si512(job->wblk + (k) * FB);        \
        const __m512i w1 = _mm512_loadu_si512(job->wblk + (k) * FB + 8);    \
        for (int r = 0; r < R; r++) {                                       \
            const __m512i av = _mm512_set1_epi64((long long)load_word(      \
                arow + r * job->a_stride + 8 * (k), (len)));                \
            acc[r][0] = _mm512_add_epi64(                                   \
                acc[r][0], _mm512_popcnt_epi64(_mm512_xor_si512(av, w0)));  \
            acc[r][1] = _mm512_add_epi64(                                   \
                acc[r][1], _mm512_popcnt_epi64(_mm512_xor_si512(av, w1)));  \
        }                                                                   \
    } while (0)
    for (ptrdiff_t k = 0; k < full; k++)
        BLOCK_STEP(k, 8);
    if (rest)
        BLOCK_STEP(full, rest);
#undef BLOCK_STEP
    if (job->bits) {
        const __m512i t0 = _mm512_loadu_si512(job->thresh);
        const __m512i t1 = _mm512_loadu_si512(job->thresh + 8);
        for (int r = 0; r < R; r++) {
            unsigned bits = _mm512_cmple_epi64_mask(acc[r][0], t0)
                | (unsigned)_mm512_cmple_epi64_mask(acc[r][1], t1) << 8;
            bits = (bits ^ job->flip) & job->valid;
            uint8_t *o = job->bits + (row + r) * job->bits_stride;
            o[0] = (uint8_t)bits;
            if (job->bits_bytes > 1)
                o[1] = (uint8_t)(bits >> 8);
        }
    } else {
        for (int r = 0; r < R; r++) {
            int64_t *o = job->counts + (row + r) * job->counts_stride;
            _mm512_mask_storeu_epi64(o, (__mmask8)job->valid, acc[r][0]);
            _mm512_mask_storeu_epi64(o + 8, (__mmask8)(job->valid >> 8),
                                     acc[r][1]);
        }
    }
}

TARGET_AVX512 static void block_rows_avx512(const block_job *job,
                                            ptrdiff_t row_start,
                                            ptrdiff_t row_stop)
{
    ptrdiff_t r = row_start;
    for (; r + 4 <= row_stop; r += 4)
        block_avx512(4, job, r);
    for (; r < row_stop; r++)
        block_avx512(1, job, r);
}
#endif /* REPRO_X86 */

/* Rows [row_start, row_stop) of `a` against every block of interleaved
 * filters.  Blocks are the outer loop: one block's words (n_words * 128
 * bytes) stay in L1 while the rows stream past, and with a single row
 * (dense layers at batch 1) the filters are read exactly once. */
static void xor_popcount_blocks(
    int isa, const uint8_t *a, ptrdiff_t a_stride, ptrdiff_t n_bytes,
    const uint64_t *wt, ptrdiff_t cols,
    const int32_t *thresh, const uint8_t *flip,
    uint8_t *bits, ptrdiff_t bits_stride,
    int64_t *counts, ptrdiff_t counts_stride,
    ptrdiff_t row_start, ptrdiff_t row_stop)
{
    const ptrdiff_t n_words = (n_bytes + 7) / 8;
    block_job job;
    job.a = a;
    job.a_stride = a_stride;
    job.n_bytes = n_bytes;
    job.bits_stride = bits_stride;
    job.counts_stride = counts_stride;
    for (ptrdiff_t col = 0; col < cols; col += FB) {
        job.wblk = wt + (col / FB) * n_words * FB;
        job.lanes = cols - col < FB ? (int)(cols - col) : FB;
        job.valid = (1u << job.lanes) - 1u;
        job.flip = 0;
        job.bits = NULL;
        job.counts = NULL;
        if (bits) {
            for (int l = 0; l < FB; l++) {
                job.thresh[l] = l < job.lanes ? thresh[col + l] : -1;
                job.flip |= (unsigned)(l < job.lanes && flip[col + l]) << l;
            }
            job.bits = bits + col / 8;
            job.bits_bytes = bits_stride - col / 8 > 1 ? 2 : 1;
        } else {
            job.counts = counts + col;
        }
        switch (isa) {
#if REPRO_X86
        case REPRO_ISA_AVX512:
            block_rows_avx512(&job, row_start, row_stop);
            break;
        case REPRO_ISA_AVX2:
            block_rows_avx2(&job, row_start, row_stop);
            break;
#endif
        default:
            block_rows_scalar(&job, row_start, row_stop);
        }
    }
}

/* Fused xor-popcount GEMM tile -> accumulator threshold -> packed bits.
 *
 * For every row i in [row_start, row_stop) of `a` (row stride a_stride
 * bytes, payload n_bytes) against the `cols` interleaved filters `wt`:
 *
 *     bit[i, j] = (xor_popcount(a[i], b[j]) <= thresh[j]) ^ flip[j]
 *
 * packed little-endian along j into out (row stride == row width ==
 * out_stride bytes).  Trailing padding bits of each output row are
 * written as zero, matching the NumPy reference packer. */
void repro_fused_xor_threshold_pack(
    int isa,
    const uint8_t *a, ptrdiff_t a_stride, ptrdiff_t n_bytes,
    const uint64_t *wt, ptrdiff_t cols,
    const int32_t *thresh, const uint8_t *flip,
    uint8_t *out, ptrdiff_t out_stride,
    ptrdiff_t row_start, ptrdiff_t row_stop)
{
    const ptrdiff_t used = (cols + 7) / 8;  /* bytes the blocks write */
    if (used < out_stride)
        for (ptrdiff_t i = row_start; i < row_stop; i++)
            memset(out + i * out_stride + used, 0, (size_t)(out_stride - used));
    xor_popcount_blocks(isa, a, a_stride, n_bytes, wt, cols, thresh, flip,
                        out, out_stride, NULL, 0, row_start, row_stop);
}

/* Plain all-pairs xor-popcount GEMM: out[i, j] = xor_popcount(a[i], b[j])
 * for rows [row_start, row_stop), int64 output (the dtype the NumPy
 * GEMM produces).  out_cols is the full output row width so a tile call
 * indexes the shared output correctly. */
void repro_xor_popcount_gemm(
    int isa,
    const uint8_t *a, ptrdiff_t a_stride, ptrdiff_t n_bytes,
    const uint64_t *wt, ptrdiff_t cols,
    int64_t *out, ptrdiff_t out_cols,
    ptrdiff_t row_start, ptrdiff_t row_stop)
{
    xor_popcount_blocks(isa, a, a_stride, n_bytes, wt, cols, NULL, NULL,
                        NULL, 0, out, out_cols, row_start, row_stop);
}

/* Position of one output pixel; row loops step it instead of dividing
 * the flat row index three times per pixel. */
typedef struct { ptrdiff_t img, oy, ox; } pixel_pos;

ALWAYS_INLINE pixel_pos pixel_at(ptrdiff_t r, ptrdiff_t oh, ptrdiff_t ow)
{
    pixel_pos pos = { r / (ow * oh), (r / ow) % oh, r % ow };
    return pos;
}

ALWAYS_INLINE void pixel_step(pixel_pos *pos, ptrdiff_t oh, ptrdiff_t ow)
{
    if (++pos->ox == ow) {
        pos->ox = 0;
        if (++pos->oy == oh) {
            pos->oy = 0;
            pos->img++;
        }
    }
}

/* One row of the im2col matrix of an NHWC byte image (n, h, w,
 * pix_bytes): k copies of the in-image part of each tap row, the rest
 * zero-filled.  dst holds k*k*pix_bytes bytes. */
ALWAYS_INLINE void gather_patch_row(
    const uint8_t *x, ptrdiff_t h, ptrdiff_t w, ptrdiff_t pix_bytes,
    ptrdiff_t k, ptrdiff_t stride, ptrdiff_t padding,
    pixel_pos pos, uint8_t *dst)
{
    const ptrdiff_t span_bytes = k * pix_bytes;  /* one kh tap row */
    const uint8_t *xi = x + pos.img * h * w * pix_bytes;
    const ptrdiff_t iy0 = pos.oy * stride - padding;
    const ptrdiff_t ix0 = pos.ox * stride - padding;
    if (iy0 >= 0 && iy0 + k <= h && ix0 >= 0 && ix0 + k <= w) {
        const uint8_t *src = xi + (iy0 * w + ix0) * pix_bytes;
        for (ptrdiff_t kh = 0; kh < k; kh++)
            memcpy(dst + kh * span_bytes, src + kh * w * pix_bytes,
                   (size_t)span_bytes);
        return;
    }
    /* Columns of the tap window that fall inside the image. */
    ptrdiff_t kw_lo = ix0 < 0 ? -ix0 : 0;
    ptrdiff_t kw_hi = w - ix0 < k ? w - ix0 : k;
    if (kw_hi < kw_lo) kw_hi = kw_lo;
    for (ptrdiff_t kh = 0; kh < k; kh++, dst += span_bytes) {
        ptrdiff_t iy = iy0 + kh;
        if (iy < 0 || iy >= h || kw_lo >= k) {
            memset(dst, 0, (size_t)span_bytes);
            continue;
        }
        if (kw_lo > 0)
            memset(dst, 0, (size_t)(kw_lo * pix_bytes));
        memcpy(dst + kw_lo * pix_bytes,
               xi + (iy * w + ix0 + kw_lo) * pix_bytes,
               (size_t)((kw_hi - kw_lo) * pix_bytes));
        if (kw_hi < k)
            memset(dst + kw_hi * pix_bytes, 0,
                   (size_t)((k - kw_hi) * pix_bytes));
    }
}

/* Packed patch extraction (im2col on packed words, as bytes).
 *
 * Input: packed NHWC activations of logical shape (n, h, w, pix_bytes)
 * where pix_bytes = words-per-channel * word-bytes, C-contiguous.
 * Output rows [row_start, row_stop) of the (n*oh*ow, k*k*pix_bytes)
 * patch matrix, row stride out_stride bytes.  Out-of-image taps are
 * zero-filled (packed zero == all-(-1) activations, the binary padding
 * convention). */
void repro_packed_patch_rows(
    const uint8_t *x, ptrdiff_t h, ptrdiff_t w, ptrdiff_t pix_bytes,
    ptrdiff_t k, ptrdiff_t stride, ptrdiff_t padding,
    ptrdiff_t oh, ptrdiff_t ow,
    uint8_t *out, ptrdiff_t out_stride,
    ptrdiff_t row_start, ptrdiff_t row_stop)
{
    pixel_pos pos = pixel_at(row_start, oh, ow);
    for (ptrdiff_t r = row_start; r < row_stop; r++, pixel_step(&pos, oh, ow))
        gather_patch_row(x, h, w, pix_bytes, k, stride, padding, pos,
                         out + r * out_stride);
}

/* Packed max-pool: the maximum of +-1 values is the bitwise OR of their
 * packed words.  Output pixels [row_start, row_stop) of the
 * (n*oh*ow, pix_bytes) result; out-of-image taps are skipped (packed
 * zero, the pad value, is the identity of OR). */
void repro_packed_maxpool_rows(
    const uint8_t *x, ptrdiff_t h, ptrdiff_t w, ptrdiff_t pix_bytes,
    ptrdiff_t pool, ptrdiff_t stride, ptrdiff_t padding,
    ptrdiff_t oh, ptrdiff_t ow,
    uint8_t *out, ptrdiff_t row_start, ptrdiff_t row_stop)
{
    pixel_pos pos = pixel_at(row_start, oh, ow);
    for (ptrdiff_t r = row_start; r < row_stop; r++, pixel_step(&pos, oh, ow)) {
        const ptrdiff_t iy0 = pos.oy * stride - padding;
        const ptrdiff_t ix0 = pos.ox * stride - padding;
        const uint8_t *xi = x + pos.img * h * w * pix_bytes;
        uint8_t *dst = out + r * pix_bytes;
        memset(dst, 0, (size_t)pix_bytes);
        for (ptrdiff_t iy = iy0 < 0 ? 0 : iy0; iy < iy0 + pool && iy < h; iy++)
            for (ptrdiff_t ix = ix0 < 0 ? 0 : ix0; ix < ix0 + pool && ix < w; ix++) {
                const uint8_t *src = xi + (iy * w + ix) * pix_bytes;
                for (ptrdiff_t b = 0; b < pix_bytes; b++)
                    dst[b] |= src[b];
            }
    }
}

/* ---- first layer: exact integer convolution of a uint8 image ----------
 *
 * x1[r, j] = sum_t patch[r, t] * w[t, j] with w = +-1 is an exact int32
 * (|x1| <= 255 * volume).  Weights arrive as int8 in groups of four taps:
 * w4[(t/4 * cout_pad + j) * 4 + t%4], cout_pad a multiple of FB, taps
 * past the kernel volume zero — the operand layout of vpdpbusd
 * (u8 x s8, four products summed into an int32 lane) and of
 * pmaddubsw/pmaddwd.  PIXELS patches are gathered side by side so one
 * loaded weight vector feeds PIXELS independent accumulators.  A block
 * body returns, per pixel, the FB bits (x1 >= thresh). */
typedef struct {
    const uint8_t *patch;   /* PIXELS patches, patch_stride apart */
    ptrdiff_t patch_stride, groups;
    const int8_t *w4;       /* first of this block's FB filters */
    ptrdiff_t cout_pad;
    const int32_t *thresh;  /* this block's FB thresholds */
} conv_job;

ALWAYS_INLINE unsigned threshold_bits(const int32_t *acc, const int32_t *thresh)
{
    unsigned bits = 0;
    for (int l = 0; l < FB; l++)
        bits |= (unsigned)(acc[l] >= thresh[l]) << l;
    return bits;
}

static void conv_block_scalar(const conv_job *job, unsigned bits[PIXELS])
{
    for (int p = 0; p < PIXELS; p++) {
        const uint8_t *patch = job->patch + p * job->patch_stride;
        int32_t acc[FB] = {0};
        for (ptrdiff_t g = 0; g < job->groups; g++) {
            const int8_t *w = job->w4 + g * job->cout_pad * 4;
            for (int l = 0; l < FB; l++)
                for (int t = 0; t < 4; t++)
                    acc[l] += (int32_t)patch[4 * g + t] * w[4 * l + t];
        }
        bits[p] = threshold_bits(acc, job->thresh);
    }
}

#if REPRO_X86
TARGET_AVX2 static void conv_block_avx2(const conv_job *job,
                                        unsigned bits[PIXELS])
{
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i sum[PIXELS][2];
    for (int p = 0; p < PIXELS; p++)
        sum[p][0] = sum[p][1] = _mm256_setzero_si256();
    for (ptrdiff_t g = 0; g < job->groups; g++) {
        const __m256i *w = (const __m256i *)(job->w4 + g * job->cout_pad * 4);
        const __m256i w0 = _mm256_loadu_si256(w);
        const __m256i w1 = _mm256_loadu_si256(w + 1);
        for (int p = 0; p < PIXELS; p++) {
            int32_t taps;
            memcpy(&taps, job->patch + p * job->patch_stride + 4 * g, 4);
            const __m256i av = _mm256_set1_epi32(taps);
            /* u8*s8 pairs fit int16 (|255 + 255| < 2^15): no saturation. */
            sum[p][0] = _mm256_add_epi32(sum[p][0], _mm256_madd_epi16(
                _mm256_maddubs_epi16(av, w0), ones));
            sum[p][1] = _mm256_add_epi32(sum[p][1], _mm256_madd_epi16(
                _mm256_maddubs_epi16(av, w1), ones));
        }
    }
    for (int p = 0; p < PIXELS; p++) {
        int32_t acc[FB];
        _mm256_storeu_si256((__m256i *)acc, sum[p][0]);
        _mm256_storeu_si256((__m256i *)(acc + 8), sum[p][1]);
        bits[p] = threshold_bits(acc, job->thresh);
    }
}

TARGET_AVX512 static void conv_block_avx512(const conv_job *job,
                                            unsigned bits[PIXELS])
{
    __m512i sum[PIXELS];
    for (int p = 0; p < PIXELS; p++)
        sum[p] = _mm512_setzero_si512();
    for (ptrdiff_t g = 0; g < job->groups; g++) {
        const __m512i w = _mm512_loadu_si512(job->w4 + g * job->cout_pad * 4);
        for (int p = 0; p < PIXELS; p++) {
            int32_t taps;
            memcpy(&taps, job->patch + p * job->patch_stride + 4 * g, 4);
            sum[p] = _mm512_dpbusd_epi32(sum[p], _mm512_set1_epi32(taps), w);
        }
    }
    const __m512i thresh = _mm512_loadu_si512(job->thresh);
    for (int p = 0; p < PIXELS; p++)
        bits[p] = _mm512_cmpge_epi32_mask(sum[p], thresh);
}
#endif /* REPRO_X86 */

/* Input convolution -> x1-domain threshold -> packed bits, for output
 * pixels [row_start, row_stop):
 *
 *     bit[r, j] = (x1[r, j] >= thresh[j]) ^ flip[j]
 *
 * x is a C-contiguous uint8 NHWC image batch.  thresh holds cout_pad
 * entries (INT32_MAX past cout, so padding bits stay zero) and
 * flip_packed the cout_pad flip bits, packed little-endian.  out rows
 * are out_stride bytes wide and fully written.  Requires
 * 4 * ceil(k*k*cin / 4) <= PATCH_MAX. */
void repro_input_conv_threshold_pack(
    int isa,
    const uint8_t *x, ptrdiff_t h, ptrdiff_t w, ptrdiff_t cin,
    ptrdiff_t k, ptrdiff_t stride, ptrdiff_t padding,
    ptrdiff_t oh, ptrdiff_t ow,
    const int8_t *w4, ptrdiff_t cout_pad,
    const int32_t *thresh, const uint8_t *flip_packed,
    uint8_t *out, ptrdiff_t out_stride,
    ptrdiff_t row_start, ptrdiff_t row_stop)
{
    const ptrdiff_t used = cout_pad / 8;  /* bytes the blocks write */
    conv_job job;
    uint8_t patches[PIXELS * PATCH_MAX];
    job.patch = patches;
    job.groups = (k * k * cin + 3) / 4;
    job.patch_stride = 4 * job.groups;
    job.cout_pad = cout_pad;
    /* Taps past the volume stay zero; so do the pixels a short block
     * never gathers. */
    memset(patches, 0, (size_t)(PIXELS * job.patch_stride));
    pixel_pos pos = pixel_at(row_start, oh, ow);
    for (ptrdiff_t r0 = row_start; r0 < row_stop; r0 += PIXELS) {
        const int pixels = row_stop - r0 < PIXELS ? (int)(row_stop - r0) : PIXELS;
        /* Only `pixels` rows are written back; a short last block
         * convolves stale patches behind them and drops the result. */
        for (int p = 0; p < pixels; p++, pixel_step(&pos, oh, ow))
            gather_patch_row(x, h, w, cin, k, stride, padding, pos,
                             patches + p * job.patch_stride);
        for (ptrdiff_t col = 0; col < cout_pad; col += FB) {
            unsigned bits[PIXELS];
            job.w4 = w4 + col * 4;
            job.thresh = thresh + col;
            switch (isa) {
#if REPRO_X86
            case REPRO_ISA_AVX512:
                conv_block_avx512(&job, bits);
                break;
            case REPRO_ISA_AVX2:
                conv_block_avx2(&job, bits);
                break;
#endif
            default:
                conv_block_scalar(&job, bits);
            }
            const unsigned flip = flip_packed[col / 8]
                | (unsigned)flip_packed[col / 8 + 1] << 8;
            for (int p = 0; p < pixels; p++) {
                uint8_t *o = out + (r0 + p) * out_stride + col / 8;
                o[0] = (uint8_t)(bits[p] ^ flip);
                if (col / 8 + 1 < out_stride)
                    o[1] = (uint8_t)((bits[p] ^ flip) >> 8);
            }
        }
        if (used < out_stride)
            for (int p = 0; p < pixels; p++)
                memset(out + (r0 + p) * out_stride + used, 0,
                       (size_t)(out_stride - used));
    }
}
