"""Shared fixtures for the PhoneBit reproduction test-suite."""

import signal

import numpy as np
import pytest
from hypothesis import settings

from repro.core.fusion import BatchNormParams

#: Hypothesis budgets live here, not on the tests.  ``tier1`` (the
#: default) replays the same derandomized examples on every run, so the
#: suite is deterministic; ``fuzz`` (``--hypothesis-profile=fuzz``, the
#: property-fuzz CI job) draws fresh random examples at 20× the budget —
#: each counterexample it finds lands as an ``@example`` on its test.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None, max_examples=100)
settings.register_profile("fuzz", database=None, deadline=None,
                          max_examples=2000)
settings.load_profile("tier1")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout_s(seconds): fail the test with TimeoutError if it runs "
        "longer than this wall-clock bound (SIGALRM-based; main thread "
        "only — a hung multi-process test dies loudly instead of "
        "stalling the whole suite)",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("timeout_s")
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    seconds = int(marker.args[0])

    def _expired(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded its {seconds}s timeout_s bound")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    """Deterministic RNG shared by tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def random_batchnorm():
    """Factory for random (but valid) batch-norm parameters."""

    def _make(channels: int, seed: int = 0) -> BatchNormParams:
        local = np.random.default_rng(seed)
        gamma = local.uniform(0.3, 1.5, size=channels)
        gamma *= local.choice([-1.0, 1.0], size=channels)
        return BatchNormParams(
            gamma=gamma,
            beta=local.normal(0.0, 0.7, size=channels),
            mean=local.normal(0.0, 3.0, size=channels),
            var=local.uniform(0.2, 4.0, size=channels),
        )

    return _make


@pytest.fixture
def tiny_bnn_network():
    """A small end-to-end PhoneBit network on 16×16 uint8 images."""
    from repro.core.layers import (
        BinaryConv2d,
        BinaryDense,
        Flatten,
        InputConv2d,
        MaxPool2d,
    )
    from repro.core.network import Network

    net = Network("tiny", input_shape=(16, 16, 3), input_dtype="uint8")
    net.add(InputConv2d(3, 16, 3, padding=1, rng=11, name="conv1"))
    net.add(MaxPool2d(2, name="pool1"))
    net.add(BinaryConv2d(16, 32, 3, padding=1, rng=12, name="conv2"))
    net.add(MaxPool2d(2, name="pool2"))
    net.add(Flatten(name="flatten"))
    net.add(BinaryDense(4 * 4 * 32, 64, rng=13, name="fc1"))
    net.add(BinaryDense(64, 10, output_binary=False, rng=14, name="fc2"))
    return net


@pytest.fixture
def tiny_images(rng):
    """A small batch of uint8 images matching ``tiny_bnn_network``."""
    return rng.integers(0, 256, size=(2, 16, 16, 3)).astype(np.uint8)
