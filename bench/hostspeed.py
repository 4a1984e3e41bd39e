"""Host speed, from a fixed reference task that runs no quditzx code.

The benchmark runs on a few cores of a shared host whose speed changes
with other tenants' load, by up to 2x within seconds.  ``host_speed``
times a pure-Python loop and an einsum on fixed arrays and returns the
host's speed relative to a nominal host: 1.0 is nominal, 0.5 runs
everything twice as slowly.  A latency times the host speed while it
was measured is the latency calibrated to the nominal host.
"""

from __future__ import annotations

import time

import numpy as np

# the reference task's durations on the nominal host: about the fastest
# the 2-core x86 box of the nominal pass times (worker.py) runs them
REF_PY_S = 1.0e-3
REF_NP_S = 1.1e-3
REF_ARRAY = np.random.default_rng(0).normal(size=(40, 40, 40))
# the traced run patches numpy.einsum; the reference must not be traced
EINSUM = np.einsum


def _ref_py() -> int:
    s = 0
    for i in range(15000):
        s += i * i % 7
    return s


def _ref_np():
    return EINSUM("abc,cbd->ad", REF_ARRAY, REF_ARRAY)


def _fastest(f, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


def host_speed(repeats: int = 2) -> float:
    """Host speed now: the geometric mean of the two reference tasks'
    speeds, each the fastest of ``repeats`` runs, relative to nominal."""
    py = _fastest(_ref_py, repeats)
    npy = _fastest(_ref_np, repeats)
    return ((REF_PY_S / py) * (REF_NP_S / npy)) ** 0.5


def setup_speed(samples: int = 10) -> float:
    """Mean host speed over ``samples`` samples: what a set-up time,
    sampled before and after, is calibrated by."""
    return sum(host_speed() for _ in range(samples)) / samples
