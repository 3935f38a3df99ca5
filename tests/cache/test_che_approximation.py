"""Monte Carlo LRU hit ratios against Che's characteristic-time approximation.

Under the independent reference model (IID Zipf requests, the ZIPF
workload), Che, Tung & Wang (IEEE JSAC 2002) approximate an LRU cache of
capacity ``C`` by a characteristic time ``T_C`` solving
``sum_j (1 - exp(-p_j T_C)) = C``: item ``j`` is in the cache with
probability ``1 - exp(-p_j T_C)`` and the hit ratio is
``sum_j p_j (1 - exp(-p_j T_C))``.  That is the same equation the
analytical fitter solves, so the stacked solver gives every
``(zr, capacity)`` row in one call.
"""

import itertools

import numpy as np
import pytest

from repro.cache.policies import LruCache
from repro.core.analytical import stacked_hit_probabilities
from repro.stats.rng import make_rng
from repro.stats.zipf import zipf_weights

N_ITEMS = 2_000
WARMUP = 50_000
COUNTED = 200_000
EXPONENTS = (0.6, 0.8, 1.0)
CAPACITIES = (20, 100, 400)
#: Absolute hit-ratio tolerance; the approximation's own error at these
#: sizes is a few tenths of a point.
TOLERANCE = 0.01


def simulated_hit_ratio(trace: np.ndarray, capacity: int) -> float:
    cache = LruCache(capacity)
    for key in trace[:WARMUP].tolist():
        cache.access(key)
    cache.hits = cache.misses = 0
    for key in trace[WARMUP:].tolist():
        cache.access(key)
    return cache.hit_ratio


@pytest.fixture(scope="module")
def che_hit_ratios():
    rows = list(itertools.product(EXPONENTS, CAPACITIES))
    pmf = np.array([zipf_weights(N_ITEMS, zr) for zr, _ in rows])
    pmf /= pmf.sum(axis=1, keepdims=True)
    in_cache = stacked_hit_probabilities(
        pmf, np.full(len(rows), N_ITEMS), [capacity for _, capacity in rows]
    )
    ratios = (pmf * in_cache).sum(axis=1)
    return dict(zip(rows, ratios))


@pytest.mark.parametrize("zr", EXPONENTS)
def test_lru_matches_che(zr, che_hit_ratios):
    pmf = zipf_weights(N_ITEMS, zr)
    pmf = pmf / pmf.sum()
    trace = make_rng(17).choice(N_ITEMS, size=WARMUP + COUNTED, p=pmf)
    for capacity in CAPACITIES:
        simulated = simulated_hit_ratio(trace, capacity)
        assert simulated == pytest.approx(che_hit_ratios[zr, capacity], abs=TOLERANCE)


def test_che_budget_is_the_capacity():
    """The characteristic time fills the cache exactly, in expectation."""
    pmf = zipf_weights(N_ITEMS, 0.8)
    pmf = pmf / pmf.sum()
    in_cache = stacked_hit_probabilities(pmf[None, :], [N_ITEMS], [100.0])[0]
    assert in_cache.sum() == pytest.approx(100.0, rel=1e-9)
