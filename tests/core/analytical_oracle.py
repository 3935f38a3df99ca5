"""Scalar reference implementations of the corrected analytical curve.

These are the original one-solve-at-a-time forms of
:func:`repro.core.analytical.distinct_draw_hit_probabilities` and
:func:`repro.core.analytical.expected_download_curve_corrected`: one
bisection per cluster, 100 fixed halvings each, and a per-app loop for the
cluster layout.  The library solves every row of a grid in one stacked
call; the tests hold it to these oracles.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from repro.core.fitting import FitResult, mean_relative_error
from repro.core.models import AppClusteringParams, ModelKind
from repro.stats.zipf import generalized_harmonic


def cluster_rank_layout(params: AppClusteringParams):
    """Within-cluster ranks and cluster sizes, one app at a time."""
    clusters = params.cluster_assignment()
    n_apps = params.n_apps
    cluster_ranks = np.zeros(n_apps, dtype=np.int64)
    sizes = np.zeros(int(clusters.max()) + 1, dtype=np.int64)
    for app_index in range(n_apps):
        cluster = clusters[app_index]
        sizes[cluster] += 1
        cluster_ranks[app_index] = sizes[cluster]
    return clusters, cluster_ranks, sizes


def distinct_draw_hit_probabilities(pmf: np.ndarray, budget: float) -> np.ndarray:
    """Poissonized inclusion probabilities by a scalar 100-step bisection."""
    pmf = np.asarray(pmf, dtype=np.float64)
    n = pmf.size
    if budget <= 0:
        return np.zeros(n)
    if budget >= n:
        return np.ones(n)

    def expected_distinct(t: float) -> float:
        return float(-np.expm1(-pmf * t).sum())

    low, high = 0.0, 1.0
    while expected_distinct(high) < budget:
        high *= 2.0
        if high > 1e18:
            break
    for _ in range(100):
        mid = (low + high) / 2.0
        if expected_distinct(mid) < budget:
            low = mid
        else:
            high = mid
    t_solution = (low + high) / 2.0
    return -np.expm1(-pmf * t_solution)


def expected_download_curve_corrected(params: AppClusteringParams) -> np.ndarray:
    """The corrected mean-field curve with one solve per cluster."""
    clusters, cluster_ranks, sizes = cluster_rank_layout(params)
    n_apps = params.n_apps
    d = params.downloads_per_user

    ranks = np.arange(1, n_apps + 1, dtype=np.float64)
    global_mass = ranks**-params.zr / generalized_harmonic(n_apps, params.zr)

    global_budget = min(float(n_apps), 1.0 + (1.0 - params.p) * max(d - 1.0, 0.0))
    hit_global = distinct_draw_hit_probabilities(global_mass, global_budget)

    n_clusters = sizes.size
    log_miss = np.log(np.clip(1.0 - hit_global, 1e-300, 1.0))
    cluster_log_miss = np.zeros(n_clusters, dtype=np.float64)
    np.add.at(cluster_log_miss, clusters, log_miss)
    visit_probability = 1.0 - np.exp(cluster_log_miss)
    expected_visited = max(float(visit_probability.sum()), 1.0)

    cluster_budget_total = params.p * max(d - 1.0, 0.0)
    per_cluster_budget = cluster_budget_total / expected_visited

    hit_cluster = np.zeros(n_apps, dtype=np.float64)
    for cluster_index in range(n_clusters):
        members = np.flatnonzero(clusters == cluster_index)
        if members.size == 0:
            continue
        member_ranks = cluster_ranks[members].astype(np.float64)
        pmf = member_ranks**-params.zc
        pmf /= pmf.sum()
        budget = min(float(members.size), per_cluster_budget)
        hit_cluster[members] = distinct_draw_hit_probabilities(pmf, budget)

    v = visit_probability[clusters]
    hit_probability = 1.0 - (1.0 - hit_global) * (1.0 - v * hit_cluster)
    return params.n_users * hit_probability


def fit_app_clustering(
    observed_downloads,
    n_users: int,
    n_clusters: int,
    zr_grid: Sequence[float],
    zc_grid: Sequence[float],
    p_grid: Sequence[float],
) -> FitResult:
    """Grid search one curve at a time, strict ``<`` in product order."""
    observed = np.sort(np.asarray(observed_downloads, dtype=np.float64))[::-1]
    best: Optional[FitResult] = None
    for zr, zc, p in itertools.product(zr_grid, zc_grid, p_grid):
        params = AppClusteringParams(
            n_apps=observed.size,
            n_users=n_users,
            total_downloads=int(observed.sum()),
            zr=zr,
            zc=zc,
            p=p,
            n_clusters=n_clusters,
        )
        predicted = np.sort(expected_download_curve_corrected(params))[::-1]
        distance = mean_relative_error(observed, predicted)
        if best is None or distance < best.distance:
            best = FitResult(
                kind=ModelKind.APP_CLUSTERING,
                distance=distance,
                zr=zr,
                zc=zc,
                p=p,
                predicted=predicted,
            )
    assert best is not None
    return best
