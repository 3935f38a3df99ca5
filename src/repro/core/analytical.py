"""Closed-form expected downloads under APP-CLUSTERING (Equation 5).

Section 5.1 of the paper derives the expected number of downloads for an
app with overall rank ``i`` and within-cluster rank ``j``.  Each user makes
``d`` downloads, of which ``(1 - p) * d`` are global-Zipf selections and
``p * d`` are cluster-Zipf selections; the probability that one user ends
up downloading the app is one minus the probability of missing it in all
of those selections:

    D(i, j) = U * [ 1 - (1 - P_G(i))^((1-p)*d) * (1 - P_c(j))^(p*d) ]

where ``P_G(i)`` is the global Zipf mass of rank ``i`` over ``A`` apps and
``P_c(j)`` the cluster Zipf mass of rank ``j`` over a cluster of size
``S_C`` (all clusters equal-sized in the analysis).  The per-user miss
probability treats selections as independent draws -- exactly the paper's
approximation; fetch-at-most-once appears through the "did the user ever
pick it" framing, which caps downloads at ``U``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.models import AppClusteringParams
from repro.stats.zipf import generalized_harmonic


def expected_downloads(
    params: AppClusteringParams,
    overall_rank,
    cluster_rank,
    cluster_size: Optional[int] = None,
) -> np.ndarray:
    """Expected downloads ``D(i, j)`` of Equation 5.

    Parameters
    ----------
    params:
        The model parameters (``U``, ``A``, ``D``, ``zr``, ``zc``, ``p``,
        ``C``).
    overall_rank:
        Overall rank ``i`` (1-based); scalar or array.
    cluster_rank:
        Within-cluster rank ``j`` (1-based); scalar or array broadcastable
        against ``overall_rank``.
    cluster_size:
        ``S_C``; defaults to the equal-size assumption ``A / C`` (rounded
        up so every cluster rank stays valid).

    Returns
    -------
    Expected download counts, clipped implicitly below ``U`` by the model
    structure.
    """
    i = np.asarray(overall_rank, dtype=np.float64)
    j = np.asarray(cluster_rank, dtype=np.float64)
    if np.any(i < 1) or np.any(i > params.n_apps):
        raise ValueError(f"overall ranks must lie in [1, {params.n_apps}]")

    if cluster_size is None:
        cluster_size = int(np.ceil(params.n_apps / params.n_clusters))
    if cluster_size < 1:
        raise ValueError("cluster_size must be positive")
    if np.any(j < 1) or np.any(j > cluster_size):
        raise ValueError(f"cluster ranks must lie in [1, {cluster_size}]")

    d = params.downloads_per_user
    global_mass = (i**-params.zr) / generalized_harmonic(params.n_apps, params.zr)
    cluster_mass = (j**-params.zc) / generalized_harmonic(cluster_size, params.zc)

    miss_global = (1.0 - global_mass) ** ((1.0 - params.p) * d)
    miss_cluster = (1.0 - cluster_mass) ** (params.p * d)
    hit_probability = 1.0 - miss_global * miss_cluster
    return params.n_users * hit_probability


def _cluster_rank_layout(params: AppClusteringParams):
    """Within-cluster ranks and cluster sizes from the cluster assignment.

    Apps of a cluster are ranked 1, 2, ... in overall-rank order.  Sizes
    run up to the largest cluster index in use, so a ``cluster_of`` that
    skips an index leaves that cluster empty (size 0).
    """
    clusters = params.cluster_assignment()
    sizes = np.bincount(clusters)
    order = np.argsort(clusters, kind="stable")
    first_position = np.cumsum(sizes) - sizes
    cluster_ranks = np.empty(params.n_apps, dtype=np.int64)
    cluster_ranks[order] = (
        np.arange(1, params.n_apps + 1) - first_position[clusters[order]]
    )
    return clusters, cluster_ranks, sizes


def expected_download_curve(
    params: AppClusteringParams, cluster_size: Optional[int] = None
) -> np.ndarray:
    """Expected downloads for every app, ordered by overall rank (Eq. 5).

    Uses the model's cluster assignment to derive each app's within-cluster
    rank (apps of a cluster ordered by their overall rank), then evaluates
    :func:`expected_downloads` vectorized over all apps.  This is the
    paper's formula verbatim; see
    :func:`expected_download_curve_corrected` for the variant that also
    accounts for which cluster a clustered draw targets.
    """
    _, cluster_ranks, sizes = _cluster_rank_layout(params)
    if cluster_size is None:
        cluster_size = int(sizes.max())
    overall_ranks = np.arange(1, params.n_apps + 1)
    return expected_downloads(
        params, overall_ranks, cluster_ranks, cluster_size=cluster_size
    )


#: Bisection passes of the characteristic-time solve.  Every row reaches
#: a floating-point fixed point (its bracket stops moving) well before
#: this in practice; the cap only bounds rows whose root is near zero.
_MAX_HALVINGS = 100
#: The bracket doubles from 1 until it holds the root or passes this.
_MAX_BRACKET = 1e18


def stacked_hit_probabilities(pmf, sizes, budgets) -> np.ndarray:
    """Inclusion probabilities of ``budget`` distinct draws, row by row.

    Each row of the zero-padded ``(rows, n)`` matrix ``pmf`` is one
    categorical law over its first ``sizes[row]`` items.  Drawing until
    ``budgets[row]`` distinct items are collected (sampling *without
    replacement*, as the simulators' rejection loops do) includes item
    ``j`` with probability ``1 - exp(-pmf_j * T)`` under the standard
    Poissonization, where the characteristic time ``T`` solves
    ``sum_j (1 - exp(-pmf_j * T)) = budget``.  This is also Che's
    approximation of an LRU cache of capacity ``budget`` under the
    independent reference model (Che, Tung & Wang, IEEE JSAC 2002).

    Rows with ``budget <= 0`` are all zeros and rows with
    ``budget >= size`` are ones over their items.  Every other row's
    ``T`` is found by bisection (the left side is strictly increasing in
    ``T``): the bracket ``[0, 1]`` doubles its top until it holds the
    root, then all rows halve together.  A row whose bracket no longer
    moves has reached its floating-point fixed point and leaves the
    working set, so rows finish after as many passes as they need.
    Padding columns come back zero.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    budgets = np.asarray(budgets, dtype=np.float64)
    sizes = np.asarray(sizes)
    hits = np.zeros(pmf.shape)
    full = budgets >= sizes
    hits[full] = np.arange(pmf.shape[1]) < sizes[full, None]
    solve = np.flatnonzero((budgets > 0) & ~full)
    if solve.size == 0:
        return hits
    law = pmf[solve]
    target = budgets[solve]

    def expected_distinct(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        return -np.expm1(-law[rows] * t[:, None]).sum(axis=1)

    low = np.zeros(solve.size)
    high = np.ones(solve.size)
    growing = np.arange(solve.size)
    while growing.size:
        growing = growing[expected_distinct(growing, high[growing]) < target[growing]]
        high[growing] *= 2.0
        growing = growing[high[growing] <= _MAX_BRACKET]

    active = np.arange(solve.size)
    for _ in range(_MAX_HALVINGS):
        mid = (low[active] + high[active]) / 2.0
        below = expected_distinct(active, mid) < target[active]
        moved = np.where(below, mid != low[active], mid != high[active])
        low[active[below]] = mid[below]
        high[active[~below]] = mid[~below]
        active = active[moved]
        if active.size == 0:
            break
    t_solution = (low + high) / 2.0
    hits[solve] = -np.expm1(-law * t_solution[:, None])
    return hits


def distinct_draw_hit_probabilities(pmf: np.ndarray, budget: float) -> np.ndarray:
    """Per-item inclusion probability of ``budget`` distinct weighted draws.

    The one-row case of :func:`stacked_hit_probabilities`.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    if pmf.ndim != 1 or pmf.size == 0:
        raise ValueError("pmf must be a non-empty 1-D array")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    return stacked_hit_probabilities(pmf[None, :], [pmf.size], [budget])[0]


def expected_download_curves_corrected(
    params: AppClusteringParams,
    zc_values: Sequence[float],
    p_values: Sequence[float],
) -> np.ndarray:
    """Mean-field expected downloads with cluster-visit correction.

    Returns one curve per ``(zc, p)`` in ``itertools.product(zc_values,
    p_values)`` order, as a ``(len(zc_values) * len(p_values), n_apps)``
    array; every other parameter (``zr`` included) comes from ``params``,
    whose own ``zc`` and ``p`` are not used.

    Equation 5 treats all ``p * d`` clustered selections of a user as
    independent draws from the *target app's own* cluster.  In the actual
    process (Section 5.1) two things differ: the cluster is chosen
    uniformly among the clusters the user has previously *visited* (so
    only visitors of cluster ``c`` ever draw from ``Zc``, splitting their
    clustered budget across visited clusters), and fetch-at-most-once
    turns every draw into a *distinct* selection (rejected repeats are
    resampled).  The paper compensates by fitting through simulation; this
    corrected closed form tracks the Monte Carlo output closely and makes
    grid-search fitting cheap.

    The construction, per user with ``d`` downloads:

    - global selections: ``g = 1 + (1 - p) * (d - 1)`` distinct draws from
      ``ZG`` (the first download plus the non-clustered remainder), with
      per-app hit probabilities from :func:`stacked_hit_probabilities`;
    - cluster visits: under the same Poissonized global process, cluster
      ``c`` is visited with probability ``v_c = 1 - exp(-Q_c * T)`` where
      ``Q_c`` is the cluster's global-mass share of the solved intensity;
    - clustered selections: the ``p * (d - 1)`` clustered draws split
      evenly over the ``m = sum_c v_c`` expected visited clusters, giving
      ``k = p * (d - 1) / m`` distinct within-cluster draws for each
      visited cluster;
    - an app ``(i, j)`` in cluster ``c`` is downloaded unless it is missed
      both globally and in its cluster:
      ``P = 1 - (1 - hit_G(i)) * (1 - v_c * hit_c(j))``.

    The global law depends on ``p`` but not ``zc``, so it is solved once
    per ``p`` (one stacked call).  A cluster's law depends only on its
    size, so the clustered solve has one row per ``(zc, p, size)`` and
    covers the whole grid in a second stacked call.
    """
    zc = np.asarray(zc_values, dtype=np.float64)
    p = np.asarray(p_values, dtype=np.float64)
    if np.any(zc < 0):
        raise ValueError("Zipf exponents must be non-negative")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("p must be in [0, 1]")
    clusters, cluster_ranks, sizes = _cluster_rank_layout(params)
    n_apps = params.n_apps
    extra_downloads = max(params.downloads_per_user - 1.0, 0.0)

    ranks = np.arange(1, n_apps + 1, dtype=np.float64)
    global_mass = ranks**-params.zr / generalized_harmonic(n_apps, params.zr)
    global_budgets = np.minimum(float(n_apps), 1.0 + (1.0 - p) * extra_downloads)
    hit_global = stacked_hit_probabilities(
        np.broadcast_to(global_mass, (p.size, n_apps)),
        np.full(p.size, n_apps),
        global_budgets,
    )

    # Visit probability per cluster: 1 - prod over members of their global
    # miss probabilities (exact under the Poissonized process), one
    # bincount segment per p.
    n_clusters = sizes.size
    log_miss = np.log(np.clip(1.0 - hit_global, 1e-300, 1.0))
    segments = clusters + n_clusters * np.arange(p.size)[:, None]
    cluster_log_miss = np.bincount(
        segments.ravel(), weights=log_miss.ravel(), minlength=p.size * n_clusters
    ).reshape(p.size, n_clusters)
    visit_probability = 1.0 - np.exp(cluster_log_miss)
    expected_visited = np.maximum(visit_probability.sum(axis=1), 1.0)
    per_cluster_budget = p * extra_downloads / expected_visited

    # One clustered row per (zc, p, size of some app's cluster).
    member_sizes, size_row = np.unique(sizes[clusters], return_inverse=True)
    columns = np.arange(1, member_sizes[-1] + 1, dtype=np.float64)
    in_cluster = columns <= member_sizes[:, None]
    cluster_mass = np.where(in_cluster, columns ** -zc[:, None, None], 0.0)
    cluster_mass /= cluster_mass.sum(axis=2, keepdims=True)
    row_shape = (zc.size, p.size, member_sizes.size)
    cluster_budgets = np.minimum(member_sizes, per_cluster_budget[:, None])
    hit_cluster = stacked_hit_probabilities(
        np.broadcast_to(cluster_mass[:, None], row_shape + columns.shape).reshape(
            -1, columns.size
        ),
        np.broadcast_to(member_sizes, row_shape).ravel(),
        np.broadcast_to(cluster_budgets, row_shape).ravel(),
    ).reshape(row_shape + columns.shape)
    hit_cluster = hit_cluster[:, :, size_row, cluster_ranks - 1]

    v = visit_probability[:, clusters]
    hit_probability = 1.0 - (1.0 - hit_global) * (1.0 - v * hit_cluster)
    return params.n_users * hit_probability.reshape(-1, n_apps)


def expected_download_curve_corrected(params: AppClusteringParams) -> np.ndarray:
    """The corrected curve at ``params`` (see
    :func:`expected_download_curves_corrected`, of which it is the 1x1
    grid)."""
    return expected_download_curves_corrected(params, (params.zc,), (params.p,))[0]


def expected_zipf_at_most_once(
    n_apps: int, n_users: int, total_downloads: int, zr: float
) -> np.ndarray:
    """Expected downloads per rank under ZIPF-at-most-once.

    The same hit-probability argument with ``p = 0``: a user making ``d``
    global draws downloads rank ``i`` with probability
    ``1 - (1 - P_G(i))**d``, and downloads saturate at ``U``.  This is the
    Gummadi-style fetch-at-most-once curve the paper compares against.
    """
    if n_apps < 1 or n_users < 1:
        raise ValueError("n_apps and n_users must be positive")
    if total_downloads < 0:
        raise ValueError("total_downloads must be non-negative")
    d = total_downloads / n_users
    ranks = np.arange(1, n_apps + 1, dtype=np.float64)
    mass = ranks**-zr / generalized_harmonic(n_apps, zr)
    return n_users * (1.0 - (1.0 - mass) ** d)


def expected_zipf(n_apps: int, total_downloads: int, zr: float) -> np.ndarray:
    """Expected downloads per rank under the unconstrained ZIPF model."""
    if n_apps < 1:
        raise ValueError("n_apps must be positive")
    if total_downloads < 0:
        raise ValueError("total_downloads must be non-negative")
    ranks = np.arange(1, n_apps + 1, dtype=np.float64)
    mass = ranks**-zr / generalized_harmonic(n_apps, zr)
    return total_downloads * mass
