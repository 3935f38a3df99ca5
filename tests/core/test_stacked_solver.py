"""The stacked characteristic-time solver against the scalar oracles.

:func:`repro.core.analytical.stacked_hit_probabilities` solves many
Poissonized draw laws in one call, and the corrected curves and the
APP-CLUSTERING grid search are built on it.  The scalar forms it replaced
live in :mod:`tests.core.analytical_oracle`; these tests hold the stacked
path to them.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import analytical
from repro.core.analytical import (
    distinct_draw_hit_probabilities,
    expected_download_curve_corrected,
    expected_download_curves_corrected,
    stacked_hit_probabilities,
)
from repro.core.fitting import fit_model
from repro.core.models import AppClusteringModel, AppClusteringParams, ModelKind
from tests.core import analytical_oracle as oracle

#: Largest relative curve difference allowed against the oracle.
RELATIVE_TOLERANCE = 1e-10


def max_relative_difference(actual, expected) -> float:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    scale = np.maximum(np.abs(expected), np.finfo(np.float64).tiny)
    return float(np.max(np.abs(actual - expected) / scale, initial=0.0))


exponents = st.floats(min_value=0.5, max_value=2.5)
probabilities = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def clustering_params(draw):
    """Parameters with empty clusters from either source.

    ``n_clusters`` above ``n_apps`` leaves round-robin clusters empty; a
    custom ``cluster_of`` over every other index leaves the odd ones
    empty.  ``downloads_per_user`` spans no clustered budget (d <= 1),
    ordinary budgets, and budgets at or above every cluster's size.
    """
    n_apps = draw(st.integers(min_value=1, max_value=400))
    n_users = draw(st.integers(min_value=1, max_value=500))
    per_user = draw(
        st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=3.0 * n_apps)
    )
    layout = draw(st.sampled_from(["round-robin", "sparse-round-robin", "custom"]))
    cluster_of = None
    if layout == "round-robin":
        n_clusters = draw(st.integers(min_value=1, max_value=60))
    elif layout == "sparse-round-robin":
        n_clusters = draw(st.integers(min_value=n_apps + 1, max_value=n_apps + 40))
    else:
        n_clusters = draw(st.integers(min_value=1, max_value=40))
        cluster_of = tuple(
            2 * c
            for c in draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_clusters - 1),
                    min_size=n_apps,
                    max_size=n_apps,
                )
            )
        )
    return AppClusteringParams(
        n_apps=n_apps,
        n_users=n_users,
        total_downloads=int(round(per_user * n_users)),
        zr=draw(exponents),
        zc=draw(exponents),
        p=draw(probabilities),
        n_clusters=n_clusters,
        cluster_of=cluster_of,
    )


class TestClusterRankLayout:
    @given(params=clustering_params())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_app_loop(self, params):
        clusters, ranks, sizes = analytical._cluster_rank_layout(params)
        want_clusters, want_ranks, want_sizes = oracle.cluster_rank_layout(params)
        np.testing.assert_array_equal(clusters, want_clusters)
        np.testing.assert_array_equal(ranks, want_ranks)
        np.testing.assert_array_equal(sizes, want_sizes)

    def test_skipped_cluster_index_is_empty(self):
        params = AppClusteringParams(
            n_apps=5, n_users=10, total_downloads=30, cluster_of=(0, 2, 2, 0, 2)
        )
        _, ranks, sizes = analytical._cluster_rank_layout(params)
        assert ranks.tolist() == [1, 1, 2, 2, 3]
        assert sizes.tolist() == [2, 0, 3]


class TestStackedHitProbabilities:
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=60),
                exponents,
                st.sampled_from(["zero", "exact", "above", "inside"]),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_match_scalar_bisection(self, rows):
        width = max(size for size, *_ in rows)
        pmf = np.zeros((len(rows), width))
        sizes, budgets = [], []
        for row, (size, exponent, edge, fraction) in enumerate(rows):
            mass = np.arange(1, size + 1, dtype=np.float64) ** -exponent
            pmf[row, :size] = mass / mass.sum()
            budget = {
                "zero": 0.0,
                "exact": float(size),
                "above": size + 1.5,
                "inside": fraction * size,
            }[edge]
            sizes.append(size)
            budgets.append(budget)
        hits = stacked_hit_probabilities(pmf, sizes, budgets)
        for row, (size, budget) in enumerate(zip(sizes, budgets)):
            want = oracle.distinct_draw_hit_probabilities(pmf[row, :size], budget)
            assert max_relative_difference(hits[row, :size], want) <= RELATIVE_TOLERANCE
            assert np.all(hits[row, size:] == 0.0)

    def test_budget_edges(self):
        pmf = np.array([[0.5, 0.3, 0.2], [0.6, 0.4, 0.0], [0.5, 0.5, 0.0]])
        hits = stacked_hit_probabilities(pmf, [3, 2, 2], [0.0, 2.0, 7.0])
        np.testing.assert_array_equal(hits, [[0, 0, 0], [1, 1, 0], [1, 1, 0]])

    def test_one_row_case_is_the_scalar_entry_point(self):
        pmf = 1.0 / np.arange(1, 101) ** 1.3
        pmf /= pmf.sum()
        np.testing.assert_array_equal(
            distinct_draw_hit_probabilities(pmf, 17.0),
            stacked_hit_probabilities(pmf[None, :], [100], [17.0])[0],
        )

    def test_tiny_budget_keeps_the_bisection_cap(self):
        """A root near zero stops after the oracle's 100 halvings."""
        pmf = np.full(4, 0.25)
        hits = distinct_draw_hit_probabilities(pmf, 1e-300)
        want = oracle.distinct_draw_hit_probabilities(pmf, 1e-300)
        np.testing.assert_array_equal(hits, want)


class TestCorrectedCurves:
    @given(params=clustering_params())
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_curve_matches_oracle(self, params):
        got = expected_download_curve_corrected(params)
        want = oracle.expected_download_curve_corrected(params)
        assert max_relative_difference(got, want) <= RELATIVE_TOLERANCE

    @given(
        params=clustering_params(),
        zc_values=st.lists(exponents, min_size=1, max_size=3),
        p_values=st.lists(probabilities, min_size=1, max_size=3),
    )
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_grid_rows_in_product_order(self, params, zc_values, p_values):
        curves = expected_download_curves_corrected(params, zc_values, p_values)
        assert curves.shape == (len(zc_values) * len(p_values), params.n_apps)
        row = 0
        for zc in zc_values:
            for p in p_values:
                point = AppClusteringParams(
                    n_apps=params.n_apps,
                    n_users=params.n_users,
                    total_downloads=params.total_downloads,
                    zr=params.zr,
                    zc=zc,
                    p=p,
                    n_clusters=params.n_clusters,
                    cluster_of=params.cluster_of,
                )
                want = oracle.expected_download_curve_corrected(point)
                assert max_relative_difference(curves[row], want) <= RELATIVE_TOLERANCE
                row += 1

    def test_grid_values_validated(self):
        params = AppClusteringParams(n_apps=10, n_users=5, total_downloads=40)
        with pytest.raises(ValueError):
            expected_download_curves_corrected(params, [-1.0], [0.5])
        with pytest.raises(ValueError):
            expected_download_curves_corrected(params, [1.0], [1.5])


class TestFitSelection:
    @pytest.mark.parametrize(
        "seed, n_apps, n_users, n_clusters",
        [(0, 150, 200, 10), (1, 300, 400, 30), (2, 80, 60, 100)],
    )
    def test_same_parameters_as_oracle_grid_search(
        self, seed, n_apps, n_users, n_clusters
    ):
        truth = AppClusteringParams(
            n_apps=n_apps,
            n_users=n_users,
            total_downloads=12 * n_users,
            zr=1.4,
            zc=1.3,
            p=0.85,
            n_clusters=n_clusters,
        )
        counts = AppClusteringModel(truth).simulate(seed=seed).astype(np.float64)
        observed = np.sort(counts[counts > 0])[::-1]
        grids = dict(
            zr_grid=(1.0, 1.2, 1.4, 1.6),
            zc_grid=(1.0, 1.3, 1.6),
            p_grid=(0.5, 0.85, 0.95),
        )
        got = fit_model(
            ModelKind.APP_CLUSTERING,
            observed,
            n_users=int(observed[0]),
            n_clusters=n_clusters,
            **grids,
        )
        want = oracle.fit_app_clustering(
            observed, int(observed[0]), n_clusters, **grids
        )
        assert (got.zr, got.zc, got.p) == (want.zr, want.zc, want.p)
        assert got.distance == pytest.approx(want.distance, rel=1e-12)
        assert max_relative_difference(got.predicted, want.predicted) <= RELATIVE_TOLERANCE
