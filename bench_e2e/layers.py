"""Which program boundaries the traced run wraps, and the per-layer metrics.

Every boundary name starts with the layer (module of ``repro``) it
belongs to.  The metric table in ``README.md`` maps each per-layer
metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Sequence, Tuple

from measure import median, percentile
from spans import LAYERS, Trace, Tracer

#: (module, function) pairs of every report section, by section.  The
#: forecast section's functions live in ``repro.core`` and are traced as
#: ``core.forecast.*``.
SECTIONS: Dict[str, Sequence[Tuple[str, str]]] = {
    "quality": [("repro.crawler.quality", "assess_crawl_quality")],
    "dataset": [
        ("repro.analysis.dataset", "dataset_summary"),
        ("repro.analysis.growth", "growth_series"),
        ("repro.analysis.growth", "new_vs_catalog_share"),
    ],
    "popularity": [("repro.analysis.popularity", "popularity_report")],
    "updates": [("repro.analysis.updates", "update_distribution")],
    "comments": [
        ("repro.analysis.spam", "detect_spam_users"),
        ("repro.analysis.comments", "comment_behavior_report"),
        ("repro.analysis.affinity_study", "affinity_study"),
    ],
    "model_validation": [("repro.analysis.model_validation", "fit_store_day")],
    "pricing": [
        ("repro.analysis.pricing_study", "free_paid_split"),
        ("repro.analysis.pricing_study", "price_correlations"),
        ("repro.analysis.income", "income_report"),
        ("repro.analysis.strategies", "developer_strategy_report"),
        ("repro.analysis.adlib", "scan_store_for_ads"),
        ("repro.analysis.strategies", "break_even_report"),
    ],
    "forecast": [],
}

_SECTION_PREFIX = {section: f"analysis.{section}." for section in SECTIONS}
_SECTION_PREFIX["forecast"] = "core.forecast."

_STORE_READS = (
    "stores", "days", "snapshots_on", "snapshot", "app_ids", "snapshot_columns",
    "download_vector", "download_matrix", "download_deltas", "update_counts",
    "comments", "comment_streams", "apks", "latest_apk_per_app",
)
_STORE_WRITES = ("add_snapshot", "add_comments", "add_apk")
_ENDPOINTS = ("n_pages", "list_page", "app_page", "app_comments", "download_apk")


def instrument(tracer: Tracer) -> None:
    """Wrap every traced boundary; ``tracer.restore()`` undoes it."""
    from repro.analysis.streaming import SegmentDownloadShares, StreamingAnalytics
    from repro.crawler.crawler import StoreCrawler
    from repro.crawler.database import SnapshotDatabase
    from repro.crawler.proxies import ProxyPool
    from repro.crawler.requesting import RequestEngine
    from repro.crawler.webapi import StoreWebApi
    from repro.marketplace.store import AppStore
    from repro.resilience.breaker import CircuitBreaker
    from repro.resilience.faults import FaultInjector
    from repro.resilience.retry import RetryPolicy
    from repro.service import EcosystemService
    from repro.stats.sampling import AliasSampler

    def function(module: str, name: str, span: str, kind: str = "span") -> None:
        tracer.wrap_function(importlib.import_module(module), name, span, kind)

    # marketplace, with its alias-table draws (the sampler lives in
    # repro.stats but is only drawn from by the marketplace here)
    tracer.wrap_method(AppStore, "advance_day", "marketplace.day",
                       day_of=lambda store: store.day)
    function("repro.marketplace.generator", "build_store", "marketplace.build")
    for method in ("sample_one", "sample", "sample_fast"):
        tracer.wrap_method(AliasSampler, method, f"marketplace.draw.{method}", kind="leaf")

    # crawler: batch crawl days, request-engine steps, proxies, web API
    tracer.wrap_method(StoreCrawler, "crawl_day", "crawler.crawl_day",
                       day_of=lambda crawler, day, *args, **kwargs: day)
    tracer.wrap_method(RequestEngine, "request_steps", "crawler.request_step",
                       kind="steps")
    tracer.wrap_method(ProxyPool, "pick", "crawler.proxy_pick")
    for endpoint in _ENDPOINTS:
        tracer.wrap_method(StoreWebApi, endpoint, f"crawler.webapi.{endpoint}")

    # resilience: per-attempt checks.  Every proxy pick checks every
    # breaker (4M checks in a serve round), so those are only counted.
    tracer.wrap_method(CircuitBreaker, "allow", "resilience.breaker.allow", kind="count")
    for method in ("record_success", "record_failure"):
        tracer.wrap_method(CircuitBreaker, method, f"resilience.breaker.{method}",
                           kind="leaf")
    for method in ("take", "take_all", "maybe_raise_transient"):
        tracer.wrap_method(FaultInjector, method, f"resilience.faults.{method}",
                           kind="leaf")
    tracer.wrap_method(RetryPolicy, "delay", "resilience.retry.delay", kind="leaf")

    # store
    for method in _STORE_WRITES:
        tracer.wrap_method(SnapshotDatabase, method, f"store.ingest.{method}")
    for method in _STORE_READS:
        tracer.wrap_method(SnapshotDatabase, method, f"store.query.{method}")
    tracer.wrap_method(SnapshotDatabase, "pack", "store.pack")
    tracer.wrap_method(SnapshotDatabase, "load", "store.open")

    # analysis sections and the fitter
    function("repro.analysis.report", "full_report", "analysis.report")
    for section, functions in SECTIONS.items():
        for module, name in functions:
            function(module, name, f"analysis.{section}.{name}")
    function("repro.core.fitting", "fit_model", "core.fit")
    function("repro.core.analytical", "expected_download_curve_corrected", "core.curve")
    function("repro.core.analytical", "distinct_draw_hit_probabilities", "core.solve",
             kind="leaf")
    for name in ("forecast_downloads", "find_problematic_apps"):
        function("repro.core.prediction", name, f"core.forecast.{name}")

    # service
    tracer.wrap_method(EcosystemService, "tick", "service.tick",
                       day_of=lambda service: service.store.day)
    for method in ("observe_snapshot", "export"):
        tracer.wrap_method(StreamingAnalytics, method, f"service.streaming.{method}")
    for method in ("observe_matrix", "export"):
        tracer.wrap_method(SegmentDownloadShares, method,
                           f"service.streaming.segments_{method}")


def traced_round(workload: str, seed: int, workdir, size=None):
    """One round with every boundary wrapped during its two phases.

    Returns the round's result and the set-up and timed phases' traces,
    each rooted at a ``bench.setup`` / ``bench.timed`` span.
    """
    from workloads import run_round

    tracer = Tracer()
    traces = {}

    def enter(phase: str) -> None:
        if phase == "setup":
            instrument(tracer)
        tracer.drain()
        traces[phase] = tracer.open(f"bench.{phase}")

    def leave(phase: str) -> None:
        tracer.close(traces.pop(phase))
        traces[phase + ".trace"] = tracer.drain()
        if phase == "timed":
            tracer.restore()

    try:
        result = run_round(workload, seed, workdir, size=size,
                           on_enter=enter, on_exit=leave)
    finally:
        tracer.restore()
    return result, traces["setup.trace"], traces["timed.trace"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_ms(values: List[float]) -> float:
    return median(values) * 1e3 if values else 0.0


def _sim_seconds_per_day(sim_spans: Dict[str, dict]) -> float:
    for name in ("campaign/crawl_day", "service/crawl_day"):
        found = sim_spans.get(name)
        if found and found["count"]:
            return found["sim_seconds"] / found["count"]
    return 0.0


def _counter_sum(counters: Dict[str, float], prefix: str) -> float:
    return sum(value for name, value in counters.items() if name.startswith(prefix))


def layer_metrics(setup: Trace, timed: Trace, traced) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced round (``traced``, a :class:`RoundResult`).

    The metrics that need the untraced rounds are :func:`untraced_metrics`.
    """
    counters = traced.phases.counters["timed"]
    metrics: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (float(value), unit)

    self_seconds = timed.layer_self_seconds()
    total = sum(self_seconds.values())
    for layer in LAYERS:
        put(f"{layer}.self_s", self_seconds[layer], "s")
        put(f"{layer}.self_share", 100.0 * _ratio(self_seconds[layer], total), "%")

    downloads = traced.downloads["timed"]
    put("marketplace.busy_s", timed.busy_seconds("marketplace.day"), "s")
    put("marketplace.day_p50_ms", _median_ms(timed.durations("marketplace.day")), "ms")
    put("marketplace.downloads", downloads, "count")
    put("marketplace.draws_per_download",
        _ratio(timed.leaf_calls("marketplace.draw."), downloads), "ratio")
    put("setup.marketplace.busy_s", setup.busy_seconds("marketplace.day"), "s")
    put("setup.marketplace.draws_per_download",
        _ratio(setup.leaf_calls("marketplace.draw."), traced.downloads["setup"]), "ratio")

    picks = len(timed.outermost("crawler.proxy_pick"))
    put("crawler.busy_s", timed.busy_seconds("crawler."), "s")
    put("crawler.requests", counters.get("crawler.requests", 0), "count")
    put("crawler.retries", counters.get("crawler.retries", 0), "count")
    put("crawler.pages_dropped", counters.get("crawler.pages_dropped", 0), "count")
    put("crawler.sim_s_per_day",
        _sim_seconds_per_day(traced.phases.sim_spans["timed"]), "s")
    put("crawler.proxy_pick.busy_s", timed.busy_seconds("crawler.proxy_pick"), "s")
    put("crawler.breaker_checks_per_pick",
        _ratio(timed.leaf_calls("resilience.breaker.allow"), picks), "ratio")
    put("crawler.webapi.busy_s", timed.busy_seconds("crawler.webapi."), "s")
    put("crawler.webapi.calls", len(timed.outermost("crawler.webapi.")), "count")

    put("resilience.faults_fired", traced.faults_fired, "count")

    put("store.ingest.busy_s", timed.busy_seconds("store.ingest."), "s")
    put("store.rows_ingested", _counter_sum(counters, "store.rows_ingested."), "count")
    put("store.query.busy_s", timed.busy_seconds("store.query."), "s")
    put("store.queries", len(timed.outermost("store.query.")), "count")
    for source in ("mmap", "memory"):
        put(f"store.column_reads.{source}",
            counters.get(f"store.column_reads.{source}", 0), "count")
    put("store.pack_s", setup.busy_seconds("store.pack"), "s")
    put("store.open_s", setup.busy_seconds("store.open"), "s")

    for section, prefix in _SECTION_PREFIX.items():
        put(f"analysis.{section}.busy_s", timed.busy_seconds(prefix), "s")

    put("core.fit.calls", len(timed.durations("core.fit")), "count")
    put("core.fit.busy_s", timed.busy_seconds("core.fit"), "s")
    put("core.curves", len(timed.durations("core.curve")), "count")
    put("core.curve_p50_ms", _median_ms(timed.durations("core.curve")), "ms")
    put("core.solves", timed.leaf_calls("core.solve"), "count")
    put("core.forecast.busy_s", timed.busy_seconds("core.forecast."), "s")

    put("service.tick.self_s", timed.self_seconds("service.tick"), "s")
    put("service.streaming.busy_s", timed.busy_seconds("service.streaming."), "s")
    put("service.worker_restarts", traced.worker_restarts, "count")
    return metrics


def untraced_metrics(traced_wall_s: float, untraced: List[dict]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics read from the untraced rounds of a traced run.

    ``untraced`` are the rounds' result records (``wall_s``, ``tick_s``,
    ``downloads``).  The tick percentiles pool every untraced tick.
    """
    ticks = [s for r in untraced for s in r["tick_s"]]
    return {
        "marketplace.downloads_per_s": (
            median([r["downloads"]["timed"] / r["wall_s"] for r in untraced]), "1/s"),
        "service.tick_p50_ms": (percentile(ticks, 0.5) * 1e3 if ticks else 0.0, "ms"),
        "service.tick_p90_ms": (percentile(ticks, 0.9) * 1e3 if ticks else 0.0, "ms"),
        "trace.overhead_s": (traced_wall_s - median([r["wall_s"] for r in untraced]), "s"),
    }
