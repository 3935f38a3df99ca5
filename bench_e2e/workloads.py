"""The benchmark's three workloads, each a round of set-up then timed work.

Every workload puts most of its time into a different layer:

* ``campaign`` -- one :func:`run_crawl_campaign` on the Anzhi profile:
  mostly the marketplace (download draws), then the batch crawler.
* ``serve`` -- :class:`EcosystemService` ticks with four async clients
  under the ``mild`` fault plan on a quiet, large 1Mobile-shaped store:
  mostly crawler, resilience and service code, little marketplace.
* ``report`` -- one :func:`full_report` over a packed store opened
  through mmap: mostly the ``core`` fitter.

A round is deterministic in its seed: every round of a run builds the
same inputs from the run's seed, so every round, traced or not, gives
the same output digest.  Set-up and timed phases are
entered through a :class:`Phases` object so the runner can time them and
the traced run can bracket them with spans.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

# Everything a round touches is imported here, so import time is part of
# set-up and the traced run finds every module it wraps already loaded.
import repro.analysis.adlib  # noqa: F401
import repro.analysis.affinity_study  # noqa: F401
import repro.analysis.comments  # noqa: F401
import repro.analysis.dataset  # noqa: F401
import repro.analysis.growth  # noqa: F401
import repro.analysis.income  # noqa: F401
import repro.analysis.model_validation  # noqa: F401
import repro.analysis.popularity  # noqa: F401
import repro.analysis.pricing_study  # noqa: F401
import repro.analysis.spam  # noqa: F401
import repro.analysis.strategies  # noqa: F401
import repro.analysis.updates  # noqa: F401
import repro.core.prediction  # noqa: F401
import repro.crawler.quality  # noqa: F401
from repro.analysis.report import full_report
from repro.crawler.database import SnapshotDatabase
from repro.crawler.scheduler import run_crawl_campaign
from repro.marketplace.behavior import BehaviorParams
from repro.marketplace.profiles import StoreProfile, demo_profile, paper_profile, scaled_profile
from repro.marketplace.store import AppStore
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience.chaos import estimate_crawl_horizon
from repro.resilience.faults import named_plan
from repro.service import EcosystemService
from repro.service.virtualtime import run_virtual
from repro.stats.rng import derive_seed

#: Workload sizes.  ``campaign`` keeps the Anzhi scaling of
#: ``benchmarks/conftest.py`` (2,044 apps, 9,100 users) with the 2:1
#: warm-up:crawl split shortened so several rounds fit in one run.
#: ``serve`` is a 1Mobile-shaped store: ~1,000 apps and ~130 downloads a
#: day, so the crawl dominates.  ``report`` crawls a demo-fixture-shaped
#: store with a 25% paid share so that every report section has data.
#: Its 2,000 users keep the set-up out of saturation: user activity is
#: Pareto(1.8), so with a few hundred users the seed's heaviest user
#: exhausts its categories and sets how many alias draws are wasted,
#: which made set-up time depend on the seed (see README.md).
SIZES: Dict[str, Dict[str, object]] = {
    "campaign": dict(
        store="anzhi", app_scale=0.035, download_scale=2.2e-4,
        user_scale=1.3e-3, warmup_days=12, crawl_days=6,
    ),
    "serve": dict(
        store="1mobile", app_scale=0.0078, download_scale=2e-4,
        user_scale=2.4e-3, warmup_days=46, ticks=35, clients=4, faults="mild",
    ),
    "report": dict(
        initial_apps=250, n_users=2000, warmup_days=6, crawl_days=12,
        daily_downloads=700.0, paid_fraction=0.25,
    ),
}

#: Headings of the report sections, in the order ``full_report`` renders them.
REPORT_SECTIONS = (
    "Crawl quality",
    "Dataset (Table 1)",
    "Popularity (Figures 2-3)",
    "Updates (Figure 4)",
    "Clustering effect (Figures 5-7)",
    "Model validation (Figures 8-9)",
    "Pricing and revenue (Figures 11-18)",
    "Forecast (Section 7 implication)",
)


class Phases:
    """Times a round's set-up and timed phases; hooks let tracing bracket them.

    Registry counters and span aggregates are captured at each phase's
    start and end, so per-phase deltas can be told apart (the report's
    set-up writes the store that its timed phase only reads).
    """

    def __init__(self, registry: MetricsRegistry,
                 on_enter: Optional[Callable[[str], None]] = None,
                 on_exit: Optional[Callable[[str], None]] = None) -> None:
        self.registry = registry
        self.seconds: Dict[str, float] = {}
        #: ``time.monotonic()`` at each phase's start (comparable across processes).
        self.started: Dict[str, float] = {}
        self.counters: Dict[str, Dict[str, float]] = {}
        self.sim_spans: Dict[str, Dict[str, dict]] = {}
        self._on_enter = on_enter
        self._on_exit = on_exit

    def _state(self):
        snapshot = self.registry.snapshot()
        return snapshot["counters"], snapshot["spans"]

    @contextmanager
    def phase(self, name: str):
        counters, spans = self._state()
        if self._on_enter is not None:
            self._on_enter(name)
        self.started[name] = time.monotonic()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - start
            if self._on_exit is not None:
                self._on_exit(name)
            end_counters, end_spans = self._state()
            self.counters[name] = {
                key: value - counters.get(key, 0) for key, value in end_counters.items()
            }
            self.sim_spans[name] = {
                key: {
                    "count": value["count"] - spans.get(key, {}).get("count", 0),
                    "sim_seconds": value["sim_seconds"]
                    - spans.get(key, {}).get("sim_seconds", 0.0),
                }
                for key, value in end_spans.items()
            }

    def setup(self):
        return self.phase("setup")

    def timed(self):
        return self.phase("timed")


@dataclass
class RoundResult:
    """One round's timings, outputs and checks.

    ``setup_s`` is the set-up phase inside the round's process; the
    benchmark's ``setup_s`` also counts the process start and imports.
    """

    setup_s: float
    wall_s: float
    digest: str
    problems: List[str]
    attempted: int
    failed: int
    #: Downloads the marketplace simulated in each phase (``next_download``
    #: outcomes; update re-downloads excluded).
    downloads: Dict[str, int]
    faults_fired: int = 0
    worker_restarts: int = 0
    tick_s: List[float] = field(default_factory=list)
    phases: Optional[Phases] = None


def _downloads_since(store: AppStore, first_day: int) -> int:
    return sum(a.downloads for a in store.daily_activity() if a.day >= first_day)


def check_crawl(database: SnapshotDatabase, store: AppStore) -> List[str]:
    """The crawl recorded every listed app daily and the true final counts.

    A day's crawl runs after the day closes, when the store lists every
    app whose listing day is at most the next day.
    """
    problems = []
    days = database.days(store.name)
    if not days:
        return ["no day was crawled"]
    for day in days:
        crawled = database.snapshot_columns(store.name, day).app_ids.tolist()
        listed = store.listed_app_ids(day + 1)
        if crawled != sorted(listed):
            problems.append(
                f"day {day}: {len(crawled)} apps crawled, {len(listed)} listed"
            )
    last = days[-1]
    app_ids = database.snapshot_columns(store.name, last).app_ids
    crawled_counts = database.download_vector(store.name, last)
    true_counts = store.download_counts()[app_ids]
    mismatched = int((crawled_counts != true_counts).sum())
    if mismatched:
        problems.append(f"day {last}: {mismatched} apps' downloads differ from the store")
    return problems


def report_failures(text: str) -> List[str]:
    """Sections of a rendered report that are missing or were skipped."""
    failed = []
    positions = []
    for title in REPORT_SECTIONS:
        heading = f"{'=' * len(title)}\n{title}\n{'=' * len(title)}\n"
        position = text.find(heading)
        if position < 0:
            failed.append(f"{title}: missing")
        positions.append((position, title, len(heading)))
    present = sorted(p for p in positions if p[0] >= 0)
    for index, (position, title, length) in enumerate(present):
        end = present[index + 1][0] if index + 1 < len(present) else len(text)
        if "(skipped" in text[position + length:end]:
            failed.append(f"{title}: skipped")
    return failed


# -- profiles ---------------------------------------------------------------


def campaign_profile(size: Dict[str, object]) -> StoreProfile:
    profile = scaled_profile(
        paper_profile(str(size["store"])),
        app_scale=float(size["app_scale"]),
        download_scale=float(size["download_scale"]),
        user_scale=float(size["user_scale"]),
    )
    return replace(profile, warmup_days=int(size["warmup_days"]),
                   crawl_days=int(size["crawl_days"]))


def serve_profile(size: Dict[str, object]) -> StoreProfile:
    profile = scaled_profile(
        paper_profile(str(size["store"])),
        app_scale=float(size["app_scale"]),
        download_scale=float(size["download_scale"]),
        user_scale=float(size["user_scale"]),
    )
    # crawl_days also sizes the listing-arrival schedule, so it must equal
    # the ticks served for the run to match the batch campaign.
    return replace(profile, warmup_days=int(size["warmup_days"]),
                   crawl_days=int(size["ticks"]))


def report_profile(size: Dict[str, object]) -> StoreProfile:
    """The ``demo_campaign`` test fixture's profile with a paid share."""
    return demo_profile(
        name="demo",
        initial_apps=int(size["initial_apps"]),
        new_apps_per_day=2.0,
        crawl_days=int(size["crawl_days"]),
        warmup_days=int(size["warmup_days"]),
        daily_downloads=float(size["daily_downloads"]),
        warmup_daily_downloads=float(size["daily_downloads"]),
        n_users=int(size["n_users"]),
        n_categories=12,
        comment_probability=0.2,
        spam_users=3,
        paid_fraction=float(size["paid_fraction"]),
        behavior=BehaviorParams(
            cluster_probability=0.9, global_exponent=1.3, cluster_exponent=1.3
        ),
    )


def serve_fault_plan(profile: StoreProfile, size: Dict[str, object], seed: int):
    clients = int(size["clients"])
    horizon = estimate_crawl_horizon(profile, requests_per_second=8.0 * clients)
    return named_plan(str(size["faults"]), seed=seed, horizon=horizon)


# -- rounds -----------------------------------------------------------------


def campaign_round(size, seed: int, phases: Phases, workdir: Path) -> RoundResult:
    with phases.setup():
        profile = campaign_profile(size)
    with phases.timed():
        campaign = run_crawl_campaign(profile, seed=seed)
    store = campaign.generated.store
    stats = campaign.crawler.stats
    return RoundResult(
        setup_s=phases.seconds["setup"],
        wall_s=phases.seconds["timed"],
        digest=campaign.database.fingerprint(),
        problems=check_crawl(campaign.database, store),
        attempted=stats.requests + stats.pages_dropped,
        failed=stats.pages_dropped,
        downloads={"setup": 0, "timed": _downloads_since(store, 0)},
        worker_restarts=campaign.worker_restarts,
    )


def serve_round(size, seed: int, phases: Phases, workdir: Path) -> RoundResult:
    ticks = int(size["ticks"])
    tick_s: List[float] = []

    async def serve() -> EcosystemService:
        # Both phases run inside the loop so that spans opened by the
        # traced run are entered and left in the same task context.
        with phases.setup():
            profile = serve_profile(size)
            service = EcosystemService(
                profile,
                seed=seed,
                n_clients=int(size["clients"]),
                fault_plan=serve_fault_plan(profile, size, seed),
            )
            # The first tick also runs the unobserved warm-up days.
            await service.tick()
        with phases.timed():
            for _ in range(ticks - 1):
                start = time.perf_counter()
                await service.tick()
                tick_s.append(time.perf_counter() - start)
        return service

    service = run_virtual(serve())
    first_timed_day = service.first_crawl_day + 1
    stats = [client.stats for client in service.clients]
    dropped = sum(s.pages_dropped for s in stats)
    return RoundResult(
        setup_s=phases.seconds["setup"],
        wall_s=phases.seconds["timed"],
        digest=service.database.fingerprint(),
        problems=check_crawl(service.database, service.store),
        attempted=sum(s.requests for s in stats) + dropped,
        failed=dropped,
        downloads={
            "setup": _downloads_since(service.store, 0)
            - _downloads_since(service.store, first_timed_day),
            "timed": _downloads_since(service.store, first_timed_day),
        },
        faults_fired=sum(service.fault_injector.fired_counts().values()),
        worker_restarts=service.worker_restarts,
        tick_s=tick_s,
    )


def report_round(size, seed: int, phases: Phases, workdir: Path) -> RoundResult:
    directory = Path(tempfile.mkdtemp(prefix="report-", dir=workdir))
    try:
        with phases.setup():
            campaign = run_crawl_campaign(report_profile(size), seed=seed)
            campaign.database.pack(directory / "dataset")
            database = SnapshotDatabase.load(directory / "dataset")
        with phases.timed():
            text = full_report(database, campaign.store_name)
        failures = report_failures(text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return RoundResult(
            setup_s=phases.seconds["setup"],
            wall_s=phases.seconds["timed"],
            digest=f"{digest}/{database.fingerprint()}",
            problems=failures,
            attempted=len(REPORT_SECTIONS),
            failed=len(failures),
            downloads={"setup": _downloads_since(campaign.generated.store, 0), "timed": 0},
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)


ROUNDS = {"campaign": campaign_round, "serve": serve_round, "report": report_round}


def run_round(workload: str, seed: int, workdir: Path,
              size: Optional[Dict[str, object]] = None,
              on_enter: Optional[Callable[[str], None]] = None,
              on_exit: Optional[Callable[[str], None]] = None) -> RoundResult:
    """Run one round of ``workload`` in a fresh metrics registry.

    The program's seed is derived from the benchmark's ``seed`` and the
    workload, so every round of a run repeats the same work.
    """
    size = SIZES[workload] if size is None else size
    with use_registry(MetricsRegistry()) as registry:
        phases = Phases(registry, on_enter=on_enter, on_exit=on_exit)
        result = ROUNDS[workload](size, derive_seed(seed, workload), phases, workdir)
    result.phases = phases
    return result
