"""Multi-seed replication of workload simulations across processes.

The paper's Figure 9/10 quantities (model distances, user-count sweeps)
are Monte Carlo estimates, so honest error bars need several independent
replications.  Replications are embarrassingly parallel -- each seed is a
full, independent simulation -- which makes them the natural unit for
``ProcessPoolExecutor`` fan-out: one process per seed, the batched engine
vectorizing inside each.

:class:`~repro.workload.generators.WorkloadSpec` is a frozen, picklable
dataclass, so it travels to worker processes as-is.  Seeds are spawned
deterministically from a base seed when not given explicitly.

Workers can die -- in production from OOM kills and node failures, in
chaos tests from an injected :class:`~repro.resilience.errors.WorkerCrashed`.
A failed seed is retried up to ``max_seed_retries`` times; a seed that
keeps failing is *degraded*, not fatal: the result carries the surviving
replications plus an explicit ``failed_seeds`` report, so a months-long
sweep ends with partial error bars instead of a crashed pool.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fitting import mean_relative_error
from repro.obs.metrics import MetricsRegistry, get_registry, use_registry
from repro.resilience.errors import ResilienceError, WorkerCrashed
from repro.stats.rng import derive_seed, make_rng, make_seed_sequence
from repro.workload.generators import WorkloadSpec


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A picklable schedule of replication-worker crashes.

    Maps each seed to the number of its initial attempts that crash --
    a pure function of the plan, so serial and process-pool executions
    fail (and recover) identically.
    """

    crashes: Tuple[Tuple[int, int], ...]

    @classmethod
    def generate(
        cls,
        seeds: Sequence[int],
        seed: int = 0,
        crash_probability: float = 0.5,
        max_crashes: int = 1,
    ) -> "WorkerFaultPlan":
        """Sample crash counts per replication seed, deterministically."""
        if not 0.0 <= crash_probability <= 1.0:
            raise ValueError("crash_probability must be in [0, 1]")
        if max_crashes < 1:
            raise ValueError("max_crashes must be >= 1")
        rng = make_rng(derive_seed(int(seed), "worker-fault-plan"))
        crashes = []
        for replication_seed in seeds:
            count = 0
            while count < max_crashes and rng.random() < crash_probability:
                count += 1
            if count:
                crashes.append((int(replication_seed), count))
        return cls(crashes=tuple(crashes))

    def crashes_for(self, seed: int) -> int:
        """How many initial attempts crash for ``seed``."""
        table: Dict[int, int] = dict(self.crashes)
        return table.get(int(seed), 0)


@dataclass(frozen=True)
class ReplicationResult:
    """Per-seed simulated counts plus summary statistics.

    ``seeds`` lists the replications that *succeeded* (rows of
    ``counts``); ``failed_seeds`` lists the ones degraded away after
    exhausting their retries, and ``failure_reasons`` pairs each of them
    with the ``repr`` of the exception that killed the final attempt.
    """

    seeds: Tuple[int, ...]
    counts: np.ndarray  # shape (n_seeds, n_apps)
    failed_seeds: Tuple[int, ...] = field(default=())
    failure_reasons: Tuple[Tuple[int, str], ...] = field(default=())

    @property
    def n_replications(self) -> int:
        """Number of successful independent replications."""
        return len(self.seeds)

    def describe_failures(self) -> str:
        """One deterministic line summarizing degraded seeds.

        Includes the captured exception per seed -- the whole point of
        recording ``failure_reasons`` is that "seed 7 failed" alone is
        undebuggable after a months-long sweep.
        """
        if not self.failed_seeds:
            return f"{self.n_replications} replications, no failures"
        reasons = dict(self.failure_reasons)
        failed = "; ".join(
            f"seed {seed}: {reasons.get(seed, 'unknown error')}"
            for seed in self.failed_seeds
        )
        return (
            f"{self.n_replications} replications succeeded; "
            f"{len(self.failed_seeds)} degraded to partial results "
            f"(failed seeds: {failed})"
        )

    @property
    def mean_counts(self) -> np.ndarray:
        """Per-app mean download counts across replications."""
        return self.counts.mean(axis=0)

    @property
    def std_counts(self) -> np.ndarray:
        """Per-app standard deviation across replications."""
        return self.counts.std(axis=0)

    def rank_curves(self) -> np.ndarray:
        """Each replication's counts sorted into a rank curve."""
        return np.sort(self.counts, axis=1)[:, ::-1]


def _simulate_one(
    spec: WorkloadSpec,
    seed: int,
    attempt: int = 0,
    fault_plan: Optional[WorkerFaultPlan] = None,
) -> np.ndarray:
    """Worker: one full simulation of a spec under one seed.

    ``attempt``/``fault_plan`` exist for chaos testing: a scheduled
    crash fires *before* any simulation work, exactly as a worker dying
    at startup would.
    """
    from repro.core.models import ModelKind

    if fault_plan is not None and attempt < fault_plan.crashes_for(seed):
        raise WorkerCrashed(
            f"replication worker for seed {seed} crashed on attempt {attempt}"
        )
    model = spec.build_model()
    if spec.kind == ModelKind.APP_CLUSTERING:
        return model.simulate(seed=seed)
    return model.simulate(spec.n_users, spec.total_downloads, seed=seed)


def _simulate_one_observed(
    spec: WorkloadSpec,
    seed: int,
    attempt: int = 0,
    fault_plan: Optional[WorkerFaultPlan] = None,
) -> Tuple[np.ndarray, Dict[str, dict]]:
    """Worker: simulate one seed under a private metrics registry.

    Returns the counts plus the registry snapshot so the parent can
    merge worker metrics deterministically (in chosen-seed order, not
    pool completion order).  A private registry also keeps in-process
    serial runs from writing worker metrics twice.
    """
    registry = MetricsRegistry()
    with use_registry(registry):
        counts = _simulate_one(spec, seed, attempt, fault_plan)
    return counts, registry.snapshot()


def resolve_seeds(
    seeds: Optional[Sequence[int]], n_replications: int, base_seed: int
) -> Tuple[int, ...]:
    """Explicit seeds, or a deterministic spawn from ``base_seed``."""
    if seeds is not None:
        return tuple(int(seed) for seed in seeds)
    if n_replications < 1:
        raise ValueError("n_replications must be >= 1")
    sequence = make_seed_sequence(base_seed)
    return tuple(
        int(child.generate_state(1, dtype=np.uint64)[0] % (2**31))
        for child in sequence.spawn(n_replications)
    )


_SeedOutcome = Tuple[np.ndarray, Dict[str, dict]]


def _replicate_serial(
    spec: WorkloadSpec,
    chosen: Tuple[int, ...],
    max_seed_retries: int,
    fault_plan: Optional[WorkerFaultPlan],
) -> Tuple[Dict[int, _SeedOutcome], List[Tuple[int, str]]]:
    metrics = get_registry()
    results: Dict[int, _SeedOutcome] = {}
    failed: List[Tuple[int, str]] = []
    for seed in chosen:
        for attempt in range(max_seed_retries + 1):
            metrics.counter("replication.attempts").add(1)
            try:
                results[seed] = _simulate_one_observed(
                    spec, seed, attempt, fault_plan
                )
                break
            except Exception as exc:  # noqa: BLE001 -- any worker death degrades
                metrics.counter("replication.crashes").add(1)
                if attempt == max_seed_retries:
                    failed.append((seed, repr(exc)))
    return results, failed


def _replicate_pool(
    spec: WorkloadSpec,
    chosen: Tuple[int, ...],
    max_seed_retries: int,
    fault_plan: Optional[WorkerFaultPlan],
    max_workers: Optional[int],
) -> Tuple[Dict[int, _SeedOutcome], List[Tuple[int, str]]]:
    metrics = get_registry()
    results: Dict[int, _SeedOutcome] = {}
    failed: List[Tuple[int, str]] = []
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = {
            pool.submit(_simulate_one_observed, spec, seed, 0, fault_plan): (seed, 0)
            for seed in chosen
        }
        for _ in chosen:
            metrics.counter("replication.attempts").add(1)
        while futures:
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                seed, attempt = futures.pop(future)
                try:
                    results[seed] = future.result()
                except Exception as exc:  # noqa: BLE001 -- any worker death degrades
                    metrics.counter("replication.crashes").add(1)
                    if attempt < max_seed_retries:
                        resubmitted = pool.submit(
                            _simulate_one_observed, spec, seed, attempt + 1, fault_plan
                        )
                        futures[resubmitted] = (seed, attempt + 1)
                        metrics.counter("replication.attempts").add(1)
                    else:
                        failed.append((seed, repr(exc)))
    return results, failed


def replicate_counts(
    spec: WorkloadSpec,
    seeds: Optional[Sequence[int]] = None,
    n_replications: int = 8,
    base_seed: int = 0,
    max_workers: Optional[int] = None,
    parallel: bool = True,
    max_seed_retries: int = 2,
    fault_plan: Optional[WorkerFaultPlan] = None,
) -> ReplicationResult:
    """Simulate a spec under many seeds, one process per seed.

    ``parallel=False`` runs the replications serially in-process (useful
    for debugging and for tiny workloads where process startup dominates).
    Results are identical either way: each replication depends only on
    its seed, retries re-run the seed from scratch, and failures degrade
    to ``failed_seeds`` in both modes.

    Raises :class:`~repro.resilience.errors.ResilienceError` only when
    *every* seed fails -- there is no partial result to degrade to.
    """
    chosen = resolve_seeds(seeds, n_replications, base_seed)
    if max_seed_retries < 0:
        raise ValueError("max_seed_retries must be non-negative")
    if parallel and len(chosen) > 1:
        results, failed = _replicate_pool(
            spec, chosen, max_seed_retries, fault_plan, max_workers
        )
    else:
        results, failed = _replicate_serial(
            spec, chosen, max_seed_retries, fault_plan
        )
    succeeded = tuple(seed for seed in chosen if seed in results)
    if not succeeded:
        reasons = "; ".join(f"seed {seed}: {reason}" for seed, reason in failed)
        raise ResilienceError(
            f"all {len(chosen)} replication seeds failed after "
            f"{max_seed_retries} retries each ({reasons})"
        )
    metrics = get_registry()
    metrics.counter("replication.seeds_failed").add(len(failed))
    # Merge each worker's private registry into the caller's in chosen-
    # seed order (not pool completion order) so float accumulation is
    # identical run to run and identical to the serial path.
    for seed in succeeded:
        metrics.merge_snapshot(results[seed][1])
    # Deterministic row order: the original seed order, failures removed.
    failed_table = dict(failed)
    failed_ordered = tuple(seed for seed in chosen if seed in failed_table)
    return ReplicationResult(
        seeds=succeeded,
        counts=np.stack([results[seed][0] for seed in succeeded]),
        failed_seeds=failed_ordered,
        failure_reasons=tuple(
            (seed, failed_table[seed]) for seed in failed_ordered
        ),
    )


@dataclass(frozen=True)
class DistanceEstimate:
    """A replicated Equation-6 distance with spread."""

    mean: float
    std: float
    per_seed: Tuple[float, ...]

    def describe(self) -> str:
        """One line: mean +/- std over n replications."""
        return (
            f"distance {self.mean:.4f} +/- {self.std:.4f} "
            f"({len(self.per_seed)} replications)"
        )


def replicate_distances(
    spec: WorkloadSpec,
    observed: np.ndarray,
    seeds: Optional[Sequence[int]] = None,
    n_replications: int = 8,
    base_seed: int = 0,
    max_workers: Optional[int] = None,
    parallel: bool = True,
    max_seed_retries: int = 2,
    fault_plan: Optional[WorkerFaultPlan] = None,
) -> DistanceEstimate:
    """Replicated model distance from an observed rank curve.

    ``observed`` is the measured per-app download curve; both it and each
    simulated curve are rank-sorted (descending) before the Equation-6
    mean relative error, matching the fitting pipeline.  Seeds that fail
    even after retries simply drop out of the estimate (the spread is
    then computed over fewer replications).
    """
    observed = np.sort(np.asarray(observed, dtype=np.float64))[::-1]
    result = replicate_counts(
        spec,
        seeds=seeds,
        n_replications=n_replications,
        base_seed=base_seed,
        max_workers=max_workers,
        parallel=parallel,
        max_seed_retries=max_seed_retries,
        fault_plan=fault_plan,
    )
    if observed.shape[0] != result.counts.shape[1]:
        raise ValueError(
            f"observed has {observed.shape[0]} apps but the spec simulates "
            f"{result.counts.shape[1]}"
        )
    distances = tuple(
        float(mean_relative_error(observed, curve))
        for curve in result.rank_curves()
    )
    return DistanceEstimate(
        mean=float(np.mean(distances)),
        std=float(np.std(distances)),
        per_seed=distances,
    )
