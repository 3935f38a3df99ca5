"""Tests of the end-to-end benchmark itself, at reduced sizes.

Run from the repository root::

    python -m pytest bench_e2e/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads
from measure import MIN_BEYOND, percentile
from repro.analysis.report import full_report
from repro.crawler.database import SnapshotDatabase
from repro.crawler.scheduler import run_crawl_campaign
from repro.stats.rng import derive_seed

BENCH = Path(__file__).resolve().parents[1]

SMALL = {
    "campaign": dict(store="anzhi", app_scale=0.004, download_scale=2e-5,
                     user_scale=1e-4, warmup_days=3, crawl_days=3),
    "serve": dict(store="1mobile", app_scale=0.001, download_scale=2e-4,
                  user_scale=5e-4, warmup_days=5, ticks=6, clients=4, faults="mild"),
    "report": dict(initial_apps=60, n_users=120, warmup_days=3, crawl_days=5,
                   daily_downloads=300.0, paid_fraction=0.25),
}


@pytest.mark.parametrize("workload", sorted(workloads.SIZES))
def test_small_run_is_correct_and_repeats(workload, tmp_path):
    first = workloads.run_round(workload, 3, tmp_path, size=SMALL[workload])
    second = workloads.run_round(workload, 3, tmp_path, size=SMALL[workload])
    assert first.problems == []
    assert first.attempted > 0
    assert first.failed == 0
    assert first.wall_s > 0 and first.setup_s > 0
    for attribute in ("digest", "attempted", "failed", "downloads", "faults_fired"):
        assert getattr(first, attribute) == getattr(second, attribute)
    if workload == "serve":
        assert len(first.tick_s) == SMALL["serve"]["ticks"] - 1
        assert first.faults_fired > 0


def test_other_seed_changes_the_inputs(tmp_path):
    one = workloads.run_round("campaign", 3, tmp_path, size=SMALL["campaign"])
    other = workloads.run_round("campaign", 4, tmp_path, size=SMALL["campaign"])
    assert one.digest != other.digest


def test_rounds_whose_digests_differ_are_a_problem():
    assert run.digest_problems([{"digest": "a"}, {"digest": "a"}]) == []
    assert run.digest_problems([{"digest": "a"}, {"digest": "a"}, {"digest": "b"}])


def test_serve_under_faults_matches_the_batch_campaign(tmp_path):
    size = SMALL["serve"]
    served = workloads.run_round("serve", 5, tmp_path, size=size)
    batch = run_crawl_campaign(workloads.serve_profile(size),
                               seed=derive_seed(5, "serve"))
    assert served.faults_fired > 0
    assert served.digest == batch.database.fingerprint()


def test_report_is_the_same_on_the_packed_store(tmp_path):
    campaign = run_crawl_campaign(workloads.report_profile(SMALL["report"]), seed=11)
    campaign.database.pack(tmp_path / "packed")
    packed = SnapshotDatabase.load(tmp_path / "packed")
    in_memory = full_report(campaign.database, campaign.store_name)
    assert full_report(packed, campaign.store_name) == in_memory
    assert workloads.report_failures(in_memory) == []


def test_report_failures_finds_skipped_and_missing_sections():
    text = "".join(
        f"\n{'=' * len(title)}\n{title}\n{'=' * len(title)}\nbody\n"
        for title in workloads.REPORT_SECTIONS[1:]
    ).replace("body", "(skipped: no data)", 1)
    assert workloads.report_failures(text) == [
        f"{workloads.REPORT_SECTIONS[0]}: missing",
        f"{workloads.REPORT_SECTIONS[1]}: skipped",
    ]


def test_percentile_refuses_a_thin_tail():
    values = [float(v) for v in range(1, 100)]
    with pytest.raises(ValueError, match="beyond"):
        percentile(values, 0.9)
    values.append(100.0)
    assert percentile(values, 0.9) == 90.0
    assert sum(v > 90.0 for v in values) == MIN_BEYOND
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_tracing_keeps_outputs_and_restores_the_program(tmp_path):
    from repro.marketplace.store import AppStore

    original = AppStore.__dict__["advance_day"]
    plain = workloads.run_round("campaign", 3, tmp_path, size=SMALL["campaign"])
    traced, _, timed = layers.traced_round("campaign", 3, tmp_path, size=SMALL["campaign"])
    assert AppStore.__dict__["advance_day"] is original
    assert traced.digest == plain.digest
    # Self times partition the timed phase's root span.
    root = [r for r in timed.spans if r[2] == "bench.timed"]
    assert len(root) == 1
    total = sum(timed.layer_self_seconds().values())
    assert total == pytest.approx(root[0][4] - root[0][3], rel=1e-6)


def test_traced_round_reports_every_declared_per_layer_metric(tmp_path):
    result, setup, timed = layers.traced_round("serve", 3, tmp_path, size=SMALL["serve"])
    metrics = layers.layer_metrics(setup, timed, result)
    untraced = [{"wall_s": 1.0, "downloads": {"timed": 10}, "tick_s": [0.1] * 100}]
    metrics.update(layers.untraced_metrics(2.0, untraced))
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, unit) for name, (_, unit) in metrics.items()
    ]
    assert metrics["crawler.requests"][0] > 0
    assert metrics["service.tick.self_s"][0] > 0
    assert metrics["resilience.faults_fired"][0] == result.faults_fired


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
