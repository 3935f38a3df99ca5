"""End-to-end benchmark of the ``repro`` pipeline.

Usage, from the repository root::

    python3 bench_e2e/run.py --workload campaign --seed 1 --seconds 24 --trace 0

A run makes several rounds of the workload, each in a fresh process
(``round.py``): set-up, then the timed phase, then the output checks.
Every round builds the same inputs from ``--seed``, so every round's
output digest must be the same.
``--seconds`` sets how many rounds, from each round's nominal length.
The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics, taken from one
more round with every layer boundary wrapped, whose spans are written to
``bench_e2e/results/``.  The line before it is the full record: machine
descriptor, sizes, per-round figures and digests, and sample counts.

See ``bench_e2e/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from measure import PINNED_ENV, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Measured length of one round's timed phase on a 2-core Xeon VM.
#: ``--seconds`` is divided by it to fix the round count, so the work
#: done (and every count in the result) depends on the arguments, never
#: on machine speed.
NOMINAL_ROUND_S = {"campaign": 4.5, "serve": 5.5, "report": 10.0}
#: Rounds are at least three: set-up time is a median over rounds, and
#: three serve rounds give the 102 ticks its tick p90 needs.
MIN_ROUNDS = 3
#: A round that runs longer than this has hung.
ROUND_TIMEOUT_S = 150


def round_count(workload: str, seconds: float) -> int:
    """Rounds a run of ``seconds`` makes of ``workload``."""
    return max(MIN_ROUNDS, int(round(seconds / NOMINAL_ROUND_S[workload])))


def run_child(workload: str, seed: int, trace_file=None) -> dict:
    """Run one round in a fresh process and return its result record."""
    command = [sys.executable, str(HERE / "round.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", str(RESULTS),
               "--started", repr(time.monotonic())]
    if trace_file is not None:
        command += ["--trace-file", str(trace_file)]
    done = subprocess.run(command, env={**os.environ, **PINNED_ENV},
                          capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} round exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def digest_problems(rounds) -> list:
    """Every round of a run repeats the same work, so their outputs must agree."""
    digests = [r["digest"] for r in rounds]
    if len(set(digests)) == 1:
        return []
    return [f"the rounds' output digests differ: {digests}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)

    rounds = [run_child(args.workload, args.seed)
              for _ in range(round_count(args.workload, args.seconds))]
    every = list(rounds)
    samples = {}
    trace_path = None
    if args.trace:
        import layers

        trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl"
        traced = run_child(args.workload, args.seed, trace_file=trace_path)
        every.append(traced)
        metrics = {name: tuple(value) for name, value in traced["layer_metrics"].items()}
        metrics.update(layers.untraced_metrics(traced["wall_s"], rounds))
    else:
        metrics = {
            "setup_s": (median([r["setup_s"] for r in rounds]), "s"),
            "wall_s": (median([r["wall_s"] for r in rounds]), "s"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in rounds]), "MB"),
        }
        samples = {name: len(rounds) for name in metrics}

    problems = sorted({p for r in every for p in r["problems"]})
    problems += digest_problems(every)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": rounds[0]["size"],
        "machine": rounds[0]["machine"],
        "rounds": [{key: r[key] for key in ("setup_s", "wall_s", "peak_rss_mb", "digest",
                                            "attempted", "failed", "downloads")}
                   for r in rounds],
        "ticks": sum(len(r["tick_s"]) for r in rounds),
        "problems": problems,
        "samples": samples,
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
