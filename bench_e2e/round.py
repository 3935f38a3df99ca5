"""One round of a benchmark workload, in a fresh process.

``run.py`` starts this once per round, so that every round starts from
the same interpreter state: in one long-lived process, each repeated
campaign ran slower than the first (4.5 s, then 5.2-5.7 s).  The
round's result is printed as one JSON line.  With ``--trace`` the round runs with every layer
boundary wrapped, writes its spans to ``--trace-file`` and adds the
per-layer metrics that need no untraced round.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _write_trace(path: Path, header: dict, phases: dict) -> None:
    from spans import SPAN_FIELDS

    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({**header, "fields": [*SPAN_FIELDS, "phase"]}) + "\n")
        for phase, trace in phases.items():
            for record in trace.spans:
                handle.write(json.dumps([*record, phase]) + "\n")
            for name, (calls, seconds) in sorted(trace.leaves.items()):
                handle.write(json.dumps({"leaf": name, "calls": calls,
                                         "seconds": seconds, "phase": phase}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from measure import machine_descriptor, peak_rss_mb

    workdir = Path(args.workdir)
    if args.trace_file:
        import layers

        result, setup_trace, timed_trace = layers.traced_round(
            args.workload, args.seed, workdir)
        metrics = layers.layer_metrics(setup_trace, timed_trace, result)
        _write_trace(Path(args.trace_file), {"workload": args.workload, "seed": args.seed},
                     {"setup": setup_trace, "timed": timed_trace})
    else:
        result = workloads.run_round(args.workload, args.seed, workdir)
        metrics = {}

    # Set-up runs from the parent's spawn (interpreter start and imports
    # included) to the start of the timed phase; time.monotonic() reads
    # the same system-wide clock in both processes.
    setup_s = result.phases.started["timed"] - args.started
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": result.wall_s,
        "tick_s": result.tick_s,
        "digest": result.digest,
        "problems": result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "downloads": result.downloads,
        "peak_rss_mb": peak_rss_mb(),
        "layer_metrics": metrics,
        "size": workloads.SIZES[args.workload],
        "machine": machine_descriptor(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
