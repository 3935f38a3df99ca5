"""Committed-baseline mode for ``repro lint``.

A baseline is a checked-in JSON inventory of known findings.  CI runs
the analyzer against it and fails only on findings *not* in the
inventory, so a new cross-cutting rule can land before the last legacy
violation is fixed, without ratcheting backwards: each baseline entry
carries a count, and the gate consumes at most that many matches.

Findings match on ``(code, path, message)`` -- deliberately not line
numbers, so unrelated edits above a baselined finding do not break CI.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Counter as CounterType
from typing import Iterable, List, Tuple

from repro.devtools.lint.findings import Finding

BASELINE_VERSION = 1

_Key = Tuple[str, str, str]


def _key(finding: Finding) -> _Key:
    return (finding.code, finding.path.replace("\\", "/"), finding.message)


def write_baseline(findings: Iterable[Finding], path: str) -> int:
    """Write the baseline inventory for a set of findings; returns count."""
    counts = Counter(_key(finding) for finding in findings)
    payload = {
        "version": BASELINE_VERSION,
        "findings": [
            {"code": code, "path": file_path, "message": message, "count": count}
            for (code, file_path, message), count in sorted(counts.items())
        ],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return sum(counts.values())


def load_baseline(path: str) -> CounterType[_Key]:
    """Load a baseline inventory into a matching budget."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline version {version!r} in {path} "
            f"(expected {BASELINE_VERSION})"
        )
    budget: CounterType[_Key] = Counter()
    for entry in payload.get("findings", []):
        key = (entry["code"], entry["path"], entry["message"])
        budget[key] += int(entry.get("count", 1))
    return budget


def apply_baseline(
    findings: Iterable[Finding], budget: CounterType[_Key]
) -> Tuple[List[Finding], int]:
    """Split findings into (new, number baselined-away)."""
    remaining = Counter(budget)
    fresh: List[Finding] = []
    suppressed = 0
    for finding in sorted(findings, key=Finding.sort_key):
        key = _key(finding)
        if remaining[key] > 0:
            remaining[key] -= 1
            suppressed += 1
        else:
            fresh.append(finding)
    return fresh, suppressed
