"""``repro lint`` runner: one parse, every rule, one report.

Each run loads the given paths into one
:class:`~repro.devtools.lint.program.Program`, runs the per-module rules
over every parsed module and the whole-program passes over the same
program, and filters suppressions once.  Exit codes: 0 clean, 1
findings, 2 usage errors (unknown path or rule code, unreadable
baseline).  ``--format json`` emits a machine-readable object so CI and
editors can consume findings without scraping text; ``--format sarif``
(``--sarif``) feeds GitHub code scanning.  A committed baseline
(``--baseline`` / ``--write-baseline``) lets a new rule land before
every legacy violation is fixed.  ``--changed`` reports only findings in
files git considers modified (worktree, index, or untracked); the whole
tree is still loaded, because the whole-program passes need it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from itertools import groupby
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.devtools.lint.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.devtools.lint.engine import Rule, _apply_noqa
from repro.devtools.lint.escape import EscapePass
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.program import Program
from repro.devtools.lint.provenance import ProvenancePass
from repro.devtools.lint.purity import PurityPass
from repro.devtools.lint.rules import RULES
from repro.devtools.lint.sarif import render_sarif

#: The whole-program passes, run over the same Program as the rules.
PASSES = (ProvenancePass, EscapePass, PurityPass)

#: Every code the analyzer can report, in the shape ``--list-rules``,
#: ``--select``/``--ignore`` and the SARIF serializer consume.
RULE_DESCRIPTORS: Tuple[Dict[str, str], ...] = (
    {
        "code": "RPL000",
        "name": "parse-error",
        "summary": "file could not be parsed",
    },
    *(
        {"code": rule.code, "name": rule.name, "summary": rule.summary}
        for rule in RULES
    ),
    *(descriptor for pass_class in PASSES for descriptor in pass_class.rules),
)


def analyze(
    program: Program,
    rules: Sequence[Type[Rule]] = RULES,
    passes: Sequence[type] = PASSES,
) -> List[Finding]:
    """Every finding on a loaded program, noqa-filtered and sorted."""
    findings = list(program.errors)
    for module in program.modules.values():
        for rule_class in rules:
            findings.extend(rule_class(module).run())
    for pass_class in passes:
        findings.extend(pass_class(program).run())
    findings.sort(key=Finding.sort_key)
    noqa = {module.path: module.noqa for module in program.modules.values()}
    kept: List[Finding] = []
    for path, group in groupby(findings, key=lambda finding: finding.path):
        kept.extend(_apply_noqa(group, noqa.get(path, {})))
    return kept


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[Type[Rule]] = RULES,
) -> List[Finding]:
    """Run the per-module rules on one source string."""
    return analyze(Program.from_sources([(path, source)]), rules, passes=())


def analyze_paths(paths: Sequence[str]) -> Tuple[List[Finding], int]:
    """Every rule and pass over a tree; returns (findings, files checked)."""
    program = Program.load(paths)
    return analyze(program), program.files_checked


def _parse_code_list(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    codes = [part.strip() for part in raw.split(",") if part.strip()]
    known = {rule["code"] for rule in RULE_DESCRIPTORS}
    unknown = sorted(set(codes) - known)
    if unknown:
        raise ValueError(f"unknown rule codes: {', '.join(unknown)}")
    return codes


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Add the lint arguments to a parser (shared by both entry points)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=["text", "json", "sarif"],
        help="output format (default: text)",
    )
    parser.add_argument(
        "--sarif",
        action="store_const",
        const="sarif",
        dest="output_format",
        help="shorthand for --format sarif",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "report only files git reports as changed (worktree, staged, "
            "or untracked) under the given paths"
        ),
    )
    parser.add_argument(
        "--select", default=None, help="comma-separated codes to enable"
    )
    parser.add_argument(
        "--ignore", default=None, help="comma-separated codes to disable"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="committed baseline JSON; matching findings do not fail the run",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="write the current findings as a new baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its summary and exit",
    )
    parser.set_defaults(handler=run_lint)


def add_lint_parser(subparsers) -> None:
    """Register the ``lint`` subcommand on the top-level ``repro`` CLI."""
    parser = subparsers.add_parser(
        "lint",
        help="run the determinism & dataflow analyzer (RPL rules)",
        description=(
            "Static analysis enforcing the repository's seed-threading, "
            "determinism, vectorization, process-boundary and purity "
            "conventions, per module and whole-program. Suppress one "
            "line with `# repro: noqa=RPLxxx -- reason`."
        ),
    )
    configure_parser(parser)


def changed_python_files(paths: Sequence[str]) -> Optional[List[Path]]:
    """``.py`` files git reports as touched, restricted to ``paths``.

    Unions unstaged, staged, and untracked files; returns ``None`` when
    git is unavailable or the working directory is not a checkout.
    Deleted files are skipped (there is nothing left to lint).  Every
    command lists paths relative to the working directory, so the run
    works from any subdirectory of the checkout.
    """
    commands = [
        ["git", "diff", "--name-only", "--relative", "HEAD"],
        ["git", "diff", "--name-only", "--relative", "--cached"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ]
    names: set = set()
    for command in commands:
        try:
            result = subprocess.run(
                command, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        names.update(
            line.strip() for line in result.stdout.splitlines() if line.strip()
        )
    roots = [Path(raw).resolve() for raw in paths]
    selected: List[Path] = []
    for name in sorted(names):
        if not name.endswith(".py"):
            continue
        path = Path(name)
        if not path.exists():
            continue
        resolved = path.resolve()
        if any(resolved == root or root in resolved.parents for root in roots):
            selected.append(path)
    return selected


def _list_rules(output_format: str) -> int:
    if output_format == "json":
        print(json.dumps(list(RULE_DESCRIPTORS), indent=2))
    else:
        for rule in RULE_DESCRIPTORS:
            print(f"{rule['code']} [{rule['name']}] {rule['summary']}")
    return 0


def run_lint(args) -> int:
    """Handler behind ``repro lint``."""
    if args.list_rules:
        return _list_rules(args.output_format)
    try:
        selected = _parse_code_list(args.select)
        ignored = _parse_code_list(args.ignore)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    missing = [raw for raw in args.paths if not Path(raw).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    changed = None
    if args.changed:
        changed = changed_python_files(args.paths)
        if changed is None:
            print("error: --changed requires a git checkout", file=sys.stderr)
            return 2

    findings, files_checked = analyze_paths(args.paths)
    if changed is not None:
        touched = {path.resolve() for path in changed}
        findings = [f for f in findings if Path(f.path).resolve() in touched]
        files_checked = len(changed)
    if selected is not None:
        findings = [f for f in findings if f.code in selected]
    if ignored is not None:
        findings = [f for f in findings if f.code not in ignored]

    if args.write_baseline is not None:
        count = write_baseline(findings, args.write_baseline)
        print(
            f"repro lint: wrote baseline with {count} findings to "
            f"{args.write_baseline}"
        )
        return 0
    baselined = 0
    if args.baseline is not None:
        try:
            budget = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as error:
            print(f"error: cannot load baseline: {error}", file=sys.stderr)
            return 2
        findings, baselined = apply_baseline(findings, budget)

    if args.output_format == "sarif":
        print(render_sarif(findings, RULE_DESCRIPTORS, tool_name="repro-lint"))
    elif args.output_format == "json":
        print(
            json.dumps(
                {
                    "files_checked": files_checked,
                    "baselined": baselined,
                    "findings": [finding.to_dict() for finding in findings],
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        noun = "finding" if len(findings) == 1 else "findings"
        if args.baseline is not None:
            noun = f"new {noun} ({baselined} baselined)"
        print(f"repro lint: {len(findings)} {noun} in {files_checked} files")
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.devtools.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="determinism & dataflow analyzer (RPL rules)",
    )
    configure_parser(parser)
    args = parser.parse_args(argv)
    return args.handler(args)
