"""One analysis of the shipped tree, shared by every tree-wide test.

The gates are read from the ``lint-repro`` recipe in the Makefile and
parsed with the CLI's own argument parser, so pytest checks exactly the
(paths, codes) pairs CI does.  Each gate is analyzed once per session;
the zero-findings, whole-program and contracted-kernel assertions all
read the same parse instead of re-analyzing the tree each.
"""

from __future__ import annotations

import argparse
import shlex
from dataclasses import dataclass
from pathlib import Path
from typing import List

import pytest

from repro.devtools.lint.cli import analyze, configure_parser
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.program import Program

REPO_ROOT = Path(__file__).resolve().parents[2]


@dataclass
class Gate:
    """One ``repro lint`` invocation of the Makefile and what it found."""

    argv: List[str]
    program: Program
    findings: List[Finding]


def makefile_gates() -> List[List[str]]:
    """The argument lists ``make lint-repro`` passes to the analyzer."""
    makefile = (REPO_ROOT / "Makefile").read_text(encoding="utf-8")
    recipe = makefile.split("\nlint-repro:\n", 1)[1].split("\n\n", 1)[0]
    marker = "-m repro.devtools.lint "
    return [
        shlex.split(line.split(marker, 1)[1])
        for line in recipe.splitlines()
        if marker in line
    ]


def run_gate(argv: List[str]) -> Gate:
    parser = argparse.ArgumentParser()
    configure_parser(parser)
    args = parser.parse_args(argv)
    program = Program.load([str(REPO_ROOT / path) for path in args.paths])
    findings = analyze(program)
    if args.ignore is not None:
        ignored = set(args.ignore.split(","))
        findings = [f for f in findings if f.code not in ignored]
    # A --baseline is not applied: test_committed_baseline_is_empty pins
    # the committed one at zero entries, so it cannot hide a finding.
    return Gate(argv=argv, program=program, findings=findings)


@pytest.fixture(scope="session")
def shipped_tree() -> List[Gate]:
    return [run_gate(argv) for argv in makefile_gates()]
