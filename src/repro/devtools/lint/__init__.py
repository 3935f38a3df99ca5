"""Determinism & dataflow analyzer (``repro lint`` / ``make lint``).

One front end over one parse: :class:`Program` loads every file once,
the per-module rules (``RPL0xx``: RNG discipline, nondeterministic
seeds, set order, vectorization of hot modules, API hygiene, the
service's virtual clock) run over each parsed module, and three
whole-program passes (``RPL1xx``: RNG provenance, process-boundary
escape, :func:`repro.contracts.pure` contracts) run over the linked
program.

Public API: :func:`lint_source` (per-module rules on one string) and
:func:`analyze_paths` (everything over a tree) for programmatic use,
:data:`RULES` for the per-module pack, :class:`Finding` for results, and
:func:`main` for the command line.  Findings on a line are suppressed
with ``# repro: noqa=RPLxxx -- justification``.
"""

from __future__ import annotations

from repro.devtools.lint.cli import (
    add_lint_parser,
    analyze_paths,
    lint_source,
    main,
    run_lint,
)
from repro.devtools.lint.engine import ModuleInfo, Rule
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.program import Program
from repro.devtools.lint.rules import RULES

__all__ = [
    "Finding",
    "ModuleInfo",
    "Program",
    "RULES",
    "Rule",
    "add_lint_parser",
    "analyze_paths",
    "lint_source",
    "main",
    "run_lint",
]
