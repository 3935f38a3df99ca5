"""RNG provenance pass: where seeds and Generators really come from.

Generalizes the per-file RPL003/RPL010 rules across module boundaries
with two checks:

- ``RPL101`` -- any modern numpy RNG constructor (``default_rng``,
  ``Generator``, ``SeedSequence``, bit generators) called outside
  :mod:`repro.stats.rng`.  The per-file rules only catch this inside
  seed-taking functions (RPL003) or loops (RPL004); a helper module
  that launders an unseeded Generator through a plain function passes
  them all.  Whole-program, the policy is simply: Generators are *born*
  in one module, everywhere else receives them.
- ``RPL102`` -- a wall-clock or builtin-``hash`` value that reaches a
  seed sink (an argument to the central coercers or numpy's seeding
  constructors, a ``seed=`` keyword, or a ``*seed*`` assignment)
  **through any number of function calls**.  Taint is tracked through
  assignments, arithmetic, tuple packing, returns, and parameter
  passing via per-function summaries iterated to a fixpoint.

The lattice is tiny by design: a value is tainted by ``{clock}``,
``{hash}``, both, or neither, plus the set of parameters whose taint
would flow into it.  Everything unresolvable is untainted -- precision
over recall, so the tree can be held at zero findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.program import FunctionInfo, Program
from repro.devtools.lint.rules import (
    _CLOCK_CALLS,
    _MODERN_NUMPY_RANDOM,
    _SEED_COERCERS,
    RNG_HELPER_MODULE_SUFFIXES,
    _path_matches,
)

TAINT_CLOCK = "wall clock"
TAINT_HASH = "builtin hash()"

#: Builtins that pass taint straight through their arguments.
_WRAPPER_CALLS = frozenset(
    {"int", "float", "str", "abs", "round", "min", "max", "sum", "pow", "divmod"}
)

#: Seed sinks that are themselves external constructors.
_NUMPY_SEED_SINKS = frozenset(
    {"numpy.random.default_rng", "numpy.random.SeedSequence"}
)

#: Fixpoint round cap; summaries converge in O(call-graph depth) rounds.
_MAX_ROUNDS = 20

Taint = Tuple[Set[str], Set[str]]  # (taint kinds, contributing params)


def _empty() -> Taint:
    return (set(), set())


@dataclass
class _Summary:
    """What a function does with taint, seen from a call site."""

    returns_taints: Set[str] = field(default_factory=set)
    forward_params: Set[str] = field(default_factory=set)
    sink_params: Set[str] = field(default_factory=set)

    def snapshot(self) -> Tuple[frozenset, frozenset, frozenset]:
        return (
            frozenset(self.returns_taints),
            frozenset(self.forward_params),
            frozenset(self.sink_params),
        )


class ProvenancePass:
    """Run both provenance checks over a loaded :class:`Program`."""

    rules = (
        {
            "code": "RPL101",
            "name": "unsanctioned-rng-construction",
            "summary": (
                "modern numpy RNG constructors (default_rng, Generator, "
                "SeedSequence, bit generators) called outside "
                "repro.stats.rng; Generator provenance must reach the "
                "central coercers"
            ),
        },
        {
            "code": "RPL102",
            "name": "nondeterministic-seed-flow",
            "summary": (
                "wall-clock or builtin-hash value reaches a seed sink "
                "through any chain of assignments, returns, and calls"
            ),
        },
    )

    def __init__(self, program: Program) -> None:
        self.program = program
        self.summaries: Dict[str, _Summary] = {
            qualname: _Summary() for qualname in program.functions
        }
        self._env_cache: Dict[str, Dict[str, Taint]] = {}
        # What does not change between fixpoint rounds is computed once:
        # each call's (dotted name, callee qualname), and per function its
        # assignments (value, target names) in source order and its
        # candidate sink nodes in body order.
        self._call_cache: Dict[ast.Call, Tuple[Optional[str], Optional[str]]] = {}
        self._assignments: Dict[str, List[Tuple[ast.AST, List[str]]]] = {}
        self._sink_candidates: Dict[str, List[ast.AST]] = {}

    # -- entry point -----------------------------------------------------

    def run(self) -> List[Finding]:
        findings = self._check_construction_sites()
        self._solve_summaries()
        for info in self.program.functions.values():
            findings.extend(self._report_sinks(info))
        return findings

    # -- RPL101: construction sites -------------------------------------

    def _check_construction_sites(self) -> List[Finding]:
        findings: List[Finding] = []
        for module in self.program.modules.values():
            if _path_matches(module.path, RNG_HELPER_MODULE_SUFFIXES):
                continue
            for node in module.nodes:
                if not isinstance(node, ast.Call):
                    continue
                dotted = self.program.resolve(module, node.func)
                if (
                    dotted is not None
                    and dotted.startswith("numpy.random.")
                    and dotted.rsplit(".", 1)[-1] in _MODERN_NUMPY_RANDOM
                ):
                    short = dotted.replace("numpy", "np")
                    findings.append(
                        Finding(
                            code="RPL101",
                            message=(
                                f"{short} constructed outside repro.stats.rng; "
                                "every Generator's provenance must reach "
                                "make_rng/make_seed_sequence so streams stay "
                                "auditable whole-program"
                            ),
                            path=module.path,
                            line=node.lineno,
                            col=node.col_offset,
                        )
                    )
        return findings

    # -- taint machinery -------------------------------------------------

    def _expr_taint(self, info: FunctionInfo, node: ast.AST, env) -> Taint:
        if isinstance(node, ast.Name):
            if node.id in env:
                taints, params = env[node.id]
                return (set(taints), set(params))
            if node.id in info.param_names:
                return (set(), {node.id})
            return _empty()
        if isinstance(node, ast.Call):
            return self._call_taint(info, node, env)
        if isinstance(node, (ast.BinOp,)):
            return self._union(info, [node.left, node.right], env)
        if isinstance(node, ast.UnaryOp):
            return self._expr_taint(info, node.operand, env)
        if isinstance(node, ast.BoolOp):
            return self._union(info, node.values, env)
        if isinstance(node, ast.IfExp):
            return self._union(info, [node.body, node.orelse], env)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return self._union(info, node.elts, env)
        if isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
            return self._expr_taint(info, node.value, env)
        if isinstance(node, ast.NamedExpr):
            return self._expr_taint(info, node.value, env)
        return _empty()

    def _union(self, info: FunctionInfo, nodes: Sequence[ast.AST], env) -> Taint:
        taints: Set[str] = set()
        params: Set[str] = set()
        for node in nodes:
            sub_taints, sub_params = self._expr_taint(info, node, env)
            taints |= sub_taints
            params |= sub_params
        return (taints, params)

    def _resolve_call(
        self, info: FunctionInfo, node: ast.Call
    ) -> Tuple[Optional[str], Optional[str]]:
        """``(dotted name, in-program callee)`` of a call in ``info``'s body."""
        resolved = self._call_cache.get(node)
        if resolved is None:
            resolved = (
                self.program.resolve(info.module, node.func),
                self.program.resolve_callee(info.module, node, info),
            )
            self._call_cache[node] = resolved
        return resolved

    def _call_taint(self, info: FunctionInfo, node: ast.Call, env) -> Taint:
        dotted, callee = self._resolve_call(info, node)
        if dotted in _CLOCK_CALLS:
            return ({TAINT_CLOCK}, set())
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and node.func.id not in info.module.imported_names
        ):
            return ({TAINT_HASH}, set())
        if dotted in _WRAPPER_CALLS:
            operands = list(node.args) + [kw.value for kw in node.keywords]
            return self._union(info, operands, env)
        if callee is not None and callee in self.summaries:
            summary = self.summaries[callee]
            taints = set(summary.returns_taints)
            params: Set[str] = set()
            if summary.forward_params:
                callee_info = self.program.functions[callee]
                bound = self.program.parameters_bound(callee_info, node)
                for param in sorted(summary.forward_params):
                    for arg in bound.get(param, []):
                        arg_taints, arg_params = self._expr_taint(info, arg, env)
                        taints |= arg_taints
                        params |= arg_params
            return (taints, params)
        return _empty()

    def _assignments_of(self, info: FunctionInfo) -> List[Tuple[ast.AST, List[str]]]:
        """``(value, target names)`` of ``info``'s assignments, in source order."""
        assignments = self._assignments.get(info.qualname)
        if assignments is None:
            statements = sorted(
                (
                    node
                    for node in info.body_nodes
                    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                    and node.value is not None
                ),
                key=lambda node: (node.lineno, node.col_offset),
            )
            assignments = []
            for stmt in statements:
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                names = [
                    name.id
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
                assignments.append((stmt.value, names))
            self._assignments[info.qualname] = assignments
        return assignments

    def _local_env(self, info: FunctionInfo) -> Dict[str, Taint]:
        """Name -> taint for one function's locals (weak/union updates)."""
        cached = self._env_cache.get(info.qualname)
        if cached is not None:
            return cached
        env: Dict[str, Taint] = {}
        # Two ordered rounds pick up loop-carried taint.
        for _ in range(2):
            for value, names in self._assignments_of(info):
                taints, params = self._expr_taint(info, value, env)
                for name in names:
                    old = env.get(name, _empty())
                    env[name] = (old[0] | taints, old[1] | params)
        self._env_cache[info.qualname] = env
        return env

    # -- summaries -------------------------------------------------------

    def _solve_summaries(self) -> None:
        for _ in range(_MAX_ROUNDS):
            before = {
                qualname: summary.snapshot()
                for qualname, summary in self.summaries.items()
            }
            self._env_cache.clear()
            for qualname, info in self.program.functions.items():
                self._update_summary(qualname, info)
            after = {
                qualname: summary.snapshot()
                for qualname, summary in self.summaries.items()
            }
            if after == before:
                break

    def _update_summary(self, qualname: str, info: FunctionInfo) -> None:
        summary = self.summaries[qualname]
        env = self._local_env(info)
        for value in info.return_expressions():
            taints, params = self._expr_taint(info, value, env)
            summary.returns_taints |= taints
            summary.forward_params |= params & info.param_names
        for node, _description in self._sink_arguments(info):
            taints, params = self._expr_taint(info, node, env)
            summary.sink_params |= params & info.param_names

    # -- sinks -----------------------------------------------------------

    def _sink_arguments(self, info: FunctionInfo):
        """Yield ``(expression, sink description)`` for every seed sink."""
        candidates = self._sink_candidates.get(info.qualname)
        if candidates is None:
            candidates = [
                node
                for node in info.body_nodes
                if isinstance(node, (ast.Call, ast.Assign, ast.AnnAssign))
            ]
            self._sink_candidates[info.qualname] = candidates
        for node in candidates:
            if isinstance(node, ast.Call):
                dotted, callee = self._resolve_call(info, node)
                dotted = dotted or ""
                is_coercer = (
                    dotted.rsplit(".", 1)[-1] in _SEED_COERCERS
                    or dotted in _NUMPY_SEED_SINKS
                )
                if is_coercer:
                    short = dotted.rsplit(".", 1)[-1]
                    for arg in list(node.args) + [
                        kw.value for kw in node.keywords
                    ]:
                        yield arg, f"{short}(...)"
                    continue
                if callee is not None and callee in self.summaries:
                    sink_params = self.summaries[callee].sink_params
                    if sink_params:
                        callee_info = self.program.functions[callee]
                        bound = self.program.parameters_bound(callee_info, node)
                        for param in sorted(sink_params):
                            for arg in bound.get(param, []):
                                yield arg, f"{callee_info.qualname}({param}=...)"
                for keyword in node.keywords:
                    if keyword.arg is not None and "seed" in keyword.arg.lower():
                        yield keyword.value, f"keyword {keyword.arg}="
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and "seed" in target.id.lower()
                        and node.value is not None
                    ):
                        yield node.value, f"assignment to {target.id!r}"

    def _report_sinks(self, info: FunctionInfo) -> List[Finding]:
        findings: List[Finding] = []
        env = self._local_env(info)
        seen: Set[Tuple[int, str]] = set()
        for node, description in self._sink_arguments(info):
            taints, _params = self._expr_taint(info, node, env)
            for taint in sorted(taints):
                key = (id(node), taint)
                if key in seen:
                    continue
                seen.add(key)
                hint = (
                    "repro.stats.rng.stable_hash"
                    if taint == TAINT_HASH
                    else "an explicit SeedLike argument"
                )
                findings.append(
                    Finding(
                        code="RPL102",
                        message=(
                            f"value derived from {taint} reaches seed sink "
                            f"{description} in {info.qualname}; runs become "
                            f"unreproducible -- use {hint} instead"
                        ),
                        path=info.module.path,
                        line=node.lineno,
                        col=node.col_offset,
                    )
                )
        return findings
