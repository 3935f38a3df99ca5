"""The ``RPL`` rule pack: determinism, vectorization, and API hygiene.

Codes are grouped by decade:

- ``RPL000``     -- file could not be parsed (emitted by the engine).
- ``RPL001-009`` -- RNG discipline: all randomness flows through
  :mod:`repro.stats.rng` from explicit seeds.
- ``RPL010-019`` -- determinism hazards: wall clocks, randomized hashes,
  and unordered-set iteration must not shape stochastic output.
- ``RPL020-029`` -- vectorization guards for the modules the batched
  engine declares hot (:data:`BATCHED_MODULE_SUFFIXES`), the
  columnar store's array paths (:data:`STORE_MODULE_PATH_PARTS`), and
  the segment-dispatch modules (:data:`SEGMENT_MODULE_SUFFIXES`).
- ``RPL030-039`` -- API hygiene: mutable defaults, float equality,
  ``__all__`` drift.
- ``RPL040-049`` -- virtual-time discipline: the always-on service
  (:data:`SERVICE_MODULE_PATH_PARTS`) must take time from its event
  loop, never from the wall clock.

Suppress a finding with ``# repro: noqa=RPL0xx -- justification`` on the
offending line.  Two structural allowlists live here, next to the rules
they parameterize: :data:`RNG_HELPER_MODULE_SUFFIXES` (the coercion
helpers are allowed to touch numpy's seeding primitives -- they are the
one place that may) and :data:`FLOAT_EQ_ALLOWLIST` (named predicates
whose single internal comparison *defines* the semantic, e.g. free-app
detection on exact stored prices).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple, Type

from repro.devtools.lint.engine import Rule

#: Modules whose hot paths are declared vectorized (PR 1's batched
#: engine); the RPL02x guards only fire inside these.
BATCHED_MODULE_SUFFIXES = (
    "repro/core/engine.py",
    "repro/core/models.py",
    "repro/stats/sampling.py",
)

#: The designated seed-coercion implementation; exempt from the RNG
#: discipline rules because it is the layer they force everyone through.
RNG_HELPER_MODULE_SUFFIXES = ("repro/stats/rng.py",)

#: Path fragments identifying the columnar store, whose row loops are
#: expected to stay batched (the RPL022 guard fires inside these).
STORE_MODULE_PATH_PARTS = ("repro/store/",)

#: Modules that resolve persona segments over user populations; their
#: contract is one kernel invocation per segment block, so the RPL023
#: guard fires inside these.
SEGMENT_MODULE_SUFFIXES = (
    "repro/marketplace/segments.py",
    "repro/marketplace/behavior.py",
    "repro/workload/sharding.py",
)

#: Path fragments identifying the always-on service, which runs on the
#: virtual clock (the RPL040 guard fires inside these).
SERVICE_MODULE_PATH_PARTS = ("repro/service/",)

#: (module suffix, function qualname) pairs whose float equality is the
#: definition of a domain predicate rather than a numerical accident.
FLOAT_EQ_ALLOWLIST = (
    ("repro/marketplace/entities.py", "is_free_price"),
)

#: ``numpy.random`` attributes that are part of the Generator/seeding
#: machinery rather than the legacy global-state API.
_MODERN_NUMPY_RANDOM = frozenset(
    {
        "BitGenerator",
        "Generator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "SeedSequence",
        "default_rng",
    }
)

_SEED_COERCERS = frozenset(
    {"make_rng", "spawn_rngs", "derive_seed", "make_seed_sequence"}
)

_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
    }
)


def _normalized(path: str) -> str:
    return path.replace("\\", "/")


def _path_matches(path: str, suffixes: Sequence[str]) -> bool:
    normalized = _normalized(path)
    return any(normalized.endswith(suffix) for suffix in suffixes)


def _path_within(path: str, parts: Sequence[str]) -> bool:
    normalized = _normalized(path)
    return any(part in normalized for part in parts)


def _has_seed_parameter(node: ast.FunctionDef) -> bool:
    args = list(node.args.posonlyargs) + list(node.args.args)
    args += list(node.args.kwonlyargs)
    return any("seed" in arg.arg.lower() for arg in args)


class LegacyNumpyRandomRule(Rule):
    """RPL001: calls into numpy's legacy global-state random API."""

    code = "RPL001"
    name = "legacy-numpy-random"
    summary = (
        "no np.random.* global-state calls (np.random.seed, np.random.rand, "
        "np.random.choice, ...); draw from an explicit Generator via "
        "repro.stats.rng.make_rng"
    )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.module.resolve_dotted(node.func)
        if dotted is not None and dotted.startswith("numpy.random."):
            attribute = dotted.split(".")[-1]
            if attribute not in _MODERN_NUMPY_RANDOM:
                if attribute == "seed":
                    self.report(
                        node,
                        "np.random.seed mutates hidden global state; pass "
                        "an explicit seed through repro.stats.rng.make_rng",
                    )
                else:
                    self.report(
                        node,
                        f"legacy global-state call np.random.{attribute}; "
                        "draw from an explicit Generator "
                        "(repro.stats.rng.make_rng)",
                    )
        self.generic_visit(node)


class StdlibRandomRule(Rule):
    """RPL002: the stdlib ``random`` module is off-limits."""

    code = "RPL002"
    name = "stdlib-random"
    summary = (
        "no stdlib `random` usage; its global Mersenne Twister state is "
        "invisible to the seed-threading contract"
    )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.report(
                    node,
                    "stdlib random imported; use numpy Generators from "
                    "repro.stats.rng instead",
                )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module is not None:
            if node.module == "random" or node.module.startswith("random."):
                self.report(
                    node,
                    "stdlib random imported; use numpy Generators from "
                    "repro.stats.rng instead",
                )


class UncoercedSeedRule(Rule):
    """RPL003: seed-taking functions must use the central coercers."""

    code = "RPL003"
    name = "uncoerced-seed"
    summary = (
        "functions taking a seed parameter must coerce it via "
        "repro.stats.rng (make_rng / spawn_rngs / make_seed_sequence), "
        "not np.random.default_rng or np.random.SeedSequence directly"
    )

    _TARGETS = frozenset(
        {"numpy.random.default_rng", "numpy.random.SeedSequence"}
    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if _path_matches(self.module.path, RNG_HELPER_MODULE_SUFFIXES):
            return
        if _has_seed_parameter(node):
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    dotted = self.module.resolve_dotted(call.func)
                    if dotted in self._TARGETS:
                        helper = (
                            "make_rng"
                            if dotted.endswith("default_rng")
                            else "make_seed_sequence"
                        )
                        self.report(
                            call,
                            f"{dotted.replace('numpy', 'np')} called inside "
                            f"seed-taking function {node.name!r}; coerce "
                            f"SeedLike values via repro.stats.rng.{helper}",
                        )
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef


class GeneratorInLoopRule(Rule):
    """RPL004: no Generator construction inside loops."""

    code = "RPL004"
    name = "generator-in-loop"
    summary = (
        "no np.random.Generator construction (default_rng / make_rng) "
        "inside a loop; build once outside, or spawn_rngs for independent "
        "streams"
    )

    _TARGETS = frozenset(
        {
            "numpy.random.default_rng",
            "numpy.random.Generator",
            "repro.stats.rng.make_rng",
        }
    )

    def visit_Call(self, node: ast.Call) -> None:
        if not _path_matches(self.module.path, RNG_HELPER_MODULE_SUFFIXES):
            dotted = self.module.resolve_dotted(node.func)
            if dotted in self._TARGETS and self.module.in_loop(node):
                self.report(
                    node,
                    f"{dotted.rsplit('.', 1)[-1]} constructed inside a loop; "
                    "hoist the Generator out (or use "
                    "repro.stats.rng.spawn_rngs for per-iteration streams)",
                )
        self.generic_visit(node)


class GeneratorAcrossProcessRule(Rule):
    """RPL005: no Generator objects shipped across process boundaries.

    A ``np.random.Generator`` submitted to a process pool is pickled,
    so parent and child each advance a *copy* of the same stream: the
    worker's draws silently duplicate draws the parent (or a sibling
    worker) will also make.  Ship seeds (or ``SeedSequence`` children)
    and construct the Generator on the worker side -- the pattern both
    replication and the sharded campaign runner use.
    """

    code = "RPL005"
    name = "generator-across-process"
    summary = (
        "np.random.Generator passed into a process-pool dispatch "
        "(submit/map/apply_async); pass a seed and build the Generator "
        "in the worker instead"
    )

    _DISPATCH_METHODS = frozenset(
        {
            "submit",
            "map",
            "map_async",
            "starmap",
            "starmap_async",
            "apply",
            "apply_async",
            "imap",
            "imap_unordered",
        }
    )

    _RNG_FACTORIES = frozenset(
        {
            "numpy.random.default_rng",
            "numpy.random.Generator",
            "repro.stats.rng.make_rng",
            "repro.stats.rng.spawn_rngs",
        }
    )

    def __init__(self, module) -> None:
        super().__init__(module)
        self._rng_names: set = set()

    def _is_rng_value(self, value: ast.AST) -> bool:
        if isinstance(value, ast.Call):
            return self.module.resolve_dotted(value.func) in self._RNG_FACTORIES
        return False

    def _is_rng_argument(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            name = node.id
            return (
                name in self._rng_names
                or name == "rng"
                or name.endswith("_rng")
                or name.endswith("rngs")
            )
        if isinstance(node, ast.Starred):
            return self._is_rng_argument(node.value)
        # Generators smuggled inside container displays or constructor
        # arguments (tuples, lists, dicts, dataclass calls) are pickled
        # all the same -- recurse one syntactic level at a time.
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self._is_rng_argument(elt) for elt in node.elts)
        if isinstance(node, ast.Dict):
            return any(
                value is not None and self._is_rng_argument(value)
                for value in node.values
            )
        if isinstance(node, ast.Call) and not self._is_rng_value(node):
            operands = list(node.args)
            operands += [keyword.value for keyword in node.keywords]
            return any(self._is_rng_argument(operand) for operand in operands)
        return self._is_rng_value(node)

    def _is_rng_bundle(self, value: ast.AST) -> bool:
        """Whether an assigned value visibly *carries* a Generator.

        Container displays and constructor-style calls (a capitalized
        callable, i.e. a dataclass/class) propagate their rng contents to
        the assigned name; a plain function call does not -- ``simulate
        (rng)`` returns results, not the Generator.  The escape pass
        (RPL110) handles those interprocedural cases.
        """
        if self._is_rng_value(value):
            return True
        if isinstance(value, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            return self._is_rng_argument(value)
        if isinstance(value, ast.Call):
            callee = value.func
            name = callee.attr if isinstance(callee, ast.Attribute) else (
                callee.id if isinstance(callee, ast.Name) else ""
            )
            if name[:1].isupper():
                return self._is_rng_argument(value)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_rng_bundle(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._rng_names.add(target.id)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._DISPATCH_METHODS
        ):
            offenders = [
                arg for arg in node.args if self._is_rng_argument(arg)
            ]
            offenders += [
                keyword.value
                for keyword in node.keywords
                if self._is_rng_argument(keyword.value)
            ]
            for offender in offenders:
                self.report(
                    offender,
                    f"Generator shipped through .{func.attr}() is pickled "
                    "into the worker, duplicating the parent's stream; "
                    "pass a seed (SeedSequence child) and make_rng in the "
                    "worker",
                )
        self.generic_visit(node)


class NondeterministicSeedSourceRule(Rule):
    """RPL010: wall clocks and randomized hashes must not feed seeds."""

    code = "RPL010"
    name = "nondeterministic-seed-source"
    summary = (
        "no time.time / datetime.now / builtin hash() feeding seeds or "
        "sampling; repro.stats.rng.stable_hash and explicit seeds exist "
        "for this"
    )

    def _in_seed_context(self, node: ast.Call) -> bool:
        for ancestor in self.module.ancestors(node):
            if isinstance(ancestor, ast.keyword):
                if ancestor.arg is not None and "seed" in ancestor.arg.lower():
                    return True
            elif isinstance(ancestor, ast.Call) and ancestor is not node:
                dotted = self.module.resolve_dotted(ancestor.func) or ""
                if dotted.rsplit(".", 1)[-1] in _SEED_COERCERS or dotted in (
                    "numpy.random.default_rng",
                    "numpy.random.SeedSequence",
                ):
                    return True
            elif isinstance(ancestor, (ast.Assign, ast.AnnAssign)):
                targets = (
                    ancestor.targets
                    if isinstance(ancestor, ast.Assign)
                    else [ancestor.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and "seed" in target.id.lower():
                        return True
            elif isinstance(ancestor, ast.stmt):
                return False
        return False

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.module.resolve_dotted(node.func)
        is_clock = dotted in _CLOCK_CALLS
        is_hash = (
            isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and node.func.id not in self.module.imported_names
        )
        if (is_clock or is_hash) and self._in_seed_context(node):
            source = "builtin hash()" if is_hash else dotted
            hint = (
                "repro.stats.rng.stable_hash"
                if is_hash
                else "an explicit seed argument"
            )
            self.report(
                node,
                f"{source} feeds a seed; runs become unreproducible -- "
                f"use {hint} instead",
            )
        self.generic_visit(node)


class SetIterationRule(Rule):
    """RPL011: iterating a set leaks unordered state into loop order."""

    code = "RPL011"
    name = "set-iteration-order"
    summary = (
        "no iteration over sets (for-loops / comprehensions); set order "
        "is insertion- and hash-dependent, so wrap in sorted(...) before "
        "order can reach a sampler"
    )

    def _check_iterable(self, iterable: ast.AST) -> None:
        if self.module.expression_kind(iterable) == "set":
            described = (
                f"set {iterable.id!r}"
                if isinstance(iterable, ast.Name)
                else "a set expression"
            )
            self.report(
                iterable,
                f"iteration over {described} has no stable order; use "
                "sorted(...) so downstream sampling stays deterministic",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)


class NdarrayElementLoopRule(Rule):
    """RPL020: per-element loops over ndarrays in batched modules."""

    code = "RPL020"
    name = "ndarray-element-loop"
    summary = (
        "no per-element for-loop over an ndarray in modules declared "
        "batched (repro.core.engine, repro.core.models, "
        "repro.stats.sampling); vectorize or justify with a noqa"
    )

    _WRAPPERS = frozenset({"zip", "enumerate", "reversed"})

    def _ndarray_operand(self, iterable: ast.AST) -> Optional[ast.AST]:
        if self.module.expression_kind(iterable) == "ndarray":
            return iterable
        if isinstance(iterable, ast.Call):
            dotted = self.module.resolve_dotted(iterable.func)
            if dotted in self._WRAPPERS:
                for argument in iterable.args:
                    if self.module.expression_kind(argument) == "ndarray":
                        return argument
        return None

    def _check_iterable(self, iterable: ast.AST) -> None:
        operand = self._ndarray_operand(iterable)
        if operand is not None:
            described = (
                f"ndarray {operand.id!r}"
                if isinstance(operand, ast.Name)
                else "an ndarray expression"
            )
            self.report(
                iterable,
                f"per-element iteration over {described} in a batched "
                "module; express this as array operations (or .tolist() "
                "explicitly on a declared compatibility path)",
            )

    def visit_For(self, node: ast.For) -> None:
        if _path_matches(self.module.path, BATCHED_MODULE_SUFFIXES):
            self._check_iterable(node.iter)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if _path_matches(self.module.path, BATCHED_MODULE_SUFFIXES):
            self._check_iterable(node.iter)
        self.generic_visit(node)


class ArrayGrowthInLoopRule(Rule):
    """RPL021: growing arrays inside loops in batched modules."""

    code = "RPL021"
    name = "array-growth-in-loop"
    summary = (
        "no np.append / np.concatenate / np.*stack inside a loop in "
        "batched modules; each call reallocates -- collect chunks and "
        "concatenate once"
    )

    _TARGETS = frozenset(
        {
            "numpy.append",
            "numpy.concatenate",
            "numpy.hstack",
            "numpy.vstack",
            "numpy.column_stack",
        }
    )

    def visit_Call(self, node: ast.Call) -> None:
        if _path_matches(self.module.path, BATCHED_MODULE_SUFFIXES):
            dotted = self.module.resolve_dotted(node.func)
            if dotted in self._TARGETS and self.module.in_loop(node):
                self.report(
                    node,
                    f"{dotted.replace('numpy', 'np')} inside a loop "
                    "reallocates the array every iteration; append to a "
                    "list and concatenate once after the loop",
                )
        self.generic_visit(node)


class ColumnAppendLoopRule(Rule):
    """RPL022: per-row append loops over column arrays in repro.store.

    The store's whole point is that data moves as columns: a loop that
    walks an ndarray column and ``.append``-s values one row at a time
    re-introduces the O(rows) Python-interpreter cost the chunk layout
    removed.  Batch the transfer (``list.extend(column.tolist())``) or
    express the transform as array operations.
    """

    code = "RPL022"
    name = "column-append-loop"
    summary = (
        "no per-row list.append loop over ndarray columns inside "
        "repro.store modules; batch the rows with "
        ".extend(column.tolist()) or a vectorized transform"
    )

    _WRAPPERS = frozenset({"zip", "enumerate", "reversed"})

    def _iterates_ndarray(self, iterable: ast.AST) -> bool:
        if self.module.expression_kind(iterable) == "ndarray":
            return True
        if isinstance(iterable, ast.Call):
            dotted = self.module.resolve_dotted(iterable.func)
            if dotted in self._WRAPPERS:
                return any(
                    self.module.expression_kind(argument) == "ndarray"
                    for argument in iterable.args
                )
        return False

    def visit_Call(self, node: ast.Call) -> None:
        if _path_within(self.module.path, STORE_MODULE_PATH_PARTS):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "append":
                for ancestor in self.module.ancestors(node):
                    if isinstance(
                        ancestor, (ast.For, ast.AsyncFor)
                    ) and self._iterates_ndarray(ancestor.iter):
                        self.report(
                            node,
                            "per-row .append over an ndarray column; batch "
                            "the rows with .extend(column.tolist()) or a "
                            "vectorized transform instead",
                        )
                        break
        self.generic_visit(node)


class SegmentUserLoopRule(Rule):
    """RPL023: per-user Python loops in segment-aware modules.

    The persona-segment contract is one kernel invocation per segment:
    a mixed-segment user batch is grouped by
    :func:`repro.core.engine.partition_by_blocks` and each contiguous
    block moves through the vectorized engine whole.  A Python loop
    that walks a user/app ndarray element-by-element inside these
    modules re-introduces the O(users)-per-segment interpreter cost
    the block dispatch exists to remove.
    """

    code = "RPL023"
    name = "segment-user-loop"
    summary = (
        "no per-element loop over user/app ndarrays in segment-aware "
        "modules (repro.marketplace.segments, "
        "repro.marketplace.behavior, repro.workload.sharding); group "
        "the batch with partition_by_blocks and hand whole segment "
        "blocks to one kernel call"
    )

    _WRAPPERS = frozenset({"zip", "enumerate", "reversed"})

    def _ndarray_operand(self, iterable: ast.AST) -> Optional[ast.AST]:
        if self.module.expression_kind(iterable) == "ndarray":
            return iterable
        if isinstance(iterable, ast.Call):
            dotted = self.module.resolve_dotted(iterable.func)
            if dotted in self._WRAPPERS:
                for argument in iterable.args:
                    if self.module.expression_kind(argument) == "ndarray":
                        return argument
        return None

    def _check_iterable(self, iterable: ast.AST) -> None:
        operand = self._ndarray_operand(iterable)
        if operand is not None:
            described = (
                f"ndarray {operand.id!r}"
                if isinstance(operand, ast.Name)
                else "an ndarray expression"
            )
            self.report(
                iterable,
                f"per-element iteration over {described} in a "
                "segment-aware module; group the users with "
                "partition_by_blocks and dispatch each segment block "
                "through one kernel call instead",
            )

    def visit_For(self, node: ast.For) -> None:
        if _path_matches(self.module.path, SEGMENT_MODULE_SUFFIXES):
            self._check_iterable(node.iter)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if _path_matches(self.module.path, SEGMENT_MODULE_SUFFIXES):
            self._check_iterable(node.iter)
        self.generic_visit(node)


class MutableDefaultRule(Rule):
    """RPL030: mutable default arguments."""

    code = "RPL030"
    name = "mutable-default-argument"
    summary = (
        "no mutable default arguments ([], {}, set(), ...); defaults are "
        "evaluated once and shared across calls -- default to None"
    )

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "collections.defaultdict"}
    )

    def _is_mutable(self, default: ast.AST) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(default, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(default, ast.Call):
            dotted = self.module.resolve_dotted(default.func)
            return dotted in self._MUTABLE_CALLS
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        defaults = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if self._is_mutable(default):
                self.report(
                    default,
                    f"mutable default argument in {node.name!r}; use None "
                    "and construct inside the function",
                )
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        defaults = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if self._is_mutable(default):
                self.report(
                    default,
                    "mutable default argument in lambda; use None and "
                    "construct inside",
                )
        self.generic_visit(node)


class FloatEqualityRule(Rule):
    """RPL031: exact float equality outside the allowlist."""

    code = "RPL031"
    name = "float-equality"
    summary = (
        "no == / != against float literals outside allowlisted named "
        "predicates; exact float comparison is brittle -- compare via a "
        "domain predicate (e.g. AppSnapshot.is_free) or np.isclose"
    )

    @staticmethod
    def _is_float_constant(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            return FloatEqualityRule._is_float_constant(node.operand)
        return False

    def _allowlisted(self, node: ast.AST) -> bool:
        qualname = self.module.qualname(node)
        normalized = _normalized(self.module.path)
        for suffix, allowed_qualname in FLOAT_EQ_ALLOWLIST:
            if normalized.endswith(suffix) and qualname.endswith(
                allowed_qualname
            ):
                return True
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for index, operator in enumerate(node.ops):
            if isinstance(operator, (ast.Eq, ast.NotEq)):
                pair = (operands[index], operands[index + 1])
                if any(self._is_float_constant(side) for side in pair):
                    if not self._allowlisted(node):
                        self.report(
                            node,
                            "exact float equality comparison; express the "
                            "intent as a named predicate or use np.isclose",
                        )
                        break
        self.generic_visit(node)


class DunderAllDriftRule(Rule):
    """RPL032: ``__all__`` out of sync with the module's public names."""

    code = "RPL032"
    name = "dunder-all-drift"
    summary = (
        "__all__ must list exactly the module-level public defs it "
        "exports: no unbound entries, no public def/class missing from "
        "an existing __all__"
    )

    def visit_Module(self, node: ast.Module) -> None:
        all_node: Optional[ast.Assign] = None
        exported: List[str] = []
        bound: set = set()
        public_defs: List[Tuple[str, ast.AST]] = []
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                bound.add(statement.name)
                if not statement.name.startswith("_"):
                    public_defs.append((statement.name, statement))
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
                        if target.id == "__all__":
                            all_node = statement
                            exported = self._exported_names(statement.value)
            elif isinstance(statement, ast.AnnAssign):
                if isinstance(statement.target, ast.Name):
                    bound.add(statement.target.id)
            elif isinstance(statement, ast.Import):
                for alias in statement.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(statement, ast.ImportFrom):
                for alias in statement.names:
                    bound.add(alias.asname or alias.name)
        if all_node is None:
            return
        for name in exported:
            if name not in bound:
                self.report(
                    all_node,
                    f"__all__ exports {name!r} but the module never binds "
                    "it; remove the entry or define the name",
                )
        listed = set(exported)
        for name, definition in public_defs:
            if name not in listed:
                self.report(
                    definition,
                    f"public {name!r} is defined here but missing from "
                    "__all__; add it or rename with a leading underscore",
                )

    @staticmethod
    def _exported_names(value: ast.AST) -> List[str]:
        names: List[str] = []
        if isinstance(value, (ast.List, ast.Tuple)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    names.append(element.value)
        return names


#: Wall-time sources that poison virtual-clock determinism: the clock
#: reads RPL010 knows about, plus blocking sleeps.
_WALL_TIME_CALLS = frozenset(_CLOCK_CALLS | {"time.sleep"})


class WallClockInServiceRule(Rule):
    """RPL040: wall-clock time inside the virtual-time service."""

    code = "RPL040"
    name = "wall-clock-in-service"
    summary = (
        "repro/service modules run on the virtual clock; read time via "
        "the running event loop's loop.time() and wait via asyncio.sleep "
        "-- any time.*/datetime wall-clock call (or time.sleep) breaks "
        "the deterministic-replay and instant-soak contracts"
    )

    def visit_Call(self, node: ast.Call) -> None:
        if _path_within(self.module.path, SERVICE_MODULE_PATH_PARTS):
            dotted = self.module.resolve_dotted(node.func)
            if dotted in _WALL_TIME_CALLS:
                if dotted == "time.sleep":
                    hint = "await asyncio.sleep(...) on the running loop"
                else:
                    hint = "asyncio.get_running_loop().time()"
                self.report(
                    node,
                    f"{dotted} reads the wall clock inside the "
                    f"virtual-time service; use {hint} so simulated time "
                    "stays deterministic and instant",
                )
        self.generic_visit(node)


#: The shipped rule pack, in code order.
RULES: Tuple[Type[Rule], ...] = (
    LegacyNumpyRandomRule,
    StdlibRandomRule,
    UncoercedSeedRule,
    GeneratorInLoopRule,
    GeneratorAcrossProcessRule,
    NondeterministicSeedSourceRule,
    SetIterationRule,
    NdarrayElementLoopRule,
    ArrayGrowthInLoopRule,
    ColumnAppendLoopRule,
    SegmentUserLoopRule,
    MutableDefaultRule,
    FloatEqualityRule,
    DunderAllDriftRule,
    WallClockInServiceRule,
)
