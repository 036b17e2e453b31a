"""Interprocedural effect inference over the simulator sources.

This module statically *proves* the repo's central dynamic invariant —
"observation never changes the simulation" — by inferring, for every
function and method in the simulation packages, an effect summary on the
four-point lattice

    PURE < READS_SIM < MUTATES_SIM < NONDET

and propagating summaries along an (over-approximated) call graph to a
fixpoint.  :mod:`repro.sanitize.effect_lint` then enforces three rule
families on top of the result: observer purity, quiescence-query purity
and determinism.  Everything here is pure :mod:`ast` analysis — nothing
is imported or executed.

Direct effects
--------------
A function's *direct* effect is the join of what its own statements do:

* ``READS_SIM`` — loads an attribute on the *simulation-state surface*:
  the set of attribute names assigned via ``self.X = ...``, declared as
  dataclass fields, or listed in ``__slots__`` by any class in
  ``core/ memory/ sim/ row/ frontend/`` (plus ``common/stats.py``).  The
  ``obs/`` package is deliberately *excluded* from the surface: observer
  state (trace buffers, counts) may mutate freely — that exclusion is
  exactly what makes well-behaved tracer hooks pass the purity rules.
* ``MUTATES_SIM`` — stores through an attribute chain touching the
  surface (``e.state = "M"``, ``self.rob.append(d)``,
  ``self.mshrs.pop(line)``, ``heapq.heappush(self._heap, ...)``).
* ``NONDET`` — reads the host clock (``time``/``datetime``), uses
  stdlib ``random`` or numpy's global RNG, or iterates a ``set`` in
  unordered fashion (``for x in entry.sharers`` — wrap in ``sorted()``
  to fix; ``dict`` iteration is insertion-ordered and therefore fine).

Call graph
----------
Calls are resolved *by name* (no type inference): a method call joins
every universe function with that name; a plain call joins same-named
module-level functions and explicit ``__init__``s; loading an attribute
that matches an ``@property`` joins the property body.  Unresolvable
names (builtins, stdlib, out-of-universe helpers) contribute ``PURE``.
Nested ``def``s and ``lambda``s fold into their enclosing function, and
``partial(f, ...)`` / ``functools.partial(f, ...)`` — a callback bound
now and called later, typically by the event engine — counts as a call
of ``f``.
This is a deliberate over-approximation: it can create false sharing
between same-named methods, never false cleanliness along resolved
edges.

Pragmas
-------
``# repro: effect[mutates_sim] -- reason`` on a ``def`` line *declares*
that function's summary, overriding inference (and stopping descent of
the reachability rules — the author vouches for the whole subtree).  On
any other line it *accepts* the flagged effect for that one statement.
A pragma that changes nothing is itself reported
(``unused-effect-pragma``), so stale escapes cannot accumulate.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Iterator

from repro.sanitize.convention_lint import SEEDED_FACTORIES
from repro.sanitize.lint import iter_py_files, parse_file, rel


class Effect(IntEnum):
    """Effect lattice; join is ``max``."""

    PURE = 0
    READS_SIM = 1
    MUTATES_SIM = 2
    NONDET = 3

    @property
    def label(self) -> str:
        return self.name.lower()


#: Packages whose functions form the call-graph universe.
UNIVERSE_PACKAGES = ("core", "memory", "sim", "row", "frontend", "obs")
#: Packages whose class attributes form the simulation-state surface
#: (obs is observer-owned and deliberately absent).
SURFACE_PACKAGES = ("core", "memory", "sim", "row", "frontend")
#: Extra surface sources outside the surface packages.
SURFACE_EXTRA_FILES = ("common/stats.py",)
#: ``if <...>.NAME is not None:`` guards whose bodies are observer-only.
GUARD_NAMES = ("tracer", "sanitizer")
#: Container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "add", "discard",
    "remove", "pop", "popleft", "popitem", "clear", "update",
    "setdefault", "sort", "reverse",
})
#: Builtins that preserve iteration order of their first argument.
_ORDER_PRESERVING = ("list", "tuple", "iter", "enumerate", "reversed")
#: Builtins whose result does not depend on argument order.
_ORDER_INSENSITIVE = ("sorted", "min", "max", "sum", "len", "any", "all",
                      "frozenset", "set")

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*effect\[(pure|reads_sim|mutates_sim|nondet)\]"
    r"(?:\s*--\s*(.*))?"
)


@dataclass(frozen=True)
class Contribution:
    """One reason a region has an effect: (effect, source line, why)."""

    effect: Effect
    line: int
    desc: str


@dataclass(frozen=True)
class CallSite:
    kind: str  # "plain" | "method" | "property"
    name: str
    line: int


@dataclass(frozen=True)
class Pragma:
    relpath: str
    line: int
    effect: Effect
    reason: str


@dataclass(frozen=True)
class GuardSite:
    """One statement inside an ``if tracer/sanitizer is not None:`` body."""

    fn_key: str
    guard_name: str
    guard_line: int
    stmt: ast.stmt


@dataclass
class FnInfo:
    key: str  # "relpath::Qualname"
    qualname: str  # "Class.method" or "function"
    name: str
    relpath: str
    lineno: int
    end_lineno: int
    node: ast.FunctionDef
    class_name: str = ""
    is_property: bool = False
    direct: Effect = Effect.PURE
    reason: str = ""
    reason_line: int = 0
    calls: list[CallSite] = field(default_factory=list)
    local_sets: frozenset[str] = frozenset()
    pragma: Pragma | None = None


@dataclass(frozen=True)
class Violation:
    """A reachability-rule hit: the *source* function whose own body
    offends, plus an example call path from the rule's root."""

    fn_key: str
    qualname: str
    relpath: str
    line: int
    effect: Effect
    desc: str
    path: tuple[str, ...]  # qualnames, root first


# ----------------------------------------------------------------------
# Surface derivation
# ----------------------------------------------------------------------

def _is_setish_value(node: ast.expr | None) -> bool:
    """Does this default/value expression build a set?"""
    if node is None:
        return False
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
            return True
        # dataclasses.field(default_factory=set)
        if isinstance(fn, ast.Name) and fn.id == "field":
            for kw in node.keywords:
                if (
                    kw.arg == "default_factory"
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id in ("set", "frozenset")
                ):
                    return True
    return False


def _is_set_annotation(node: ast.expr | None) -> bool:
    if node is None:
        return False
    # set[int], frozenset[int], "set[int]" (stringified), Set[...]
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[")[0].strip() in (
            "set", "frozenset", "Set", "FrozenSet"
        )
    return False


def _surface_of_class(cls: ast.ClassDef) -> tuple[set[str], set[str]]:
    """(attribute names, set-typed attribute names) declared by a class."""
    attrs: set[str] = set()
    set_attrs: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            attrs.add(stmt.target.id)
            if _is_set_annotation(stmt.annotation) or _is_setish_value(stmt.value):
                set_attrs.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name) and tgt.id == "__slots__":
                    if isinstance(stmt.value, (ast.Tuple, ast.List)):
                        attrs.update(
                            e.value for e in stmt.value.elts
                            if isinstance(e, ast.Constant)
                            and isinstance(e.value, str)
                        )
    # self.X = ... inside any method (at any nesting depth).
    for node in ast.walk(cls):
        tgt_value = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets, tgt_value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
            tgt_value = getattr(node, "value", None)
        for tgt in targets:
            if (
                isinstance(tgt, ast.Attribute)
                and isinstance(tgt.value, ast.Name)
                and tgt.value.id == "self"
            ):
                attrs.add(tgt.attr)
                if _is_setish_value(tgt_value):
                    set_attrs.add(tgt.attr)
    return attrs, set_attrs


def _derive_surface(
    trees: dict[str, ast.Module]
) -> tuple[frozenset[str], frozenset[str]]:
    surface: set[str] = set()
    set_attrs: set[str] = set()
    for relpath, tree in trees.items():
        top = Path(relpath).parts[0] if Path(relpath).parts else ""
        if top not in SURFACE_PACKAGES and relpath not in SURFACE_EXTRA_FILES:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                attrs, sets = _surface_of_class(node)
                surface |= attrs
                set_attrs |= sets
    return frozenset(surface), frozenset(set_attrs)


# ----------------------------------------------------------------------
# Expression helpers
# ----------------------------------------------------------------------

def _split_chain(node: ast.expr) -> tuple[str | None, list[str]]:
    """Root name + attribute names of a Load/Store chain, looking through
    calls and subscripts: ``self.stats.counter("x").add`` ->
    ``("self", ["stats", "counter", "add"])``."""
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.reverse()
            return node.id, parts
        else:
            parts.reverse()
            return None, parts


def _store_chains(tgt: ast.expr) -> Iterator[tuple[str | None, list[str]]]:
    """Attribute chains mutated by one assignment target."""
    if isinstance(tgt, (ast.Tuple, ast.List)):
        for elt in tgt.elts:
            yield from _store_chains(elt)
    elif isinstance(tgt, ast.Starred):
        yield from _store_chains(tgt.value)
    elif isinstance(tgt, (ast.Attribute, ast.Subscript)):
        yield _split_chain(tgt)


class _Ctx:
    """Classification context: the surface plus per-function set names."""

    def __init__(
        self,
        surface: frozenset[str],
        set_attrs: frozenset[str],
        local_sets: frozenset[str] = frozenset(),
    ) -> None:
        self.surface = surface
        self.set_attrs = set_attrs
        self.local_sets = local_sets


def _is_setish_expr(node: ast.expr, ctx: _Ctx) -> bool:
    """Is this expression's value an unordered set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
        return False
    if isinstance(node, ast.Attribute):
        return node.attr in ctx.set_attrs
    if isinstance(node, ast.Name):
        return node.id in ctx.local_sets
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_setish_expr(node.left, ctx) or _is_setish_expr(node.right, ctx)
    return False


def _iterates_setish(node: ast.expr, ctx: _Ctx) -> bool:
    """Does iterating this expression observe unordered set order?
    Order-preserving wrappers (list/iter/enumerate/...) are looked
    through; order-insensitive consumers (sorted/min/...) launder it."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _ORDER_PRESERVING
        and node.args
    ):
        node = node.args[0]
    return _is_setish_expr(node, ctx)


def _local_set_names(fn: ast.FunctionDef, ctx: _Ctx) -> frozenset[str]:
    """Local names bound to set values anywhere in the function.  Two
    passes so ``a = set(); b = a | other`` resolves."""
    names: set[str] = set()
    for _ in range(2):
        scan = _Ctx(ctx.surface, ctx.set_attrs, frozenset(names))
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_setish_expr(node.value, scan)
            ):
                names.add(node.targets[0].id)
    return frozenset(names)


# ----------------------------------------------------------------------
# Region classification (direct effects + call sites)
# ----------------------------------------------------------------------

def _classify_region(
    nodes: list[ast.AST], ctx: _Ctx
) -> tuple[list[Contribution], list[CallSite]]:
    """Direct effect contributions and call sites of an AST region
    (a whole function body, or one statement)."""
    contribs: list[Contribution] = []
    calls: list[CallSite] = []

    def surface_hit(attrs: list[str]) -> str | None:
        for a in attrs:
            if a in ctx.surface:
                return a
        return None

    for top in nodes:
        for node in ast.walk(top):
            # -------------------------------------------------- stores
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for tgt in targets:
                    for _root, attrs in _store_chains(tgt):
                        hit = surface_hit(attrs)
                        if hit is not None:
                            contribs.append(Contribution(
                                Effect.MUTATES_SIM, node.lineno,
                                f"writes simulation state through '{hit}'",
                            ))
            elif isinstance(node, ast.Delete):
                for tgt in node.targets:
                    for _root, attrs in _store_chains(tgt):
                        hit = surface_hit(attrs)
                        if hit is not None:
                            contribs.append(Contribution(
                                Effect.MUTATES_SIM, node.lineno,
                                f"deletes simulation state through '{hit}'",
                            ))
            # --------------------------------------------------- calls
            elif isinstance(node, ast.Call):
                root, attrs = _split_chain(node.func)
                if root in ("time", "datetime") and attrs:
                    contribs.append(Contribution(
                        Effect.NONDET, node.lineno,
                        f"reads the host clock ({root}.{attrs[-1]})",
                    ))
                elif root == "random" and attrs:
                    contribs.append(Contribution(
                        Effect.NONDET, node.lineno,
                        f"stdlib random.{attrs[-1]} is unseeded",
                    ))
                elif (
                    root in ("np", "numpy")
                    and len(attrs) == 2
                    and attrs[0] == "random"
                    and attrs[1] not in SEEDED_FACTORIES
                ):
                    contribs.append(Contribution(
                        Effect.NONDET, node.lineno,
                        f"numpy global RNG (np.random.{attrs[1]})",
                    ))
                elif root == "heapq":
                    if attrs and attrs[-1] in ("heappush", "heappop") and node.args:
                        _aroot, aattrs = _split_chain(node.args[0])
                        hit = surface_hit(aattrs)
                        if hit is not None:
                            contribs.append(Contribution(
                                Effect.MUTATES_SIM, node.lineno,
                                f"heapq.{attrs[-1]} on simulation "
                                f"state '{hit}'",
                            ))
                elif isinstance(node.func, ast.Name):
                    calls.append(CallSite("plain", node.func.id, node.lineno))
                elif attrs:
                    method = attrs[-1]
                    if method in MUTATING_METHODS:
                        hit = surface_hit(attrs[:-1])
                        if hit is not None:
                            contribs.append(Contribution(
                                Effect.MUTATES_SIM, node.lineno,
                                f".{method}() on simulation state '{hit}'",
                            ))
                    calls.append(CallSite("method", method, node.lineno))
                deferred = _partial_target(node)
                if deferred is not None:
                    calls.append(deferred)
            # --------------------------------- unordered set iteration
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _iterates_setish(node.iter, ctx):
                    contribs.append(Contribution(
                        Effect.NONDET, node.lineno,
                        "iterates a set in unordered fashion "
                        "(wrap in sorted())",
                    ))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if _iterates_setish(gen.iter, ctx):
                        contribs.append(Contribution(
                            Effect.NONDET, node.lineno,
                            "comprehension iterates a set in unordered "
                            "fashion (wrap in sorted())",
                        ))
            # --------------------------------------------------- reads
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                if node.attr in ctx.surface:
                    contribs.append(Contribution(
                        Effect.READS_SIM, node.lineno,
                        f"reads simulation state '{node.attr}'",
                    ))
    return contribs, calls


def _partial_target(call: ast.Call) -> CallSite | None:
    """The deferred call in ``partial(f, ...)`` / ``functools.partial(f,
    ...)``, as a call site of ``f``; None for any other call."""
    func = call.func
    if isinstance(func, ast.Name):
        is_partial = func.id == "partial"
    else:
        is_partial = (
            isinstance(func, ast.Attribute)
            and func.attr == "partial"
            and isinstance(func.value, ast.Name)
            and func.value.id == "functools"
        )
    if not is_partial or not call.args:
        return None
    target = call.args[0]
    if isinstance(target, ast.Name):
        return CallSite("plain", target.id, call.lineno)
    if isinstance(target, ast.Attribute):
        return CallSite("method", target.attr, call.lineno)
    return None


def _property_loads(nodes: list[ast.AST], names: frozenset[str]) -> list[CallSite]:
    """Attribute loads that may resolve to an ``@property`` body."""
    sites = []
    for top in nodes:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in names
            ):
                sites.append(CallSite("property", node.attr, node.lineno))
    return sites


# ----------------------------------------------------------------------
# Guard detection
# ----------------------------------------------------------------------

def _guard_name(test: ast.expr) -> str | None:
    """Name of the observer guarded by this If test, if any: a
    ``<chain> is not None`` compare (possibly inside an ``and``) whose
    final chain component is ``tracer``/``sanitizer``."""
    candidates = test.values if isinstance(test, ast.BoolOp) else [test]
    for t in candidates:
        if (
            isinstance(t, ast.Compare)
            and len(t.ops) == 1
            and isinstance(t.ops[0], ast.IsNot)
            and isinstance(t.comparators[0], ast.Constant)
            and t.comparators[0].value is None
        ):
            root, attrs = _split_chain(t.left)
            name = attrs[-1] if attrs else root
            if name in GUARD_NAMES:
                return name
    return None


# ----------------------------------------------------------------------
# The analysis
# ----------------------------------------------------------------------

class EffectAnalysis:
    """Result of :func:`analyze`: per-function summaries + rule inputs."""

    def __init__(self, base: Path) -> None:
        self.base = base
        self.fns: dict[str, FnInfo] = {}
        self.surface: frozenset[str] = frozenset()
        self.set_attrs: frozenset[str] = frozenset()
        self.guard_sites: list[GuardSite] = []
        self.pragmas: dict[tuple[str, int], Pragma] = {}
        self._used_pragmas: set[tuple[str, int]] = set()
        self.summaries: dict[str, Effect] = {}
        self.inferred: dict[str, Effect] = {}
        self._by_method_name: dict[str, list[str]] = {}
        self._by_plain_name: dict[str, list[str]] = {}
        self._by_property_name: dict[str, list[str]] = {}
        self._spans: dict[str, list[tuple[int, int, str]]] = {}

    # -------------------------------------------------------- queries

    def summary(self, key: str) -> Effect:
        return self.summaries[key]

    def functions_named(self, name: str) -> list[str]:
        """Keys of every universe function with this bare name."""
        return self._by_method_name.get(name, [])

    def effect_at(self, relpath: str, line: int) -> str:
        """Label of the innermost enclosing function's summary; ``""``
        outside any analyzed function."""
        best: tuple[int, str] | None = None
        for lo, hi, key in self._spans.get(relpath, ()):
            if lo <= line <= hi and (best is None or lo > best[0]):
                best = (lo, key)
        return self.summaries[best[1]].label if best else ""

    def resolve(self, site: CallSite) -> list[str]:
        if site.kind == "plain":
            return self._by_plain_name.get(site.name, [])
        if site.kind == "property":
            return self._by_property_name.get(site.name, [])
        return self._by_method_name.get(site.name, [])

    def mark_pragma_used(self, relpath: str, line: int) -> None:
        self._used_pragmas.add((relpath, line))

    def unused_pragmas(self) -> list[Pragma]:
        return sorted(
            (
                p for (rp, ln), p in self.pragmas.items()
                if (rp, ln) not in self._used_pragmas
            ),
            key=lambda p: (p.relpath, p.line),
        )

    def statement_contributions(
        self, fn: FnInfo, stmt: ast.stmt
    ) -> list[Contribution]:
        """Effect contributions of one statement: its own constructs
        plus the summaries of everything it may call."""
        ctx = _Ctx(self.surface, self.set_attrs, fn.local_sets)
        contribs, calls = _classify_region([stmt], ctx)
        calls += _property_loads([stmt], frozenset(self._by_property_name))
        for site in calls:
            for key in self.resolve(site):
                eff = self.summaries[key]
                if eff > Effect.PURE:
                    callee = self.fns[key]
                    contribs.append(Contribution(
                        eff, site.line,
                        f"calls {callee.qualname}() whose inferred effect "
                        f"is {eff.label}",
                    ))
        return contribs

    def reach_report(
        self, root_key: str, threshold: Effect
    ) -> list[Violation]:
        """BFS from ``root_key``; report every reachable function whose
        *direct* effect (or declared pragma) exceeds ``threshold``.
        A def-line pragma declaring ≤ threshold vouches for its whole
        subtree: the function is accepted and not descended into."""
        violations: list[Violation] = []
        seen = {root_key}
        queue: list[tuple[str, tuple[str, ...]]] = [
            (root_key, (self.fns[root_key].qualname,))
        ]
        while queue:
            key, path = queue.pop(0)
            fn = self.fns[key]
            if fn.pragma is not None:
                if fn.pragma.effect <= threshold:
                    self.mark_pragma_used(fn.pragma.relpath, fn.pragma.line)
                    continue
                violations.append(Violation(
                    key, fn.qualname, fn.relpath, fn.pragma.line,
                    fn.pragma.effect,
                    f"declared effect[{fn.pragma.effect.label}] pragma"
                    + (f" ({fn.pragma.reason})" if fn.pragma.reason else ""),
                    path,
                ))
                continue
            if fn.direct > threshold:
                violations.append(Violation(
                    key, fn.qualname, fn.relpath, fn.reason_line,
                    fn.direct, fn.reason, path,
                ))
            sites = list(fn.calls)
            for site in sites:
                for callee in self.resolve(site):
                    if callee not in seen:
                        seen.add(callee)
                        queue.append(
                            (callee, path + (self.fns[callee].qualname,))
                        )
        return sorted(
            violations, key=lambda v: (v.relpath, v.line, v.qualname)
        )

    def summary_rows(self) -> list[dict[str, object]]:
        """One row per function, sorted, for the ``repro effects`` CLI."""
        rows = []
        for key in sorted(self.fns):
            fn = self.fns[key]
            rows.append({
                "function": fn.qualname,
                "path": fn.relpath,
                "line": fn.lineno,
                "effect": self.summaries[key].label,
                "direct_effect": fn.direct.label,
                "reason": fn.reason,
            })
        return rows


def _qualname(stack: list[str], name: str) -> str:
    return ".".join(stack + [name]) if stack else name


def _collect_functions(
    analysis: EffectAnalysis, relpath: str, tree: ast.Module
) -> None:
    """Register every top-level function and method (nested defs fold
    into their parent) of one module."""

    def visit(body: list[ast.stmt], class_stack: list[str]) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, class_stack + [node.name])
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = _qualname(class_stack, node.name)
                key = f"{relpath}::{qual}"
                is_prop = any(
                    (isinstance(d, ast.Name) and d.id == "property")
                    or (isinstance(d, ast.Attribute)
                        and d.attr in ("property", "cached_property"))
                    for d in node.decorator_list
                )
                analysis.fns[key] = FnInfo(
                    key=key,
                    qualname=qual,
                    name=node.name,
                    relpath=relpath,
                    lineno=node.lineno,
                    end_lineno=node.end_lineno or node.lineno,
                    node=node,
                    class_name=class_stack[-1] if class_stack else "",
                    is_property=is_prop,
                )

    visit(tree.body, [])


def _collect_pragmas(analysis: EffectAnalysis, base: Path) -> None:
    for path in iter_py_files(base):
        relpath = rel(path, base)
        top = Path(relpath).parts[0] if Path(relpath).parts else ""
        if top not in UNIVERSE_PACKAGES:
            continue
        for lineno, text in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            m = _PRAGMA_RE.search(text)
            if m:
                analysis.pragmas[(relpath, lineno)] = Pragma(
                    relpath, lineno,
                    Effect[m.group(1).upper()],
                    (m.group(2) or "").strip(),
                )


def analyze(base: Path | str | None = None) -> EffectAnalysis:
    """Run the whole-repo effect analysis rooted at ``base`` (default:
    the installed ``repro`` package)."""
    from repro.sanitize.lint import package_root

    base = Path(base) if base is not None else package_root()
    analysis = EffectAnalysis(base)

    trees: dict[str, ast.Module] = {}
    for path in iter_py_files(base):
        relpath = rel(path, base)
        top = Path(relpath).parts[0] if Path(relpath).parts else ""
        if top in UNIVERSE_PACKAGES or relpath in SURFACE_EXTRA_FILES:
            trees[relpath] = parse_file(path)

    analysis.surface, analysis.set_attrs = _derive_surface(trees)
    for relpath, tree in trees.items():
        top = Path(relpath).parts[0]
        if top in UNIVERSE_PACKAGES:
            _collect_functions(analysis, relpath, tree)
    _collect_pragmas(analysis, base)

    # Resolution indexes.  Method-name lookup also covers module-level
    # functions (a `mod.fn()` call looks like a method call); plain-name
    # lookup covers module functions and explicit `__init__`s by class
    # name.
    for key, fn in analysis.fns.items():
        analysis._by_method_name.setdefault(fn.name, []).append(key)
        if not fn.class_name:
            analysis._by_plain_name.setdefault(fn.name, []).append(key)
        elif fn.name == "__init__":
            analysis._by_plain_name.setdefault(fn.class_name, []).append(key)
        if fn.is_property:
            analysis._by_property_name.setdefault(fn.name, []).append(key)
        analysis._spans.setdefault(fn.relpath, []).append(
            (fn.lineno, fn.end_lineno, key)
        )

    prop_names = frozenset(analysis._by_property_name)

    # Direct effects, call sites, guard sites, def-line pragmas.
    for key, fn in analysis.fns.items():
        ctx = _Ctx(analysis.surface, analysis.set_attrs)
        fn.local_sets = _local_set_names(fn.node, ctx)
        ctx = _Ctx(analysis.surface, analysis.set_attrs, fn.local_sets)
        contribs, calls = _classify_region(list(fn.node.body), ctx)
        calls += _property_loads(list(fn.node.body), prop_names)
        fn.calls = calls
        if contribs:
            worst = max(contribs, key=lambda c: (c.effect, -c.line))
            fn.direct = worst.effect
            first = min(
                (c for c in contribs if c.effect == worst.effect),
                key=lambda c: c.line,
            )
            fn.reason, fn.reason_line = first.desc, first.line
        pragma = analysis.pragmas.get((fn.relpath, fn.lineno))
        if pragma is not None:
            fn.pragma = pragma
        for node in ast.walk(fn.node):
            if isinstance(node, ast.If):
                guard = _guard_name(node.test)
                if guard is not None:
                    analysis.guard_sites.extend(
                        GuardSite(key, guard, node.lineno, stmt)
                        for stmt in node.body
                    )

    # Fixpoint propagation: summary = join(direct, callees, properties),
    # with a def-line pragma pinning the exported summary.
    summaries = {
        key: (fn.pragma.effect if fn.pragma else fn.direct)
        for key, fn in analysis.fns.items()
    }
    resolved: dict[str, list[str]] = {
        key: [
            callee
            for site in fn.calls
            for callee in analysis.resolve(site)
        ]
        for key, fn in analysis.fns.items()
    }
    changed = True
    while changed:
        changed = False
        for key, fn in analysis.fns.items():
            if fn.pragma is not None:
                continue
            eff = summaries[key]
            for callee in resolved[key]:
                if summaries[callee] > eff:
                    eff = summaries[callee]
            if eff != summaries[key]:
                summaries[key] = eff
                changed = True
    analysis.summaries = summaries

    # The pragma-free inferred summaries, to detect pointless pragmas.
    inferred = {key: fn.direct for key, fn in analysis.fns.items()}
    changed = True
    while changed:
        changed = False
        for key in analysis.fns:
            eff = inferred[key]
            for callee in resolved[key]:
                if inferred[callee] > eff:
                    eff = inferred[callee]
            if eff != inferred[key]:
                inferred[key] = eff
                changed = True
    analysis.inferred = inferred

    # A def pragma that matches inference changes nothing -> unused.
    for key, fn in analysis.fns.items():
        if fn.pragma is not None and fn.pragma.effect != inferred[key]:
            analysis.mark_pragma_used(fn.pragma.relpath, fn.pragma.line)

    return analysis
