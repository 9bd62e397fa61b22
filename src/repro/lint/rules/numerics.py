"""Numerical-safety rules (NUM family).

The engines promise that solver garbage (NaN/Inf, blowup, divergence)
surfaces as a diagnosable :class:`~repro.errors.NumericalError` instead
of leaking into positions or being swallowed.  That requires every raw
solve to sit behind :class:`~repro.robust.guards.GuardedSolve` /
:class:`~repro.robust.guards.IterateGuard`, float comparisons to avoid
exact equality (except documented sentinels), and exception handlers to
stay narrow enough that ``NumericalError`` keeps propagating.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import FileContext, Finding
from ..registry import Rule, register

#: direct solver entry points that must be wrapped by the guards.
_SOLVERS = {
    "scipy.sparse.linalg.spsolve",
    "scipy.sparse.linalg.splu",
    "scipy.sparse.linalg.factorized",
    "scipy.sparse.linalg.cg",
    "scipy.sparse.linalg.cgs",
    "scipy.sparse.linalg.bicg",
    "scipy.sparse.linalg.bicgstab",
    "scipy.sparse.linalg.gmres",
    "scipy.sparse.linalg.lgmres",
    "scipy.sparse.linalg.minres",
    "scipy.sparse.linalg.lsqr",
    "scipy.sparse.linalg.lsmr",
    "scipy.linalg.solve",
    "scipy.linalg.lu_solve",
    "scipy.linalg.cho_solve",
    "numpy.linalg.solve",
    "numpy.linalg.lstsq",
    "numpy.linalg.inv",
    "numpy.linalg.pinv",
}

#: packages whose solves must route through the guards.
_GUARDED_SCOPES = ("repro/place/", "repro/core/")

#: attribute names whose comparison against 0.0 is a documented sentinel
#: (the ``net.weight == 0.0`` skip checks and their vectorised arena
#: twin ``arena.net_weight != 0.0``: weights are assigned exactly,
#: never computed, so exact equality is the contract).
_SENTINEL_ATTRS = {"weight", "net_weight"}
_SENTINEL_VALUES = {0.0}


def _float_const(node: ast.AST) -> float | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return node.value
    return None


def _is_sentinel(lhs: ast.AST, rhs: ast.AST) -> bool:
    """True for whitelisted ``<attr>.weight == 0.0``-style sentinels."""
    const = _float_const(rhs)
    if const is None or const not in _SENTINEL_VALUES:
        return False
    return isinstance(lhs, ast.Attribute) and lhs.attr in _SENTINEL_ATTRS


@register
class UnguardedSolve(Rule):
    id = "NUM01"
    summary = "raw linear-algebra solve outside GuardedSolve routing"
    invariant = ("Every solve in the placement engines raises "
                 "NumericalError (not silent NaN) on garbage: solves are "
                 "wrapped by GuardedSolve or validated like "
                 "QuadraticSystem.solve before results are used.")
    fix = ("Route the call through GuardedSolve / QuadraticSystem.solve, "
           "or sanction a canonical guarded implementation with "
           "# repro-lint: disable=NUM01 and a justification.")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.relpath.startswith(_GUARDED_SCOPES):
            return
        for node in ctx.walk():
            if isinstance(node, ast.Call):
                dotted = ctx.dotted(node.func)
                if dotted in _SOLVERS:
                    yield ctx.finding(
                        self.id, node,
                        f"raw {dotted}() in the placement engines; wrap "
                        "it in GuardedSolve (or an explicitly sanctioned "
                        "guarded implementation) so NaN/blowup raises "
                        "NumericalError")


@register
class FloatEquality(Rule):
    id = "NUM02"
    summary = "exact float ==/!= outside the sentinel whitelist"
    invariant = ("Floating-point comparisons tolerate rounding; exact "
                 "equality is reserved for assigned-never-computed "
                 "sentinels (today: .weight == 0.0 net-skip checks).")
    fix = ("Compare with a tolerance (math.isclose / np.isclose / an "
           "explicit epsilon), or add the pattern to the sentinel "
           "whitelist with a justification.")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _float_const(lhs) is None and _float_const(rhs) is None:
                    continue
                if _is_sentinel(lhs, rhs) or _is_sentinel(rhs, lhs):
                    continue
                yield ctx.finding(
                    self.id, node,
                    "exact float equality against a literal; use a "
                    "tolerance or a whitelisted sentinel")


@register
class OverbroadExcept(Rule):
    id = "NUM03"
    summary = "bare/over-broad except that can swallow NumericalError"
    invariant = ("NumericalError propagates to the degradation ladder / "
                 "executor; only sanctioned fault boundaries (worker "
                 "edges) may absorb arbitrary exceptions.")
    fix = ("Catch the specific exception types expected, re-raise after "
           "cleanup, or sanction a fault boundary with "
           "# repro-lint: disable=NUM03 and a justification.")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._broad(node.type):
                continue
            if any(isinstance(sub, ast.Raise)
                   for stmt in node.body for sub in ast.walk(stmt)):
                continue  # transforms/re-raises: nothing is swallowed
            label = "bare except" if node.type is None else \
                f"except {ast.unparse(node.type)}"
            yield ctx.finding(
                self.id, node,
                f"{label} without re-raise can swallow NumericalError; "
                "narrow the types or sanction the fault boundary")

    @staticmethod
    def _broad(type_node: ast.AST | None) -> bool:
        if type_node is None:
            return True
        names = []
        if isinstance(type_node, ast.Tuple):
            names = [e.id for e in type_node.elts
                     if isinstance(e, ast.Name)]
        elif isinstance(type_node, ast.Name):
            names = [type_node.id]
        return any(n in ("Exception", "BaseException") for n in names)
