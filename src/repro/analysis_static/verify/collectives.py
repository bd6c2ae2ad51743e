"""Static collective-matching (checks RV301 / RV302).

The paper's Fig. 4 pipeline only terminates if *every* rank issues the
same collective sequence.  The runtime verifier (PR 2) checks one
execution; this pass checks all paths of every analysed function:

1. **Rank taint**: parameter names ``rank``/``my_rank``, any ``.rank``
   attribute read, and anything assigned from a tainted expression
   (iterated to a fixpoint over the function's assignments).

2. **RV301**: an ``if`` whose test is rank-tainted and whose arms emit
   different collective *kind multisets* (direct backend calls plus the
   ``COLLECTIVE(kind)`` summaries of resolved callees -- the
   interprocedural part).  An arm that terminates (return/raise) while
   the code after the branch still emits collectives counts as that arm
   skipping them.

3. **RV302**: a loop whose trip count is rank-tainted with a collective
   emission in its body -- per-rank iteration counts desynchronise the
   schedule even when each iteration is symmetric.

Multisets (not ordered sequences) are compared so that a callee whose
internal emission order is unknown does not fabricate divergence.
Collective *implementation* modules (the procpool pool, simmpi, or
``# repro-verify: policy=collective-home``) are exempt: their bodies
are rank-dependent by construction.
"""

from __future__ import annotations

import ast
from collections import Counter

from .effects import BACKENDISH_NAMES, COLLECTIVE_ATTRS, EffectAnalysis
from .program import FunctionInfo, Program, receiver_text
from .report import CheckContext


def _contains_rank_read(node: ast.AST, tainted: set[str]) -> bool:
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and n.id in tainted:
            return True
        if isinstance(n, ast.Attribute) and n.attr in ("rank", "my_rank"):
            return True
    return False


class CollectiveChecker:
    def __init__(self, program: Program, effects: EffectAnalysis) -> None:
        self.program = program
        self.effects = effects

    def run_checks(self, ctx: CheckContext) -> None:
        for fn in self.program.functions.values():
            mod = self.program.modules[fn.modname]
            if mod.is_collective_home():
                continue
            self._check_function(fn, str(mod.path), ctx)

    # ------------------------------------------------------------------
    def _taint(self, fn: FunctionInfo) -> set[str]:
        args = fn.node.args
        tainted = {
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if a.arg in ("rank", "my_rank")
        }
        assigns: list[tuple[str, ast.expr]] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        assigns.append((t.id, node.value))
                    elif isinstance(t, (ast.Tuple, ast.List)):
                        for el in t.elts:
                            if isinstance(el, ast.Name):
                                assigns.append((el.id, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assigns.append((node.target.id, node.value))
        changed = True
        rounds = 0
        while changed and rounds < 10:
            changed = False
            rounds += 1
            for name, value in assigns:
                if name not in tainted and _contains_rank_read(value, tainted):
                    tainted.add(name)
                    changed = True
        return tainted

    # ------------------------------------------------------------------
    def _call_kinds(self, fn: FunctionInfo, call: ast.Call) -> list[str]:
        """Collective kinds emitted by one call expression."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in COLLECTIVE_ATTRS:
            recv = receiver_text(func.value)
            if recv is not None:
                base = recv.split(".")[0]
                typed = self.program.type_of_receiver(fn, func.value)
                if base in BACKENDISH_NAMES or recv.split(".")[-1] in BACKENDISH_NAMES:
                    if typed is None or self._typed_is_backendish(typed, func.attr):
                        return [func.attr]
                if typed is not None and self._typed_is_backendish(typed, func.attr):
                    return [func.attr]
        ref = self.program.resolve_call(fn, call)
        if ref.kind == "function":
            kinds: list[str] = []
            for eff in sorted(self.effects.summary(ref.target)):
                if eff.startswith("COLLECTIVE(") and eff.endswith(")"):
                    kinds.append(eff[len("COLLECTIVE("):-1])
            return kinds
        return []

    def _typed_is_backendish(self, class_qual: str, attr: str) -> bool:
        meth = self.program.lookup_method(class_qual, attr)
        if meth is None:
            return False
        summ = self.effects.summary(meth.qualname)
        return any(e.startswith("COLLECTIVE(") for e in summ)

    def _stmts_kinds(self, fn: FunctionInfo, stmts: list[ast.stmt]) -> "Counter[str]":
        out: Counter[str] = Counter()
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(node, ast.Call):
                    out.update(self._call_kinds(fn, node))
        return out

    @staticmethod
    def _terminates(stmts: list[ast.stmt]) -> bool:
        return bool(stmts) and isinstance(
            stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))

    # ------------------------------------------------------------------
    def _check_function(self, fn: FunctionInfo, path: str, ctx: CheckContext) -> None:
        tainted = self._taint(fn)
        if not tainted and not any(
            isinstance(n, ast.Attribute) and n.attr in ("rank", "my_rank")
            for n in ast.walk(fn.node)
        ):
            return
        self._walk_body(fn, list(fn.node.body), path, ctx, tainted)

    def _walk_body(
        self,
        fn: FunctionInfo,
        body: list[ast.stmt],
        path: str,
        ctx: CheckContext,
        tainted: set[str],
    ) -> None:
        for idx, stmt in enumerate(body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If) and _contains_rank_read(stmt.test, tainted):
                then_kinds = self._stmts_kinds(fn, stmt.body)
                else_kinds = self._stmts_kinds(fn, stmt.orelse)
                rest = body[idx + 1:]
                rest_kinds = self._stmts_kinds(fn, rest)
                eff_then, eff_else = Counter(then_kinds), Counter(else_kinds)
                if rest_kinds:
                    if not self._terminates(stmt.body):
                        eff_then += rest_kinds
                    if not self._terminates(stmt.orelse) or not stmt.orelse:
                        eff_else += rest_kinds
                if eff_then != eff_else:
                    ctx.emit(
                        "RV301", path, stmt.lineno, stmt.col_offset + 1,
                        fn.qualname,
                        "rank-dependent branch arms emit different collective "
                        f"sequences: if-arm {sorted(eff_then.elements())} vs "
                        f"else/fall-through {sorted(eff_else.elements())}")
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                ctrl = stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor)) else stmt.test
                if _contains_rank_read(ctrl, tainted):
                    loop_kinds = self._stmts_kinds(fn, stmt.body)
                    if loop_kinds:
                        ctx.emit(
                            "RV302", path, stmt.lineno, stmt.col_offset + 1,
                            fn.qualname,
                            "collective(s) "
                            f"{sorted(loop_kinds.elements())} inside a loop "
                            "with a rank-dependent trip count")
            # Recurse into compound statements.
            for field_body in self._sub_bodies(stmt):
                self._walk_body(fn, field_body, path, ctx, tainted)

    @staticmethod
    def _sub_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
        out: list[list[ast.stmt]] = []
        for name in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, name, None)
            if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                out.append(sub)
        handlers = getattr(stmt, "handlers", None)
        if handlers:
            for h in handlers:
                out.append(h.body)
        return out
