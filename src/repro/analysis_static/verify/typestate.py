"""Typestate verification of the shared-memory segment protocol.

The protocol (docs/ANALYSIS.md):

    create -> publish -> attach -> close -> unlink
                                   ^^^^^    ^^^^^^
                                   every    exactly once,
                                   mapper   owner only

Per function we track local bindings that provably hold a segment --
``SharedArrayBundle.create/attach``, raw ``SharedMemory(...)``
constructions, and calls to helpers whose return annotation is
``SharedMemory`` -- then check the event order of
``close``/``unlink``/use sites over a linear (source-order)
approximation of control flow:

* RV201  attach or create with no close/handoff on any path
* RV202  segment used after its close
* RV203  unlink issued on an attach-side binding
* RV204  more than one lexical unlink site for one owned binding
* RV205  unlink ordered before close (also flagged for untyped
         receivers: any receiver expression with both calls in one
         function, e.g. ``pub.bundle``)
* RV206  a class stores a segment in an attribute but no method closes
         or hands it off

Escape analysis discharges local obligations: a binding that is
returned, yielded, stored into an attribute/container, or passed to a
callee becomes that owner's responsibility (RV206 picks up the
attribute case).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .effects import iter_own_nodes, shared_memory_creates
from .program import ClassInfo, FunctionInfo, Program, receiver_text
from .report import CheckContext

_SHARED_MEMORY_EXTERNAL = "multiprocessing.shared_memory.SharedMemory"
_SHM_CLASS_NAMES = frozenset({"SharedArrayBundle"})


def _is_shm_like_class(cinfo: ClassInfo) -> bool:
    if cinfo.name in _SHM_CLASS_NAMES:
        return True
    return {"close", "unlink"} <= set(cinfo.methods)


@dataclass
class _Binding:
    name: str
    kind: str  # "create" | "attach"
    line: int
    col: int
    close_pos: int | None = None
    unlink_sites: list[tuple[int, int]] = field(default_factory=list)  # (pos, line)
    escaped: bool = False
    uses_after: list[int] = field(default_factory=list)  # lines of post-close uses


class TypestateChecker:
    def __init__(self, program: Program) -> None:
        self.program = program

    # ------------------------------------------------------------------
    def run_checks(self, ctx: CheckContext) -> None:
        for fn in self.program.functions.values():
            self._check_function(fn, ctx)
        for cinfo in self.program.classes.values():
            self._check_class(cinfo, ctx)

    # ------------------------------------------------------------------
    # Binding classification
    # ------------------------------------------------------------------
    def classify_binding(self, fn: FunctionInfo, call: ast.Call) -> str | None:
        """"create" or "attach" if ``call`` yields a shared-memory segment."""
        prog = self.program
        ref = prog.resolve_call(fn, call)
        if ref.kind == "external" and ref.target == _SHARED_MEMORY_EXTERNAL:
            return "create" if shared_memory_creates(call) else "attach"
        if ref.kind == "function":
            callee = prog.functions[ref.target]
            if callee.cls is not None:
                cinfo = prog.classes.get(callee.cls)
                if (cinfo is not None and _is_shm_like_class(cinfo)
                        and callee.name in ("create", "attach")):
                    return callee.name
                return None
            # Helper returning a raw segment, e.g. _attach_untracked().
            returns = ast.dump(callee.node.returns) if callee.node.returns else ""
            if "SharedMemory" in returns:
                return "attach"
        return None

    # ------------------------------------------------------------------
    # Per-function protocol check
    # ------------------------------------------------------------------
    def _check_function(self, fn: FunctionInfo, ctx: CheckContext) -> None:
        mod = self.program.modules[fn.modname]
        path = str(mod.path)
        nodes = iter_own_nodes(fn)

        bindings: dict[str, _Binding] = {}
        # Any receiver text with close/unlink calls (typed or not) -- this
        # is what catches ``pub.bundle.unlink(); pub.bundle.close()``.
        recv_close: dict[str, tuple[int, int]] = {}  # text -> (pos, line)
        recv_unlink: dict[str, list[tuple[int, int, int]]] = {}  # (pos, line, col)

        for pos, node in enumerate(nodes):
            if isinstance(node, ast.Assign):
                value = node.value
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                if names and isinstance(value, ast.Call):
                    kind = self.classify_binding(fn, value)
                    if kind is not None:
                        for nm in names:
                            bindings[nm] = _Binding(
                                name=nm, kind=kind,
                                line=value.lineno, col=value.col_offset + 1)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                recv = receiver_text(node.func.value)
                if recv is not None and attr in ("close", "unlink"):
                    if attr == "close":
                        recv_close.setdefault(recv, (pos, node.lineno))
                    else:
                        recv_unlink.setdefault(recv, []).append(
                            (pos, node.lineno, node.func.value.col_offset + 1))
                    b = bindings.get(recv)
                    if b is not None:
                        if attr == "close" and b.close_pos is None:
                            b.close_pos = pos
                        elif attr == "unlink":
                            b.unlink_sites.append((pos, node.lineno))

        self._mark_escapes_and_uses(fn, nodes, bindings)

        qual = fn.qualname
        for b in bindings.values():
            if b.kind == "attach" and b.unlink_sites:
                ctx.emit(
                    "RV203", path, b.unlink_sites[0][1], b.col, qual,
                    f"{b.name!r} is attached here but unlinked below; only the "
                    "creating owner unlinks")
            if len(b.unlink_sites) > 1:
                ctx.emit(
                    "RV204", path, b.unlink_sites[1][1], b.col, qual,
                    f"{b.name!r} unlinked at {len(b.unlink_sites)} sites "
                    f"(lines {', '.join(str(ln) for _, ln in b.unlink_sites)})")
            if (
                b.close_pos is None
                and not b.escaped
                and not (b.kind == "create" and b.unlink_sites)
            ):
                ctx.emit(
                    "RV201", path, b.line, b.col, qual,
                    f"{b.name!r} is {'created' if b.kind == 'create' else 'attached'} "
                    "here but never closed or handed off in this function")
            if b.close_pos is not None and b.uses_after:
                ctx.emit(
                    "RV202", path, b.uses_after[0], b.col, qual,
                    f"{b.name!r} used after its close()")

        for recv, sites in recv_unlink.items():
            close = recv_close.get(recv)
            if close is None:
                continue
            first_unlink = min(sites)
            if first_unlink[0] < close[0]:
                ctx.emit(
                    "RV205", path, first_unlink[1], first_unlink[2], qual,
                    f"{recv}.unlink() ordered before {recv}.close(); close the "
                    "mapping first, then unlink the name")

    def _mark_escapes_and_uses(
        self,
        fn: FunctionInfo,
        nodes: list[ast.AST],
        bindings: dict[str, _Binding],
    ) -> None:
        if not bindings:
            return

        def names_in(node: ast.AST) -> set[str]:
            return {
                n.id
                for n in ast.walk(node)
                if isinstance(n, ast.Name) and n.id in bindings
            }

        close_positions = {nm: b.close_pos for nm, b in bindings.items()}
        for pos, node in enumerate(nodes):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                if value is not None:
                    for nm in names_in(value):
                        bindings[nm].escaped = True
            elif isinstance(node, ast.Call):
                receiver = (
                    node.func.value
                    if isinstance(node.func, ast.Attribute)
                    else None
                )
                for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                    for nm in names_in(arg):
                        bindings[nm].escaped = True
                # Receiver position is not an escape, but *is* a use.
                if receiver is not None and isinstance(receiver, ast.Name):
                    nm = receiver.id
                    if nm in bindings:
                        cp = close_positions.get(nm)
                        attr = node.func.attr  # type: ignore[union-attr]
                        if (
                            cp is not None
                            and pos > cp
                            and attr not in ("close", "unlink")
                        ):
                            bindings[nm].uses_after.append(node.lineno)
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, (ast.Attribute, ast.Subscript)):
                        for nm in names_in(node.value):
                            bindings[nm].escaped = True
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
                for nm in names_in(node):
                    bindings[nm].escaped = True
            elif isinstance(node, (ast.Attribute, ast.Subscript)):
                base = node.value
                if isinstance(base, ast.Name) and base.id in bindings:
                    nm = base.id
                    cp = close_positions.get(nm)
                    attr_name = node.attr if isinstance(node, ast.Attribute) else ""
                    if (
                        cp is not None
                        and pos > cp
                        and attr_name not in ("close", "unlink")
                    ):
                        bindings[nm].uses_after.append(node.lineno)

    # ------------------------------------------------------------------
    # Class-level check (RV206)
    # ------------------------------------------------------------------
    def _shm_attrs_of(self, cinfo: ClassInfo) -> dict[str, int]:
        """attr name -> line for attributes provably holding a segment."""
        out: dict[str, int] = {}
        for attr, typ in cinfo.attr_types.items():
            tinfo = self.program.classes.get(typ)
            if tinfo is not None and _is_shm_like_class(tinfo):
                out[attr] = cinfo.lineno
        # Class-body annotations / __init__ params typed as raw SharedMemory.
        for stmt in cinfo.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if "SharedMemory" in ast.dump(stmt.annotation):
                    out.setdefault(stmt.target.id, stmt.lineno)
        for mname, mqual in cinfo.methods.items():
            mfn = self.program.functions.get(mqual)
            if mfn is None:
                continue
            ann_shm = {
                a.arg
                for a in [*mfn.node.args.posonlyargs, *mfn.node.args.args,
                          *mfn.node.args.kwonlyargs]
                if a.annotation is not None
                and "SharedMemory" in ast.dump(a.annotation)
            }
            if not ann_shm:
                continue
            for node in iter_own_nodes(mfn):
                if not isinstance(node, ast.Assign):
                    continue
                if not (isinstance(node.value, ast.Name)
                        and node.value.id in ann_shm):
                    continue
                for t in node.targets:
                    if (
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                    ):
                        out.setdefault(t.attr, node.lineno)
        return out

    def _check_class(self, cinfo: ClassInfo, ctx: CheckContext) -> None:
        regular = [m for m in cinfo.methods if not m.startswith("__")]
        if not regular:
            return  # passive record (dataclass field holder): owner closes
        shm_attrs = self._shm_attrs_of(cinfo)
        if not shm_attrs:
            return
        mod = self.program.modules[cinfo.modname]
        path = str(mod.path)
        for attr, line in shm_attrs.items():
            if self._class_releases(cinfo, attr):
                continue
            ctx.emit(
                "RV206", path, line, 1, cinfo.qualname,
                f"class {cinfo.name} stores a shared-memory segment in "
                f"self.{attr} but no method closes or hands it off")

    def _class_releases(self, cinfo: ClassInfo, attr: str) -> bool:
        target = f"self.{attr}"
        for mqual in cinfo.methods.values():
            mfn = self.program.functions.get(mqual)
            if mfn is None:
                continue
            for node in iter_own_nodes(mfn):
                if not isinstance(node, ast.Call):
                    continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "close"
                    and receiver_text(node.func.value) == target
                ):
                    return True
                for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                    if receiver_text(arg) == target:
                        return True  # handed off (finalizer, helper, ...)
        return False
