"""Bottom-up interprocedural effect inference.

For every function in the :class:`~.program.Program` we compute an
*intrinsic* effect set (effects the body performs directly) plus call
edges, then propagate to a fixpoint::

    summary(f)  = declared(f)                  if f has @declares_effects
                  inferred(f)                  otherwise
    inferred(f) = intrinsic(f) | U summary(g)  for every resolved call g

Declarations cut propagation (callers see the declared upper bound) but
are themselves checked: ``inferred(f) ⊆ declared(f)`` or check RV102
fires.  Modules under a pure policy (plan executors, core energy
kernels, or any module carrying ``# repro-verify: policy=pure``) must
have ``inferred(f) == ∅`` for every function, or RV101 fires with the
call chain that reaches the effect.

Resolution gaps degrade soundness, not precision: an unresolvable call
contributes nothing.  The important seams -- shm lifecycle, backend
collectives, the sanctioned clock -- carry declarations precisely so
the analysis does not depend on resolving them through duck typing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable

from .program import FunctionInfo, Program, receiver_text
from .report import CheckContext

_AddFn = Callable[[str, ast.AST, str], None]

#: External callables that read the host wall clock.
WALLCLOCK_EXTERNALS = frozenset({
    "time.perf_counter", "time.perf_counter_ns", "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.date.today",
})

#: External callables performing file/stream/process I/O.
IO_EXTERNALS = frozenset({
    "builtins.open", "builtins.print", "builtins.input",
    "os.remove", "os.unlink", "os.rename", "os.replace",
    "os.makedirs", "os.mkdir", "os.rmdir",
    "json.dump", "json.load",
    "tempfile.mkdtemp", "tempfile.mkstemp", "tempfile.TemporaryDirectory",
})
IO_PREFIXES = ("subprocess.", "shutil.", "sys.stdout.", "sys.stderr.")

#: Seedable RNG constructors: a call *with* arguments is deterministic.
_SEEDABLE_RNG = frozenset({"default_rng", "RandomState", "SeedSequence",
                           "Generator", "Philox", "PCG64", "Random"})
_ALWAYS_RNG_EXTERNALS = frozenset({"os.urandom", "uuid.uuid4", "random.SystemRandom"})

COLLECTIVE_ATTRS = frozenset({"allreduce", "allgather", "reduce",
                              "bcast", "gather", "barrier"})
#: Untyped receivers assumed to be an execution backend / rank context.
BACKENDISH_NAMES = frozenset({"backend", "ctx", "comm", "world"})

_SHM_CLASS_NAMES = frozenset({"SharedArrayBundle"})
_SHARED_MEMORY_EXTERNAL = "multiprocessing.shared_memory.SharedMemory"


@dataclass(frozen=True)
class Witness:
    line: int
    col: int
    reason: str


def classify_external(dotted: str, call: ast.Call) -> dict[str, str]:
    """effect -> reason for a call to an external (non-repo) callable."""
    out: dict[str, str] = {}
    if dotted in WALLCLOCK_EXTERNALS:
        out["CLOCK"] = f"calls {dotted}()"
    elif dotted in IO_EXTERNALS or dotted.startswith(IO_PREFIXES):
        out["IO"] = f"calls {dotted}()"
    elif dotted in _ALWAYS_RNG_EXTERNALS:
        out["RNG"] = f"calls {dotted}()"
    elif dotted.startswith("numpy.random.") or dotted.startswith("random."):
        attr = dotted.rsplit(".", 1)[1]
        seeded = bool(call.args or call.keywords)
        if attr == "seed" or (attr in _SEEDABLE_RNG and seeded):
            pass  # explicit seeding / seeded construction is deterministic
        else:
            out["RNG"] = f"calls {dotted}() without a seed" if attr in _SEEDABLE_RNG \
                else f"calls process-global {dotted}()"
    elif dotted == _SHARED_MEMORY_EXTERNAL:
        if shared_memory_creates(call):
            out["SHM_CREATE"] = "constructs SharedMemory(create=True)"
        else:
            out["SHM_ATTACH"] = "attaches SharedMemory by name"
    return out


def shared_memory_creates(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "create":
            return isinstance(kw.value, ast.Constant) and bool(kw.value.value)
    if len(call.args) >= 2:
        a = call.args[1]
        return isinstance(a, ast.Constant) and bool(a.value)
    return False


def is_stub(fn: FunctionInfo) -> bool:
    """True for Protocol-style stubs (docstring / ``...`` / ``pass`` only)."""
    for stmt in fn.node.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        if isinstance(stmt, ast.Raise):
            continue
        return False
    return True


def iter_own_nodes(fn: FunctionInfo) -> "list[ast.AST]":
    """All AST nodes of ``fn`` excluding nested def/class bodies (those are
    separate functions).  Lambdas stay included: their calls are treated
    as the enclosing function's, a deliberate over-approximation."""
    out: list[ast.AST] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            out.append(child)
            walk(child)

    walk(fn.node)
    return out


class EffectAnalysis:
    """Computes and stores per-function effect summaries."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.intrinsic: dict[str, dict[str, Witness]] = {}
        self.edges: dict[str, list[tuple[str, int]]] = {}
        self.inferred: dict[str, frozenset[str]] = {}
        self._scan_all()
        self._propagate()

    # -- public API ----------------------------------------------------
    def summary(self, qualname: str) -> frozenset[str]:
        fn = self.program.functions.get(qualname)
        if fn is not None and fn.declared is not None:
            return fn.declared
        return self.inferred.get(qualname, frozenset())

    def effects_of(self, qualname: str) -> frozenset[str]:
        """Effects inferred from the body (ignoring the function's own
        declaration -- this is what RV101/RV102 judge)."""
        return self.inferred.get(qualname, frozenset())

    def explain(self, qualname: str, effect: str, _depth: int = 0,
                _seen: frozenset[str] = frozenset()) -> str:
        """Human-readable call chain from ``qualname`` to the effect."""
        short = qualname.split(".")[-1]
        if _depth > 20 or qualname in _seen:
            return short
        wit = self.intrinsic.get(qualname, {}).get(effect)
        if wit is not None:
            return f"{short} ({wit.reason}, line {wit.line})"
        for callee, line in self.edges.get(qualname, []):
            if effect not in self.summary(callee):
                continue
            fn = self.program.functions.get(callee)
            if fn is not None and fn.declared is not None:
                return f"{short} -> {callee.split('.')[-1]} [declared {effect}]"
            tail = self.explain(callee, effect, _depth + 1, _seen | {qualname})
            return f"{short} -> {tail}"
        return short

    def witness(self, qualname: str, effect: str) -> Witness:
        wit = self.intrinsic.get(qualname, {}).get(effect)
        if wit is not None:
            return wit
        for callee, line in self.edges.get(qualname, []):
            if effect in self.summary(callee):
                return Witness(line, 0, f"call to {callee.split('.')[-1]}")
        fn = self.program.functions[qualname]
        return Witness(fn.lineno, 0, "unknown")

    # -- checks --------------------------------------------------------
    def run_checks(self, ctx: CheckContext) -> None:
        for qual, fn in self.program.functions.items():
            mod = self.program.modules[fn.modname]
            path = str(mod.path)
            if fn.bad_decl is not None:
                ctx.emit("RV102", path, fn.decl_line or fn.lineno, 1, qual, fn.bad_decl)
            if fn.declared is not None and fn.bad_decl is None:
                extra = self.inferred.get(qual, frozenset()) - fn.declared
                for effect in sorted(extra):
                    wit = self.witness(qual, effect)
                    ctx.emit(
                        "RV102", path, wit.line, wit.col, qual,
                        f"{qual} declares {sorted(fn.declared) or 'no effects'} "
                        f"but its body reaches {effect}: {self.explain(qual, effect)}",
                    )
            if mod.is_pure_policy():
                for effect in sorted(self.inferred.get(qual, frozenset())):
                    wit = self.witness(qual, effect)
                    ctx.emit(
                        "RV101", path, wit.line, wit.col, qual,
                        f"{qual} must be effect-free but reaches {effect}: "
                        f"{self.explain(qual, effect)}",
                    )

    # -- intrinsic scan ------------------------------------------------
    def _scan_all(self) -> None:
        for qual, fn in self.program.functions.items():
            intr, edges = self._scan_function(fn)
            self.intrinsic[qual] = intr
            self.edges[qual] = edges

    def _scan_function(
        self, fn: FunctionInfo
    ) -> tuple[dict[str, Witness], list[tuple[str, int]]]:
        prog = self.program
        intr: dict[str, Witness] = {}
        edges: list[tuple[str, int]] = []
        nodes = iter_own_nodes(fn)

        def add(effect: str, node: ast.AST, reason: str) -> None:
            line = getattr(node, "lineno", fn.lineno)
            col = getattr(node, "col_offset", 0) + 1
            intr.setdefault(effect, Witness(line, col, reason))

        # Pass 1: names bound to shm views / raw SharedMemory objects.
        view_names: set[str] = set()
        raw_names: set[str] = set()
        for node in nodes:
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            name_targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if not name_targets or not isinstance(value, ast.Call):
                continue
            if self._is_view_call(fn, value) or self._is_buffer_ndarray(fn, value):
                view_names.update(name_targets)
            else:
                ref = prog.resolve_call(fn, value)
                if ref.kind == "external" and ref.target == _SHARED_MEMORY_EXTERNAL:
                    raw_names.update(name_targets)

        # Pass 2: effects + edges.
        clock_params = self._clock_default_params(fn)
        for node in nodes:
            if isinstance(node, ast.Call):
                self._scan_call(fn, node, intr, edges, add, clock_params)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if self._writes_shared(fn, t, view_names, raw_names):
                        add("MUTATES_SHARED", t,
                            "writes through a shared-memory view")
        return intr, edges

    def _scan_call(
        self,
        fn: FunctionInfo,
        node: ast.Call,
        intr: dict[str, Witness],
        edges: list[tuple[str, int]],
        add: _AddFn,
        clock_params: set[str],
    ) -> None:
        prog = self.program
        # Referencing a wall-clock function as an argument hands the clock
        # to the callee; charge the referencing site.
        for arg in [*node.args, *[kw.value for kw in node.keywords]]:
            text = receiver_text(arg)
            if text is not None and "." in text:
                ref = prog.resolve_call(fn, ast.Call(func=arg, args=[], keywords=[]))
                if ref.kind == "external" and ref.target in WALLCLOCK_EXTERNALS:
                    add("CLOCK", arg, f"passes wall-clock {ref.target}")
        func = node.func
        if isinstance(func, ast.Name) and func.id in clock_params:
            add("CLOCK", node, f"calls parameter {func.id!r} whose default is a wall clock")
            return
        # Nested defs are callable by bare name inside the parent.
        if isinstance(func, ast.Name):
            nested = f"{fn.qualname}.{func.id}"
            if nested in prog.functions:
                edges.append((nested, node.lineno))
                return
        ref = prog.resolve_call(fn, node)
        if ref.kind == "function":
            callee = prog.functions[ref.target]
            if is_stub(callee) and callee.declared is None:
                # Protocol stub without a declaration: fall back to the
                # attribute-name heuristic below.
                self._collective_heuristic(fn, node, add, typed_ok=True)
            else:
                edges.append((ref.target, node.lineno))
            return
        if ref.kind == "class":
            init = prog.lookup_method(ref.target, "__init__")
            if init is not None:
                edges.append((init.qualname, node.lineno))
            return
        if ref.kind == "external":
            for effect, reason in classify_external(ref.target, node).items():
                add(effect, node, reason)
            return
        self._collective_heuristic(fn, node, add, typed_ok=False)

    def _collective_heuristic(
        self, fn: FunctionInfo, node: ast.Call, add: _AddFn, *, typed_ok: bool
    ) -> None:
        """COLLECTIVE(kind) for ``backend.allreduce(...)``-shaped calls on
        receivers we cannot (or need not) type precisely."""
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in COLLECTIVE_ATTRS:
            return
        recv = receiver_text(func.value)
        if recv is None:
            return
        base = recv.split(".")[0]
        if not typed_ok and self.program.type_of_receiver(fn, func.value) is not None:
            return
        if base in BACKENDISH_NAMES or recv.split(".")[-1] in BACKENDISH_NAMES:
            add(f"COLLECTIVE({func.attr})", node,
                f"calls {recv}.{func.attr}() (backend-shaped receiver)")

    def _clock_default_params(self, fn: FunctionInfo) -> set[str]:
        out: set[str] = set()
        args = fn.node.args
        pos = [*args.posonlyargs, *args.args]
        for a, d in zip(pos[len(pos) - len(args.defaults):], args.defaults):
            if self._is_clock_expr(fn, d):
                out.add(a.arg)
        for a, kd in zip(args.kwonlyargs, args.kw_defaults):
            if kd is not None and self._is_clock_expr(fn, kd):
                out.add(a.arg)
        return out

    def _is_clock_expr(self, fn: FunctionInfo, expr: ast.expr) -> bool:
        text = receiver_text(expr)
        if text is None:
            return False
        ref = self.program.resolve_call(
            fn, ast.Call(func=expr, args=[], keywords=[]))
        return ref.kind == "external" and ref.target in WALLCLOCK_EXTERNALS

    def _is_view_call(self, fn: FunctionInfo, call: ast.Call) -> bool:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr != "view":
            return False
        typ = self.program.type_of_receiver(fn, func.value)
        if typ is None:
            return False
        return typ.split(".")[-1] in _SHM_CLASS_NAMES

    def _is_buffer_ndarray(self, fn: FunctionInfo, call: ast.Call) -> bool:
        ref = self.program.resolve_call(fn, call)
        if ref.kind != "external" or not ref.target.startswith("numpy."):
            return False
        return any(kw.arg == "buffer" for kw in call.keywords)

    def _writes_shared(
        self,
        fn: FunctionInfo,
        target: ast.expr,
        view_names: set[str],
        raw_names: set[str],
    ) -> bool:
        if not isinstance(target, ast.Subscript):
            return False
        base = target.value
        if isinstance(base, ast.Name):
            return base.id in view_names
        if isinstance(base, ast.Attribute):
            # shm.buf[...] on a raw SharedMemory.
            owner = base.value
            return (base.attr == "buf" and isinstance(owner, ast.Name)
                    and owner.id in raw_names)
        if isinstance(base, ast.Call):
            return self._is_view_call(fn, base)
        return False

    # -- propagation ---------------------------------------------------
    def _propagate(self) -> None:
        for qual in self.program.functions:
            self.inferred[qual] = frozenset(self.intrinsic[qual])
        changed = True
        while changed:
            changed = False
            for qual in self.program.functions:
                cur = self.inferred[qual]
                acc = set(cur)
                for callee, _line in self.edges[qual]:
                    acc |= self.summary(callee)
                if acc != cur:
                    self.inferred[qual] = frozenset(acc)
                    changed = True
