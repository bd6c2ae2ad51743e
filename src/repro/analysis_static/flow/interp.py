"""The flow-sensitive abstract interpreter over numpy dataflow.

One :class:`FlowInterpreter` instance analyses one function: it seeds an
environment from ``@array_contract`` parameter specs and contracted-class
annotations (an ``InteractionPlan`` parameter makes ``plan.far_start`` an
``(nrows+1,) int64 C`` fact and ``plan.nrows`` the ``nrows`` dimension
symbol), pushes facts through assignments with the transfer table of
:mod:`.transfer`, and checks five things along the way:

* **RV601** -- an argument whose inferred symbolic shape *definitely*
  mismatches the callee's ``@array_contract`` spec (rank or any dim);
* **RV602** -- float32/float64 drift on an energy path: a silent
  promotion in arithmetic, a ``float64 -> float32`` downcast, or a
  delivered dtype that contradicts a contract;
* **RV603** -- a view-aliased / non-contiguous array where a contract
  demands ``C``, or published to ``SharedArrayBundle`` (the bundle's
  ``ascontiguousarray`` normalisation would silently *copy*, so writes
  through the original would never reach the shared segment);
* **RV604** -- an ``int32`` index array gathering into a 64-bit-keyed
  CSR/key array (the Hilbert-key / CSR-index width seam);
* **RV605** -- an array crossing a process/shm/cluster boundary with no
  covering contract (an uncontracted publication key, payload or
  donation kernel).

Branches are analysed independently and joined by agreement; loops are
walked once (facts proven inside a body are definite *in* that body,
which is where the checks run).  Everything undecidable stays unknown,
and unknown never refutes a contract -- repro-flow reports definite
evidence only, which is why the clean tree stays clean.
"""

from __future__ import annotations

import ast
import re
from typing import Callable

from ..verify.program import FunctionInfo, Program, receiver_text
from .contracts import ContractSpec, dims_match
from .domain import (CONTIG, FLOAT_DTYPES, UNKNOWN, VIEW, ArrayVal, DimVal,
                     Env, ObjVal, TupleVal, promote, shape_str)
from .transfer import NUMPY_TRANSFER, dtype_from_ast

#: In-program functions at either end of a row-range hop: the range
#: kernels whose arrays a worker or donee sends back, and the reductions
#: that receive them.  Each must carry an ``@array_contract`` (RV605).
BOUNDARY_CALLEES = frozenset({
    "born_flat_values", "epol_row_terms",
    "reduce_born_flat", "fold_pair_terms",
})

#: Receiver class of the shared-memory publication boundary.
PUBLISH_RECEIVER = "SharedArrayBundle"

_NUMPY_NAMES = ("np", "numpy")
_DIM_TERM_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)?([+-]\d+)?$|^(\d+)$")

#: ``np.<name>(x)`` scalar/array dtype-cast constructors.
_CAST_CTORS = {
    "float64": "float64", "float32": "float32", "int64": "int64",
    "int32": "int32", "uint64": "uint64",
}


def dim_add(dim: str, delta: int) -> str:
    """Symbolic ``dim + delta`` (``nrows+1`` - 1 -> ``nrows``)."""
    if dim == UNKNOWN:
        return UNKNOWN
    m = _DIM_TERM_RE.match(dim)
    if m is None:
        return UNKNOWN
    if m.group(3) is not None:
        return str(int(m.group(3)) + delta)
    sym = m.group(1) or ""
    off = int(m.group(2) or 0) + delta
    if not sym:
        return str(off)
    return sym if off == 0 else f"{sym}{off:+d}"


class FlowInterpreter:
    """Abstract interpretation of one function body."""

    def __init__(self, program: Program, index, fn: FunctionInfo, *,
                 energy_path: bool,
                 emit: Callable[[str, int, int, str], None]) -> None:
        self.program = program
        self.index = index
        self.fn = fn
        self.energy_path = energy_path
        self._emit_cb = emit
        self._seen: set[tuple[str, int, str]] = set()

    # -- reporting -----------------------------------------------------
    def emit(self, check: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", self.fn.lineno)
        col = getattr(node, "col_offset", 0) + 1
        key = (check, line, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self._emit_cb(check, line, col, message)

    # -- entry ---------------------------------------------------------
    def run(self) -> None:
        env = self._seed_env()
        self.exec_block(self.fn.node.body, env)

    def _seed_env(self) -> Env:
        env = Env()
        # Contracted-class parameters/locals (flow-insensitive seeds).
        for var, cq in self.program.local_types(self.fn).items():
            if cq in self.index.classes:
                env.set(var, ObjVal(cq))
        # The function's own parameter contracts are stronger facts.
        specs = self.index.functions.get(self.fn.qualname, {})
        for name, spec in specs.items():
            if name != "returns" and spec.kind == "array":
                env.set(name, self._from_spec(spec, self.fn.lineno))
        return env

    @staticmethod
    def _from_spec(spec: ContractSpec, lineno: int) -> ArrayVal:
        return ArrayVal(
            shape=spec.shape,
            dtype=spec.dtype if spec.dtype != "any" else UNKNOWN,
            contig=CONTIG if spec.contiguous else UNKNOWN,
            contracted=True, origin=lineno)

    # -- statements ----------------------------------------------------
    def exec_block(self, stmts: list[ast.stmt], env: Env) -> Env:
        for stmt in stmts:
            env = self.exec_stmt(stmt, env)
        return env

    def exec_stmt(self, stmt: ast.stmt, env: Env) -> Env:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for tgt in stmt.targets:
                self._bind(tgt, value, env)
            return env
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval(stmt.value, env)
                if stmt.target is not None:
                    self._bind(stmt.target, value, env)
            return env
        if isinstance(stmt, ast.AugAssign):
            left = self.eval(stmt.target, env)
            right = self.eval(stmt.value, env)
            result = self._binop_value(stmt, left, right)
            if isinstance(stmt.target, ast.Name):
                env.set(stmt.target.id, result)
            return env
        if isinstance(stmt, (ast.Expr, ast.Return)):
            if getattr(stmt, "value", None) is not None:
                self.eval(stmt.value, env)
            return env
        if isinstance(stmt, ast.If):
            self.eval(stmt.test, env)
            then_env = self.exec_block(stmt.body, env.copy())
            else_env = self.exec_block(stmt.orelse, env.copy())
            return then_env.merge(else_env)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter, env)
            body_env = env.copy()
            self._bind(stmt.target, None, body_env)
            body_env = self.exec_block(stmt.body, body_env)
            body_env = self.exec_block(stmt.orelse, body_env)
            return env.merge(body_env)
        if isinstance(stmt, ast.While):
            self.eval(stmt.test, env)
            body_env = self.exec_block(stmt.body, env.copy())
            return env.merge(body_env)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, None, env)
            return self.exec_block(stmt.body, env)
        if isinstance(stmt, ast.Try):
            env = self.exec_block(stmt.body, env)
            for handler in stmt.handlers:
                self.exec_block(handler.body, env.copy())
            env = self.exec_block(stmt.orelse, env)
            return self.exec_block(stmt.finalbody, env)
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            if isinstance(stmt, ast.Assert):
                self.eval(stmt.test, env)
            elif stmt.exc is not None:
                self.eval(stmt.exc, env)
            return env
        if isinstance(stmt, ast.Delete):
            for tgt in stmt.targets:
                self._bind(tgt, None, env)
            return env
        # Nested defs/classes analyse as their own functions; everything
        # else (pass, import, global, ...) carries no dataflow.
        return env

    def _bind(self, target: ast.expr, value, env: Env) -> None:
        if isinstance(target, ast.Name):
            env.set(target.id, value)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            items = (value.items if isinstance(value, TupleVal)
                     else [None] * len(target.elts))
            if len(items) != len(target.elts):
                items = [None] * len(target.elts)
            for sub, val in zip(target.elts, items):
                self._bind(sub, val, env)
            return
        if isinstance(target, ast.Subscript):
            # Writing into a slice: evaluate for checks, binds nothing.
            self.eval(target.value, env)
            return
        if isinstance(target, ast.Starred):
            self._bind(target.value, None, env)

    # -- expressions ---------------------------------------------------
    def eval(self, expr: ast.expr, env: Env):
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool) or not isinstance(
                    expr.value, int):
                return None
            return DimVal(str(expr.value))
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr, env)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(expr, env)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.BinOp):
            left = self.eval(expr.left, env)
            right = self.eval(expr.right, env)
            return self._binop_value(expr, left, right)
        if isinstance(expr, ast.UnaryOp):
            return self.eval(expr.operand, env)
        if isinstance(expr, (ast.Tuple, ast.List)):
            return TupleVal(tuple(self.eval(e, env) for e in expr.elts))
        if isinstance(expr, ast.Dict):
            for v in expr.values:
                if v is not None:
                    self.eval(v, env)
            return None
        if isinstance(expr, (ast.Compare, ast.BoolOp)):
            children = ([expr.left] + list(expr.comparators)
                        if isinstance(expr, ast.Compare) else expr.values)
            for child in children:
                self.eval(child, env)
            return None
        if isinstance(expr, ast.IfExp):
            self.eval(expr.test, env)
            a = self.eval(expr.body, env)
            b = self.eval(expr.orelse, env)
            return a if a == b else None
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            for gen in expr.generators:
                self.eval(gen.iter, env)
            return None
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value, env)
        return None

    # -- attribute reads -----------------------------------------------
    def _class_qual_of(self, expr: ast.expr, env: Env) -> str | None:
        val = self.eval(expr, env) if not isinstance(expr, ast.Name) \
            else env.get(expr.id)
        if isinstance(val, ObjVal):
            return val.class_qual
        return self.program.type_of_receiver(self.fn, expr)

    def _eval_attribute(self, expr: ast.Attribute, env: Env):
        base = self.eval(expr.value, env)
        if isinstance(base, ArrayVal):
            if expr.attr == "T":
                return base.with_(contig=VIEW, origin=expr.lineno)
            if expr.attr in ("dtype", "shape", "size", "nbytes"):
                return None
            return None
        cq = (base.class_qual if isinstance(base, ObjVal)
              else self.program.type_of_receiver(self.fn, expr.value))
        if cq is None:
            return None
        specs = self.index.classes.get(cq)
        if specs is not None:
            spec = specs.get(expr.attr)
            if spec is not None and spec.kind == "array":
                return self._from_spec(spec, expr.lineno)
            if expr.attr in self.index.class_dims.get(cq, ()):
                return DimVal(expr.attr)
        # Attribute of a known class that is itself a contracted object.
        cinfo = self.program.classes.get(cq)
        if cinfo is not None:
            sub = cinfo.attr_types.get(expr.attr)
            if sub is not None and sub in self.index.classes:
                return ObjVal(sub)
        return None

    # -- subscripts (slices are views; gathers check RV604) ------------
    def _eval_subscript(self, expr: ast.Subscript, env: Env):
        base = self.eval(expr.value, env)
        idx = expr.slice
        if not isinstance(base, ArrayVal):
            self.eval(idx, env)
            return None
        if isinstance(idx, ast.Slice):
            for part in (idx.lower, idx.upper, idx.step):
                if part is not None:
                    self.eval(part, env)
            return base.with_(shape=None, contig=VIEW, origin=expr.lineno)
        idx_val = self.eval(idx, env)
        if isinstance(idx_val, ArrayVal):
            self._check_gather(expr, base, idx_val)
            # Fancy indexing gathers into a fresh buffer.
            return ArrayVal(shape=idx_val.shape, dtype=base.dtype,
                            contig=CONTIG, contracted=base.contracted,
                            origin=expr.lineno)
        # Scalar element read.
        return DimVal(UNKNOWN) if base.dtype not in FLOAT_DTYPES else None

    def _check_gather(self, node: ast.AST, base: ArrayVal,
                      idx: ArrayVal) -> None:
        if idx.dtype == "int32" and base.dtype in ("int64", "uint64"):
            self.emit(
                "RV604", node,
                f"int32 index array gathers into a {base.dtype} "
                "CSR/key array: index widths must agree (int64) or the "
                "gather silently truncates past 2^31 entries")

    # -- calls ---------------------------------------------------------
    def _eval_call(self, call: ast.Call, env: Env):
        func = call.func
        # Evaluate keyword values for nested checks (args are evaluated
        # by the specific handlers below, which need the exprs).
        for kw in call.keywords:
            self.eval(kw.value, env)

        # Method-style transfers: astype / copy / sum / view-makers.
        if isinstance(func, ast.Attribute):
            recv = func.value
            if func.attr == "astype":
                return self._astype(call, recv, env)
            if func.attr in ("copy",):
                src = self.eval(recv, env)
                for a in call.args:
                    self.eval(a, env)
                if isinstance(src, ArrayVal):
                    return src.with_(contig=CONTIG, origin=call.lineno)
                return None
            if func.attr in ("sum", "min", "max", "mean", "prod"):
                self.eval(recv, env)
                for a in call.args:
                    self.eval(a, env)
                return None
            if func.attr == "create" and self._is_publish_receiver(recv):
                return self._check_publish(call, env)
            if (isinstance(recv, ast.Name) and recv.id in _NUMPY_NAMES):
                if func.attr in NUMPY_TRANSFER:
                    for a in call.args:
                        self.eval(a, env)
                    return NUMPY_TRANSFER[func.attr](call, _EvalView(
                        self, env))
                if func.attr in _CAST_CTORS:
                    return self._cast_ctor(call, _CAST_CTORS[func.attr],
                                           env)

        # Builtins that matter to the dim algebra.
        if isinstance(func, ast.Name):
            if func.id == "int" and len(call.args) == 1:
                inner = self.eval(call.args[0], env)
                if isinstance(inner, DimVal):
                    return inner
                return DimVal(self.dim(call.args[0], env))
            if func.id == "len" and len(call.args) == 1:
                target = self.eval(call.args[0], env)
                if isinstance(target, ArrayVal) and target.shape \
                        and len(target.shape) == 1:
                    return DimVal(target.shape[0])
                return DimVal(UNKNOWN)

        for a in call.args:
            self.eval(a, env)

        # Boundary-callee coverage (RV605) and contracted-call checks.
        leaf = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        callee = self._resolve_callee(call)
        if leaf in BOUNDARY_CALLEES:
            self._check_boundary(call, leaf, callee)
        if callee is not None:
            specs = self.index.functions.get(callee.qualname)
            if specs:
                self._check_contract_call(call, callee, specs, env)
                return self._returns_value(call, specs)
        return None

    def _is_publish_receiver(self, recv: ast.expr) -> bool:
        text = receiver_text(recv)
        return text is not None and text.split(".")[-1] == PUBLISH_RECEIVER

    def _resolve_callee(self, call: ast.Call) -> FunctionInfo | None:
        ref = self.program.resolve_call(self.fn, call)
        if ref.kind == "function":
            return self.program.functions.get(ref.target)
        return None

    def _astype(self, call: ast.Call, recv: ast.expr, env: Env):
        src = self.eval(recv, env)
        dtype = dtype_from_ast(call.args[0]) if call.args else (
            dtype_from_ast(next((kw.value for kw in call.keywords
                                 if kw.arg == "dtype"), None)))
        if (self.energy_path and isinstance(src, ArrayVal)
                and src.dtype == "float64" and dtype == "float32"):
            self.emit("RV602", call,
                      "float64 -> float32 downcast on an energy path "
                      "(astype): Born/E_pol values are float64 end to end")
        if isinstance(src, ArrayVal):
            return src.with_(dtype=dtype, contig=CONTIG,
                             origin=call.lineno)
        return ArrayVal(dtype=dtype, contig=CONTIG, origin=call.lineno)

    def _cast_ctor(self, call: ast.Call, dtype: str, env: Env):
        src = self.eval(call.args[0], env) if call.args else None
        if isinstance(src, ArrayVal):
            if (self.energy_path and src.dtype == "float64"
                    and dtype == "float32"):
                self.emit("RV602", call,
                          "float64 -> float32 downcast on an energy path "
                          "(np.float32 constructor)")
            return src.with_(dtype=dtype, contig=CONTIG,
                             origin=call.lineno)
        return None

    # -- arithmetic (RV602 promotion) ----------------------------------
    def _binop_value(self, node: ast.AST, left, right):
        if isinstance(left, ArrayVal) or isinstance(right, ArrayVal):
            ldt = left.dtype if isinstance(left, ArrayVal) else UNKNOWN
            rdt = right.dtype if isinstance(right, ArrayVal) else UNKNOWN
            if self.energy_path and {ldt, rdt} == FLOAT_DTYPES:
                self.emit(
                    "RV602", node,
                    "float32 operand silently promotes against float64 "
                    "on an energy path: the float32 side carries rounded "
                    "values into a float64 contract")
            shape = None
            contracted = False
            for side in (left, right):
                if isinstance(side, ArrayVal):
                    contracted = contracted or side.contracted
                    if side.shape is not None and shape is None:
                        shape = side.shape
                    elif side.shape is not None and shape != side.shape:
                        shape = None
            both = isinstance(left, ArrayVal) and isinstance(right, ArrayVal)
            return ArrayVal(
                shape=shape if (not both or (
                    isinstance(left, ArrayVal) and isinstance(right, ArrayVal)
                    and left.shape == right.shape)) else None,
                dtype=promote(ldt, rdt) if both else (ldt if ldt != UNKNOWN
                                                      else rdt),
                contig=CONTIG, contracted=contracted,
                origin=getattr(node, "lineno", 0))
        if isinstance(left, DimVal) or isinstance(right, DimVal):
            return DimVal(self._dim_binop(node, left, right))
        return None

    def _dim_binop(self, node: ast.AST, left, right) -> str:
        if not isinstance(node, (ast.BinOp, ast.AugAssign)):
            return UNKNOWN
        op = node.op
        lexpr = left.expr if isinstance(left, DimVal) else UNKNOWN
        rexpr = right.expr if isinstance(right, DimVal) else UNKNOWN
        if isinstance(op, (ast.Add, ast.Sub)):
            sign = 1 if isinstance(op, ast.Add) else -1
            if rexpr.lstrip("+-").isdigit():
                return dim_add(lexpr, sign * int(rexpr))
            if lexpr.lstrip("+-").isdigit() and isinstance(op, ast.Add):
                return dim_add(rexpr, int(lexpr))
        return UNKNOWN

    # -- the dim oracle ------------------------------------------------
    def dim(self, expr: ast.expr, env: Env) -> str:
        """Symbolic dimension denoted by an integer expression."""
        val = self.eval(expr, env)
        if isinstance(val, DimVal):
            return val.expr
        return UNKNOWN

    # -- contract-call checking (RV601/RV602/RV603) --------------------
    def _callee_params(self, callee: FunctionInfo) -> list[str]:
        args = callee.node.args
        names = [a.arg for a in (*args.posonlyargs, *args.args)]
        if callee.cls is not None and not callee.is_staticmethod and names:
            names = names[1:]
        return names + [a.arg for a in args.kwonlyargs]

    def _check_contract_call(self, call: ast.Call, callee: FunctionInfo,
                             specs: dict[str, ContractSpec],
                             env: Env) -> None:
        positional = self._callee_params(callee)
        mapped: list[tuple[str, ast.expr]] = []
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            if i < len(positional):
                mapped.append((positional[i], arg))
        for kw in call.keywords:
            if kw.arg is not None:
                mapped.append((kw.arg, kw.value))
        for name, expr in mapped:
            spec = specs.get(name)
            if spec is None or spec.kind != "array":
                continue
            got = self.eval(expr, env)
            if not isinstance(got, ArrayVal):
                continue
            self._check_against_spec(expr, callee.name, name, spec, got)

    def _check_against_spec(self, node: ast.AST, callee_name: str,
                            arg_name: str, spec: ContractSpec,
                            got: ArrayVal) -> None:
        want = spec.shape
        if got.shape is not None:
            if len(got.shape) != len(want):
                self.emit(
                    "RV601", node,
                    f"rank mismatch for {callee_name}({arg_name}=...): "
                    f"contract wants {shape_str(want)}, caller delivers "
                    f"{shape_str(got.shape)}")
            elif not all(dims_match(w, g)
                         for w, g in zip(want, got.shape)):
                self.emit(
                    "RV601", node,
                    f"shape mismatch for {callee_name}({arg_name}=...): "
                    f"contract wants {shape_str(want)}, caller delivers "
                    f"{shape_str(got.shape)}")
        if (spec.dtype != "any" and got.dtype != UNKNOWN
                and got.dtype != spec.dtype):
            self.emit(
                "RV602", node,
                f"dtype drift for {callee_name}({arg_name}=...): contract "
                f"wants {spec.dtype}, caller delivers {got.dtype}")
        if spec.contiguous and got.contig == VIEW:
            self.emit(
                "RV603", node,
                f"view-aliased array for {callee_name}({arg_name}=...): "
                "the contract demands a C-contiguous owning buffer")

    def _returns_value(self, call: ast.Call,
                       specs: dict[str, ContractSpec]):
        spec = specs.get("returns")
        if spec is None:
            return None
        if spec.kind == "dims":
            vals = tuple(DimVal(name) for name in spec.dims)
            return vals[0] if len(vals) == 1 else TupleVal(vals)
        if spec.kind == "array":
            return self._from_spec(spec, call.lineno)
        return None

    # -- boundary checks (RV603/RV605) ---------------------------------
    def _check_boundary(self, call: ast.Call, leaf: str,
                        callee: FunctionInfo | None) -> None:
        if callee is None:
            from ..model import extract
            callee = extract.find_function(self.program, "." + leaf)
        if callee is None:
            return  # not defined in the analysed tree
        if callee.qualname not in self.index.functions:
            self.emit(
                "RV605", call,
                f"arrays cross the worker/donee boundary through "
                f"{leaf}(), which carries no @array_contract")

    def _check_publish(self, call: ast.Call, env: Env):
        specs = self.index.functions.get(self.fn.qualname, {})
        arg = call.args[0] if call.args else None
        if isinstance(arg, ast.Dict):
            for k_expr, v_expr in zip(arg.keys, arg.values):
                if v_expr is None:
                    continue
                val = self.eval(v_expr, env)
                if isinstance(val, ArrayVal) and val.contig == VIEW:
                    self.emit(
                        "RV603", v_expr,
                        "view-aliased array published to "
                        "SharedArrayBundle: create() would copy it into "
                        "the segment, so later writes through the "
                        "original never reach the shared memory")
                if isinstance(k_expr, ast.Constant) and isinstance(
                        k_expr.value, str):
                    if not self._covered(k_expr.value, specs):
                        self.emit(
                            "RV605", k_expr,
                            f"array {k_expr.value!r} published to "
                            "SharedArrayBundle without an @array_contract "
                            "covering it (stamp the publishing function)")
                elif not specs:
                    self.emit(
                        "RV605", k_expr if k_expr is not None else call,
                        "dynamically-keyed SharedArrayBundle publication "
                        "in a function with no @array_contract")
        elif isinstance(arg, ast.Call):
            producer = self._resolve_callee(arg)
            if producer is not None and \
                    producer.qualname not in self.index.functions:
                self.emit(
                    "RV605", arg,
                    f"SharedArrayBundle payload produced by "
                    f"{producer.name}(), which carries no @array_contract")
        elif arg is not None:
            val = self.eval(arg, env)
            if isinstance(val, ArrayVal) and val.contig == VIEW:
                self.emit("RV603", arg,
                          "view-aliased array published to "
                          "SharedArrayBundle")
            if not specs:
                self.emit(
                    "RV605", call,
                    "SharedArrayBundle publication in a function with no "
                    "@array_contract covering its payload")
        return None

    @staticmethod
    def _covered(key: str, specs: dict[str, ContractSpec]) -> bool:
        if key in specs:
            return True
        return any(spec.kind == "plan" and key.startswith(name + "_")
                   for name, spec in specs.items())


class _EvalView:
    """The evaluator facade handed to transfer functions."""

    def __init__(self, interp: FlowInterpreter, env: Env) -> None:
        self._interp = interp
        self._env = env

    def value(self, expr: ast.expr):
        return self._interp.eval(expr, self._env)

    def dim(self, expr: ast.expr) -> str:
        return self._interp.dim(expr, self._env)

    @staticmethod
    def dim_minus_one(dim: str) -> str:
        return dim_add(dim, -1)
