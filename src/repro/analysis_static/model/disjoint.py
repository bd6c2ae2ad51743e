"""Symbolic slice-disjointness proofs (RV501--RV504).

The row-range pipeline (sliced, batched and donated requests alike) is
race-free because three facts compose:

1. **row chain** -- ``segment_by_weight`` (and its zero-total fallback
   ``segment_range``) emits bounds ``(s_0, e_0), (s_1, e_1), ...`` with
   ``s_0 = 0``, ``s_{k+1} = e_k`` and a final cut forced to ``n``: a
   *chained fold* whose segments are pairwise disjoint and exactly cover
   ``[0, n)`` for arbitrary weights and part counts.  ``slice_bounds``
   only drops *empty* segments, which preserves both properties.
2. **span image** -- every writer of flat Born values takes the span
   ``[A[lo], A[hi])`` of its row range from one helper
   (``plan/executor.py::born_spans``), where ``A`` is one shared offset
   array (``far_start`` / ``near_point_start``) indexed at exactly the
   chain endpoints.  The image of a chain through one fixed array is a
   chain, so the write spans are pairwise disjoint and exactly cover
   ``[A[0], A[n])``.
3. **monotone axiom** -- step 2 needs ``A`` nondecreasing with
   ``A[0] == 0``; that is precisely what
   ``InteractionPlan.validate()`` rejects at runtime, so the axiom is a
   checked precondition, not a hope.
4. **key-range cover** (RV504) -- key-range ownership (datadist's
   ``key-range`` halos, loadbalance's KEY_RANGE division) cuts rows
   along coarsened SFC keys.  It is a chain for the same reason
   ``slice_bounds`` is: ``segment_by_key_range`` re-folds a verified
   ``segment_by_weight`` chain with forward key snapping (``end =
   max(snap, start)`` keeps ends monotone, the final cut is re-forced to
   ``n``), so its cuts are pairwise disjoint and exactly cover
   ``[0, nrows)``.

Donation needs no lemma of its own: it cuts with ``slice_bounds`` like
the fleets (the protocol model's ``donation-bounds`` code fact checks
that), so lemmas 1--3 cover it, and the RV406 model invariant ("every
plan row donated exactly once") exercises the same claim dynamically.

This module verifies each fact *structurally* on the AST -- the loop
really appends ``(start, end)`` and rebinds ``start = end``, the span
endpoints really are ``int(A[lo])``/``int(A[hi])`` with no arithmetic in
between, the validator really checks ``np.diff(start) < 0`` -- and emits
an RV5xx finding naming the broken step otherwise.  An off-by-one
mutation (``A[hi] + 1``, ``cuts[-1] = n - 1``) breaks the structure and
is reported with the failed proof step.  The runtime race detector
(``REPRO_CHECKS=1``) cross-validates the same claim dynamically on real
slice executions; tests assert both agree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..verify.program import FunctionInfo, Program
from ..verify.report import CheckContext
from . import extract

#: Offset arrays whose spans the sliced Born kernels write.
SPAN_ARRAYS = ("far_start", "near_point_start")


@dataclass(frozen=True)
class ProofStep:
    """One verified (or refuted) lemma of the disjointness proof."""

    check: str  # RV id this step reports under when it fails
    name: str
    anchor: str  # qualname suffix of the verified function
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# Lemma 1: the row chain
# ---------------------------------------------------------------------------

def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _chain_loop(fn: FunctionInfo) -> tuple[bool, str]:
    """Verify the fold shape: ``start = 0`` before a loop that appends
    ``(start, X)`` and immediately rebinds ``start`` to ``X`` (or
    ``start += size`` after appending ``(start, start + size)``)."""
    init_zero = any(
        isinstance(node, ast.Assign)
        and any(_is_name(t, "start") for t in node.targets)
        and isinstance(node.value, ast.Constant) and node.value.value == 0
        for node in ast.walk(fn.node))
    if not init_zero:
        return False, "no `start = 0` chain origin"
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.For):
            continue
        append_second: str | None = None  # expr text of the appended end
        appended_plus: str | None = None  # `start + <var>` increment form
        rebound = False
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "append"
                        and len(sub.args) == 1
                        and isinstance(sub.args[0], ast.Tuple)
                        and len(sub.args[0].elts) == 2
                        and _is_name(sub.args[0].elts[0], "start")):
                    end = sub.args[0].elts[1]
                    if isinstance(end, ast.Name):
                        append_second = end.id
                    elif (isinstance(end, ast.BinOp)
                          and isinstance(end.op, ast.Add)
                          and _is_name(end.left, "start")
                          and isinstance(end.right, ast.Name)):
                        appended_plus = end.right.id
            if (isinstance(stmt, ast.Assign)
                    and any(_is_name(t, "start") for t in stmt.targets)
                    and append_second is not None
                    and _is_name(stmt.value, append_second)):
                rebound = True
            if (isinstance(stmt, ast.AugAssign)
                    and isinstance(stmt.op, ast.Add)
                    and _is_name(stmt.target, "start")
                    and appended_plus is not None
                    and _is_name(stmt.value, appended_plus)):
                rebound = True
        if rebound:
            return True, ""
    return False, "no loop appending (start, end) then rebinding start = end"


def verify_segment_range(fn: FunctionInfo) -> tuple[bool, str]:
    """Chain + coverage for the equal-split fallback: sizes come from
    ``divmod(n, nparts)`` (whose identity ``base * nparts + extra == n``
    gives exact coverage) and the append/rebind fold gives the chain."""
    has_divmod = any(
        isinstance(node, ast.Call) and _is_name(node.func, "divmod")
        for node in ast.walk(fn.node))
    if not has_divmod:
        return False, "sizes are not the divmod(n, nparts) identity"
    return _chain_loop(fn)


def verify_segment_by_weight(fn: FunctionInfo) -> tuple[bool, str]:
    """Chain + coverage for the weighted split: cuts are clamped to
    ``n``, the last cut is forced to ``n`` (coverage), the fold appends
    ``(start, end)`` with ``end = max(int(c), start)`` and rebinds
    ``start = end`` (chain + monotone ends), and the zero-weight path
    delegates to the separately-verified ``segment_range``."""
    forced_last = False
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Assign):
            continue
        for t in node.targets:
            if (isinstance(t, ast.Subscript)
                    and isinstance(t.slice, ast.UnaryOp)
                    and isinstance(t.slice.op, ast.USub)
                    and isinstance(t.slice.operand, ast.Constant)
                    and t.slice.operand.value == 1
                    and _is_name(node.value, "n")):
                forced_last = True
    if not forced_last:
        return False, "last cut is not forced to n (`cuts[-1] = n`): " \
            "the final segment need not end at n"
    clamped = any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "minimum"
        for node in ast.walk(fn.node))
    if not clamped:
        return False, "cuts are not clamped to n (`np.minimum(cuts, n)`)"
    fallback = any(
        isinstance(node, ast.Call) and (
            _is_name(node.func, "segment_range")
            or (isinstance(node.func, ast.Attribute)
                and node.func.attr == "segment_range"))
        for node in ast.walk(fn.node))
    if not fallback:
        return False, "zero-total path does not delegate to segment_range"
    monotone_end = any(
        isinstance(node, ast.Assign)
        and any(_is_name(t, "end") for t in node.targets)
        and isinstance(node.value, ast.Call)
        and _is_name(node.value.func, "max")
        and any(_is_name(a, "start") for a in node.value.args)
        for node in ast.walk(fn.node))
    if not monotone_end:
        return False, "segment end is not clamped below by start " \
            "(`end = max(int(c), start)`)"
    return _chain_loop(fn)


def verify_slice_bounds(fn: FunctionInfo) -> tuple[bool, str]:
    """``slice_bounds`` may only *filter empty* segments out of the
    verified chain -- a ``hi > lo`` comprehension guard over a
    ``segment_by_weight`` result.  Anything else (reordering, trimming,
    widening) would break disjointness or coverage."""
    delegates = any(
        isinstance(node, ast.Call) and (
            _is_name(node.func, "segment_by_weight")
            or (isinstance(node.func, ast.Attribute)
                and node.func.attr == "segment_by_weight"))
        for node in ast.walk(fn.node))
    if not delegates:
        return False, "bounds do not come from segment_by_weight"
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.ListComp):
            continue
        for gen in node.generators:
            for cond in gen.ifs:
                if (isinstance(cond, ast.Compare)
                        and len(cond.ops) == 1
                        and isinstance(cond.ops[0], ast.Gt)
                        and isinstance(cond.left, ast.Name)
                        and isinstance(cond.comparators[0], ast.Name)):
                    return True, ""
        # A comprehension with no guard passes the chain through intact.
        if not any(gen.ifs for gen in node.generators):
            return True, ""
    return False, "no empty-segment filter (`if hi > lo`) or identity " \
        "comprehension over the chain"


# ---------------------------------------------------------------------------
# Lemma 2: span image through the shared offset arrays
# ---------------------------------------------------------------------------

def _int_subscript(value: ast.expr) -> ast.Subscript | None:
    """``int(A[i])`` or ``A[i]`` -> the subscript; None for anything
    else (arithmetic around the offset read breaks the chain image)."""
    if (isinstance(value, ast.Call) and _is_name(value.func, "int")
            and len(value.args) == 1 and not value.keywords):
        value = value.args[0]
    return value if isinstance(value, ast.Subscript) else None


def verify_span_pairing(fn: FunctionInfo) -> tuple[bool, str]:
    """Every span ``slice(v0, v1)`` in ``fn`` must have its bounds
    assigned as ``v0 = int(A[lo])`` / ``v1 = int(A[hi])`` from the same
    offset array ``A`` in :data:`SPAN_ARRAYS`, with one shared ``(lo,
    hi)`` index pair across all arrays -- the chain-image shape.  Any
    arithmetic on an endpoint or a mixed index pair refutes the proof.
    """
    # var -> (array attr, index name), from single- and tuple-assigns.
    spans: dict[str, tuple[str, str]] = {}

    def record(target: ast.expr, value: ast.expr) -> bool:
        """True if `target = value` binds a span endpoint; False when the
        value touches an offset array in any non-canonical way."""
        sub = _int_subscript(value)
        if sub is None:
            # Reject arithmetic like `int(A[hi]) + 1` on span variables.
            touched = any(
                isinstance(n, ast.Attribute) and n.attr in SPAN_ARRAYS
                for n in ast.walk(value))
            return not touched
        if not (isinstance(sub.value, ast.Attribute)
                and sub.value.attr in SPAN_ARRAYS):
            return True  # subscript of something else; not our lemma
        if not isinstance(sub.slice, ast.Name):
            return False  # offset array indexed by an expression
        if isinstance(target, ast.Name):
            spans[target.id] = (sub.value.attr, sub.slice.id)
            return True
        return False

    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        tgt, val = node.targets[0], node.value
        pairs: list[tuple[ast.expr, ast.expr]]
        if (isinstance(tgt, ast.Tuple) and isinstance(val, ast.Tuple)
                and len(tgt.elts) == len(val.elts)):
            pairs = list(zip(tgt.elts, val.elts))
        else:
            pairs = [(tgt, val)]
        for t, v in pairs:
            if not record(t, v):
                return False, (
                    "span endpoint is not a plain `int(A[row])` read of "
                    f"an offset array at line {node.lineno}")

    # Index pair per array: first index is the range lower bound, second
    # the upper; every array must agree on the same (lo, hi) names.
    by_array: dict[str, list[str]] = {}
    for var in spans:
        arr, idx = spans[var]
        by_array.setdefault(arr, []).append(idx)
    if not by_array:
        return False, "no offset-array span endpoints found"
    index_pairs = {tuple(v) for v in by_array.values()}
    if len(index_pairs) != 1 or len(next(iter(index_pairs))) != 2:
        return False, (f"offset arrays use mismatched row-index pairs: "
                       f"{sorted(by_array.items())}")
    lo_name, hi_name = next(iter(index_pairs))
    if lo_name == hi_name:
        return False, "span endpoints index the same row bound"

    # Every span built from recorded endpoints must pair (lo-var,
    # hi-var) of one array, in that order.
    used = False
    for node in ast.walk(fn.node):
        if not (isinstance(node, ast.Call) and _is_name(node.func, "slice")
                and len(node.args) == 2):
            continue
        lower, upper = node.args
        if not (isinstance(lower, ast.Name) and isinstance(upper, ast.Name)):
            if any(isinstance(n, ast.Name) and n.id in spans
                   for bound in (lower, upper) for n in ast.walk(bound)):
                return False, (f"span bound at line {node.lineno} is "
                               "arithmetic on a span endpoint")
            continue
        in_spans = [n.id in spans for n in (lower, upper)]
        if not any(in_spans):
            continue
        if not all(in_spans):
            return False, (f"slice [{lower.id}:{upper.id}] mixes a span "
                           "endpoint with a foreign bound")
        arr0, idx0 = spans[lower.id]
        arr1, idx1 = spans[upper.id]
        if arr0 != arr1 or idx0 != lo_name or idx1 != hi_name:
            return False, (f"slice [{lower.id}:{upper.id}] does not pair "
                           f"A[{lo_name}]:A[{hi_name}] of one array "
                           f"(got {arr0}[{idx0}] : {arr1}[{idx1}])")
        used = True
    if not used:
        return False, "span endpoints are computed but never slice a view"
    return True, ""


# ---------------------------------------------------------------------------
# Lemma 4 (RV504): the key-range cover
# ---------------------------------------------------------------------------

def _calls(fn: FunctionInfo, callee: str) -> list[ast.Call]:
    """All calls to ``callee`` by last name (``f(...)`` or ``m.f(...)``)."""
    return [node for node in ast.walk(fn.node)
            if isinstance(node, ast.Call)
            and (_is_name(node.func, callee)
                 or (isinstance(node.func, ast.Attribute)
                     and node.func.attr == callee))]


def verify_segment_by_key_range(fn: FunctionInfo) -> tuple[bool, str]:
    """The key-interval cutter must preserve the chain it re-folds: a
    non-decreasing key precondition, forward snapping via
    ``np.searchsorted(..., side="right")``, ends clamped below by
    ``start`` (monotone under snapping), the final cut re-forced to
    ``n`` (coverage), on top of a ``segment_by_weight`` delegation and
    the append/rebind fold."""
    if not _calls(fn, "segment_by_weight"):
        return False, "raw cuts do not come from segment_by_weight"
    sorted_guard = any(
        isinstance(node, ast.Compare) and len(node.ops) == 1
        and isinstance(node.ops[0], ast.Lt)
        and isinstance(node.left, ast.Subscript)
        and isinstance(node.comparators[0], ast.Subscript)
        for node in ast.walk(fn.node))
    if not sorted_guard:
        return False, "keys are not checked non-decreasing " \
            "(`k[1:] < k[:-1]` guard missing): snapping needs sorted keys"
    snap_forward = any(
        any(kw.arg == "side" and isinstance(kw.value, ast.Constant)
            and kw.value.value == "right" for kw in call.keywords)
        for call in _calls(fn, "searchsorted"))
    if not snap_forward:
        return False, "cuts are not snapped forward to the next key " \
            "change (`np.searchsorted(..., side=\"right\")` missing)"
    monotone_end = any(
        isinstance(node, ast.Assign)
        and any(_is_name(t, "end") for t in node.targets)
        and isinstance(node.value, ast.Call)
        and _is_name(node.value.func, "max")
        and any(_is_name(a, "start") for a in node.value.args)
        for node in ast.walk(fn.node))
    if not monotone_end:
        return False, "snapped end is not clamped below by start " \
            "(`end = max(end, start)`): backward snaps would overlap"
    forced_last = any(
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Subscript)
                and isinstance(t.slice, ast.UnaryOp)
                and isinstance(t.slice.op, ast.USub)
                and isinstance(t.slice.operand, ast.Constant)
                and t.slice.operand.value == 1
                for t in node.targets)
        and isinstance(node.value, ast.Tuple)
        and len(node.value.elts) == 2
        and _is_name(node.value.elts[1], "n")
        for node in ast.walk(fn.node))
    if not forced_last:
        return False, "final cut is not re-forced to n " \
            "(`bounds[-1] = (bounds[-1][0], n)`): snapping the last " \
            "interior cut past n-1 would truncate coverage"
    return _chain_loop(fn)


# ---------------------------------------------------------------------------
# Lemma 3: the monotone-CSR axiom
# ---------------------------------------------------------------------------

def verify_monotone_axiom(fn: FunctionInfo) -> tuple[bool, str]:
    """``InteractionPlan.validate`` must reject non-monotone offset
    arrays (``np.diff(start) < 0``) anchored at zero (``start[0] != 0``)
    -- the runtime-checked precondition lemma 2 stands on."""
    saw_diff = False
    saw_zero = False
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            left, op, right = node.left, node.ops[0], node.comparators[0]
            if (isinstance(op, ast.Lt)
                    and isinstance(left, ast.Call)
                    and isinstance(left.func, ast.Attribute)
                    and left.func.attr == "diff"):
                saw_diff = True
            if (isinstance(op, (ast.NotEq, ast.Eq))
                    and isinstance(left, ast.Subscript)
                    and isinstance(left.slice, ast.Constant)
                    and left.slice.value == 0
                    and isinstance(right, ast.Constant)
                    and right.value == 0):
                saw_zero = True
    if not saw_diff:
        return False, "validate() no longer rejects decreasing offsets " \
            "(np.diff(start) < 0 check missing)"
    if not saw_zero:
        return False, "validate() no longer anchors offsets at zero " \
            "(start[0] != 0 check missing)"
    return True, ""


# ---------------------------------------------------------------------------
# The prover
# ---------------------------------------------------------------------------

#: (RV id, lemma name, anchor suffix, verifier)
_LEMMAS = (
    ("RV501", "chain:segment_range", ".segment_range",
     verify_segment_range),
    ("RV501", "chain:segment_by_weight", ".segment_by_weight",
     verify_segment_by_weight),
    ("RV501", "chain:slice_bounds", ".slice_bounds", verify_slice_bounds),
    ("RV502", "span:born-spans", ".born_spans", verify_span_pairing),
    ("RV503", "axiom:monotone-csr", ".InteractionPlan.validate",
     verify_monotone_axiom),
    ("RV504", "key-range:chain", ".segment_by_key_range",
     verify_segment_by_key_range),
)


def prove(program: Program) -> list[ProofStep]:
    """Run every applicable lemma; absent anchors are skipped (fixture
    trees), present anchors yield a pass/fail :class:`ProofStep`."""
    steps: list[ProofStep] = []
    for check, name, anchor, verifier in _LEMMAS:
        fn = extract.find_function(program, anchor)
        if fn is None:
            continue
        ok, detail = verifier(fn)
        steps.append(ProofStep(check=check, name=name, anchor=anchor,
                               ok=ok, detail=detail))
    return steps


class DisjointProver:
    """repro-verify checker facade over :func:`prove` (RV501--RV504)."""

    def __init__(self, program: Program) -> None:
        self.program = program

    def run_checks(self, ctx: CheckContext) -> None:
        for step in prove(self.program):
            if step.ok:
                continue
            fn = extract.find_function(self.program, step.anchor)
            assert fn is not None  # prove() only emits for present anchors
            mod = self.program.modules[fn.modname]
            ctx.emit(step.check, str(mod.path), fn.lineno, 1, fn.qualname,
                     f"slice-disjointness proof step {step.name!r} "
                     f"refuted: {step.detail}")
