"""AST extraction: code facts, annotations, and config defaults.

The protocol models in :mod:`.protocols` are hand-written labelled
transition systems, but they are *anchored* to the implementation by
**code facts**: small AST-checkable properties of the real source ("the
``except SliceError`` handler rejects the future", "``scratch.close()``
precedes ``scratch.unlink()`` in the finally block").  Each fact backs
one model transition's guarantee.  When a fact stops holding -- someone
edits the code -- the conformance check reports it (RV405) *and* the
model is rebuilt without that guarantee, so re-exploration produces the
concrete interleaving the regression makes possible (RV401--RV404 with
the counterexample trace).

Everything here works on :class:`~..verify.program.Program`'s AST model
and never imports the analysed code (same rule as the rest of
repro-verify).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable

from ..verify.program import FunctionInfo, Program

#: Last-component decorator names recognised as protocol-event marks.
_MARK_NAMES = ("protocol_event",)


def find_function(program: Program, suffix: str) -> FunctionInfo | None:
    """The unique function whose qualname ends with ``suffix``.

    Suffix matching (``.EpolServer.submit``) instead of exact qualnames
    keeps anchors working when a test copies a module into a tmp dir
    (its modname becomes the file stem).  Ambiguity resolves to the
    lexicographically first match -- deterministic, and unambiguous on
    the real tree.
    """
    dotted = suffix if suffix.startswith(".") else "." + suffix
    hits = sorted(q for q in program.functions
                  if q.endswith(dotted) or q == suffix.lstrip("."))
    return program.functions[hits[0]] if hits else None


# ---------------------------------------------------------------------------
# Individual code-fact predicates
# ---------------------------------------------------------------------------

def _call_attr(node: ast.AST) -> str | None:
    """``x.y(...)`` -> ``"y"``; None otherwise."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _handler_matches(handler: ast.ExceptHandler, exc_name: str) -> bool:
    t = handler.type
    names: list[ast.expr] = []
    if t is None:
        return False
    names = list(t.elts) if isinstance(t, ast.Tuple) else [t]
    for n in names:
        last = None
        if isinstance(n, ast.Name):
            last = n.id
        elif isinstance(n, ast.Attribute):
            last = n.attr
        if last == exc_name:
            return True
    return False


def handler_calls(fn: FunctionInfo, exc_name: str, method: str) -> bool:
    """Does some ``except <exc_name>`` handler in ``fn`` call
    ``<recv>.<method>(...)``?  The fact behind "a slice failure rejects
    the future" and "a fleet failure rejects the batch"."""
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _handler_matches(node, exc_name):
            continue
        for inner in node.body:
            for sub in ast.walk(inner):
                if _call_attr(sub) == method:
                    return True
    return False


def close_precedes_unlink_in_finally(fn: FunctionInfo) -> bool:
    """In every ``finally`` block of ``fn`` that unlinks a segment, a
    ``close()`` call on the same receiver comes first.

    The PR-5 typestate pass checks ordering *along resolved call
    chains*; this is the belt-and-braces local fact the shm lifecycle
    model's ``published -> closed -> unlinked`` path is anchored to.
    """
    from ..verify.program import receiver_text

    saw_unlink = False
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        closed: set[str] = set()
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                attr = _call_attr(sub)
                if attr not in ("close", "unlink"):
                    continue
                assert isinstance(sub, ast.Call)
                assert isinstance(sub.func, ast.Attribute)
                recv = receiver_text(sub.func.value) or "<expr>"
                if attr == "close":
                    closed.add(recv)
                else:
                    saw_unlink = True
                    if recv not in closed:
                        return False
    return saw_unlink


def has_admission_guard(fn: FunctionInfo, *, capacity_attr: str,
                        reject_exc: str) -> bool:
    """Does ``fn`` compare against the capacity attribute and raise the
    rejection error?  The fact behind the queue-occupancy bound."""
    saw_cap = False
    saw_raise = False
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Attribute) and node.attr == capacity_attr:
            saw_cap = True
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name):
                name = exc.id
            elif isinstance(exc, ast.Attribute):
                name = exc.attr
            if name == reject_exc:
                saw_raise = True
    return saw_cap and saw_raise


def calls_method(fn: FunctionInfo, method: str) -> bool:
    """Does ``fn`` call ``<anything>.<method>(...)`` somewhere?"""
    return any(_call_attr(node) == method for node in ast.walk(fn.node))


def reads_attr(fn: FunctionInfo, attr: str) -> bool:
    """Does ``fn`` mention attribute ``attr`` at all?"""
    return any(isinstance(node, ast.Attribute) and node.attr == attr
               for node in ast.walk(fn.node))


def calls_name(fn: FunctionInfo, name: str) -> bool:
    """Does ``fn`` call plain ``name(...)`` (an ``ast.Name`` callee --
    module-level functions, unlike :func:`calls_method`'s attributes)?"""
    return any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name)
               and node.func.id == name
               for node in ast.walk(fn.node))


def raises(fn: FunctionInfo, exc_name: str) -> bool:
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = exc.id if isinstance(exc, ast.Name) else (
                exc.attr if isinstance(exc, ast.Attribute) else None)
            if name == exc_name:
                return True
    return False


# ---------------------------------------------------------------------------
# Decorator scan (static side of @protocol_event)
# ---------------------------------------------------------------------------

def _parse_mark(deco: ast.expr) -> tuple[str, str] | None:
    if not isinstance(deco, ast.Call):
        return None
    func = deco.func
    last = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None)
    if last not in _MARK_NAMES:
        return None
    lits = [a.value for a in deco.args
            if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    if len(lits) != 2:
        return ("<malformed>", "<malformed>")
    return (lits[0], lits[1])


def scan_protocol_marks(
    program: Program,
) -> dict[tuple[str, str], list[FunctionInfo]]:
    """Every ``@protocol_event(protocol, event)`` annotation in the
    analysed tree, keyed by ``(protocol, event)``."""
    out: dict[tuple[str, str], list[FunctionInfo]] = {}
    for qual in sorted(program.functions):
        fn = program.functions[qual]
        for deco in fn.node.decorator_list:
            mark = _parse_mark(deco)
            if mark is not None:
                out.setdefault(mark, []).append(fn)
    return out


# ---------------------------------------------------------------------------
# Config defaults (the "one source of truth" satellite)
# ---------------------------------------------------------------------------

def dataclass_defaults(program: Program, class_suffix: str) -> dict[str, object]:
    """Literal field defaults of a dataclass, read from the AST.

    Backs the model checker's liveness bounds: the scheduler model
    requires ``ServeConfig`` to *name* its timeout fields
    (``result_timeout_seconds``, ``stop_join_seconds``) so the model and
    the implementation share one source of truth, without importing the
    code."""
    dotted = class_suffix if class_suffix.startswith(".") else "." + class_suffix
    hits = sorted(q for q in program.classes
                  if q.endswith(dotted) or q == class_suffix.lstrip("."))
    if not hits:
        return {}
    cls = program.classes[hits[0]]
    out: dict[str, object] = {}
    for stmt in cls.node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name) or stmt.value is None:
            continue
        try:
            out[stmt.target.id] = ast.literal_eval(stmt.value)
        except ValueError:
            continue
    return out


# ---------------------------------------------------------------------------
# The fact record protocols.py registers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodeFact:
    """One AST-checkable guarantee backing one model transition.

    ``weakens`` names the model feature switched off when the fact fails
    (the :mod:`.protocols` builders understand the names); the rebuilt
    model then exhibits the regression as a counterexample trace.
    """

    name: str
    anchor: str  # qualname suffix of the implementing function
    describe: str  # RV405 message when the fact fails
    check: Callable[[Program, FunctionInfo], bool]
    weakens: str  # weakening switch understood by the model builder
