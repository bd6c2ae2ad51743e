"""The ``@array_contract`` trust boundary for repro-flow.

A contract states, per named array (a parameter, a published shared-
memory payload entry, or a dataclass field), the *symbolic* shape, the
exact dtype, and the contiguity status every caller must deliver.  Like
``@declares_effects`` (effects) and ``@protocol_event`` (protocols) the
decorator is a runtime no-op apart from eager spec validation -- a typo
fails the first import, not the analysis -- and the static side
(:mod:`.interp`) reads the same specs from the AST without importing
the analysed code.

Spec grammar (one string per array name)::

    "(dim, dim, ...) dtype [flag]"

* ``dim`` -- a symbolic plan dimension (``nrows``, ``nnz_far``,
  ``npoints``, ...), optionally with an integer offset (``nrows+1``),
  a plain integer (``3``), or ``?`` (statically unknown: matches any).
* ``dtype`` -- one of ``bool int32 int64 uint64 float32 float64``, or
  ``any``.
* ``flag`` -- ``C`` (must be C-contiguous and own its buffer; the
  default) or ``view-ok`` (slices/views are acceptable here).

Two special forms::

    returns="dims: nnz_far, nnz_near"

declares that the function returns a tuple of Python ints *binding*
those dimension symbols at the call site (``far_total, near_total =
f(plan)`` makes ``np.zeros(far_total)`` an ``(nnz_far,)`` array to the
interpreter), and::

    plan_born="plan"

declares that every :class:`~repro.plan.schema.InteractionPlan` array
field is published under this key as a ``<key>_<field>`` prefix family
(the shared-memory publication shape).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, TypeVar

#: Attribute stamped on decorated callables/classes.
CONTRACT_ATTR = "__array_contracts__"

#: Dtypes the lattice knows (see :mod:`.domain` for promotion).
DTYPE_NAMES = frozenset({
    "bool", "int32", "int64", "uint64", "float32", "float64", "any",
})

#: Decorator last-component names the static scan recognises.
MARK_NAMES = ("array_contract",)

_SPEC_RE = re.compile(
    r"^\(\s*(?P<dims>[^()]*?)\s*,?\s*\)\s+(?P<dtype>\w+)"
    r"(?:\s+(?P<flag>C|view-ok))?$")
_DIM_RE = re.compile(r"^(\?|\d+|[A-Za-z_][A-Za-z0-9_]*(?:[+-]\d+)?)$")
_DIMS_FORM_RE = re.compile(r"^dims:\s*(?P<names>[A-Za-z0-9_,\s]+)$")

_F = TypeVar("_F")


@dataclass(frozen=True)
class ContractSpec:
    """One parsed contract entry.

    ``kind`` is ``"array"`` (shape/dtype/contiguity), ``"dims"`` (a
    returns-spec binding dimension symbols), or ``"plan"`` (the
    InteractionPlan field family under a publication prefix).
    """

    kind: str
    shape: tuple[str, ...] = ()
    dtype: str = "any"
    contiguous: bool = True
    dims: tuple[str, ...] = field(default=())

    def render(self) -> str:
        if self.kind == "dims":
            return "dims: " + ", ".join(self.dims)
        if self.kind == "plan":
            return "plan"
        flag = "C" if self.contiguous else "view-ok"
        return f"({', '.join(self.shape)},) {self.dtype} {flag}"


def canon_dim(text: str) -> str:
    """Canonical form of one symbolic dimension (whitespace-free)."""
    return re.sub(r"\s+", "", text)


def dims_match(want: str, got: str) -> bool:
    """Whether a delivered dimension satisfies a contract dimension.

    ``?`` on either side matches anything (statically unknown never
    *refutes* a contract -- repro-flow reports only definite evidence).
    """
    if want == "?" or got == "?":
        return True
    return canon_dim(want) == canon_dim(got)


def parse_spec(text: str) -> ContractSpec:
    """Parse one spec string; raises :class:`ValueError` on malformed
    input (the runtime decorator calls this at import time)."""
    if not isinstance(text, str):
        raise ValueError(f"array contract spec must be a string, got "
                         f"{type(text).__name__}")
    stripped = text.strip()
    if stripped == "plan":
        return ContractSpec(kind="plan")
    m = _DIMS_FORM_RE.match(stripped)
    if m:
        names = tuple(n.strip() for n in m.group("names").split(",")
                      if n.strip())
        if not names or not all(n.isidentifier() for n in names):
            raise ValueError(f"malformed dims spec {text!r}; expected "
                             "'dims: name, name, ...'")
        return ContractSpec(kind="dims", dims=names)
    m = _SPEC_RE.match(stripped)
    if m is None:
        raise ValueError(
            f"malformed array contract spec {text!r}; expected "
            "'(dims,) dtype [C|view-ok]', 'dims: names', or 'plan'")
    raw_dims = [d.strip() for d in m.group("dims").split(",") if d.strip()]
    dims: list[str] = []
    for d in raw_dims:
        cd = canon_dim(d)
        if not _DIM_RE.match(cd):
            raise ValueError(f"malformed dimension {d!r} in spec {text!r}")
        dims.append(cd)
    if not dims:
        raise ValueError(f"spec {text!r} declares no dimensions")
    dtype = m.group("dtype")
    if dtype not in DTYPE_NAMES:
        raise ValueError(
            f"unknown dtype {dtype!r} in spec {text!r}; expected one of "
            f"{sorted(DTYPE_NAMES)}")
    return ContractSpec(kind="array", shape=tuple(dims), dtype=dtype,
                        contiguous=(m.group("flag") != "view-ok"))


def array_contract(**specs: str) -> Callable[[_F], _F]:
    """Declare the array contracts of a callable or class.

    Keyword names address parameter names, published payload keys, or
    dataclass array fields; ``returns=`` addresses the return value.
    Specs are validated eagerly; the decorated object is otherwise
    untouched (repro-flow reads the declaration statically, never by
    import)."""
    parsed = {name: parse_spec(text) for name, text in specs.items()}

    def wrap(obj: _F) -> _F:
        setattr(obj, CONTRACT_ATTR, parsed)
        return obj

    return wrap


def contracts_of(obj: object) -> dict[str, ContractSpec] | None:
    """The runtime contract table stamped on ``obj``, or None."""
    value = getattr(obj, CONTRACT_ATTR, None)
    if value is None:
        return None
    return dict(value)


# ---------------------------------------------------------------------------
# Static side: read the same decorator from the AST
# ---------------------------------------------------------------------------

def parse_contract_decorator(
    deco: ast.expr,
) -> tuple[dict[str, ContractSpec] | None, str | None]:
    """(contract table, error) for an ``@array_contract(...)`` decorator
    node; ``(None, None)`` when the decorator is something else.

    A malformed spec returns ``({}, message)`` so the checker can report
    it (RV601) instead of silently dropping the contract.
    """
    if not isinstance(deco, ast.Call):
        return None, None
    func = deco.func
    last = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None)
    if last not in MARK_NAMES:
        return None, None
    if deco.args:
        return {}, "array_contract takes keyword arguments only"
    out: dict[str, ContractSpec] = {}
    for kw in deco.keywords:
        if kw.arg is None:
            return {}, "array_contract does not accept **kwargs"
        if not (isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)):
            return {}, f"contract for {kw.arg!r} must be a string literal"
        try:
            out[kw.arg] = parse_spec(kw.value.value)
        except ValueError as exc:
            return {}, str(exc)
    return out, None


def contracts_from_node(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef,
) -> tuple[dict[str, ContractSpec] | None, str | None]:
    """Contract table of a def/class AST node (first matching decorator
    wins; mirrors the runtime, which stamps once)."""
    for deco in node.decorator_list:
        table, err = parse_contract_decorator(deco)
        if table is not None or err is not None:
            return table, err
    return None, None
