"""The ``@declares_effects`` trust boundary for repro-verify.

Effect inference (:mod:`.effects`) propagates a small lattice of effects
bottom-up through the whole-program call graph.  A function decorated with
:func:`declares_effects` *cuts* that propagation: callers see the declared
set instead of the transitive closure of the body.  The declaration is not
taken on faith -- repro-verify checks that the effects inferred from the
body are a subset of the declared set (check ``RV102``) -- so annotations
are checked trust boundaries, not suppressions.

An empty declaration, ``@declares_effects()``, is the strongest statement
available: the function asserts it is *effect-free* (pure up to
allocation and arithmetic), which is the precondition for the
bit-identity claims of docs/ALGORITHMS §6c.  The decorator is a runtime
no-op apart from stamping ``__declared_effects__`` and validating the
effect names at import time (so a typo fails the first test run, not the
analysis).

The lattice elements:

``CLOCK``
    reads host wall-clock time (``time.perf_counter`` and friends).
``RNG``
    draws from an unseeded or process-global random source.
``IO``
    file/stream/process I/O (``open``, ``print``, ``subprocess`` ...).
``SHM_CREATE`` / ``SHM_ATTACH`` / ``SHM_CLOSE`` / ``SHM_UNLINK``
    shared-memory segment lifecycle transitions.
``MUTATES_SHARED``
    writes through views of a shared-memory segment.
"""

from __future__ import annotations

from typing import Callable, TypeVar

#: Attribute stamped on decorated callables.
DECLARED_ATTR = "__declared_effects__"

#: Parameter-free effect names.
EFFECT_NAMES = frozenset({
    "CLOCK", "RNG", "IO", "MUTATES_SHARED",
    "SHM_CREATE", "SHM_ATTACH", "SHM_CLOSE", "SHM_UNLINK",
})

_F = TypeVar("_F", bound=Callable)


def validate_effect(effect: str) -> str:
    """Return ``effect`` normalised, or raise ``ValueError`` on a name
    outside the lattice (typos must fail at import time)."""
    if effect in EFFECT_NAMES:
        return effect
    raise ValueError(
        f"unknown effect {effect!r}; expected one of {sorted(EFFECT_NAMES)}")


def declares_effects(*effects: str) -> Callable[[_F], _F]:
    """Declare a callable's complete effect set (a checked upper bound).

    ``@declares_effects()`` asserts the callable is effect-free.  The
    decorator validates names eagerly and otherwise leaves the callable
    untouched; repro-verify reads the declaration statically (it never
    imports the code it analyses).
    """
    declared = frozenset(validate_effect(e) for e in effects)

    def wrap(fn: _F) -> _F:
        setattr(fn, DECLARED_ATTR, declared)
        return fn

    return wrap


def declared_effects_of(fn: object) -> frozenset[str] | None:
    """The runtime declaration stamped on ``fn``, or None."""
    value = getattr(fn, DECLARED_ATTR, None)
    if value is None:
        return None
    return frozenset(value)
