"""The ``repro-lint`` rule catalogue.

Each rule guards one leg of the determinism contract (see
``docs/ANALYSIS.md`` for bad/good examples).  Rules are scoped by *module
role*; roles are inferred from the file path (``infer_roles``) and may be
overridden with a magic comment near the top of a file::

    # repro-lint: roles=parallel,simtime

Individual findings are silenced per line::

    total = sum(phase_t.values())  # repro-lint: disable=REP001 -- why...
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import PurePosixPath

#: Directories whose files do float accumulation that feeds energies.
NUMERIC_DIRS = frozenset({
    "core", "octree", "surface", "baselines", "loadbalance", "parallel",
    "experiments", "analysis", "plan",
})

#: Directories holding the energy/Born kernels (dtype-drift sensitive).
KERNEL_DIRS = frozenset({"core", "surface", "plan"})

#: The only file allowed to implement cross-rank reductions directly.
REDUCTION_HOME_FILES = (
    "parallel/simmpi/collectives.py",
)

#: The only files in a wall-clock-restricted role allowed to read the
#: wall clock: the serving layer's latency instrumentation and the
#: cluster fabric's clock/traffic module.  Everything else in
#: ``repro/serve/`` takes timestamps through ``serve.metrics.now()`` and
#: everything else in ``repro/cluster/`` through
#: ``cluster.metrics.cluster_now()``, so latency accounting stays in one
#: auditable place per layer (REP003 exemption).
CLOCK_HOME_FILES = (
    "serve/metrics.py",
    "cluster/metrics.py",
)

#: The only production file allowed to draw random numbers (always from an
#: explicit seed): the molecule generators.  Tests and benchmarks also
#: carry the ``rng`` role -- they seed their own fixtures (REP007
#: exemption).
RNG_HOME_FILES = (
    "molecule/generators.py",
)

_ROLES_RE = re.compile(r"#\s*repro-lint:\s*roles=([A-Za-z0-9_,\- ]+)")
_DISABLE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_, ]+)")


@dataclass(frozen=True)
class Rule:
    """One lint rule: id, scoping roles, and the fix hint shown with every
    finding."""

    id: str
    title: str
    roles: frozenset[str]
    hint: str
    #: When True the rule applies everywhere *except* files carrying one of
    #: ``roles`` (used by REP004, whose roles name the exemption).
    invert_roles: bool = field(default=False)


RULES: dict[str, Rule] = {r.id: r for r in (
    Rule(
        id="REP001",
        title="float accumulation over an unordered container",
        roles=frozenset({"numeric"}),
        hint=("sum() over set/frozenset/dict.values() has no defined "
              "order and float addition is not associative; materialise a "
              "deterministically ordered sequence (e.g. sorted(...) or a "
              "list built in fixed order) before accumulating"),
    ),
    Rule(
        id="REP002",
        title="cross-rank reduction outside the collective modules",
        roles=frozenset({"parallel"}),
        hint=("rank-order reductions live in "
              "parallel/simmpi/collectives.py (reduce_values); real "
              "substrates run repro.serve.sliced.evaluate_ranges, whose "
              "reductions replay the serial order -- route this through "
              "one of those instead of summing partials by hand"),
    ),
    Rule(
        id="REP003",
        title="wall-clock call inside simulated-time or service code",
        roles=frozenset({"simtime", "service", "cluster"}),
        hint=("simmpi/ and cilk/ model time; use "
              "repro.runtime.clock.SimClock (ctx.advance/advance_to) "
              "instead of time.time/perf_counter/monotonic.  In "
              "repro/serve/ the latency clock lives in serve/metrics.py "
              "only (call repro.serve.metrics.now() elsewhere); in "
              "repro/cluster/ it lives in cluster/metrics.py only (call "
              "repro.cluster.metrics.cluster_now() elsewhere)"),
    ),
    Rule(
        id="REP004",
        title="raw multiprocessing/shared_memory use outside procpool",
        roles=frozenset({"procpool"}),
        hint=("OS-process and shared-memory plumbing is confined to "
              "parallel/procpool/ (PersistentWorkerPool, "
              "SharedArrayBundle); build on those abstractions instead"),
        invert_roles=True,
    ),
    Rule(
        id="REP005",
        title="non-float64 array construction in an energy kernel",
        roles=frozenset({"kernel"}),
        hint=("energy/Born kernels are float64 end to end (the "
              "bit-compatibility contract); drop the narrower dtype or "
              "cast at the boundary, not inside the kernel"),
    ),
    Rule(
        id="REP006",
        title="per-element Python loop over leaf arrays in an executor",
        roles=frozenset({"executor"}),
        hint=("plan executors are batched: gather plan rows into "
              "bucketed/padded arrays and issue one vectorised NumPy call "
              "per bucket; a per-leaf (or per-row scalar-accumulation) "
              "Python loop reintroduces exactly the interpreter overhead "
              "the plan/execute split removes"),
    ),
    Rule(
        id="REP007",
        title="unseeded random-number generation outside the RNG home",
        roles=frozenset({"rng"}),
        hint=("randomness enters the pipeline only through "
              "molecule/generators.py, and always from an explicit seed; "
              "np.random.default_rng()/np.random.normal()/random.random() "
              "without a seed makes runs unreproducible -- thread an "
              "np.random.Generator built from a seed through instead"),
        invert_roles=True,
    ),
    Rule(
        id="REP008",
        title="unbounded blocking call in service code",
        roles=frozenset({"service", "cluster"}),
        hint=("a Queue.get()/Event.wait()/Thread.join() with no timeout "
              "can park a serving thread forever when its peer dies; "
              "pass timeout=... (hoist the constant into ServeConfig) "
              "and handle the timeout path"),
    ),
    Rule(
        id="REP009",
        title="bare numeric-literal chain in kernel arithmetic",
        roles=frozenset({"kernel", "executor"}),
        hint=("a multiplicative chain mixing an array with several bare "
              "numeric literals (e.g. `x * 1 / 3`) evaluates one scalar "
              "op at a time, re-applying NumPy's promotion rules at each "
              "intermediate; fold the literals into one named float64 "
              "constant (e.g. `THIRD = 1.0 / 3.0`) so the kernel issues "
              "a single well-typed multiply"),
    ),
)}


def is_rng_home(path: str) -> bool:
    """Whether ``path`` may draw random numbers (REP007 exemption):
    the seeded molecule generators, plus tests and benchmarks."""
    posix = PurePosixPath(path).as_posix()
    if any(posix.endswith(home) for home in RNG_HOME_FILES):
        return True
    parts = PurePosixPath(path).parts
    name = PurePosixPath(path).name
    return ("tests" in parts or "benchmarks" in parts
            or name.startswith("test_") or name == "conftest.py")


def infer_roles(path: str) -> frozenset[str]:
    """Derive the role set of a file from its (posix) path components."""
    parts = set(PurePosixPath(path).parts)
    roles: set[str] = set()
    if is_rng_home(path):
        roles.add("rng")
    if "procpool" in parts:
        roles.add("procpool")
    if "simmpi" in parts or "cilk" in parts:
        roles.add("simtime")
    if "serve" in parts:
        roles.add("service")
    if "cluster" in parts:
        roles.add("cluster")
    if "parallel" in parts:
        roles.add("parallel")
    if parts & NUMERIC_DIRS:
        roles.add("numeric")
    if parts & KERNEL_DIRS:
        roles.add("kernel")
    if "plan" in parts:
        roles.add("executor")
    return frozenset(roles)


def roles_for(path: str, source: str) -> frozenset[str]:
    """Roles of a file: a magic ``roles=`` comment in the first lines wins
    over path inference (used by lint fixtures and generated code)."""
    for line in source.splitlines()[:10]:
        m = _ROLES_RE.search(line)
        if m:
            return frozenset(
                r.strip() for r in m.group(1).split(",") if r.strip())
    return infer_roles(path)


def is_reduction_home(path: str) -> bool:
    """Whether ``path`` is the file allowed to spell out rank-order
    reductions (REP002 exemption)."""
    posix = PurePosixPath(path).as_posix()
    return any(posix.endswith(home) for home in REDUCTION_HOME_FILES)


def is_clock_home(path: str) -> bool:
    """Whether ``path`` is a layer's designated latency-clock module
    (``serve/metrics.py`` for the ``service`` role, ``cluster/metrics.py``
    for the ``cluster`` role) -- the only wall-clock-restricted files
    allowed to call the wall clock (REP003 exemption; ``simtime`` files
    get no such exemption)."""
    posix = PurePosixPath(path).as_posix()
    return any(posix.endswith(home) for home in CLOCK_HOME_FILES)


def suppressed_rules(line: str) -> frozenset[str]:
    """Rule ids disabled on one physical source line (``all`` disables
    every rule)."""
    m = _DISABLE_RE.search(line)
    if not m:
        return frozenset()
    return frozenset(r.strip().upper()
                     for r in m.group(1).split(",") if r.strip())
