"""The paper's Fig. 4 algorithm on the simulated substrates.

Three variants, as in Table II:

* ``OCT_CILK``      -- one process, ``p`` work-stealing threads (Section V.C
  runs p = 12 on one node);
* ``OCT_MPI``       -- ``P`` single-threaded ranks (12 per node);
* ``OCT_MPI+CILK``  -- hybrid: one rank per socket, 6 threads each.

The simulated program models time only: every rank schedules its rows'
work counters through the work-stealing and collective cost models, and
the collectives carry size-only payloads (the paper's Allreduce,
Allgather and Reduce, with their real byte counts).

The numbers come from one real execution.  With node-based work
division, per-leaf work profiles and all numeric results are
independent of the partition, so the pipeline runs once
(:meth:`~repro.core.driver.PolarizationEnergyCalculator.profile`) and
layout studies cut cost-even segments of the cached per-leaf costs.  A
144-core sweep over a dozen layouts costs one real execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

import numpy as np

from ..core.driver import PolarizationEnergyCalculator
from ..octree.partition import segment_by_weight, segment_range
from ..runtime.instrument import WorkCounters
from .cilk.scheduler import simulate_work_stealing
from .cost import CostModel, MemoryModel
from .machine import (LONESTAR4_NETWORK, NetworkSpec, RankLayout,
                      layout_for_cores)
from .simmpi.engine import CommStats, RankContext, SimMPI

#: Phase identifiers used for seed derivation.
PHASE_BORN, PHASE_PUSH, PHASE_ENERGY = 1, 2, 3

#: Extra noise width of hybrid compute phases relative to single-thread
#: ranks: the randomized steal schedule and unpinned thread migration add
#: variance a static MPI rank does not have.  Calibrated (with the OS
#: jitter sigma of Fig. 6) so the hybrid's max-envelope is the widest while
#: its min-envelope crosses below pure MPI's only at high core counts --
#: the paper's Fig. 6 crossover behaviour.
HYBRID_JITTER_FACTOR = 1.15


@dataclass(frozen=True)
class ParallelRunConfig:
    """Knobs of a simulated parallel run.

    Attributes
    ----------
    cost_model / memory_model / network:
        The machine models (defaults mirror Lonestar4).
    seed:
        Seeds the work-stealing victim selection and the optional OS
        jitter; vary it across repetitions to generate Fig. 6's min/max
        envelopes.
    jitter_sigma:
        Lognormal sigma of multiplicative per-phase OS noise (0 = fully
        deterministic).
    approximate_math:
        Apply the paper's approximate-math timing factor (Section V.E).
    include_tree_build:
        Charge octree construction time (the paper excludes it as
        amortised pre-processing; Table/Fig timings follow the paper).
    numa_penalty:
        Compute inflation for an *unpinned* multi-socket cilk process
        (OCT_CILK's 12 threads span both sockets with no affinity manager,
        Section V.A).
    """

    cost_model: CostModel = field(default_factory=CostModel)
    memory_model: MemoryModel = field(default_factory=MemoryModel)
    network: NetworkSpec = LONESTAR4_NETWORK
    seed: int = 0
    jitter_sigma: float = 0.0
    approximate_math: bool = False
    include_tree_build: bool = False
    numa_penalty: float = 1.06


@dataclass
class ParallelRunResult:
    """Outcome of one simulated parallel run.

    ``sim_seconds`` is the simulated makespan; ``energy`` and
    ``born_radii`` are the real computed values of the calculator's
    :meth:`~repro.core.driver.PolarizationEnergyCalculator.profile`.
    """

    variant: str
    layout: RankLayout
    energy: float
    born_radii: np.ndarray
    sim_seconds: float
    phase_seconds: dict[str, float]
    counters: WorkCounters
    comm: CommStats | None
    data_bytes: int
    node_bytes: int
    steals: int
    oom: bool = False

    @property
    def total_cores(self) -> int:
        return self.layout.total_cores


def _derive_seed(base: int, rank: int, phase: int) -> int:
    return (base * 1_000_003 + rank * 8191 + phase * 131) % (2 ** 31)


def _thread_phase_seconds(leaf_seconds: np.ndarray, nthreads: int,
                          cost: CostModel, *, cache_factor: float,
                          seed: int, hybrid: bool,
                          numa_factor: float = 1.0) -> tuple[float, int]:
    """Simulated wall time of one compute phase on one rank.

    Single-threaded ranks execute their leaves serially; multi-threaded
    ranks run the work-stealing schedule over the per-leaf costs with the
    cilk inflation factor, plus the cilk<->MPI interface overhead when the
    rank is part of a hybrid MPI run.
    """
    if nthreads <= 1:
        return float(leaf_seconds.sum()) * cache_factor, 0
    inflated = leaf_seconds * cost.cilk_inflation * numa_factor
    sched = simulate_work_stealing(inflated, nthreads, seed=seed)
    dt = sched.makespan * cache_factor
    if hybrid:
        dt += cost.hybrid_interface_overhead
    return dt, sched.steals


def _data_bytes(calc: PolarizationEnergyCalculator) -> int:
    """Bytes one process replica holds: molecule + surface + both trees."""
    surface = calc.prepare_surface()
    atoms = calc.atom_tree()
    quad = calc.quad_tree()
    return (calc.molecule.nbytes() + surface.nbytes()
            + atoms.tree.nbytes() + quad.tree.nbytes())


def _hot_bytes(calc: PolarizationEnergyCalculator, nranks: int) -> float:
    """Active working set of one rank during a compute phase: its data
    segment plus the tree-node arrays every traversal touches."""
    atoms = calc.atom_tree()
    quad = calc.quad_tree()
    node_bytes = (atoms.tree.nbytes() - atoms.tree.points.nbytes
                  + quad.tree.nbytes() - quad.tree.points.nbytes)
    return _data_bytes(calc) / nranks + node_bytes


@dataclass
class _Prepared:
    """Shared state assembled once per run."""

    cost: CostModel
    cache_factor: float
    build_seconds: float
    atom_ranges: list[tuple[int, int]]
    n_atoms: int
    n_nodes: int


def _prepare(calc: PolarizationEnergyCalculator, layout: RankLayout,
             config: ParallelRunConfig) -> _Prepared:
    cost = (config.cost_model.with_approx_math()
            if config.approximate_math else config.cost_model)
    atoms = calc.atom_tree()
    quad = calc.quad_tree()
    P = layout.nranks
    replicas_per_socket = max(1, layout.ranks_per_node // cost.machine.sockets)
    cache_factor = cost.cache_factor(_hot_bytes(calc, P) * replicas_per_socket)
    build_seconds = 0.0
    if config.include_tree_build:
        build = WorkCounters(
            tree_points=(atoms.tree.npoints * max(atoms.tree.depth, 1)
                         + quad.tree.npoints * max(quad.tree.depth, 1)))
        build_seconds = cost.compute_seconds(build)
    return _Prepared(
        cost=cost,
        cache_factor=cache_factor,
        build_seconds=build_seconds,
        atom_ranges=segment_range(atoms.tree.npoints, P),
        n_atoms=atoms.tree.npoints,
        n_nodes=atoms.tree.nnodes,
    )


def run_parallel(calc: PolarizationEnergyCalculator, layout: RankLayout,
                 config: ParallelRunConfig | None = None) -> ParallelRunResult:
    """Run OCT_MPI (``threads_per_rank == 1``) or OCT_MPI+CILK (> 1) on the
    simulated cluster, following Fig. 4 step by step.

    The simulated program schedules per-row work counters through the
    work-stealing and collective cost models with size-only payloads;
    the energy and radii come from the cached real execution (see the
    module docstring).
    """
    config = config or ParallelRunConfig()
    atoms = calc.atom_tree()
    p = layout.threads_per_rank
    P = layout.nranks
    hybrid = p > 1
    variant = "OCT_MPI+CILK" if hybrid else "OCT_MPI"

    data_bytes = _data_bytes(calc)
    node_bytes = config.memory_model.node_bytes(data_bytes,
                                                layout.ranks_per_node)
    if not config.memory_model.fits_on_node(data_bytes, layout.ranks_per_node):
        return ParallelRunResult(
            variant=variant, layout=layout, energy=float("nan"),
            born_radii=np.full(atoms.tree.npoints, np.nan),
            sim_seconds=float("inf"), phase_seconds={},
            counters=WorkCounters(), comm=None, data_bytes=data_bytes,
            node_bytes=node_bytes, steals=0, oom=True)

    prep = _prepare(calc, layout, config)
    cost = prep.cost
    profile = calc.profile()
    born_rows = profile.born_per_leaf
    energy_rows = profile.energy_per_leaf
    born_secs_all = np.array([cost.compute_seconds(c) for c in born_rows])
    energy_secs_all = np.array([cost.compute_seconds(c)
                                for c in energy_rows])
    # With profiled costs in hand, "divide the work as evenly as
    # possible" (Fig. 4) means cost-even contiguous segments.
    q_bounds = segment_by_weight(born_secs_all, P)
    v_bounds = segment_by_weight(energy_secs_all, P)

    def program(ctx: RankContext) -> Generator[Any, Any, dict[str, Any]]:
        rank = ctx.rank
        rng = (np.random.default_rng([config.seed, rank])
               if config.jitter_sigma > 0 else None)

        def jitter(dt: float, *, factor: float = 1.0) -> float:
            """OS noise; hybrid compute phases draw with a wider sigma
            (steal-schedule + thread-migration variance on top of OS
            noise -- the paper's hybrid max-time envelope is always the
            widest, Fig. 6)."""
            if rng is None:
                return dt
            return dt * float(rng.lognormal(
                0.0, factor * config.jitter_sigma))

        steals = 0
        counters = WorkCounters()
        phase_t: dict[str, float] = {}
        if prep.build_seconds:
            ctx.advance(jitter(prep.build_seconds))
            phase_t["build"] = prep.build_seconds

        # -- Step 2: Born integrals over this rank's Q-leaf segment.
        qs, qe = q_bounds[rank]
        for c in born_rows[qs:qe]:
            counters.add(c)
        dt, st = _thread_phase_seconds(
            born_secs_all[qs:qe], p, cost, cache_factor=prep.cache_factor,
            seed=_derive_seed(config.seed, rank, PHASE_BORN), hybrid=hybrid)
        steals += st
        dt = jitter(dt, factor=HYBRID_JITTER_FACTOR if hybrid else 1.0)
        phase_t["born_compute"] = dt
        ctx.advance(dt)

        # -- Step 3: Allreduce the (s_node, s_atom) partials.
        t0 = ctx.clock.now
        yield ctx.allreduce(None, nbytes=8 * (prep.n_nodes + prep.n_atoms))
        phase_t["born_comm"] = ctx.clock.now - t0

        # -- Step 4: push integrals for this rank's atom segment.
        push_work = WorkCounters(nodes_visited=prep.n_nodes // P + 1,
                                 exact_pairs=prep.n_atoms // P + 1)
        dt = jitter(cost.compute_seconds(push_work) / p)
        phase_t["push"] = dt
        ctx.advance(dt)

        # -- Step 5: Allgather the Born-radius segments.
        lo, hi = prep.atom_ranges[rank]
        t0 = ctx.clock.now
        yield ctx.allgather(None, nbytes=8 * max(hi - lo, 1))
        phase_t["radii_comm"] = ctx.clock.now - t0

        # -- Step 6: energy over this rank's atoms-leaf segment.
        vs, ve = v_bounds[rank]
        for c in energy_rows[vs:ve]:
            counters.add(c)
        dt, st = _thread_phase_seconds(
            energy_secs_all[vs:ve], p, cost, cache_factor=prep.cache_factor,
            seed=_derive_seed(config.seed, rank, PHASE_ENERGY), hybrid=hybrid)
        steals += st
        dt = jitter(dt, factor=HYBRID_JITTER_FACTOR if hybrid else 1.0)
        phase_t["energy_compute"] = dt
        ctx.advance(dt)

        # -- Step 7: master accumulates the partial energies.
        t0 = ctx.clock.now
        yield ctx.reduce(None, root=0, nbytes=8)
        phase_t["energy_comm"] = ctx.clock.now - t0

        return {"steals": steals, "counters": counters,
                "phase_seconds": phase_t}

    run = SimMPI(layout=layout, network=config.network).run(program)
    # Phase breakdown reported for the critical (slowest-finishing) rank.
    slowest = int(np.argmax(run.finish_times))
    return ParallelRunResult(
        variant=variant, layout=layout, energy=profile.energy,
        born_radii=atoms.to_original_order(profile.born_sorted),
        sim_seconds=run.makespan,
        phase_seconds=run.returns[slowest]["phase_seconds"],
        counters=WorkCounters.merged([r["counters"] for r in run.returns]),
        comm=run.stats, data_bytes=data_bytes, node_bytes=node_bytes,
        steals=sum(r["steals"] for r in run.returns))


def run_oct_cilk(calc: PolarizationEnergyCalculator, *, nthreads: int = 12,
                 config: ParallelRunConfig | None = None) -> ParallelRunResult:
    """OCT_CILK: one process, ``nthreads`` work-stealing threads, no MPI.

    The 12-thread configuration spans both sockets without affinity
    pinning, so compute pays the NUMA penalty (Section V.A).
    """
    config = config or ParallelRunConfig()
    cost = (config.cost_model.with_approx_math()
            if config.approximate_math else config.cost_model)
    params = calc.params
    atoms = calc.atom_tree()
    profile = calc.profile()
    n_atoms = atoms.tree.npoints
    layout = RankLayout(nodes=1, ranks_per_node=1, threads_per_rank=nthreads)
    data_bytes = _data_bytes(calc)
    spans_sockets = nthreads > cost.machine.cores_per_socket
    numa = config.numa_penalty if spans_sockets else 1.0
    cache_factor = cost.cache_factor(_hot_bytes(calc, 1))

    phase_t: dict[str, float] = {}
    steals = 0
    if config.include_tree_build:
        quad = calc.quad_tree()
        build = WorkCounters(
            tree_points=(atoms.tree.npoints * max(atoms.tree.depth, 1)
                         + quad.tree.npoints * max(quad.tree.depth, 1)))
        phase_t["build"] = cost.compute_seconds(build)

    leaf_secs = np.array([cost.compute_seconds(c)
                          for c in profile.born_per_leaf])
    dt, st = _thread_phase_seconds(
        leaf_secs, nthreads, cost, cache_factor=cache_factor,
        seed=_derive_seed(config.seed, 0, PHASE_BORN), hybrid=False,
        numa_factor=numa)
    phase_t["born_compute"] = dt
    steals += st

    push_work = WorkCounters(nodes_visited=atoms.tree.nnodes,
                             exact_pairs=n_atoms)
    phase_t["push"] = cost.compute_seconds(push_work) / nthreads

    leaf_secs_e = np.array([cost.compute_seconds(c)
                            for c in profile.energy_per_leaf])
    dt, st = _thread_phase_seconds(
        leaf_secs_e, nthreads, cost, cache_factor=cache_factor,
        seed=_derive_seed(config.seed, 0, PHASE_ENERGY), hybrid=False,
        numa_factor=numa)
    phase_t["energy_compute"] = dt
    steals += st

    if config.jitter_sigma > 0:
        rng = np.random.default_rng([config.seed, 0])
        phase_t = {k: v * float(rng.lognormal(0.0, config.jitter_sigma))
                   for k, v in phase_t.items()}

    counters = profile.born_counters.copy()
    counters.add(profile.energy_counters)
    return ParallelRunResult(
        variant="OCT_CILK", layout=layout, energy=profile.energy,
        born_radii=atoms.to_original_order(profile.born_sorted),
        # phase_t is built in fixed program order (insertion-ordered dict),
        # so this accumulation is deterministic.
        sim_seconds=sum(phase_t.values()),  # repro-lint: disable=REP001
        phase_seconds=phase_t,
        counters=counters, comm=None, data_bytes=data_bytes,
        node_bytes=config.memory_model.node_bytes(data_bytes, 1),
        steals=steals)


def simulate_layout_timing(born_leaf_seconds: np.ndarray,
                           energy_leaf_seconds: np.ndarray, *,
                           n_atoms: int, n_nodes: int, layout: RankLayout,
                           config: ParallelRunConfig | None = None,
                           cache_factor: float = 1.0) -> float:
    """Timing-only simulation of the Fig. 4 pipeline from per-leaf costs.

    Used where no :class:`PolarizationEnergyCalculator` exists -- e.g. the
    Fig. 11 harness times the paper's *full-size* CMV shell from
    counting-only work profiles (:mod:`repro.core.counting`), far beyond
    what the real kernels could execute in Python.

    Returns the simulated makespan (seconds).  Collective costs use
    size-only payloads; compute phases run through the same cost-balanced
    segmentation and work-stealing machinery as :func:`run_parallel`.
    """
    config = config or ParallelRunConfig()
    cost = (config.cost_model.with_approx_math()
            if config.approximate_math else config.cost_model)
    from .simmpi.collectives import collective_cost
    P = layout.nranks
    p = layout.threads_per_rank
    hybrid = p > 1
    q_bounds = segment_by_weight(born_leaf_seconds, P)
    v_bounds = segment_by_weight(energy_leaf_seconds, P)
    rank_times = []
    # Models each rank's *own* simulated span; not a cross-rank payload
    # reduction, so it does not belong in the collective modules.
    for rank in range(P):  # repro-lint: disable=REP002
        t = 0.0
        for bounds, secs, phase in ((q_bounds, born_leaf_seconds, PHASE_BORN),
                                    (v_bounds, energy_leaf_seconds,
                                     PHASE_ENERGY)):
            lo, hi = bounds[rank]
            dt, _ = _thread_phase_seconds(
                secs[lo:hi], p, cost, cache_factor=cache_factor,
                seed=_derive_seed(config.seed, rank, phase), hybrid=hybrid)
            t += dt
        push = WorkCounters(nodes_visited=n_nodes // P + 1,
                            exact_pairs=n_atoms // P + 1)
        t += cost.compute_seconds(push) / p
        rank_times.append(t)
    comm = (collective_cost("allreduce", config.network, layout,
                            8 * (n_nodes + n_atoms))
            + collective_cost("allgather", config.network, layout,
                              8 * (n_atoms // P + 1))
            + collective_cost("reduce", config.network, layout, 8))
    return max(rank_times) + comm


def run_variant(calc: PolarizationEnergyCalculator, variant: str, *,
                cores: int = 12, config: ParallelRunConfig | None = None
                ) -> ParallelRunResult:
    """Dispatch by variant name on the paper's standard layouts."""
    if variant == "OCT_CILK":
        return run_oct_cilk(calc, nthreads=cores, config=config)
    if variant == "OCT_MPI":
        return run_parallel(calc, layout_for_cores(cores, hybrid=False),
                            config)
    if variant == "OCT_MPI+CILK":
        return run_parallel(calc, layout_for_cores(cores, hybrid=True),
                            config)
    raise ValueError(f"unknown variant {variant!r}")
