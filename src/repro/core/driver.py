"""High-level public API: :class:`PolarizationEnergyCalculator`.

This is the entry point a downstream user should reach for::

    from repro import PolarizationEnergyCalculator, protein_blob

    mol = protein_blob(5000, seed=1)
    calc = PolarizationEnergyCalculator(mol)
    result = calc.run()
    print(result.energy, "kcal/mol")

It wires together surface sampling, octree construction, the interaction
plans and the one row-range pipeline of :mod:`repro.serve.sliced`, run on
a single in-thread range.  The distributed variants live in
:mod:`repro.parallel.hybrid` and reuse this object's prepared state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..molecule.molecule import Molecule
from ..runtime.instrument import WorkCounters
from ..surface.sas import SurfaceQuadrature, build_surface
from .born import AtomTreeData, QuadTreeData
from .energy import EnergyContext
from .error import percent_error
from .naive import naive_reference
from .params import ApproximationParams


@dataclass
class EpolResult:
    """Result of a polarization-energy computation.

    Attributes
    ----------
    energy:
        GB polarization energy, kcal/mol.
    born_radii:
        ``(N,)`` Born radii in original atom order.
    born_counters / energy_counters:
        Work counters for the two traversal phases (inputs to the timing
        models).
    params:
        The approximation parameters used.
    molecule_name / natoms / nqpoints:
        Provenance.
    """

    energy: float
    born_radii: np.ndarray
    born_counters: WorkCounters
    energy_counters: WorkCounters
    params: ApproximationParams
    molecule_name: str
    natoms: int
    nqpoints: int


@dataclass
class RunProfile:
    """A fully executed pipeline plus per-leaf work profiles.

    The per-leaf counters are *partition-invariant*: each leaf's traversal
    classifies against the same tree regardless of which rank owns it.
    The parallel runners therefore schedule these cached profiles instead
    of re-executing the kernels for every layout under study.
    """

    born_per_leaf: list[WorkCounters]
    energy_per_leaf: list[WorkCounters]
    born_sorted: np.ndarray
    born_counters: WorkCounters
    energy_counters: WorkCounters
    energy: float


@dataclass
class BackendRunResult:
    """Outcome of one *measured* (wall-clock) pipeline execution
    (:meth:`PolarizationEnergyCalculator.compute`).

    Unlike :class:`~repro.parallel.hybrid.ParallelRunResult` the times are
    real seconds observed on this machine, not modelled ones:
    ``setup_seconds`` covers surface, trees, plans and fleet start,
    ``wall_seconds`` the sliced request itself.  ``counters`` are the two
    plans' work counters.
    """

    backend: str
    nworkers: int
    energy: float
    born_radii: np.ndarray
    counters: WorkCounters
    setup_seconds: float
    wall_seconds: float


@dataclass
class PolarizationEnergyCalculator:
    """Computes GB polarization energy with the paper's octree algorithm.

    Construction is lazy: the surface and octrees are built on first use
    and cached, matching the paper's treatment of octree construction as a
    reusable pre-processing step (Section IV.C).

    Attributes
    ----------
    molecule:
        Input molecule.
    params:
        Approximation parameters.
    surface:
        Optional pre-built surface quadrature (else sampled on demand).
    """

    molecule: Molecule
    params: ApproximationParams = field(default_factory=ApproximationParams)
    surface: SurfaceQuadrature | None = None
    _atoms: AtomTreeData | None = field(default=None, repr=False)
    _quad: QuadTreeData | None = field(default=None, repr=False)
    _profile: RunProfile | None = field(default=None, repr=False)
    _plan_cache: object | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # prepared state
    # ------------------------------------------------------------------
    def prepare_surface(self) -> SurfaceQuadrature:
        """Sample (or return the cached) molecular surface."""
        if self.surface is None:
            self.surface = build_surface(
                self.molecule, points_per_atom=self.params.points_per_atom)
        return self.surface

    def atom_tree(self) -> AtomTreeData:
        """Build (or return the cached) atoms octree bundle."""
        if self._atoms is None:
            self._atoms = AtomTreeData.build(
                self.molecule, leaf_cap=self.params.leaf_cap,
                sfc=self.params.tree_sfc,
                compress=self.params.tree_compress)
        return self._atoms

    def quad_tree(self) -> QuadTreeData:
        """Build (or return the cached) quadrature-points octree bundle."""
        if self._quad is None:
            self._quad = QuadTreeData.build(
                self.prepare_surface(),
                leaf_cap=self.params.quad_leaf_cap,
                sfc=self.params.tree_sfc,
                compress=self.params.tree_compress)
        return self._quad

    # ------------------------------------------------------------------
    # interaction plans
    # ------------------------------------------------------------------
    def plan_cache(self):
        """The calculator's :class:`~repro.plan.cache.PlanCache` (lazy)."""
        from ..plan import PlanCache
        if self._plan_cache is None:
            self._plan_cache = PlanCache()
        return self._plan_cache

    def born_plan(self, eps: float | None = None, *,
                  disable_far: bool = False):
        """The cached whole-tree Born interaction plan for ``eps``
        (default: ``params.eps_born``)."""
        import time

        from ..plan import build_born_plan
        from ..plan.cache import born_key
        eps = self.params.eps_born if eps is None else float(eps)
        variant = self.params.born_mac_variant
        key = born_key(eps, mac_variant=variant, disable_far=disable_far,
                       tree_variant=self.params.tree_variant)
        return self.plan_cache().get_or_build(
            key, lambda: build_born_plan(self.atom_tree(), self.quad_tree(),
                                         eps, disable_far=disable_far,
                                         mac_variant=variant,
                                         timer=time.perf_counter))

    def epol_plan(self, eps: float | None = None, *,
                  disable_far: bool = False):
        """The cached whole-tree energy interaction plan for ``eps``
        (default: ``params.eps_epol``).  Reused across the Fig. 10
        epsilon sweep -- the plan depends on the tree and ``eps`` only."""
        import time

        from ..plan import build_epol_plan
        from ..plan.cache import epol_key
        eps = self.params.eps_epol if eps is None else float(eps)
        key = epol_key(eps, disable_far=disable_far,
                       tree_variant=self.params.tree_variant)
        return self.plan_cache().get_or_build(
            key, lambda: build_epol_plan(self.atom_tree(), eps,
                                         disable_far=disable_far,
                                         timer=time.perf_counter))

    def plans(self):
        """Both default-configuration plans as a
        :class:`~repro.plan.schema.PlanSet` (what a process fleet
        publishes to its workers)."""
        from ..plan import PlanSet
        return PlanSet(born=self.born_plan(), epol=self.epol_plan())

    def plan_stats(self, *, nparts: int = 1, nbins: int = 0) -> dict:
        """JSON-ready statistics of the cached default plans (near/far
        pair counts, tile histogram, per-rank imbalance, build timings)."""
        from ..plan import plan_stats as _plan_stats
        return {
            "born": _plan_stats(self.born_plan(), nparts=nparts),
            "epol": _plan_stats(self.epol_plan(), nparts=nparts,
                                nbins=nbins),
            "cache": self.plan_cache().stats(),
        }

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def profile(self) -> RunProfile:
        """Execute the full pipeline once, capturing per-leaf work profiles
        (cached; see :class:`RunProfile`).

        The cached whole-tree plans run through the one row-range
        pipeline (:func:`~repro.serve.sliced.evaluate_local`) as a single
        in-thread range -- exactly what a batched request runs.  The
        counters come from the plan rows: integer-exact matches of what
        the per-leaf loops count.
        """
        if self._profile is None:
            from ..serve.sliced import LocalRanges, epol_nbins, evaluate_local
            plans = self.plans()
            energy, terms = evaluate_local(
                self.molecule,
                LocalRanges(plans, self.atom_tree(), self.quad_tree(),
                            self.params.eps_epol),
                self.params, nparts=1)
            nbins = epol_nbins(terms.born_sorted, self.params.eps_epol)
            born, epol = plans.born, plans.epol
            self._profile = RunProfile(
                born_per_leaf=born.row_counters(0, born.nrows),
                energy_per_leaf=epol.row_counters(0, epol.nrows, nbins=nbins),
                born_sorted=terms.born_sorted,
                born_counters=born.counters(),
                energy_counters=epol.counters(nbins=nbins),
                energy=energy,
            )
        return self._profile

    def born_radii(self) -> np.ndarray:
        """Born radii in original atom order (cached after first call)."""
        return self.atom_tree().to_original_order(self.profile().born_sorted)

    def energy_context(self) -> EnergyContext:
        """Energy-phase context (tree + binned charge histograms)."""
        return EnergyContext.build(self.atom_tree(),
                                   self.profile().born_sorted,
                                   self.params.eps_epol)

    def run(self) -> EpolResult:
        """Execute the full pipeline and return an :class:`EpolResult`."""
        prof = self.profile()
        return EpolResult(
            energy=prof.energy,
            born_radii=self.born_radii(),
            born_counters=prof.born_counters.copy(),
            energy_counters=prof.energy_counters.copy(),
            params=self.params,
            molecule_name=self.molecule.name,
            natoms=len(self.molecule),
            nqpoints=self.prepare_surface().npoints,
        )

    # ------------------------------------------------------------------
    # execution backends
    # ------------------------------------------------------------------
    def compute(self, backend: str = "serial", *,
                workers: int = 1) -> BackendRunResult:
        """Execute the pipeline as one sliced request on a serving fleet,
        with wall-clock timing.

        ``"serial"`` runs it on an :class:`~repro.serve.fleet.InlineFleet`
        that cuts ``workers`` ranges and runs them in turn in this thread,
        ``"real"`` on a one-shot :class:`~repro.serve.fleet.ProcessFleet`
        of ``workers`` OS processes with the molecule and plans in shared
        memory.  Both run the one row-range pipeline
        (:func:`~repro.serve.sliced.evaluate_ranges`), whose reductions do
        not depend on the cut, so the energy and radii equal :meth:`run`'s
        bit for bit at every ``workers``.
        """
        import time as _time

        from ..serve.fleet import EpsConfig, InlineFleet, ProcessFleet
        from ..serve.registry import RegistryEntry, content_key
        from ..serve.sliced import epol_nbins

        if backend not in ("serial", "real"):
            raise ValueError(f"unknown backend {backend!r}")
        t0 = _time.perf_counter()
        plans = self.plans()
        fleet: InlineFleet | ProcessFleet = (
            InlineFleet(workers) if backend == "serial"
            else ProcessFleet(workers))
        try:
            setup_seconds = _time.perf_counter() - t0
            t0 = _time.perf_counter()
            entry = RegistryEntry(key=content_key(self.molecule, self.params),
                                  molecule=self.molecule, calc=self)
            res = fleet.run_sliced(0, entry, EpsConfig.resolve(self.params))
            wall_seconds = _time.perf_counter() - t0
        finally:
            fleet.shutdown()
        assert res.born_sorted is not None
        counters = plans.born.counters()
        counters.add(plans.epol.counters(
            nbins=epol_nbins(res.born_sorted, self.params.eps_epol)))
        return BackendRunResult(
            backend=backend, nworkers=workers, energy=res.energy,
            born_radii=self.atom_tree().to_original_order(res.born_sorted),
            counters=counters, setup_seconds=setup_seconds,
            wall_seconds=wall_seconds)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def compare_with_naive(self) -> dict[str, float]:
        """Run both the octree pipeline and the naive reference; return
        energies and the signed percent error (paper's accuracy metric)."""
        result = self.run()
        ref = naive_reference(self.molecule, self.prepare_surface(),
                              epsilon_solvent=self.params.epsilon_solvent)
        return {
            "octree_energy": result.energy,
            "naive_energy": ref.energy,
            "percent_error": percent_error(result.energy, ref.energy),
        }


def compute_polarization_energy(molecule: Molecule, *,
                                eps_born: float | None = None,
                                eps_epol: float | None = None,
                                **param_overrides) -> EpolResult:
    """One-call convenience API.

    ``eps_born``/``eps_epol`` (and any other
    :class:`~repro.core.params.ApproximationParams` field passed as a
    keyword) override the defaults.
    """
    kwargs = dict(param_overrides)
    if eps_born is not None:
        kwargs["eps_born"] = eps_born
    if eps_epol is not None:
        kwargs["eps_epol"] = eps_epol
    params = ApproximationParams(**kwargs)
    return PolarizationEnergyCalculator(molecule, params).run()
