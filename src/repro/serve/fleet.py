"""Warm execution fleets: where served requests actually compute.

Two fleets implement one contract (``run_batch`` over ``(request id,
registry entry, epsilon config)`` items, ``run_sliced`` for one request
cut into row ranges, plus ``forget``/``shutdown``):

* :class:`InlineFleet` ("sim" backend) evaluates in the scheduler thread
  against the registry entry's own calculator -- zero processes, the
  reference substrate for tests and the plan/tree-reuse benchmark;
* :class:`ProcessFleet` ("real" backend) keeps ``P``
  :class:`~repro.parallel.procpool.pool.PersistentWorkerPool` workers
  alive across requests.  Each molecule's arrays and interaction plans
  are published **once** into a
  :class:`~repro.parallel.procpool.shm.SharedArrayBundle` per epsilon
  configuration; workers attach lazily, rebuild the deterministic
  octrees, cache the prepared state, and then serve every later request
  for that molecule at plan-execution cost.

Every evaluation runs the one row-range pipeline of
:mod:`repro.serve.sliced` (:func:`~repro.serve.sliced.evaluate_ranges`);
the fleets only say where its ranges execute.  A batched request is one
range, run in the scheduler thread or in a worker's ``"run"`` task; a
sliced request fans weight-balanced ranges over the simulated width
(inline) or over every worker (process fleet, through a per-request
scratch segment).  A cold ``driver.run()`` is the same pipeline on one
in-thread range, and its reductions do not depend on the cut, so a
served energy is bit-identical to it regardless of fleet width, batch
shape, routing mode or arrival order (see ``docs/SERVING.md``,
"Intra-request parallelism").
"""

from __future__ import annotations

import dataclasses
import os
import threading
import traceback
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.born import AtomTreeData, QuadTreeData
from ..core.energy import epol_from_pair_sum
from ..core.params import ApproximationParams
from ..molecule.molecule import Molecule
from ..parallel.procpool import (PersistentWorkerPool, PoolError,
                                 SharedArrayBundle)
from ..plan import InteractionPlan, PlanSet
from ..plan.schema import PLAN_ARRAY_FIELDS
from ..surface.sas import SurfaceQuadrature
from .metrics import now
from .registry import RegistryEntry
from .sliced import (Bounds, LocalRanges, RangeTerms, evaluate_local,
                     evaluate_ranges, fold_pair_terms)

#: Molecules one warm worker keeps attached before evicting its oldest.
WORKER_CACHE_ENTRIES = 8

#: Test-only control task: the receiving worker hard-exits (as a real
#: worker would on OOM-kill or segfault) on its *next* evaluation task,
#: losing that task mid-flight.  Fault-injection hook for the degraded
#: fleet suite; nothing in the serving path ever sends it.
CRASH_NEXT = "__crash_next__"

#: Pause after a worker hands a second slice of one round back to the
#: queue, so that a peer still starting up can take it.
SLICE_HANDBACK_SECONDS = 0.002


class FleetError(RuntimeError):
    """The fleet cannot serve (worker death, shut-down pool)."""


class SliceError(FleetError):
    """One sliced request failed; the fleet itself has recovered.

    Raised by ``run_sliced`` when a slice errors or its worker dies
    mid-flight.  The scheduler treats it as request-scoped (reject that
    future, keep serving); a plain :class:`FleetError` stays fatal.
    """


@dataclass(frozen=True)
class EpsConfig:
    """The per-request kernel configuration (epsilon overrides)."""

    eps_born: float
    eps_epol: float

    @classmethod
    def resolve(cls, params: ApproximationParams,
                eps_born: float | None = None,
                eps_epol: float | None = None) -> "EpsConfig":
        return cls(
            eps_born=float(params.eps_born if eps_born is None else eps_born),
            eps_epol=float(params.eps_epol if eps_epol is None else eps_epol))


@dataclass
class EvalResult:
    """One served evaluation: the energy plus provenance/timing."""

    energy: float
    worker: int
    eval_seconds: float
    cold_attach: bool = False
    error: str | None = None
    #: How the request was executed: ``"batched"`` (one worker ran the
    #: whole plan) or ``"sliced"`` (row ranges fanned over the fleet).
    mode: str = "batched"
    #: Row slices the request fanned out to (1 for batched requests).
    nslices: int = 1
    #: Born radii in sorted atom order, set by ``run_sliced`` (the
    #: parent pushes them anyway); batched results leave it None, so
    #: nothing molecule-sized crosses the worker result queue.
    born_sorted: np.ndarray | None = None


# ----------------------------------------------------------------------
# in-process fleet ("sim" backend)
# ----------------------------------------------------------------------
class InlineFleet:
    """Evaluates batches inline in the calling (scheduler) thread.

    ``nworkers`` is the *simulated* slice width: ``run_sliced`` cuts a
    request into that many weight-balanced row ranges and executes them
    sequentially through the identical slice kernels and reduction the
    process fleet uses -- the reference substrate for the differential
    suite (energies must not depend on the width, so simulating it
    single-threaded is a legitimate execution of the same computation).
    """

    backend = "sim"

    def __init__(self, nworkers: int = 1) -> None:
        if nworkers < 1:
            raise ValueError("nworkers must be >= 1")
        self.nworkers = int(nworkers)
        self._closed = False

    def run_batch(self, items: list[tuple[int, RegistryEntry, EpsConfig]]
                  ) -> dict[int, EvalResult]:
        if self._closed:
            raise FleetError("fleet is shut down")
        out: dict[int, EvalResult] = {}
        for req_id, entry, cfg in items:
            t0 = now()
            try:
                energy, _ = evaluate_local(
                    entry.molecule,
                    LocalRanges.for_entry(entry, cfg.eps_born, cfg.eps_epol),
                    entry.params, nparts=1)
                out[req_id] = EvalResult(energy=energy, worker=0,
                                         eval_seconds=now() - t0)
            except Exception:
                out[req_id] = EvalResult(
                    energy=float("nan"), worker=0, eval_seconds=now() - t0,
                    error=traceback.format_exc())
        return out

    def run_sliced(self, req_id: int, entry: RegistryEntry,
                   cfg: EpsConfig) -> EvalResult:
        """One request, row-sliced into ``nworkers`` ranges run in turn --
        bit-identical to a batched evaluation and a cold ``driver.run()``
        for any width.  Raises :class:`SliceError` on evaluation failure.
        """
        if self._closed:
            raise FleetError("fleet is shut down")
        t0 = now()
        try:
            energy, terms = evaluate_local(
                entry.molecule,
                LocalRanges.for_entry(entry, cfg.eps_born, cfg.eps_epol),
                entry.params, nparts=self.nworkers)
        except Exception as err:
            raise SliceError(
                f"sliced request {req_id} failed: "
                f"{traceback.format_exc()}") from err
        return EvalResult(energy=energy, worker=0,
                          eval_seconds=now() - t0, mode="sliced",
                          nslices=terms.nslices,
                          born_sorted=terms.born_sorted)

    def forget(self, entry: RegistryEntry) -> None:
        """Nothing published; the registry eviction already dropped it."""

    def shutdown(self) -> None:
        self._closed = True  # idempotent by construction


# ----------------------------------------------------------------------
# warm process fleet ("real" backend)
# ----------------------------------------------------------------------
@dataclass
class _Publication:
    """One (molecule, epsilon config) published into shared memory."""

    bundle: SharedArrayBundle
    plan_meta: dict
    params: ApproximationParams
    mol_name: str


def _publication_arrays(entry: RegistryEntry,
                        plans: PlanSet) -> dict[str, Any]:
    surface = entry.calc.prepare_surface()
    arrays: dict[str, Any] = {
        "positions": entry.molecule.positions,
        "radii": entry.molecule.radii,
        "charges": entry.molecule.charges,
        "q_points": surface.points,
        "q_normals": surface.normals,
        "q_weights": surface.weights,
    }
    for prefix, plan in (("plan_born", plans.born),
                         ("plan_epol", plans.epol)):
        for fname, arr in plan.as_arrays().items():
            arrays[f"{prefix}_{fname}"] = arr
    return arrays


class _WorkerState:
    """One worker's cached prepared state for one publication."""

    def __init__(self, bundle: SharedArrayBundle, plan_meta: dict,
                 params: ApproximationParams, mol_name: str) -> None:
        self.bundle = bundle
        self.params = params
        self.molecule = Molecule(bundle.view("positions"),
                                 bundle.view("radii"),
                                 bundle.view("charges"), name=mol_name)
        surface = SurfaceQuadrature(bundle.view("q_points"),
                                    bundle.view("q_normals"),
                                    bundle.view("q_weights"))
        # Deterministic rebuild from the shared coordinates (the paper's
        # replicated data): the published plans' node/point ids are valid
        # against these trees.
        atoms = AtomTreeData.build(self.molecule, leaf_cap=params.leaf_cap,
                                   sfc=params.tree_sfc,
                                   compress=params.tree_compress)
        quad = QuadTreeData.build(surface, leaf_cap=params.quad_leaf_cap,
                                  sfc=params.tree_sfc,
                                  compress=params.tree_compress)
        plans = PlanSet(
            born=InteractionPlan.from_arrays(
                plan_meta["born"],
                {f: bundle.view(f"plan_born_{f}")
                 for f in PLAN_ARRAY_FIELDS}),
            epol=InteractionPlan.from_arrays(
                plan_meta["epol"],
                {f: bundle.view(f"plan_epol_{f}")
                 for f in PLAN_ARRAY_FIELDS}))
        plans.born.validate()
        plans.epol.validate()
        self.ranges = LocalRanges(plans, atoms, quad, params.eps_epol)

    def release(self) -> None:
        """Drop every view, then try to unmap the segment (eviction)."""
        self.molecule = self.ranges = None  # type: ignore[assignment]
        try:
            self.bundle.close()
        except BufferError:
            # A view escaped (e.g. a result still referencing the mmap);
            # the mapping stays until process exit -- only memory, never
            # a /dev/shm name, outlives us (the parent owns unlink).
            pass


def _cached_state(cache: dict[str, _WorkerState], name: str, layout: Any,
                  plan_meta: dict, params: ApproximationParams,
                  mol_name: str, live: frozenset[str]
                  ) -> tuple[_WorkerState, bool]:
    """The worker's prepared state for publication ``name`` (attach and
    cache on first sight, LRU-bounded); returns ``(state, cold)``.

    ``live`` names every publication the fleet still serves, as of the
    task: cached state for any other one (an evicted molecule) is
    released first, so its trees and mapped pages go now rather than
    when the LRU bound pushes them out."""
    for stale in [k for k in cache if k not in live]:
        cache.pop(stale).release()
    state = cache.get(name)
    cold = state is None
    if cold:
        state = _WorkerState(SharedArrayBundle.attach(name, layout),
                             plan_meta, params, mol_name)
        cache[name] = state
        while len(cache) > WORKER_CACHE_ENTRIES:
            victim = next(k for k in cache if k != name)
            cache.pop(victim).release()
    return state, cold


def _run_slice(state: _WorkerState, kind: str, scratch: SharedArrayBundle,
               lo: int, hi: int) -> tuple:
    """One row range of a sliced request against its scratch segment.

    Round 1 (``"born_slice"``) writes the range's flat Born values into
    the scratch and returns ``(ran,)``, the ranges the Born phase ran.
    Round 2 returns the range's :data:`~repro.serve.sliced.RangeTerms`
    against the parent-reduced Born radii the scratch holds.  Either way
    the parent's cover check sees the rows this worker executed, not the
    ones it was sent."""
    if kind == "epol_slice":
        (terms,) = state.ranges.epol_phase(
            [(lo, hi)], np.array(scratch.view("born_sorted")))
        return terms
    return (state.ranges.born_phase([(lo, hi)], scratch.view("born_far"),
                                    scratch.view("born_near"))[2],)


def _serve_worker_loop(rank: int, tasks: Any, results: Any) -> None:
    """One warm worker: attach-and-cache molecules, evaluate requests.

    Module-level so the spawn start method can import it by name; the
    loop exits on the pool's shutdown sentinel.  Task kinds: ``"run"``
    (whole-plan evaluation), ``"born_slice"``/``"epol_slice"`` (one row
    range of a sliced request) and :data:`CRASH_NEXT` (test-only fault
    injection).  Evaluation tasks carry the fleet's live publication
    names; the worker drops cached state for any other publication
    before it runs the task (see :func:`_cached_state`).

    A worker runs at most one slice of each round: it hands a second one
    back to the queue for a peer.  A round has at most ``P`` slices, so
    they land on distinct workers; a request cut into ``P`` ranges
    attaches its molecule on every worker, and later requests are warm
    on every rank.
    """
    cache: dict[str, _WorkerState] = {}
    crash_armed = False
    last_round: tuple | None = None
    while True:
        # A worker waiting for its next task has no liveness obligation:
        # the parent's shutdown sentinel is the wakeup, and a dead parent
        # takes the worker with it (daemon process).
        task = tasks.get()  # repro-lint: disable=REP008 -- sentinel-bounded
        if task is None:
            # Drop every cached view before exiting so the mappings close
            # cleanly (no BufferError noise at interpreter shutdown).
            for state in cache.values():
                state.release()
            cache.clear()
            break
        kind = task[0]
        if kind == CRASH_NEXT:
            crash_armed = True
            continue
        if kind in ("born_slice", "epol_slice"):
            # (request, phase, scratch segment) names one round.
            round_key = (task[1], kind, task[8])
            if round_key == last_round:
                tasks.put(task)
                # Let an idle peer take it before this worker polls again.
                threading.Event().wait(SLICE_HANDBACK_SECONDS)
                continue
            last_round = round_key
        req_id = task[1] if len(task) > 1 else None
        if crash_armed:
            # Die with the task already dequeued and no result posted --
            # the shape of a real mid-evaluation worker death.
            os._exit(3)
        try:
            if kind == "run":
                (_, req_id, name, layout, plan_meta, params, mol_name,
                 live) = task
                state, cold = _cached_state(cache, name, layout, plan_meta,
                                            params, mol_name, live)
                t0 = now()
                energy, _ = evaluate_local(state.molecule, state.ranges,
                                           state.params, nparts=1)
                results.put(("ok", req_id, rank, energy, now() - t0, cold))
            elif kind in ("born_slice", "epol_slice"):
                (_, req_id, name, layout, plan_meta, params, mol_name,
                 live, scratch_name, scratch_layout, lo, hi) = task
                state, cold = _cached_state(cache, name, layout, plan_meta,
                                            params, mol_name, live)
                t0 = now()
                scratch = SharedArrayBundle.attach(scratch_name,
                                                   scratch_layout)
                try:
                    out = _run_slice(state, kind, scratch, lo, hi)
                finally:
                    scratch.close()
                if kind == "born_slice":
                    results.put(("born_ok", req_id, rank, lo, hi,
                                 now() - t0, cold) + out)
                else:
                    results.put(("epol_ok", req_id, rank) + out
                                + (now() - t0, cold))
            else:
                raise ValueError(f"unknown worker task kind {kind!r}")
        except BaseException:
            results.put(("error", req_id, rank, traceback.format_exc(),
                         0.0, False))


class ProcessFleet:
    """``P`` warm OS-process workers behind one task queue.

    Requests race for workers (decoy-scoring is embarrassingly parallel
    across requests), molecules are published to shared memory once per
    epsilon configuration, and shutdown is idempotent with finalizer
    backstops at every layer (pool processes, shared segments).
    """

    backend = "real"

    def __init__(self, nworkers: int, *,
                 start_method: str | None = None) -> None:
        self.nworkers = nworkers
        self._pool = PersistentWorkerPool(nworkers, _serve_worker_loop,
                                          start_method=start_method)
        self._lock = threading.Lock()
        self._published: dict[tuple[str, EpsConfig], _Publication] = {}
        self.publications = 0

    @property
    def respawns(self) -> int:
        """Workers replaced after mid-task deaths (degraded-mode count)."""
        return self._pool.respawns

    # -- publication -----------------------------------------------------
    def _ensure_published(self, entry: RegistryEntry,
                          cfg: EpsConfig) -> _Publication:
        pub_key = (entry.key, cfg)
        with self._lock:
            pub = self._published.get(pub_key)
            if pub is not None:
                return pub
        # Plan build (cache-mediated) happens outside the fleet lock.
        plans = entry.plans_for(cfg.eps_born, cfg.eps_epol)
        params = dataclasses.replace(entry.params, eps_born=cfg.eps_born,
                                     eps_epol=cfg.eps_epol)
        bundle = SharedArrayBundle.create(_publication_arrays(entry, plans))
        pub = _Publication(
            bundle=bundle,
            plan_meta={"born": plans.born.meta(), "epol": plans.epol.meta()},
            params=params, mol_name=entry.molecule.name)
        with self._lock:
            race = self._published.get(pub_key)
            if race is not None:  # another thread published first
                bundle.close()
                bundle.unlink()
                return race
            self._published[pub_key] = pub
            self.publications += 1
        return pub

    def _live_names(self) -> frozenset[str]:
        """Segment names of every publication the fleet still serves --
        what each evaluation task carries to its worker."""
        with self._lock:
            return frozenset(pub.bundle.name
                             for pub in self._published.values())

    def forget(self, entry: RegistryEntry) -> None:
        """Registry-eviction hook: unpublish the entry's segments.  Each
        worker releases its cached state for them at its next task, whose
        live publication names no longer include them."""
        with self._lock:
            victims = [k for k in self._published if k[0] == entry.key]
            pubs = [self._published.pop(k) for k in victims]
        for pub in pubs:
            pub.bundle.close()
            pub.bundle.unlink()

    # -- execution -------------------------------------------------------
    def run_batch(self, items: list[tuple[int, RegistryEntry, EpsConfig]]
                  ) -> dict[int, EvalResult]:
        if self._pool.closed:
            raise FleetError("fleet is shut down")
        out: dict[int, EvalResult] = {}
        expected: set[int] = set()
        for req_id, entry, cfg in items:
            try:
                pub = self._ensure_published(entry, cfg)
                self._pool.submit(("run", req_id, pub.bundle.name,
                                   pub.bundle.layout, pub.plan_meta,
                                   pub.params, pub.mol_name,
                                   self._live_names()))
            except PoolError as err:
                raise FleetError(str(err)) from err
            except Exception:
                # A parent-side failure (plan build, publication) fails
                # this request alone; the rest of the batch still runs.
                out[req_id] = EvalResult(energy=float("nan"), worker=-1,
                                         eval_seconds=0.0,
                                         error=traceback.format_exc())
                continue
            expected.add(req_id)
        # Collection is id-based, not count-based: stale results from an
        # earlier aborted sliced request may still be in flight on the
        # shared results queue and must not desynchronise this batch.
        try:
            while expected:
                res = self._pool.next_result()
                kind, req_id = res[0], res[1]
                if req_id not in expected or kind not in ("ok", "error"):
                    continue  # a dead request's straggler slice/result
                expected.discard(req_id)
                if kind == "ok":
                    _, _, rank, energy, secs, cold = res
                    out[req_id] = EvalResult(energy=energy, worker=rank,
                                             eval_seconds=secs,
                                             cold_attach=cold)
                else:
                    _, _, rank, tb, secs, cold = res
                    out[req_id] = EvalResult(energy=float("nan"),
                                             worker=rank, eval_seconds=secs,
                                             error=tb)
        except PoolError as err:
            raise FleetError(str(err)) from err
        return out

    def run_sliced(self, req_id: int, entry: RegistryEntry,
                   cfg: EpsConfig) -> EvalResult:
        """One request fanned over every warm worker, bit-identically.

        The shared pipeline (:func:`~repro.serve.sliced.evaluate_ranges`)
        with the workers as its substrate, in two parent-mediated rounds
        (Fig. 4's two compute phases):

        1. **Born slices** -- workers fill disjoint flat-CSR spans of a
           per-request scratch segment, which the parent then reduces;
        2. **E_pol slices** -- the parent writes the Born radii into the
           scratch and workers return per-row far/near terms against
           them, which the parent folds.

        Raises :class:`SliceError` when a slice fails or its worker dies
        (the pool is respawned to full width first -- later requests
        succeed), when the ranges the workers report running do not tile
        a phase's rows, or when the parent's own part fails (publication,
        scratch, reduction); :class:`FleetError` when the fleet is
        unusable.
        """
        if self._pool.closed:
            raise FleetError("fleet is shut down")
        t0 = now()
        cold: list[bool] = []
        try:
            pub = self._ensure_published(entry, cfg)
            plans = entry.plans_for(cfg.eps_born, cfg.eps_epol)
            atoms = entry.calc.atom_tree()
            nnz_far = plans.born.far_nodes.size
            nnz_near = plans.born.near_points.size
            # Per-request scratch: worker-filled flat Born contributions
            # plus the parent-reduced radii round 2 reads back.
            # Zero-filled; a row no slice ran fails the cover check
            # before the reduce could read it.
            scratch = SharedArrayBundle.create({
                "born_far": np.zeros(max(nnz_far, 1)),
                "born_near": np.zeros(max(nnz_near, 1)),
                "born_sorted": np.zeros(atoms.tree.npoints),
            })
            head = (pub.bundle.name, pub.bundle.layout, pub.plan_meta,
                    pub.params, pub.mol_name, self._live_names(),
                    scratch.name, scratch.layout)

            def born_phase(bounds: Bounds
                           ) -> tuple[np.ndarray, np.ndarray, Bounds]:
                res = self._run_slice_phase(req_id, "born_slice", head,
                                            bounds)
                cold.extend(r[6] for r in res)
                return (scratch.view("born_far")[:nnz_far],
                        scratch.view("born_near")[:nnz_near],
                        [rng for r in res for rng in r[7]])

            def epol_phase(bounds: Bounds,
                           born_sorted: np.ndarray) -> list[RangeTerms]:
                scratch.view("born_sorted")[:] = born_sorted
                res = self._run_slice_phase(req_id, "epol_slice", head,
                                            bounds)
                cold.extend(r[8] for r in res)
                return [r[3:7] for r in res]

            try:
                terms = evaluate_ranges(
                    plans, atoms, born_phase, epol_phase,
                    nparts=self.nworkers,
                    max_radius=2.0 * entry.molecule.bounding_radius,
                    eps_epol=cfg.eps_epol)
                energy = epol_from_pair_sum(
                    fold_pair_terms(terms.far, terms.near),
                    epsilon_solvent=pub.params.epsilon_solvent)
            finally:
                scratch.close()
                scratch.unlink()
        except FleetError:
            raise  # a SliceError already, or the fleet is unusable
        except Exception as err:
            # Anything else failed in this parent, for this request only.
            raise SliceError(
                f"sliced request {req_id} failed: "
                f"{traceback.format_exc()}") from err
        return EvalResult(energy=energy, worker=-1,
                          eval_seconds=now() - t0, cold_attach=any(cold),
                          mode="sliced", nslices=terms.nslices,
                          born_sorted=terms.born_sorted)

    def _run_slice_phase(self, req_id: int, kind: str, head: tuple,
                         bounds: list[tuple[int, int]]) -> list:
        """Dispatch one round of slice tasks and collect its results.

        Id-filtered collection: results for other request ids (stragglers
        of an aborted sliced request) are skipped, never miscounted.  A
        slice error raises :class:`SliceError`; a worker death respawns
        the pool to full width first, so only *this* request fails.
        """
        ok_kind = "born_ok" if kind == "born_slice" else "epol_ok"
        try:
            for lo, hi in bounds:
                self._pool.submit((kind, req_id) + head + (lo, hi))
        except PoolError as err:
            raise FleetError(str(err)) from err
        results: list = []
        while len(results) < len(bounds):
            try:
                res = self._pool.next_result()
            except PoolError as err:
                respawned = self._respawn_or_raise(err)
                raise SliceError(
                    f"worker died mid-slice ({err}); respawned "
                    f"{respawned} worker(s), request {req_id} lost its "
                    "in-flight slice") from err
            if res[1] != req_id:
                continue  # straggler from an earlier failed request
            if res[0] == "error":
                raise SliceError(res[3])
            if res[0] == ok_kind:
                results.append(res)
        return results

    def _respawn_or_raise(self, err: PoolError) -> int:
        """Restore pool width after a worker death; escalate to a fatal
        :class:`FleetError` when no replacement can be started."""
        try:
            replaced = self._pool.respawn()
        except PoolError:
            replaced = 0
        if replaced == 0:
            raise FleetError(str(err)) from err
        return replaced

    # -- lifecycle -------------------------------------------------------
    def shutdown(self) -> None:
        """Stop workers and unlink every published segment.  Idempotent;
        also reachable via GC finalizers on the pool and the bundles."""
        self._pool.shutdown()
        with self._lock:
            pubs = list(self._published.values())
            self._published.clear()
        for pub in pubs:
            pub.bundle.close()
            pub.bundle.unlink()

    def __enter__(self) -> "ProcessFleet":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def make_fleet(backend: str, workers: int, *,
               start_method: str | None = None
               ) -> InlineFleet | ProcessFleet:
    """The fleet of a serving backend, ``workers`` wide on either:
    ``"real"`` keeps that many warm OS processes, ``"sim"`` cuts a sliced
    request into that many ranges and runs them in turn inline."""
    if backend == "real":
        return ProcessFleet(workers, start_method=start_method)
    if backend == "sim":
        return InlineFleet(workers)
    raise ValueError(f"unknown serve backend {backend!r}")
