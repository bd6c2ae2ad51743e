"""The routing tier: consistent-hash forwarding, replication, donation.

:class:`ClusterRouter` is the cluster's front door and a drop-in
``server`` for :class:`~repro.serve.client.ServeClient` (it exposes the
same ``register``/``submit`` surface as
:class:`~repro.serve.scheduler.EpolServer`).  Per request it decides
three things, none of which can change a served energy:

* **where** -- the consistent-hash ring names the owning shard; with
  hot-molecule replication the request goes to the least-loaded warm
  replica (deterministic tie-break by node id);
* **backpressure** -- a full shard queue surfaces as
  :class:`~repro.serve.scheduler.RejectedError` *to the submitting
  client*, wrapped with the shard's identity and re-raised from the
  shard's own rejection -- never swallowed (the router/donation
  protocol model checks exactly this, RV406);
* **donation** -- when the target shard is saturated
  (:func:`repro.serve.policy.decide_donation`) and other shards are
  idle, a large request runs the one row-range pipeline of
  :mod:`repro.serve.sliced` with the idle shards as its substrate: the
  owner cuts weight-balanced row ranges exactly as the fleets do, each
  range executes on a donee's own warm entry
  (:class:`~repro.serve.sliced.LocalRanges`), and the owner replays the
  serial reduction -- bit-identical to the cold path however the ranges
  are placed (positional writes, serial replay).

Every byte the tier moves -- forwards, results, replica pushes, donated
tasks/partials/broadcasts -- is charged through
:meth:`~repro.parallel.machine.NetworkSpec.p2p_cost` into the
:class:`~repro.cluster.metrics.TrafficLedger`; together with measured
per-shard busy seconds this yields the modeled cluster makespan and
throughput that ``BENCH_cluster.json`` reports (the paper's Section
IV.C cost model, applied to serving).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..analysis_static.model.annotations import protocol_event
from ..core.energy import epol_from_pair_sum
from ..core.params import ApproximationParams
from ..molecule.molecule import Molecule
from ..parallel.machine import LONESTAR4_NETWORK, NetworkSpec
from ..serve.client import ServeFuture
from ..plan.executor import born_spans
from ..serve.fleet import EpsConfig
from ..serve.policy import MODE_DONATED, decide_donation
from ..serve.registry import RegistryEntry, content_key
from ..serve.scheduler import RejectedError, ServeConfig
from ..serve.sliced import (Bounds, LocalRanges, RangeTerms,
                            evaluate_ranges, fold_pair_terms)
from .metrics import TrafficLedger, aggregate_metrics, cluster_now
from .ring import HashRing
from .shard import ShardNode


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of the cluster fabric (one immutable bag)."""

    #: Simulated shard nodes.
    nodes: int = 2
    #: Per-shard fleet backend: ``"sim"`` (inline) or ``"real"``
    #: (warm OS processes).
    backend: str = "sim"
    #: Per-shard fleet width.
    workers: int = 1
    #: multiprocessing start method for ``backend="real"`` shards.
    start_method: str | None = None
    #: Virtual nodes per shard on the consistent-hash ring.
    vnodes: int = 64
    #: Warm copies per hot molecule (owner included); 1 = no replication.
    replication_factor: int = 1
    #: How many hit-ranked molecules to keep replicated (0 disables).
    hot_top_k: int = 0
    #: Re-rank the hot set every this many submissions.
    promote_every: int = 32
    #: A molecule must be hit at least this often to be promoted.
    min_hits_to_promote: int = 2
    #: Queue depth at/above which the target shard counts as saturated
    #: and large requests fan out to idle shards (None disables).
    donation_saturation_depth: int | None = None
    #: Minimum plan row weight for a request to be worth donating.
    donation_min_row_weight: float = 0.0
    #: Modeled wire size of one forwarded request descriptor.
    request_nbytes: int = 96
    #: Modeled wire size of one scalar energy result.
    result_nbytes: int = 64
    #: Per-shard serving configuration.
    serve: ServeConfig = field(default_factory=ServeConfig)
    #: The t_s/t_w cost model every routed byte is charged through.
    network: NetworkSpec = LONESTAR4_NETWORK

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.hot_top_k < 0:
            raise ValueError("hot_top_k must be >= 0")
        if self.promote_every < 1:
            raise ValueError("promote_every must be >= 1")
        if (self.donation_saturation_depth is not None
                and self.donation_saturation_depth < 0):
            raise ValueError(
                "donation_saturation_depth must be >= 0 (or None)")
        if self.request_nbytes < 0 or self.result_nbytes < 0:
            raise ValueError("modeled message sizes must be >= 0")


def _molecule_nbytes(molecule: Molecule) -> int:
    """Modeled wire size of shipping one molecule's defining arrays."""
    return int(molecule.positions.nbytes + molecule.radii.nbytes
               + molecule.charges.nbytes)


class ClusterRouter:
    """Consistent-hash routing over N :class:`ShardNode` serving stacks.

    Drop-in ``server`` for :class:`~repro.serve.client.ServeClient`::

        with ClusterRouter(ClusterConfig(nodes=4)) as router:
            key = router.register(molecule)
            energy = router.submit(key).result(timeout=60.0)
    """

    def __init__(self, config: ClusterConfig | None = None, *,
                 clock: Callable[[], float] | None = None) -> None:
        self.config = config if config is not None else ClusterConfig()
        self._clock = clock if clock is not None else cluster_now
        cfg = self.config
        node_ids = [f"node{i:02d}" for i in range(cfg.nodes)]
        self.ring = HashRing(node_ids, vnodes=cfg.vnodes)
        self.traffic = TrafficLedger(cfg.network)
        self.shards: dict[str, ShardNode] = {
            node_id: ShardNode(node_id, backend=cfg.backend,
                               workers=cfg.workers, config=cfg.serve,
                               start_method=cfg.start_method,
                               clock=self._clock)
            for node_id in node_ids}
        for shard in self.shards.values():
            shard.set_evict_listener(self._on_shard_evict)
        self._lock = threading.Lock()
        #: key -> node ids holding a warm copy (owner first historically;
        #: order is registration order, membership is what matters).
        self._placement: dict[str, list[str]] = {}
        self._hits: dict[str, int] = {}
        self._mol_nbytes: dict[str, int] = {}
        self._assigned_weight: dict[str, float] = {}
        self._submissions = 0
        self._served: list[tuple[str, ServeFuture]] = []
        self.counters = {
            "routed": 0, "rejected": 0, "replica_hits": 0,
            "donations": 0, "donated_ranges": 0,
            "promotions": 0, "demotions": 0,
        }

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ClusterRouter":
        for node_id in sorted(self.shards):
            self.shards[node_id].start()
        return self

    def stop(self) -> None:
        for node_id in sorted(self.shards):
            self.shards[node_id].stop()

    def __enter__(self) -> "ClusterRouter":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- placement -------------------------------------------------------
    def register(self, molecule: Molecule,
                 params: ApproximationParams | None = None) -> str:
        """Register a molecule on its owning shard; returns the content
        key (idempotent, like :meth:`EpolServer.register`)."""
        params = params if params is not None else ApproximationParams()
        key = content_key(molecule, params)
        owner = self.ring.owner(key)
        nbytes = _molecule_nbytes(molecule)
        with self._lock:
            known = owner in self._placement.get(key, ())
            self._mol_nbytes[key] = nbytes
        if not known:
            # Shipping the molecule to its shard costs wire like any
            # other routed bytes (a warm cache is not a free cache).
            self.traffic.charge(owner, nbytes, kind="register")
        self.shards[owner].server.register(molecule, params)
        self._record_placement(key, owner)
        return key

    def _record_placement(self, key: str, node_id: str) -> None:
        with self._lock:
            nodes = self._placement.setdefault(key, [])
            if node_id not in nodes:
                nodes.append(node_id)

    def _on_shard_evict(self, node_id: str, key: str) -> None:
        """Registry-eviction listener: a shard dropped its copy, so the
        placement map must stop routing there."""
        with self._lock:
            nodes = self._placement.get(key)
            if nodes is not None and node_id in nodes:
                nodes.remove(node_id)
                if not nodes:
                    del self._placement[key]

    def locations(self, key: str) -> list[str]:
        """Shards currently holding a warm copy of ``key`` (sorted)."""
        with self._lock:
            return sorted(self._placement.get(key, ()))

    # -- request path ----------------------------------------------------
    @protocol_event("cluster", "submit")
    def submit(self, key: str, *, eps_born: float | None = None,
               eps_epol: float | None = None) -> ServeFuture:
        """Route one request to a shard holding ``key`` (or donate it).

        Raises :class:`KeyError` for unregistered molecules and
        re-raises shard :class:`RejectedError` backpressure to the
        caller (who owns the retry policy, exactly as against a
        single-node server).
        """
        cfg = self.config
        with self._lock:
            self._submissions += 1
            nsub = self._submissions
            self._hits[key] = self._hits.get(key, 0) + 1
        if nsub % cfg.promote_every == 0:
            self._rebalance_replicas()
        with self._lock:
            locations = list(self._placement.get(key, ()))
        if not locations:
            raise KeyError(
                f"molecule {key!r} is not registered with the cluster "
                "(evicted everywhere, or never submitted through "
                "register())")
        owner = self.ring.owner(key)
        target = self._choose_target(locations)
        entry = self.shards[target].registry.get(key)
        eps = EpsConfig.resolve(entry.params, eps_born, eps_epol)
        row_weight = entry.row_weight(eps.eps_born, eps.eps_epol)
        with self._lock:
            self._assigned_weight[target] = (
                self._assigned_weight.get(target, 0.0) + row_weight)
            if target != owner:
                self.counters["replica_hits"] += 1
        idle = sorted(node_id for node_id in self.shards
                      if node_id != target
                      and self.shards[node_id].queue_depth() == 0)
        if decide_donation(row_weight, self.shards[target].queue_depth(),
                           len(idle),
                           saturation_depth=cfg.donation_saturation_depth,
                           min_row_weight=cfg.donation_min_row_weight):
            return self._donate(key, target, idle, eps, entry)
        return self._forward(key, target, eps_born=eps_born,
                             eps_epol=eps_epol)

    def _choose_target(self, locations: list[str]) -> str:
        """Least-assigned-weight warm replica, node id as tie-break --
        deterministic given submission history."""
        with self._lock:
            return min(sorted(locations),
                       key=lambda n: (self._assigned_weight.get(n, 0.0), n))

    @protocol_event("cluster", "forward")
    def _forward(self, key: str, node_id: str, *,
                 eps_born: float | None,
                 eps_epol: float | None) -> ServeFuture:
        """Forward one request to ``node_id``'s server, charging the
        request/result wire both ways; shard backpressure re-raises to
        the caller wrapped with the shard's identity."""
        self.traffic.charge(node_id, self.config.request_nbytes,
                            kind="route")
        try:
            future = self.shards[node_id].server.submit(
                key, eps_born=eps_born, eps_epol=eps_epol)
        except RejectedError as err:
            self._shard_rejected(node_id, key)
            raise RejectedError(
                f"shard {node_id} rejected molecule {key!r}: {err}"
            ) from err
        self.traffic.charge(node_id, self.config.result_nbytes,
                            kind="result")
        with self._lock:
            self.counters["routed"] += 1
            self._served.append((node_id, future))
        return future

    @protocol_event("cluster", "reject")
    def _shard_rejected(self, node_id: str, key: str) -> None:
        """Count one shard rejection (the observable ``reject`` event of
        the router protocol model; the caller re-raises)."""
        with self._lock:
            self.counters["rejected"] += 1

    # -- replication -----------------------------------------------------
    def _rebalance_replicas(self) -> None:
        """Re-rank molecules by hit count; promote the top-k onto their
        deterministic replica sets, demote everything else's non-owner
        copies through the registry eviction hook."""
        cfg = self.config
        if cfg.hot_top_k < 1 or cfg.replication_factor < 2:
            return
        with self._lock:
            ranked = sorted(self._hits.items(),
                            key=lambda kv: (-kv[1], kv[0]))
            hot = [k for k, hits in ranked[:cfg.hot_top_k]
                   if hits >= cfg.min_hits_to_promote]
            snapshot = {k: list(v) for k, v in self._placement.items()}
        hot_set = set(hot)
        for key in hot:
            for node_id in self.ring.replicas(key, cfg.replication_factor):
                if node_id not in snapshot.get(key, ()):
                    self._ensure_registered(key, node_id, kind="replicate")
        for key, nodes in snapshot.items():
            if key in hot_set:
                continue
            owner = self.ring.owner(key)
            for node_id in nodes:
                if node_id == owner:
                    continue
                # evict() fires the shard's listener, which updates the
                # placement map; count only actual drops.
                if self.shards[node_id].registry.evict(key):
                    with self._lock:
                        self.counters["demotions"] += 1

    def _ensure_registered(self, key: str, node_id: str, *,
                           kind: str) -> RegistryEntry:
        """Warm ``key`` on ``node_id`` (idempotent), charging the
        molecule's bytes as ``kind`` traffic on a cold push."""
        shard = self.shards[node_id]
        if key not in shard.registry:
            with self._lock:
                source_nodes = list(self._placement.get(key, ()))
                nbytes = self._mol_nbytes.get(key, 0)
            if not source_nodes:
                raise KeyError(f"molecule {key!r} has no warm copy left")
            source = self.shards[sorted(source_nodes)[0]].registry.get(key)
            self.traffic.charge(node_id, nbytes, kind=kind)
            shard.server.register(source.molecule, source.params)
            self._record_placement(key, node_id)
            if kind == "replicate":
                with self._lock:
                    self.counters["promotions"] += 1
        return shard.registry.get(key)

    # -- work donation ---------------------------------------------------
    @protocol_event("cluster", "donate")
    def _donate(self, key: str, owner_id: str, donees: list[str],
                eps: EpsConfig, entry: RegistryEntry) -> ServeFuture:
        """Serve one request by row-range fan-out over idle shards.

        The owner runs the shared pipeline over ``len(donees)``
        weight-balanced ranges per phase; each range executes against a
        donee's *own* warm entry (deterministically rebuilt -> identical
        plans) and the owner replays the serial reduction.  Failures
        settle the future, exactly like shard-side serving.
        """
        future = ServeFuture(key=key)
        owner = self.shards[owner_id]
        owner.metrics.record_admission(True)
        t0 = self._clock()

        def born_phase(bounds: Bounds) -> tuple[np.ndarray, np.ndarray]:
            # Donees write their spans into the owner's flat arrays; the
            # span bytes are what the wire would carry back.
            far = np.zeros(plans.born.far_nodes.shape)
            near = np.zeros(plans.born.near_points.shape)

            def run(donee: LocalRanges, lo: int, hi: int) -> int:
                donee.born_phase([(lo, hi)], far, near)
                far_span, near_span = born_spans(plans.born, lo, hi)
                return int(far[far_span].nbytes + near[near_span].nbytes)

            self._donate_phase(key, owner_id, donees, eps, bounds, run)
            return far, near

        def epol_phase(bounds: Bounds,
                       born_sorted: np.ndarray) -> list[RangeTerms]:
            out: list[RangeTerms] = []

            def run(donee: LocalRanges, lo: int, hi: int) -> int:
                out.extend(donee.epol_phase([(lo, hi)], born_sorted))
                return int(out[-1][2].nbytes + out[-1][3].nbytes)

            # Every donee of this phase first receives the Born radii.
            self._donate_phase(key, owner_id, donees, eps, bounds, run,
                               broadcast_nbytes=int(born_sorted.nbytes))
            return out

        try:
            plans = entry.plans_for(eps.eps_born, eps.eps_epol)
            terms = evaluate_ranges(
                plans, entry.calc.atom_tree(), born_phase, epol_phase,
                nparts=len(donees),
                max_radius=2.0 * entry.molecule.bounding_radius,
                eps_epol=eps.eps_epol)
            energy = self._donate_finish(entry, terms.far, terms.near)
        except Exception as err:
            owner.metrics.record_done(self._clock() - t0, ok=False,
                                      mode=MODE_DONATED)
            future._reject(err)
            return future
        latency = self._clock() - t0
        owner.metrics.record_done(latency, ok=True, mode=MODE_DONATED)
        nranges = terms.born_ranges + terms.epol_ranges
        with self._lock:
            self.counters["donations"] += 1
            self.counters["donated_ranges"] += nranges
        future._resolve(energy, worker=-1, eval_seconds=latency,
                        cold_attach=False, latency_seconds=latency,
                        mode=MODE_DONATED, nslices=nranges,
                        donees=donees[:terms.nslices])
        return future

    @protocol_event("cluster", "exec")
    def _donate_phase(self, key: str, owner_id: str, donees: list[str],
                      eps: EpsConfig, bounds: Bounds,
                      run_one: Callable[[LocalRanges, int, int], int], *,
                      broadcast_nbytes: int = 0) -> None:
        """One donated phase: range ``i`` executes on donee ``i`` (both
        orderings deterministic), against the donee's own warm entry.  A
        donee is registered only when it is handed a range, and first
        receives the phase's broadcast; task bytes are charged to the
        donee, measured execution seconds (registration excluded)
        attributed to it, and the partial's bytes charged back to the
        owner."""
        for node_id, (lo, hi) in zip(donees, bounds):
            donee = self._ensure_registered(key, node_id,
                                            kind="donate_publish")
            if broadcast_nbytes:
                self.traffic.charge(node_id, broadcast_nbytes,
                                    kind="donate_broadcast")
            self.traffic.charge(node_id, self.config.request_nbytes,
                                kind="donate_task")
            t1 = self._clock()
            result_nbytes = run_one(LocalRanges.for_entry(
                donee, eps.eps_born, eps.eps_epol), lo, hi)
            self.shards[node_id].add_busy(self._clock() - t1)
            self.traffic.charge(owner_id, result_nbytes,
                                kind="donate_result")

    @protocol_event("cluster", "reduce")
    def _donate_finish(self, entry: RegistryEntry, far_terms: np.ndarray,
                       near_terms: np.ndarray) -> float:
        """The owner's serial replay: interleaved left fold of the
        per-row terms, then the scalar energy -- the same reduction a
        cold run performs, so donation cannot move a bit."""
        pair_sum = fold_pair_terms(far_terms, near_terms)
        return epol_from_pair_sum(
            pair_sum, epsilon_solvent=entry.params.epsilon_solvent)

    # -- reporting -------------------------------------------------------
    def modeled_report(self) -> dict:
        """Modeled cluster timing: per-shard busy (measured evaluation
        seconds of routed requests + donated-range execution) plus
        charged network seconds; makespan is the slowest shard and
        modeled throughput is completions over that makespan."""
        busy = {node_id: shard.busy_seconds
                for node_id, shard in self.shards.items()}
        completed = 0
        with self._lock:
            served = list(self._served)
            donations = self.counters["donations"]
        for node_id, future in served:
            if not future.done() or future._error is not None:
                continue
            completed += 1
            busy[node_id] += float(future.detail.get("eval_seconds", 0.0))
        completed += donations
        per_node = {
            node_id: {
                "busy_seconds": busy[node_id],
                "network_seconds": self.traffic.node_seconds(node_id),
                "total_seconds": (busy[node_id]
                                  + self.traffic.node_seconds(node_id)),
            }
            for node_id in sorted(busy)}
        makespan = max((v["total_seconds"] for v in per_node.values()),
                       default=0.0)
        return {
            "per_node": per_node,
            "makespan_seconds": makespan,
            "completed": completed,
            "throughput_rps": completed / makespan if makespan > 0
            else 0.0,
        }

    def stats(self) -> dict:
        """Cluster-wide statistics: merged serving metrics, routing
        counters, per-shard breakdowns, traffic and the modeled report
        (JSON-ready -- the BENCH_cluster.json payload per node count)."""
        merged = aggregate_metrics(
            [shard.metrics for shard in self.shards.values()],
            clock=self._clock)
        out = merged.snapshot()
        with self._lock:
            counters = dict(self.counters)
            placement = {key: sorted(nodes)
                         for key, nodes in sorted(self._placement.items())}
        out["cluster"] = {
            "nodes": len(self.shards),
            "vnodes": self.config.vnodes,
            "replication_factor": self.config.replication_factor,
            "hot_top_k": self.config.hot_top_k,
            "backend": self.config.backend,
            "workers": self.config.workers,
            **counters,
            "replicated_keys": sum(1 for nodes in placement.values()
                                   if len(nodes) > 1),
        }
        out["shards"] = {
            node_id: {
                "queue_depth": shard.queue_depth(),
                "busy_seconds": shard.busy_seconds,
                "registry": shard.registry.stats(),
            }
            for node_id, shard in sorted(self.shards.items())}
        out["traffic"] = self.traffic.snapshot()
        out["modeled"] = self.modeled_report()
        return out
