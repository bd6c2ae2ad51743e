"""The micro-batching scheduler: bounded admission, grouped dispatch.

:class:`EpolServer` owns the request path end to end:

* **admission** -- ``submit`` appends to a bounded queue under a lock; a
  full queue raises :class:`RejectedError` *immediately* (explicit
  backpressure, never a silent drop and never a blocked producer), and a
  stopped server raises :class:`ServerClosed`;
* **micro-batching** -- the scheduler thread takes the oldest waiting
  request, then holds the batch open up to ``max_wait_seconds`` (or until
  ``max_batch`` requests are waiting) so bursts ride together;
* **grouping** -- within a batch, requests sharing a ``(molecule,
  epsilon)`` configuration are grouped in first-seen order, so the fleet
  publishes/builds each configuration once and executes it many times;
* **routing** -- with a ``slice_threshold`` configured, each group is
  routed by the pure policy of :mod:`repro.serve.policy`: small
  molecules micro-batch with peers (throughput), giant molecules are
  row-sliced across every warm worker (latency,
  :meth:`~repro.serve.fleet.ProcessFleet.run_sliced`); the decision
  reads only the group's plan row weight, the threshold and the queue
  depth at dispatch;
* **resolution** -- fleet results resolve the per-request futures and
  feed :class:`~repro.serve.metrics.ServeMetrics` (tagged with their
  execution ``mode`` and slice count).

Determinism: batching, grouping and routing only decide *when and where*
a request evaluates, never *what* it evaluates -- batched and sliced
requests alike run the row-range pipeline of :mod:`repro.serve.sliced`
and its order-preserving replay (one range or many, see
:mod:`repro.serve.fleet`), so arrival order, batch boundaries, fleet
width and routing mode cannot change a single bit of any served energy.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field

from ..core.params import ApproximationParams
from ..molecule.molecule import Molecule
from .client import ServeFuture
from .fleet import (EpsConfig, FleetError, InlineFleet, ProcessFleet,
                    SliceError)
from .metrics import ServeMetrics, now
from .policy import MODE_SLICED, decide_mode
from .registry import MoleculeRegistry, RegistryEntry


class RejectedError(RuntimeError):
    """Admission control: the request queue is full; resubmit later."""


class ServerClosed(RuntimeError):
    """The server is not accepting requests (stopped or never started)."""


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the serving layer (one immutable bag)."""

    #: Most requests one batch may carry.
    max_batch: int = 16
    #: Seconds the scheduler holds a batch open for stragglers.
    max_wait_seconds: float = 0.002
    #: Bound on requests waiting for a batch (admission control).
    queue_capacity: int = 128
    #: Optional registry byte budget (LRU over warm molecules).
    registry_max_bytes: int | None = None
    #: Optional per-molecule plan-cache byte budget.
    plan_cache_bytes: int | None = None
    #: Plan row weight at/above which a request is row-sliced across the
    #: whole fleet instead of micro-batched (``None`` disables
    #: intra-request parallelism -- the PR-4 behaviour).
    slice_threshold: float | None = None
    #: Queue-depth scaling of the slice threshold: each waiting request
    #: raises the effective threshold by this fraction of the base (a
    #: deep queue already saturates the fleet across requests).
    slice_queue_scale: float = 0.0
    #: Seconds ``stop`` waits for the scheduler thread to drain and exit.
    stop_join_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be >= 0")
        if self.slice_threshold is not None and self.slice_threshold <= 0:
            raise ValueError("slice_threshold must be > 0 (or None)")
        if self.slice_queue_scale < 0:
            raise ValueError("slice_queue_scale must be >= 0")
        if self.stop_join_seconds <= 0:
            raise ValueError("stop_join_seconds must be > 0")


@dataclass
class _Request:
    req_id: int
    key: str
    cfg: EpsConfig
    future: ServeFuture
    submitted_at: float = field(default_factory=now)


class EpolServer:
    """Batched, cached :math:`E_{pol}` serving over a warm fleet.

    Typical assembly (or use :func:`repro.serve.make_server`)::

        server = EpolServer(fleet=ProcessFleet(4))
        server.start()
        key = server.register(molecule)
        future = server.submit(key)
        energy = future.result(timeout=60.0)
        server.stop()
    """

    def __init__(self, fleet: InlineFleet | ProcessFleet | None = None, *,
                 registry: MoleculeRegistry | None = None,
                 config: ServeConfig | None = None,
                 metrics: ServeMetrics | None = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.fleet = fleet if fleet is not None else InlineFleet()
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.registry = registry if registry is not None else \
            MoleculeRegistry(max_bytes=self.config.registry_max_bytes,
                             plan_cache_bytes=self.config.plan_cache_bytes)
        # Evictions must unpublish the fleet's shared state for the entry.
        self.registry.on_evict = self._on_evict
        self._ids = itertools.count()
        self._pending: deque[_Request] = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._running = False
        self._stopped = False
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "EpolServer":
        """Start the scheduler thread (idempotent)."""
        with self._lock:
            if self._running:
                return self
            if self._stopped:
                raise ServerClosed("server cannot be restarted after stop()")
            self._running = True
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-serve-scheduler",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop serving.  Idempotent.

        ``drain=True`` lets already-admitted requests finish; ``False``
        rejects them.  Either way the fleet is shut down afterwards.
        """
        with self._lock:
            self._stopped = True
            if not drain:
                while self._pending:
                    req = self._pending.popleft()
                    req.future._reject(ServerClosed("server stopped"))
                    self.metrics.record_done(0.0, ok=False)
            self._wakeup.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=self.config.stop_join_seconds)
            self._thread = None
        self._running = False
        self.fleet.shutdown()

    def __enter__(self) -> "EpolServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- request path ----------------------------------------------------
    def register(self, molecule: Molecule,
                 params: ApproximationParams | None = None) -> str:
        """Idempotently register a molecule; returns its content key."""
        return self.registry.register(molecule, params)

    def submit(self, key: str, *, eps_born: float | None = None,
               eps_epol: float | None = None) -> ServeFuture:
        """Admit one request for registered molecule ``key``.

        Raises :class:`RejectedError` when the queue is full (the caller
        owns the retry policy -- see
        :meth:`repro.serve.client.ServeClient.submit`) and
        :class:`ServerClosed` when the server is not running.
        """
        if self._stopped or not self._running:
            raise ServerClosed("server is not accepting requests")
        # Resolve the epsilon config against the entry's own params so
        # identical requests group regardless of explicit-vs-default eps.
        entry = self.registry.get(key)  # KeyError for unknown molecules
        cfg = EpsConfig.resolve(entry.params, eps_born, eps_epol)
        with self._lock:
            if self._stopped or not self._running:
                raise ServerClosed("server is not accepting requests")
            if len(self._pending) >= self.config.queue_capacity:
                self.metrics.record_admission(False)
                raise RejectedError(
                    f"queue full ({self.config.queue_capacity} waiting); "
                    "retry after in-flight requests drain")
            req = _Request(req_id=next(self._ids), key=key, cfg=cfg,
                           future=ServeFuture(key=key))
            self._pending.append(req)
            self.metrics.record_admission(True)
            self._wakeup.notify_all()
        return req.future

    def queue_depth(self) -> int:
        """Requests admitted but not yet taken into a batch -- the
        cluster router's saturation signal for work donation."""
        with self._lock:
            return len(self._pending)

    # -- scheduler internals ----------------------------------------------
    def _take_batch(self) -> list[_Request] | None:
        """Block for the next micro-batch; None once stopped and drained."""
        cfg = self.config
        with self._wakeup:
            while not self._pending:
                if self._stopped:
                    return None
                self._wakeup.wait(timeout=0.1)
            first_seen = now()
            # Hold the batch open for stragglers (micro-batching window).
            while (len(self._pending) < cfg.max_batch
                   and not self._stopped
                   and now() - first_seen < cfg.max_wait_seconds):
                remaining = cfg.max_wait_seconds - (now() - first_seen)
                self._wakeup.wait(timeout=max(remaining, 1e-4))
            n = min(len(self._pending), cfg.max_batch)
            return [self._pending.popleft() for _ in range(n)]

    def _loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            self._execute(batch)

    def _execute(self, batch: list[_Request]) -> None:
        # Group requests sharing a (molecule, eps) configuration, in
        # first-seen order (deterministic given the batch content).
        groups: dict[tuple[str, EpsConfig], list[_Request]] = {}
        for req in batch:
            groups.setdefault((req.key, req.cfg), []).append(req)
        self.metrics.record_batch(len(batch), len(groups))
        # Queue depth sampled once per dispatch -- the policy's load
        # signal (requests admitted after this point see the next batch).
        with self._lock:
            depth = len(self._pending)

        items: list[tuple[int, RegistryEntry, EpsConfig]] = []
        by_id: dict[int, _Request] = {}
        sliced: list[tuple[_Request, RegistryEntry, EpsConfig]] = []
        can_slice = (self.config.slice_threshold is not None
                     and hasattr(self.fleet, "run_sliced"))
        for (key, cfg), reqs in groups.items():
            try:
                entry = self.registry.get(key)
            except KeyError as err:
                for req in reqs:
                    req.future._reject(err)
                    self.metrics.record_done(0.0, ok=False)
                continue
            mode = "batched"
            if can_slice:
                mode = decide_mode(
                    entry.row_weight(cfg.eps_born, cfg.eps_epol),
                    threshold=self.config.slice_threshold,
                    queue_depth=depth,
                    queue_scale=self.config.slice_queue_scale)
            if mode == MODE_SLICED:
                for req in reqs:
                    sliced.append((req, entry, cfg))
            else:
                for req in reqs:
                    items.append((req.req_id, entry, cfg))
                    by_id[req.req_id] = req

        # Batched group first: small peers are not held hostage by a
        # giant request commandeering the whole fleet.
        if items:
            try:
                results = self.fleet.run_batch(items)
            except FleetError as err:
                # The fleet is unusable (worker death/shutdown): fail this
                # batch loudly and stop admitting.
                for req in by_id.values():
                    req.future._reject(err)
                    self.metrics.record_done(0.0, ok=False)
                for req, _, _ in sliced:
                    req.future._reject(err)
                    self.metrics.record_done(0.0, ok=False,
                                             mode=MODE_SLICED)
                with self._lock:
                    self._stopped = True
                return
            for req_id, req in by_id.items():
                res = results.get(req_id)
                latency = now() - req.submitted_at
                if res is None or res.error is not None:
                    msg = (res.error if res is not None
                           else "no result returned")
                    req.future._reject(FleetError(msg))
                    self.metrics.record_done(latency, ok=False)
                else:
                    req.future._resolve(res.energy, worker=res.worker,
                                        eval_seconds=res.eval_seconds,
                                        cold_attach=res.cold_attach,
                                        latency_seconds=latency,
                                        mode=res.mode, nslices=res.nslices)
                    self.metrics.record_done(latency, ok=True,
                                             mode=res.mode,
                                             nslices=res.nslices)

        # Sliced requests run one at a time -- each owns the whole fleet.
        for req, entry, cfg in sliced:
            try:
                res = self.fleet.run_sliced(req.req_id, entry, cfg)
            except SliceError as err:
                # Request-scoped failure: the fleet recovered (dead
                # workers respawned); keep serving.
                req.future._reject(err)
                self.metrics.record_done(now() - req.submitted_at,
                                         ok=False, mode=MODE_SLICED)
                continue
            except FleetError as err:
                req.future._reject(err)
                self.metrics.record_done(0.0, ok=False, mode=MODE_SLICED)
                with self._lock:
                    self._stopped = True
                return
            latency = now() - req.submitted_at
            req.future._resolve(res.energy, worker=res.worker,
                                eval_seconds=res.eval_seconds,
                                cold_attach=res.cold_attach,
                                latency_seconds=latency,
                                mode=res.mode, nslices=res.nslices)
            self.metrics.record_done(latency, ok=True, mode=res.mode,
                                     nslices=res.nslices)

    def _on_evict(self, entry: RegistryEntry) -> None:
        self.fleet.forget(entry)

    # -- reporting ---------------------------------------------------------
    def stats(self) -> dict:
        """Serving + registry/plan-cache statistics (JSON-ready)."""
        out = self.metrics.snapshot()
        out["registry"] = self.registry.stats()
        out["backend"] = self.fleet.backend
        out["nworkers"] = self.fleet.nworkers
        if isinstance(self.fleet, ProcessFleet):
            out["publications"] = self.fleet.publications
            out["respawns"] = self.fleet.respawns
        return out
