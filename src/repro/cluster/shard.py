"""One simulated cluster node: a shard-local registry, fleet and server.

A :class:`ShardNode` is exactly the single-node serving stack of
:mod:`repro.serve` -- its own :class:`~repro.serve.registry.MoleculeRegistry`,
its own warm :class:`~repro.serve.fleet.InlineFleet` or
:class:`~repro.serve.fleet.ProcessFleet`, its own
:class:`~repro.serve.scheduler.EpolServer` -- wrapped with the three
things the routing tier needs on top:

* a **shared clock** -- the shard's metrics timestamp with the
  cluster's injected clock, so per-shard spans merge coherently;
* an **eviction listener** -- registry evictions keep firing the
  server's fleet-unpublish hook *and* notify the router, so the
  placement map never claims a replica the shard dropped;
* a **busy ledger** -- seconds of donated row-range execution are
  attributed to the shard that computed them (the measured half of the
  modeled makespan; the network half lives in
  :class:`~repro.cluster.metrics.TrafficLedger`).
"""

from __future__ import annotations

import threading
from typing import Callable

from ..serve.fleet import make_fleet
from ..serve.metrics import ServeMetrics
from ..serve.registry import RegistryEntry
from ..serve.scheduler import EpolServer, ServeConfig


class ShardNode:
    """One cluster node: ``node_id`` plus a complete serving stack."""

    def __init__(self, node_id: str, *, backend: str = "sim",
                 workers: int = 1, config: ServeConfig | None = None,
                 start_method: str | None = None,
                 clock: Callable[[], float] | None = None) -> None:
        if not node_id:
            raise ValueError("node_id must be non-empty")
        self.node_id = node_id
        self.server = EpolServer(
            fleet=make_fleet(backend, workers, start_method=start_method),
            config=config, metrics=ServeMetrics(clock=clock))
        self._busy_lock = threading.Lock()
        self._busy_seconds = 0.0
        self._evict_listener: Callable[[str, str], None] | None = None
        # Chain the router's placement cleanup onto the server's own
        # fleet-unpublish hook: one eviction path no matter who drops
        # the entry (LRU budget, explicit demotion, clear()).
        server_on_evict = self.server.registry.on_evict

        def _on_evict(entry: RegistryEntry) -> None:
            if server_on_evict is not None:
                server_on_evict(entry)
            listener = self._evict_listener
            if listener is not None:
                listener(self.node_id, entry.key)

        self.server.registry.on_evict = _on_evict

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ShardNode":
        self.server.start()
        return self

    def stop(self) -> None:
        self.server.stop()

    # -- router-facing surface -------------------------------------------
    @property
    def registry(self):
        return self.server.registry

    @property
    def metrics(self) -> ServeMetrics:
        return self.server.metrics

    def queue_depth(self) -> int:
        """Requests waiting on this shard (the saturation signal)."""
        return self.server.queue_depth()

    def set_evict_listener(self, listener: Callable[[str, str], None]
                           ) -> None:
        """Install ``fn(node_id, key)`` called on every registry
        eviction (after the fleet unpublish)."""
        self._evict_listener = listener

    def add_busy(self, seconds: float) -> None:
        """Attribute measured execution seconds (donated row ranges run
        inline by the router) to this shard."""
        with self._busy_lock:
            self._busy_seconds += float(seconds)

    @property
    def busy_seconds(self) -> float:
        with self._busy_lock:
            return self._busy_seconds
