"""``repro.cluster``: a sharded multi-node serving fabric (simulated).

The paper's top layer is an MPI cluster of multicores; this package is
that layer for the serving stack -- it scales :mod:`repro.serve` from
one warm fleet to N simulated shard nodes:

* :mod:`.ring` -- consistent-hash placement of
  :func:`~repro.serve.registry.content_key`\\ s onto shards (sha256
  virtual-node ring: balanced, minimally remapped on join/leave,
  ``PYTHONHASHSEED``-independent);
* :mod:`.shard` -- one node = one complete single-node serving stack
  (registry + warm fleet + server) under the cluster's shared clock;
* :mod:`.router` -- the routing tier: forwards submissions to the
  owning shard, re-raises shard backpressure to the client, promotes
  hit-ranked hot molecules to R replicas, and donates weight-balanced
  row ranges of large requests to idle shards (the serving stack's one
  row-range pipeline, :mod:`repro.serve.sliced`);
* :mod:`.metrics` -- the fabric's only wall-clock reader plus the
  :class:`~repro.cluster.metrics.TrafficLedger` charging every routed
  byte through :meth:`~repro.parallel.machine.NetworkSpec.p2p_cost`;
* :mod:`.workload` -- seeded zipf-skewed request traces;
* ``python -m repro.cluster`` -- trace replay across node counts
  writing ``BENCH_cluster.json``.

Cluster-served energies are bit-identical to a cold
:meth:`repro.core.driver.PolarizationEnergyCalculator.run` at any shard
count, replication factor and donation configuration; see
``docs/SERVING.md`` section 8 for the architecture and the argument.
"""

from __future__ import annotations

from ..serve.scheduler import ServeConfig
from .metrics import TrafficLedger, aggregate_metrics, cluster_now
from .ring import HashRing, ring_hash
from .router import ClusterConfig, ClusterRouter
from .shard import ShardNode
from .workload import zipf_trace, zipf_weights

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "HashRing",
    "ServeConfig",
    "ShardNode",
    "TrafficLedger",
    "aggregate_metrics",
    "cluster_now",
    "make_cluster",
    "ring_hash",
    "zipf_trace",
    "zipf_weights",
]


def make_cluster(nodes: int = 2, **kwargs) -> ClusterRouter:
    """Assemble (but do not start) a router over ``nodes`` shards;
    keyword arguments are :class:`ClusterConfig` fields."""
    return ClusterRouter(ClusterConfig(nodes=nodes, **kwargs))
