"""``repro.serve``: a batched, cached :math:`E_{pol}` serving layer.

The paper's headline use case is throughput -- scoring thousands of ZDOCK
docking decoys, each one :math:`E_{pol}` evaluation -- and this package
turns the repo's pieces into that request/response service:

* :mod:`.registry` -- content-hashed molecules under a byte-budget LRU
  (octrees + plan cache warm per molecule);
* :mod:`.scheduler` -- bounded admission with explicit backpressure and a
  micro-batching loop that groups same-molecule requests so plans build
  once and execute many;
* :mod:`.fleet` -- warm in-process or OS-process workers with molecule
  and plan arrays published once via shared memory;
* :mod:`.policy`/:mod:`.sliced` -- the pure batch-vs-slice routing
  decision and the one row-range pipeline every evaluation runs, with
  its bit-exact reductions (batched, sliced over every warm worker, or
  donated across shards);
* :mod:`.client` -- futures-style submit/poll/await;
* :mod:`.metrics` -- latency/throughput/batching accounting (the layer's
  only wall-clock reader, repro-lint rule REP003);
* ``python -m repro.serve`` -- workload replay writing
  ``BENCH_serve.json``.

Served energies are bit-identical to a cold
:meth:`repro.core.driver.PolarizationEnergyCalculator.run` of the same
configuration; see ``docs/SERVING.md`` for the architecture and the
determinism argument.
"""

from __future__ import annotations

from .client import ServeClient, ServeFuture
from .fleet import (EpsConfig, EvalResult, FleetError, InlineFleet,
                    ProcessFleet, SliceError, make_fleet)
from .metrics import ServeMetrics, latency_summary, now
from .policy import (MODE_BATCHED, MODE_DONATED, MODE_SLICED,
                     decide_donation, decide_mode)
from .registry import MoleculeRegistry, RegistryEntry, content_key
from .scheduler import (EpolServer, RejectedError, ServeConfig,
                        ServerClosed)
from .sliced import (LocalRanges, evaluate_ranges, fold_pair_terms,
                     reduce_born_flat, slice_bounds)

__all__ = [
    "EpolServer",
    "EpsConfig",
    "EvalResult",
    "FleetError",
    "InlineFleet",
    "LocalRanges",
    "MODE_BATCHED",
    "MODE_DONATED",
    "MODE_SLICED",
    "MoleculeRegistry",
    "ProcessFleet",
    "RegistryEntry",
    "RejectedError",
    "ServeClient",
    "ServeConfig",
    "ServeFuture",
    "ServeMetrics",
    "ServerClosed",
    "SliceError",
    "content_key",
    "decide_donation",
    "decide_mode",
    "evaluate_ranges",
    "fold_pair_terms",
    "latency_summary",
    "make_fleet",
    "make_server",
    "now",
    "reduce_born_flat",
    "slice_bounds",
]


def make_server(*, backend: str = "real", workers: int = 2,
                config: ServeConfig | None = None,
                start_method: str | None = None) -> EpolServer:
    """Assemble (but do not start) a server on the chosen fleet.

    ``backend="real"`` serves over ``workers`` warm OS processes;
    ``backend="sim"`` evaluates inline in the scheduler thread (the
    reference substrate), slicing a request ``workers`` ways
    (:func:`~repro.serve.fleet.make_fleet`).
    """
    return EpolServer(fleet=make_fleet(backend, workers,
                                       start_method=start_method),
                      config=config)
