"""repro-model: protocol model checking.

The static counterpart of the serving stack's concurrency claims (see
docs/ANALYSIS.md section 5):

* :mod:`.machine` -- a deterministic bounded explicit-state model
  checker (labelled transition systems, BFS over all interleavings,
  counterexample traces);
* :mod:`.annotations` -- the runtime ``@protocol_event`` mark linking
  implementation methods to model events, plus the trace recorder the
  conformance tests replay through :meth:`~.machine.Model.accepts`;
* :mod:`.extract` -- AST code facts anchoring model transitions to the
  real source (a failed fact weakens the model, whose re-exploration
  then shows the regression as an interleaving);
* :mod:`.protocols` -- the scheduler / future / pool / shm / cluster
  models;
* :mod:`.checks` -- the repro-verify pass emitting RV401--RV406.

Wired into ``python -m repro.verify`` (check family ``model``); findings
flow through the standard reporters, baseline ratchet and ``allow=``
suppressions.
"""

from .annotations import (events_for, protocol_event, protocol_marks,
                          record_events)
from .checks import ModelChecker
from .machine import (ExploreResult, Invariant, Model, Obligation,
                      Transition, Violation)
from .protocols import (SPECS, build_future_model, build_models,
                        build_pool_model, build_scheduler_model,
                        build_shm_model)

__all__ = [
    "ExploreResult",
    "Invariant",
    "Model",
    "ModelChecker",
    "Obligation",
    "SPECS",
    "Transition",
    "Violation",
    "build_future_model",
    "build_models",
    "build_pool_model",
    "build_scheduler_model",
    "build_shm_model",
    "events_for",
    "protocol_event",
    "protocol_marks",
    "record_events",
]
