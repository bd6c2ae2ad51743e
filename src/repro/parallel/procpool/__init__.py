"""Real shared-memory process plumbing for the serving fleets.

Where :mod:`repro.parallel.simmpi` *models* the paper's cluster, the
fleets in :mod:`repro.serve.fleet` *measure*: the one row-range pipeline
runs across actual OS processes, with each molecule and its plans
published once in POSIX shared memory.  This package holds the two
primitives they build on -- a persistent worker pool and shared array
bundles -- and is the only sanctioned home for raw ``multiprocessing``
use (repro-lint REP004).  See ``docs/ALGORITHMS.md`` ("Simulated vs.
real execution") for when each substrate is authoritative.
"""

from .pool import PersistentWorkerPool, PoolError
from .shm import SharedArrayBundle

__all__ = [
    "PersistentWorkerPool",
    "PoolError",
    "SharedArrayBundle",
]
