"""Shared-memory array plumbing for the process fleets.

The paper's design replicates *data* and divides *work*: every process
holds the full molecule and surface.  On one shared-memory node we can do
better than P pickled copies -- the parent publishes each array once into a
POSIX shared-memory block and every worker maps views into the same pages.
Nothing molecule-sized ever crosses a pipe.

:class:`SharedArrayBundle` packs a named dict of float64 arrays into one
block; its :attr:`layout` (name -> offset/shape) is the only thing pickled
to workers.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ...analysis_static.verify.annotations import declares_effects


@declares_effects("SHM_CLOSE", "SHM_UNLINK")
def _reap_segment(shm: shared_memory.SharedMemory) -> None:
    """Best-effort unlink+close of an *owned* segment at finalization.

    Runs from a ``weakref.finalize`` when an owner is garbage-collected
    (or the interpreter exits) without having called ``unlink()`` -- e.g.
    a serving fleet torn down mid-run.  Every failure mode here means the
    segment is already gone or still has exported views; either way the
    goal is "no ``/dev/shm`` litter", not an error.
    """
    try:
        # repro-verify: allow=RV205(finalizer backstop: name must die even if close fails)
        shm.unlink()
    except (FileNotFoundError, OSError):
        pass
    try:
        shm.close()
    except (BufferError, OSError):
        pass


def _keep_mapped(shm: shared_memory.SharedMemory) -> None:
    """Leave a segment mapped for the life of this process.

    Once a NumPy view of the buffer has escaped, ``close()`` -- including
    the one ``__del__`` runs at interpreter shutdown -- would raise
    ``BufferError: cannot close exported pointers exist``.  The OS reclaims
    the mapping at process death regardless, so :meth:`SharedArrayBundle.
    close` disarms ``close`` instead of chasing every exported view.
    """
    shm.close = lambda: None  # type: ignore[method-assign]


@declares_effects("SHM_ATTACH")
def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without resource-tracker registration.

    Until Python 3.13 grew ``track=False``, ``SharedMemory(name=...)``
    registers the segment with the attaching process's resource tracker
    (bpo-38119).  That is wrong for both persistent-worker layouts: a
    worker with its *own* tracker (spawn, or fork before any tracker
    start) "cleans up" -- warns about and tries to unlink -- segments the
    owning parent already unlinked, while unregister-after-attach on a
    *shared* tracker (fork) deletes the creator's registration out from
    under it.  Ownership here is explicit (the creator unlinks, with a
    finalizer backstop), so attaches must simply never register.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        pass
    from multiprocessing import resource_tracker
    original = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


@dataclass(frozen=True)
class _ArraySpec:
    offset: int
    shape: tuple[int, ...]
    #: NumPy dtype name; float64 for the numeric payloads, int64 for the
    #: interaction-plan index arrays.
    dtype: str = "float64"


class SharedArrayBundle:
    """A dict of arrays (float64/int64) living in one shared-memory block."""

    def __init__(self, shm: shared_memory.SharedMemory,
                 layout: dict[str, _ArraySpec], *, owner: bool) -> None:
        self._shm = shm
        self.layout = layout
        self._owner = owner
        self._unlinked = False
        self._closed = False
        # Owners reap their segment even when nobody calls unlink() --
        # a fleet dropped mid-run must not leave /dev/shm litter.
        self._finalizer = (weakref.finalize(self, _reap_segment, shm)
                           if owner else None)

    # -- lifecycle -----------------------------------------------------
    @classmethod
    @declares_effects("SHM_CREATE", "MUTATES_SHARED")
    def create(cls, arrays: dict[str, np.ndarray]) -> "SharedArrayBundle":
        """Publish ``arrays`` (copied once) into a new shared block."""
        layout: dict[str, _ArraySpec] = {}
        offset = 0
        prepared: dict[str, np.ndarray] = {}
        for key, arr in arrays.items():
            # Integer arrays (plan indices) are stored as int64; every
            # other payload is normalised to float64.
            dtype = np.int64 if np.issubdtype(np.asarray(arr).dtype,
                                              np.integer) else np.float64
            a = np.ascontiguousarray(arr, dtype=dtype)
            layout[key] = _ArraySpec(offset=offset, shape=a.shape,
                                     dtype=a.dtype.name)
            prepared[key] = a
            offset += a.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        bundle = cls(shm, layout, owner=True)
        for key, a in prepared.items():
            bundle.view(key)[...] = a
        return bundle

    @classmethod
    @declares_effects("SHM_ATTACH")
    def attach(cls, name: str,
               layout: dict[str, _ArraySpec]) -> "SharedArrayBundle":
        """Map an existing block (worker side).  Workers cache and *evict*
        attached molecules, so they close the mapping themselves once
        their views are dropped (see :meth:`close`)."""
        return cls(_attach_untracked(name), layout, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def view(self, key: str) -> np.ndarray:
        """Zero-copy view of one array in the block (the spec's dtype)."""
        spec = self.layout[key]
        count = int(np.prod(spec.shape, dtype=np.int64)) if spec.shape else 1
        flat = np.frombuffer(self._shm.buf, dtype=np.dtype(spec.dtype),
                             count=count, offset=spec.offset)
        return flat.reshape(spec.shape)

    @declares_effects("SHM_CLOSE")
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:
            # An exported view escaped; the mapping lives until process
            # death anyway, so disarm the __del__-time retry and let the
            # OS reclaim it quietly.
            _keep_mapped(self._shm)

    @declares_effects("SHM_UNLINK")
    def unlink(self) -> None:
        if self._owner and not self._unlinked:
            self._unlinked = True
            if self._finalizer is not None:
                self._finalizer.detach()
            try:
                self._shm.unlink()
            except FileNotFoundError:
                # A dying attacher's resource tracker can reap the segment
                # first; the owner's unlink is then already satisfied.
                pass
