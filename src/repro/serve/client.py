"""In-process serving client: futures, polling, and retry policy.

:class:`ServeFuture` is the per-request handle (``done``/``result``/
``exception``); :class:`ServeClient` wraps an
:class:`~repro.serve.scheduler.EpolServer` with the ergonomics a
workload driver wants: register-and-submit in one call, bounded
retry-with-backoff against admission rejections (so backpressure slows a
producer down instead of losing its requests), and bulk ``await_all``.

The client never swallows a rejection it cannot retry away: with
``retries=0`` the :class:`~repro.serve.scheduler.RejectedError` reaches
the caller, and with bounded retries the final failure re-raises --
"rejected then lost" is not a state this API can produce.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Sequence

from ..core.params import ApproximationParams
from ..molecule.molecule import Molecule


class ServeFuture:
    """Handle for one submitted request (thread-safe, resolve-once)."""

    def __init__(self, key: str) -> None:
        self.key = key
        self._done = threading.Event()
        self._value: float | None = None
        self._error: BaseException | None = None
        #: Serving provenance (worker id, eval seconds, latency, cold
        #: attach) attached at resolution time.
        self.detail: dict[str, Any] = {}

    # -- consumer side --------------------------------------------------
    def done(self) -> bool:
        """Non-blocking poll: has the request been resolved?"""
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> float:
        """The served energy (kcal/mol); blocks up to ``timeout``.

        Raises ``TimeoutError`` if unresolved in time, or re-raises the
        serving-side failure.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request for molecule {self.key!r} not resolved "
                f"within {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The serving-side failure, or None on success; blocks like
        :meth:`result`."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request for molecule {self.key!r} not resolved "
                f"within {timeout}s")
        return self._error

    # -- producer side (scheduler thread only) --------------------------
    def _resolve(self, energy: float, **detail: Any) -> None:
        self._value = float(energy)
        self.detail.update(detail)
        self._done.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._done.set()


def _sleep(seconds: float) -> None:
    """Interruptible sleep without touching the ``time`` module (the
    serving layer's wall clock lives in :mod:`repro.serve.metrics`)."""
    threading.Event().wait(seconds)


class ServeClient:
    """Futures-style front door over one :class:`EpolServer`."""

    def __init__(self, server: Any) -> None:
        self.server = server
        #: Rejections absorbed by retry loops (all eventually admitted or
        #: re-raised -- never silently dropped).
        self.retried_rejections = 0

    # -- submission ------------------------------------------------------
    def register(self, molecule: Molecule,
                 params: ApproximationParams | None = None) -> str:
        """Register (idempotently) and return the molecule's content key."""
        return self.server.register(molecule, params)

    def submit(self, molecule: Molecule | None = None, *,
               key: str | None = None,
               params: ApproximationParams | None = None,
               eps_born: float | None = None,
               eps_epol: float | None = None,
               retries: int = 0,
               backoff_seconds: float = 0.002) -> ServeFuture:
        """Submit one :math:`E_{pol}` request; returns its future.

        Exactly one of ``molecule`` (registered on the fly) or ``key``
        (already registered) must be given.  ``retries`` bounds how many
        :class:`~repro.serve.scheduler.RejectedError` admissions to retry
        with linear backoff; the last rejection re-raises.
        """
        from .scheduler import RejectedError

        if (molecule is None) == (key is None):
            raise ValueError("pass exactly one of molecule= or key=")
        if molecule is not None:
            key = self.register(molecule, params)
        assert key is not None
        attempt = 0
        while True:
            try:
                return self.server.submit(key, eps_born=eps_born,
                                          eps_epol=eps_epol)
            except RejectedError:
                if attempt >= retries:
                    raise
                attempt += 1
                self.retried_rejections += 1
                _sleep(backoff_seconds * attempt)

    def submit_many(self, molecules: Iterable[Molecule], *,
                    retries: int = 0,
                    backoff_seconds: float = 0.002) -> list[ServeFuture]:
        """Submit one request per molecule, in order."""
        return [self.submit(molecule=m, retries=retries,
                            backoff_seconds=backoff_seconds)
                for m in molecules]

    # -- collection ------------------------------------------------------
    @staticmethod
    def poll(futures: Sequence[ServeFuture]) -> tuple[int, int]:
        """Non-blocking progress check: ``(resolved, total)``."""
        return sum(1 for f in futures if f.done()), len(futures)

    @staticmethod
    def await_all(futures: Sequence[ServeFuture], *,
                  timeout: float | None = None) -> list[float]:
        """Block until every future resolves; returns energies in
        submission order (re-raising the first failure encountered)."""
        return [f.result(timeout) for f in futures]
