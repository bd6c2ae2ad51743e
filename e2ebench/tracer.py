"""Outside-in tracing: spans around the public calls a request makes.

The program never traces itself.  For a traced run the benchmark
replaces each public entry point of a layer (a module-level function, a
method or a classmethod) with a wrapper that records a :class:`Span`
and calls the original.  A function is patched at *every* ``repro``
module that bound it by import (``build_surface`` also lives in
``repro.core.driver``, ``fold_pair_terms`` also in ``repro.serve.fleet``
and ``repro.cluster.router``, ...), and :meth:`Tracer.uninstall` puts
every original back, including into modules imported after installation.

Spans are kept in memory: name, start, end, parent span and thread,
plus the request ids the call can see -- a client submit gets the next
client id, a ``run_batch``/``run_sliced`` call lists its scheduler ids,
and any other call inherits the ids of its enclosing span.  Fleet worker
processes are forked from the traced parent; every wrapper checks the
process id and runs the bare original there, so only the parent is
traced and workers report their own seconds through the pool's result
tuples (parsed by :func:`parse_result`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    """One traced call in the parent process."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    phase: str
    rids: tuple = ()
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def parse_result(res: tuple) -> dict:
    """The fields of one worker result tuple that the tracer reads.

    Result tuples are the pool's wire format (see
    ``repro.serve.fleet._serve_worker_loop``): ``ok``/``error`` for
    whole-plan runs, ``born_ok``/``epol_ok`` for row slices.
    """
    kind, req_id, rank = res[0], res[1], res[2]
    if kind in ("ok", "error"):
        secs, cold = res[4], res[5]
    elif kind == "born_ok":
        secs, cold = res[5], res[6]
    elif kind == "epol_ok":
        secs, cold = res[7], res[8]
    else:
        raise ValueError(f"unknown worker result kind {kind!r}")
    return {"kind": kind, "req_id": req_id, "rank": int(rank),
            "secs": float(secs), "cold": bool(cold)}


def _npoints(args, kwargs, out) -> dict:
    return {"points": int(out.npoints)}


def _nrows(args, kwargs, out) -> dict:
    return {"rows": int(out.nrows)}


def _bundle_bytes(args, kwargs, out) -> dict:
    import numpy as np
    return {"bytes": sum(int(np.prod(spec.shape, dtype=np.int64))
                         * np.dtype(spec.dtype).itemsize
                         for spec in out.layout.values())}


def _worker_result(args, kwargs, out) -> dict:
    return parse_result(out)


#: ``(span name, module, qualified name, attrs from (args, kwargs, out))``
#: -- the public call into each layer on a request's path.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("client.submit", "repro.serve.client", "ServeClient.submit", None),
    ("router.submit", "repro.cluster.router", "ClusterRouter.submit", None),
    ("scheduler.submit", "repro.serve.scheduler", "EpolServer.submit", None),
    ("registry.register", "repro.serve.registry",
     "MoleculeRegistry.register", None),
    ("registry.get", "repro.serve.registry", "MoleculeRegistry.get", None),
    ("surface.build", "repro.surface.sas", "build_surface", _npoints),
    ("octree.atoms", "repro.core.born", "AtomTreeData.build", None),
    ("octree.quad", "repro.core.born", "QuadTreeData.build", None),
    ("plan.cache", "repro.plan.cache", "PlanCache.get_or_build", None),
    ("plan.build_born", "repro.plan.builder", "build_born_plan", _nrows),
    ("plan.build_epol", "repro.plan.builder", "build_epol_plan", _nrows),
    ("core.push", "repro.core.born", "push_integrals_to_atoms", None),
    ("core.energy_context", "repro.core.energy", "EnergyContext.build",
     None),
    ("fleet.run_batch", "repro.serve.fleet", "ProcessFleet.run_batch", None),
    ("fleet.run_sliced", "repro.serve.fleet", "ProcessFleet.run_sliced",
     None),
    ("shm.create", "repro.parallel.procpool.shm", "SharedArrayBundle.create",
     _bundle_bytes),
    ("pool.next_result", "repro.parallel.procpool.pool",
     "PersistentWorkerPool.next_result", _worker_result),
    ("sliced.reduce", "repro.serve.sliced", "reduce_born_flat", None),
    ("sliced.fold", "repro.serve.sliced", "fold_pair_terms", None),
]


def _repro_modules() -> list[Any]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Installs the wrappers and keeps the spans they record."""

    def __init__(self, targets: list | None = None) -> None:
        self.targets = TARGETS if targets is None else targets
        self.spans: list[Span] = []
        #: Label of the run phase new spans are tagged with.
        self.phase = "setup"
        self._pid = os.getpid()
        self._sids = itertools.count(1)
        self._client_ids = itertools.count()
        self._local = threading.local()
        self._labels: dict[int, str] = {}
        self._label_lock = threading.Lock()
        #: ``(owner, attribute, original)`` for every patched site.
        self._patched: list[tuple[Any, str, Any]] = []
        #: ``id(wrapper) -> (wrapper, original)``; holding the wrapper
        #: keeps its id from being reused while installed.
        self._wrappers: dict[int, tuple[Any, Any]] = {}

    # -- installation ------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def install(self) -> None:
        """Patch every target at every site that holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        functions: dict[int, Any] = {}
        for name, module, qualname, attrs in self.targets:
            mod = importlib.import_module(module)
            owner_name, _, attr = qualname.rpartition(".")
            if not owner_name:
                original = getattr(mod, attr)
                functions[id(original)] = self._wrap(name, original, attrs)
                continue
            cls = getattr(mod, owner_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, attrs))
            else:
                new = self._wrap(name, raw, attrs)
            self._wrappers[id(new)] = (new, raw)
            setattr(cls, attr, new)
            self._patched.append((cls, attr, raw))
        for site in _repro_modules():
            for key, value in list(vars(site).items()):
                wrapper = functions.get(id(value))
                if wrapper is not None:
                    setattr(site, key, wrapper)
                    self._patched.append((site, key, value))
                    self._wrappers[id(wrapper)] = (wrapper, value)

    def uninstall(self) -> None:
        """Restore every patched site; also any module imported while
        installed that bound a wrapper."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for site in _repro_modules():
            for key, value in list(vars(site).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(site, key, entry[1])
        self._wrappers.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- recording ---------------------------------------------------------
    def label(self, obj: Any, prefix: str) -> str:
        """Stable short name (``fleet0``, ``pool1``) for one instance."""
        with self._label_lock:
            key = id(obj)
            if key not in self._labels:
                n = sum(1 for v in self._labels.values()
                        if v.startswith(prefix))
                self._labels[key] = f"{prefix}{n}"
            return self._labels[key]

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _rids(self, name: str, args: tuple, parent: Span | None) -> tuple:
        if name == "client.submit":
            return (f"c{next(self._client_ids)}",)
        if name == "fleet.run_batch":
            fleet = self.label(args[0], "fleet")
            return tuple(f"{fleet}:s{item[0]}" for item in args[1])
        if name == "fleet.run_sliced":
            return (f"{self.label(args[0], 'fleet')}:s{args[1]}",)
        return parent.rids if parent is not None else ()

    def _wrap(self, name: str, fn: Callable, attrs: Callable | None
              ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(sid=next(tracer._sids), name=name, start=0.0,
                        end=0.0, parent=parent.sid if parent else None,
                        thread=threading.current_thread().name,
                        phase=tracer.phase,
                        rids=tracer._rids(name, args, parent))
            before = _counts_before(name, args)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            try:
                if attrs is not None:
                    span.attrs.update(attrs(args, kwargs, out))
                if before is not None:
                    span.attrs.update(_counts_after(name, args, before))
                if name == "pool.next_result":
                    pool = span.attrs["pool"] = tracer.label(args[0], "pool")
                    span.rids = (f"{pool}:s{span.attrs['req_id']}",)
            except (AttributeError, IndexError, KeyError, TypeError,
                    ValueError) as err:
                # A stale tracer must not break the request it observes.
                span.attrs["attr_error"] = repr(err)
            return out

        return wrapper


def _counts_before(name: str, args: tuple) -> tuple | None:
    """Hit/miss counters of a cache or registry before the call."""
    if name == "plan.cache" or name.startswith("registry."):
        return (args[0].hits, args[0].misses)
    return None


def _counts_after(name: str, args: tuple, before: tuple) -> dict:
    return {"hits": args[0].hits - before[0],
            "misses": args[0].misses - before[1]}


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus its children's."""
    child: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.seconds
    return {s.sid: s.seconds - child.get(s.sid, 0.0) for s in spans}


def span_records(spans: list[Span]) -> list[dict]:
    """JSON-ready span list (the trace file's body)."""
    return [{"sid": s.sid, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "thread": s.thread, "phase": s.phase,
             "rids": list(s.rids), "attrs": s.attrs} for s in spans]
