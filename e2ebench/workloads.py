"""The benchmark's three workloads and the closed loop that drives them.

Every workload is a user of the public serving API: one submitting
thread, a :class:`~repro.serve.client.ServeClient` over an
:class:`~repro.serve.scheduler.EpolServer` or a
:class:`~repro.cluster.router.ClusterRouter`, on real worker processes.

Set-up inputs (the warm-up decoys, the resident set, the giant capsid)
do not depend on the seed, so set-up does the same work in every run and
its counters must repeat exactly.  The seed drives the timed window's
traffic: where each decoy is placed, and in which order the resident set
is asked for.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.cluster import ClusterConfig, ClusterRouter
from repro.molecule import zdock
from repro.molecule.generators import icosahedral_shell, protein_blob
from repro.molecule.molecule import Molecule
from repro.serve import (EpolServer, ProcessFleet, ServeClient, ServeConfig,
                         ServeFuture, make_server)

#: Seconds a request may stay unresolved before it counts as failed.
REQUEST_TIMEOUT = 120.0

#: Fractional part of the golden ratio: consecutive decoys walk the size
#: schedule in a low-discrepancy order, so any stretch of the stream
#: holds a near-uniform mix of sizes.
GOLDEN = 0.6180339887498949


@dataclass
class Served:
    """One request as the client saw it."""

    mol: str
    t_call: float
    t_ret: float = 0.0
    future: ServeFuture | None = None
    energy: float | None = None
    error: str | None = None
    t_done: float = 0.0
    detail: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.energy is not None

    @property
    def latency(self) -> float:
        return self.t_done - self.t_call


def _finish(s: Served, clock: Callable[[], float]) -> None:
    """Record a resolved future.  The resolution instant is the server's
    own stamp (admission + its measured latency), so polling granularity
    never leaks into a latency."""
    err = s.future.exception(timeout=0)
    if err is not None:
        s.error = repr(err)
        s.t_done = clock()
        return
    s.energy = s.future.result(timeout=0)
    s.detail = dict(s.future.detail)
    s.t_done = s.t_ret + s.detail["latency_seconds"]


def drive(workload: "Workload", source: Iterator[str], *,
          clock: Callable[[], float], deadline: float | None = None,
          on_segment: Callable[[float], None] | None = None,
          segment_seconds: float | None = None) -> list[Served]:
    """Closed loop: keep ``workload.inflight`` requests outstanding.

    Submits requests from ``source`` until it is exhausted or the clock
    passes ``deadline``, then drains what is in flight.  With
    ``on_segment`` the window is cut into segments of
    ``segment_seconds``; the callback runs between requests (with one in
    flight) or between submissions (with several) at each boundary.  With
    one in flight, ``segment_seconds=0`` cuts between every two requests.
    """
    served: list[Served] = []
    pending: deque[Served] = deque()
    start = clock()
    seg_end = (start + segment_seconds if segment_seconds is not None
               else None)
    exhausted = False
    while True:
        now = clock()
        if seg_end is not None and now >= seg_end and (
                deadline is None or now < deadline) and (
                workload.inflight > 1 or not pending):
            seg_end += segment_seconds
            on_segment(now)
        open_ = not exhausted and (deadline is None or now < deadline)
        if open_ and len(pending) < workload.inflight:
            mol = next(source, None)
            if mol is None:
                exhausted = True
                continue
            s = Served(mol=mol, t_call=clock())
            try:
                s.future = workload.submit(mol)
            except Exception as err:  # rejection or a failed registration
                s.error = repr(err)
                s.t_done = s.t_ret = clock()
            else:
                s.t_ret = clock()
                pending.append(s)
            served.append(s)
            workload.prefetch()
            continue
        if not pending:
            return served
        _wait_any(pending, workload.inflight == 1, clock)


def _wait_any(pending: deque, blocking: bool,
              clock: Callable[[], float]) -> None:
    oldest = pending[0]
    try:
        oldest.future.exception(timeout=REQUEST_TIMEOUT if blocking
                                else 0.002)
    except TimeoutError:
        if clock() - oldest.t_call > REQUEST_TIMEOUT:
            pending.popleft()
            oldest.error = "timeout"
            oldest.t_done = clock()
    for s in [s for s in pending if s.future.done()]:
        pending.remove(s)
        _finish(s, clock)


class Workload:
    """One traffic mix: its inputs, its set-up, and its window traffic."""

    name = ""
    #: Requests the client keeps outstanding.
    inflight = 1
    #: Warm-up rounds added at most when the fixed warm-up left a worker
    #: cold.
    max_extra_warmup = 4
    #: Window counters per request that must hold exactly.
    window_expect: dict[str, float] = {}

    def __init__(self, seed: int, workers: int) -> None:
        self.seed = seed
        self.workers = workers
        #: Every distinct molecule a request may name, by id.
        self.molecules: dict[str, Molecule] = {}
        #: The serving stack (an ``EpolServer`` or a ``ClusterRouter``).
        self.stack: EpolServer | ClusterRouter | None = None
        self.client: ServeClient | None = None

    # -- subclass surface ---------------------------------------------------
    def start(self) -> None:
        """Start the server or router and register the resident set."""
        raise NotImplementedError

    def warmup_requests(self) -> list[str]:
        """The fixed warm-up, as molecule ids."""
        raise NotImplementedError

    def extra_warmup(self) -> list[str]:
        """One more round of warm-up when workers are still cold."""
        return []

    def warm(self, results: list[dict]) -> bool:
        """Does the warm-up leave every worker attached to what the
        window will ask for?  ``results`` are the pool's parsed result
        tuples seen during this set-up."""
        return True

    def window_requests(self) -> Iterator[str]:
        """Window traffic of one window part, on a freshly set-up stack."""
        raise NotImplementedError

    def submit(self, mol: str) -> ServeFuture:
        raise NotImplementedError

    def prefetch(self) -> None:
        """Generate upcoming inputs while a request is in flight."""

    def stop(self) -> None:
        """Stop the serving stack and its workers (no-op before start)."""
        if self.stack is not None:
            self.stack.stop()

    def probe(self) -> dict[str, float]:
        """Counter snapshot from the public stats of the serving stack."""
        stats = self.stack.stats()
        reg = stats["registry"]
        return {
            "registry.hits": reg["hits"],
            "registry.misses": reg["misses"],
            "registry.evictions": reg["evictions"],
            "registry.bytes": reg["current_bytes"],
            "fleet.publications": stats["publications"],
            "fleet.respawns": stats["respawns"],
            "scheduler.batches": stats["batches"],
            "scheduler.groups": stats["groups"],
            "scheduler.completed": stats["completed"],
        }


# ----------------------------------------------------------------------
class ColdDecoys(Workload):
    """A docking screen of never-seen poses, one request in flight."""

    name = "cold-decoys"
    #: Registry budget: a few decoys, so each new one evicts about one.
    registry_bytes = 20 << 20
    #: Fixed warm-up decoys; enough to fill the budget.
    nwarmup = 8

    def __init__(self, seed: int, workers: int) -> None:
        super().__init__(seed, workers)
        self.sizes = [int(s) for s in zdock.suite_sizes()
                      if 400 <= s <= 2500]
        for i in range(self.nwarmup):
            self.molecules[f"w{i}"] = protein_blob(
                self._size(i), seed=900_000 + i, name=f"warmup-{i}")
        self._placement = np.random.default_rng(seed)
        self._shapes: dict[int, Molecule] = {}
        self._next = 0
        self._sent = 0

    def _size(self, i: int) -> int:
        """Size of the ``i``-th decoy of the stream (warm-up first): the
        same walk over the schedule in every run, so runs compare the
        same mix of sizes."""
        return self.sizes[int((i * GOLDEN) % 1.0 * len(self.sizes))]

    def _decoy(self, i: int) -> str:
        """The ``i``-th window decoy: a new pose, i.e. one fixed blob of
        its size moved by a seeded offset.  Its coordinates, and so its
        content key, are new, and it pays the whole cold path; its work
        is the same in every run, so runs differ only in how fast the
        stack did that work."""
        while self._next <= i:
            n = self._next
            size = self._size(self.nwarmup + n)
            if size not in self._shapes:
                self._shapes[size] = protein_blob(size, seed=930_000 + size)
            pose = self._shapes[size].translated(
                self._placement.uniform(-50.0, 50.0, 3))
            pose.name = f"decoy-{n}"
            self.molecules[f"d{n}"] = pose
            self._next += 1
        return f"d{i}"

    def start(self) -> None:
        self.stack = make_server(
            backend="real", workers=self.workers,
            config=ServeConfig(registry_max_bytes=self.registry_bytes))
        self.stack.start()
        self.client = ServeClient(self.stack)

    def warmup_requests(self) -> list[str]:
        return [f"w{i}" for i in range(self.nwarmup)]

    def window_requests(self) -> Iterator[str]:
        # Each window part continues the stream: every decoy is new.
        while True:
            mol = self._decoy(self._sent)
            self._sent += 1
            yield mol

    def prefetch(self) -> None:
        self._decoy(self._next)

    def submit(self, mol: str) -> ServeFuture:
        return self.client.submit(molecule=self.molecules[mol])

    window_expect = {"registry.misses": 1.0, "fleet.publications": 1.0,
                     "fleet.cold_attaches": 1.0, "sliced": 0.0,
                     "fleet.respawns": 0.0}


# ----------------------------------------------------------------------
#: Resident-set sizes (atoms) of ``warm-zipf``, geometric over 300-1500.
RESIDENT_SIZES = [300, 378, 475, 598, 753, 947, 1192, 1500]
#: Which resident molecule holds each zipf rank (most popular first).
RANK_TO_MOLECULE = [4, 2, 6, 0, 7, 3, 1, 5]
#: Exact zipf(s=1.1) counts of the eight ranks in one block of 32
#: requests (largest-remainder apportionment).  Blocks line up with the
#: router's re-ranking period, so the hot set never changes mid-window.
BLOCK_COUNTS = [13, 6, 4, 3, 2, 2, 1, 1]


class WarmZipf(Workload):
    """Re-scoring a resident set through the cluster fabric."""

    name = "warm-zipf"
    #: A closed loop over two equally loaded shards lets the split of
    #: in-flight requests between them wander; with 32 in flight it did
    #: not settle within a window and latency percentiles moved by a
    #: third between runs.  Eight mix within a window.
    inflight = 8
    nodes = 2
    warmup_blocks = 2

    def __init__(self, seed: int, workers: int) -> None:
        super().__init__(seed, workers)
        if workers % self.nodes:
            raise ValueError(f"warm-zipf needs a multiple of {self.nodes} "
                             "workers")
        for k, natoms in enumerate(RESIDENT_SIZES):
            self.molecules[f"r{k}"] = protein_blob(
                natoms, seed=910_000 + k, name=f"resident-{k}")
        self._block = [f"r{RANK_TO_MOLECULE[rank]}"
                       for rank, n in enumerate(BLOCK_COUNTS)
                       for _ in range(n)]
        self.keys: dict[str, str] = {}

    def _blocks(self, rng: np.random.Generator) -> Iterator[str]:
        while True:
            yield from (self._block[j]
                        for j in rng.permutation(len(self._block)))

    def start(self) -> None:
        self.stack = ClusterRouter(ClusterConfig(
            nodes=self.nodes, backend="real",
            workers=self.workers // self.nodes, replication_factor=2,
            hot_top_k=2))
        self.stack.start()
        self.client = ServeClient(self.stack)
        for mol in sorted(self.molecules):
            self.keys[mol] = self.client.register(self.molecules[mol])
        self._warm_rng = np.random.default_rng(0)

    def warmup_requests(self) -> list[str]:
        blocks = self._blocks(self._warm_rng)
        return [next(blocks) for _ in range(
            self.warmup_blocks * len(self._block))]

    def extra_warmup(self) -> list[str]:
        blocks = self._blocks(self._warm_rng)
        return [next(blocks) for _ in range(len(self._block))]

    def warm(self, results: list[dict]) -> bool:
        # One worker per node: every publication has been attached once
        # when the cold attaches add up to the publications.
        cold = sum(1 for r in results if r["cold"])
        return cold == self.probe()["fleet.publications"] * (
            self.workers // self.nodes)

    def window_requests(self) -> Iterator[str]:
        return self._blocks(np.random.default_rng(self.seed))

    def submit(self, mol: str) -> ServeFuture:
        return self.client.submit(key=self.keys[mol])

    def probe(self) -> dict[str, float]:
        st = self.stack.stats()
        regs = [shard["registry"] for shard in st["shards"].values()]
        fleets = [shard.server.fleet for shard in self.stack.shards.values()]
        cluster = st["cluster"]
        out = {
            "registry.hits": sum(r["hits"] for r in regs),
            "registry.misses": sum(r["misses"] for r in regs),
            "registry.evictions": sum(r["evictions"] for r in regs),
            "registry.bytes": sum(r["current_bytes"] for r in regs),
            "fleet.publications": sum(f.publications for f in fleets),
            "fleet.respawns": sum(f.respawns for f in fleets),
            "scheduler.batches": st["batches"],
            "scheduler.groups": st["groups"],
            "scheduler.completed": st["completed"],
            "traffic.bytes": st["traffic"]["total_bytes"],
            "traffic.modeled_s": st["traffic"]["total_seconds"],
        }
        for name in ("routed", "replica_hits", "promotions", "demotions",
                     "rejected"):
            out[f"router.{name}"] = cluster[name]
        return out

    window_expect = {"registry.misses": 0.0, "fleet.publications": 0.0,
                     "fleet.cold_attaches": 0.0, "sliced": 0.0,
                     "fleet.respawns": 0.0, "router.promotions": 0.0,
                     "router.demotions": 0.0, "router.rejected": 0.0}


# ----------------------------------------------------------------------
class GiantSliced(Workload):
    """One giant capsid, row-sliced over every worker, one in flight."""

    name = "giant-sliced"
    natoms = 8000
    #: Plan row weight at or above which a request is sliced: far below
    #: the capsid's (about 1.4e8), far above a small decoy's.
    slice_threshold = 1.0e6

    def __init__(self, seed: int, workers: int) -> None:
        super().__init__(seed, workers)
        # The paper's headline molecule: one fixed CMV-analogue shell.
        self.molecules["g"] = icosahedral_shell(
            self.natoms, seed=920_000, name=f"capsid-{self.natoms}")
        self.key = ""

    def start(self) -> None:
        self.stack = EpolServer(
            fleet=ProcessFleet(self.workers),
            config=ServeConfig(slice_threshold=self.slice_threshold,
                               slice_queue_scale=0.0))
        self.stack.start()
        self.client = ServeClient(self.stack)
        self.key = self.client.register(self.molecules["g"])

    def warmup_requests(self) -> list[str]:
        return ["g"]

    def extra_warmup(self) -> list[str]:
        return ["g"]

    def warm(self, results: list[dict]) -> bool:
        return len({r["rank"] for r in results}) == self.workers

    def window_requests(self) -> Iterator[str]:
        return itertools.repeat("g")

    def submit(self, mol: str) -> ServeFuture:
        return self.client.submit(key=self.key)

    window_expect = {"registry.misses": 0.0, "fleet.publications": 0.0,
                     "fleet.cold_attaches": 0.0, "sliced": 1.0,
                     "fleet.respawns": 0.0}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ColdDecoys, WarmZipf, GiantSliced)}


def window_counters(served: list[Served], deltas: dict[str, float]
                    ) -> dict[str, Any]:
    """Per-request window counters (the exact invariants) from probe
    deltas and the futures' own provenance."""
    ok = [s for s in served if s.ok]
    n = max(len(ok), 1)
    out = {name: deltas[name] / n
           for name in ("registry.misses", "fleet.publications",
                        "fleet.respawns", "router.promotions",
                        "router.demotions", "router.rejected")
           if name in deltas}
    out["fleet.cold_attaches"] = sum(
        bool(s.detail.get("cold_attach")) for s in ok) / n
    out["sliced"] = sum(s.detail.get("mode") == "sliced" for s in ok) / n
    return out
