"""The discrete-event SPMD engine.

Rank programs are generator functions ``program(ctx, *args)``.  They do
real (NumPy) computation inline, account for modelled work via
``ctx.advance(seconds)``, and yield request objects for communication::

    def program(ctx):
        part = my_share_of_work(ctx.rank, ctx.size)
        ctx.advance(model.phase_seconds(part.counters))
        total = yield ctx.allreduce(part.array)
        return finish(total)

The engine interleaves ranks deterministically, matches collectives by
call order (all live ranks must issue the same collective -- a mismatch is
a :class:`DeadlockError`, like real MPI hanging), matches sends with
receives, and charges every operation simulated time from the network
model.  Determinism: identical programs and inputs give bit-identical
results and times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from ...runtime.clock import SimClock
from ...runtime.trace import Trace
from ..machine import LONESTAR4_NETWORK, NetworkSpec, RankLayout
from .collectives import collective_cost, collective_results
from .requests import Collective, DeadlockError, Recv, Send


@dataclass
class CommStats:
    """Aggregate communication accounting for one run."""

    collective_calls: int = 0
    p2p_messages: int = 0
    bytes_moved: int = 0
    comm_seconds: float = 0.0


@dataclass
class RankContext:
    """Per-rank handle passed to programs.

    Only :meth:`advance` acts immediately; every other method builds a
    request that the program must ``yield``.
    """

    rank: int
    size: int
    clock: SimClock
    layout: RankLayout

    def advance(self, seconds: float) -> None:
        """Charge local (modelled) compute time."""
        self.clock.advance(seconds)

    # -- request builders ------------------------------------------------
    def send(self, dest: int, data: Any, *, tag: int = 0) -> Send:
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range")
        if dest == self.rank:
            raise ValueError("cannot send to self")
        return Send(dest=dest, data=data, tag=tag)

    def recv(self, source: int, *, tag: int = 0) -> Recv:
        if not 0 <= source < self.size:
            raise ValueError(f"source {source} out of range")
        return Recv(source=source, tag=tag)

    def allreduce(self, data: Any, *, op: str = "sum",
                  nbytes: int | None = None) -> Collective:
        return Collective("allreduce", data=data, op=op,
                          nbytes=-1 if nbytes is None else nbytes)

    def allgather(self, data: Any, *, nbytes: int | None = None) -> Collective:
        return Collective("allgather", data=data,
                          nbytes=-1 if nbytes is None else nbytes)

    def bcast(self, data: Any, *, root: int = 0,
              nbytes: int | None = None) -> Collective:
        return Collective("bcast", data=data, root=root,
                          nbytes=-1 if nbytes is None else nbytes)

    def gather(self, data: Any, *, root: int = 0,
               nbytes: int | None = None) -> Collective:
        return Collective("gather", data=data, root=root,
                          nbytes=-1 if nbytes is None else nbytes)

    def reduce(self, data: Any, *, op: str = "sum", root: int = 0,
               nbytes: int | None = None) -> Collective:
        return Collective("reduce", data=data, op=op, root=root,
                          nbytes=-1 if nbytes is None else nbytes)

    def barrier(self) -> Collective:
        return Collective("barrier")


@dataclass
class RunResult:
    """Outcome of one SPMD run.

    Attributes
    ----------
    returns:
        Per-rank program return values.
    finish_times:
        Per-rank simulated completion times (seconds).
    makespan:
        ``max(finish_times)`` -- the simulated parallel running time.
    stats:
        Communication accounting.
    """

    returns: list[Any]
    finish_times: list[float]
    stats: CommStats

    @property
    def makespan(self) -> float:
        return max(self.finish_times)


@dataclass
class _RankState:
    gen: Generator
    ctx: RankContext
    pending: Any = None          # request awaiting matching
    resume: Any = None           # value to feed back on next step
    has_resume: bool = True      # first step primes the generator
    finished: bool = False
    result: Any = None


@dataclass
class SimMPI:
    """The SPMD simulator.

    Attributes
    ----------
    layout:
        Rank/node layout (drives intra- vs inter-node costs).
    network:
        Point-to-point and collective timing parameters.
    trace:
        Optional event trace (collective phases, messages).
    """

    layout: RankLayout
    network: NetworkSpec = LONESTAR4_NETWORK
    trace: Trace | None = None
    _mailbox: dict[tuple[int, int, int], list[tuple[float, Any, int]]] = \
        field(default_factory=dict, repr=False)

    def run(self, program: Callable[..., Generator], *args: Any,
            **kwargs: Any) -> RunResult:
        """Execute ``program`` on every rank and return the results."""
        p = self.layout.nranks
        stats = CommStats()
        states: list[_RankState] = []
        for r in range(p):
            ctx = RankContext(rank=r, size=p, clock=SimClock(), layout=self.layout)
            gen = program(ctx, *args, **kwargs)
            if not isinstance(gen, Generator):
                raise TypeError("rank program must be a generator function "
                                "(use 'yield' for communication, or "
                                "'return x; yield' for pure-compute ranks)")
            states.append(_RankState(gen=gen, ctx=ctx))
        self._mailbox.clear()

        while True:
            progressed = self._step_unblocked(states)
            if all(s.finished for s in states):
                break
            matched = self._match(states, stats)
            if not progressed and not matched:
                live = [i for i, s in enumerate(states) if not s.finished]
                kinds = {i: type(states[i].pending).__name__ for i in live}
                raise DeadlockError(
                    f"no rank can progress; pending requests: {kinds}")

        return RunResult(
            returns=[s.result for s in states],
            finish_times=[s.ctx.clock.now for s in states],
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _step_unblocked(self, states: list[_RankState]) -> bool:
        """Advance every rank that has a resume value; returns whether any
        rank made progress."""
        progressed = False
        for s in states:
            while not s.finished and s.pending is None and s.has_resume:
                progressed = True
                value, s.resume, s.has_resume = s.resume, None, False
                try:
                    request = s.gen.send(value)
                except StopIteration as stop:
                    s.finished = True
                    s.result = stop.value
                    break
                if not isinstance(request, (Send, Recv, Collective)):
                    raise TypeError(f"rank {s.ctx.rank} yielded "
                                    f"{type(request).__name__}; expected a "
                                    "Send/Recv/Collective request")
                s.pending = request
        return progressed

    def _match(self, states: list[_RankState], stats: CommStats) -> bool:
        matched = False
        live = [s for s in states if not s.finished]
        # -- collectives: every live rank must present the same signature.
        if live and all(isinstance(s.pending, Collective) for s in live):
            sigs = {s.pending.signature() for s in live}
            if len(sigs) > 1:
                raise DeadlockError(f"mismatched collectives: {sorted(sigs)}")
            if len(live) < len(states):
                finished = [s.ctx.rank for s in states if s.finished]
                raise DeadlockError(
                    f"ranks {finished} exited before a collective that "
                    f"ranks {[s.ctx.rank for s in live]} are waiting in")
            kind, op, root = live[0].pending.signature()
            values = [s.pending.data for s in states]
            nbytes = max(s.pending.nbytes for s in states)
            cost = collective_cost(kind, self.network, self.layout, nbytes)
            t_sync = max(s.ctx.clock.now for s in states)
            results = collective_results(kind, values, op, root)
            for s, res in zip(states, results):
                s.ctx.clock.advance_to(t_sync + cost)
                s.pending = None
                s.resume, s.has_resume = res, True
            stats.collective_calls += 1
            stats.bytes_moved += nbytes * len(states)
            stats.comm_seconds += cost
            if self.trace is not None:
                self.trace.record(t_sync + cost, "collective", -1,
                                  {"kind": kind, "nbytes": nbytes})
            return True
        # -- point-to-point: post sends, complete receives.
        for s in states:
            if isinstance(s.pending, Send):
                req = s.pending
                src = s.ctx.rank
                same = self.layout.same_node(src, req.dest)
                cost = self.network.p2p_cost(req.nbytes, same_node=same)
                arrive = s.ctx.clock.now + cost
                self._mailbox.setdefault((src, req.dest, req.tag), []).append(
                    (arrive, req.data, req.nbytes))
                # Eager send: local completion after injection overhead.
                s.ctx.clock.advance(
                    self.network.ts_intra if same else self.network.ts_inter)
                s.pending = None
                s.resume, s.has_resume = None, True
                stats.p2p_messages += 1
                stats.bytes_moved += req.nbytes
                matched = True
        for s in states:
            if isinstance(s.pending, Recv):
                req = s.pending
                queue = self._mailbox.get((req.source, s.ctx.rank, req.tag))
                if queue:
                    arrive, data, nbytes = queue.pop(0)
                    s.ctx.clock.advance_to(arrive)
                    s.pending = None
                    s.resume, s.has_resume = data, True
                    matched = True
        return matched
