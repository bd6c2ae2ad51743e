"""The serving stack's protocol models.

Five models cover the moving parts PR 4/6/9 composed dynamically:

* ``scheduler`` -- :class:`~repro.serve.scheduler.EpolServer`'s request
  path: bounded admission, dispatch (resolve / slice-failure /
  fleet-failure), drain and exit;
* ``future`` -- :class:`~repro.serve.client.ServeFuture` resolve-once
  handoff between the scheduler thread and a waiting caller;
* ``pool`` -- :class:`~repro.parallel.procpool.pool.PersistentWorkerPool`
  lifecycle: submit, collect, worker crash, death detection, in-place
  respawn, shutdown;
* ``shm`` -- the per-request scratch segment of
  :meth:`~repro.serve.fleet.ProcessFleet.run_sliced`: publish, attach,
  close-before-unlink, unlink-exactly-once on every path including
  worker crash;
* ``cluster`` -- :class:`~repro.cluster.router.ClusterRouter`'s routing
  tier: forward, shard bounce with propagated rejection (the client can
  retry), and the two-range work donation that must execute every
  donated row range exactly once before the owner reduces.

Each model's guarantees are anchored to the implementation by
:class:`~.extract.CodeFact` records.  When a fact fails, the
conformance check reports RV405 and the builder is re-run with that
guarantee *weakened* -- the re-explored model then exhibits the
regression as a counterexample interleaving (RV401--RV404, RV406).

The models are deliberately small (2 symbolic clients, 1 worker, 1
task): large enough that every property the tentpole names has a
reachable violation when its backing fact is broken, small enough that
full exploration is instant and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..verify.program import FunctionInfo, Program
from . import extract
from .extract import CodeFact
from .machine import (DEADLOCK, INVARIANT, OBLIGATION, Invariant, Model,
                      Obligation, Transition)

#: Stuck-process classification for a client that admitted a request and
#: never saw it resolve or reject -- the "lost future" property.
LOST_FUTURE = "lost-future"

#: Scheduler-model queue capacity.  Two symbolic clients against a
#: one-slot queue is the smallest configuration where over-admission is
#: observable as an invariant violation.
QUEUE_CAP = 1
_CLIENTS = ("c1", "c2")


# ---------------------------------------------------------------------------
# scheduler: admit -> dispatch -> resolve/reject -> drain -> exit
# ---------------------------------------------------------------------------

def build_scheduler_model(weak: frozenset[str] = frozenset()) -> Model:
    """EpolServer's request path with ``QUEUE_CAP`` admission slots.

    Weakenings: ``admit_guard`` (submit loses its capacity check),
    ``slice_reject`` (the ``except SliceError`` handler no longer
    rejects the future), ``fleet_reject`` (the ``except FleetError``
    handler no longer rejects pending futures before stopping).
    """
    cap = QUEUE_CAP if "admit_guard" not in weak else 10 ** 9

    def admit(c: str) -> Transition:
        return Transition(
            "client-" + c, "admit", "start", "waiting",
            guard=lambda s, c=c: not s["stopped"] and len(s["queue"]) < cap,
            update=lambda s, c=c: s.__setitem__("queue", s["queue"] + (c,)))

    def reject_full(c: str) -> Transition:
        return Transition(
            "client-" + c, "admit", "start", "rejected", detail="backpressure",
            guard=lambda s: not s["stopped"] and len(s["queue"]) >= QUEUE_CAP)

    def reject_closed(c: str) -> Transition:
        return Transition(
            "client-" + c, "admit", "start", "rejected", detail="closed",
            guard=lambda s: bool(s["stopped"]))

    def wake(c: str) -> Transition:
        return Transition(
            "client-" + c, "wake", "waiting", "done", internal=True,
            guard=lambda s, c=c: c in s["settled"])

    def _pop_first(s: dict, *, settle: bool) -> None:
        head, rest = s["queue"][0], s["queue"][1:]
        s["queue"] = rest
        if settle:
            s["settled"] = s["settled"] | {head}

    def _pop_all(s: dict, *, settle: bool) -> None:
        if settle:
            s["settled"] = s["settled"] | set(s["queue"])
        s["queue"] = ()
        s["stopped"] = True

    transitions = [t for c in _CLIENTS
                   for t in (admit(c), reject_full(c), reject_closed(c),
                             wake(c))]
    transitions += [
        # Healthy dispatch: the oldest admitted request resolves.
        Transition("sched", "dispatch", "idle", "idle", detail="resolve",
                   guard=lambda s: bool(s["queue"]) and s["fleet_ok"],
                   update=lambda s: _pop_first(s, settle=True)),
        # Request-scoped slice failure (worker died mid-slice, fleet
        # recovered): the one future is rejected, serving continues.
        Transition("sched", "dispatch", "idle", "idle", detail="slice-fail",
                   guard=lambda s: bool(s["queue"]) and s["fleet_ok"],
                   update=lambda s: _pop_first(
                       s, settle="slice_reject" not in weak)),
        # Fleet-scoped failure: every pending future is rejected and the
        # server stops admitting.
        Transition("sched", "dispatch", "idle", "idle", detail="fleet-error",
                   guard=lambda s: bool(s["queue"]) and not s["fleet_ok"],
                   update=lambda s: _pop_all(
                       s, settle="fleet_reject" not in weak)),
        Transition("sched", "exit", "idle", "exited", internal=True,
                   guard=lambda s: s["stopped"] and not s["queue"]),
        Transition("stopper", "stop", "running", "stopped_srv",
                   update=lambda s: s.__setitem__("stopped", True)),
        Transition("fleet", "break", "ok", "broken", internal=True,
                   update=lambda s: s.__setitem__("fleet_ok", False)),
    ]
    return Model(
        "scheduler",
        processes={**{"client-" + c: "start" for c in _CLIENTS},
                   "sched": "idle", "stopper": "running", "fleet": "ok"},
        final={**{"client-" + c: ("done", "rejected") for c in _CLIENTS},
               "sched": ("exited",), "stopper": ("stopped_srv",),
               "fleet": ("ok", "broken")},
        shared={"queue": (), "settled": frozenset(), "stopped": False,
                "fleet_ok": True},
        transitions=transitions,
        invariants=[Invariant(
            "queue-bound",
            lambda s: len(s["queue"]) <= QUEUE_CAP,
            "admitted requests never exceed queue_capacity")],
        stuck_kinds={"client-" + c: LOST_FUTURE for c in _CLIENTS},
    )


# ---------------------------------------------------------------------------
# future: resolve-once handoff
# ---------------------------------------------------------------------------

def build_future_model(weak: frozenset[str] = frozenset()) -> Model:
    """ServeFuture: the producer stores a value/error then sets the done
    event; the consumer wakes only after it is set.

    Weakening ``done_set``: ``_resolve``/``_reject`` no longer set the
    event -- the consumer blocks forever (lost future)."""
    sets_done = "done_set" not in weak

    def settle(label: str) -> Transition:
        return Transition(
            "producer", label, "idle", "complete",
            update=lambda s: s.__setitem__("done", sets_done))

    return Model(
        "future",
        processes={"producer": "idle", "consumer": "waiting"},
        final={"producer": ("complete",), "consumer": ("got",)},
        shared={"done": False},
        transitions=[
            settle("resolve"),
            settle("reject"),
            Transition("consumer", "wake", "waiting", "got", internal=True,
                       guard=lambda s: bool(s["done"])),
        ],
        stuck_kinds={"consumer": LOST_FUTURE},
    )


# ---------------------------------------------------------------------------
# pool: submit -> serve -> crash -> detect -> respawn -> shutdown
# ---------------------------------------------------------------------------

def build_pool_model(weak: frozenset[str] = frozenset()) -> Model:
    """PersistentWorkerPool with one worker and one task in flight.

    Weakening ``death_detect``: ``next_result`` no longer polls worker
    exit codes -- a crash with no queued result deadlocks the parent."""

    def take(s: dict) -> None:
        s["task_pending"] = False

    def post(s: dict) -> None:
        s["results"] = s["results"] + 1

    transitions = [
        Transition("parent", "submit", "idle", "collecting",
                   guard=lambda s: s["submits_left"] > 0,
                   update=lambda s: s.update(
                       submits_left=s["submits_left"] - 1,
                       task_pending=True)),
        Transition("parent", "next_result", "collecting", "idle",
                   guard=lambda s: s["results"] > 0,
                   update=lambda s: s.__setitem__(
                       "results", s["results"] - 1)),
        Transition("worker", "take", "serving", "working", internal=True,
                   guard=lambda s: s["task_pending"], update=take),
        Transition("worker", "post", "working", "serving", internal=True,
                   update=post),
        Transition("worker", "crash", "serving", "dead", internal=True),
        Transition("worker", "crash", "working", "dead", internal=True,
                   detail="mid-task"),
        Transition("parent", "respawn", "failed", "idle",
                   update=lambda s: s.__setitem__("task_pending", False)),
        Transition("parent", "shutdown", "idle", "closed",
                   update=lambda s: s.__setitem__("shutdown_sent", True)),
        Transition("worker", "take", "serving", "stopped", internal=True,
                   detail="sentinel",
                   guard=lambda s: bool(s["shutdown_sent"])),
    ]
    if "death_detect" not in weak:
        transitions.insert(2, Transition(
            "parent", "next_result", "collecting", "failed",
            detail="pool-error",
            guard=lambda s: s["results"] == 0 and not s["task_pending"]
            and s["worker"] == "dead"))
        # A crash that loses the submitted task before any worker took it
        # is also detected by the exit-code poll.
        transitions.insert(3, Transition(
            "parent", "next_result", "collecting", "failed",
            detail="pool-error",
            guard=lambda s: s["results"] == 0 and s["task_pending"]
            and s["worker"] == "dead",
            update=take))
        # Respawn replaces the dead rank in place.
        transitions.append(Transition(
            "worker", "spawn", "dead", "serving", internal=True,
            guard=lambda s: s["parent"] == "failed"))
    return Model(
        "pool",
        processes={"parent": "idle", "worker": "serving"},
        final={"parent": ("closed",),
               "worker": ("stopped", "dead", "serving")},
        shared={"results": 0, "task_pending": False, "submits_left": 1,
                "shutdown_sent": False},
        transitions=transitions,
    )


# ---------------------------------------------------------------------------
# shm: publish -> attach -> close -> unlink (exactly once, every path)
# ---------------------------------------------------------------------------

def build_shm_model(weak: frozenset[str] = frozenset()) -> Model:
    """The per-request scratch segment lifecycle of ``run_sliced``.

    Weakening ``scratch_lifecycle``: the owner's finally block no longer
    closes its mapping before unlinking -- the model unlinks straight
    from ``published`` and the unlink-while-mapped invariant fires."""
    skip_close = "scratch_lifecycle" in weak

    transitions = [
        Transition("owner", "publish", "start", "published",
                   update=lambda s: s.update(exists=True,
                                             owner_mapped=True)),
        Transition("attacher", "attach", "idle", "attached", internal=True,
                   guard=lambda s: bool(s["exists"])),
        Transition("attacher", "close", "attached", "detached",
                   internal=True),
        Transition("attacher", "crash", "attached", "dead", internal=True),
        Transition("attacher", "crash", "idle", "dead", internal=True),
    ]
    if skip_close:
        transitions.append(Transition(
            "owner", "unlink", "published", "done",
            update=lambda s: s.update(exists=False,
                                      unlinks=s["unlinks"] + 1)))
    else:
        transitions += [
            Transition("owner", "close", "published", "closed_local",
                       update=lambda s: s.__setitem__("owner_mapped",
                                                      False)),
            Transition("owner", "unlink", "closed_local", "done",
                       update=lambda s: s.update(exists=False,
                                                 unlinks=s["unlinks"] + 1)),
        ]
    return Model(
        "shm",
        processes={"owner": "start", "attacher": "idle"},
        final={"owner": ("done",),
               "attacher": ("detached", "dead", "idle")},
        shared={"exists": False, "owner_mapped": False, "unlinks": 0},
        transitions=transitions,
        invariants=[
            Invariant("unlink-while-mapped",
                      lambda s: s["unlinks"] == 0 or not s["owner_mapped"],
                      "owner must close its mapping before unlink"),
            Invariant("double-unlink", lambda s: s["unlinks"] <= 1,
                      "a segment is unlinked at most once"),
        ],
        obligations=[Obligation(
            "segment-reclaimed",
            lambda s: s["unlinks"] == 1 and not s["exists"],
            "every published segment is unlinked exactly once")],
    )


# ---------------------------------------------------------------------------
# cluster: forward -> bounce/reject -> retry; donate -> exec x2 -> reduce
# ---------------------------------------------------------------------------

def build_router_model(weak: frozenset[str] = frozenset()) -> Model:
    """ClusterRouter's routing tier: two clients, one shard slot, and a
    two-range work donation.

    A forward either delivers into the shard's one admission slot or
    *bounces* -- the shard refused, which from the router's seat is
    nondeterministic.  The strong router propagates every bounce to the
    submitting client as a rejection (the client retries once, then
    gives up with a definite error).  Donation pops a request, executes
    its two row ranges, then reduces.

    Weakenings: ``swallow_reject`` (``_forward`` no longer re-raises the
    shard's ``RejectedError`` -- the bounced client waits forever, a
    lost future, RV402); ``donate_once`` (``_donate`` no longer takes
    its ranges from ``slice_bounds`` through the shared pipeline -- a
    donated range can execute twice, violating the exactly-once
    invariant behind bit-identical donated energies, RV406).
    """
    propagate = "swallow_reject" not in weak
    exec_cap = 1 if "donate_once" not in weak else 2

    def submit(c: str) -> Transition:
        return Transition(
            "client-" + c, "submit", "start", "waiting",
            update=lambda s, c=c: s.__setitem__("pending",
                                                s["pending"] + (c,)))

    def _resubmit(s: dict, c: str) -> None:
        s["pending"] = s["pending"] + (c,)
        s["bounced"] = s["bounced"] - {c}
        s["retry"] = s["retry"] - {c}

    def resubmit(c: str) -> Transition:
        return Transition(
            "client-" + c, "submit", "waiting", "waiting", detail="retry",
            guard=lambda s, c=c: c in s["bounced"] and c in s["retry"],
            update=lambda s, c=c: _resubmit(s, c))

    def give_up(c: str) -> Transition:
        return Transition(
            "client-" + c, "give_up", "waiting", "rejected", internal=True,
            guard=lambda s, c=c: c in s["bounced"] and c not in s["retry"],
            update=lambda s, c=c: s.__setitem__("bounced",
                                                s["bounced"] - {c}))

    def wake(c: str) -> Transition:
        return Transition(
            "client-" + c, "wake", "waiting", "done", internal=True,
            guard=lambda s, c=c: c in s["settled"])

    def _deliver(s: dict) -> None:
        head, s["pending"] = s["pending"][0], s["pending"][1:]
        s["q"] = s["q"] + (head,)

    def _bounce(s: dict) -> None:
        head, s["pending"] = s["pending"][0], s["pending"][1:]
        s["attempt"] = head

    def _reject(s: dict) -> None:
        if propagate:
            s["bounced"] = s["bounced"] | {s["attempt"]}
        s["attempt"] = ""

    def _serve(s: dict) -> None:
        head, s["q"] = s["q"][0], s["q"][1:]
        s["settled"] = s["settled"] | {head}

    def _start_donation(s: dict) -> None:
        head, s["pending"] = s["pending"][0], s["pending"][1:]
        s["donated"] = head
        s["r1"] = s["r2"] = 0

    def _finish_donation(s: dict) -> None:
        s["settled"] = s["settled"] | {s["donated"]}
        s["donated"] = ""
        s["r1"] = s["r2"] = 0

    transitions = [t for c in _CLIENTS
                   for t in (submit(c), resubmit(c), give_up(c), wake(c))]
    transitions += [
        Transition("router", "forward", "idle", "idle", detail="deliver",
                   guard=lambda s: bool(s["pending"])
                   and len(s["q"]) < QUEUE_CAP,
                   update=_deliver),
        # The shard may refuse admission (bound hit -- from the router's
        # seat, nondeterministic): the forward bounces.
        Transition("router", "forward", "idle", "bouncing", detail="bounce",
                   guard=lambda s: bool(s["pending"]), update=_bounce),
        Transition("router", "reject", "bouncing", "idle", update=_reject),
        Transition("shard", "serve", "serving", "serving", internal=True,
                   guard=lambda s: bool(s["q"]), update=_serve),
        Transition("router", "donate", "idle", "donating",
                   guard=lambda s: bool(s["pending"]),
                   update=_start_donation),
        Transition("router", "exec", "donating", "donating",
                   detail="range-1",
                   guard=lambda s: s["r1"] < exec_cap,
                   update=lambda s: s.__setitem__("r1", s["r1"] + 1)),
        Transition("router", "exec", "donating", "donating",
                   detail="range-2",
                   guard=lambda s: s["r2"] < exec_cap,
                   update=lambda s: s.__setitem__("r2", s["r2"] + 1)),
        Transition("router", "reduce", "donating", "idle",
                   guard=lambda s: s["r1"] >= 1 and s["r2"] >= 1,
                   update=_finish_donation),
    ]
    return Model(
        "cluster",
        processes={**{"client-" + c: "start" for c in _CLIENTS},
                   "router": "idle", "shard": "serving"},
        final={**{"client-" + c: ("done", "rejected") for c in _CLIENTS},
               "router": ("idle",), "shard": ("serving",)},
        shared={"pending": (), "q": (), "settled": frozenset(),
                "bounced": frozenset(), "retry": frozenset(_CLIENTS),
                "attempt": "", "donated": "", "r1": 0, "r2": 0},
        transitions=transitions,
        invariants=[Invariant(
            "range-once",
            lambda s: s["r1"] <= 1 and s["r2"] <= 1,
            "a donated row range is executed exactly once")],
        stuck_kinds={"client-" + c: LOST_FUTURE for c in _CLIENTS},
    )


# ---------------------------------------------------------------------------
# Spec registry: anchors, facts, required annotations, RV mapping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RequiredMark:
    """One ``@protocol_event`` annotation the conformance check expects
    on the real code (checked only when ``anchor`` is in the program)."""

    protocol: str
    event: str
    anchor: str  # qualname suffix of the function that must carry it


@dataclass(frozen=True)
class ProtocolSpec:
    name: str
    title: str
    #: The spec applies only when this function is in the program.
    anchor: str
    build: Callable[[frozenset[str]], Model]
    facts: tuple[CodeFact, ...] = ()
    marks: tuple[RequiredMark, ...] = ()
    #: Violation kind -> RV check id (fallback RV401).
    kinds: Mapping[str, str] = field(default_factory=dict)

    def classify(self, kind: str) -> str:
        return self.kinds.get(kind, "RV401")


def _donation_cuts_with_slice_bounds(program: Program,
                                     fn: FunctionInfo) -> bool:
    """``_donate`` runs the shared row-range pipeline, and the pipeline
    (when it is in the analysed tree) cuts its rows with ``slice_bounds``
    -- the verified disjoint exact cover (RV501)."""
    if not extract.calls_name(fn, "evaluate_ranges"):
        return False
    pipeline = extract.find_function(program, ".evaluate_ranges")
    return pipeline is None or extract.calls_name(pipeline, "slice_bounds")


def _fact(name: str, anchor: str, describe: str, weakens: str,
          check: Callable[[Program, FunctionInfo], bool]) -> CodeFact:
    return CodeFact(name=name, anchor=anchor, describe=describe,
                    check=check, weakens=weakens)


SPECS: tuple[ProtocolSpec, ...] = (
    ProtocolSpec(
        name="scheduler",
        title="EpolServer request path",
        anchor=".EpolServer._execute",
        build=build_scheduler_model,
        facts=(
            _fact("admit-guard", ".EpolServer.submit",
                  "submit() no longer enforces queue_capacity with "
                  "RejectedError: admission is unbounded",
                  "admit_guard",
                  lambda p, fn: extract.has_admission_guard(
                      fn, capacity_attr="queue_capacity",
                      reject_exc="RejectedError")),
            _fact("slice-reject", ".EpolServer._execute",
                  "the except SliceError handler no longer rejects the "
                  "request's future",
                  "slice_reject",
                  lambda p, fn: extract.handler_calls(
                      fn, "SliceError", "_reject")),
            _fact("fleet-reject", ".EpolServer._execute",
                  "the except FleetError handler no longer rejects "
                  "pending futures before stopping",
                  "fleet_reject",
                  lambda p, fn: extract.handler_calls(
                      fn, "FleetError", "_reject")),
        ),
        marks=(
            RequiredMark("scheduler", "admit", ".EpolServer.submit"),
            RequiredMark("scheduler", "dispatch", ".EpolServer._execute"),
            RequiredMark("scheduler", "stop", ".EpolServer.stop"),
        ),
        kinds={LOST_FUTURE: "RV402", INVARIANT: "RV403",
               DEADLOCK: "RV401"},
    ),
    ProtocolSpec(
        name="future",
        title="ServeFuture resolve-once handoff",
        anchor=".ServeFuture._resolve",
        build=build_future_model,
        facts=(
            _fact("resolve-sets-done", ".ServeFuture._resolve",
                  "_resolve() no longer sets the done event",
                  "done_set",
                  lambda p, fn: extract.calls_method(fn, "set")),
            _fact("reject-sets-done", ".ServeFuture._reject",
                  "_reject() no longer sets the done event",
                  "done_set",
                  lambda p, fn: extract.calls_method(fn, "set")),
        ),
        marks=(
            RequiredMark("future", "resolve", ".ServeFuture._resolve"),
            RequiredMark("future", "reject", ".ServeFuture._reject"),
        ),
        kinds={LOST_FUTURE: "RV402", DEADLOCK: "RV401"},
    ),
    ProtocolSpec(
        name="pool",
        title="PersistentWorkerPool lifecycle",
        anchor=".PersistentWorkerPool.next_result",
        build=build_pool_model,
        facts=(
            _fact("death-detect", ".PersistentWorkerPool.next_result",
                  "next_result() no longer polls worker exit codes and "
                  "raises PoolError on a dead rank",
                  "death_detect",
                  lambda p, fn: (extract.reads_attr(fn, "exitcode")
                                 and extract.raises(fn, "PoolError"))),
        ),
        marks=(
            RequiredMark("pool", "submit", ".PersistentWorkerPool.submit"),
            RequiredMark("pool", "next_result",
                         ".PersistentWorkerPool.next_result"),
            RequiredMark("pool", "respawn",
                         ".PersistentWorkerPool.respawn"),
            RequiredMark("pool", "shutdown",
                         ".PersistentWorkerPool.shutdown"),
        ),
        kinds={DEADLOCK: "RV401", LOST_FUTURE: "RV402"},
    ),
    ProtocolSpec(
        name="shm",
        title="sliced-scratch shm segment lifecycle",
        anchor=".ProcessFleet.run_sliced",
        build=build_shm_model,
        facts=(
            _fact("scratch-lifecycle", ".ProcessFleet.run_sliced",
                  "the scratch finally block no longer closes the "
                  "segment before unlinking it",
                  "scratch_lifecycle",
                  lambda p, fn:
                  extract.close_precedes_unlink_in_finally(fn)),
        ),
        marks=(
            RequiredMark("shm", "publish", ".SharedArrayBundle.create"),
            RequiredMark("shm", "close", ".SharedArrayBundle.close"),
            RequiredMark("shm", "unlink", ".SharedArrayBundle.unlink"),
        ),
        kinds={INVARIANT: "RV404", OBLIGATION: "RV404",
               DEADLOCK: "RV401"},
    ),
    ProtocolSpec(
        name="cluster",
        title="ClusterRouter routing/donation",
        anchor=".ClusterRouter._forward",
        build=build_router_model,
        facts=(
            _fact("reject-propagates", ".ClusterRouter._forward",
                  "_forward() no longer re-raises the shard's "
                  "RejectedError to the submitting client: a bounced "
                  "request is silently swallowed",
                  "swallow_reject",
                  lambda p, fn: extract.raises(fn, "RejectedError")),
            _fact("donation-bounds", ".ClusterRouter._donate",
                  "_donate() no longer cuts row ranges with "
                  "slice_bounds() (via evaluate_ranges()): donated ranges "
                  "can overlap and a range may execute more than once",
                  "donate_once", _donation_cuts_with_slice_bounds),
        ),
        marks=(
            RequiredMark("cluster", "submit", ".ClusterRouter.submit"),
            RequiredMark("cluster", "forward", ".ClusterRouter._forward"),
            RequiredMark("cluster", "reject",
                         ".ClusterRouter._shard_rejected"),
            RequiredMark("cluster", "donate", ".ClusterRouter._donate"),
            RequiredMark("cluster", "exec", ".ClusterRouter._donate_phase"),
            RequiredMark("cluster", "reduce",
                         ".ClusterRouter._donate_finish"),
        ),
        kinds={LOST_FUTURE: "RV402", INVARIANT: "RV406",
               OBLIGATION: "RV406", DEADLOCK: "RV401"},
    ),
)


def alphabet(model: Model) -> frozenset[str]:
    """Observable event labels of a model (conformance alphabet)."""
    return frozenset(t.label for t in model.transitions if not t.internal)


def build_models(
    program: Program,
) -> dict[str, tuple[ProtocolSpec, Model, list[tuple[CodeFact, FunctionInfo]]]]:
    """Build every applicable model against ``program``.

    Returns ``{spec.name: (spec, model, failed_facts)}`` where ``model``
    was built with the weakenings implied by the failed facts -- callers
    both report the failures (RV405) and explore the weakened model for
    their consequences (RV401--RV404)."""
    out = {}
    for spec in SPECS:
        if extract.find_function(program, spec.anchor) is None:
            continue
        weak: set[str] = set()
        failed: list[tuple[CodeFact, FunctionInfo]] = []
        for fact in spec.facts:
            fn = extract.find_function(program, fact.anchor)
            if fn is None:
                continue
            if not fact.check(program, fn):
                weak.add(fact.weakens)
                failed.append((fact, fn))
        out[spec.name] = (spec, spec.build(frozenset(weak)), failed)
    return out
