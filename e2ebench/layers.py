"""The per-layer table of a traced run.

Every value is computed from the traced segments of the window: spans
recorded at the public call into each layer, the worker result tuples
seen at ``PersistentWorkerPool.next_result``, deltas of the serving
stack's public counters, and the work counters of each served
molecule's interaction plans as the oracle's cold run of it counts
them.  Flow metrics are per completed request (unit ``1/req``, ``s/req``
or ``B/req``), so they do not grow with the window length or the
throughput; fractions, gauges and events that should never happen
(respawns, promotions, demotions, rejections) are not.  The metric
names and units are the ones ``BENCHMARK.json`` declares.
Busy times are self times: a span's duration minus its child spans.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .tracer import Span, self_seconds

#: The benchmark's declaration of its workloads and metrics.
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared(kind: str) -> list[tuple[str, str]]:
    """``(name, unit)`` of the ``end_to_end`` or ``per_layer`` metrics,
    as ``BENCHMARK.json`` declares them, in its order."""
    return [(m["name"], m["unit"])
            for m in json.loads(SPEC.read_text())[kind]]


def reported(kind: str, values: dict[str, float]) -> dict[str, dict]:
    """``values`` as the result line's metrics, every metric
    ``BENCHMARK.json`` declares under ``kind`` and no other."""
    names = declared(kind)
    if set(values) != {name for name, _ in names}:
        raise ValueError(f"{kind} metrics differ from {SPEC.name}: "
                         f"{sorted(set(values) ^ {n for n, _ in names})}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in names}


#: Probe counters reported as a per-request delta.
_PER_REQUEST = ["registry.hits", "registry.misses", "registry.evictions",
                "fleet.publications", "router.routed",
                "router.replica_hits", "traffic.bytes", "traffic.modeled_s"]
#: Probe counters reported as a plain count over the traced window.
_EVENTS = ["fleet.respawns", "router.promotions", "router.demotions",
           "router.rejected"]
_BUILD = ("plan.build_born", "plan.build_epol")
_OCTREE = ("octree.atoms", "octree.quad")


def _sum(values) -> float:
    return float(sum(values))


def layer_table(spans: list[Span], *, nreq: int, seconds: float,
                workers: int, deltas: dict[str, float], gauges: dict,
                exec_counts: dict[str, float], overhead_ms: list[float],
                overhead_frac: float, setup_spans: list[Span],
                setups: int) -> dict[str, float]:
    """Every per-layer metric for one traced window.

    ``deltas`` are probe-counter differences summed over the traced
    segments, ``gauges`` probe values at the end, ``exec_counts`` the
    summed plan work counters (from the oracle's cold runs) of the
    requests served in those segments.
    """
    n = max(nreq, 1)
    own = self_seconds(spans)
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def count(*names: str) -> int:
        return sum(len(by.get(name, [])) for name in names)

    def busy(*names: str) -> float:
        return _sum(own[s.sid] for name in names for s in by.get(name, []))

    def wall(name: str) -> float:
        return _sum(s.seconds for s in by.get(name, []))

    def attr(name: str, key: str) -> float:
        return _sum(s.attrs.get(key, 0) for s in by.get(name, []))

    results = by.get("pool.next_result", [])
    cold = sum(1 for s in results if s.attrs.get("cold"))
    worker_s = _sum(s.attrs.get("secs", 0.0) for s in results)
    sliced_ids = {s.sid for s in by.get("fleet.run_sliced", [])}
    sliced_wall = wall("fleet.run_sliced")
    sliced_wait = _sum(s.seconds for s in results if s.parent in sliced_ids)
    slice_s = _sum(s.attrs.get("secs", 0.0) for s in results
                   if s.attrs.get("kind") in ("born_ok", "epol_ok"))
    batches = deltas.get("scheduler.batches", 0.0)

    out: dict[str, float] = {
        "surface.calls": count("surface.build") / n,
        "surface.busy_s": busy("surface.build") / n,
        "surface.points": attr("surface.build", "points") / n,
        # Each cold attach rebuilds both trees in the worker.
        "octree.calls": (count(*_OCTREE) + 2 * cold) / n,
        "octree.busy_s": busy(*_OCTREE) / n,
        "plan.build_calls": count(*_BUILD) / n,
        "plan.build_s": busy(*_BUILD) / n,
        "plan.rows": (attr("plan.build_born", "rows")
                      + attr("plan.build_epol", "rows")) / n,
        "plan.cache_hits": attr("plan.cache", "hits") / n,
        "plan.cache_misses": attr("plan.cache", "misses") / n,
        "core.push_s": busy("core.push", "core.energy_context") / n,
        "registry.register_s": busy("registry.register") / n,
        "registry.bytes": gauges.get("registry.bytes", 0) / 2 ** 20,
        "scheduler.batches": batches / n,
        "scheduler.mean_batch": (deltas.get("scheduler.completed", 0.0)
                                 / batches if batches else 0.0),
        "scheduler.overhead_ms_p50": (statistics.median(overhead_ms)
                                      if overhead_ms else 0.0),
        "fleet.run_batch_s": wall("fleet.run_batch") / n,
        "fleet.run_sliced_s": sliced_wall / n,
        "fleet.cold_attaches": cold / n,
        "fleet.worker_eval_s": worker_s / n,
        "fleet.worker_busy_frac": (worker_s / (workers * seconds)
                                   if seconds > 0 else 0.0),
        "shm.creates": count("shm.create") / n,
        "shm.bytes": attr("shm.create", "bytes") / n,
        "shm.create_s": busy("shm.create") / n,
        "sliced.reduce_s": busy("sliced.reduce") / n,
        "sliced.fold_s": busy("sliced.fold") / n,
        "sliced.serial_frac": ((sliced_wall - sliced_wait) / sliced_wall
                               if sliced_wall > 0 else 0.0),
        "sliced.parallel_eff": (slice_s / (workers * sliced_wall)
                                if sliced_wall > 0 else 0.0),
        "router.submit_s": wall("router.submit") / n,
        "trace.overhead_frac": overhead_frac,
        "trace.requests": float(nreq),
    }
    for name in _PER_REQUEST:
        out[name] = deltas.get(name, 0.0) / n
    for name in _EVENTS:
        out[name] = deltas.get(name, 0.0)
    for name in ("exact_pairs", "far_evals", "hist_pairs", "modeled_s"):
        out[f"exec.{name}"] = exec_counts.get(name, 0.0) / n

    own_setup = self_seconds(setup_spans)
    reps = max(setups, 1)
    for metric, names in (("setup.surface.busy_s", ("surface.build",)),
                          ("setup.octree.busy_s", _OCTREE),
                          ("setup.plan.build_s", _BUILD),
                          ("setup.registry.register_s",
                           ("registry.register",))):
        out[metric] = _sum(own_setup[s.sid] for s in setup_spans
                           if s.name in names) / reps
    return out
