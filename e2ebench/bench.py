"""One benchmark run: set-ups and window parts, oracle, metrics.

A run is one fresh process serving one workload:

1. **Set-up and window, in turn**, :data:`SETUP_REPS` times: start the
   server or router on fresh worker processes, register the resident
   set, run the fixed warm-up (the set-up, from the same generated
   inputs each time), then serve a closed loop for ``seconds /
   SETUP_REPS``; submission stops at the deadline and in-flight
   requests drain.  Each repetition's set-up counters and per-request
   window counters must match the others' exactly.  A repetition that
   differs is reported as unsteady, and its set-up and window part are
   both left out.  ``setup_s`` is the median set-up of the steady
   repetitions; the window metrics pool their window parts, so one run
   samples the machine over its whole length rather than one stretch of
   it.  With ``trace`` each part alternates untraced and traced
   segments, and the per-layer table comes from the traced ones.  The
   largest worker's peak RSS is read at the end of each window part.
2. **Shutdown**, then this process's peak RSS, then the **oracle**:
   every served energy, in steady and unsteady repetitions alike, must
   equal a cold serial run of its molecule bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import platform
import resource
import statistics
import subprocess
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .layers import layer_table, reported
from .oracle import cold_references
from .tracer import TARGETS, Tracer, span_records
from .workloads import WORKLOADS, Served, Workload, drive, window_counters

CLOCK = time.perf_counter
#: Set-ups per run, each followed by an equal part of the window;
#: ``setup_s`` is their median.
SETUP_REPS = 3
#: Segments of each window part of a traced run with several requests in
#: flight: untraced and traced in turn.  With one in flight the run
#: alternates request by request.
TRACE_SEGMENTS = 4
#: Percentile reported as ``latency_tail_ms``.  On ``cold-decoys``, the
#: workload the tail is for, the highest with at least ten requests
#: beyond it at 15 s (about 25 requests).  The other two report the
#: upper quartile, which their closed loops measure steadily.
TAIL_PERCENTILE = {"cold-decoys": 60, "warm-zipf": 75, "giant-sliced": 75}
#: Set-up counters that depend on request timing, not on the work done:
#: batch formation, and completions the scheduler records just after it
#: resolves a future.
_TIMING_COUNTERS = ("scheduler.batches", "scheduler.groups",
                    "scheduler.completed")
#: Plan work of each served molecule, from the oracle's cold run of it.
_WORK = ("rows", "points", "exact_pairs", "far_evals", "hist_pairs",
         "modeled_s")


def fingerprint(root: Path, blas_env: dict[str, str]) -> dict:
    """Machine and build identity recorded in every result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict view
        blas = {}
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in blas_env},
        "start_method": (os.environ.get("REPRO_PROCPOOL_START")
                         or mp.get_context().get_start_method()),
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest(),
    }


def _git_sha(root: Path) -> str | None:
    """HEAD's commit, or None where ``root`` has no ``.git``."""
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _largest_worker_mb() -> float:
    """Peak RSS so far (``VmHWM``) of the largest live worker process of
    the serving stack, in MiB."""
    peaks = [0.0]
    for proc in mp.active_children():
        try:
            with open(f"/proc/{proc.pid}/status") as fh:
                peaks += [int(line.split()[1]) / 1024.0 for line in fh
                          if line.startswith("VmHWM:")]
        except OSError:  # the worker has just exited
            pass
    return max(peaks)


def _results(tracer: Tracer, phase: str) -> list[dict]:
    return [s.attrs for s in tracer.spans
            if s.name == "pool.next_result" and s.phase == phase
            and "kind" in s.attrs]


def _setup(wl: Workload, tracer: Tracer, rep: int
           ) -> tuple[float, dict, list[Served]]:
    """One set-up: start, register, fixed warm-up (plus extra rounds
    while a worker is still cold).  Returns seconds, counters, requests."""
    tracer.phase = f"setup{rep}"
    tracer.install()
    try:
        t0 = CLOCK()
        wl.start()
        served = drive(wl, iter(wl.warmup_requests()), clock=CLOCK)
        extra = 0
        while (not wl.warm(_results(tracer, tracer.phase))
               and extra < wl.max_extra_warmup):
            served += drive(wl, iter(wl.extra_warmup()), clock=CLOCK)
            extra += 1
        seconds = CLOCK() - t0
    finally:
        tracer.uninstall()
    probe = wl.probe()
    counters = {k: v for k, v in probe.items() if k not in _TIMING_COUNTERS}
    # The scheduler looks each batch group up in the registry once more;
    # grouping depends on timing, so those lookups are left out.
    counters["registry.hits"] -= probe["scheduler.groups"]
    ok = [s for s in served if s.ok]
    counters.update({
        "warmup.requests": len(served),
        "warmup.extra_rounds": extra,
        "warmup.failed": len(served) - len(ok),
        "fleet.cold_attaches": sum(r["cold"] for r in _results(
            tracer, tracer.phase)),
        "sliced": sum(s.detail.get("mode") == "sliced" for s in ok),
    })
    return seconds, counters, served


def _request_record(wl: Workload, s: Served) -> dict:
    detail = s.detail or {}
    return {"mol": s.mol, "natoms": len(wl.molecules[s.mol]),
            "t_call": s.t_call, "latency": s.latency,
            "submit_s": s.t_ret - s.t_call,
            "eval_s": detail.get("eval_seconds"),
            "cold": detail.get("cold_attach"), "error": s.error}


def _percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile: a mean of all
    order statistics, weighted by a Beta distribution centred on ``q``.
    A window holds a few dozen decoys of different sizes, and the plain
    sample percentile jumps between neighbouring sizes."""
    # Imported here, after the window: scipy loaded before the fleet
    # forks would add its pages to every process's peak RSS.
    from scipy.special import betainc

    if not values:
        return 0.0
    x = np.sort(values)
    a = (len(x) + 1) * q / 100.0
    weights = np.diff(betainc(a, len(x) + 1 - a,
                              np.linspace(0.0, 1.0, len(x) + 1)))
    return float(weights @ x)


def run(name: str, *, seed: int, seconds: float, workers: int,
        trace: bool, root: Path, blas_env: dict[str, str]
        ) -> tuple[dict, int, dict]:
    """One run; returns ``(result line, exit code, detailed record)``
    and writes the record (and, traced, the span file) under ``out/``."""
    wl = WORKLOADS[name](seed, workers)
    tracer = Tracer(targets=None if trace else [
        t for t in TARGETS if t[0] == "pool.next_result"])
    #: One per set-up: its seconds and counters, the requests of its
    #: set-up and of its window part, and that part's counters.
    reps: list[dict] = []
    #: Window segments: repetition, start, end, traced, counter probes
    #: before/after.
    segments: list[dict] = []

    def open_segment(now: float, traced: bool) -> None:
        if traced:
            tracer.phase = f"window{len(reps)}"
            tracer.install()
        segments.append({"rep": len(reps), "start": now, "traced": traced,
                         "before": wl.probe()})

    def close_segment(now: float) -> None:
        if tracer.installed:
            tracer.uninstall()
        segments[-1].update(end=now, after=wl.probe())

    def toggle(now: float) -> None:
        traced = not segments[-1]["traced"]
        close_segment(now)
        open_segment(now, traced)

    part_s = seconds / SETUP_REPS
    try:
        for rep in range(SETUP_REPS):
            if rep:
                wl.stop()
            secs, counters, served = _setup(wl, tracer, rep)
            t0 = CLOCK()
            open_segment(t0, False)
            part = drive(
                wl, wl.window_requests(), clock=CLOCK, deadline=t0 + part_s,
                on_segment=toggle if trace else None,
                segment_seconds=(None if not trace else 0.0
                                 if wl.inflight == 1
                                 else part_s / TRACE_SEGMENTS))
            close_segment(CLOCK())
            reps.append({
                "setup_s": secs, "setup": counters, "served_setup": served,
                "served": part, "worker_mb": _largest_worker_mb(),
                "seconds": max((s.t_done for s in part if s.ok),
                               default=t0) - t0,
                "window": window_counters(part, _deltas(
                    [seg for seg in segments if seg["rep"] == rep]))})
    finally:
        if tracer.installed:
            tracer.uninstall()
        wl.stop()
    # Peak RSS of this process, taken before the oracle runs.
    parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    served_all = [s for r in reps for s in r["served_setup"] + r["served"]]
    refs = cold_references({s.mol: wl.molecules[s.mol] for s in served_all
                            if s.ok}, workers)
    mismatches = [s.mol for s in served_all
                  if s.ok and s.energy != refs[s.mol]["energy"]]
    failed = sum(1 for s in served_all if not s.ok) + len(mismatches)
    steady = _steady(reps)
    determinism = _determinism(wl, reps, steady, refs)

    kept = [reps[i] for i in steady]
    ok_window = [s for r in kept for s in r["served"] if s.ok]
    window_s = sum(r["seconds"] for r in kept)
    latencies = [s.latency for s in ok_window]
    tail = TAIL_PERCENTILE[name]
    tail_value = _percentile(latencies, tail)
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "workers": workers, "trace": trace,
        "fingerprint": fingerprint(root, blas_env),
        "setup_seconds": [r["setup_s"] for r in reps],
        "setup_counters": [r["setup"] for r in reps],
        "window_counters": [r["window"] for r in reps],
        "peak_rss": {"parent_mb": parent_mb,
                     "worker_mb": [r["worker_mb"] for r in reps]},
        "window": {"requests": sum(len(r["served"]) for r in kept),
                   "ok": len(ok_window), "seconds": window_s,
                   "tail_percentile": tail,
                   "beyond_tail": sum(x > tail_value for x in latencies)},
        "determinism": determinism,
        "mismatches": mismatches,
        "requests": [_request_record(wl, s) for s in served_all],
    }
    if trace:
        table, record["segments"] = _layers(
            tracer, ok_window, [seg for seg in segments
                                if seg["rep"] in steady],
            steady, refs, {k: len(m) for k, m in wl.molecules.items()},
            workers)
        record["layers"] = table
        metrics = reported("per_layer", table)
        _write(root, f"trace-{name}-seed{seed}.json",
               {"spans": span_records(tracer.spans), "layers": table})
    else:
        metrics = reported("end_to_end", {
            "setup_s": statistics.median(r["setup_s"] for r in kept),
            "throughput_rps": (len(ok_window) / window_s
                               if window_s > 0 else 0.0),
            "latency_p50_ms": 1e3 * _percentile(latencies, 50),
            "latency_tail_ms": 1e3 * tail_value,
            # Which worker takes each decoy, and each eviction notice,
            # is up to the shared task queue, so the largest worker's
            # peak varies from one stack to the next: the median.
            "peak_rss_mb": parent_mb + statistics.median(
                r["worker_mb"] for r in kept),
        })
    record["metrics"] = metrics
    _write(root, f"result-{name}-seed{seed}-trace{int(trace)}.json", record)
    line = {"correct": not mismatches and failed == 0,
            "attempted": len(served_all), "failed": failed,
            "metrics": metrics}
    return line, (1 if mismatches else 0), record


def _steady(reps: list[dict]) -> list[int]:
    """The repetitions whose set-up and window counters agree with the
    majority's (with no majority, the last repetition's)."""
    keyed = [json.dumps({"setup": r["setup"], "window": r["window"]},
                        sort_keys=True) for r in reps]
    modal = Counter(keyed).most_common()
    reference = keyed[-1] if modal[0][1] == 1 else modal[0][0]
    return [i for i, k in enumerate(keyed) if k == reference]


def _determinism(wl: Workload, reps: list[dict], steady: list[int],
                 refs: dict) -> dict:
    """The counters that must repeat exactly, from a steady repetition,
    and a digest of them and of which repetitions were unsteady."""
    ref = reps[steady[0]]
    # The oracle's plan work of the warm-up: the same molecules in every
    # repetition.  A served energy equals its cold one bit for bit only
    # when the served plans are the cold run's, pair for pair.
    work = {f"work.{k}": sum(refs[s.mol][k] for s in ref["served_setup"]
                             if s.ok) for k in _WORK}
    out = {
        "setup": {**ref["setup"], **work},
        "window": ref["window"],
        "unsteady_reps": [i for i in range(len(reps)) if i not in steady],
        "window_invariants_hold": all(ref["window"].get(k) == v
                                      for k, v in wl.window_expect.items()),
    }
    out["digest"] = hashlib.sha256(json.dumps(
        out, sort_keys=True).encode()).hexdigest()[:16]
    return out


def _deltas(segments: list[dict]) -> dict[str, float]:
    """Counter changes summed over ``segments``."""
    out: dict[str, float] = {}
    for seg in segments:
        for key, value in seg["after"].items():
            out[key] = out.get(key, 0.0) + value - seg["before"][key]
    return out


def _layers(tracer: Tracer, ok_window: list[Served], segments: list[dict],
            steady: list[int], refs: dict, natoms: dict[str, int],
            workers: int) -> tuple[dict, dict]:
    """Per-layer table from the traced segments of the steady
    repetitions' window parts."""
    def traced_at(t: float) -> bool:
        return next((seg["traced"] for seg in segments
                     if seg["start"] <= t <= seg["end"]), False)

    in_t = [s for s in ok_window if traced_at(s.t_done)]
    in_u = [s for s in ok_window if not traced_at(s.t_done)]
    traced = [seg for seg in segments if seg["traced"]]
    sec_t = sum(seg["end"] - seg["start"] for seg in traced)
    sec_u = sum(seg["end"] - seg["start"] for seg in segments
                if not seg["traced"])
    rps_t = len(in_t) / sec_t if sec_t > 0 else 0.0
    rps_u = len(in_u) / sec_u if sec_u > 0 else 0.0
    # The overhead compares atoms served per second, so the two halves'
    # mixes of molecule sizes (decoys alternate request by request) do
    # not pass for tracing cost.
    rate_t = sum(natoms[s.mol] for s in in_t) / sec_t if sec_t > 0 else 0.0
    rate_u = sum(natoms[s.mol] for s in in_u) / sec_u if sec_u > 0 else 0.0
    table = layer_table(
        [s for s in tracer.spans
         if s.phase in {f"window{i}" for i in steady}],
        nreq=len(in_t), seconds=sec_t, workers=workers,
        deltas=_deltas(traced), gauges=segments[-1]["after"],
        exec_counts={k: sum(refs[s.mol][k] for s in in_t) for k in _WORK},
        overhead_ms=[1e3 * (s.detail["latency_seconds"]
                            - s.detail["eval_seconds"]) for s in in_t],
        overhead_frac=1.0 - rate_t / rate_u if rate_u > 0 else 0.0,
        setup_spans=[s for s in tracer.spans
                     if s.phase in {f"setup{i}" for i in steady}],
        setups=len(steady))
    return table, {"bounds": [(seg["start"], seg["end"], seg["traced"])
                              for seg in segments],
                   "rps_traced": rps_t, "rps_untraced": rps_u,
                   "atoms_per_s_traced": rate_t,
                   "atoms_per_s_untraced": rate_u}


def _write(root: Path, filename: str, payload: dict) -> None:
    out = root / "e2ebench" / "out"
    out.mkdir(exist_ok=True)
    (out / filename).write_text(json.dumps(payload, indent=1, default=float))
