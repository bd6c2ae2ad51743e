"""Workload replay CLI: ``python -m repro.serve``.

Replays a decoy-scoring request stream through the serving layer and
writes a benchmark record (throughput, p50/p95/p99 latency, batch-size
histogram, per-mode and per-class breakdowns, registry and plan-cache
hit rates)::

    python -m repro.serve --workload zdock-synth --requests 200
    python -m repro.serve --workload blob --requests 100 --backend sim
    python -m repro.serve --workload mixed --requests 120 -P 4

Workloads:

* ``zdock-synth`` -- cycles the ZDock-Benchmark-2.0 analogue registry
  (:mod:`repro.molecule.zdock`), smallest complexes first, capped by
  ``--max-atoms``;
* ``blob`` -- ``--distinct`` synthetic protein blobs of ``--natoms``
  atoms;
* ``mixed`` -- the intra-request parallelism scenario: a stream of
  small blobs with every ``--large-every``-th request asking for one
  giant ``--large-natoms`` molecule.  The SLO scheduler micro-batches
  the small class and row-slices the giant one across the fleet
  (``--slice-threshold auto`` picks the midpoint between the two
  classes' measured plan row weights); the report carries per-class
  latency percentiles and lands in ``BENCH_serve_sliced.json``.

Every request is submitted with an unbounded retry-with-backoff loop, so
admission rejections (backpressure) delay producers instead of losing
requests; the process exits non-zero unless every submitted request
completes.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..molecule.molecule import Molecule
from .client import ServeClient
from .fleet import make_fleet
from .metrics import latency_summary, now
from .registry import MoleculeRegistry
from .scheduler import EpolServer, ServeConfig


def _workload(args: argparse.Namespace
              ) -> tuple[list[Molecule], list[str]]:
    """The distinct molecules the request stream cycles through, and the
    size class (``small``/``large``) of each."""
    if args.workload == "zdock-synth":
        from ..molecule import zdock
        mols = [zdock.molecule(e.index) for e in zdock.entries()
                if e.natoms <= args.max_atoms][:args.distinct]
        if not mols:
            raise SystemExit(
                f"no ZDock analogue fits --max-atoms {args.max_atoms} "
                f"(suite minimum is {zdock.MIN_ATOMS})")
        return mols, ["small"] * len(mols)
    from ..config import DEFAULT_SEED
    from ..molecule.generators import protein_blob
    seed = DEFAULT_SEED if args.seed is None else args.seed
    mols = [protein_blob(args.natoms, seed=seed + i,
                         name=f"blob-{args.natoms}-{i}")
            for i in range(args.distinct)]
    classes = ["small"] * len(mols)
    if args.workload == "mixed":
        mols.append(protein_blob(args.large_natoms, seed=seed + 1000,
                                 name=f"blob-{args.large_natoms}-large"))
        classes.append("large")
    return mols, classes


def _request_stream(args: argparse.Namespace, nmols: int,
                    classes: list[str]) -> list[int]:
    """Molecule index per request.  Mixed workloads interleave one large
    request every ``--large-every``; other workloads round-robin."""
    if args.workload != "mixed":
        return [i % nmols for i in range(args.requests)]
    large = classes.index("large")
    smalls = [i for i, c in enumerate(classes) if c == "small"]
    stream, nsmall = [], 0
    for i in range(args.requests):
        if i % args.large_every == args.large_every - 1:
            stream.append(large)
        else:
            stream.append(smalls[nsmall % len(smalls)])
            nsmall += 1
    return stream


def _resolve_threshold(args: argparse.Namespace,
                       weights: list[float],
                       classes: list[str]) -> float | None:
    """The slice threshold: an explicit number, ``auto`` (midpoint of
    the measured small/large plan row weights), or None (disabled)."""
    if args.slice_threshold is None:
        return None
    if args.slice_threshold != "auto":
        return float(args.slice_threshold)
    smalls = [w for w, c in zip(weights, classes) if c == "small"]
    larges = [w for w, c in zip(weights, classes) if c == "large"]
    if not smalls or not larges:
        raise SystemExit("--slice-threshold auto needs both size classes "
                         "(use --workload mixed, or pass a number)")
    return (max(smalls) + min(larges)) / 2.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Replay an E_pol request stream through the batched, "
                    "cached serving layer and write a benchmark record.")
    parser.add_argument("--workload",
                        choices=("zdock-synth", "blob", "mixed"),
                        default="zdock-synth")
    parser.add_argument("--requests", type=int, default=200,
                        help="total requests to replay (default 200)")
    parser.add_argument("--distinct", type=int, default=6,
                        help="distinct molecules the stream cycles through")
    parser.add_argument("--max-atoms", type=int, default=900,
                        help="zdock-synth: largest complex to serve")
    parser.add_argument("--natoms", type=int, default=350,
                        help="blob/mixed: atoms per small molecule")
    parser.add_argument("--large-natoms", type=int, default=1500,
                        help="mixed: atoms of the giant molecule")
    parser.add_argument("--large-every", type=int, default=8,
                        help="mixed: one giant request per this many")
    parser.add_argument("--seed", type=int, default=None,
                        help="blob/mixed: generator seed")
    parser.add_argument("--backend", choices=("real", "sim"),
                        default="real")
    parser.add_argument("-P", "--workers", type=int, default=2,
                        help="fleet width: worker processes (real) or "
                             "slices per sliced request (sim); default 2")
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="micro-batching window (default 2 ms)")
    parser.add_argument("--queue-cap", type=int, default=64,
                        help="admission-control queue bound")
    parser.add_argument("--registry-mb", type=float, default=None,
                        help="optional registry LRU budget, megabytes")
    parser.add_argument("--slice-threshold", default=None,
                        help="plan row weight above which a request is "
                             "row-sliced across the fleet: a number, "
                             "'auto' (mixed midpoint), or omit to disable"
                             " (mixed default: auto)")
    parser.add_argument("--slice-queue-scale", type=float, default=0.0,
                        help="queue-depth scaling of the slice threshold")
    parser.add_argument("--bench-out", default=None,
                        help="output path (default BENCH_serve.json, or "
                             "BENCH_serve_sliced.json for --workload "
                             "mixed)")
    args = parser.parse_args(argv)
    if args.requests < 1 or args.distinct < 1 or args.workers < 1:
        parser.error("--requests/--distinct/--workers must be >= 1")
    if args.large_every < 2:
        parser.error("--large-every must be >= 2")
    if args.workload == "mixed" and args.slice_threshold is None:
        args.slice_threshold = "auto"
    if args.bench_out is None:
        args.bench_out = ("BENCH_serve_sliced.json"
                         if args.workload == "mixed"
                         else "BENCH_serve.json")

    molecules, classes = _workload(args)
    # Warm the registry first: 'auto' thresholding reads the measured
    # plan row weights, which requires the entries' plans to exist.
    t0 = now()
    registry = MoleculeRegistry(
        max_bytes=(int(args.registry_mb * 2**20)
                   if args.registry_mb is not None else None))
    keys = [registry.register(m) for m in molecules]
    weights = [registry.get(k).row_weight(registry.get(k).params.eps_born,
                                          registry.get(k).params.eps_epol)
               for k in keys]
    threshold = _resolve_threshold(args, weights, classes)
    warm_seconds = now() - t0

    config = ServeConfig(
        max_batch=args.max_batch,
        max_wait_seconds=args.max_wait_ms / 1e3,
        queue_capacity=args.queue_cap,
        slice_threshold=threshold,
        slice_queue_scale=args.slice_queue_scale)
    server = EpolServer(fleet=make_fleet(args.backend, args.workers),
                        registry=registry, config=config)
    print(f"serve: backend={args.backend} workers={args.workers} "
          f"max_batch={config.max_batch} queue_cap={config.queue_capacity} "
          f"slice_threshold={threshold}")
    print(f"workload: {args.workload}, {args.requests} requests over "
          f"{len(molecules)} molecules "
          f"({', '.join(f'{m.name}:{len(m)}' for m in molecules)})")

    stream = _request_stream(args, len(molecules), classes)
    with server:
        client = ServeClient(server)
        t_submit = now()
        futures = [client.submit(key=keys[mi], retries=sys.maxsize)
                   for mi in stream]
        energies = client.await_all(futures, timeout=600.0)
        replay_seconds = now() - t_submit
    stats = server.stats()

    # Per-class breakdown: latency percentiles and executed modes.
    per_class: dict[str, dict] = {}
    for mi, fut in zip(stream, futures):
        cls = per_class.setdefault(classes[mi], {
            "requests": 0, "latencies": [], "modes": {}})
        cls["requests"] += 1
        cls["latencies"].append(fut.detail.get("latency_seconds", 0.0))
        mode = fut.detail.get("mode", "batched")
        cls["modes"][mode] = cls["modes"].get(mode, 0) + 1
    class_report = {
        name: {
            "requests": cls["requests"],
            "throughput_rps": (cls["requests"] / replay_seconds
                               if replay_seconds > 0 else 0.0),
            "latency": latency_summary(cls["latencies"]),
            "modes": cls["modes"],
        } for name, cls in sorted(per_class.items())}

    record = {
        "workload": args.workload,
        "requests": args.requests,
        "distinct_molecules": len(molecules),
        "molecules": {m.name: len(m) for m in molecules},
        "row_weights": {m.name: weights[i]
                        for i, m in enumerate(molecules)},
        "backend": args.backend,
        "workers": args.workers,
        "config": {
            "max_batch": config.max_batch,
            "max_wait_seconds": config.max_wait_seconds,
            "queue_capacity": config.queue_capacity,
            "registry_max_bytes": registry.max_bytes,
            "slice_threshold": config.slice_threshold,
            "slice_queue_scale": config.slice_queue_scale,
        },
        "warm_seconds": warm_seconds,
        "replay_seconds": replay_seconds,
        "energies": {molecules[mi].name: energies[i]
                     for i, mi in enumerate(stream)},
        "classes": class_report,
        "retried_rejections": client.retried_rejections,
        **stats,
    }
    with open(args.bench_out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    lat = stats["latency"]
    print(f"  completed {stats['completed']}/{args.requests} "
          f"(rejections retried: {client.retried_rejections}, "
          f"failed: {stats['failed']})")
    print(f"  throughput {stats['throughput_rps']:.1f} req/s over "
          f"{replay_seconds:.2f} s replay "
          f"({warm_seconds:.2f} s registry warm-up)")
    print(f"  latency p50 {lat['p50_ms']:.1f} ms, p95 {lat['p95_ms']:.1f} "
          f"ms, p99 {lat['p99_ms']:.1f} ms")
    print(f"  batches {stats['batches']} (mean size "
          f"{stats['mean_batch_size']:.1f}), histogram "
          f"{stats['batch_histogram']}")
    for mode, mstats in stats["modes"].items():
        extra = (f", mean slices {mstats['mean_slices']:.1f}"
                 if mode == "sliced" else "")
        print(f"  mode {mode}: {mstats['completed']} completed, p95 "
              f"{mstats['latency']['p95_ms']:.1f} ms{extra}")
    for name, cls in class_report.items():
        print(f"  class {name}: {cls['requests']} requests, p95 "
              f"{cls['latency']['p95_ms']:.1f} ms, modes {cls['modes']}")
    reg = stats["registry"]
    print(f"  registry {reg['hits']} hits / {reg['misses']} misses / "
          f"{reg['evictions']} evictions; plan cache "
          f"{reg['plan_cache']['hits']} hits / "
          f"{reg['plan_cache']['misses']} misses")
    print(f"wrote {args.bench_out}")

    lost = args.requests - stats["completed"]
    if lost or stats["failed"]:
        print(f"ERROR: {lost} request(s) unaccounted for, "
              f"{stats['failed']} failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
