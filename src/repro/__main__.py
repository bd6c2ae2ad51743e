"""Command-line entry point: evaluation artifacts and measured runs.

Usage::

    python -m repro list                 # available experiment ids
    python -m repro run fig8             # regenerate one table/figure
    python -m repro run all              # everything, in paper order
    python -m repro run fig5 --full      # full (non-quick) molecule suite

    python -m repro --backend real -P 4  # measured: E_pol of a generated
                                         # molecule on a 4-process fleet,
                                         # with speedup over -P 1 and a
                                         # BENCH_procpool.json artifact
    python -m repro --backend sim -P 4   # same pipeline on the simulated
                                         # engine (modelled seconds)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _run_backend(args: argparse.Namespace) -> int:
    """Measured (or simulated) pipeline execution for a generated molecule."""
    from repro.config import DEFAULT_SEED
    from repro.core.driver import PolarizationEnergyCalculator
    from repro.molecule.generators import protein_blob

    seed = DEFAULT_SEED if args.seed is None else args.seed
    molecule = protein_blob(args.natoms, seed=seed)
    calc = PolarizationEnergyCalculator(molecule)
    calc.prepare_surface()
    worker_counts = sorted({1, args.workers})
    record: dict = {
        "backend": args.backend,
        "molecule": molecule.name,
        "natoms": len(molecule),
        "nqpoints": calc.prepare_surface().npoints,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "timings": {},
    }

    print(f"molecule: {molecule.name} ({len(molecule)} atoms, "
          f"{record['nqpoints']} q-points), backend={args.backend}")
    energies: dict[int, float] = {}
    walls: dict[int, float] = {}
    for P in worker_counts:
        if args.backend == "real":
            res = calc.compute(backend="real", workers=P)
            walls[P] = res.wall_seconds
            energies[P] = res.energy
            record["timings"][str(P)] = {
                "wall_seconds": res.wall_seconds,
                "setup_seconds": res.setup_seconds,
                "energy": res.energy,
            }
        else:
            from repro.parallel.hybrid import run_parallel
            from repro.parallel.machine import RankLayout
            layout = RankLayout(nodes=1, ranks_per_node=P, threads_per_rank=1)
            t0 = time.perf_counter()
            sim = run_parallel(calc, layout)
            walls[P] = sim.sim_seconds
            energies[P] = sim.energy
            record["timings"][str(P)] = {
                "sim_seconds": sim.sim_seconds,
                "host_seconds": time.perf_counter() - t0,
                "phase_seconds": sim.phase_seconds,
                "energy": sim.energy,
            }
        kind = "wall" if args.backend == "real" else "sim"
        print(f"  P={P}: E_pol = {energies[P]:+.6f} kcal/mol, "
              f"{kind} {walls[P]:.3f} s")

    base = walls[worker_counts[0]]
    if args.workers > 1 and base > 0:
        speedup = base / walls[args.workers]
        record["speedup_vs_p1"] = speedup
        print(f"  speedup P={args.workers} vs P=1: {speedup:.2f}x "
              f"({os.cpu_count()} cores visible)")

    # Interaction-plan statistics: row/pair counts, tile shape histogram,
    # predicted rank imbalance at the benchmarked worker count, and the
    # cache's hit/miss tally across the runs above.
    record["plan"] = calc.plan_stats(nparts=args.workers)
    stats = record["plan"]
    print(f"  plan: born {stats['born']['rows']} rows / "
          f"{stats['born']['exact_pairs']} exact pairs, "
          f"epol {stats['epol']['rows']} rows; "
          f"imbalance@P={args.workers}: "
          f"born {stats['born']['imbalance']:.3f}, "
          f"epol {stats['epol']['imbalance']:.3f}; "
          f"cache {stats['cache']['hits']} hits / "
          f"{stats['cache']['misses']} misses")

    # Every substrate runs the one row-range pipeline, so the energy is
    # the same to the last bit at every worker count.
    e1 = energies[worker_counts[0]]
    drift = max(abs(energies[P] - e1) for P in worker_counts)
    rel = drift / abs(e1) if e1 else drift
    record["max_rel_energy_drift"] = rel
    if rel != 0.0:
        print(f"ERROR: energies drift across worker counts (rel {rel:.3e})")
        return 1

    out = args.bench_out
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from 'Polarization Energy "
                    "on a Cluster of Multicores' (SC 2012), or run the "
                    "pipeline on an execution backend.")
    parser.add_argument("--backend", choices=("sim", "real"), default=None,
                        help="run the E_pol pipeline on the simulated ('sim')"
                             " or real process-fleet ('real') backend")
    parser.add_argument("-P", "--workers", type=int, default=4,
                        help="worker/rank count for --backend (default 4)")
    parser.add_argument("--natoms", type=int, default=5000,
                        help="generated molecule size for --backend runs")
    parser.add_argument("--seed", type=int, default=None,
                        help="generator seed for --backend runs")
    parser.add_argument("--bench-out", default="BENCH_procpool.json",
                        help="artifact path for --backend timings")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list experiment ids")
    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment", help="experiment id, e.g. fig8, or 'all'")
    run_p.add_argument("--full", action="store_true",
                       help="use the full 84-molecule suite where the "
                            "experiment samples it (slow)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the experiment seed")
    args = parser.parse_args(argv)

    if args.command is None:
        if args.backend is None:
            parser.error("a command (list/run) or --backend is required")
        if args.workers < 1:
            parser.error("-P must be >= 1")
        return _run_backend(args)

    from repro.experiments import all_ids, run_experiment

    if args.command == "list":
        for eid in all_ids():
            print(eid)
        return 0

    ids = all_ids() if args.experiment == "all" else [args.experiment]
    exit_code = 0
    for eid in ids:
        kwargs = {}
        if args.full and eid in ("fig7", "fig8", "fig9", "fig10"):
            kwargs["quick"] = False
        if args.seed is not None:
            kwargs["seed"] = args.seed
        t0 = time.perf_counter()
        result = run_experiment(eid, **kwargs)
        print(result.render())
        print(f"[{eid}] {time.perf_counter() - t0:.1f} s, checks "
              f"{'all pass' if result.all_checks_pass() else 'FAILED'}")
        print()
        if not result.all_checks_pass():
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
