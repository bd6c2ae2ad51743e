"""Measured self-relative speedup of the real process backend.

Unlike every other file in ``benchmarks/`` -- which regenerates the
paper's *modelled* tables -- this harness measures actual wall-clock time:
``compute(backend="real")`` (one sliced request on a one-shot process
fleet) on a generated ~5k-atom molecule for P in {1, 2, 4} workers,
written to ``benchmarks/results/BENCH_procpool.json`` together with a
machine fingerprint (visible cores, CPU model, numpy version, BLAS thread
settings, git commit), so runs on different machines stay comparable.

Hard speedup assertions only fire when the machine actually has the cores
(a 4-way pool on a 1-core CI runner measures scheduling, not scaling);
correctness assertions -- every P bit-identical to the serial driver --
always fire.

Environment knobs: ``REPRO_BENCH_NATOMS`` overrides the molecule size,
``REPRO_BENCH_REPEATS`` the per-P repetitions (default 5; best-of is
recorded).  Two repeats were too few on a shared 2-vCPU host: one run's
best-of-2 read P = 2 slower than P = 1, where runs at 5 repeats read
1.38x and 1.71x.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.core.driver import PolarizationEnergyCalculator
from repro.molecule.generators import protein_blob

WORKER_COUNTS = (1, 2, 4)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _fingerprint() -> dict:
    """The machine and build the timings were taken on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # The commit, suffixed "-dirty" when the work tree has changes.
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, cwd=Path(__file__).parent,
            timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "cores_visible": _available_cores(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_sha": sha,
    }


def test_procpool_speedup(results_dir):
    natoms = int(os.environ.get("REPRO_BENCH_NATOMS", "5000"))
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
    cores = _available_cores()

    calc = PolarizationEnergyCalculator(protein_blob(natoms, seed=1))
    calc.prepare_surface()
    serial = calc.run()

    record = {
        "molecule": calc.molecule.name,
        "natoms": len(calc.molecule),
        "nqpoints": calc.prepare_surface().npoints,
        "machine": _fingerprint(),
        "repeats": repeats,
        "serial_energy": serial.energy,
        "timings": {},
    }
    walls: dict[int, float] = {}
    for P in WORKER_COUNTS:
        best = None
        for _ in range(repeats):
            res = calc.compute(backend="real", workers=P)
            if best is None or res.wall_seconds < best.wall_seconds:
                best = res
        walls[P] = best.wall_seconds
        record["timings"][str(P)] = {
            "wall_seconds": best.wall_seconds,
            "setup_seconds": best.setup_seconds,
            "energy": best.energy,
            "speedup_vs_p1": None,  # filled below
        }
        # Correctness is substrate-independent regardless of core count.
        assert best.energy == serial.energy
        assert np.array_equal(best.born_radii, serial.born_radii)

    for P in WORKER_COUNTS:
        record["timings"][str(P)]["speedup_vs_p1"] = walls[1] / walls[P]
    record["written_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    out = results_dir / "BENCH_procpool.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print()
    print(f"procpool speedup ({natoms} atoms, {cores} cores): " + ", ".join(
        f"P={P}: {walls[P]:.3f}s ({walls[1] / walls[P]:.2f}x)"
        for P in WORKER_COUNTS))
    print(f"wrote {out}")

    # Scaling assertions need real cores under the pool.
    if cores >= 4:
        assert walls[1] / walls[4] > 1.5, (
            f"expected >1.5x speedup at P=4 on {cores} cores, got "
            f"{walls[1] / walls[4]:.2f}x")
    if cores >= 2:
        assert walls[1] / walls[2] > 1.1, (
            f"expected >1.1x speedup at P=2 on {cores} cores, got "
            f"{walls[1] / walls[2]:.2f}x")
