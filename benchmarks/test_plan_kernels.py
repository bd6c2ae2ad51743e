"""Measured speedup of the batched plan executors over the per-leaf loops.

The plan/execute split's performance claim: building an interaction plan
once and executing it with bucketed, batched NumPy kernels beats the
legacy one-Python-iteration-per-leaf reference -- even *including* the
plan build -- on a paper-scale (>= 5000-atom) molecule.  This harness
measures both phases (Born integrals and the energy pair sum), asserts
>= 2x on the batched executor, verifies the Born far-field sums stay
bit-identical, the Born near-field sums agree to 1e-12 of their largest
magnitude (the executor evaluates each near tile as two GEMMs) and the
energy pair sum to a relative 1e-12 (the executor evaluates each
mirrored near-tile pair once), and writes
``benchmarks/results/BENCH_plan.json``.

Environment knobs: ``REPRO_BENCH_NATOMS`` overrides the molecule size,
``REPRO_BENCH_REPEATS`` the repetitions (best-of is recorded).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core.born import approx_integrals_perleaf
from repro.core.driver import PolarizationEnergyCalculator
from repro.core.energy import EnergyContext, approx_epol_perleaf
from repro.molecule.generators import protein_blob
from repro.plan import (build_born_plan, build_epol_plan,
                        execute_born_plan, execute_epol_plan, plan_stats)

MIN_SPEEDUP = 2.0


def _best_of(repeats, fn):
    best, value = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best, value


def test_plan_executor_speedup(results_dir):
    natoms = int(os.environ.get("REPRO_BENCH_NATOMS", "5000"))
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
    assert natoms >= 5000, "the acceptance claim is stated at paper scale"

    calc = PolarizationEnergyCalculator(protein_blob(natoms, seed=2))
    atoms, quad = calc.atom_tree(), calc.quad_tree()
    eps_b, eps_e = calc.params.eps_born, calc.params.eps_epol
    variant = calc.params.born_mac_variant

    # -- Born phase ----------------------------------------------------
    t_perleaf_b, ref_b = _best_of(repeats, lambda: approx_integrals_perleaf(
        atoms, quad, quad.tree.leaves, eps_b, mac_variant=variant))
    t_build_b, born_plan = _best_of(repeats, lambda: build_born_plan(
        atoms, quad, eps_b, mac_variant=variant, timer=time.perf_counter))
    t_exec_b, got_b = _best_of(repeats, lambda: execute_born_plan(
        born_plan, atoms, quad))
    assert (np.abs(got_b.s_atom - ref_b.s_atom).max()
            <= 1e-12 * np.abs(ref_b.s_atom).max())
    assert np.array_equal(got_b.s_node, ref_b.s_node)

    # -- Energy phase --------------------------------------------------
    prof = calc.profile()
    ectx = EnergyContext.build(atoms, prof.born_sorted, eps_e)
    t_perleaf_e, ref_e = _best_of(repeats, lambda: approx_epol_perleaf(
        ectx, atoms.tree.leaves, eps_e))
    t_build_e, epol_plan = _best_of(repeats, lambda: build_epol_plan(
        atoms, eps_e, timer=time.perf_counter))
    t_exec_e, got_e = _best_of(repeats, lambda: execute_epol_plan(
        epol_plan, ectx))
    assert abs(got_e.pair_sum - ref_e.pair_sum) <= 1e-12 * abs(ref_e.pair_sum)

    perleaf_total = t_perleaf_b + t_perleaf_e
    exec_total = t_exec_b + t_exec_e
    build_total = t_build_b + t_build_e
    speedup_exec = perleaf_total / exec_total
    speedup_with_build = perleaf_total / (exec_total + build_total)

    record = {
        "molecule": calc.molecule.name,
        "natoms": len(calc.molecule),
        "nqpoints": calc.prepare_surface().npoints,
        "repeats": repeats,
        "seconds": {
            "born_perleaf": t_perleaf_b,
            "born_plan_build": t_build_b,
            "born_plan_exec": t_exec_b,
            "epol_perleaf": t_perleaf_e,
            "epol_plan_build": t_build_e,
            "epol_plan_exec": t_exec_e,
        },
        "speedup_exec_only": speedup_exec,
        "speedup_including_build": speedup_with_build,
        "born_plan": plan_stats(born_plan, nparts=4),
        "epol_plan": plan_stats(epol_plan, nparts=4,
                                nbins=ectx.binning.nbins),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    out = results_dir / "BENCH_plan.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print()
    print(f"plan executors ({natoms} atoms): born "
          f"{t_perleaf_b:.3f}s -> {t_exec_b:.3f}s, epol "
          f"{t_perleaf_e:.3f}s -> {t_exec_e:.3f}s; "
          f"{speedup_exec:.2f}x exec-only, "
          f"{speedup_with_build:.2f}x incl. build")
    print(f"wrote {out}")

    assert speedup_exec >= MIN_SPEEDUP, (
        f"batched executor {speedup_exec:.2f}x < {MIN_SPEEDUP}x over the "
        f"per-leaf loops")
    # The cached-plan story only pays if the build amortises immediately.
    assert speedup_with_build > 1.0, (
        f"plan build+execute slower than the per-leaf path "
        f"({speedup_with_build:.2f}x)")
