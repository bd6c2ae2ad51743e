"""The correctness oracle: a cold serial run of every served molecule.

A served energy is correct when it equals, bit for bit, a fresh
``PolarizationEnergyCalculator(mol, params).run().energy``.  The same
cold run yields the work counters of the molecule's two interaction
plans, which the benchmark reports as ``exec.*`` per request.  Cold runs
go to freshly spawned processes after the timed window, so they cannot
disturb a measurement.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor

from repro.core.driver import PolarizationEnergyCalculator
from repro.core.params import ApproximationParams
from repro.molecule.molecule import Molecule
from repro.parallel.cost import CostModel


def cold_reference(molecule: Molecule) -> dict:
    """Energy, plan rows and plan work counters of one cold serial run."""
    calc = PolarizationEnergyCalculator(molecule, ApproximationParams())
    res = calc.run()
    work = res.born_counters.copy().add(res.energy_counters)
    return {
        "energy": res.energy,
        "rows": calc.born_plan().nrows + calc.epol_plan().nrows,
        "points": res.nqpoints,
        "exact_pairs": work.exact_pairs,
        "far_evals": work.far_evals,
        "hist_pairs": work.hist_pairs,
        "modeled_s": CostModel().compute_seconds(work),
    }


def cold_references(molecules: dict[str, Molecule], workers: int
                    ) -> dict[str, dict]:
    """:func:`cold_reference` of every molecule, over ``workers``
    spawned processes (inline for a single molecule)."""
    if len(molecules) == 1:
        return {k: cold_reference(m) for k, m in molecules.items()}
    ctx = mp.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        futures = {k: pool.submit(cold_reference, m)
                   for k, m in sorted(molecules.items())}
        return {k: f.result() for k, f in futures.items()}
