"""Protocol models vs. the implementation: conformance and mutations.

Acceptance criteria covered here:

* the five protocol models (scheduler, future, pool, shm, cluster)
  explore clean against the shipped sources -- no deadlock, no lost
  future, no admission overrun, no shm lifecycle violation, no lost or
  double-executed donated range;
* recorded implementation traces (via ``@protocol_event`` and
  ``record_events``) are behaviours of the models -- conformance is a
  runtime test, not a promise;
* seeded mutations of the real sources (dropped future rejection,
  dropped done event, dropped close-before-unlink, dropped death
  detection) each produce the matching RV4xx finding with a
  counterexample interleaving;
* a sliced request passes the runtime row-cover check with an energy
  bit-identical to the cold serial driver.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis_static.model.annotations import (events_for,
                                                     protocol_marks,
                                                     record_events)
from repro.analysis_static.model.machine import INVARIANT
from repro.analysis_static.model.protocols import (LOST_FUTURE, SPECS,
                                                   alphabet,
                                                   build_future_model,
                                                   build_models,
                                                   build_pool_model,
                                                   build_router_model,
                                                   build_scheduler_model,
                                                   build_shm_model)
from repro.analysis_static.verify import CHECK_FAMILIES, run_verify
from repro.analysis_static.verify.program import Program
from repro.core.driver import PolarizationEnergyCalculator
from repro.molecule.generators import protein_blob
from repro.parallel.procpool.pool import PersistentWorkerPool
from repro.parallel.procpool.shm import SharedArrayBundle
from repro.serve import (EpolServer, EpsConfig, InlineFleet,
                         MoleculeRegistry, ServeConfig)
from repro.serve.client import ServeFuture

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

_BUILDERS = {
    "scheduler": build_scheduler_model,
    "future": build_future_model,
    "pool": build_pool_model,
    "shm": build_shm_model,
    "cluster": build_router_model,
}


def _echo_loop(rank, tasks, results):
    """Module-level so the spawn start method can pickle it."""
    while True:
        task = tasks.get(timeout=60.0)
        if task is None:
            break
        results.put(task)


# ----------------------------------------------------------------------
# the models themselves: clean exploration, weakened counterexamples
# ----------------------------------------------------------------------
class TestModelsExploreClean:
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_unweakened_model_is_violation_free(self, name):
        result = _BUILDERS[name]().explore()
        assert result.violations == [], (
            f"{name}: " + "; ".join(
                f"{v.kind}@{v.name}: {v.render_trace()}"
                for v in result.violations))
        assert not result.truncated

    @pytest.mark.parametrize("name,weakening,kind", [
        ("scheduler", "admit_guard", INVARIANT),
        ("scheduler", "slice_reject", LOST_FUTURE),
        ("scheduler", "fleet_reject", LOST_FUTURE),
        ("future", "done_set", LOST_FUTURE),
        ("pool", "death_detect", "deadlock"),
        ("shm", "scratch_lifecycle", INVARIANT),
        ("cluster", "swallow_reject", LOST_FUTURE),
        ("cluster", "donate_once", INVARIANT),
    ])
    def test_each_weakening_has_a_counterexample(self, name, weakening,
                                                 kind):
        result = _BUILDERS[name](frozenset({weakening})).explore()
        kinds = {v.kind for v in result.violations}
        assert kind in kinds, (
            f"weakening {weakening!r} of {name!r} produced {kinds}")
        # Every violation carries a concrete interleaving (or the
        # explicit initial-state placeholder).
        for v in result.violations:
            assert v.render_trace()

    def test_weakened_counterexamples_are_deterministic(self):
        a = build_scheduler_model(frozenset({"slice_reject"})).explore()
        b = build_scheduler_model(frozenset({"slice_reject"})).explore()
        assert repr(a.violations) == repr(b.violations)


class TestSpecRegistry:
    def test_every_spec_builds_against_shipped_sources(self):
        built = build_models(Program.load([SRC]))
        assert sorted(built) == sorted(_BUILDERS)
        for name, (spec, model, failed) in built.items():
            assert failed == [], (
                f"{name}: code facts failed on shipped sources: "
                f"{[fact.name for fact, _ in failed]}")

    def test_required_marks_name_model_events(self):
        for spec in SPECS:
            events = alphabet(spec.build(frozenset()))
            for rm in spec.marks:
                assert rm.protocol == spec.name
                assert rm.event in events, (
                    f"{spec.name}: required mark {rm.event!r} is not in "
                    f"the model alphabet {sorted(events)}")


# ----------------------------------------------------------------------
# conformance: recorded implementation traces are model behaviours
# ----------------------------------------------------------------------
class TestRuntimeConformance:
    def test_shm_lifecycle_trace_accepted(self):
        with record_events() as events:
            bundle = SharedArrayBundle.create({"x": np.arange(4.0)})
            bundle.close()
            bundle.unlink()
        trace = events_for(events, "shm")
        assert trace == ["publish", "close", "unlink"]
        model = build_shm_model()
        assert model.accepts(trace)
        # ... and the model is no rubber stamp:
        assert not model.accepts(["publish", "unlink"])
        assert not model.accepts(["publish", "close", "unlink", "unlink"])

    def test_future_traces_accepted(self):
        model = build_future_model()
        with record_events() as events:
            ServeFuture(key="a")._resolve(1.0)
        assert model.accepts(events_for(events, "future"))
        with record_events() as events:
            ServeFuture(key="b")._reject(RuntimeError("boom"))
        assert model.accepts(events_for(events, "future"))

    def test_pool_lifecycle_trace_accepted(self):
        pool = PersistentWorkerPool(1, _echo_loop)
        try:
            with record_events() as events:
                pool.submit(("ping",))
                assert pool.next_result(timeout=60.0) == ("ping",)
                pool.shutdown()
        finally:
            pool.shutdown()
        trace = events_for(events, "pool")
        assert trace == ["submit", "next_result", "shutdown"]
        model = build_pool_model()
        assert model.accepts(trace)
        assert not model.accepts(["next_result"])

    def test_scheduler_serving_trace_accepted(self):
        molecule = protein_blob(60, seed=7)
        server = EpolServer(fleet=InlineFleet(2),
                            config=ServeConfig(max_wait_seconds=0.0))
        with record_events() as events:
            with server:
                key = server.register(molecule)
                future = server.submit(key)
                energy = future.result(
                    timeout=server.config.result_timeout_seconds)
        assert energy == pytest.approx(
            PolarizationEnergyCalculator(molecule).run().energy)
        sched_trace = events_for(events, "scheduler")
        assert sched_trace[0] == "admit" and sched_trace[-1] == "stop"
        assert build_scheduler_model().accepts(sched_trace)
        assert build_future_model().accepts(events_for(events, "future"))

    def test_marks_survive_decoration(self):
        assert protocol_marks(SharedArrayBundle.create) == ("shm",
                                                            "publish")
        assert protocol_marks(ServeFuture._resolve) == ("future", "resolve")
        assert protocol_marks(EpolServer.submit) == ("scheduler", "admit")
        assert protocol_marks(PersistentWorkerPool.shutdown) == (
            "pool", "shutdown")


# ----------------------------------------------------------------------
# mutations: each seeded protocol bug yields its RV4xx finding
# ----------------------------------------------------------------------
def _mutate(tmp_path: Path, source: Path, old: str, new: str) -> Path:
    text = source.read_text()
    assert old in text, f"mutation target drifted in {source.name}: {old!r}"
    out = tmp_path / source.name
    out.write_text(text.replace(old, new, 1))
    return out


def _findings(path: Path, checks: list[str]) -> dict[str, list[str]]:
    result = run_verify([path], checks=checks)
    by_check: dict[str, list[str]] = {}
    for f in result.active:
        by_check.setdefault(f.check, []).append(f.message)
    return by_check


class TestSeededMutations:
    def test_dropped_slice_rejection_is_a_lost_future(self, tmp_path):
        mutated = _mutate(
            tmp_path, SRC / "serve" / "scheduler.py",
            "                req.future._reject(err)\n"
            "                self.metrics.record_done(now() - req.submitted_at",
            "                self.metrics.record_done(now() - req.submitted_at")
        found = _findings(mutated, ["RV402", "RV405"])
        assert any("except SliceError handler no longer rejects" in m
                   for m in found.get("RV405", []))
        assert any("lost-future" in m and "counterexample interleaving" in m
                   for m in found.get("RV402", []))

    def test_dropped_done_set_is_a_lost_future(self, tmp_path):
        mutated = _mutate(
            tmp_path, SRC / "serve" / "client.py",
            "        self._value = float(energy)\n"
            "        self.detail.update(detail)\n"
            "        self._done.set()",
            "        self._value = float(energy)\n"
            "        self.detail.update(detail)")
        found = _findings(mutated, ["RV402", "RV405"])
        assert any("_resolve() no longer sets the done event" in m
                   for m in found.get("RV405", []))
        assert any("lost-future" in m for m in found.get("RV402", []))

    def test_dropped_death_detection_is_a_deadlock(self, tmp_path):
        mutated = _mutate(
            tmp_path, SRC / "parallel" / "procpool" / "pool.py",
            "                dead = [p for p in self._procs\n"
            "                        if p.exitcode not in (None, 0)]\n"
            "                if dead:\n"
            "                    raise PoolError(\n"
            "                        \"pool worker(s) died without "
            "reporting, exit codes \"\n"
            "                        f\"{[p.exitcode for p in dead]}\")",
            "                pass")
        found = _findings(mutated, ["RV401", "RV405"])
        assert any("no longer polls worker exit codes" in m
                   for m in found.get("RV405", []))
        assert any("deadlock" in m and "worker:crash" in m
                   for m in found.get("RV401", []))

    def test_dropped_close_before_unlink_is_a_lifecycle_bug(self, tmp_path):
        mutated = _mutate(
            tmp_path, SRC / "serve" / "fleet.py",
            "            finally:\n"
            "                scratch.close()\n"
            "                scratch.unlink()",
            "            finally:\n"
            "                scratch.unlink()")
        found = _findings(mutated, ["RV404", "RV405"])
        assert any("no longer closes the segment before unlinking" in m
                   for m in found.get("RV405", []))
        assert any("unlink-while-mapped" in m
                   for m in found.get("RV404", []))

    def test_unmutated_copies_stay_clean(self, tmp_path):
        # The tmp-copy harness itself must not manufacture findings.
        for rel in ("serve/scheduler.py", "serve/client.py",
                    "serve/fleet.py", "parallel/procpool/pool.py"):
            shutil.copy(SRC / rel, tmp_path / Path(rel).name)
        result = run_verify([tmp_path], checks=CHECK_FAMILIES["model"])
        assert result.active == [], [f.message for f in result.active]


# ----------------------------------------------------------------------
# runtime row-cover check on a sliced request
# ----------------------------------------------------------------------
class TestStaticDynamicAgreement:
    def test_sliced_run_passes_the_cover_check(self):
        """The pipeline checks that the slices' executed ranges tile the
        plan's rows; the request must pass it, and the energy must be
        bit-identical to the cold serial driver."""
        molecule = protein_blob(150, seed=31)
        cold = PolarizationEnergyCalculator(molecule).run().energy
        registry = MoleculeRegistry()
        key = registry.register(molecule)
        entry = registry.get(key)
        fleet = InlineFleet(3)
        res = fleet.run_sliced(0, entry, EpsConfig.resolve(entry.params))
        assert res.error is None
        assert res.energy == cold
