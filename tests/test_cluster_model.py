"""The router/donation protocol model vs. the implementation (RV406).

Acceptance criteria covered here:

* the ``cluster`` protocol model explores clean as shipped: no retried
  rejection can lose a future, no donated row range executes twice;
* recorded implementation traces -- a forwarded request, a rejection
  retried to give-up, a full donation -- are behaviours of the model
  (``@protocol_event`` conformance), and the model is no rubber stamp:
  it refuses double-exec and reduce-before-exec traces;
* seeded mutations of ``cluster/router.py`` (swallowed shard rejection,
  hand-rolled donation cuts) each produce the RV405 conformance finding
  *and* the RV402/RV406 counterexample interleaving the weakened model
  exhibits.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis_static.model.annotations import (events_for,
                                                     protocol_marks,
                                                     record_events)
from repro.analysis_static.model.machine import INVARIANT
from repro.analysis_static.model.protocols import (LOST_FUTURE,
                                                   alphabet,
                                                   build_router_model)
from repro.analysis_static.verify import run_verify
from repro.cluster import ClusterConfig, ClusterRouter, make_cluster
from repro.core.driver import PolarizationEnergyCalculator
from repro.molecule.generators import protein_blob
from repro.serve import RejectedError, ServeClient, ServeConfig

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


@pytest.fixture(scope="module")
def molecule():
    return protein_blob(90, seed=90)


@pytest.fixture(scope="module")
def cold(molecule):
    return PolarizationEnergyCalculator(molecule).run().energy


def _quick_serve(**over) -> ServeConfig:
    base = dict(max_batch=8, max_wait_seconds=0.001)
    base.update(over)
    return ServeConfig(**base)


# ----------------------------------------------------------------------
# the model itself
# ----------------------------------------------------------------------
class TestRouterModel:
    def test_alphabet_is_the_marked_event_set(self):
        assert alphabet(build_router_model()) == {
            "submit", "forward", "reject", "donate", "exec", "reduce"}

    def test_strong_model_refuses_bad_traces(self):
        model = build_router_model()
        # A range executed twice, or a reduce without both ranges, is
        # not a behaviour of the shipped protocol.
        assert not model.accepts(
            ["submit", "donate", "exec", "exec", "exec", "reduce"])
        assert not model.accepts(["submit", "donate", "exec", "reduce"])
        assert not model.accepts(["submit", "reduce"])
        assert not model.accepts(["submit", "reject"])

    def test_swallowed_reject_loses_the_future(self):
        result = build_router_model(
            frozenset({"swallow_reject"})).explore()
        kinds = {v.kind for v in result.violations}
        assert kinds == {LOST_FUTURE}
        # The counterexample is the concrete interleaving: a bounce
        # whose rejection never reaches the client.
        assert any("forward(bounce)" in v.render_trace()
                   and "reject" in v.render_trace()
                   for v in result.violations)

    def test_overlapping_cuts_double_execute_a_range(self):
        result = build_router_model(frozenset({"donate_once"})).explore()
        assert {v.kind for v in result.violations} == {INVARIANT}
        assert all(v.name == "range-once" for v in result.violations)


# ----------------------------------------------------------------------
# conformance: recorded router traces are model behaviours
# ----------------------------------------------------------------------
class TestRuntimeConformance:
    def test_forward_and_reject_traces_accepted(self, molecule):
        router = make_cluster(
            nodes=1, serve=_quick_serve(queue_capacity=1))
        key = router.register(molecule)
        shard = router.shards["node00"]
        # Admission without a scheduler thread: the queue fills and
        # stays full, so the rejection path is deterministic.
        shard.server._running = True
        model = build_router_model()
        with record_events() as events:
            router.submit(key)
        assert events_for(events, "cluster") == ["submit", "forward"]
        assert model.accepts(events_for(events, "cluster"))
        with record_events() as events:
            client = ServeClient(router)
            with pytest.raises(RejectedError):
                client.submit(key=key, retries=1, backoff_seconds=0.0)
        shard.server._running = False
        trace = events_for(events, "cluster")
        # One bounce, one client retry, one give-up -- each rejection
        # propagated (the swallow_reject weakening would cut this trace
        # short after the first forward).
        assert trace == ["submit", "forward", "reject",
                         "submit", "forward", "reject"]
        assert model.accepts(trace)

    def test_donation_trace_accepted(self, molecule, cold):
        cfg = ClusterConfig(nodes=3, donation_saturation_depth=0,
                            serve=_quick_serve())
        with ClusterRouter(cfg) as router:
            key = router.register(molecule)
            with record_events() as events:
                energy = router.submit(key).result(timeout=120.0)
        assert energy == cold
        trace = events_for(events, "cluster")
        # One exec per phase (Born spans, then E_pol terms), then the
        # owner's serial reduce.
        assert trace == ["submit", "donate", "exec", "exec", "reduce"]
        assert build_router_model().accepts(trace)

    def test_marks_survive_decoration(self):
        assert protocol_marks(ClusterRouter.submit) == ("cluster", "submit")
        assert protocol_marks(ClusterRouter._forward) == (
            "cluster", "forward")
        assert protocol_marks(ClusterRouter._donate) == (
            "cluster", "donate")
        assert protocol_marks(ClusterRouter._donate_finish) == (
            "cluster", "reduce")


# ----------------------------------------------------------------------
# mutations: each seeded router bug yields its RV4xx finding
# ----------------------------------------------------------------------
def _mutate(tmp_path: Path, source: Path, old: str, new: str,
            count: int = 1) -> Path:
    text = source.read_text()
    assert text.count(old) >= count, (
        f"mutation target drifted in {source.name}: {old!r}")
    out = tmp_path / source.name
    out.write_text(text.replace(old, new, count))
    return out


def _findings(path: Path, checks: list[str]) -> dict[str, list[str]]:
    result = run_verify([path], checks=checks)
    by_check: dict[str, list[str]] = {}
    for f in result.active:
        by_check.setdefault(f.check, []).append(f.message)
    return by_check


class TestSeededMutations:
    def test_swallowed_shard_rejection_is_a_lost_future(self, tmp_path):
        mutated = _mutate(
            tmp_path, SRC / "cluster" / "router.py",
            "            self._shard_rejected(node_id, key)\n"
            "            raise RejectedError(\n"
            "                f\"shard {node_id} rejected molecule "
            "{key!r}: {err}\"\n"
            "            ) from err",
            "            self._shard_rejected(node_id, key)")
        found = _findings(mutated, ["RV402", "RV405"])
        assert any("no longer re-raises the shard's RejectedError" in m
                   for m in found.get("RV405", []))
        assert any("lost-future" in m and "counterexample interleaving" in m
                   for m in found.get("RV402", []))

    def test_handrolled_donation_cuts_double_execute(self, tmp_path):
        mutated = _mutate(
            tmp_path, SRC / "cluster" / "router.py",
            "evaluate_ranges(", "handrolled_cuts(")
        found = _findings(mutated, ["RV405", "RV406"])
        assert any("no longer cuts row ranges with" in m
                   for m in found.get("RV405", []))
        assert any("range-once" in m
                   and "counterexample interleaving" in m
                   for m in found.get("RV406", []))

    def test_unmutated_copy_stays_clean(self, tmp_path):
        out = tmp_path / "router.py"
        out.write_text((SRC / "cluster" / "router.py").read_text())
        found = _findings(out, ["RV401", "RV402", "RV405", "RV406"])
        assert found == {}, found
