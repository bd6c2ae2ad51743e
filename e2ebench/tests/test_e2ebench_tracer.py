"""The benchmark's outside-in wrappers: transparent, complete, reversible.

Run from the repository root with ``python -m pytest e2ebench/tests``.
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from e2ebench.bench import _determinism, _percentile, _steady
from e2ebench.layers import declared, layer_table, reported
from e2ebench.tracer import TARGETS, Span, Tracer, parse_result, self_seconds
from e2ebench.workloads import ColdDecoys, Workload, drive
from repro.cluster import ClusterConfig, ClusterRouter
from repro.molecule.generators import protein_blob
from repro.serve import (EpolServer, ProcessFleet, ServeClient, ServeConfig,
                         make_server)

TIMEOUT = 60.0


def _molecules(n: int) -> list:
    return [protein_blob(120 + 30 * i, seed=70 + i) for i in range(n)]


def _sites(original) -> list[tuple[str, str]]:
    return sorted((name, key) for name, mod in list(sys.modules.items())
                  if mod is not None and name.startswith("repro")
                  for key, value in list(vars(mod).items())
                  if value is original)


def _function_targets() -> list:
    out = []
    for name, module, qualname, _ in TARGETS:
        if "." not in qualname:
            out.append(getattr(importlib.import_module(module), qualname))
    return out


def _method_targets() -> list[tuple[type, str, object]]:
    out = []
    for name, module, qualname, _ in TARGETS:
        owner, _, attr = qualname.rpartition(".")
        if owner:
            cls = getattr(importlib.import_module(module), owner)
            out.append((cls, attr, cls.__dict__[attr]))
    return out


def _counts(tracer: Tracer, phase: str | None = None) -> Counter:
    return Counter(s.name for s in tracer.spans
                   if phase is None or s.phase == phase)


def _serve(server, molecules, tracer: Tracer | None, repeats: int = 1
           ) -> list[float]:
    server.start()
    client = ServeClient(server)
    try:
        if tracer is not None:
            tracer.install()
        try:
            return [client.submit(molecule=m).result(timeout=TIMEOUT)
                    for _ in range(repeats) for m in molecules]
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        server.stop()


# -- transparency -----------------------------------------------------------
def test_traced_energies_are_bit_identical_batched_and_sliced():
    mols = _molecules(3)
    for make in (lambda: make_server(backend="real", workers=1),
                 lambda: EpolServer(fleet=ProcessFleet(2), config=ServeConfig(
                     slice_threshold=1.0))):
        plain = _serve(make(), mols, None, repeats=2)
        tracer = Tracer()
        traced = _serve(make(), mols, tracer, repeats=2)
        assert [e.hex() for e in traced] == [e.hex() for e in plain]
        assert tracer.spans


# -- reversibility ------------------------------------------------------------
def test_every_import_site_is_patched_and_restored():
    importlib.import_module("repro.cluster")
    functions = _function_targets()
    before = {id(f): _sites(f) for f in functions}
    methods = _method_targets()
    # A function is bound in several modules; all of them are patched.
    from repro.surface.sas import build_surface
    assert {"repro.core.driver", "repro.surface.sas"} <= {
        m for m, _ in before[id(build_surface)]}
    from repro.serve.sliced import fold_pair_terms
    assert {"repro.serve.fleet", "repro.cluster.router"} <= {
        m for m, _ in before[id(fold_pair_terms)]}

    tracer = Tracer()
    late = types.ModuleType("repro._e2ebench_late_import")
    with tracer:
        for f in functions:
            assert _sites(f) == [], f.__name__
        for cls, attr, raw in methods:
            assert cls.__dict__[attr] is not raw
        # A module imported while tracing binds the wrapper...
        from repro.plan import build_born_plan as wrapped
        late.build_born_plan = wrapped
        sys.modules[late.__name__] = late
    try:
        # ...and is restored along with every original site.
        assert {id(f): _sites(f) for f in functions} == {
            id(f): sorted(before[id(f)]
                          + ([(late.__name__, "build_born_plan")]
                             if f.__name__ == "build_born_plan" else []))
            for f in functions}
        for cls, attr, raw in methods:
            assert cls.__dict__[attr] is raw
        assert not tracer.installed
    finally:
        del sys.modules[late.__name__]


# -- span counts equal call counts ------------------------------------------
def test_cold_requests_span_once_per_layer_and_warm_requests_do_not():
    mols = _molecules(3)
    tracer = Tracer()
    server = make_server(backend="real", workers=1)
    server.start()
    client = ServeClient(server)
    try:
        tracer.phase = "cold"
        with tracer:
            for m in mols:
                client.submit(molecule=m).result(timeout=TIMEOUT)
        tracer.phase = "warm"
        keys = [client.register(m) for m in mols]
        with tracer:
            for k in keys * 2:
                client.submit(key=k).result(timeout=TIMEOUT)
    finally:
        server.stop()

    cold = _counts(tracer, "cold")
    n = len(mols)
    for name in ("client.submit", "registry.register", "surface.build",
                 "octree.atoms", "octree.quad", "plan.build_born",
                 "plan.build_epol", "scheduler.submit", "fleet.run_batch",
                 "shm.create", "pool.next_result"):
        assert cold[name] == n, name  # forked workers are never traced
    # Registration builds both plans; publication looks them up again.
    lookups = [s.attrs for s in tracer.spans
               if s.phase == "cold" and s.name == "plan.cache"]
    assert sum(a["misses"] for a in lookups) == 2 * n
    assert sum(a["hits"] for a in lookups) == 2 * n
    results = [s.attrs for s in tracer.spans
               if s.phase == "cold" and s.name == "pool.next_result"]
    assert all(r["kind"] == "ok" and r["cold"] for r in results)

    warm = _counts(tracer, "warm")
    assert warm["client.submit"] == 2 * n
    for name in ("registry.register", "surface.build", "octree.atoms",
                 "plan.build_born", "shm.create"):
        assert warm[name] == 0, name
    assert not any(s.attrs.get("cold") for s in tracer.spans
                   if s.phase == "warm" and s.name == "pool.next_result")
    # Spans carry the ids their call can see.
    batch = next(s for s in tracer.spans if s.name == "fleet.run_batch")
    assert batch.rids and all(":s" in r for r in batch.rids)
    submit = next(s for s in tracer.spans if s.name == "scheduler.submit")
    parent = next(s for s in tracer.spans if s.sid == submit.parent)
    assert parent.name == "client.submit" and submit.rids == parent.rids

    table = layer_table(
        [s for s in tracer.spans if s.phase == "cold"], nreq=n, seconds=1.0,
        workers=1, deltas={}, gauges={}, exec_counts={}, overhead_ms=[],
        overhead_frac=0.0, setup_spans=[], setups=1)
    # Exactly the per-layer metrics BENCHMARK.json declares.
    assert list(reported("per_layer", table)) == [
        name for name, _ in declared("per_layer")]
    assert table["surface.calls"] == 1.0
    assert table["octree.calls"] == 4.0  # two in the parent, two on attach
    assert table["fleet.cold_attaches"] == 1.0


def test_sliced_request_spans_its_parent_side_replay():
    mol = _molecules(1)[0]
    tracer = Tracer()
    server = EpolServer(fleet=ProcessFleet(2),
                        config=ServeConfig(slice_threshold=1.0))
    server.start()
    client = ServeClient(server)
    try:
        key = client.register(mol)
        with tracer:
            for _ in range(3):
                client.submit(key=key).result(timeout=TIMEOUT)
    finally:
        server.stop()
    counts = _counts(tracer)
    assert counts["fleet.run_sliced"] == 3
    assert counts["sliced.reduce"] == counts["sliced.fold"] == 3
    assert counts["core.push"] == 3
    assert counts["shm.create"] == 3 + 1  # a scratch per request + publish
    kinds = Counter(s.attrs["kind"] for s in tracer.spans
                    if s.name == "pool.next_result")
    assert set(kinds) == {"born_ok", "epol_ok"}
    sliced = {s.sid for s in tracer.spans if s.name == "fleet.run_sliced"}
    assert all(s.parent in sliced for s in tracer.spans
               if s.name in ("sliced.reduce", "sliced.fold",
                             "pool.next_result"))


def test_router_window_builds_nothing():
    mols = _molecules(2)
    tracer = Tracer()
    router = ClusterRouter(ClusterConfig(nodes=2, backend="real", workers=1))
    router.start()
    client = ServeClient(router)
    try:
        keys = [client.register(m) for m in mols]
        for k in keys:
            client.submit(key=k).result(timeout=TIMEOUT)
        with tracer:
            futures = [client.submit(key=k) for k in keys * 3]
            for f in futures:
                f.result(timeout=TIMEOUT)
    finally:
        router.stop()
    counts = _counts(tracer)
    assert counts["router.submit"] == counts["client.submit"] == 6
    assert counts["scheduler.submit"] == 6
    for name in ("surface.build", "octree.atoms", "octree.quad",
                 "plan.build_born", "plan.build_epol", "registry.register",
                 "shm.create"):
        assert counts[name] == 0, name


# -- pure helpers ---------------------------------------------------------------
def test_parse_result_reads_every_result_kind():
    assert parse_result(("ok", 7, 1, -3.5, 0.25, True)) == {
        "kind": "ok", "req_id": 7, "rank": 1, "secs": 0.25, "cold": True}
    assert parse_result(("born_ok", 2, 0, 0, 5, 0.5, False, None))["secs"] \
        == 0.5
    assert parse_result(("epol_ok", 2, 1, 0, 5, None, None, 0.75, True)
                        )["cold"] is True
    with pytest.raises(ValueError):
        parse_result(("bogus", 1, 0))


def test_self_seconds_subtracts_children():
    spans = [Span(1, "a", 0.0, 10.0, None, "t", "w"),
             Span(2, "b", 1.0, 4.0, 1, "t", "w"),
             Span(3, "c", 5.0, 6.0, 1, "t", "w"),
             Span(4, "d", 2.0, 3.0, 2, "t", "w")]
    assert self_seconds(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


class _Done:
    """A future that is already resolved."""

    def __init__(self, energy: float) -> None:
        self.detail = {"latency_seconds": 0.001}
        self._energy = energy

    def done(self) -> bool:
        return True

    def exception(self, timeout=None):
        return None

    def result(self, timeout=None) -> float:
        return self._energy


def test_drive_keeps_the_window_and_stops_at_the_source():
    class Fake(Workload):
        inflight = 4

        def submit(self, mol):
            return _Done(float(mol))

    served = drive(Fake(0, 1), iter(["1", "2", "3"]), clock=lambda: 0.0)
    assert [s.energy for s in served] == [1.0, 2.0, 3.0]
    assert all(s.ok for s in served)


def test_percentile_weights_every_latency_around_the_quantile():
    assert _percentile([], 50) == 0.0
    assert _percentile([7.0], 60) == 7.0
    assert _percentile([3.0] * 9, 75) == pytest.approx(3.0)
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert _percentile(xs, 50) == pytest.approx(3.0)
    assert 3.0 < _percentile(xs, 75) < 5.0


def test_an_unsteady_repetition_is_left_out_and_changes_the_digest():
    rep = {"setup": {"warmup.extra_rounds": 0}, "window": {"sliced": 1.0},
           "served_setup": []}
    extra_round = {**rep, "setup": {"warmup.extra_rounds": 1}}
    odd_window = {**rep, "window": {"sliced": 0.5}}
    assert _steady([rep, rep, rep]) == [0, 1, 2]
    assert _steady([extra_round, rep, rep]) == [1, 2]
    assert _steady([rep, odd_window, rep]) == [0, 2]
    assert _steady([extra_round, odd_window, rep]) == [2]

    wl = types.SimpleNamespace(window_expect={"sliced": 1.0})

    def det(reps):
        return _determinism(wl, reps, _steady(reps), {})

    assert det([rep, odd_window, rep])["unsteady_reps"] == [1]
    assert det([rep, odd_window, rep])["digest"] != det([rep] * 3)["digest"]
    assert det([odd_window] * 3)["window_invariants_hold"] is False
    assert det([odd_window] * 3)["digest"] != det([rep] * 3)["digest"]


def test_cold_decoys_differ_by_seed_only_in_placement():
    runs = [ColdDecoys(seed, 2) for seed in (1, 2)]
    for wl in runs:
        stream = wl.window_requests()
        ids = [next(stream) for _ in range(6)]
    a, b = (wl.molecules for wl in runs)
    for mol in ids:
        shift = a[mol].positions - b[mol].positions
        assert np.allclose(shift, shift[0]) and np.abs(shift[0]).max() > 0
        assert (a[mol].radii == b[mol].radii).all()
    assert (a["w0"].positions == b["w0"].positions).all()


def test_run_without_sources_fails_without_a_result(tmp_path):
    here = Path(__file__).resolve().parents[1]
    shutil.copytree(here, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workers", "2", "--workload",
         "warm-zipf", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
