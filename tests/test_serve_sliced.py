"""Intra-request row-sliced serving: differential, routing and fault tests.

Acceptance criteria covered here:

* one request row-sliced across the warm fleet is **bit-identical** to a
  cold serial ``PolarizationEnergyCalculator.run()`` and to the batched
  path, at inline widths and process-fleet widths P in {1, 2, 4} under
  both ``fork`` and ``spawn``;
* the SLO scheduler routes by measured plan row weight: heavy requests
  slice, light requests micro-batch, and both arrive with mode/slice
  provenance on the future and in the metrics;
* a worker dying mid-slice surfaces a clear :class:`SliceError` (no hang,
  no lost future), the fleet respawns the dead rank, subsequent requests
  succeed, and ``/dev/shm`` stays clean;
* a worker that runs, and reports, one row past its range fails that
  request with :class:`SliceError`, and the next request is exact;
* a failure in the parent's own part of a request (a full ``/dev/shm``
  at publication) rejects that request alone, batched or sliced, and the
  scheduler keeps serving.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path

import pytest

from repro.core.driver import PolarizationEnergyCalculator
from repro.serve import (EpolServer, EpsConfig, InlineFleet, MODE_BATCHED,
                         MODE_SLICED, MoleculeRegistry, ProcessFleet,
                         ServeClient, ServeConfig, ServeMetrics, SliceError)
from repro.serve import fleet as fleet_module
from repro.serve.fleet import CRASH_NEXT
from repro.molecule.generators import protein_blob

SHM_DIR = Path("/dev/shm")
#: Attempts allowed for a crash injection to land on a slice task (the
#: armed worker races its healthy peers for the queue).
CRASH_ATTEMPTS = 8


def _segments(names) -> set:
    return {n for n in names if n.startswith("psm_")}


@pytest.fixture(scope="module")
def big_molecule():
    """Large enough that every fleet width gets a non-empty row range."""
    return protein_blob(300, seed=81)


@pytest.fixture(scope="module")
def small_molecule():
    return protein_blob(110, seed=82)


@pytest.fixture(scope="module")
def cold_big(big_molecule):
    return PolarizationEnergyCalculator(big_molecule).run().energy


@pytest.fixture(scope="module")
def cold_small(small_molecule):
    return PolarizationEnergyCalculator(small_molecule).run().energy


@pytest.fixture(scope="module")
def registry(big_molecule, small_molecule):
    reg = MoleculeRegistry()
    reg.register(big_molecule)
    reg.register(small_molecule)
    return reg


@pytest.fixture(scope="module")
def entries(registry):
    """(big, small) warm registry entries."""
    keys = registry.keys()
    by_size = sorted((registry.get(k) for k in keys),
                     key=lambda e: -len(e.molecule))
    return by_size[0], by_size[1]


def _cfg(entry) -> EpsConfig:
    return EpsConfig.resolve(entry.params)


def _midpoint_threshold(entries) -> float:
    big, small = entries
    wb = big.row_weight(big.params.eps_born, big.params.eps_epol)
    ws = small.row_weight(small.params.eps_born, small.params.eps_epol)
    assert wb > ws, "weight signal must separate the size classes"
    return (wb + ws) / 2.0


# ----------------------------------------------------------------------
# differential: sliced == cold serial == batched, bit for bit
# ----------------------------------------------------------------------
class TestInlineSliced:
    @pytest.mark.parametrize("nslices", [1, 2, 4])
    def test_sliced_bit_identical_to_cold(self, nslices, entries, cold_big):
        big, _ = entries
        fleet = InlineFleet(nslices)
        res = fleet.run_sliced(0, big, _cfg(big))
        assert res.error is None
        assert res.energy == cold_big
        assert res.mode == "sliced"
        assert 1 <= res.nslices <= nslices

    def test_sliced_matches_batched(self, entries, cold_big):
        big, _ = entries
        fleet = InlineFleet(3)
        sliced = fleet.run_sliced(0, big, _cfg(big))
        batched = fleet.run_batch([(1, big, _cfg(big))])[1]
        assert sliced.energy == batched.energy == cold_big
        assert batched.mode == "batched" and batched.nslices == 1

    def test_inline_width_validated(self):
        with pytest.raises(ValueError):
            InlineFleet(0)


class TestProcessSliced:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("nworkers", [1, 2, 4])
    def test_bit_identical_at_fleet_widths(self, nworkers, start_method,
                                           entries, cold_big):
        big, _ = entries
        before = _segments(os.listdir(SHM_DIR))
        fleet = ProcessFleet(nworkers, start_method=start_method)
        try:
            cold = fleet.run_sliced(0, big, _cfg(big))
            warm = fleet.run_sliced(1, big, _cfg(big))
            assert cold.error is None and warm.error is None
            assert cold.energy == warm.energy == cold_big
            assert cold.mode == warm.mode == "sliced"
            assert 1 <= cold.nslices
            assert cold.cold_attach is True
            assert warm.cold_attach is False
            # The batched path on the same warm fleet agrees bitwise.
            batched = fleet.run_batch([(2, big, _cfg(big))])[2]
            assert batched.energy == cold_big
        finally:
            fleet.shutdown()
        assert _segments(os.listdir(SHM_DIR)) <= before

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_reported_ranges_pass_cover_check(self, start_method, entries,
                                              cold_big):
        """Workers report the ranges they ran and the parent's cover
        check passes on the disjoint ranges."""
        big, _ = entries
        fleet = ProcessFleet(2, start_method=start_method)
        try:
            res = fleet.run_sliced(0, big, _cfg(big))
            assert res.error is None
            assert res.energy == cold_big
        finally:
            fleet.shutdown()


# ----------------------------------------------------------------------
# scheduler routing: weight threshold decides batch vs slice
# ----------------------------------------------------------------------
class TestServerRouting:
    def test_threshold_routes_by_weight(self, entries, registry, cold_big,
                                        cold_small):
        big, small = entries
        cfg = ServeConfig(max_batch=8, max_wait_seconds=0.001,
                          slice_threshold=_midpoint_threshold(entries))
        server = EpolServer(fleet=ProcessFleet(2), registry=registry,
                            config=cfg)
        with server:
            client = ServeClient(server)
            fut_big = client.submit(key=big.key, retries=100)
            fut_small = client.submit(key=small.key, retries=100)
            assert fut_big.result(timeout=300.0) == cold_big
            assert fut_small.result(timeout=300.0) == cold_small
        assert fut_big.detail["mode"] == MODE_SLICED
        assert fut_big.detail["nslices"] >= 1
        assert fut_small.detail["mode"] == MODE_BATCHED
        assert fut_small.detail["nslices"] == 1
        stats = server.stats()
        assert stats["modes"]["sliced"]["completed"] == 1
        assert stats["modes"]["batched"]["completed"] == 1
        assert stats["respawns"] == 0

    def test_no_threshold_never_slices(self, entries, registry, cold_big):
        big, _ = entries
        cfg = ServeConfig(max_batch=8, max_wait_seconds=0.001)
        server = EpolServer(fleet=ProcessFleet(2), registry=registry,
                            config=cfg)
        with server:
            client = ServeClient(server)
            fut = client.submit(key=big.key, retries=100)
            assert fut.result(timeout=300.0) == cold_big
        assert fut.detail["mode"] == MODE_BATCHED
        assert "sliced" not in server.stats()["modes"]

    def test_inline_server_slices_too(self, entries, cold_big):
        """The sim substrate honours the same routing policy (sequential
        slice execution through identical kernels and reduction)."""
        big, small = entries
        reg = MoleculeRegistry()
        reg.register(big.molecule)
        cfg = ServeConfig(max_batch=8, max_wait_seconds=0.001,
                          slice_threshold=_midpoint_threshold((big, small)))
        server = EpolServer(fleet=InlineFleet(2), registry=reg, config=cfg)
        with server:
            client = ServeClient(server)
            fut = client.submit(key=big.key)
            assert fut.result(timeout=300.0) == cold_big
        assert fut.detail["mode"] == MODE_SLICED

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(slice_threshold=0.0)
        with pytest.raises(ValueError):
            ServeConfig(slice_threshold=-5.0)
        with pytest.raises(ValueError):
            ServeConfig(slice_queue_scale=-0.1)
        ServeConfig(slice_threshold=None)  # disabled is valid


# ----------------------------------------------------------------------
# metrics: per-mode accounting
# ----------------------------------------------------------------------
class TestModeMetrics:
    def test_mode_counters_and_histogram(self):
        m = ServeMetrics()
        m.record_done(0.010, ok=True, mode="batched")
        m.record_done(0.020, ok=True, mode="sliced", nslices=4)
        m.record_done(0.030, ok=True, mode="sliced", nslices=4)
        m.record_done(0.040, ok=False, mode="sliced")
        modes = m.mode_breakdown()
        assert modes["batched"]["completed"] == 1
        assert modes["batched"]["failed"] == 0
        assert modes["sliced"]["completed"] == 2
        assert modes["sliced"]["failed"] == 1
        assert modes["sliced"]["slice_requests"] == 2
        assert modes["sliced"]["mean_slices"] == 4.0
        assert modes["sliced"]["slice_histogram"] == {"4": 2}
        assert modes["sliced"]["latency"]["max_ms"] == pytest.approx(30.0)

    def test_per_mode_latency_percentiles(self):
        m = ServeMetrics()
        for ms in (1, 2, 3):
            m.record_done(ms / 1e3, ok=True, mode="batched")
        m.record_done(0.100, ok=True, mode="sliced", nslices=2)
        assert m.latency_percentiles("batched")["max_ms"] == \
            pytest.approx(3.0)
        assert m.latency_percentiles("sliced")["p50_ms"] == \
            pytest.approx(100.0)
        # The overall sample includes both modes.
        assert m.latency_percentiles()["max_ms"] == pytest.approx(100.0)

    def test_snapshot_carries_modes(self):
        m = ServeMetrics()
        m.record_done(0.005, ok=True, mode="sliced", nslices=3)
        snap = m.snapshot()
        assert snap["modes"]["sliced"]["completed"] == 1
        assert snap["modes"]["sliced"]["slice_histogram"] == {"3": 1}


# ----------------------------------------------------------------------
# fault injection: worker death mid-slice
# ----------------------------------------------------------------------
class TestSliceFaults:
    def _provoke_crash(self, fleet, entry, cfg):
        """Arm one worker to die on its next slice task and run sliced
        requests until the death lands (the armed worker races healthy
        peers for the queue).  Returns the SliceError."""
        fleet._pool.submit((CRASH_NEXT,))
        for attempt in range(CRASH_ATTEMPTS):
            try:
                res = fleet.run_sliced(100 + attempt, entry, cfg)
            except SliceError as err:
                return err
            # The armed worker missed this request: energies must still
            # be exact while the bomb is live.
            assert res.error is None
        raise AssertionError(
            f"crash injection never landed in {CRASH_ATTEMPTS} attempts")

    def test_worker_death_mid_slice_recovers(self, entries, cold_big):
        big, _ = entries
        before = _segments(os.listdir(SHM_DIR))
        fleet = ProcessFleet(2)
        try:
            warm = fleet.run_sliced(0, big, _cfg(big))
            assert warm.energy == cold_big
            err = self._provoke_crash(fleet, big, _cfg(big))
            # Clear, request-scoped error: names the death and the repair.
            assert "died mid-slice" in str(err)
            assert fleet.respawns >= 1
            assert fleet._pool.alive() == 2
            # The fleet keeps serving, bit-identically, on both paths.
            again = fleet.run_sliced(200, big, _cfg(big))
            assert again.error is None and again.energy == cold_big
            batched = fleet.run_batch([(201, big, _cfg(big))])[201]
            assert batched.energy == cold_big
        finally:
            fleet.shutdown()
        assert _segments(os.listdir(SHM_DIR)) <= before

    def test_worker_overrun_fails_request(self, entries, cold_big,
                                          monkeypatch, tmp_path):
        """One slice worker runs, and reports, ``(lo, hi + 1)``: the
        parent's cover check fails that request with SliceError, and the
        next request matches ``run()`` bit for bit.  The patched
        ``_run_slice`` reaches the workers through ``fork``; a marker
        file makes the overrun fire once across all of them."""
        big, _ = entries
        marker = tmp_path / "overrun"
        real = fleet_module._run_slice

        def overrun_once(state, kind, scratch, lo, hi):
            if kind == "born_slice" and lo == 0:
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    hi += 1
            return real(state, kind, scratch, lo, hi)

        monkeypatch.setattr(fleet_module, "_run_slice", overrun_once)
        fleet = ProcessFleet(2, start_method="fork")
        try:
            with pytest.raises(SliceError, match="do not tile"):
                fleet.run_sliced(0, big, _cfg(big))
            assert marker.exists()
            again = fleet.run_sliced(1, big, _cfg(big))
            assert again.error is None and again.energy == cold_big
        finally:
            fleet.shutdown()

    def test_server_survives_mid_slice_death(self, entries, registry,
                                             cold_big):
        """At the server level a mid-slice death rejects that future with
        SliceError, keeps the scheduler alive, and later requests (both
        modes) succeed."""
        big, small = entries
        fleet = ProcessFleet(2)
        cfg = ServeConfig(max_batch=8, max_wait_seconds=0.001,
                          slice_threshold=_midpoint_threshold(entries))
        server = EpolServer(fleet=fleet, registry=registry, config=cfg)
        with server:
            client = ServeClient(server)
            client.submit(key=big.key, retries=100).result(timeout=300.0)
            fleet._pool.submit((CRASH_NEXT,))
            crashed = None
            for _ in range(CRASH_ATTEMPTS):
                fut = client.submit(key=big.key, retries=100)
                err = fut.exception(timeout=300.0)
                if err is not None:
                    crashed = err
                    break
                assert fut.result() == cold_big
            assert isinstance(crashed, SliceError)
            # The server is still serving: sliced and batched requests
            # after the failure both come back exact.
            fut_big = client.submit(key=big.key, retries=100)
            fut_small = client.submit(key=small.key, retries=100)
            assert fut_big.result(timeout=300.0) == cold_big
            fut_small.result(timeout=300.0)
            stats = server.stats()
        assert stats["respawns"] >= 1
        assert stats["modes"]["sliced"]["failed"] >= 1
        assert stats["modes"]["sliced"]["completed"] >= 2

    @pytest.mark.parametrize("mode", [MODE_BATCHED, MODE_SLICED])
    def test_parent_side_failure_rejects_one_request(self, mode, entries,
                                                     registry, cold_small,
                                                     monkeypatch):
        """A publication that fails in the parent (``OSError(ENOSPC)``, as
        a full ``/dev/shm`` gives) rejects that request's future; the
        scheduler thread survives and serves the next request exactly."""
        _, small = entries
        before = _segments(os.listdir(SHM_DIR))
        threshold = 1e-6 if mode == MODE_SLICED else None
        cfg = ServeConfig(max_batch=8, max_wait_seconds=0.001,
                          slice_threshold=threshold)
        server = EpolServer(fleet=ProcessFleet(2), registry=registry,
                            config=cfg)
        create = fleet_module.SharedArrayBundle.create
        calls: list[int] = []

        def full_once(arrays):
            calls.append(1)
            if len(calls) == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return create(arrays)

        monkeypatch.setattr(fleet_module.SharedArrayBundle, "create",
                            staticmethod(full_once))
        with server:
            client = ServeClient(server)
            failed = client.submit(key=small.key, retries=100)
            assert isinstance(failed.exception(timeout=30.0), Exception)
            assert server._thread is not None and server._thread.is_alive()
            fut = client.submit(key=small.key, retries=100)
            assert fut.result(timeout=300.0) == cold_small
        assert fut.detail["mode"] == mode
        assert _segments(os.listdir(SHM_DIR)) <= before
