"""Fault paths of the serving stack, each bounded in time.

Every test here fails within seconds, never by waiting out a long
client timeout, when the fault handling it names is broken:

* a :class:`SliceError` from the fleet rejects that request's future
  within 5 s, and the next request still resolves;
* a :class:`FleetError` from ``run_batch`` rejects every future of the
  batch, batched and sliced alike, and the server stops admitting;
* ``ServeFuture._resolve`` sets the future done;
* a worker that exits without reporting makes
  ``PersistentWorkerPool.next_result`` raise :class:`PoolError` naming
  its exit code, not the stall message after the full timeout;
* ``ProcessFleet.run_sliced`` closes its scratch segment before the
  segment's one unlink, on success and on a parent-side failure.
"""

from __future__ import annotations

import os

import pytest

from repro.core.driver import PolarizationEnergyCalculator
from repro.molecule.generators import protein_blob
from repro.parallel.procpool import (PersistentWorkerPool, PoolError,
                                    SharedArrayBundle)
from repro.serve import (EpolServer, EpsConfig, FleetError, InlineFleet,
                         MoleculeRegistry, ProcessFleet, ServeConfig,
                         ServeFuture, ServerClosed, SliceError)
from repro.serve import fleet as fleet_module

#: Seconds a future may take to settle after its fleet call failed.
SETTLE_SECONDS = 5.0


def _exit_on_first_task(rank, tasks, results):
    """Worker loop that dies with exit code 3 on its first task, before
    reporting anything (module-level for the spawn start method)."""
    tasks.get(timeout=60.0)
    os._exit(3)


@pytest.fixture(scope="module")
def small_molecule():
    return protein_blob(60, seed=41)


@pytest.fixture(scope="module")
def large_molecule():
    return protein_blob(140, seed=42)


@pytest.fixture(scope="module")
def cold_small(small_molecule):
    return PolarizationEnergyCalculator(small_molecule).run().energy


def _row_weight(entry) -> float:
    cfg = EpsConfig.resolve(entry.params)
    return entry.row_weight(cfg.eps_born, cfg.eps_epol)


# ----------------------------------------------------------------------
# scheduler: a failed fleet call settles every future it owned
# ----------------------------------------------------------------------
class TestSchedulerRejects:
    def test_slice_error_rejects_its_request_and_serving_continues(
            self, small_molecule, cold_small):
        fleet = InlineFleet(2)
        run_sliced = fleet.run_sliced
        calls: list[int] = []

        def fail_first(req_id, entry, cfg):
            calls.append(req_id)
            if len(calls) == 1:
                raise SliceError("injected slice failure")
            return run_sliced(req_id, entry, cfg)

        fleet.run_sliced = fail_first
        cfg = ServeConfig(max_wait_seconds=0.0, slice_threshold=1e-6)
        with EpolServer(fleet=fleet, config=cfg) as server:
            key = server.register(small_molecule)
            failed = server.submit(key)
            err = failed.exception(timeout=SETTLE_SECONDS)
            assert isinstance(err, SliceError)
            assert server.submit(key).result(timeout=60.0) == cold_small
        assert len(calls) == 2

    def test_fleet_error_rejects_batched_and_sliced_then_closes(
            self, small_molecule, large_molecule):
        registry = MoleculeRegistry()
        small = registry.register(small_molecule)
        large = registry.register(large_molecule)
        w_small = _row_weight(registry.get(small))
        w_large = _row_weight(registry.get(large))
        assert w_large > w_small
        fleet = InlineFleet(2)

        def broken(items):
            raise FleetError("injected fleet failure")

        fleet.run_batch = broken
        # Two requests ride one batch: the scheduler holds it open until
        # both are waiting.  The small one is batched, the large sliced.
        cfg = ServeConfig(max_batch=2, max_wait_seconds=2.0,
                          slice_threshold=(w_small + w_large) / 2.0)
        with EpolServer(fleet=fleet, registry=registry,
                        config=cfg) as server:
            batched = server.submit(small)
            sliced = server.submit(large)
            for future in (batched, sliced):
                err = future.exception(timeout=SETTLE_SECONDS)
                assert isinstance(err, FleetError)
                assert "injected fleet failure" in str(err)
            with pytest.raises(ServerClosed):
                server.submit(small)
        stats = server.stats()
        assert stats["batches"] == 1
        assert stats["failed"] == 2


# ----------------------------------------------------------------------
# futures: settling sets done
# ----------------------------------------------------------------------
class TestFutureSettles:
    def test_resolve_sets_done(self):
        future = ServeFuture(key="k")
        future._resolve(1.0)
        assert future.done()
        assert future.result(timeout=0.1) == 1.0


# ----------------------------------------------------------------------
# worker pool: a dead worker is reported by its exit code
# ----------------------------------------------------------------------
class TestPoolDeath:
    def test_dead_worker_names_its_exit_code(self):
        pool = PersistentWorkerPool(1, _exit_on_first_task)
        try:
            pool.submit(("work",))
            with pytest.raises(PoolError, match=r"exit codes \[3\]"):
                pool.next_result(timeout=10.0)
        finally:
            pool.shutdown()


# ----------------------------------------------------------------------
# sliced scratch segment: closed, then unlinked once
# ----------------------------------------------------------------------
class TestScratchLifecycle:
    @staticmethod
    def _spy(monkeypatch) -> list[tuple[str, str]]:
        """Record ``(op, segment)`` for every parent-side close/unlink of
        a sliced request's scratch bundle."""
        ops: list[tuple[str, str]] = []
        for op in ("close", "unlink"):
            real = getattr(SharedArrayBundle, op)

            def spy(bundle, _real=real, _op=op):
                if "born_sorted" in bundle.layout:
                    ops.append((_op, bundle.name))
                return _real(bundle)

            monkeypatch.setattr(SharedArrayBundle, op, spy)
        return ops

    @staticmethod
    def _assert_closed_then_unlinked(ops) -> None:
        assert [op for op, _ in ops] == ["close", "unlink"], ops
        assert len({name for _, name in ops}) == 1

    def test_closed_before_unlink_on_success(self, monkeypatch,
                                             small_molecule, cold_small):
        registry = MoleculeRegistry()
        entry = registry.get(registry.register(small_molecule))
        fleet = ProcessFleet(2)
        try:
            ops = self._spy(monkeypatch)
            res = fleet.run_sliced(0, entry, EpsConfig.resolve(entry.params))
        finally:
            fleet.shutdown()
        assert res.energy == cold_small
        self._assert_closed_then_unlinked(ops)

    def test_closed_before_unlink_on_parent_failure(self, monkeypatch,
                                                    small_molecule):
        registry = MoleculeRegistry()
        entry = registry.get(registry.register(small_molecule))
        fleet = ProcessFleet(2)
        try:
            ops = self._spy(monkeypatch)

            def fail(*args, **kwargs):
                raise RuntimeError("injected reduction failure")

            monkeypatch.setattr(fleet_module, "epol_from_pair_sum", fail)
            with pytest.raises(SliceError, match="injected reduction"):
                fleet.run_sliced(0, entry, EpsConfig.resolve(entry.params))
        finally:
            fleet.shutdown()
        self._assert_closed_then_unlinked(ops)
