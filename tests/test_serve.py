"""The serving layer (:mod:`repro.serve`): differential + lifecycle tests.

Acceptance criteria covered here:

* served energies are **bit-identical** to a cold
  ``PolarizationEnergyCalculator.run()`` of the same configuration, on
  both fleets and at process-fleet widths P in {1, 2, 4};
* admission control rejects explicitly (``RejectedError``) and the
  client retry policy turns backpressure into delay, never loss;
* registry/plan-cache eviction is coherent (byte-budget LRU, eviction
  hooks unpublish fleet state) and every shutdown path is idempotent
  with no ``/dev/shm`` litter.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.driver import PolarizationEnergyCalculator
from repro.core.params import ApproximationParams
from repro.molecule.generators import protein_blob
from repro.parallel.procpool import PersistentWorkerPool
from repro.serve import (EpolServer, EpsConfig, InlineFleet,
                         MoleculeRegistry, ProcessFleet, RejectedError,
                         ServeClient, ServeConfig, ServeFuture, ServerClosed,
                         content_key, make_server)

SHM_DIR = Path("/dev/shm")


def _echo_worker_loop(rank, tasks, results):
    """Module-level so the spawn start method can pickle it."""
    while tasks.get() is not None:
        pass


def _maps(pid: int) -> str:
    """The memory map of process ``pid`` (Linux)."""
    return Path(f"/proc/{pid}/maps").read_text()


def _segments(names) -> set:
    """POSIX shared-memory segment names only (``sem.mp-*`` queue
    semaphores live until their queue objects are collected)."""
    return {n for n in names if n.startswith("psm_")}


@pytest.fixture(scope="module")
def serve_molecules():
    """Three small distinct molecules for the differential tests."""
    return [protein_blob(100 + 25 * i, seed=70 + i) for i in range(3)]


@pytest.fixture(scope="module")
def cold_energies(serve_molecules):
    """The reference: one cold serial driver run per molecule."""
    return [PolarizationEnergyCalculator(m).run().energy
            for m in serve_molecules]


def _quick_config(**over):
    base = dict(max_batch=8, max_wait_seconds=0.001)
    base.update(over)
    return ServeConfig(**base)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_content_key_is_content_addressed(self, serve_molecules):
        m = serve_molecules[0]
        twin = protein_blob(100, seed=70)          # same content
        other = serve_molecules[1]                 # different content
        assert content_key(m, None) == content_key(twin, None)
        assert content_key(m, None) != content_key(other, None)
        # Parameters are part of the identity: same atoms, different
        # approximation config must not share warm state.
        tweaked = ApproximationParams(eps_born=0.5)
        assert content_key(m, None) != content_key(m, tweaked)

    def test_register_is_idempotent(self, serve_molecules):
        reg = MoleculeRegistry()
        k1 = reg.register(serve_molecules[0])
        k2 = reg.register(serve_molecules[0])
        assert k1 == k2
        stats = reg.stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 1 and stats["hits"] >= 1

    def test_byte_budget_lru_evicts_oldest(self, serve_molecules):
        reg = MoleculeRegistry()
        keys = [reg.register(m) for m in serve_molecules]
        # Budget that holds roughly one warm entry: registering all three
        # must evict, and the newest registration always survives.
        budget = reg.get(keys[0]).nbytes + 1
        evicted = []
        small = MoleculeRegistry(max_bytes=budget,
                                 on_evict=lambda e: evicted.append(e.key))
        for m in serve_molecules:
            small.register(m)
        assert small.stats()["evictions"] >= 1
        assert evicted and keys[-1] not in evicted
        assert keys[-1] in small._entries  # MRU entry survives
        assert small.current_bytes <= max(budget,
                                          small.get(keys[-1]).nbytes)

    def test_get_refreshes_recency(self, serve_molecules):
        reg = MoleculeRegistry()
        keys = [reg.register(m) for m in serve_molecules[:2]]
        reg.get(keys[0])  # key 0 becomes MRU
        assert list(reg._entries) == [keys[1], keys[0]]

    def test_unknown_key_raises(self):
        reg = MoleculeRegistry()
        with pytest.raises(KeyError):
            reg.get("deadbeefdeadbeef")

    def test_warm_entry_measures_trees_and_plans(self, serve_molecules):
        reg = MoleculeRegistry()
        key = reg.register(serve_molecules[0], warm=True)
        entry = reg.get(key)
        # Warm = surface + trees + default plans built; the measured
        # footprint must dominate the raw coordinate arrays.
        raw = sum(a.nbytes for a in (entry.molecule.positions,
                                     entry.molecule.radii,
                                     entry.molecule.charges))
        assert entry.nbytes > raw
        assert entry.calc.plan_cache().stats()["plans"] == 2


# ----------------------------------------------------------------------
# differential: served == cold serial driver, bit for bit
# ----------------------------------------------------------------------
class TestInlineDifferential:
    def test_served_bit_identical_to_cold_run(self, serve_molecules,
                                              cold_energies):
        with make_server(backend="sim", workers=1,
                         config=_quick_config()) as server:
            client = ServeClient(server)
            futs = [client.submit(molecule=m) for m in serve_molecules]
            energies = client.await_all(futs, timeout=120.0)
        assert energies == cold_energies  # exact float equality

    def test_eps_override_matches_fresh_calc(self, serve_molecules):
        mol = serve_molecules[0]
        ref = PolarizationEnergyCalculator(
            mol, ApproximationParams(eps_born=0.5, eps_epol=0.4)).run()
        with make_server(backend="sim", workers=1,
                         config=_quick_config()) as server:
            client = ServeClient(server)
            key = client.register(mol)
            fut = client.submit(key=key, eps_born=0.5, eps_epol=0.4)
            assert fut.result(timeout=120.0) == ref.energy

    def test_mixed_configs_group_and_stay_exact(self, serve_molecules,
                                                cold_energies):
        mol = serve_molecules[0]
        ref_tight = PolarizationEnergyCalculator(
            mol, ApproximationParams(eps_born=0.5)).run().energy
        with make_server(backend="sim", workers=1,
                         config=_quick_config(max_wait_seconds=0.05)) \
                as server:
            client = ServeClient(server)
            key = client.register(mol)
            futs = [client.submit(key=key),
                    client.submit(key=key, eps_born=0.5),
                    client.submit(key=key)]
            got = client.await_all(futs, timeout=120.0)
        assert got[0] == got[2] == cold_energies[0]
        assert got[1] == ref_tight


class TestProcessDifferential:
    @pytest.mark.parametrize("nworkers", [1, 2, 4])
    def test_bit_identical_at_fleet_widths(self, nworkers, serve_molecules,
                                           cold_energies):
        with make_server(backend="real", workers=nworkers,
                         config=_quick_config()) as server:
            client = ServeClient(server)
            keys = [client.register(m) for m in serve_molecules]
            futs = [client.submit(key=keys[i % 3], retries=100)
                    for i in range(3 * 3)]
            got = client.await_all(futs, timeout=300.0)
        for i, energy in enumerate(got):
            assert energy == cold_energies[i % 3], (
                f"request {i} (P={nworkers}) diverged from the cold "
                f"serial driver")

    def test_warm_requests_skip_cold_attach(self, serve_molecules):
        with make_server(backend="real", workers=1,
                         config=_quick_config()) as server:
            client = ServeClient(server)
            key = client.register(serve_molecules[0])
            first = client.submit(key=key, retries=100)
            first.result(timeout=300.0)
            second = client.submit(key=key, retries=100)
            second.result(timeout=300.0)
            assert first.detail["cold_attach"] is True
            assert second.detail["cold_attach"] is False
            assert server.stats()["publications"] == 1

    def test_validated_attach_roundtrip(self, serve_molecules,
                                        cold_energies):
        """Workers validate every plan they attach and still serve
        bit-identical energies."""
        with make_server(backend="real", workers=2,
                         config=_quick_config()) as server:
            client = ServeClient(server)
            futs = [client.submit(molecule=m, retries=100)
                    for m in serve_molecules]
            got = client.await_all(futs, timeout=300.0)
        assert got == cold_energies

    def test_narrowed_plan_fails_its_request(self, serve_molecules):
        """A worker that attaches a plan whose Born CSR offsets are
        int32 fails that request: the values still fit, so only
        ``InteractionPlan.validate()`` on attach can notice."""
        registry = MoleculeRegistry()
        entry = registry.get(registry.register(serve_molecules[0]))
        cfg = EpsConfig.resolve(entry.params)
        fleet = ProcessFleet(1)
        try:
            # Publication stores integer arrays as int64: re-declare the
            # published offsets as int32 and rewrite them in place.
            bundle = fleet._ensure_published(entry, cfg).bundle
            field = "plan_born_far_start"
            offsets = bundle.view(field).copy()
            bundle.layout[field] = dataclasses.replace(bundle.layout[field],
                                                       dtype="int32")
            bundle.view(field)[...] = offsets
            res = fleet.run_batch([(0, entry, cfg)])[0]
        finally:
            fleet.shutdown()
        assert np.isnan(res.energy)
        assert "far_start must be int64, not int32" in res.error


# ----------------------------------------------------------------------
# admission control / backpressure
# ----------------------------------------------------------------------
class TestAdmission:
    def test_queue_full_rejects_explicitly(self, serve_molecules):
        server = EpolServer(fleet=InlineFleet(),
                            config=_quick_config(queue_capacity=2))
        key = server.register(serve_molecules[0])
        # Fill the queue without draining it: admission happens under the
        # server lock before the scheduler thread exists.
        server._running = True
        server.submit(key)
        server.submit(key)
        with pytest.raises(RejectedError):
            server.submit(key)
        assert server.metrics.snapshot()["rejected"] == 1
        server._running = False

    def test_retry_turns_backpressure_into_delay(self, serve_molecules,
                                                 cold_energies):
        cfg = _quick_config(queue_capacity=2, max_batch=2)
        with make_server(backend="sim", workers=1, config=cfg) as server:
            client = ServeClient(server)
            key = client.register(serve_molecules[0])
            futs = [client.submit(key=key, retries=10_000,
                                  backoff_seconds=0.001)
                    for _ in range(12)]
            got = client.await_all(futs, timeout=300.0)
        assert got == [cold_energies[0]] * 12  # zero rejected-then-lost
        stats = server.stats()
        assert stats["completed"] == 12 and stats["failed"] == 0

    def test_zero_retries_surfaces_rejection(self, serve_molecules):
        server = EpolServer(fleet=InlineFleet(),
                            config=_quick_config(queue_capacity=1))
        client = ServeClient(server)
        key = server.register(serve_molecules[0])
        server._running = True
        server.submit(key)
        with pytest.raises(RejectedError):
            client.submit(key=key, retries=0)
        server._running = False

    def test_submit_requires_started_server(self, serve_molecules):
        server = EpolServer(fleet=InlineFleet())
        key = server.register(serve_molecules[0])
        with pytest.raises(ServerClosed):
            server.submit(key)

    def test_unknown_key_rejected_at_submit(self, serve_molecules):
        with make_server(backend="sim", workers=1,
                         config=_quick_config()) as server:
            with pytest.raises(KeyError):
                server.submit("0000000000000000")


# ----------------------------------------------------------------------
# lifecycle: idempotent teardown, eviction coherence, no shm litter
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_stop_is_idempotent_and_final(self, serve_molecules):
        server = make_server(backend="sim", workers=1,
                             config=_quick_config())
        server.start()
        server.start()  # idempotent
        server.stop()
        server.stop()   # idempotent
        with pytest.raises(ServerClosed):
            server.start()
        with pytest.raises(ServerClosed):
            server.submit("anything")

    def test_fleet_shutdown_idempotent(self):
        fleet = ProcessFleet(1)
        fleet.shutdown()
        fleet.shutdown()

    def test_pool_shutdown_idempotent(self):
        pool = PersistentWorkerPool(2, _echo_worker_loop)
        assert pool.alive() == 2
        pool.shutdown()
        pool.shutdown()
        assert pool.closed

    def test_no_dev_shm_litter_after_stop(self, serve_molecules):
        before = _segments(os.listdir(SHM_DIR))
        with make_server(backend="real", workers=2,
                         config=_quick_config()) as server:
            client = ServeClient(server)
            futs = [client.submit(molecule=m, retries=100)
                    for m in serve_molecules]
            client.await_all(futs, timeout=300.0)
            names = [pub.bundle.name
                     for pub in server.fleet._published.values()]
            assert names, "expected published segments while serving"
        for name in names:
            assert not (SHM_DIR / name).exists(), f"leaked {name}"
        assert _segments(os.listdir(SHM_DIR)) <= before

    def test_gc_reaps_abandoned_fleet(self, serve_molecules):
        """Dropping a fleet without shutdown() must still unlink its
        segments and stop its processes (finalizer backstops)."""
        registry = MoleculeRegistry()
        entry = registry.get(registry.register(serve_molecules[0]))
        fleet = ProcessFleet(1)
        results = fleet.run_batch(
            [(0, entry, EpsConfig.resolve(entry.params))])
        assert results[0].error is None
        names = [pub.bundle.name for pub in fleet._published.values()]
        procs = list(fleet._pool._procs)
        assert names and procs
        del fleet, results
        gc.collect()
        for name in names:
            assert not (SHM_DIR / name).exists(), f"leaked {name}"
        for proc in procs:
            proc.join(timeout=10.0)
            assert not proc.is_alive()

    def test_eviction_unpublishes_fleet_state(self, serve_molecules):
        cfg = _quick_config()
        fleet = ProcessFleet(1)
        registry = MoleculeRegistry()
        server = EpolServer(fleet=fleet, registry=registry, config=cfg)
        with server:
            client = ServeClient(server)
            keys = [client.register(m) for m in serve_molecules[:2]]
            futs = [client.submit(key=k, retries=100) for k in keys]
            client.await_all(futs, timeout=300.0)
            assert len(fleet._published) == 2
            name0 = next(pub.bundle.name
                         for (k, _), pub in fleet._published.items()
                         if k == keys[0])
            # Shrink the budget and evict the LRU entry by hand: the
            # fleet must drop its shared segment for that molecule.
            registry.max_bytes = 1
            with registry._lock:
                registry._evict_over_budget(protect=keys[1])
            assert all(k != keys[0] for k, _ in fleet._published)
            assert not (SHM_DIR / name0).exists()
            # The evicted molecule can be re-registered and served again.
            rekey = client.register(serve_molecules[0])
            assert rekey == keys[0]
            registry.max_bytes = None
            fut = client.submit(key=rekey, retries=100)
            fut.result(timeout=300.0)

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                        reason="reads /proc/<pid>/maps")
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_eviction_unmaps_segment_on_every_worker(self, start_method):
        """An evicted molecule leaves every worker's address space at that
        worker's next task -- the worker busy at eviction time included."""
        registry = MoleculeRegistry()
        small = registry.get(registry.register(protein_blob(150, seed=81)))
        busy = registry.get(registry.register(protein_blob(1500, seed=82)))
        cfg = EpsConfig.resolve(small.params)
        busy.plans_for(cfg.eps_born, cfg.eps_epol)
        with ProcessFleet(2, start_method=start_method) as fleet:
            # A sliced request attaches its molecule on both workers.
            assert fleet.run_sliced(0, small, cfg).nslices == 2
            evicted = fleet._published[(small.key, cfg)].bundle.name
            pids = [proc.pid for proc in fleet._pool._procs]
            assert all(evicted in _maps(pid) for pid in pids)

            def busy_attached() -> bool:
                pub = fleet._published.get((busy.key, cfg))
                return pub is not None and any(
                    pub.bundle.name in _maps(pid) for pid in pids)

            # A cold request occupies one worker; evict once it attached.
            run = threading.Thread(target=fleet.run_batch,
                                   args=([(1, busy, cfg)],))
            run.start()
            try:
                for _ in range(60000):
                    if busy_attached():
                        break
                    threading.Event().wait(0.001)
                fleet.forget(small)
            finally:
                run.join(timeout=300.0)
            assert not run.is_alive()
            # One task on each worker: the two slices of one request.
            assert fleet.run_sliced(2, busy, cfg).nslices == 2
            for pid in pids:
                assert evicted not in _maps(pid), f"worker {pid} kept it"

    def test_stop_without_drain_rejects_pending(self, serve_molecules):
        server = EpolServer(fleet=InlineFleet(),
                            config=_quick_config(queue_capacity=8))
        key = server.register(serve_molecules[0])
        server._running = True  # admit without a scheduler thread
        futs = [server.submit(key) for _ in range(3)]
        server._running = False
        server.stop(drain=False)
        for fut in futs:
            with pytest.raises(ServerClosed):
                fut.result(timeout=1.0)


# ----------------------------------------------------------------------
# client futures
# ----------------------------------------------------------------------
class TestClientFutures:
    def test_future_poll_and_timeout(self):
        fut = ServeFuture(key="k")
        assert not fut.done()
        with pytest.raises(TimeoutError):
            fut.result(timeout=0.01)
        fut._resolve(-1.5, worker=0)
        assert fut.done()
        assert fut.result() == -1.5
        assert fut.exception() is None
        assert fut.detail["worker"] == 0

    def test_future_rejection_reraises(self):
        fut = ServeFuture(key="k")
        fut._reject(RejectedError("full"))
        with pytest.raises(RejectedError):
            fut.result(timeout=1.0)
        assert isinstance(fut.exception(), RejectedError)

    def test_submit_argument_validation(self, serve_molecules):
        server = EpolServer(fleet=InlineFleet())
        client = ServeClient(server)
        with pytest.raises(ValueError):
            client.submit()  # neither molecule nor key
        with pytest.raises(ValueError):
            client.submit(molecule=serve_molecules[0], key="abc")  # both

    def test_poll_counts_resolved(self):
        futs = [ServeFuture(key="k") for _ in range(3)]
        futs[1]._resolve(0.0)
        assert ServeClient.poll(futs) == (1, 3)


# ----------------------------------------------------------------------
# assembly / config validation
# ----------------------------------------------------------------------
class TestAssembly:
    def test_make_server_validates_backend(self):
        with pytest.raises(ValueError):
            make_server(backend="gpu")
        with pytest.raises(ValueError):
            make_server(backend="sim", workers=0)

    def test_sim_backend_defaults_serve_cold_energy(self, serve_molecules,
                                                    cold_energies):
        """The default width (2) is valid on the sim backend too."""
        with make_server(backend="sim", config=_quick_config()) as server:
            fut = ServeClient(server).submit(molecule=serve_molecules[0])
            assert fut.result(timeout=120.0) == cold_energies[0]

    def test_sim_width_is_the_slice_count(self, serve_molecules,
                                          cold_energies):
        """``workers`` is the sim backend's slice width, as it is a
        shard's: a sliced request fans out into that many ranges."""
        cfg = _quick_config(slice_threshold=1e-6)
        with make_server(backend="sim", workers=3, config=cfg) as server:
            fut = ServeClient(server).submit(molecule=serve_molecules[2])
            assert fut.result(timeout=120.0) == cold_energies[2]
        assert fut.detail["nslices"] == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServeConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            ServeConfig(max_wait_seconds=-1.0)

    def test_eps_config_resolution(self):
        params = ApproximationParams()
        cfg = EpsConfig.resolve(params)
        assert cfg == EpsConfig(params.eps_born, params.eps_epol)
        assert EpsConfig.resolve(params, eps_born=0.5).eps_born == 0.5

    def test_stats_shape(self, serve_molecules, cold_energies):
        with make_server(backend="sim", workers=1,
                         config=_quick_config()) as server:
            client = ServeClient(server)
            fut = client.submit(molecule=serve_molecules[0])
            assert fut.result(timeout=120.0) == cold_energies[0]
            stats = server.stats()
        assert stats["backend"] == "sim"
        assert {"accepted", "completed", "latency", "batch_histogram",
                "throughput_rps", "registry"} <= set(stats)
        assert stats["registry"]["plan_cache"]["plans"] >= 2
        assert np.isfinite(stats["latency"]["p50_ms"])
