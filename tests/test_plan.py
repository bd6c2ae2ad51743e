"""Unit tests for the interaction-plan subsystem (:mod:`repro.plan`).

The plan/execute split promises: the planner records exactly the MAC
decisions of the legacy per-leaf traversal, the executors reproduce the
legacy kernels over any row range -- every work counter and the Born
far-field sums bit for bit, the near fields to rounding
(``tests/test_born_near_field.py``, ``tests/test_goldens.py``) -- and
the whole structure round-trips through flat arrays (shared memory)
unchanged.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.born import _slice_concat
from repro.core.energy import EnergyContext
from repro.octree.mac import born_mac_multiplier, epol_mac_multiplier
from repro.octree.partition import segment_by_weight
from repro.octree.traversal import classify_against_ball
from repro.plan import (PLAN_ARRAY_FIELDS, InteractionPlan, PlanCache,
                        build_born_plan, build_epol_plan, epol_row_terms,
                        execute_born_plan, execute_epol_plan, plan_stats,
                        rank_imbalance, tile_histogram)
from repro.plan.cache import born_key, epol_key


@pytest.fixture(scope="module")
def born_plan(small_calc):
    return build_born_plan(small_calc.atom_tree(), small_calc.quad_tree(),
                           small_calc.params.eps_born)


@pytest.fixture(scope="module")
def epol_plan(small_calc):
    return build_epol_plan(small_calc.atom_tree(),
                           small_calc.params.eps_epol)


class TestPlanner:
    def test_rows_are_target_leaves_in_order(self, small_calc, born_plan,
                                             epol_plan):
        assert np.array_equal(born_plan.target_leaves,
                              small_calc.quad_tree().tree.leaves)
        assert np.array_equal(epol_plan.target_leaves,
                              small_calc.atom_tree().tree.leaves)

    def test_rows_match_per_leaf_classification(self, small_calc,
                                                born_plan):
        """Every CSR row holds exactly the far/near lists the legacy
        single-target walk produces for that leaf, in the same order."""
        a_tree = small_calc.atom_tree().tree
        q_tree = small_calc.quad_tree().tree
        mult = born_mac_multiplier(small_calc.params.eps_born)
        for r, leaf in enumerate(born_plan.target_leaves):
            cls = classify_against_ball(
                a_tree, q_tree.ball_center[leaf],
                float(q_tree.ball_radius[leaf]), mult)
            fs, fe = born_plan.far_start[r], born_plan.far_start[r + 1]
            assert np.array_equal(born_plan.far_nodes[fs:fe], cls.far_nodes)
            assert np.array_equal(born_plan.far_dist[fs:fe], cls.far_dist)
            ns = born_plan.near_leaf_start[r]
            ne = born_plan.near_leaf_start[r + 1]
            assert np.array_equal(born_plan.near_leaves[ns:ne],
                                  cls.near_leaves)
            assert born_plan.nodes_visited[r] == cls.nodes_visited

    def test_epol_rows_match_per_leaf_classification(self, small_calc,
                                                     epol_plan):
        a_tree = small_calc.atom_tree().tree
        mult = epol_mac_multiplier(small_calc.params.eps_epol)
        for r, leaf in enumerate(epol_plan.target_leaves):
            cls = classify_against_ball(
                a_tree, a_tree.ball_center[leaf],
                float(a_tree.ball_radius[leaf]), mult)
            fs, fe = epol_plan.far_start[r], epol_plan.far_start[r + 1]
            assert np.array_equal(epol_plan.far_nodes[fs:fe], cls.far_nodes)
            ns = epol_plan.near_leaf_start[r]
            ne = epol_plan.near_leaf_start[r + 1]
            assert np.array_equal(epol_plan.near_leaves[ns:ne],
                                  cls.near_leaves)

    def test_near_points_are_slice_concat(self, small_calc, born_plan):
        """A row's point list equals ``_slice_concat`` of its near leaves
        -- the exact gather order of the legacy tile kernel."""
        a_tree = small_calc.atom_tree().tree
        for r in range(born_plan.nrows):
            ns = born_plan.near_leaf_start[r]
            ne = born_plan.near_leaf_start[r + 1]
            ps = born_plan.near_point_start[r]
            pe = born_plan.near_point_start[r + 1]
            assert np.array_equal(
                born_plan.near_points[ps:pe],
                _slice_concat(a_tree, born_plan.near_leaves[ns:ne]))

    def test_slice_concat_is_per_node_ranges(self, small_calc):
        """``_slice_concat`` concatenates each node's point range, for any
        node list: empty, repeated, out of order, internal nodes."""
        tree = small_calc.atom_tree().tree
        rng = np.random.default_rng(5)
        for size in (0, 1, 7, 40):
            nodes = rng.integers(0, tree.point_start.size, size)
            want = np.concatenate(
                [np.arange(tree.point_start[n], tree.point_end[n])
                 for n in nodes] + [np.empty(0, dtype=np.int64)])
            assert np.array_equal(_slice_concat(tree, nodes), want)

    def test_validate_passes_on_built_plans(self, born_plan, epol_plan):
        born_plan.validate()
        epol_plan.validate()

    def test_validate_rejects_corruption(self, born_plan):
        arrays = born_plan.as_arrays()
        arrays = {k: v.copy() for k, v in arrays.items()}
        arrays["far_start"][1] = -1  # non-monotone CSR offsets
        broken = InteractionPlan.from_arrays(born_plan.meta(), arrays)
        with pytest.raises(ValueError):
            broken.validate()
        # 64-bit end to end: a narrowed index, CSR or distance array is
        # rejected even where its values would still fit.
        for name, dtype in (("near_points", np.int32),
                            ("far_start", np.int32),
                            ("far_dist", np.float32)):
            arrays = born_plan.as_arrays()
            arrays[name] = arrays[name].astype(dtype)
            narrowed = InteractionPlan.from_arrays(born_plan.meta(), arrays)
            with pytest.raises(ValueError, match=name):
                narrowed.validate()

    def test_counters_synthesised_without_execution(self, small_calc,
                                                    born_plan):
        """Whole-plan counters equal what executing the plan counts."""
        partial = execute_born_plan(born_plan, small_calc.atom_tree(),
                                    small_calc.quad_tree())
        synth = born_plan.counters()
        assert synth.exact_pairs == partial.counters.exact_pairs
        assert synth.far_evals == partial.counters.far_evals
        assert synth.nodes_visited == partial.counters.nodes_visited


class TestRowWeights:
    def test_weights_are_exact_pair_counts(self, born_plan):
        w = born_plan.row_pair_weights()
        assert np.array_equal(
            w, born_plan.exact_pairs_per_row
            + born_plan.far_counts)

    def test_epol_weights_include_histogram_pairs(self, epol_plan):
        w = epol_plan.row_pair_weights(nbins=8)
        assert np.array_equal(
            w, epol_plan.exact_pairs_per_row
            + epol_plan.far_counts * (1 + 64))

    def test_weight_partition_beats_or_matches_worst_case(self, born_plan):
        imb = rank_imbalance(born_plan, 4)
        assert imb >= 1.0


class TestRoundTrip:
    def test_arrays_roundtrip_bitwise(self, small_calc, born_plan):
        clone = InteractionPlan.from_arrays(born_plan.meta(),
                                            born_plan.as_arrays())
        assert clone.meta() == born_plan.meta()
        for name in PLAN_ARRAY_FIELDS:
            assert np.array_equal(getattr(clone, name),
                                  getattr(born_plan, name))
        a = execute_born_plan(born_plan, small_calc.atom_tree(),
                              small_calc.quad_tree())
        b = execute_born_plan(clone, small_calc.atom_tree(),
                              small_calc.quad_tree())
        assert np.array_equal(a.s_atom, b.s_atom)
        assert np.array_equal(a.s_node, b.s_node)


class TestEpolMemory:
    def test_warm_request_stays_below_one_pair_space_array(self, large_calc):
        """A served request brings fresh Born radii to a warm plan.  Its
        E_pol execution streams cache-sized tiles: the peak it allocates
        stays below one float64 array over the plan's exact pairs."""
        plan = large_calc.epol_plan()
        ctx = large_calc.energy_context()
        epol_row_terms(plan, ctx)  # warm: plan-lifetime derivations done
        fresh = EnergyContext.build(ctx.atoms, ctx.born_sorted.copy(),
                                    large_calc.params.eps_epol)
        tracemalloc.start()
        try:
            epol_row_terms(plan, fresh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * int(plan.exact_pairs_per_row.sum())


class TestBornMemory:
    def test_execution_pins_nothing_plan_sized(self, large_calc):
        """Born execution gathers each row's atom positions as it goes
        and memoises nothing on the plan: after one execution of a fresh
        plan, the memory still held stays under one float64 per near
        point (a memoised position gather alone would hold three)."""
        atoms, quad = large_calc.atom_tree(), large_calc.quad_tree()
        plan = build_born_plan(atoms, quad, large_calc.params.eps_born,
                               mac_variant=large_calc.params.born_mac_variant)
        tracemalloc.start()
        try:
            execute_born_plan(plan, atoms, quad)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 8 * plan.near_points.size


class TestPlanCache:
    def test_hit_miss_accounting(self, small_calc):
        cache = PlanCache()
        built = []

        def builder():
            built.append(1)
            return build_born_plan(small_calc.atom_tree(),
                                   small_calc.quad_tree(), 0.9)

        key = born_key(0.9)
        p1 = cache.get_or_build(key, builder)
        p2 = cache.get_or_build(key, builder)
        assert p1 is p2
        assert len(built) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_keys_distinguish_configurations(self):
        assert born_key(0.9) != born_key(0.8)
        assert born_key(0.9) != born_key(0.9, disable_far=True)
        assert born_key(0.9) != born_key(0.9, power=4)
        assert epol_key(0.9) != born_key(0.9)
        assert epol_key(0.5) != epol_key(0.9)

    def test_driver_reuses_plans_across_phases(self, small_molecule):
        from repro.core.driver import PolarizationEnergyCalculator
        calc = PolarizationEnergyCalculator(small_molecule)
        calc.run()
        stats = calc.plan_cache().stats()
        assert stats["plans"] == 2  # one born + one epol
        calc.plans()  # backend publication path: pure cache hits
        assert calc.plan_cache().stats()["plans"] == 2
        assert calc.plan_cache().stats()["hits"] >= 2

    def test_epsilon_sweep_reuses_born_plan(self, small_molecule):
        from repro.core.driver import PolarizationEnergyCalculator
        calc = PolarizationEnergyCalculator(small_molecule)
        calc.profile()
        misses0 = calc.plan_cache().stats()["misses"]
        for eps in (0.3, 0.5, 0.7):
            calc.epol_plan(eps)
        assert calc.plan_cache().stats()["misses"] == misses0 + 3
        for eps in (0.3, 0.5, 0.7):  # second sweep: all cached
            calc.epol_plan(eps)
        assert calc.plan_cache().stats()["misses"] == misses0 + 3


class TestPlanCacheBudget:
    """The optional byte-budget LRU (serving satellite): default stays
    unbounded, a budget evicts least-recently-used plans by measured
    ``nbytes`` and counts evictions -- never the plan just built."""

    def _builder(self, small_calc, eps):
        return lambda: build_epol_plan(small_calc.atom_tree(), eps)

    def test_default_is_unbounded(self, small_calc):
        cache = PlanCache()
        for eps in (0.2, 0.4, 0.6, 0.8):
            cache.get_or_build(epol_key(eps), self._builder(small_calc, eps))
        stats = cache.stats()
        assert stats["plans"] == 4 and stats["evictions"] == 0
        assert stats["max_bytes"] is None
        assert stats["current_bytes"] > 0

    def test_budget_evicts_lru_and_counts(self, small_calc):
        one_plan = build_epol_plan(small_calc.atom_tree(), 0.5).nbytes
        cache = PlanCache(max_bytes=int(one_plan * 1.5))
        for eps in (0.2, 0.4, 0.6):
            cache.get_or_build(epol_key(eps), self._builder(small_calc, eps))
        stats = cache.stats()
        assert stats["evictions"] >= 1
        assert stats["plans"] < 3
        # The most recent configuration always survives.
        misses0 = stats["misses"]
        cache.get_or_build(epol_key(0.6), self._builder(small_calc, 0.6))
        assert cache.stats()["misses"] == misses0  # pure hit

    def test_just_built_plan_never_evicted(self, small_calc):
        cache = PlanCache(max_bytes=1)  # absurd budget
        plan = cache.get_or_build(epol_key(0.5),
                                  self._builder(small_calc, 0.5))
        assert plan is not None
        assert cache.stats()["plans"] == 1  # kept despite busting budget
        # A second build evicts the old one, keeps the new one.
        cache.get_or_build(epol_key(0.7), self._builder(small_calc, 0.7))
        assert cache.stats()["plans"] == 1
        assert cache.stats()["evictions"] == 1

    def test_hit_refreshes_recency(self, small_calc):
        one_plan = build_epol_plan(small_calc.atom_tree(), 0.5).nbytes
        cache = PlanCache(max_bytes=int(one_plan * 2.5))
        cache.get_or_build(epol_key(0.2), self._builder(small_calc, 0.2))
        cache.get_or_build(epol_key(0.4), self._builder(small_calc, 0.4))
        cache.get_or_build(epol_key(0.2), self._builder(small_calc, 0.2))
        # 0.4 is now LRU; the third insert evicts it, not 0.2.
        cache.get_or_build(epol_key(0.6), self._builder(small_calc, 0.6))
        misses0 = cache.stats()["misses"]
        cache.get_or_build(epol_key(0.2), self._builder(small_calc, 0.2))
        assert cache.stats()["misses"] == misses0  # 0.2 survived

    def test_plan_nbytes_counts_all_arrays(self, born_plan):
        total = sum(getattr(born_plan, f).nbytes
                    for f in PLAN_ARRAY_FIELDS)
        assert born_plan.nbytes == total > 0


class TestPlanStats:
    def test_tile_histogram_covers_all_rows(self, born_plan):
        hist = tile_histogram(born_plan)
        assert sum(hist["counts"]) == born_plan.nrows
        assert len(hist["counts"]) == len(hist["edges"]) - 1

    def test_plan_stats_shape(self, born_plan):
        stats = plan_stats(born_plan, nparts=3)
        assert stats["kind"] == "born"
        assert stats["rows"] == born_plan.nrows
        assert stats["exact_pairs"] == int(
            born_plan.exact_pairs_per_row.sum())
        assert stats["imbalance"] >= 1.0
        import json
        json.dumps(stats)  # must be JSON-serialisable for bench artifacts
