"""Tests for the simulated MPI engine: value semantics, timing, deadlock."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.machine import LONESTAR4_NETWORK, RankLayout
from repro.parallel.simmpi import (DeadlockError, SimMPI, collective_cost,
                                   payload_nbytes, reduce_values, run_spmd)
from repro.runtime.trace import Trace


class TestCollectiveSemantics:
    @given(st.integers(min_value=1, max_value=9))
    @settings(max_examples=12, deadline=None)
    def test_allreduce_sum(self, p):
        def prog(ctx):
            total = yield ctx.allreduce(ctx.rank + 1)
            return total

        r = run_spmd(prog, nranks=p)
        assert r.returns == [p * (p + 1) // 2] * p

    def test_allreduce_arrays(self):
        def prog(ctx):
            total = yield ctx.allreduce(np.full(4, float(ctx.rank)))
            return total

        r = run_spmd(prog, nranks=3)
        np.testing.assert_allclose(r.returns[0], np.full(4, 3.0))

    def test_allreduce_min_max(self):
        def prog(ctx):
            lo = yield ctx.allreduce(ctx.rank, op="min")
            hi = yield ctx.allreduce(ctx.rank, op="max")
            return (lo, hi)

        r = run_spmd(prog, nranks=5)
        assert r.returns[2] == (0, 4)

    def test_allgather(self):
        def prog(ctx):
            vals = yield ctx.allgather(ctx.rank ** 2)
            return vals

        r = run_spmd(prog, nranks=4)
        assert r.returns[1] == [0, 1, 4, 9]

    def test_bcast(self):
        def prog(ctx):
            val = yield ctx.bcast("hello" if ctx.rank == 2 else None, root=2)
            return val

        r = run_spmd(prog, nranks=4)
        assert r.returns == ["hello"] * 4

    def test_gather_root_only(self):
        def prog(ctx):
            vals = yield ctx.gather(ctx.rank, root=1)
            return vals

        r = run_spmd(prog, nranks=3)
        assert r.returns[1] == [0, 1, 2]
        assert r.returns[0] is None and r.returns[2] is None

    def test_reduce(self):
        def prog(ctx):
            val = yield ctx.reduce(2.0, root=0)
            return val

        r = run_spmd(prog, nranks=4)
        assert r.returns[0] == pytest.approx(8.0)
        assert r.returns[3] is None

    def test_barrier_syncs_clocks(self):
        def prog(ctx):
            ctx.advance(0.1 * (ctx.rank + 1))
            yield ctx.barrier()
            return ctx.clock.now

        r = run_spmd(prog, nranks=3)
        assert len({round(t, 12) for t in r.returns}) == 1
        assert r.returns[0] >= 0.3


class TestPointToPoint:
    def test_send_recv(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.send(1, np.arange(5))
                return None
            data = yield ctx.recv(0)
            return data

        r = run_spmd(prog, nranks=2)
        np.testing.assert_array_equal(r.returns[1], np.arange(5))

    def test_fifo_per_channel(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.send(1, "first", tag=7)
                yield ctx.send(1, "second", tag=7)
                return None
            a = yield ctx.recv(0, tag=7)
            b = yield ctx.recv(0, tag=7)
            return (a, b)

        r = run_spmd(prog, nranks=2)
        assert r.returns[1] == ("first", "second")

    def test_ring_exchange(self):
        def prog(ctx):
            nxt = (ctx.rank + 1) % ctx.size
            prv = (ctx.rank - 1) % ctx.size
            yield ctx.send(nxt, ctx.rank)
            got = yield ctx.recv(prv)
            return got

        r = run_spmd(prog, nranks=5)
        assert r.returns == [4, 0, 1, 2, 3]

    def test_self_send_rejected(self):
        def prog(ctx):
            yield ctx.send(ctx.rank, "x")
            return None

        with pytest.raises(ValueError):
            run_spmd(prog, nranks=2)

    def test_recv_time_includes_transfer(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.send(1, np.zeros(1_000_000))
                return ctx.clock.now
            yield ctx.recv(0)
            return ctx.clock.now

        r = run_spmd(prog, nranks=2)
        assert r.returns[1] > r.returns[0]  # receiver waits for the wire


class TestDeadlocks:
    def test_mismatched_collectives(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.allreduce(1)
            else:
                yield ctx.allgather(1)
            return None

        with pytest.raises(DeadlockError):
            run_spmd(prog, nranks=2)

    def test_recv_without_send(self):
        def prog(ctx):
            if ctx.rank == 1:
                got = yield ctx.recv(0)
                return got
            return None

        with pytest.raises(DeadlockError):
            run_spmd(prog, nranks=2)

    def test_rank_exits_before_collective(self):
        def prog(ctx):
            if ctx.rank == 0:
                return None
            yield ctx.barrier()
            return None

        with pytest.raises(DeadlockError):
            run_spmd(prog, nranks=2)


class TestTiming:
    def test_collective_cost_grows_with_ranks(self):
        small = RankLayout(nodes=1, ranks_per_node=2)
        large = RankLayout(nodes=12, ranks_per_node=12)
        c_small = collective_cost("allreduce", LONESTAR4_NETWORK, small, 8192)
        c_large = collective_cost("allreduce", LONESTAR4_NETWORK, large, 8192)
        assert c_large > c_small

    def test_single_rank_free(self):
        layout = RankLayout(nodes=1, ranks_per_node=1)
        assert collective_cost("allreduce", LONESTAR4_NETWORK, layout,
                               1024) == 0.0

    def test_intra_cheaper_than_inter(self):
        intra = RankLayout(nodes=1, ranks_per_node=8)
        inter = RankLayout(nodes=8, ranks_per_node=1)
        c_intra = collective_cost("allreduce", LONESTAR4_NETWORK, intra,
                                  65536)
        c_inter = collective_cost("allreduce", LONESTAR4_NETWORK, inter,
                                  65536)
        assert c_intra < c_inter

    def test_makespan_is_max_finish(self):
        def prog(ctx):
            ctx.advance(0.01 * (ctx.rank + 1))
            return ctx.clock.now
            yield  # pragma: no cover -- marks this as a generator

        r = run_spmd(prog, nranks=4)
        assert r.makespan == pytest.approx(max(r.returns))
        assert r.makespan == pytest.approx(0.04)

    def test_deterministic(self):
        def prog(ctx):
            ctx.advance(0.001)
            total = yield ctx.allreduce(np.ones(10))
            return float(total.sum())

        r1 = run_spmd(prog, nranks=6)
        r2 = run_spmd(prog, nranks=6)
        assert r1.finish_times == r2.finish_times
        assert r1.returns == r2.returns


class TestTrace:
    """Collective trace events carry the simulated clock, never the
    host's: the time every rank reads right after the collective."""

    LAYOUT = RankLayout(nodes=2, ranks_per_node=2)

    def _run(self):
        def prog(ctx):
            ctx.advance(0.001 * (ctx.rank + 1))
            yield ctx.allreduce(None, nbytes=800)
            after_allreduce = ctx.clock.now
            ctx.advance(0.002)
            yield ctx.allgather(None, nbytes=64)
            return after_allreduce, ctx.clock.now

        trace = Trace()
        result = SimMPI(layout=self.LAYOUT, trace=trace).run(prog)
        return trace, result

    def test_collective_events_stamped_with_the_simulated_clock(self):
        trace, result = self._run()
        t_sync = max(0.001 * (rank + 1) for rank in range(4))
        t1 = t_sync + collective_cost("allreduce", LONESTAR4_NETWORK,
                                      self.LAYOUT, 800)
        t2 = (t1 + 0.002) + collective_cost("allgather", LONESTAR4_NETWORK,
                                            self.LAYOUT, 64)
        assert result.returns == [(t1, t2)] * 4
        assert [(e.time, e.who, e.detail)
                for e in trace.by_kind("collective")] == [
            (t1, -1, {"kind": "allreduce", "nbytes": 800}),
            (t2, -1, {"kind": "allgather", "nbytes": 64})]

    def test_identical_runs_identical_traces(self):
        assert self._run()[0].events == self._run()[0].events


class TestHelpers:
    def test_payload_nbytes(self):
        assert payload_nbytes(np.zeros(10)) == 80
        assert payload_nbytes(3.0) == 8
        assert payload_nbytes([1.0, 2.0]) == 16
        assert payload_nbytes(None) == 0
        assert payload_nbytes({"a": 1.0}) > 8

    def test_reduce_values_none_passthrough(self):
        assert reduce_values([None, None], "sum") is None

    def test_reduce_values_unknown_op(self):
        with pytest.raises(ValueError):
            reduce_values([1, 2], "product")

    def test_non_generator_program_rejected(self):
        def prog(ctx):
            return 42

        layout = RankLayout(nodes=1, ranks_per_node=2)
        with pytest.raises(TypeError):
            SimMPI(layout=layout).run(prog)

    def test_comm_stats(self):
        def prog(ctx):
            yield ctx.allreduce(np.zeros(100))
            yield ctx.barrier()
            return None

        r = run_spmd(prog, nranks=3)
        assert r.stats.collective_calls == 2
        assert r.stats.bytes_moved >= 3 * 800
