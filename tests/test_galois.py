"""Tests for the Galois-like runtime (simulated and threaded)."""

from __future__ import annotations

import threading

import pytest

from repro.errors import SchedulerError
from repro.galois import (
    Phase,
    SimulatedExecutor,
    ThreadedExecutor,
    make_executor,
)


class TestPhase:
    def test_locks_frozen(self):
        p = Phase(locks=[1, 2, 2], cost=3)
        assert p.locks == frozenset({1, 2})
        assert p.cost == 3

    def test_negative_cost_rejected(self):
        with pytest.raises(SchedulerError):
            Phase(locks=(), cost=-1)


class TestSimulatedExecutor:
    def test_serial_makespan_is_total_work(self):
        ex = SimulatedExecutor(workers=1)

        def op(item):
            yield Phase(locks={item}, cost=10)

        stage = ex.run("s", list(range(7)), op)
        assert stage.makespan == 70
        assert stage.conflicts == 0
        assert stage.committed == 7

    def test_perfect_parallelism_without_locks(self):
        ex = SimulatedExecutor(workers=10)

        def op(item):
            yield Phase(locks=(), cost=10)

        stage = ex.run("s", list(range(100)), op)
        assert stage.makespan == 100  # 100 activities * 10 / 10 workers
        assert stage.conflicts == 0

    def test_disjoint_locks_do_not_conflict(self):
        ex = SimulatedExecutor(workers=4)

        def op(item):
            yield Phase(locks={item}, cost=5)

        stage = ex.run("s", list(range(8)), op)
        assert stage.conflicts == 0
        assert stage.makespan == 10

    def test_shared_lock_serializes(self):
        """Every activity wants the same lock: conflicts force total
        serialization; makespan ~= serial time + wasted retries."""
        ex = SimulatedExecutor(workers=4)

        def op(item):
            yield Phase(locks={"hot"}, cost=10)

        stage = ex.run("s", list(range(8)), op)
        assert stage.conflicts > 0
        assert stage.makespan >= 8 * 10  # cannot beat serial execution

    def test_conflict_wastes_pre_acquisition_work(self):
        """The Fig. 2 mechanism: late lock acquisition after expensive
        computation loses that computation on conflict."""
        ex = SimulatedExecutor(workers=2)

        def fused(item):
            yield Phase(locks=(), cost=100)       # expensive evaluation
            yield Phase(locks={"hot"}, cost=1)    # late lock acquisition
            # commit

        stage = ex.run("s", [0, 1], fused)
        assert stage.conflicts == 1
        assert stage.aborted_units >= 100  # the whole evaluation was lost

    def test_early_acquisition_wastes_little(self):
        """DACPara-style: nothing expensive happens before locks."""
        ex = SimulatedExecutor(workers=2)

        def split(item):
            yield Phase(locks={"hot"}, cost=1)    # early, cheap acquisition
            yield Phase(locks=(), cost=100)

        stage = ex.run("s", [0, 1], split)
        if stage.conflicts:
            assert stage.aborted_units <= stage.conflicts * 2

    def test_mutations_only_on_commit(self):
        """An aborted activity must leave no trace."""
        ex = SimulatedExecutor(workers=2)
        log = []

        def op(item):
            yield Phase(locks={"hot"}, cost=10)
            log.append(item)  # mutation after final yield

        ex.run("s", [0, 1, 2, 3], op)
        assert sorted(log) == [0, 1, 2, 3]  # each committed exactly once

    def test_stage_barrier(self):
        ex = SimulatedExecutor(workers=2)

        def op(item):
            yield Phase(locks=(), cost=10)

        s1 = ex.run("a", [1, 2], op)
        s2 = ex.run("b", [3, 4], op)
        assert s2.start_time == s1.end_time
        assert ex.stats.makespan == s2.end_time

    def test_determinism(self):
        def op(item):
            yield Phase(locks={item % 3}, cost=item + 1)
            yield Phase(locks={"shared"} if item % 2 else (), cost=5)

        runs = []
        for _ in range(2):
            ex = SimulatedExecutor(workers=3)
            st = ex.run("s", list(range(20)), op)
            runs.append((st.makespan, st.conflicts, st.aborted_units))
        assert runs[0] == runs[1]

    def test_more_workers_never_slower_without_locks(self):
        def op(item):
            yield Phase(locks=(), cost=7)

        spans = []
        for w in (1, 2, 4, 8):
            ex = SimulatedExecutor(workers=w)
            spans.append(ex.run("s", list(range(64)), op).makespan)
        assert spans == sorted(spans, reverse=True)

    def test_bad_yield_type(self):
        ex = SimulatedExecutor(workers=1)

        def op(item):
            yield "not a phase"

        with pytest.raises(SchedulerError):
            ex.run("s", [1], op)

    def test_zero_workers_rejected(self):
        with pytest.raises(SchedulerError):
            SimulatedExecutor(workers=0)


class TestThreadedExecutor:
    def test_all_committed(self):
        ex = ThreadedExecutor(workers=4)
        done = []
        mutex = threading.Lock()

        def op(item):
            yield Phase(locks={item % 5}, cost=1)
            with mutex:
                done.append(item)

        stage = ex.run("s", list(range(50)), op)
        assert stage.committed == 50
        assert sorted(done) == list(range(50))

    def test_aborted_activities_retry(self):
        ex = ThreadedExecutor(workers=8)
        counter = {"value": 0}

        def op(item):
            yield Phase(locks={"hot"}, cost=1)
            counter["value"] += 1  # under commit mutex by protocol

        stage = ex.run("s", list(range(40)), op)
        assert counter["value"] == 40

    def test_retries_counted_on_contention(self):
        import time

        ex = ThreadedExecutor(workers=8)

        def op(item):
            yield Phase(locks={"hot"}, cost=1)
            time.sleep(0.0005)  # hold the hot lock long enough to collide

        stage = ex.run("s", list(range(24)), op)
        assert stage.committed == 24
        assert stage.retries == stage.conflicts  # every abort was requeued
        assert ex.stats.total_retries == stage.retries

    def test_retry_storm_raises_scheduler_error(self, monkeypatch):
        from repro.galois import threaded as threaded_mod

        monkeypatch.setattr(threaded_mod, "MAX_RETRIES", 3)
        monkeypatch.setattr(threaded_mod, "BACKOFF_BASE", 1e-7)
        ex = ThreadedExecutor(workers=1)
        # A key owned by a thread that never releases it: every attempt
        # to acquire it loses, exhausting the retry budget.
        ex._held["hot"] = -1

        def op(item):
            yield Phase(locks={"hot"}, cost=1)

        with pytest.raises(SchedulerError) as exc_info:
            ex.run("s", ["loser"], op)
        message = str(exc_info.value)
        assert "aborted" in message
        assert "'hot'" in message  # the contended key is named

    def test_wall_seconds_recorded(self):
        ex = ThreadedExecutor(workers=2)

        def op(item):
            yield Phase(locks=(), cost=1)

        stage = ex.run("s", list(range(10)), op)
        assert stage.wall_seconds > 0
        assert ex.stats.total_wall_seconds >= stage.wall_seconds

    def test_factory(self):
        assert isinstance(make_executor("simulated", 4), SimulatedExecutor)
        assert isinstance(make_executor("threaded", 2), ThreadedExecutor)
        assert make_executor("simulated", 1).workers == 1
        with pytest.raises(ValueError):
            make_executor("serial", 1)
