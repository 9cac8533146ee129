"""Tests for the Galois-like runtime (the simulated scheduler)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from reference import ReferenceExecutor
from repro.errors import SchedulerError
from repro.galois import (
    EXECUTOR_KINDS,
    Phase,
    SimulatedExecutor,
    make_executor,
)
from repro.obs import TracingObserver
from repro.obs.export import jsonl_lines


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


def _replay(executor, worklists):
    """Run ``worklists`` — per stage, per item, a list of ``(locks,
    cost)`` phases — and return everything the event loop decides: the
    stage tuples (wall-clock aside), the commit order, the final clock
    and, under a tracing observer, the exported event stream (commit
    and abort spans in order, conflict instants, stage counters)."""
    commits = []
    for index, worklist in enumerate(worklists):

        def op(item, worklist=worklist, index=index):
            for locks, cost in worklist[item]:
                yield Phase(locks=locks, cost=cost)
            commits.append((index, item))

        executor.run(f"s{index}", list(range(len(worklist))), op)
    stages = [dataclasses.replace(s, wall_seconds=0.0)
              for s in executor.stats.stages]
    obs = executor.obs
    events = list(jsonl_lines(obs.tracer, obs.metrics)) if obs.enabled else None
    return stages, commits, executor.now, events


_LOCKS = st.sampled_from([0, 1, 2, 3, 4, 5, "a", "b", (0, 1), (1, "a")])
_PHASE = st.builds(
    lambda locks, hub, cost: (locks | {"hub"} if hub else locks, cost),
    st.frozensets(_LOCKS, max_size=3),
    st.sampled_from([False, False, False, True]),  # one phase in four
    st.integers(0, 6),
)
_WORKLISTS = st.lists(
    st.lists(st.lists(_PHASE, max_size=4), max_size=24),
    min_size=1, max_size=3,
)


class TestLockTable:
    """``SimulatedExecutor.run`` finds conflicts through a per-stage
    lock table; ``ReferenceExecutor.run`` (``tests/reference.py``) is
    the interval scan over every in-flight activity it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(worklists=_WORKLISTS,
           workers=st.sampled_from([1, 2, 3, 7, 40, 500]))
    def test_scheduler_matches_interval_scan(self, worklists, workers):
        table = _replay(SimulatedExecutor(workers, observer=TracingObserver()),
                        worklists)
        scan = _replay(ReferenceExecutor(workers, observer=TracingObserver()),
                       worklists)
        assert table == scan

    @pytest.mark.parametrize("first, second, wanted, ask_at, conflicts, end", [
        # commit 1 holds L over [10, 15), commit 2 over [0, 20):
        # retry at 15 (at 20 the stage would end at 33)
        ([((), 10), ({"L"}, 5)], [({"L"}, 20)], {"L"}, 12, 1, 28),
        # commit 1 holds L over [5, 35), commit 2 over [0, 10):
        # retry at 35 (at 10 it would lose to commit 1 a second time)
        ([((), 5), ({"L"}, 30)], [({"L"}, 10)], {"L"}, 7, 1, 43),
        # the same rule across two locks, whichever the set yields first
        ([({"L"}, 30)], [({"M"}, 10)], {"L", "M"}, 5, 1, 36),
        ([({"L"}, 10)], [({"M"}, 30)], {"L", "M"}, 5, 2, 41),
    ])
    def test_two_holders_lower_commit_decides(
            self, first, second, wanted, ask_at, conflicts, end):
        """Two committed activities hold what a third asks for — one
        lock twice (a later-started activity that acquired *earlier* in
        simulated time shares it with the earlier commit) or two locks:
        the third waits for the first committed."""
        worklist = [first, second, [((), ask_at), (wanted, 1)]]
        stages, commits, now, _ = _replay(SimulatedExecutor(3), [worklist])
        assert (stages[0].conflicts, now) == (conflicts, end)
        assert stages[0].aborted_units == conflicts * ask_at
        assert commits == [(0, 0), (0, 1), (0, 2)]
        assert _replay(ReferenceExecutor(3), [worklist])[:3] \
            == (stages, commits, now)

    def test_expired_holder_is_ignored_and_pruned(self):
        ex = SimulatedExecutor(workers=1)
        stages, _, now, _ = _replay(ex, [[[({"L"}, 5)]] * 3])
        assert (stages[0].conflicts, now) == (0, 15)
        # The second activity examines (and drops) the first's entry,
        # the third only the second's: 1 + 1, not 1 + 2.
        assert ex.lock_probes == 2

    def test_holder_acquired_after_the_request_does_not_conflict(self):
        ex = SimulatedExecutor(workers=2)
        late = [((), 10), ({"L"}, 5)]   # holds L over [10, 15)
        early = [({"L"}, 3)]            # asks at 0, committed second
        stages, commits, now, _ = _replay(ex, [[late, early]])
        assert stages[0].conflicts == 0
        assert commits == [(0, 0), (0, 1)]
        assert now == 15

    def test_activity_reacquires_its_own_lock(self):
        ex = SimulatedExecutor(workers=4)
        worklist = [[({i}, 2), ({i, ("pair", i)}, 3), ({i}, 0)]
                    for i in range(12)]
        stages, _, _, _ = _replay(ex, [worklist])
        assert (stages[0].conflicts, stages[0].committed) == (0, 12)
        assert ex.lock_probes == 0

    def test_hub_lock_backoff_order(self):
        """Six activities on one hub lock, four workers: repeat losers
        back off linearly, so the commit order is not the item order."""
        ex = SimulatedExecutor(workers=4)
        worklist = [[((), i % 3), ({"hub"}, 10)] for i in range(6)]
        stages, commits, now, _ = _replay(ex, [worklist])
        assert _replay(ReferenceExecutor(4), [worklist])[:3] \
            == (stages, commits, now)
        assert [item for _, item in commits] == [0, 1, 3, 4, 2, 5]
        assert (stages[0].conflicts, stages[0].retries, now) == (11, 11, 67)

    @pytest.mark.parametrize("workers", [4, 40, 4000])
    def test_lock_probes_do_not_grow_with_workers(self, workers):
        """The machine-independent form of "flat in workers": table
        entries examined stay within twice the locks asked for, however
        many activities are in flight."""
        asked = [0]

        def op(item):
            for locks, cost in (
                ({item, ("fanin", item // 3)}, 1 + item % 5),
                ({("hub", item % 7)}, 2),
            ):
                asked[0] += len(locks)
                yield Phase(locks=locks, cost=cost)

        ex = SimulatedExecutor(workers)
        stage = ex.run("s", list(range(600)), op)
        assert stage.committed == 600
        assert stage.conflicts > 0
        assert 0 < ex.lock_probes <= 2 * asked[0]

    def test_conflict_free_stage_probes_nothing(self):
        ex = SimulatedExecutor(workers=40)

        def op(item):
            yield Phase(locks={item, ("n", item)}, cost=3)
            yield Phase(locks={("m", item)}, cost=1)

        assert ex.run("s", list(range(500)), op).conflicts == 0
        assert ex.lock_probes == 0

    def test_retry_storm_names_item_stage_and_key(self, monkeypatch):
        from repro.galois import simsched

        monkeypatch.setattr(simsched, "MAX_RETRIES", 2)
        ex = SimulatedExecutor(workers=8)

        def op(item):
            yield Phase(locks={("hot", 7)}, cost=10)

        with pytest.raises(SchedulerError) as exc_info:
            ex.run("replace", [f"n{i}" for i in range(16)], op)
        message = str(exc_info.value)
        assert "aborted 3 times" in message
        assert "'replace'" in message
        assert "('hot', 7)" in message
        assert "activity 'n" in message


class TestMakeExecutor:
    def test_factory(self):
        assert EXECUTOR_KINDS == ("simulated", "process")
        assert isinstance(make_executor("simulated", 4), SimulatedExecutor)
        assert make_executor("simulated", 1).workers == 1
        for kind in ("serial", "threaded"):
            with pytest.raises(ValueError):
                make_executor(kind, 1)
