"""Call-budget pins for the steps every level runs, and for the cold
path every run pays once per node.

A deep circuit's levels hold a few dozen roots each, so the fixed cost
of a call to plan -> merge -> eval, not the per-root work, decides what
a level costs (DESIGN §4j).  Before the first level, a run reads,
simulates and (at its end) writes the whole circuit, and every node it
builds goes through ``Aig.and_`` (DESIGN §4k).  These tests count the
calls repro code issues while one call of each step runs on
``deep_chain_circuit()`` (at a fixed level, for the level steps):
``call`` events whose caller is a ``repro`` frame plus
``c_call`` events from ``repro`` frames (a numpy function or method,
a builtin, a repro helper).  What numpy does inside a call is not
counted, so a budget does not depend on the machine or the numpy
version.  A budget is the count of the change that set it; the
docstrings keep the counts before it, so a regression shows next to
the kernel-call pins rather than as a slower ladder run.
"""

from __future__ import annotations

import gc
import sys

import pytest

from conftest import deep_chain_circuit
from repro.aig import Aig, read_aiger, simulate, write_aig
from repro.aig.simulate import random_patterns
from repro.config import dacpara_config
from repro.cuts.manager import CutManager, EnumPlan
from repro.library import get_library
from repro.rewrite import WorkMeter, find_best_candidate
from repro.rewrite.columnar import eval_tasks_columnar

LEVEL = 30  # 14 roots on the default chain


def _from_repro(frame) -> bool:
    return frame.f_globals.get("__name__", "").startswith("repro")


def calls_issued(fn, *args) -> int:
    """Calls issued from ``repro`` frames while ``fn(*args)`` runs.

    The cyclic collector is off meanwhile: a collection would run any
    ``gc.callbacks`` (hypothesis registers one) as a call whose caller
    is whichever ``repro`` frame allocated last."""
    issued = 0

    def profile(frame, event, arg):
        nonlocal issued
        if event == "call":
            issued += frame.f_back is not None and _from_repro(frame.f_back)
        elif event == "c_call":
            issued += _from_repro(frame)

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return issued


def _at_level():
    """A cut manager with every level below :data:`LEVEL` enumerated
    (plan, merge, install), and the level's roots."""
    aig = deep_chain_circuit()
    cutman = CutManager(aig, max_cuts=dacpara_config().max_cuts)
    levels: dict = {}
    for v in aig.topo_ands():
        levels.setdefault(aig.level(v), []).append(v)
    for level in sorted(levels):
        if level == LEVEL:
            return cutman, levels[level]
        plan = cutman.plan_closures(levels[level])
        cutman.merge_tasks_columnar(plan)
        cutman.install_cuts(plan, range(len(plan.var)))
    raise AssertionError(f"the chain has no level {LEVEL}")


class TestCallBudget:
    def test_plan_closures(self):
        """34 calls before the plan-level merge, as after it."""
        cutman, roots = _at_level()
        assert len(roots) == 14
        assert calls_issued(cutman.plan_closures, roots) <= 34

    @pytest.mark.parametrize("shape", ("one_task", "wave"))
    def test_merge_tasks_columnar(self, shape):
        """190 calls before the plan-level merge — one call per wave
        then — for a one-task tail wave and a 14-task wave alike.  The
        wave cap's test (a running pair count, one call) is paid for by
        the byte-table lift's one gather where the 2 MB table took a
        ``reshape`` and a ``take``: 137 before and after."""
        cutman, roots = _at_level()
        if shape == "one_task":
            aig, root = cutman.aig, roots[0]
            plan = EnumPlan([root], [aig.fanin0(root)], [aig.fanin1(root)])
        else:
            plan = cutman.plan_closures(roots)
            assert len(plan.waves) == 1 and len(plan.var) == len(roots)
        assert calls_issued(cutman.merge_tasks_columnar, plan) <= 137

    def test_eval_tasks_columnar(self):
        """641 calls before the class table, both after a first call
        (which decoded the library's structures then and builds the
        table now)."""
        cutman, roots = _at_level()
        plan = cutman.plan_closures(roots)
        cutman.merge_tasks_columnar(plan)
        cutman.install_cuts(plan, range(len(plan.var)))
        tasks = cutman.eval_harvest(roots)
        args = (cutman.aig, tasks, dacpara_config(), get_library())
        warm = eval_tasks_columnar(*args)
        assert calls_issued(eval_tasks_columnar, *args) <= 581
        assert eval_tasks_columnar(*args) == warm

    def test_find_best_candidate(self):
        """The baselines' one-root selector, once per root of the level:
        5 892 calls (1 383 for the costliest root) while it was a per-cut
        loop over ``evaluate_candidate``; the one-root kernel call
        issues 1 592 (213)."""
        cutman, roots = _at_level()
        plan = cutman.plan_closures(roots)
        cutman.merge_tasks_columnar(plan)
        cutman.install_cuts(plan, range(len(plan.var)))
        args = (cutman.aig, cutman, get_library(), dacpara_config())
        find_best_candidate(args[0], roots[0], *args[1:])  # class table
        counts = [calls_issued(find_best_candidate, args[0], root,
                               *args[1:], WorkMeter()) for root in roots]
        assert sum(counts) <= 1592 and max(counts) <= 213


class TestColdPathBudget:
    """Per-AND counts on ``deep_chain_circuit()`` (1 530 ANDs)."""

    @pytest.fixture
    def circuit(self, tmp_path):
        aig = deep_chain_circuit()
        assert aig.num_ands == 1530
        return aig, tmp_path / "chain.aig"

    def test_write_aig(self, circuit):
        """14.1 calls per AND before the vector varint encoder (a
        ``write`` per byte, a ``_map_lit`` per literal): 21 571."""
        aig, path = circuit
        assert calls_issued(write_aig, aig, path) <= 69

    def test_read_aiger(self, circuit):
        """36.2 calls per AND before the vector decode and the lean
        ``and_`` (a call per delta, a location string per AND):
        55 370; 26 319 (17.2 per AND) while each AND appended to two
        list stamp columns and made three journal appends.  What is
        left is the one ``and_`` per AND and its column appends."""
        aig, path = circuit
        write_aig(aig, path)
        assert calls_issued(read_aiger, path) <= 21754  # 14.2 per AND

    def test_simulate(self, circuit):
        """8.0 calls per AND before ``simulate`` read the fanin columns
        (``fanin0``/``fanin1``, ``lit_var``/``lit_compl``) and
        ``topo_ands`` sorted without a per-node key: 12 276."""
        aig, _ = circuit
        patterns = random_patterns(aig.num_pis, 64, 0)
        assert calls_issued(simulate, aig, patterns, 64) <= 22

    @pytest.mark.parametrize("case,budget", (("new_node", 15), ("strash_hit", 2)))
    def test_and(self, case, budget):
        """29 calls for a new node and 8 for a strash hit before
        ``and_`` did the work of ``_check_lit``, ``_fold_trivial``,
        ``_new_and``, ``_alloc`` and ``_bump_stamp`` in place; 15 for a
        new node while the stamps were list columns and the journal
        took three entries.  A new node now issues 12 — its six list
        column appends, its one journal append, its strash probe, its
        two fanout appends and two ``len``s (the graph's, and the stamp
        columns' room) — under the budget of 15."""
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        aig.and_(a, b)
        args = (a, c) if case == "new_node" else (a, b)
        assert calls_issued(aig.and_, *args) <= budget
