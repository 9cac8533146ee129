"""Call-budget pins for the steps every level runs.

A deep circuit's levels hold a few dozen roots each, so the fixed cost
of a call to plan -> merge -> eval, not the per-root work, decides what
a level costs (DESIGN §4j).  These tests count the calls repro code
issues while one call of each step runs on ``deep_chain_circuit()`` at
a fixed level: ``call`` events whose caller is a ``repro`` frame plus
``c_call`` events from ``repro`` frames (a numpy function or method,
a builtin, a repro helper).  What numpy does inside a call is not
counted, so a budget does not depend on the machine or the numpy
version.  A budget is the count of the change that set it; the
docstrings keep the counts before it, so a regression shows next to
the kernel-call pins rather than as a slower ladder run.
"""

from __future__ import annotations

import sys

import pytest

from conftest import deep_chain_circuit
from repro.config import dacpara_config
from repro.cuts.manager import CutManager, EnumPlan
from repro.library import get_library
from repro.rewrite.columnar import eval_tasks_columnar

LEVEL = 30  # 14 roots on the default chain


def _from_repro(frame) -> bool:
    return frame.f_globals.get("__name__", "").startswith("repro")


def calls_issued(fn, *args) -> int:
    """Calls issued from ``repro`` frames while ``fn(*args)`` runs."""
    issued = 0

    def profile(frame, event, arg):
        nonlocal issued
        if event == "call":
            issued += frame.f_back is not None and _from_repro(frame.f_back)
        elif event == "c_call":
            issued += _from_repro(frame)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
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
        then — for a one-task tail wave and a 14-task wave alike."""
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
