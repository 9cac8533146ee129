"""The mutation journal's contract (DESIGN §4k): a stamp bump is the one
change it records, so ``dirty_since(e)`` is exactly the set of vars
whose stamp changed after epoch ``e``, and the epoch is the stamp
counter itself.  The cut store reads the graph's stamp columns in place
and keeps only stamp-fresh entries through a compaction.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from conftest import capture_cut_managers, deep_chain_circuit, random_aig
from repro.aig import Aig, read_aiger, write_aig
from repro.bench import mtm_like
from repro.config import dacpara_config
from repro.core.dacpara import DACParaRewriter


def _stamps(aig: Aig) -> np.ndarray:
    return aig._stamp[: aig.size].copy()


def _changed(before: np.ndarray, aig: Aig) -> set:
    """Vars whose stamp differs from ``before`` (a new slot counts)."""
    after = aig._stamp[: aig.size]
    grown = set(range(len(before), len(after)))
    return set(np.flatnonzero(after[: len(before)] != before).tolist()) | grown


def _live_lits(aig: Aig) -> list:
    return [2 * v for v in range(1, aig.size) if not aig.is_dead(v)]


_OPS = ("and", "and", "replace", "add_po", "set_po", "ref", "settle", "dangling")


def _step(aig: Aig, rng: random.Random) -> str:
    """One mutation of the mixed sequence; returns its name ("reuse":
    an ``and`` that took a freed id)."""
    op = rng.choice(_OPS)
    lits = _live_lits(aig)
    if op == "and":
        free = set(aig._free)
        lit = aig.and_(rng.choice(lits) ^ rng.randrange(2),
                       rng.choice(lits) ^ rng.randrange(2))
        if lit >> 1 in free:
            return "reuse"
    elif op == "replace":
        ands = [v for v in aig.ands() if aig.nref(v) > 0]
        if ands:
            v = rng.choice(ands)
            aig.replace(v, aig.fanin0(v))  # a cascade of rehashes and deletions
    elif op == "add_po":
        aig.add_po(rng.choice(lits) ^ rng.randrange(2))
    elif op == "set_po":
        aig.set_po(rng.randrange(aig.num_pos), rng.choice(lits) ^ rng.randrange(2))
    elif op == "ref":
        v = rng.choice(lits) >> 1
        aig.add_ref(v)
        aig.drop_ref(v)
    elif op == "settle":
        aig.settle_levels()
    else:
        aig.cleanup_dangling()  # frees ids the next ``and`` reuses
    return op


class TestDirtySince:
    @pytest.mark.parametrize("seed", range(6))
    def test_dirty_since_is_the_set_of_stamp_changes(self, seed):
        """Over a mixed sequence — ``and_`` with id reuse, ``replace``
        cascades, ``add_po``/``set_po``, ``add_ref``/``drop_ref``, level
        settles, trims and a ``copy()`` — every step's and every
        earlier epoch's ``dirty_since`` is the set of vars whose stamp
        changed since, and the epoch is the stamp counter."""
        rng = random.Random(seed)
        aig = random_aig(num_pis=6, num_nodes=60, num_pos=4, seed=seed)
        marks = [(aig.mutation_epoch, _stamps(aig))]
        ops = set()
        for i in range(60):
            if i == 30:
                aig = aig.copy()
                assert aig.dirty_since(marks[-1][0]) is None
                marks = [(aig.mutation_epoch, _stamps(aig))]
            if i % 20 == 10:
                trim = marks[len(marks) // 2][0]
                aig.trim_mutation_log(trim)
                assert trim == marks[0][0] or aig.dirty_since(marks[0][0]) is None
                marks = [m for m in marks if m[0] >= trim]
            epoch, before = aig.mutation_epoch, _stamps(aig)
            ops.add(_step(aig, rng))
            assert aig.mutation_epoch == aig._stamp_counter
            assert aig.dirty_since(epoch) == _changed(before, aig)
            marks.append((epoch, before))
            for mark, stamps in marks:
                assert aig.dirty_since(mark) == _changed(stamps, aig)
        assert ops == set(_OPS) | {"reuse"}

    def test_nothing_but_a_stamp_change_is_journaled(self):
        """PO edits, protection references and level settles change no
        stamp, so they leave the epoch and the journal alone."""
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.and_(aig.and_(a, b), c)
        epoch = aig.mutation_epoch
        aig.add_po(x)
        aig.set_po(0, x ^ 1)
        aig.add_ref(x >> 1)
        aig.drop_ref(x >> 1)
        aig.settle_levels()
        assert aig.mutation_epoch == epoch
        assert aig.dirty_since(epoch) == set()

    def test_read_graph_journals_one_entry_per_node(self, tmp_path):
        """``read_aiger`` leaves one journal entry per PI and AND: 3.0
        per AND while an AND also journaled its two fanins and a PO its
        driver."""
        aig = mtm_like(16, 1500, seed=7)
        write_aig(aig, tmp_path / "c.aig")
        read = read_aiger(tmp_path / "c.aig")
        assert len(read._mutation_log) == read.num_pis + read.num_ands
        assert read.mutation_epoch == read._stamp_counter


class TestCompactionKeepsFreshEntries:
    def test_after_a_dacpara_run(self, monkeypatch):
        """After a whole DACPara run, a compaction check leaves only
        entries keyed to their var's current stamp, and every cut the
        store hands out then carries its leaves' life stamps."""
        managers = capture_cut_managers(monkeypatch)
        aig = deep_chain_circuit()
        result = DACParaRewriter(dacpara_config()).run(aig)
        assert result.replacements > 0
        cutman = managers[0]
        tab = cutman._tab
        held = np.flatnonzero(tab[0] != -1)
        assert any(tab[0, v] != aig.stamp(v) for v in held)  # stale ones wait
        cutman._compact_at = 0  # check now
        cutman.compact()
        held = np.flatnonzero(tab[0] != -1).tolist()
        assert held and all(v < aig.size and tab[0, v] == aig.stamp(v) for v in held)
        for v in aig.topo_ands():
            for cut in cutman.fresh_cuts(v):
                assert cut.leaf_stamps == tuple(
                    aig.life_stamp(leaf) for leaf in cut.leaves)
