"""Tests for ISOP, factoring, structure generation and the NST."""

from __future__ import annotations

import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LibraryError
from repro.library import (
    Structure,
    StructureBuilder,
    StructureLibrary,
    cover_tt,
    factor_to_structure,
    get_library,
    input_lit,
    isop,
)
from repro.library.nst import TABLE_PATH, load_table
from repro.library.synthesis import candidates, enumeration_table, render_table
from repro.npn import MASK4, all_classes, npn_canon, var_table


class TestIsop:
    @given(st.integers(0, MASK4))
    @settings(max_examples=80, deadline=None)
    def test_isop_cover_equals_function(self, tt):
        cubes = isop(tt, 4)
        assert cover_tt(cubes, 4) == tt

    def test_isop_of_constants(self):
        assert isop(0, 4) == []
        assert cover_tt(isop(MASK4, 4), 4) == MASK4

    def test_isop_single_cube(self):
        and4 = 0x8000  # x0&x1&x2&x3
        cubes = isop(and4, 4)
        assert len(cubes) == 1
        assert cubes[0] == (0b1111, 0)

    @given(st.integers(0, MASK4))
    @settings(max_examples=40, deadline=None)
    def test_isop_is_irredundant(self, tt):
        cubes = isop(tt, 4)
        for i in range(len(cubes)):
            reduced = cubes[:i] + cubes[i + 1 :]
            assert cover_tt(reduced, 4) != tt or not cubes


class TestFactoring:
    @given(st.integers(0, MASK4))
    @settings(max_examples=80, deadline=None)
    def test_factored_structure_correct(self, tt):
        structure = factor_to_structure(isop(tt, 4))
        assert structure.eval_tt() == tt

    @given(st.integers(0, MASK4))
    @settings(max_examples=40, deadline=None)
    def test_factored_complement_correct(self, tt):
        structure = factor_to_structure(isop(tt ^ MASK4, 4), out_compl=True)
        assert structure.eval_tt() == tt


class TestStructureBuilder:
    def test_trivial_rules(self):
        b = StructureBuilder()
        x = b.input(0)
        assert b.and_(x, b.const0) == 0
        assert b.and_(x, b.const1) == x
        assert b.and_(x, x) == x
        assert b.and_(x, x ^ 1) == 0

    def test_strashing(self):
        b = StructureBuilder()
        x, y = b.input(0), b.input(1)
        assert b.and_(x, y) == b.and_(y, x)
        st_ = b.finish(b.and_(x, y))
        assert st_.num_ands == 1

    def test_garbage_collection(self):
        b = StructureBuilder()
        x, y, z = b.input(0), b.input(1), b.input(2)
        b.and_(x, z)  # dead
        keep = b.and_(x, y)
        st_ = b.finish(keep)
        assert st_.num_ands == 1

    def test_validate_rejects_forward_reference(self):
        bad = Structure(nodes=((2, 14),), out=10)
        with pytest.raises(LibraryError):
            bad.validate()

    def test_depth(self):
        b = StructureBuilder()
        x, y, z = b.input(0), b.input(1), b.input(2)
        st_ = b.finish(b.and_(b.and_(x, y), z))
        assert st_.depth == 2

    def test_input_lit_range(self):
        with pytest.raises(LibraryError):
            input_lit(4)

    def test_xor_mux(self):
        b = StructureBuilder()
        x, y = b.input(0), b.input(1)
        st_ = b.finish(b.xor_(x, y))
        assert st_.eval_tt() == (var_table(0, 4) ^ var_table(1, 4))


class TestEnumeration:
    def test_contains_basic_gates(self):
        table = enumeration_table()
        and2 = var_table(0, 4) & var_table(1, 4)
        assert table[and2].num_ands == 1
        xor2 = var_table(0, 4) ^ var_table(1, 4)
        assert table[xor2].num_ands == 3
        and3 = and2 & var_table(2, 4)
        assert table[and3].num_ands == 2

    def test_mux_is_three_ands(self):
        table = enumeration_table()
        s, t, e = var_table(0, 4), var_table(1, 4), var_table(2, 4)
        mux = (s & t) | (~s & e) & MASK4
        mux &= MASK4
        assert table[mux].num_ands == 3

    def test_all_entries_verified(self):
        table = enumeration_table()
        rng = random.Random(0)
        sample = rng.sample(sorted(table), 200)
        for tt in sample:
            assert table[tt].eval_tt() == tt

    def test_structures_within_budget(self):
        from repro.library.synthesis import ENUM_BUDGET

        table = enumeration_table()
        assert all(s.num_ands <= ENUM_BUDGET for s in table.values())


class TestCandidates:
    @given(st.integers(0, MASK4))
    @settings(max_examples=60, deadline=None)
    def test_all_candidates_compute_tt(self, tt):
        for structure in candidates(tt):
            assert structure.eval_tt() == tt
            structure.validate()

    @given(st.integers(0, MASK4))
    @settings(max_examples=30, deadline=None)
    def test_candidates_sorted_by_cost(self, tt):
        sizes = [s.num_ands for s in candidates(tt)]
        assert sizes == sorted(sizes)

    def test_constants_and_literals(self):
        assert candidates(0)[0].num_ands == 0
        assert candidates(MASK4)[0].num_ands == 0
        assert candidates(var_table(2, 4))[0].num_ands == 0


class TestLibrary:
    def test_library_covers_all_222_classes(self):
        lib = get_library()
        for rep in all_classes():
            structs = lib.structures(rep)
            assert structs, f"no structure for class {rep:04x}"
            for s in structs:
                assert s.eval_tt() == rep

    def test_library_caches(self):
        lib = get_library()
        canon, _ = npn_canon(0x8888)
        a = lib.structures(canon)
        b = lib.structures(canon)
        assert a is b

    def test_structures_for_function_canonicalizes(self):
        lib = get_library()
        canon, _ = npn_canon(0x1234)
        assert lib.structures_for_function(0x1234) is lib.structures(canon)

    def test_max_structs_respected(self):
        lib = get_library()
        for rep in list(all_classes())[:40]:
            assert len(lib.structures(rep)) <= lib.max_structs


class TestPackagedTable:
    """The shipped NST is the generator's output, verified on load."""

    def test_table_is_the_render_of_candidates(self):
        # Regenerate with ``python -m repro.library.synthesis``.
        assert TABLE_PATH.read_text() == render_table()

    def test_candidates_truncate_to_a_prefix(self):
        for rep in all_classes():
            full = candidates(rep, 8)
            for m in range(1, 8):
                assert candidates(rep, m) == full[:m]

    def test_flipped_output_literal_names_its_class(self):
        payload = json.loads(TABLE_PATH.read_text())
        payload["0x0007"][0][0] ^= 1
        with pytest.raises(LibraryError, match="0x0007"):
            load_table(json.dumps(payload))

    def test_forward_reference_names_its_class(self):
        payload = json.loads(TABLE_PATH.read_text())
        payload["0x0007"][0][1] = 14  # node 0 reads its own output
        with pytest.raises(LibraryError, match="0x0007"):
            load_table(json.dumps(payload))

    def test_non_canonical_key_raises(self):
        with pytest.raises(LibraryError, match="canonical"):
            get_library().structures(0x8888)

    @pytest.mark.parametrize("max_structs", [0, 9])
    def test_max_structs_out_of_range_raises(self, max_structs):
        with pytest.raises(LibraryError, match="max_structs"):
            StructureLibrary(max_structs=max_structs)

    def test_max_structs_slices_the_table(self):
        small, full = StructureLibrary(max_structs=2), get_library()
        for rep in all_classes():
            assert small.structures(rep) == full.structures(rep)[:2]


class TestPersistentNstCache:
    """The packaged table is the NST persisted on disk: ``render_table``
    writes it and ``load_table`` reads it back."""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "nst.json"
        path.write_text(render_table())
        loaded = load_table(path.read_text())
        assert len(loaded) == 222
        for rep in (0x0001, 0x0007, 0x1234):
            canon, _ = npn_canon(rep)
            assert loaded[canon] == tuple(candidates(canon, 8))

    def test_max_structs_mismatch_ignored(self):
        small = StructureLibrary(max_structs=2)
        big = StructureLibrary(max_structs=8)
        canon, _ = npn_canon(0x0007)
        assert len(small.structures(canon)) <= 2
        assert big.structures(canon) == tuple(candidates(canon, 8))
        assert len(big.structures(canon)) >= len(small.structures(canon))


def test_no_engine_synthesizes_at_run_time():
    """Every engine, and the process pool's workers, answer from the
    packaged table: a fresh interpreter with the generators stubbed to
    raise still finishes all of them."""
    script = """
import dataclasses
import warnings
import repro.library.synthesis as synthesis

def refuse(*args, **kwargs):
    raise AssertionError("structure synthesis at run time")

synthesis.candidates = synthesis.enumeration_table = refuse
from repro.bench import mtm_like
from repro.config import dacpara_config
from repro.core import DACParaRewriter
from repro.rewrite import LockFusedRewriter, SerialRewriter, StaticRewriter
warnings.simplefilter("error")  # a silent pool fallback is a bug
engines = (
    DACParaRewriter(),
    DACParaRewriter(config=dataclasses.replace(
        dacpara_config().with_executor("process", jobs=2),
        shards=2, shard_min_nodes=1)),
    SerialRewriter(),
    LockFusedRewriter(),
    StaticRewriter(),
)
for engine in engines:
    assert engine.run(mtm_like(8, 400, 1)).replacements > 0, engine
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr
