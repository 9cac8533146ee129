"""Tests for truth tables and NPN canonicalization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.npn import (
    MASK4,
    NUM_NPN_CLASSES_4,
    NUM_PRACTICAL_CLASSES,
    all_classes,
    apply_transform,
    class_populations,
    class_set,
    cofactor,
    depends_on,
    eval_tt,
    expand,
    full_mask,
    npn_canon,
    npn_class_of,
    practical_classes,
    shrink_to_support,
    support,
    var_table,
)


class TestTruthTables:
    def test_var_tables_4(self):
        assert var_table(0, 4) == 0xAAAA
        assert var_table(1, 4) == 0xCCCC
        assert var_table(2, 4) == 0xF0F0
        assert var_table(3, 4) == 0xFF00

    def test_full_mask(self):
        assert full_mask(2) == 0xF
        assert full_mask(4) == 0xFFFF

    @given(st.integers(0, MASK4))
    @settings(max_examples=50, deadline=None)
    def test_cofactor_shannon(self, tt):
        """f = (~x & f0) | (x & f1) must hold for every variable."""
        for var in range(4):
            f0 = cofactor(tt, var, 0, 4)
            f1 = cofactor(tt, var, 1, 4)
            x = var_table(var, 4)
            recomposed = (~x & f0 | x & f1) & MASK4
            assert recomposed == tt

    def test_depends_on(self):
        assert depends_on(0xAAAA, 0, 4)
        assert not depends_on(0xAAAA, 1, 4)
        assert support(0xAAAA, 4) == (0,)
        assert support(0x8000, 4) == (0, 1, 2, 3)
        assert support(0x0000, 4) == ()

    def test_eval_tt(self):
        and2 = 0x8888  # x0 & x1 in 4-var space
        assert eval_tt(and2, [1, 1, 0, 0]) == 1
        assert eval_tt(and2, [1, 0, 0, 0]) == 0

    @given(st.integers(0, 0xF))
    @settings(max_examples=20, deadline=None)
    def test_expand_preserves_semantics(self, tt2):
        """A 2-var function expanded into a 3-leaf space evaluates the
        same under every assignment."""
        src = (10, 30)
        dst = (10, 20, 30)
        expanded = expand(tt2, src, dst)
        for k in range(8):
            a = [(k >> i) & 1 for i in range(3)]
            # leaf 10 -> dst pos 0, leaf 30 -> dst pos 2
            assert eval_tt(expanded, a) == eval_tt(tt2, [a[0], a[2]])

    def test_shrink_to_support(self):
        tt, sup = shrink_to_support(0xAAAA, 4)
        assert sup == (0,)
        assert tt == 0b10  # x0 in 1-var space

    def test_expand_missing_leaf_raises(self):
        from repro.errors import CutError

        with pytest.raises(CutError):
            expand(0b10, (5,), (6, 7))


class TestNpnCanon:
    def test_exactly_222_classes(self):
        assert len(all_classes()) == NUM_NPN_CLASSES_4 == 222

    def test_class_populations_sum_to_65536(self):
        assert sum(class_populations().values()) == 65536

    def test_practical_subset_size(self):
        assert len(practical_classes()) == NUM_PRACTICAL_CLASSES == 134
        assert practical_classes() <= set(all_classes())

    def test_class_set_resolver(self):
        assert class_set("all222") == frozenset(all_classes())
        assert class_set("common134") == practical_classes()
        with pytest.raises(ValueError):
            class_set("bogus")

    def test_canon_is_idempotent(self):
        rng = random.Random(1)
        for _ in range(50):
            tt = rng.randint(0, MASK4)
            canon, _ = npn_canon(tt)
            canon2, _ = npn_canon(canon)
            assert canon2 == canon

    def test_canon_invariant_under_input_negation(self):
        rng = random.Random(2)
        for _ in range(30):
            tt = rng.randint(0, MASK4)
            var = rng.randrange(4)
            f0 = cofactor(tt, var, 0, 4)
            f1 = cofactor(tt, var, 1, 4)
            x = var_table(var, 4)
            negated = (~x & f1 | x & f0) & MASK4
            assert npn_class_of(negated) == npn_class_of(tt)

    def test_canon_invariant_under_output_negation(self):
        rng = random.Random(3)
        for _ in range(30):
            tt = rng.randint(0, MASK4)
            assert npn_class_of(tt ^ MASK4) == npn_class_of(tt)

    def test_canon_invariant_under_permutation(self):
        rng = random.Random(4)
        for _ in range(30):
            tt = rng.randint(0, MASK4)
            # swap x0 and x1 by remapping minterms
            swapped = 0
            for k in range(16):
                j = (k & 0b1100) | ((k & 1) << 1) | ((k >> 1) & 1)
                swapped |= ((tt >> j) & 1) << k
            assert npn_class_of(swapped) == npn_class_of(tt)

    @given(st.integers(0, MASK4))
    @settings(max_examples=60, deadline=None)
    def test_witness_transform_is_correct(self, tt):
        """apply_transform(tt, witness) must equal the canonical form."""
        canon, transform = npn_canon(tt)
        assert apply_transform(tt, transform) == canon

    @given(st.integers(0, MASK4))
    @settings(max_examples=60, deadline=None)
    def test_witness_semantics(self, tt):
        """canon(y) = f(x) ^ out_neg with x[perm[i]] = y_i ^ neg_i."""
        canon, tr = npn_canon(tt)
        for k in range(16):
            y = [(k >> i) & 1 for i in range(4)]
            x = [0] * 4
            for i in range(4):
                x[tr.perm[i]] = y[i] ^ ((tr.neg_mask >> i) & 1)
            expected = eval_tt(tt, x) ^ int(tr.out_neg)
            assert eval_tt(canon, y) == expected

    def test_known_class_representatives(self):
        # Constants form one class; single-variable functions another.
        assert npn_class_of(0x0000) == npn_class_of(0xFFFF)
        assert npn_class_of(0xAAAA) == npn_class_of(0xCCCC) == npn_class_of(0x0F0F)
        # AND2 of any two inputs, any phases, same class.
        assert npn_class_of(0x8888) == npn_class_of(0x2222) == npn_class_of(0xC0C0)
        # AND and XOR are different classes.
        assert npn_class_of(0x8888) != npn_class_of(0x6666)

    def test_leaf_assignment_shape(self):
        _, tr = npn_canon(0x1234)
        la = tr.leaf_assignment()
        assert len(la) == 4
        assert sorted(pos for pos, _ in la) == [0, 1, 2, 3]


class TestBatchKernels:
    @given(st.integers(min_value=0, max_value=MASK4))
    @settings(max_examples=200, deadline=None)
    def test_batch_expand_matches_scalar_expand(self, tt):
        from repro.npn import batch_expand, expand_map16

        rng = random.Random(tt)
        nd = rng.randint(2, 4)
        dst = tuple(range(nd))
        src = tuple(sorted(rng.sample(dst, rng.randint(1, nd))))
        small = tt & full_mask(len(src))
        expected = expand(small, src, dst) & full_mask(nd)
        pos = tuple(dst.index(s) for s in src)
        got = int(batch_expand([small], [expand_map16(pos)])[0]) & full_mask(nd)
        assert got == expected

    def test_expand_map16_identity(self):
        from repro.npn import batch_expand, expand_map16

        identity = expand_map16((0, 1, 2, 3))
        tts = list(range(0, 65536, 251))
        out = batch_expand(tts, [identity] * len(tts))
        assert [int(x) for x in out] == tts

    def test_lut_and_exhaustive_share_the_canon_map(self):
        from repro.npn import canon_all_functions, npn_canon_exhaustive

        canon = canon_all_functions()
        for tt in range(0, 65536, 997):
            assert int(canon[tt]) == npn_canon_exhaustive(tt)[0]

    def test_orbit_built_lut_equals_the_sweep_on_every_function(self):
        """The LUT is built class by class from each class minimum; the
        768 x 65 536 sweep (``tests/reference.py``) must give the same
        canonical table *and* the same witness row for all 65 536
        functions."""
        import numpy as np

        from reference import build_canon_lut_sweep
        from repro.npn.canon import _build_canon_lut

        canon, rows = _build_canon_lut()
        sweep_canon, sweep_rows = build_canon_lut_sweep()
        assert canon.dtype == sweep_canon.dtype
        assert rows.dtype == sweep_rows.dtype
        assert np.array_equal(canon, sweep_canon)
        assert np.array_equal(rows, sweep_rows)
