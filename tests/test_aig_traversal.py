"""Tests for traversal and MFFC computation."""

from __future__ import annotations

from repro.aig import (
    Aig,
    cone_cover,
    is_in_tfi,
    lit_not,
    lit_var,
    mffc,
    mffc_size,
    related,
    tfi,
    tfo,
    topo_order,
)

from conftest import random_aig


def _diamond():
    """a,b,c -> n1=a&b, n2=b&c, top=n1&n2."""
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    n1 = aig.and_(a, b)
    n2 = aig.and_(b, c)
    top = aig.and_(n1, n2)
    aig.add_po(top)
    return aig, (a, b, c, n1, n2, top)


class TestTopoOrder:
    def test_fanins_precede_fanouts(self):
        aig = random_aig(num_pis=5, num_nodes=50, seed=3)
        position = {v: i for i, v in enumerate(topo_order(aig))}
        for v in aig.ands():
            for fl in aig.fanins(v):
                fv = lit_var(fl)
                if aig.is_and(fv):
                    assert position[fv] < position[v]

    def test_covers_all_live_ands(self):
        aig = random_aig(seed=5)
        assert sorted(topo_order(aig)) == sorted(aig.ands())


class TestTfiTfo:
    def test_tfi_of_top(self):
        aig, (a, b, c, n1, n2, top) = _diamond()
        cone = tfi(aig, [lit_var(top)])
        expected = {lit_var(x) for x in (a, b, c, n1, n2, top)}
        assert cone == expected

    def test_tfo_of_pi(self):
        aig, (a, b, c, n1, n2, top) = _diamond()
        fwd = tfo(aig, [lit_var(b)])
        assert fwd == {lit_var(b), lit_var(n1), lit_var(n2), lit_var(top)}

    def test_is_in_tfi(self):
        aig, (a, b, c, n1, n2, top) = _diamond()
        assert is_in_tfi(aig, lit_var(n1), lit_var(top))
        assert is_in_tfi(aig, lit_var(a), lit_var(top))
        assert not is_in_tfi(aig, lit_var(top), lit_var(n1))
        assert not is_in_tfi(aig, lit_var(n1), lit_var(n2))

    def test_related_is_symmetric(self):
        aig, (a, b, c, n1, n2, top) = _diamond()
        assert related(aig, lit_var(n1), lit_var(top))
        assert related(aig, lit_var(top), lit_var(n1))
        assert not related(aig, lit_var(n1), lit_var(n2))

    def test_related_matches_bruteforce_on_random(self):
        aig = random_aig(num_pis=4, num_nodes=30, seed=11)
        ands = list(aig.ands())
        full_tfi = {v: tfi(aig, [v]) for v in ands}
        for x in ands[:10]:
            for y in ands[:10]:
                expected = y in full_tfi[x] or x in full_tfi[y]
                assert related(aig, x, y) == expected


class TestConeCover:
    def test_cover_excludes_leaves(self):
        aig, (a, b, c, n1, n2, top) = _diamond()
        leaves = {lit_var(a), lit_var(b), lit_var(c)}
        cover = cone_cover(aig, lit_var(top), leaves)
        assert cover == {lit_var(n1), lit_var(n2), lit_var(top)}

    def test_cover_stops_at_internal_leaves(self):
        aig, (a, b, c, n1, n2, top) = _diamond()
        leaves = {lit_var(n1), lit_var(n2)}
        cover = cone_cover(aig, lit_var(top), leaves)
        assert cover == {lit_var(top)}


class TestMffc:
    def test_single_fanout_chain_all_in_mffc(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        n1 = aig.and_(a, b)
        n2 = aig.and_(n1, c)
        aig.add_po(n2)
        assert mffc(aig, lit_var(n2)) == {lit_var(n1), lit_var(n2)}

    def test_shared_node_not_in_mffc(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        shared = aig.and_(a, b)
        n2 = aig.and_(shared, c)
        aig.add_po(n2)
        aig.add_po(shared)  # second reference keeps it alive
        assert mffc(aig, lit_var(n2)) == {lit_var(n2)}

    def test_leaves_bound_the_cone(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        n1 = aig.and_(a, b)
        n2 = aig.and_(n1, c)
        aig.add_po(n2)
        assert mffc(aig, lit_var(n2), leaves={lit_var(n1)}) == {lit_var(n2)}

    def test_mffc_matches_path_definition(self):
        """MFFC(n) per the paper: every path from a member to a PO passes
        through n.  Cross-check the refcount computation against a
        brute-force reachability argument: u is in MFFC(root) iff u
        cannot reach any PO in the graph with root removed."""
        for seed in range(6):
            aig = random_aig(num_pis=5, num_nodes=40, num_pos=3, seed=seed)
            po_vars = {lit_var(l) for l in aig.pos}
            for root in list(aig.ands())[:8]:
                computed = mffc(aig, root)
                cone = tfi(aig, [root])
                for u in cone:
                    if not aig.is_and(u):
                        continue
                    reaches_po = False
                    stack = [u]
                    seen = set()
                    while stack:
                        v = stack.pop()
                        if v in seen or v == root:
                            continue
                        seen.add(v)
                        if v in po_vars:
                            reaches_po = True
                            break
                        stack.extend(aig.fanouts(v))
                    expected_in_mffc = (u == root) or not reaches_po
                    assert (u in computed) == expected_in_mffc, (
                        f"seed={seed} root={root} node={u}"
                    )

    def test_mffc_is_readonly(self):
        aig = random_aig(seed=9)
        epoch = aig.mutation_epoch
        refs = [aig.nref(v) for v in aig.ands()]
        for root in list(aig.ands())[:10]:
            mffc(aig, root)
        assert aig.mutation_epoch == epoch
        assert [aig.nref(v) for v in aig.ands()] == refs
