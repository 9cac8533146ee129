"""Property-based tests: random operation sequences against the AIG.

Hypothesis drives arbitrary construct/replace/delete sequences and the
invariant checker plus functional oracles must hold at every step.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.aig import (
    Aig,
    check,
    exhaustive_signatures,
    lit_not,
    lit_var,
    tfo,
)


@given(st.integers(0, 100_000), st.integers(10, 80))
@settings(max_examples=40, deadline=None)
def test_random_build_sequences_keep_invariants(seed, ops):
    rng = random.Random(seed)
    aig = Aig()
    lits = [aig.add_pi() for _ in range(rng.randint(2, 6))]
    for _ in range(ops):
        op = rng.random()
        if op < 0.7 or aig.num_ands == 0:
            a = rng.choice(lits) ^ rng.randint(0, 1)
            b = rng.choice(lits) ^ rng.randint(0, 1)
            lits.append(aig.and_(a, b))
        elif op < 0.85:
            aig.add_po(rng.choice(lits) ^ rng.randint(0, 1))
        else:
            ands = [v for v in aig.ands() if aig.nref(v) > 0]
            if ands:
                victim = rng.choice(ands)
                # Replace by one of its fanins (keeps the DAG acyclic).
                aig.replace(victim, aig.fanin0(victim))
                lits = [
                    l for l in lits
                    if not aig.is_dead(lit_var(l))
                ]
    check(aig)


@given(st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_equivalent_replacement_preserves_all_functions(seed):
    """Replacing a node by a freshly built equivalent cone must keep
    every PO function bit-identical."""
    rng = random.Random(seed)
    aig = Aig()
    pis = [aig.add_pi() for _ in range(5)]
    lits = list(pis)
    for _ in range(30):
        a = rng.choice(lits) ^ rng.randint(0, 1)
        b = rng.choice(lits) ^ rng.randint(0, 1)
        lits.append(aig.and_(a, b))
    for _ in range(4):
        aig.add_po(rng.choice(lits) ^ rng.randint(0, 1))
    aig.cleanup_dangling()
    before = exhaustive_signatures(aig)

    ands = list(aig.ands())
    if not ands:
        return
    victim = rng.choice(ands)
    f0, f1 = aig.fanins(victim)
    # Build ~(~f0 | ~f1) — logically identical, structurally different.
    equivalent = lit_not(aig.or_(lit_not(f0), lit_not(f1)))
    # The strash will fold this straight back to the victim; that is
    # itself the property (no duplicate node may appear).
    assert lit_var(equivalent) == victim or equivalent in (f0, f1)
    check(aig)
    assert exhaustive_signatures(aig) == before


@given(st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_copy_roundtrip_function(seed):
    rng = random.Random(seed)
    aig = Aig()
    lits = [aig.add_pi() for _ in range(4)]
    for _ in range(25):
        a = rng.choice(lits) ^ rng.randint(0, 1)
        b = rng.choice(lits) ^ rng.randint(0, 1)
        lits.append(aig.and_(a, b))
    for _ in range(3):
        aig.add_po(rng.choice(lits) ^ rng.randint(0, 1))
    clone = aig.copy()
    assert exhaustive_signatures(clone) == exhaustive_signatures(aig)
    # Mutating the clone must not touch the original.
    sig_before = exhaustive_signatures(aig)
    for idx in range(clone.num_pos):
        clone.set_po(idx, 0)
    assert exhaustive_signatures(aig) == sig_before


@given(st.integers(0, 100_000), st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_stamps_monotone_and_unique_per_event(seed, rounds):
    """Every structural event produces a fresh, strictly larger stamp."""
    rng = random.Random(seed)
    aig = Aig()
    lits = [aig.add_pi() for _ in range(3)]
    seen_stamps = set()
    for _ in range(rounds):
        a = rng.choice(lits) ^ rng.randint(0, 1)
        b = rng.choice(lits) ^ rng.randint(0, 1)
        lit = aig.and_(a, b)
        v = lit_var(lit)
        if aig.is_and(v):
            stamp = aig.stamp(v)
            life = aig.life_stamp(v)
            assert life <= stamp
            seen_stamps.add(stamp)
        lits.append(lit)
    # No two creations shared a stamp.
    assert len(seen_stamps) == len({aig.stamp(v) for v in aig.ands()})


# ---------------------------------------------------------------------------
# Lazy levels (DESIGN §4d): exact at every read, without settling first
# ---------------------------------------------------------------------------


def _oracle_levels(aig):
    """Every live node's level recomputed from the fanins alone."""
    levels = {0: 0}
    levels.update((pi, 0) for pi in aig.pis)
    for root in list(aig.ands()):
        stack = [root]
        while stack:
            v = stack[-1]
            todo = [lit_var(f) for f in aig.fanins(v) if lit_var(f) not in levels]
            if todo:
                stack.extend(todo)
                continue
            levels[v] = 1 + max(levels[lit_var(f)] for f in aig.fanins(v))
            stack.pop()
    return levels


def _assert_level_invariant(aig):
    """Non-pending => consistent with the *stored* fanin levels; pending
    => a live AND with a heap entry keyed by its stored level."""
    stored, pending = aig._level, aig._level_pending
    for v in aig.ands():
        if v not in pending:
            f0, f1 = aig.fanins(v)
            assert stored[v] == 1 + max(stored[f0 >> 1], stored[f1 >> 1]), v
    entries = set(aig._level_heap)
    for v in pending:
        assert aig.is_and(v)
        assert (stored[v], v) in entries


def _deeper_equivalent(aig, var, extra):
    """``f0 & f1`` rebuilt as ``f0 & (g | ~f0)`` ``extra`` times over:
    the same function, two levels deeper per round, outside ``var``'s
    fanout cone (it only uses ``var``'s fanins)."""
    f0, f1 = aig.fanins(var)
    g = f1
    for _ in range(extra):
        g = aig.and_(f0, lit_not(aig.and_(f0, lit_not(g))))
    return g


@given(st.integers(0, 100_000), st.integers(20, 90))
@settings(max_examples=100, deadline=None)
def test_lazy_levels_exact_at_every_read(seed, ops):
    rng = random.Random(seed)
    aig = Aig()
    pis = [aig.add_pi() for _ in range(rng.randint(3, 6))]

    def live_lits():
        return pis + [v << 1 for v in aig.ands()]

    for _ in range(ops):
        op = rng.random()
        ands = list(aig.ands())
        if op < 0.4 or not ands:
            pool = live_lits()
            # Bias towards the newest nodes so that chains get deep.
            a = rng.choice(pool[-6:]) ^ rng.randint(0, 1)
            b = rng.choice(pool) ^ rng.randint(0, 1)
            aig.and_(a, b)
        elif op < 0.48:
            aig.add_po(rng.choice(live_lits()) ^ rng.randint(0, 1))
        elif op < 0.54 and aig.num_pos:
            aig.set_po(rng.randrange(aig.num_pos),
                       rng.choice(live_lits()) ^ rng.randint(0, 1))
        elif op < 0.6:
            # Speculative node, abandoned: its id goes back to the pool.
            lit = aig.and_(rng.choice(live_lits()), rng.choice(live_lits()) ^ 1)
            aig.delete_if_dangling(lit_var(lit))
        else:
            victim = rng.choice(ands)
            how = rng.random()
            if how < 0.35:  # lowers levels
                new = aig.fanin0(victim) ^ rng.randint(0, 1)
            elif how < 0.7:  # raises levels, same function
                new = _deeper_equivalent(aig, victim, rng.randint(1, 3))
            else:  # anything outside the fanout cone, deeper or not
                cone = tfo(aig, [victim])
                outside = [l for l in live_lits() if lit_var(l) not in cone]
                new = rng.choice(outside) ^ rng.randint(0, 1)
            if lit_var(new) != victim:
                aig.replace(victim, new)
        _assert_level_invariant(aig)
        if rng.random() < 0.5:
            continue  # let pending levels pile up across several ops
        oracle = _oracle_levels(aig)
        live = list(aig.ands())
        for v in rng.sample(live, min(rng.randint(1, 3), len(live))):
            assert aig.level(v) == oracle[v]
        _assert_level_invariant(aig)

    oracle = _oracle_levels(aig)
    assert aig.max_level() == max(
        (oracle[lit_var(po)] for po in aig.pos), default=0)
    assert not aig._level_pending and not aig._level_heap
    assert all(aig.level(v) == oracle[v] for v in aig.ands())
    check(aig)


def test_recycled_id_does_not_inherit_a_pending_level():
    """A var is marked pending at a high level, dies, and its id comes
    back at a low level and is redirected again: the new incarnation
    must be re-marked under its own key (DESIGN §4d, id-reuse rule)."""
    aig = Aig()
    a, b, c, q, r = (aig.add_pi() for _ in range(5))
    m = aig.and_(a, b)
    shallow = aig.and_(m, c)
    deep = shallow
    for i in range(5):
        deep = aig.and_(deep, (q, r)[i % 2] ^ (i // 2 % 2))
    f = aig.and_(deep, lit_not(a))
    g = aig.and_(f, lit_not(b))
    out = aig.add_po(g)
    aig.add_po(m)
    aig.add_po(shallow)
    f_var = lit_var(f)
    high = aig.level(f_var)
    assert high >= 6

    # Redirect f onto a shallow fanin: f is pending, keyed at ``high``.
    aig.replace(lit_var(deep), shallow)
    assert f_var in aig._level_pending
    # Kill f before anything reads it; the id returns to the free list.
    aig.set_po(out, m)
    assert aig.is_dead(f_var) and f_var not in aig._level_pending

    # The id comes back one level above ``m`` ...
    h = aig.and_(m, q)
    assert lit_var(h) == f_var and aig._level[f_var] == 2
    k = aig.and_(h, r)
    aig.add_po(k)
    # ... and is redirected again: m -> a lowers it to level 1.
    aig.replace(lit_var(m), a)
    _assert_level_invariant(aig)
    oracle = _oracle_levels(aig)
    assert oracle[f_var] == 1
    assert aig.level(f_var) == 1
    assert aig.level(lit_var(k)) == 2
    check(aig)
