"""The cold path against its references: the vector AIGER codec
against the byte-at-a-time one, the lean ``Aig.and_`` against the
helper chain it inlines.

``write_aig`` must write the bytes :func:`reference.reference_write_aig`
writes, and ``read_aiger`` must leave a graph *state-identical* to the
one :func:`reference.reference_read_aig` builds — every column, the
mutation journal, the strash's packed keys in insertion order, each
var's fanout list in its order, the free list —
or raise the same exception with the same located message.  The graphs
cover recycled ids after ``replace`` and POs on constants, PIs and
complemented literals; the hand-made files cover duplicate, trivial
and zero-delta ANDs, truncated and over-long varints, negative and
undefined literals.  ``Aig.and_`` and the gates built on it must leave
the state :func:`reference.reference_and` leaves, over random op
sequences that recycle ids.  The AIGER 1.9 property-section repros
ride along.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from reference import reference_and, reference_read_aig, reference_write_aig
from repro.aig import Aig, read_aiger, tfo, write_aag, write_aig
from repro.aig.graph import strash_pair
from repro.bench import mtm_like
from repro.errors import AigError, AigerFormatError


def graph_state(aig: Aig) -> dict:
    """Everything an ``Aig`` holds, in iteration order: the fanout
    lists as stored (insertion order), the stamp columns up to ``size``
    and the strash as its packed ``strash_key`` ints, each unpacked to
    the fanin pair it keys."""
    size = aig.size
    return {
        "columns": (aig._kind, aig._fanin0, aig._fanin1, aig._nref,
                    aig._level, aig._stamp[:size].tolist(),
                    aig._life[:size].tolist()),
        "fanouts": aig._fanouts,
        "strash": [(key, strash_pair(key), var) for key, var in aig._strash.items()],
        "free": aig._free, "pis": aig._pis, "pos": aig._pos,
        "po_refs": [(v, list(r)) for v, r in aig._po_refs.items()],
        "journal": aig._mutation_log, "epoch": aig.mutation_epoch,
        "pending": (sorted(aig._level_pending), aig._level_heap),
        "counters": (aig._num_ands, aig._stamp_counter,
                     aig.level_updates, aig.name),
    }


def outcome(read, path):
    """The graph state ``read(path)`` leaves, or its exception."""
    try:
        return graph_state(read(path))
    except AigerFormatError as exc:
        return type(exc), str(exc)


def random_graph(seed: int) -> Aig:
    """A random strashed graph with recycled ids: some ANDs replaced
    (their cones freed, then reused by later ANDs), POs on constants,
    PIs and complemented literals, maybe a name."""
    rng = random.Random(seed)
    aig = Aig()
    lits = [0, 1] + [aig.add_pi() for _ in range(rng.randint(0, 5))]
    for _ in range(rng.randint(0, 60)):
        if rng.random() < 0.15 and aig.num_ands:
            live = [v for v in aig.ands() if aig.nref(v)]
            if live:
                victim = rng.choice(live)
                above = tfo(aig, [victim])  # keeps the graph acyclic
                subst = rng.choice([l for l in lits if l >> 1 not in above
                                    and not aig.is_dead(l >> 1)])
                aig.replace(victim, subst ^ rng.randint(0, 1))
            lits = [l for l in lits if not aig.is_dead(l >> 1)]
            continue
        a, b = rng.choice(lits), rng.choice(lits)
        lit = aig.and_(a ^ rng.randint(0, 1), b ^ rng.randint(0, 1))
        lits.append(lit)
        if rng.random() < 0.3:
            aig.add_po(lit ^ rng.randint(0, 1))
    for _ in range(rng.randint(0, 3)):
        aig.add_po(rng.choice(lits) ^ rng.randint(0, 1))
    if rng.random() < 0.5:
        aig.name = f"g{seed}"
    return aig


def varint(value: int, pad: int = 0) -> bytes:
    """AIGER varint of ``value``, ``pad`` zero groups past its top."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value or pad:
            out.append(0x80 | byte)
        else:
            out.append(byte)
            return bytes(out)
        if not value:
            pad -= 1


def aig_file(i: int, pos, pairs, a=None, tail: bytes = b"",
             spare: int = 0) -> bytes:
    """A binary AIGER file with ``pairs`` of raw delta encodings and
    ``spare`` unused vars in the header's M."""
    a = len(pairs) if a is None else a
    body = b"".join(d0 + d1 for d0, d1 in pairs)
    head = f"aig {i + a + spare} {i} 0 {len(pos)} {a}\n".encode()
    return head + b"".join(f"{p}\n".encode() for p in pos) + body + tail


@given(seed=st.integers(0, 10 ** 9))
@settings(max_examples=150, deadline=None)
def test_writer_bytes_and_reader_state_match_the_reference(seed, tmp_path_factory):
    aig = random_graph(seed)
    folder = tmp_path_factory.mktemp("diff")
    ours, ref = folder / "ours.aig", folder / "ref.aig"
    write_aig(aig, ours)
    reference_write_aig(aig, ref)
    assert ours.read_bytes() == ref.read_bytes()
    assert outcome(read_aiger, ref) == outcome(reference_read_aig, ref)


@given(i=st.integers(0, 6),
       deltas=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                                 st.integers(0, 2), st.integers(0, 2)),
                       max_size=12),
       pos=st.lists(st.integers(0, 40), max_size=3),
       cut=st.integers(0, 2), spare=st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_hand_made_files_build_or_fail_like_the_reference(
        i, deltas, pos, cut, spare, tmp_path_factory):
    """Small deltas make duplicate, trivial, zero-delta, negative and
    undefined ANDs; padding makes non-minimal varints; ``cut`` drops
    trailing bytes (a truncated delta)."""
    pairs = [(varint(d0, p0), varint(d1, p1)) for d0, d1, p0, p1 in deltas]
    data = aig_file(i, pos, pairs, spare=spare)
    data = data[:len(data) - cut] if pairs else data
    path = tmp_path_factory.mktemp("hand") / "h.aig"
    path.write_bytes(data)
    assert outcome(read_aiger, path) == outcome(reference_read_aig, path)


@pytest.mark.parametrize("data,message", (
    (aig_file(2, [6], [(varint(2), varint(2))], a=2, tail=b"\x80\x80"),
     "byte 18: truncated binary AIGER delta"),
    (aig_file(1, [4], [(varint(2), b"\x80\x80")]),
     "byte 17: truncated binary AIGER delta"),
    (aig_file(2, [6], [(varint(1, pad=12), varint(1))]),
     None),  # zero groups past bit 63: still the delta 1
    (aig_file(2, [6], [(b"\xff" * 12 + b"\x01", varint(1))]),
     "byte 16: negative literal in AND 6"),
    # 1 + 127 * 2**56 + 127 * 2**63 + 2**71: its groups past bit 62
    # sum to 256 * 2**56, which is 0 modulo 2**64.
    (aig_file(2, [6], [(b"\x81" + b"\x80" * 7 + b"\xff\xff\x02", varint(1))]),
     "byte 16: negative literal in AND 6"),
    (aig_file(2, [6], [(varint(1), varint(9))]),
     "byte 16: negative literal in AND 6"),
    (aig_file(2, [6], [(varint(0), varint(1))]),
     "byte 16: undefined literal 6"),
    (aig_file(2, [8], [(varint(1), varint(1))], spare=1),
     "byte 14: undefined literal 8"),
))
def test_malformed_files_fail_at_the_same_byte(data, message, tmp_path):
    """A truncated delta, an over-long varint (accepted when its extra
    groups are zero), a negative and an undefined literal."""
    path = tmp_path / "bad.aig"
    path.write_bytes(data)
    ours = outcome(read_aiger, path)
    assert ours == outcome(reference_read_aig, path)
    if message is None:
        assert isinstance(ours, dict)
    else:
        assert ours == (AigerFormatError, message)


def test_ladder_sized_round_trip_matches_the_reference(tmp_path):
    aig = mtm_like(24, 3000, seed=7)
    ours, ref = tmp_path / "ours.aig", tmp_path / "ref.aig"
    write_aig(aig, ours)
    reference_write_aig(aig, ref)
    assert ours.read_bytes() == ref.read_bytes()
    assert graph_state(read_aiger(ours)) == graph_state(reference_read_aig(ours))


# The issue's repros: each once parsed its property line as an AND
# ("line 5: expected 3 literal(s), got '6'"; binary: "byte 18:
# negative literal in AND 6").
PROPERTY_REPROS = {
    "aag": b"aag 3 2 0 1 1 1\n2\n4\n6\n6\n6 4 2\n",
    "aig": b"aig 3 2 0 1 1 1\n6\n6\n\x02\x02",
}


@pytest.mark.parametrize("fmt", ("aag", "aig"))
@pytest.mark.parametrize("counts,section", (
    ("repro", "bad-state"),
    ("1 0 0 0", "bad-state"),
    ("0 1 0 0", "invariant"),
    ("0 0 1 0", "justice"),
    ("0 0 0 1", "fairness"),
))
def test_property_sections_are_refused_at_the_header(fmt, counts, section, tmp_path):
    path = tmp_path / f"p.{fmt}"
    if counts == "repro":
        path.write_bytes(PROPERTY_REPROS[fmt])
    else:
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        aig.add_po(aig.and_(a, b))
        (write_aag if fmt == "aag" else write_aig)(aig, path)
        head, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(head + b" " + counts.encode() + b"\n" + rest)
    where = "line 1" if fmt == "aag" else "byte 0"
    with pytest.raises(AigerFormatError, match=f"^{where}: 1 {section}"):
        read_aiger(path)


def _reference_gate(aig: Aig, gate: str, a: int, b: int, c: int) -> int:
    """The gates as they were composed before ``and_`` was inlined."""
    and_ = lambda x, y: reference_and(aig, x, y)  # noqa: E731
    if gate == "or":
        return and_(a ^ 1, b ^ 1) ^ 1
    if gate == "xor":
        return and_(and_(a, b ^ 1) ^ 1, and_(a ^ 1, b) ^ 1) ^ 1
    return and_(and_(a, b) ^ 1, and_(a ^ 1, c) ^ 1) ^ 1  # mux


@given(seed=st.integers(0, 10 ** 9))
@settings(max_examples=150, deadline=None)
def test_and_leaves_the_reference_state(seed):
    """The same ops on two graphs — new nodes, strash hits, foldings,
    gates, replacements that free ids for reuse, bad literals — one
    through ``and_`` and one through :func:`reference_and`."""
    rng = random.Random(seed)
    ours, ref = Aig(), Aig()
    lits = [0, 1]
    for _ in range(rng.randint(1, 4)):
        lits.append(ours.add_pi())
        ref.add_pi()
    for _ in range(rng.randint(0, 80)):
        op = rng.random()
        a, b, c = (rng.choice(lits) ^ rng.randint(0, 1) for _ in range(3))
        if op < 0.05:  # a literal out of range or on a dead node
            bad = rng.choice((-1, 2 * ours.size, 2 * (ours._free or [0])[0]))
            outcomes = []
            for build in (ours.and_, lambda x, y: reference_and(ref, x, y)):
                try:
                    outcomes.append(build(a, bad))
                except AigError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        elif op < 0.2 and ours.num_ands:
            live = [v for v in ours.ands() if ours.nref(v)]
            if live:
                victim = rng.choice(live)
                above = tfo(ours, [victim])
                subst = rng.choice([l for l in lits if l >> 1 not in above
                                    and not ours.is_dead(l >> 1)])
                subst ^= rng.randint(0, 1)
                ours.replace(victim, subst)
                ref.replace(victim, subst)
            lits = [l for l in lits if not ours.is_dead(l >> 1)]
        elif op < 0.35:
            gate = rng.choice(("or", "xor", "mux"))
            got = (ours.or_(a, b) if gate == "or" else ours.xor_(a, b)
                   if gate == "xor" else ours.mux_(a, b, c))
            assert got == _reference_gate(ref, gate, a, b, c)
            lits.append(got)
        else:
            got = ours.and_(a, b)
            assert got == reference_and(ref, a, b)
            lits.append(got)
            if rng.random() < 0.3:
                ours.add_po(got)
                ref.add_po(got)
        assert graph_state(ours) == graph_state(ref)
