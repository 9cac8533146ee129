"""AIGER reader/writer (ASCII ``.aag`` and binary ``.aig``).

Implements the combinational subset of the AIGER 1.9 format: latches
and property sections (B/C/J/F) are rejected with a located error.
Both writers number nodes compactly in one topological pass, as the
binary format requires (each AND's literal exceeds both fanins').  The
binary AND section is coded in vector passes (DESIGN §4k): all ``2·A``
varint deltas are encoded at once and written in one call, or decoded
with one ``np.add.reduceat`` over the bytes between terminators
(``< 0x80``) and checked before the build.  The build stays one
sequential :meth:`Aig.and_` loop, because strash folding of duplicate
or trivial ANDs in a file depends on their order.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple, Union

import numpy as np

from ..errors import AigerFormatError
from .graph import Aig

PathOrFile = Union[str, "os.PathLike[str]"]

# The AIGER 1.9 header counts past A; this subset reads none of them.
_PROPERTY_SECTIONS = ("bad-state properties (B)", "invariant constraints (C)",
                      "justice properties (J)", "fairness constraints (F)")
_DELTA_CLAMP = 1 << 62  # any larger delta is a negative literal


def write_aag(aig: Aig, path: PathOrFile) -> None:
    """Write the AIG in ASCII AIGER format."""
    pos, rhs0, rhs1 = _numbered(aig)
    i, a = aig.num_pis, len(rhs0)
    lines = [f"aag {i + a} {i} 0 {aig.num_pos} {a}"]
    lines += map(str, range(2, 2 * i + 1, 2))
    lines += map(str, pos.tolist())
    lines += map("{} {} {}".format, range(2 * i + 2, 2 * (i + a) + 1, 2),
                 rhs0.tolist(), rhs1.tolist())
    if aig.name:
        lines += ["c", aig.name]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_aig(aig: Aig, path: PathOrFile) -> None:
    """Write the AIG in binary AIGER format."""
    pos, rhs0, rhs1 = _numbered(aig)
    i, a = aig.num_pis, len(rhs0)
    deltas = np.empty(2 * a, dtype=np.int64)
    deltas[0::2] = np.arange(2 * i + 2, 2 * (i + a) + 1, 2) - rhs0
    deltas[1::2] = rhs0 - rhs1
    section = _encode_deltas(deltas)
    with open(path, "wb") as fh:
        fh.write(f"aig {i + a} {i} 0 {aig.num_pos} {a}\n".encode("ascii"))
        fh.write("".join(f"{lit}\n" for lit in pos.tolist()).encode("ascii"))
        fh.write(section)
        if aig.name:
            fh.write(b"c\n")
            fh.write(aig.name.encode("utf-8") + b"\n")


def read_aiger(path: PathOrFile) -> Aig:
    """Read either an ASCII or binary AIGER file (sniffs the header).

    Malformed input of any kind ends in :class:`AigerFormatError`
    naming the line (ASCII) or byte offset (binary) where it broke; the
    header's counts are checked against the file before anything is
    built."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"\n")
    end = len(data) if end < 0 else end
    header = data[:end].split()
    if not header:
        raise AigerFormatError("empty AIGER file")
    fmt = header[0]
    if fmt == b"aag":
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise AigerFormatError(f"byte {exc.start}: not ASCII") from None
        return _parse_aag(text)
    if fmt == b"aig":
        return _parse_binary(header, data, end + 1)
    raise AigerFormatError(f"unknown AIGER format marker {fmt!r}")


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------


def _numbered(aig: Aig) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The PO literals and every AND's fanin literals, larger first,
    under compact numbering: PI ``k`` is var ``k + 1`` and the ``j``-th
    AND in topological order is var ``num_pis + 1 + j``."""
    ands = aig.topo_ands()
    i, a = aig.num_pis, len(ands)
    var_map = np.zeros(aig.size, dtype=np.int64)
    var_map[list(aig.pis)] = np.arange(1, i + 1)
    var_map[ands] = np.arange(i + 1, i + a + 1)

    def mapped(lits: np.ndarray) -> np.ndarray:
        return 2 * var_map[lits >> 1] + (lits & 1)

    pos = mapped(np.array(aig.pos, dtype=np.int64))
    rhs0 = mapped(np.fromiter(map(aig._fanin0.__getitem__, ands), np.int64, a))
    rhs1 = mapped(np.fromiter(map(aig._fanin1.__getitem__, ands), np.int64, a))
    return pos, np.maximum(rhs0, rhs1), np.minimum(rhs0, rhs1)


def _encode_deltas(deltas: np.ndarray) -> bytes:
    """The AIGER varints of ``deltas``: 7 bits per byte, low group
    first, the high bit set on every byte but a value's last."""
    bad = np.flatnonzero(deltas <= 0)
    if bad.size:
        raise AigerFormatError(f"non-positive AIGER delta {deltas[bad[0]]}")
    size = np.ones(len(deltas), dtype=np.uint8)
    bound = 1 << 7
    while bound <= int(deltas.max(initial=0)):
        size += deltas >= bound
        bound <<= 7
    out = np.empty(int(size.sum(dtype=np.int64)), dtype=np.uint8)
    start = np.cumsum(size, dtype=np.int64) - size
    at = np.arange(len(deltas))
    for k in range(int(size.max(initial=0))):
        at = at[size[at] > k]
        group = (deltas[at] >> 7 * k) & 0x7F
        group[size[at] > k + 1] |= 0x80
        out[start[at] + k] = group
    return out.tobytes()


def _parse_header_counts(parts: List[bytes],
                         where: str) -> Tuple[int, int, int, int, int]:
    if len(parts) < 6:
        raise AigerFormatError(f"short AIGER header: {parts!r}")
    try:
        m, i, l, o, a, *props = (int(p) for p in parts[1:10])
    except ValueError as exc:
        raise AigerFormatError(f"bad AIGER header: {parts!r}") from exc
    if min(m, i, l, o, a, *props) < 0:
        raise AigerFormatError(f"negative count in AIGER header: {parts!r}")
    if l != 0:
        raise AigerFormatError(f"{where}: latches are not supported")
    for section, count in zip(_PROPERTY_SECTIONS, props):
        if count:
            raise AigerFormatError(f"{where}: {count} {section} announced, "
                                   "not supported (combinational only)")
    if m < i + a:
        raise AigerFormatError(f"inconsistent header: M={m} < I+A={i + a}")
    return m, i, l, o, a


def _literals(field: str, count: int, max_lit: int, where: str) -> List[int]:
    """``count`` literals in ``0..max_lit`` from one text line."""
    parts = field.split()
    if len(parts) != count:
        raise AigerFormatError(f"{where}: expected {count} literal(s), got {field!r}")
    try:
        lits = [int(p) for p in parts]
    except ValueError:
        raise AigerFormatError(f"{where}: bad literal in {field!r}") from None
    for lit in lits:
        if not 0 <= lit <= max_lit:
            raise AigerFormatError(f"{where}: literal {lit} outside 0..{max_lit}")
    return lits


def _parse_aag(text: str) -> Aig:
    lines = text.splitlines()
    m, i, _, o, a = _parse_header_counts(
        [p.encode() for p in lines[0].split()], "line 1")
    if 1 + i + o + a > len(lines):
        raise AigerFormatError(
            f"line {len(lines)}: truncated, the header announces "
            f"{1 + i + o + a} lines")
    max_lit = 2 * m + 1
    aig = Aig()
    lit_map: Dict[int, int] = {0: 0}
    for n in range(1, 1 + i):
        lit, = _literals(lines[n], 1, max_lit, f"line {n + 1}")
        if lit & 1 or lit == 0:
            raise AigerFormatError(f"line {n + 1}: bad input literal {lit}")
        lit_map[lit] = aig.add_pi()
    po_lits = [(_literals(lines[n], 1, max_lit, f"line {n + 1}")[0], n)
               for n in range(1 + i, 1 + i + o)]
    pending = [(*_literals(lines[n], 3, max_lit, f"line {n + 1}"), n)
               for n in range(1 + i + o, 1 + i + o + a)]
    _build_ands(aig, lit_map, pending)
    for lit, n in po_lits:
        aig.add_po(_resolve(lit, lit_map, f"line {n + 1}"))
    return aig


def _parse_binary(header: List[bytes], data: bytes, pos: int) -> Aig:
    m, i, _, o, a = _parse_header_counts(header, "byte 0")
    # Every output line and every AND's delta pair takes two bytes or
    # more; inputs take none, so a large I is legal.
    if 2 * (o + a) > len(data) - pos:
        raise AigerFormatError(
            f"byte {len(data)}: truncated, the header announces {o} outputs "
            f"and {a} ANDs")
    max_lit = 2 * m + 1
    po_lits = []
    for _ in range(o):
        end = data.find(b"\n", pos)
        if end < 0:
            raise AigerFormatError(f"byte {pos}: truncated binary AIGER outputs")
        field = data[pos:end].decode("ascii", errors="replace")
        po_lits.append((_literals(field, 1, max_lit, f"byte {pos}")[0], pos))
        pos = end + 1
    rhs0, rhs1 = _decode_ands(data, pos, i, a)
    aig = Aig()
    lits = [0] + [aig.add_pi() for _ in range(i)]  # file var -> literal
    and_, append = aig.and_, lits.append
    for r0, r1 in zip(memoryview(rhs0), memoryview(rhs1)):
        append(and_(lits[r0 >> 1] ^ (r0 & 1), lits[r1 >> 1] ^ (r1 & 1)))
    for lit, at in po_lits:
        if lit >> 1 >= len(lits):
            raise AigerFormatError(f"byte {at}: undefined literal {lit}")
        aig.add_po(lits[lit >> 1] ^ (lit & 1))
    return aig


def _decode_ands(data: bytes, pos: int, i: int,
                 a: int) -> Tuple[np.ndarray, np.ndarray]:
    """The fanin literals of the ``a`` ANDs whose delta pairs start at
    ``data[pos]``, checked: the first AND with a negative or undefined
    literal, else the first truncated delta, raises at its byte."""
    buf = np.frombuffer(data, dtype=np.uint8, offset=pos)
    ends = np.flatnonzero(buf < 0x80)[:2 * a]  # each delta's last byte
    starts = np.concatenate(([0], ends[:-1] + 1)) if len(ends) else ends
    stop = int(ends[-1]) + 1 if len(ends) else 0
    group = np.arange(stop, dtype=np.int64)
    group -= np.repeat(starts, ends - starts + 1)  # place in its delta
    low = buf[:stop] & 0x7F
    # Over-long varints: any payload past bit 62 clamps the delta.
    clamp = np.logical_or.reduceat((group > 8) & (low != 0), starts)
    np.minimum(group, 8, out=group)
    group *= 7
    payload = low.astype(np.int64)
    payload <<= group
    del group
    deltas = np.add.reduceat(payload, starts)
    del payload
    deltas[clamp] = _DELTA_CLAMP
    np.minimum(deltas, _DELTA_CLAMP, out=deltas)
    pairs = len(ends) // 2
    rhs0 = np.arange(2 * i + 2, 2 * (i + pairs) + 1, 2) - deltas[0:2 * pairs:2]
    rhs1 = rhs0 - deltas[1:2 * pairs:2]
    # A zero first delta names the AND's own, not yet defined, literal.
    bad = np.flatnonzero((rhs1 < 0) | (deltas[0:2 * pairs:2] == 0))
    if bad.size:
        k = int(bad[0])
        at = pos + int(starts[2 * k])
        lhs = 2 * (i + 1 + k)
        if rhs1[k] < 0:
            raise AigerFormatError(f"byte {at}: negative literal in AND {lhs}")
        raise AigerFormatError(f"byte {at}: undefined literal {lhs}")
    if len(ends) < 2 * a:
        raise AigerFormatError(
            f"byte {pos + stop}: truncated binary AIGER delta")
    return rhs0, rhs1


def _build_ands(aig: Aig, lit_map: Dict[int, int],
                pending: List[Tuple[int, int, int, int]]) -> None:
    """Build ASCII-declared ANDs ``(lhs, rhs0, rhs1, line index)``,
    tolerating any declaration order."""
    remaining = list(pending)
    while remaining:
        progressed = False
        deferred: List[Tuple[int, int, int, int]] = []
        for lhs, rhs0, rhs1, n in remaining:
            if lhs & 1 or lhs == 0:
                raise AigerFormatError(f"line {n + 1}: bad AND literal {lhs}")
            ready0 = (rhs0 & ~1) in lit_map or rhs0 <= 1
            ready1 = (rhs1 & ~1) in lit_map or rhs1 <= 1
            if ready0 and ready1:
                where = f"line {n + 1}"
                lit_map[lhs] = aig.and_(
                    _resolve(rhs0, lit_map, where), _resolve(rhs1, lit_map, where)
                )
                progressed = True
            else:
                deferred.append((lhs, rhs0, rhs1, n))
        if not progressed and deferred:
            raise AigerFormatError(
                f"line {deferred[0][3] + 1}: cyclic or dangling AND "
                f"definitions: {[d[:3] for d in deferred[:3]]!r}..."
            )
        remaining = deferred


def _resolve(lit: int, lit_map: Dict[int, int], where: str) -> int:
    if lit <= 1:
        return lit
    base = lit & ~1
    if base not in lit_map:
        raise AigerFormatError(f"{where}: undefined literal {lit}")
    return lit_map[base] ^ (lit & 1)
