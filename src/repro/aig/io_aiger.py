"""AIGER reader/writer (ASCII ``.aag`` and binary ``.aig``).

Implements the combinational subset of the AIGER 1.9 format: latches
are rejected (the paper's flow is purely combinational).  The binary
writer re-numbers nodes topologically as the format requires
(each AND's literal must exceed both fanin literals).
"""

from __future__ import annotations

import os
from typing import BinaryIO, Dict, List, Tuple, Union

from ..errors import AigerFormatError
from .graph import Aig
from .literals import lit_var

PathOrFile = Union[str, "os.PathLike[str]"]


def write_aag(aig: Aig, path: PathOrFile) -> None:
    """Write the AIG in ASCII AIGER format."""
    var_map, ands = _compact_numbering(aig)
    max_var = aig.num_pis + len(ands)
    lines = [f"aag {max_var} {aig.num_pis} 0 {aig.num_pos} {len(ands)}"]
    for i in range(aig.num_pis):
        lines.append(str(2 * (i + 1)))
    for lit in aig.pos:
        lines.append(str(_map_lit(lit, var_map)))
    for var in ands:
        lhs = 2 * var_map[var]
        rhs0 = _map_lit(aig.fanin0(var), var_map)
        rhs1 = _map_lit(aig.fanin1(var), var_map)
        if rhs0 < rhs1:
            rhs0, rhs1 = rhs1, rhs0
        lines.append(f"{lhs} {rhs0} {rhs1}")
    if aig.name:
        lines.append("c")
        lines.append(aig.name)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_aig(aig: Aig, path: PathOrFile) -> None:
    """Write the AIG in binary AIGER format."""
    var_map, ands = _compact_numbering(aig)
    max_var = aig.num_pis + len(ands)
    with open(path, "wb") as fh:
        header = f"aig {max_var} {aig.num_pis} 0 {aig.num_pos} {len(ands)}\n"
        fh.write(header.encode("ascii"))
        for lit in aig.pos:
            fh.write(f"{_map_lit(lit, var_map)}\n".encode("ascii"))
        for var in ands:
            lhs = 2 * var_map[var]
            rhs0 = _map_lit(aig.fanin0(var), var_map)
            rhs1 = _map_lit(aig.fanin1(var), var_map)
            if rhs0 < rhs1:
                rhs0, rhs1 = rhs1, rhs0
            _write_delta(fh, lhs - rhs0)
            _write_delta(fh, rhs0 - rhs1)
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


def _compact_numbering(aig: Aig) -> Tuple[Dict[int, int], List[int]]:
    """Map internal var ids to compact AIGER numbering (PIs first, then
    ANDs in topological order)."""
    var_map: Dict[int, int] = {0: 0}
    for i, pi in enumerate(aig.pis):
        var_map[pi] = i + 1
    ands = aig.topo_ands()
    for j, var in enumerate(ands):
        var_map[var] = aig.num_pis + 1 + j
    return var_map, ands


def _map_lit(lit: int, var_map: Dict[int, int]) -> int:
    return 2 * var_map[lit_var(lit)] + (lit & 1)


def _write_delta(fh: BinaryIO, delta: int) -> None:
    if delta <= 0:
        raise AigerFormatError(f"non-positive AIGER delta {delta}")
    while delta >= 0x80:
        fh.write(bytes((0x80 | (delta & 0x7F),)))
        delta >>= 7
    fh.write(bytes((delta,)))


def _read_delta(data: bytes, pos: int) -> Tuple[int, int]:
    """The delta encoded at ``data[pos:]`` and the offset after it."""
    value = shift = 0
    for at in range(pos, len(data)):
        b = data[at]
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, at + 1
        shift += 7
    raise AigerFormatError(f"byte {pos}: truncated binary AIGER delta")


def _parse_header_counts(parts: List[bytes]) -> Tuple[int, int, int, int, int]:
    if len(parts) < 6:
        raise AigerFormatError(f"short AIGER header: {parts!r}")
    try:
        m, i, l, o, a = (int(p) for p in parts[1:6])
    except ValueError as exc:
        raise AigerFormatError(f"bad AIGER header: {parts!r}") from exc
    if min(m, i, l, o, a) < 0:
        raise AigerFormatError(f"negative count in AIGER header: {parts!r}")
    if l != 0:
        raise AigerFormatError("latches are not supported (combinational only)")
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
    m, i, _, o, a = _parse_header_counts([p.encode() for p in lines[0].split()])
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
    m, i, _, o, a = _parse_header_counts(header)
    # Every output line and every AND's delta pair takes two bytes or
    # more; inputs take none, so a large I is legal.
    if 2 * (o + a) > len(data) - pos:
        raise AigerFormatError(
            f"byte {len(data)}: truncated, the header announces {o} outputs "
            f"and {a} ANDs")
    max_lit = 2 * m + 1
    aig = Aig()
    lit_map: Dict[int, int] = {0: 0}
    for k in range(i):
        lit_map[2 * (k + 1)] = aig.add_pi()
    po_lits = []
    for _ in range(o):
        end = data.find(b"\n", pos)
        if end < 0:
            raise AigerFormatError(f"byte {pos}: truncated binary AIGER outputs")
        field = data[pos:end].decode("ascii", errors="replace")
        po_lits.append((_literals(field, 1, max_lit, f"byte {pos}")[0], pos))
        pos = end + 1
    for k in range(a):
        lhs, at = 2 * (i + 1 + k), pos
        delta0, pos = _read_delta(data, pos)
        delta1, pos = _read_delta(data, pos)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if rhs1 < 0:
            raise AigerFormatError(f"byte {at}: negative literal in AND {lhs}")
        where = f"byte {at}"
        lit_map[lhs] = aig.and_(_resolve(rhs0, lit_map, where),
                                _resolve(rhs1, lit_map, where))
    for lit, at in po_lits:
        aig.add_po(_resolve(lit, lit_map, f"byte {at}"))
    return aig


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
