"""Malformed AIGER input ends in ``AigerFormatError``, never another
exception.

Single mutations of a valid file — truncation, a flipped bit, a deleted
byte, a run of digits spliced in — either still parse to a structurally
sound graph or raise the reader's named error, each within a second;
header counts are checked against the file before anything is built.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.aig import check, read_aiger, write_aag, write_aig
from repro.bench import mtm_like
from repro.errors import AigerFormatError

MUTATIONS = 300


def _mutate(data: bytes, rng: random.Random) -> bytes:
    pos = rng.randrange(len(data))
    kind = rng.randrange(4)
    if kind == 0:  # truncate
        return data[:pos]
    if kind == 1:  # flip one bit
        flipped = data[pos] ^ (1 << rng.randrange(8))
        return data[:pos] + bytes((flipped,)) + data[pos + 1:]
    if kind == 2:  # delete one byte
        return data[:pos] + data[pos + 1:]
    digits = str(rng.randrange(10 ** rng.randint(1, 12))).encode()
    return data[:pos] + digits + data[pos:]  # splice digits in


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    aig = mtm_like(8, 200, 1)
    folder = tmp_path_factory.mktemp("aiger")
    out = {}
    for writer, name in ((write_aig, "c.aig"), (write_aag, "c.aag")):
        path = folder / name
        writer(aig, path)
        out[name] = path.read_bytes()
    return out


@pytest.mark.parametrize("name,seed", (("c.aig", 1), ("c.aag", 2)))
def test_single_mutations_end_in_a_named_error_or_a_sound_graph(
        originals, name, seed, tmp_path):
    rng = random.Random(seed)
    path = tmp_path / name
    outcomes = {"error": 0, "parsed": 0}
    for _ in range(MUTATIONS):
        path.write_bytes(_mutate(originals[name], rng))
        start = time.perf_counter()
        try:
            aig = read_aiger(path)
        except AigerFormatError:
            outcomes["error"] += 1
        else:
            check(aig)
            outcomes["parsed"] += 1
        assert time.perf_counter() - start < 1.0
    assert outcomes["error"] and outcomes["parsed"]  # both branches exercised


def test_huge_output_count_fails_before_allocating(tmp_path):
    path = tmp_path / "huge.aig"
    path.write_bytes(b"aig 5 0 0 1000000000 0\n")
    start = time.perf_counter()
    with pytest.raises(AigerFormatError, match="truncated"):
        read_aiger(path)
    assert time.perf_counter() - start < 0.1


def test_truncated_and_section_names_its_line(tmp_path):
    path = tmp_path / "cut.aag"
    write_aag(mtm_like(8, 200, 1), path)
    lines = path.read_text().splitlines()
    _, _, i, _, o, a = lines[0].split()
    last = int(i) + int(o) + int(a)  # the last AND line's index
    path.write_text("\n".join(lines[:last] + [lines[last].split()[0]]) + "\n")
    with pytest.raises(AigerFormatError, match=f"line {last + 1}: expected 3"):
        read_aiger(path)


@pytest.mark.parametrize("text", (
    "aag 3 -1 0 1 0\n2\n",       # negative count
    "aag 3 1 0 1 1\n2\n-6\n6 2 2\n",  # negative literal
    "aag 3 1 0 1 1\n2\n6\n6 2 x\n",   # not a number
))
def test_bad_ascii_fields_are_format_errors(text, tmp_path):
    path = tmp_path / "bad.aag"
    path.write_text(text)
    with pytest.raises(AigerFormatError):
        read_aiger(path)
