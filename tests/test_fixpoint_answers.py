"""Every answer of fixpoint_index on a set of frames, terms, bases and
parameters against answers pinned in tests/data/fixpoint_answers_73f96c3.json:
the result, or the exact text of the refusal.

The pinned file was written by this module, run as a script against the
source tree of commit 73f96c3:

    PYTHONPATH=src python tests/test_fixpoint_answers.py tests/data/fixpoint_answers_73f96c3.json

Each line is one case: [worlds, edges, term, base, params, answer], where
params is null or a map from name to bitset (given only to the terms that
read y and z, each also pinned without), and answer is the result's
to_json() or the refusal's text. A change to the precheck or the orbit must
leave every answer as it was, including which pivot value and which world a
refusal names.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from modalbench.algebra import fixpoint_index
from modalbench.chains import make_chain
from modalbench.errors import InputError
from modalbench.kripke import Frame, Valuation, bits_to_worlds, frame_from_edges
from modalbench.syntax import parse_formula
from modalbench.terms import TermStore

PINNED = Path(__file__).resolve().parent / "data" / "fixpoint_answers_73f96c3.json"

TERMS = ["<>x | x", "[](y | [](z | x)) | x", "x | <>(x & y)", "x | []~x", "x | ~<>x",
         "~x", "[]x", "x & y"]


def random_frame(worlds: int, rng: random.Random) -> Frame:
    density = rng.choice([0.2, 0.4, 0.7])
    return frame_from_edges(worlds, [(a, b) for a in range(worlds) for b in range(worlds)
                                     if rng.random() < density])


def frames() -> list[Frame]:
    rng = random.Random(26)
    out = [random_frame(worlds, rng) for worlds in range(6) for _ in range(2 + (worlds > 3))]
    return out + [make_chain(size, bits_to_worlds(mask))
                  for size in range(1, 4) for mask in range(1 << size)]


def cases() -> list[tuple]:
    """(frame, term text, base, params) for every pinned case, in file order."""
    rng = random.Random(73)
    out = []
    for frame in frames():
        full = 1 << frame.worlds
        bases = (range(full) if frame.worlds <= 3
                 else sorted({rng.randrange(full) for _ in range(3)}))
        params = {"y": rng.randrange(full), "z": rng.randrange(full)}
        for text in TERMS:  # parameters only where the term reads them
            for p in [None, params] if "y" in text else [None]:
                out += [(frame, text, base, p) for base in bases]
    return out


def answer(frame: Frame, text: str, base: int, params: dict | None):
    term = parse_formula(text, TermStore())
    try:
        result = fixpoint_index(frame, term, "x", base,
                                None if params is None else Valuation(params))
    except InputError as refusal:
        return str(refusal)
    return result.to_json()


def pinned() -> list:
    return json.loads(PINNED.read_text())


def test_answers_equal_the_pinned_ones():
    want = pinned()
    got = [[worlds, edges, text, base, params,
            answer(frame_from_edges(worlds, edges), text, base, params)]
           for worlds, edges, text, base, params, _ in want]
    assert got == want


def test_the_pinned_set_is_whole():
    want = pinned()
    assert [[f.worlds, [list(e) for e in f.edges()], text, base, params]
            for f, text, base, params in cases()] == [row[:5] for row in want]
    refusals = [row[5] for row in want if isinstance(row[5], str)]
    assert any("not increasing" in r for r in refusals)
    assert any("not monotone" in r for r in refusals)
    assert len(refusals) < len(want)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_every_chain_and_base_is_pinned(size):
    seen = {(row[0], json.dumps(row[1]), row[3]) for row in pinned()}
    for mask in range(1 << size):
        edges = json.dumps([list(e) for e in make_chain(size, bits_to_worlds(mask)).edges()])
        assert all((size, edges, base) in seen for base in range(1 << size))


def write(path: str) -> None:
    """Write every case, one compact JSON line each."""
    rows = [json.dumps([frame.worlds, [list(e) for e in frame.edges()], text, base, params,
                        answer(frame, text, base, params)], separators=(",", ":"))
            for frame, text, base, params in cases()]
    Path(path).write_text("[\n" + ",\n".join(rows) + "\n]\n")


if __name__ == "__main__":
    write(sys.argv[1])
