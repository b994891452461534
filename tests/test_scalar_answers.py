"""Every answer of a set of scalar (int backend) runs against answers pinned
in tests/data/scalar_answers_1fe173b.json: fixpoint indices, lemma
certificates, tpow values under the alternating valuation, and fixpoint
orbits on random frames.

The pinned file was written by this module, run as a script against the
source tree of commit 1fe173b:

    PYTHONPATH=src python tests/test_scalar_answers.py tests/data/scalar_answers_1fe173b.json

A change to the scalar evaluator or to the drivers above it must leave
every answer as it was.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from modalbench.algebra import fixpoint_index
from modalbench.chains import check_lemma, lemma_valuation, make_chain
from modalbench.kripke import Model, Valuation, evaluate, evaluate_orbit, frame_from_edges
from modalbench.syntax import parse_formula
from modalbench.terms import TermStore, chain_term

PINNED = Path(__file__).resolve().parent / "data" / "scalar_answers_1fe173b.json"


def loops_of(mask: int) -> list[int]:
    return [w for w in range(mask.bit_length()) if mask >> w & 1]


def fixpoint_answers() -> list:
    term = parse_formula("<>x | x", TermStore())
    out = []
    for size in range(1, 5):
        for mask in range(1 << size):
            frame = make_chain(size, loops_of(mask))
            for base in range(1 << size):
                result = fixpoint_index(frame, term, "x", base)
                out.append([size, mask, base, result.to_json()])
    return out


def lemma_answers() -> list:
    return [[n, mask, check_lemma(n, loops_of(mask)).to_json()]
            for n in range(1, 4) for mask in range(1 << 2 * n + 1)]


def tpow_answers() -> list:
    out = []
    for n in range(1, 5):
        model = Model(make_chain(2 * n + 1), lemma_valuation(n))
        for k in range(5):
            out.append([n, k, evaluate(model, parse_formula(f"tpow({k})", TermStore()))])
    return out


def orbit_answers() -> list:
    out = []
    for worlds in (9, 17, 33, 64):
        for i in range(5):
            seed = worlds * 10 + i
            rng = random.Random(seed)
            density = rng.choice([1.5, 3.0, worlds / 4]) / worlds
            frame = frame_from_edges(worlds, [(a, b) for a in range(worlds)
                                              for b in range(worlds) if rng.random() < density])
            bits = {name: rng.getrandbits(worlds) for name in ("x", "y", "z")}
            k = rng.randrange(worlds + 2)
            orbit = evaluate_orbit(Model(frame, Valuation(bits)), chain_term(TermStore()),
                                   "x", bits["x"], k)
            out.append([worlds, seed, list(frame.succ), bits, k, orbit])
    return out


SECTIONS = {"fixpoint": fixpoint_answers, "lemma": lemma_answers, "tpow": tpow_answers,
            "orbit": orbit_answers}


def pinned() -> dict:
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_answers_equal_the_pinned_ones(section):
    want = pinned()[section]
    got = json.loads(json.dumps(SECTIONS[section]()))
    assert len(got) == len(want)
    assert got == want


def test_the_pinned_sets_are_whole():
    answers = pinned()
    assert [len(answers[s]) for s in ("fixpoint", "lemma", "tpow", "orbit")] == \
        [340, 168, 20, 20]
    assert {row[2]["valid"] for row in answers["lemma"]} == {True}


def write(path: str) -> None:
    """Write every section, one compact JSON line per answer."""
    lines = ["{"]
    for s, (section, compute) in enumerate(SECTIONS.items()):
        rows = [json.dumps(row, separators=(",", ":")) for row in compute()]
        lines.append(f'"{section}": [')
        lines += [row + ("," if i < len(rows) - 1 else "") for i, row in enumerate(rows)]
        lines.append("]" + ("," if s < len(SECTIONS) - 1 else ""))
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    write(sys.argv[1])
