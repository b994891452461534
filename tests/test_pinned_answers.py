"""Every answer of the bench's validity and criterion-6 sets, and a set of
sampled hunts on larger frames, against answers pinned in
tests/data/answers_5ddc0a4.json.

The pinned file was written by this module, run as a script against the
source tree of commit 5ddc0a4:

    PYTHONPATH=src python tests/test_pinned_answers.py tests/data/answers_5ddc0a4.json

A change to the scan, its block sizes or its array layout must leave every
answer as it was: verdict, countermodel, count of valuations tried, failing
frame and world.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from modalbench.algebra import check_validity
from modalbench.chains import make_chain
from modalbench.consequence import ConsequenceProblem, build_sigma_pi, check_consequence
from modalbench.kripke import frame_from_edges
from modalbench.syntax import parse_statement
from modalbench.terms import TermStore, chain_term

PINNED = Path(__file__).resolve().parent / "data" / "answers_5ddc0a4.json"

STATEMENTS = ([f"tpow({n}) = tpow({n + 1})" for n in range(5)]
              + [f"spow({m}) <= tpow({m})" for m in range(1, 5)])
SAMPLED = ["[]x <= [][]x", "x <= []<>x", "<>[]x <= []<>x", "[](x -> y) <= []x -> []y",
           "tpow(2) = tpow(3)"]


def loops_of(mask: int) -> list[int]:
    return [w for w in range(mask.bit_length()) if mask >> w & 1]


def chains(sizes) -> list[tuple[int, int]]:
    return [(size, mask) for size in sizes for mask in range(1 << size)]


def validity_answers() -> list:
    frames = chains([5]) + [(7, 0), (7, (1 << 7) - 1)]
    out = []
    for text in STATEMENTS:
        for size, mask in frames:
            stmt = parse_statement(text, TermStore())
            report = check_validity(make_chain(size, loops_of(mask)), stmt, ["x", "y", "z"])
            out.append([text, size, mask, report.to_json()])
    return out


def consequence_answers() -> list:
    store = TermStore()
    sigma, pi = build_sigma_pi(chain_term(store), "x", 4)
    problems = ([("bounded", k, sigma, pi[k], 25) for k in range(4)]
                + [("weakened", k, [pi[k + 1]], pi[k], 24) for k in range(4)]
                + [("perturbed", k, [pi[k]], pi[k + 1], 24) for k in range(4)])
    out = []
    for size, mask in chains(range(1, 6)):
        frame = make_chain(size, loops_of(mask))
        for kind, k, premises, conclusion, max_bits in problems:
            result = check_consequence(
                ConsequenceProblem(premises, conclusion, [frame], max_bits=max_bits))
            out.append([kind, k, size, mask, result.to_json()])
    return out


def sampled_frame(worlds: int, seed: int):
    rng = random.Random(seed)
    density = rng.choice([1.5, 3.0, worlds / 4]) / worlds
    return frame_from_edges(worlds, [(i, j) for i in range(worlds) for j in range(worlds)
                                     if rng.random() < density])


def sampled_answers() -> list:
    out = []
    for worlds in (9, 17, 33, 64):
        for i, text in enumerate(SAMPLED):
            seed = worlds * 10 + i
            frame = sampled_frame(worlds, seed)
            stmt = parse_statement(text, TermStore())
            report = check_validity(frame, stmt, bit_cap=0, samples=3000, seed=seed)
            out.append([text, worlds, seed, list(frame.succ), report.to_json()])
    return out


SECTIONS = {"validity": validity_answers, "consequence": consequence_answers,
            "sampled": sampled_answers}


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
    assert [len(answers[s]) for s in ("validity", "consequence", "sampled")] == [306, 744, 20]
    sampled = [row[4]["verdict"] for row in answers["sampled"]]
    assert {"countermodel", "unknown"} <= set(sampled)


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
