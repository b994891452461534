"""The array backend's word dtypes and byte-table diamond against the scalar
evaluator, its memory per entry, and the lone statement's first block.
"""

import random
import tracemalloc
from math import prod

import numpy as np
import pytest

import modalbench.vector as vector
from modalbench.algebra import check_validity
from modalbench.chains import make_chain
from modalbench.kripke import Evaluator, frame_from_edges
from modalbench.syntax import parse_statement
from modalbench.terms import eq, walk
from modalbench.vector import SpaceEvaluator, word_dtype

WORD = {0: np.uint8, 1: np.uint8, 7: np.uint8, 8: np.uint8,
        9: np.uint16, 16: np.uint16, 17: np.uint32, 24: np.uint32}


def random_frame(worlds: int, density: float, rng: random.Random):
    return frame_from_edges(worlds, [(i, j) for i in range(worlds) for j in range(worlds)
                                     if rng.random() < density])


@pytest.mark.parametrize("worlds", sorted(WORD))
def test_box_and_diamond_match_the_scalar_evaluator(store, worlds):
    # every byte boundary and every dtype up to 32 worlds; frames of more
    # than 9 worlds are read in windows of 64 values at random offsets, and
    # a term is read as the gap of t = F
    rng = random.Random(worlds)
    x = store.var("x")
    modal = [store.dia(x), store.box(x), store.box(store.dia(store.not_(x)))]
    for density in (0.1, 0.5, 0.9):
        frame = random_frame(worlds, density, rng)
        ev = SpaceEvaluator(frame, ["x"])
        assert word_dtype(worlds) == ev.ops[0].dtype == WORD[worlds]
        scalar = Evaluator(frame)
        if worlds <= 9:
            windows = [(0, ev.size)]
        else:
            windows = [(0, 64), (ev.size - 64, ev.size)] + [
                (lo, lo + 64) for lo in (rng.randrange(ev.size - 64) for _ in range(2))]
        for lo, hi in windows:
            for t in modal:
                got = ev.gap(eq(t, store.bot()), ((lo, hi),))
                assert got.dtype == WORD[worlds]
                assert [int(v) for v in got] == [
                    scalar.evaluate(t, {"x": v}) for v in range(lo, hi)]


def test_sampled_check_on_64_worlds_reports_the_first_failing_row(store):
    # eight tables and uint64 words; a sparse frame, so that the rows the
    # hunt starts with (all empty, all full) hold and a random row refutes
    frame = random_frame(64, 2 / 64, random.Random(64))
    stmt = parse_statement("[]x <= [][]x", store)
    names, seed = ["x"], 3
    report = check_validity(frame, stmt, names, samples=1000, seed=seed)
    assert report.verdict == "countermodel" and report.valuations_tried > 2
    scalar = Evaluator(frame)
    assignment = {"x": report.valuation.bits("x")}
    assert scalar.statement_gap(stmt, assignment) != 0
    rng = random.Random(seed)
    earlier = [0, frame.mask] + [rng.getrandbits(64)
                                 for _ in range(report.valuations_tried - 3)]
    assert all(scalar.statement_gap(stmt, {"x": v}) == 0 for v in earlier)
    assert rng.getrandbits(64) == assignment["x"]


def test_validity_memory_is_one_byte_per_entry(store):
    stmt = parse_statement("tpow(4) = tpow(5)", store)
    nodes = len(set(walk(stmt.lhs)) | set(walk(stmt.rhs)))
    tracemalloc.start()
    try:
        report = check_validity(make_chain(7), stmt, ["x", "y", "z"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == "valid" and report.valuations_tried == 1 << 21
    assert peak < nodes * (1 << 20) + (64 << 10)  # blocks of 2^20 uint8 entries


def test_an_early_refutation_reads_one_small_block(monkeypatch, store):
    read = []
    real = vector._first_in_block
    monkeypatch.setattr(vector, "_first_in_block",
                        lambda shape, *args: read.append(prod(shape)) or real(shape, *args))
    report = check_validity(make_chain(7), parse_statement("tpow(2) = tpow(3)", store),
                            ["x", "y", "z"])
    assert report.verdict == "countermodel" and report.valuations_tried == 1
    assert len(read) == 1 and read[0] <= 1 << 12
