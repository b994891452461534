"""The plane backend against the int backend, one assignment at a time: its
leaves, its diamond and box over runs of successors and gathered ones and
as running values on chains, the junk bits past a short packed axis,
premise scans and elimination; its memory, and the lone statement's blocks.
"""

import random
import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modalbench.vector as vector
from modalbench.algebra import check_validity
from modalbench.chains import make_chain
from modalbench.consequence import ConsequenceProblem, build_sigma_pi, check_consequence
from modalbench.kripke import Model, Program, bits_to_worlds, frame_from_edges, int_ops, run
from modalbench.syntax import parse_statement
from modalbench.terms import TermStore, chain_term, eq, leq, walk
from modalbench.vector import SpaceEvaluator, decode_index, first_countermodel

from oracles import naive_eval
from planes import world_sets
from strategies import build_term, term_plans

WORLDS = [0, 1, 5, 6, 7, 9, 64]
CLOSED = ["T = T", "<>T = T", "[]F = F", "<>T <= []F", "~<>T = []F"]


def random_frame(worlds: int, density: float, rng: random.Random):
    return frame_from_edges(worlds, [(i, j) for i in range(worlds) for j in range(worlds)
                                     if rng.random() < density])


@st.composite
def plane_frames(draw, sizes=tuple(WORLDS)):
    # sparse frames, whose successor sets are short runs, and dense ones,
    # whose worlds have many runs and are gathered
    worlds = draw(st.sampled_from(sizes))
    density = draw(st.sampled_from([0.1, 0.4, 0.9]))
    return random_frame(worlds, density, random.Random(draw(st.integers(0, 1 << 32))))


@st.composite
def statements(draw, store, names=("x", "y", "z")):
    if draw(st.integers(0, 5)) == 0:
        return parse_statement(draw(st.sampled_from(CLOSED)), store)
    lhs = build_term(draw(term_plans(names, max_depth=3)), store)
    rhs = build_term(draw(term_plans(names, max_depth=2)), store)
    return draw(st.sampled_from([eq, leq]))(lhs, rhs)


def int_gaps(frame, statements, assignment) -> list[int]:
    program = Program(statements)
    values = run(program, int_ops(frame), lambda name: assignment.get(name, 0))
    return [values[at] for at in program.roots]


@settings(max_examples=80)
@given(data=st.data())
def test_the_plane_run_matches_the_int_run_per_assignment(data):
    # aligned blocks below and above 64 assignments (junk bits past a short
    # packed axis), packed ranges off a word boundary, a trailing name that
    # no statement mentions (nothing packed), closed statements and no names
    frame = data.draw(plane_frames())
    store = TermStore()
    stmt = data.draw(statements(store))
    names = data.draw(st.sampled_from([[], ["x"], ["x", "y"], ["x", "y", "z"],
                                       ["z", "x"], ["x", "y", "z", "w"]]))
    size, n = 1 << frame.worlds, len(names)
    step = 1 << data.draw(st.integers(0, 8))
    lengths = vector._block_lengths(step, size, n)
    start = data.draw(st.integers(0, max(0, size ** n // step - 1))) * step
    block = [(d, d + k) for d, k in zip(vector._digits(start, n, size), lengths)]
    if n and data.draw(st.booleans()):  # the packed range anywhere
        lo = data.draw(st.integers(0, size - lengths[-1]))
        block[-1] = (lo, lo + lengths[-1])
    ev = SpaceEvaluator(frame, names)
    ev.plan([stmt])
    got = world_sets(ev.gap(stmt, tuple(block)), lengths)
    for at in np.ndindex(lengths or (1,)):
        assignment = {name: lo + i for name, (lo, _), i in zip(names, block, at)}
        assert int(got[at]) == int_gaps(frame, [stmt], assignment)[0]


def int_first_countermodel(frame, names, premises, conclusion):
    for idx in range((1 << frame.worlds) ** len(names)):
        conc, *rest = int_gaps(frame, [conclusion, *premises],
                               decode_index(idx, names, frame.worlds))
        if conc and not any(rest):
            return idx, conc
    return None


@settings(max_examples=40)
@given(data=st.data())
def test_premise_scans_and_elimination_match_the_int_scan(data):
    # small budgets: the blocks are read word by word across many blocks,
    # or, with a trailing name that no statement mentions, by elimination
    frame = data.draw(plane_frames(sizes=(0, 1, 2, 5)))
    names = ["x", "y"] if frame.worlds == 5 else data.draw(
        st.sampled_from([["x", "y"], ["x", "y", "w"], ["x", "y", "z", "w"]]))
    store = TermStore()
    premises = [data.draw(statements(store, ("x", "y")))
                for _ in range(data.draw(st.integers(1, 2)))]
    conclusion = data.draw(statements(store, ("x", "y", "z") if "z" in names else ("y",)))
    budget = data.draw(st.sampled_from([4, 16]))
    want = int_first_countermodel(frame, names, premises, conclusion)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vector, "_BLOCK_ENTRIES", budget)
        got = first_countermodel(SpaceEvaluator(frame, names), premises, conclusion)
    assert got == want


@pytest.mark.parametrize("worlds", [0, 1, 7, 8, 9, 16, 17, 24])
def test_box_and_diamond_match_the_scalar_evaluator(store, worlds):
    # frames of more than 9 worlds are read in windows of 64 values, aligned
    # and not, at random offsets; a term is read as the gap of t = F
    rng = random.Random(worlds)
    x = store.var("x")
    modal = [store.dia(x), store.box(x), store.box(store.dia(store.not_(x)))]
    for density in (0.1, 0.5, 0.9):
        frame = random_frame(worlds, density, rng)
        ev = SpaceEvaluator(frame, ["x"])
        scalar = Model(frame)
        if worlds <= 9:
            windows = [(0, ev.size)]
        else:
            windows = [(0, 64), (ev.size - 64, ev.size)] + [
                (lo, lo + 64) for lo in (rng.randrange(ev.size - 64) for _ in range(2))]
        for lo, hi in windows:
            for t in modal:
                ev.plan([eq(t, store.bot())])
                got = ev.gap(eq(t, store.bot()), ((lo, hi),))
                assert got.dtype == np.uint64 and got.shape == (worlds, -(-(hi - lo) // 64))
                assert world_sets(got, (hi - lo,)).tolist() == [
                    scalar.evaluate(t, {"x": v}) for v in range(lo, hi)]


@pytest.mark.parametrize("worlds", [0, 1, 9, 16, 17, 33, 64])
def test_modal_steps_over_many_words_match_the_scalar_evaluator(worlds):
    # random planes of 40 words over two values of the unpacked variable,
    # words axis first, contiguous and strided, on frames whose successor
    # sets are runs and scattered worlds
    rng = random.Random(worlds)
    for density in (0.05, 0.3, 0.9):
        frame = random_frame(worlds, density, rng)
        _, _, dia, box = SpaceEvaluator(frame, ["x", "y"]).ops
        _, _, int_dia, int_box = int_ops(frame)
        planes = np.array([[[rng.getrandbits(64) for _ in range(2)] for _ in range(40)]
                           for _ in range(worlds)], dtype=np.uint64).reshape(worlds, 40, 2)
        for a in (planes, planes[:, ::7]):
            lengths = (2, 64 * a.shape[1])
            values = world_sets(a, lengths)
            for op, int_op in ((dia, int_dia), (box, int_box)):
                got = op(a)
                assert got.shape == a.shape and got.dtype == np.uint64
                assert world_sets(got, lengths).tolist() == [
                    [int_op(int(v)) for v in row] for row in values]


def assert_plane_steps_match_the_int_backend(frame, store, rng):
    # random planes of 4 words over 3 values of the unpacked variable, words
    # axis first, contiguous and strided on both axes; the first few
    # assignments also against the oracle
    x = store.var("x")
    _, _, dia, box = vector._plane_ops(frame, 2)
    _, _, int_dia, int_box = int_ops(frame)
    planes = np.array([rng.getrandbits(64) for _ in range(frame.worlds * 12)],
                      dtype=np.uint64).reshape(frame.worlds, 4, 3)
    for a in (planes, planes[:, ::2], planes[:, ::-1, ::2]):
        lengths = (a.shape[2], 64 * a.shape[1])
        values = world_sets(a, lengths)
        for op, int_op, term in ((dia, int_dia, store.dia(x)), (box, int_box, store.box(x))):
            got = op(a)
            assert got.shape == a.shape and got.dtype == np.uint64
            got = world_sets(got, lengths)
            assert got.tolist() == [[int_op(int(v)) for v in row] for row in values]
            for v, g in zip(values[0, :8].tolist(), got[0, :8].tolist()):
                sets = {"x": set(bits_to_worlds(v))}
                assert g == sum(1 << w for w in naive_eval(frame, sets, term))


@pytest.mark.parametrize("worlds", range(9))
def test_chain_steps_match_the_int_backend_for_every_loop_set(store, worlds):
    # the running OR and AND from the top world down, on every loop set
    rng = random.Random(worlds)
    for loops in range(1 << worlds):
        frame = make_chain(worlds, bits_to_worlds(loops))
        assert frame.chain_loops == loops
        assert_plane_steps_match_the_int_backend(frame, store, rng)


def test_near_chains_keep_the_reduction_per_world(store):
    # one extra backward edge, one missing forward edge, and the reversed
    # chain: no chain, so each world's successors are reduced on their own
    rng = random.Random(5)
    for size in range(2, 6):
        for loops in (0, 0b101 & (1 << size) - 1, (1 << size) - 1):
            chain = make_chain(size, bits_to_worlds(loops))
            pairs = [(i, j) for i in range(size) for j in range(i)]  # j below i
            near = ([frame_from_edges(size, chain.edges() + [pair]) for pair in pairs]
                    + [frame_from_edges(size, [e for e in chain.edges() if e != (j, i)])
                       for i, j in pairs]
                    + [frame_from_edges(size, [(j, i) for i, j in chain.edges()])])
            for frame in near:
                assert frame.chain_loops is None, frame
                assert_plane_steps_match_the_int_backend(frame, store, rng)


def test_a_modal_step_needs_little_scratch_memory():
    # on a chain the running value is the output's own rows, combined in place
    frame = make_chain(7)
    box = SpaceEvaluator(frame, ["x"]).ops[3]
    a = np.arange(7 << 14, dtype=np.uint64).reshape(7, 1 << 14)  # 2^20 assignments
    tracemalloc.start()
    try:
        out = box(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 7 << 17
    assert peak - out.nbytes < 16 << 10, peak


def test_sampled_check_on_64_worlds_reports_the_first_failing_row(store):
    # 64 planes of packed rows; a sparse frame, so that the rows the
    # hunt starts with (all empty, all full) hold and a random row refutes
    frame = random_frame(64, 2 / 64, random.Random(64))
    stmt = parse_statement("[]x <= [][]x", store)
    names, seed = ["x"], 3
    report = check_validity(frame, stmt, names, samples=1000, seed=seed)
    assert report.verdict == "countermodel" and report.valuations_tried > 2
    assignment = {"x": report.valuation.bits("x")}
    assert int_gaps(frame, [stmt], assignment)[0] != 0
    rng = random.Random(seed)
    earlier = [0, frame.mask] + [rng.getrandbits(64)
                                 for _ in range(report.valuations_tried - 3)]
    assert all(int_gaps(frame, [stmt], {"x": v})[0] == 0 for v in earlier)
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
    assert len(read) == 1 and read[0] <= vector._FIRST_BLOCK


def test_a_lone_scan_reads_blocks_of_at_most_2_to_the_18(monkeypatch, store):
    # the 2^21 assignments of a valid statement on a 7-chain, in blocks that
    # double from the first up to the lone budget
    read = []
    real = vector._first_in_block
    monkeypatch.setattr(vector, "_first_in_block",
                        lambda shape, *args: read.append(prod(shape)) or real(shape, *args))
    report = check_validity(make_chain(7), parse_statement("tpow(4) = tpow(5)", store),
                            ["x", "y", "z"])
    assert report.verdict == "valid" and sum(read) == 1 << 21
    assert max(read) == vector._LONE_ENTRIES == 1 << 18


def test_sigma_entails_pi_on_a_five_chain_is_one_elimination_block(monkeypatch, store):
    # premise scans keep the whole budget: no statement of sigma |= pi_1
    # mentions all five variables, so the 2^25 assignments are one block
    ran = []
    real = vector._first_by_elimination
    monkeypatch.setattr(vector, "_first_by_elimination",
                        lambda *args: ran.append(1) or real(*args))
    monkeypatch.setattr(vector, "_first_in_block", None)  # never called
    sigma, pi = build_sigma_pi(chain_term(store), "x", 1)
    result = check_consequence(ConsequenceProblem(sigma, pi[1], [make_chain(5)], max_bits=25))
    assert result.holds and result.assignments == 1 << 25
    assert ran == [1]


def test_a_lone_statement_omitting_the_packed_variable_stays_small(store):
    # []x <= [][]x over x, y on the 14-chain: one block over all of x, a word
    # per world for each of its values
    stmt = parse_statement("[]x <= [][]x", store)
    tracemalloc.start()
    try:
        report = check_validity(make_chain(14), stmt, ["x", "y"], bit_cap=28)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == "valid"
    assert peak < 3.2 * (1 << 20), peak
