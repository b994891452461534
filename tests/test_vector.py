"""The bit-parallel space evaluator against the naive per-assignment oracle.

These tests pin the scan contract the rest of the library depends on: C-order
enumeration with the first variable most significant, lowest-index
countermodels, and results independent of the block size.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modalbench.vector as vector
from modalbench.errors import CapExceededError
from modalbench.kripke import Evaluator, Frame, bits_to_worlds
from modalbench.terms import TermStore, eq, leq, node_count
from modalbench.vector import SpaceEvaluator, decode_index, first_countermodel

from oracles import naive_eval, naive_first_countermodel
from strategies import build_term, frames, term_plans


def all_assignment_values(ev: SpaceEvaluator, term) -> np.ndarray:
    return np.broadcast_to(ev.evaluate(term),
                           (ev.size,) * len(ev.names)).reshape(-1)


@given(frame=frames(max_worlds=3), plan=term_plans(max_depth=3))
def test_space_evaluation_matches_naive_pointwise(frame, plan):
    store = TermStore()
    t = build_term(plan, store)
    names = ["x", "y", "z"]
    ev = SpaceEvaluator(frame, names)
    flat = all_assignment_values(ev, t)
    size = 1 << frame.worlds
    # spot-check a deterministic sample of assignments, corners included
    for idx in {0, len(flat) - 1, len(flat) // 3, len(flat) // 7}:
        values = decode_index(idx, names, frame.worlds)
        sets = {n: set(bits_to_worlds(b)) for n, b in values.items()}
        expect = sum(1 << w for w in naive_eval(frame, sets, t))
        assert int(flat[idx]) == expect


@given(data=st.data(), plan=term_plans(max_depth=3))
def test_first_countermodel_matches_oracle(data, plan):
    frame = data.draw(frames(max_worlds=3))
    store = TermStore()
    lhs = build_term(plan, store)
    rhs = build_term(data.draw(term_plans(max_depth=2)), store)
    stmt = data.draw(st.sampled_from([eq, leq]))(lhs, rhs)
    names = data.draw(st.sampled_from([["x"], ["x", "y"], ["x", "y", "z"],
                                       ["z", "x"]]))
    ev = SpaceEvaluator(frame, names)
    assert first_countermodel(ev, [], stmt) == \
        naive_first_countermodel(frame, names, [], stmt)


@settings(max_examples=30)
@given(data=st.data())
def test_first_countermodel_with_premises_matches_oracle(data):
    frame = data.draw(frames(max_worlds=2))
    store = TermStore()
    names = ["x", "y"]
    def stmt():
        lhs = build_term(data.draw(term_plans(("x", "y"), max_depth=2)), store)
        rhs = build_term(data.draw(term_plans(("x", "y"), max_depth=2)), store)
        return data.draw(st.sampled_from([eq, leq]))(lhs, rhs)
    premises = [stmt() for _ in range(data.draw(st.integers(0, 2)))]
    conclusion = stmt()
    ev = SpaceEvaluator(frame, names)
    assert first_countermodel(ev, premises, conclusion) == \
        naive_first_countermodel(frame, names, premises, conclusion)


def test_result_is_block_size_independent(store, monkeypatch):
    frame = Frame(3, (0b110, 0b101, 0b010))
    stmt = leq(store.box(store.var("x")), store.dia(store.var("y")))
    names = ["x", "y", "z"]
    want = first_countermodel(SpaceEvaluator(frame, names), [], stmt)
    monkeypatch.setattr(vector, "_BLOCK_ENTRIES", 1)
    got = first_countermodel(SpaceEvaluator(frame, names), [], stmt)
    assert got == want is not None


def test_pinning_recursion_matches_the_flat_scan(store, monkeypatch):
    # budgets below one statement's arrays: every block is evaluated afresh,
    # with every variable held (1), the last one sliced (2) or ranging (4)
    frame = Frame(2, (0b11, 0b01))
    stmt = leq(store.box(store.or_(store.var("x"), store.var("y"))),
               store.dia(store.var("z")))
    names = ["x", "y", "z"]
    want = first_countermodel(SpaceEvaluator(frame, names), [], stmt)
    assert want == naive_first_countermodel(frame, names, [], stmt) is not None
    for budget in (1, 2, 4):
        monkeypatch.setattr(vector, "_BLOCK_ENTRIES", budget)
        got = first_countermodel(SpaceEvaluator(frame, names), [], stmt)
        assert got == want


def test_scan_memory_follows_the_block_not_the_space(store, monkeypatch):
    budget = 1 << 10
    monkeypatch.setattr(vector, "_BLOCK_ENTRIES", budget)
    frame = Frame(6, (0b111110, 0b111100, 0b111000, 0b110000, 0b100000, 0))
    x, y, z = store.var("x"), store.var("y"), store.var("z")
    stmt = leq(store.and_(store.box(x), store.dia(store.and_(y, z))),
               store.or_(store.box(x), z))  # valid, so every block is read
    nodes = node_count(stmt.lhs) + node_count(stmt.rhs)
    ev = SpaceEvaluator(frame, names=["x", "y", "z"])
    tracemalloc.start()
    try:
        assert first_countermodel(ev, [], stmt) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nodes * budget * 8 + (64 << 10)
    assert peak * 4 < ev.size ** 3 * 8  # one node array over the space


def test_reported_gap_matches_scalar_evaluator(store):
    frame = Frame(3, (0b010, 0b100, 0b001))
    stmt = eq(store.box(store.var("x")), store.var("y"))
    names = ["x", "y"]
    hit = first_countermodel(SpaceEvaluator(frame, names), [], stmt)
    assert hit is not None
    idx, gap = hit
    assignment = decode_index(idx, names, frame.worlds)
    assert gap == Evaluator(frame).statement_gap(stmt, assignment)


def test_no_variables_case(store):
    frame = Frame(2, (0b10, 0))
    ev = SpaceEvaluator(frame, [])
    assert first_countermodel(ev, [], eq(store.top(), store.top())) is None
    hit = first_countermodel(ev, [], eq(store.box(store.bot()), store.bot()))
    assert hit == (0, 0b10)
    blocked = first_countermodel(ev, [eq(store.top(), store.bot())],
                                 eq(store.box(store.bot()), store.bot()))
    assert blocked is None


def test_variables_outside_names_read_as_empty(store):
    ev = SpaceEvaluator(Frame(2, (0b10, 0)), ["x"])
    out = ev.evaluate(store.or_(store.var("x"), store.var("ghost")))
    assert out.shape == (4,)
    assert [int(v) for v in out] == [0, 1, 2, 3]


@given(idx=st.integers(0, 4 ** 3 - 1))
def test_decode_index_round_trip(idx):
    names = ["a", "b", "c"]
    values = decode_index(idx, names, 2)
    rebuilt = 0
    for name in names:
        rebuilt = rebuilt * 4 + values[name]
    assert rebuilt == idx


def test_store_binding_and_world_cap(store):
    ev = SpaceEvaluator(Frame(1, (0,)), ["x"])
    other = TermStore()
    assert [int(v) for v in ev.evaluate(store.top())] == [1]
    assert [int(v) for v in ev.evaluate(other.top())] == [1]
    assert [int(v) for v in ev.evaluate(other.not_(other.var("x")))] == [1, 0]
    with pytest.raises(CapExceededError):
        Frame(65, (0,) * 65)
