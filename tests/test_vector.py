"""The bit-parallel space evaluator against the naive per-assignment oracle.

These tests pin the scan contract the rest of the library depends on: C-order
enumeration with the first variable most significant, lowest-index
countermodels, and results independent of the block size.
"""

import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modalbench.vector as vector
from modalbench import terms
from modalbench.algebra import check_validity
from modalbench.chains import make_chain
from modalbench.consequence import build_sigma_pi
from modalbench.errors import CapExceededError
from modalbench.kripke import Frame, Program, bits_to_worlds, int_ops, run
from modalbench.syntax import parse_statement
from modalbench.terms import TermStore, chain_term, eq, leq, node_count, walk
from modalbench.vector import SpaceEvaluator, decode_index, first_countermodel

from oracles import naive_eval, naive_first_countermodel
from planes import world_sets
from strategies import build_term, frames, term_plans


def all_assignment_values(ev: SpaceEvaluator, term) -> np.ndarray:
    return world_sets(ev.evaluate(term), (ev.size,) * len(ev.names)).reshape(-1)


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


@settings(max_examples=40)
@given(data=st.data())
def test_elimination_matches_oracle(data):
    # premises over different variables, a conclusion without the first one
    # and a trailing name that no statement mentions: with a small budget the
    # block outgrows its product and is searched by elimination
    frame = data.draw(frames(max_worlds=2))
    names = data.draw(st.sampled_from([["x", "y", "w"], ["x", "y", "z", "w"]]))
    store = TermStore()
    def stmt(variables):  # mentions variables[0], maybe the others
        first = store.var(variables[0])
        lhs = store.or_(first, build_term(data.draw(term_plans(variables, max_depth=2)), store))
        rhs = build_term(data.draw(term_plans(variables, max_depth=2)), store)
        return data.draw(st.sampled_from([eq, leq]))(lhs, rhs)
    premises = [stmt(("x", "y"))] + ([stmt(("x", "z"))] if "z" in names else [])
    conclusion = stmt(tuple(n for n in names[1:] if n != "w"))
    total = (1 << frame.worlds) ** len(names)
    budget = data.draw(st.sampled_from([b for b in (4, 16) if b < total]))
    ran = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vector, "_BLOCK_ENTRIES", budget)
        real = vector._first_by_elimination
        mp.setattr(vector, "_first_by_elimination",
                   lambda *args: ran.append(1) or real(*args))
        got = first_countermodel(SpaceEvaluator(frame, names), premises, conclusion)
    assert ran
    assert got == naive_first_countermodel(frame, names, premises, conclusion)


# (names, premise variables, conclusion variables); a trailing name that no
# statement mentions makes every block outgrow its gaps at budgets 4 and 16
_LAYOUT_CASES = {
    # premises of one size: the first counts as the largest, and the
    # conclusion's buffer puts z, which that premise lacks, before y
    "tie": (["x", "y", "z", "w"], [("x", "y"), ("x", "z")], ("y", "z")),
    # a premise over three variables, all of them ranging at one world, where
    # the conclusion's buffer cycles its axes: v, then y and z
    "three": (["x", "y", "z", "v", "w"], [("x", "y", "z")], ("y", "z", "v")),
    # a closed premise: a factor with no axes
    "closed": (["x", "y", "z", "w"], [(), ("x", "y")], ("y", "z")),
    # a conclusion with no axis of the largest premise
    "disjoint": (["x", "y", "z", "w"], [("x", "y")], ("z",)),
}
_CLOSED = ["T = T", "<>T = T", "[]F = F", "<>T <= []F"]


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
@settings(max_examples=25)
@given(data=st.data())
def test_elimination_layouts_match_oracle(case, data):
    # the factors' buffer layouts, and the slices that hold earlier axes in
    # them, against the naive scan
    names, premise_vars, conclusion_vars = _LAYOUT_CASES[case]
    frame = data.draw(frames(max_worlds=2))
    store = TermStore()
    def stmt(variables):  # mentions every one of the variables
        if not variables:
            return parse_statement(data.draw(st.sampled_from(_CLOSED)), store)
        lhs = build_term(data.draw(term_plans(variables, max_depth=2)), store)
        for name in variables:
            lhs = data.draw(st.sampled_from([store.or_, store.and_]))(store.var(name), lhs)
        rhs = build_term(data.draw(term_plans(variables, max_depth=2)), store)
        return data.draw(st.sampled_from([eq, leq]))(lhs, rhs)
    premises = [stmt(v) for v in premise_vars]
    conclusion = stmt(conclusion_vars)
    total = (1 << frame.worlds) ** len(names)
    budget = data.draw(st.sampled_from([b for b in (4, 16) if b < total]))
    ran = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vector, "_BLOCK_ENTRIES", budget)
        real = vector._first_by_elimination
        mp.setattr(vector, "_first_by_elimination",
                   lambda *args: ran.append(1) or real(*args))
        got = first_countermodel(SpaceEvaluator(frame, names), premises, conclusion)
    assert ran
    assert got == naive_first_countermodel(frame, names, premises, conclusion)


@settings(max_examples=40)
@given(data=st.data())
def test_lone_statement_past_the_budget_matches_oracle(data):
    # a conclusion without the first variable and a trailing name that no
    # statement mentions: with a small budget the block outgrows it, and the
    # first failure is read off the conclusion's own gap, not by elimination
    frame = data.draw(frames(max_worlds=2))
    names = data.draw(st.sampled_from([["x", "y", "w"], ["x", "y", "z", "w"]]))
    variables = tuple(n for n in names[1:] if n != "w")
    store = TermStore()
    lhs = store.or_(store.var("y"),
                    build_term(data.draw(term_plans(variables, max_depth=2)), store))
    rhs = build_term(data.draw(term_plans(variables, max_depth=2)), store)
    stmt = data.draw(st.sampled_from([eq, leq]))(lhs, rhs)
    total = (1 << frame.worlds) ** len(names)
    budget = data.draw(st.sampled_from([b for b in (4, 16) if b < total]))
    read = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vector, "_BLOCK_ENTRIES", budget)
        mp.setattr(vector, "_first_by_elimination", None)  # never called
        real = vector._first_in_block
        mp.setattr(vector, "_first_in_block",
                   lambda shape, *args: read.append(prod(shape)) or real(shape, *args))
        got = first_countermodel(SpaceEvaluator(frame, names), [], stmt)
    assert max(read) > budget
    assert got == naive_first_countermodel(frame, names, [], stmt)


def test_result_is_block_size_independent(store, monkeypatch):
    frame = Frame(3, (0b110, 0b101, 0b010))
    stmt = leq(store.box(store.var("x")), store.dia(store.var("y")))
    names = ["x", "y", "z"]
    want = first_countermodel(SpaceEvaluator(frame, names), [], stmt)
    monkeypatch.setattr(vector, "_BLOCK_ENTRIES", 1)
    got = first_countermodel(SpaceEvaluator(frame, names), [], stmt)
    assert got == want is not None


def test_pinning_recursion_matches_the_flat_scan(store, monkeypatch):
    # blocks smaller than the statement's arrays, with every variable held
    # (1), the last one sliced (2) or ranging (4): each block evaluates again
    # the nodes over a variable whose range moved
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


@pytest.mark.parametrize("case", ["premise", "shared-nodes", "blocked"])
def test_premises_hold_across_blocks(store, monkeypatch, case):
    # premises that move the answer, premises sharing the conclusion's nodes,
    # and premises that rule out every countermodel
    frame = Frame(2, (0b11, 0b01))
    x, y, z = store.var("x"), store.var("y"), store.var("z")
    step = store.box(store.or_(x, y))
    premises, conclusion = {
        "premise": ([eq(x, store.box(y)), leq(z, x)], leq(store.box(x), store.dia(z))),
        "shared-nodes": ([eq(step, store.or_(x, y))], leq(step, store.or_(z, x))),
        "blocked": ([leq(x, y), leq(y, store.and_(x, z))], leq(x, z)),
    }[case]
    names = ["x", "y", "z"]
    want = naive_first_countermodel(frame, names, premises, conclusion)
    assert want != naive_first_countermodel(frame, names, [], conclusion)
    assert first_countermodel(SpaceEvaluator(frame, names), premises, conclusion) == want
    for budget in (1, 2, 4):
        monkeypatch.setattr(vector, "_BLOCK_ENTRIES", budget)
        got = first_countermodel(SpaceEvaluator(frame, names), premises, conclusion)
        assert got == want


def test_evaluate_after_a_scan_reads_the_whole_space(store, monkeypatch):
    monkeypatch.setattr(vector, "_BLOCK_ENTRIES", 4)
    frame = Frame(2, (0b11, 0b01))
    step = store.box(store.or_(store.var("x"), store.var("y")))
    stmt = leq(step, store.or_(step, store.dia(store.var("z"))))  # valid: every block
    names = ["x", "y", "z"]
    ev = SpaceEvaluator(frame, names)
    assert first_countermodel(ev, [], stmt) is None
    fresh, whole = SpaceEvaluator(frame, names), ((0, 4),) * 3
    fresh.plan([stmt])
    for got, want in ((ev.evaluate(step), fresh.evaluate(step)),
                      (ev.gap(stmt, whole), fresh.gap(stmt, whole))):
        assert got.shape == want.shape and (got == want).all()
    assert ev.evaluate(step).shape == (2, 1, 4, 4)  # worlds, one word for z, x, y


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


def test_elimination_memory_follows_the_statements_not_the_block(store, monkeypatch):
    budget = 1 << 10
    monkeypatch.setattr(vector, "_BLOCK_ENTRIES", budget)
    frame = Frame(5, (0b11110, 0b11100, 0b11000, 0b10000, 0))
    x, y, z, w = (store.var(n) for n in "xyzw")
    premises = [leq(y, x), leq(x, z), eq(x, store.or_(store.box(w), x))]
    conclusion = leq(y, store.dia(z))  # fails at the last world
    statements = premises + [conclusion]
    nodes = sum(node_count(s.lhs) + node_count(s.rhs) for s in statements)
    names = ["x", "y", "z", "w"]
    ran = []
    real = vector._first_by_elimination
    monkeypatch.setattr(vector, "_first_by_elimination",
                        lambda *args: ran.append(1) or real(*args))
    tracemalloc.start()
    try:
        got = first_countermodel(SpaceEvaluator(frame, names), premises, conclusion)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ran == [1]  # one block of 2^20 assignments, each statement 2^10 at most
    assert peak < nodes * budget * 8 + (64 << 10)
    assert peak * 4 < 32 ** 4  # one byte per assignment of the block
    monkeypatch.setattr(vector, "_BLOCK_ENTRIES", 1 << 20)  # the broadcast combine
    assert got == first_countermodel(SpaceEvaluator(frame, names), premises, conclusion)
    assert got is not None


def test_validity_over_an_unused_variable_reads_the_gap_not_the_block(store, monkeypatch):
    budget = 1 << 10
    monkeypatch.setattr(vector, "_BLOCK_ENTRIES", budget)
    frame = Frame(6, (0b111110, 0b111100, 0b111000, 0b110000, 0b100000, 0))
    x, w = store.var("x"), store.var("w")
    stmt = leq(store.and_(store.box(x), store.dia(w)), store.or_(store.box(x), w))
    nodes = node_count(stmt.lhs) + node_count(stmt.rhs)
    tracemalloc.start()
    try:
        report = check_validity(frame, stmt, ["x", "y", "z", "w"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == "valid" and report.valuations_tried == 1 << 24
    assert peak < nodes * budget * 8 + (64 << 10)
    assert peak * 4 < 64 ** 3  # one byte per assignment of a block, x held


def test_reported_gap_matches_scalar_evaluator(store):
    frame = Frame(3, (0b010, 0b100, 0b001))
    stmt = eq(store.box(store.var("x")), store.var("y"))
    names = ["x", "y"]
    hit = first_countermodel(SpaceEvaluator(frame, names), [], stmt)
    assert hit is not None
    idx, gap = hit
    assignment = decode_index(idx, names, frame.worlds)
    assert gap == run(Program((stmt,)), int_ops(frame), assignment.get)[-1]


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
    assert out.shape == (2, 1)  # two worlds' planes, x's four values in one word
    assert world_sets(out, (4,)).tolist() == [0, 1, 2, 3]


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
    assert world_sets(ev.evaluate(store.top()), (2,)).tolist() == [1, 1]
    assert world_sets(ev.evaluate(other.top()), (2,)).tolist() == [1, 1]
    assert world_sets(ev.evaluate(other.not_(other.var("x"))), (2,)).tolist() == [1, 0]
    with pytest.raises(CapExceededError):
        Frame(65, (0,) * 65)


def test_a_premise_scan_computes_each_modal_node_once_per_block(store, monkeypatch):
    # the conclusion pi_3 holds the premise pi_2's left side; the conclusion is
    # evaluated first and must keep that side for the premise, which a block
    # draws only where the conclusion fails
    monkeypatch.setattr(vector, "_BLOCK_ENTRIES", 1 << 8)
    _, pi = build_sigma_pi(chain_term(store), "x", 3)
    premise, conclusion = pi[2], pi[3]
    assert premise.lhs in set(walk(conclusion.lhs))
    frame, names = make_chain(3), ["y", "y1", "z", "z1"]
    ev = SpaceEvaluator(frame, names)
    zero, mask, dia, box = ev.ops
    drawn: dict = {}  # block -> [statements evaluated on it, modal calls]
    block_of = []

    def counted(modality):
        def call(a):
            drawn[block_of[-1]][1] += 1
            return modality(a)
        return call

    def gap(stmt, block):
        block_of.append(block)
        drawn.setdefault(block, [[], 0])[0].append(stmt)
        return real_gap(stmt, block)

    real_gap = ev.gap
    ev.ops = (zero, mask, counted(dia), counted(box))
    monkeypatch.setattr(ev, "gap", gap)
    hit = first_countermodel(ev, [premise], conclusion)
    assert hit == naive_first_countermodel(frame, names, [premise], conclusion)
    assert len(drawn) > 1 and any(len(stmts) == 2 for stmts, _ in drawn.values())
    for stmts, calls in drawn.values():
        nodes = {t for s in stmts for side in (s.lhs, s.rhs) for t in walk(side)}
        assert calls == sum(t.kind in (terms.DIA, terms.BOX) for t in nodes)


def test_a_statement_outside_the_plan_gets_its_value(store, monkeypatch):
    # after a scan each block starts from the plan's counts; inner is a node
    # the plan drops once its last planned parent is computed
    monkeypatch.setattr(vector, "_BLOCK_ENTRIES", 4)
    frame, names = Frame(3, (0b110, 0b100, 0b100)), ["x", "y"]
    inner = store.box(store.or_(store.var("x"), store.var("y")))
    planned = leq(store.dia(store.dia(inner)), store.var("y"))
    ev = SpaceEvaluator(frame, names)
    first_countermodel(ev, [], planned)
    fresh, whole = SpaceEvaluator(frame, names), ((0, 8),) * 2
    fresh.plan([planned])
    for _ in range(2):
        assert (ev.gap(planned, whole) == fresh.gap(planned, whole)).all()
    assert (ev.evaluate(inner) == fresh.evaluate(inner)).all()
