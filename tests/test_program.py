"""The one evaluation core: a term or a scan's statements compiled once into a
flat program, and the run loop that gives the connectives their meaning on
ints and on numpy arrays alike."""

import gc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from modalbench import terms
from modalbench.algebra import check_validity
from modalbench.chains import lemma_valuation, make_chain
from modalbench.kripke import (Evaluator, Frame, Program, bits_to_worlds, int_ops,
                               program_of, run, worlds_to_bits)
from modalbench.syntax import parse_formula
from modalbench.terms import TermStore, eq, leq, walk
from modalbench.vector import SpaceEvaluator, first_countermodel

from oracles import naive_eval, naive_fails
from strategies import build_term, frames, term_plans


def sets_of(assignment: dict) -> dict:
    return {name: set(bits_to_worlds(bits)) for name, bits in assignment.items()}


@given(data=st.data(), plan=term_plans(), rhs_plan=term_plans())
def test_the_int_run_matches_the_oracle(data, plan, rhs_plan):
    frame = data.draw(frames())
    assignment = {n: data.draw(st.integers(0, frame.mask)) for n in ("x", "y", "z")}
    store = TermStore()
    lhs, rhs = build_term(plan, store), build_term(rhs_plan, store)
    ops = int_ops(frame)
    assert run(program_of(lhs), ops, assignment.get)[-1] == \
        worlds_to_bits(naive_eval(frame, sets_of(assignment), lhs))
    stmts = [eq(lhs, rhs), leq(lhs, rhs)]
    values = run(Program(stmts), ops, assignment.get)
    for stmt, at in zip(stmts, Program(stmts).roots):
        assert values[at] == worlds_to_bits(naive_fails(frame, sets_of(assignment), stmt))


@given(data=st.data(), plan=term_plans(), rhs_plan=term_plans())
def test_the_array_run_over_a_block_matches_int_runs_per_assignment(data, plan, rhs_plan):
    frame = data.draw(frames(max_worlds=3))
    names = ["x", "y", "z"]
    block = []
    for _ in names:
        lo = data.draw(st.integers(0, frame.mask))
        block.append((lo, data.draw(st.integers(lo + 1, frame.mask + 1))))
    store = TermStore()
    stmt = data.draw(st.sampled_from([eq, leq]))(build_term(plan, store),
                                                 build_term(rhs_plan, store))
    ev = SpaceEvaluator(frame, names)
    ev.plan([stmt])
    shape = tuple(hi - lo for lo, hi in block)
    got = np.broadcast_to(ev.gap(stmt, tuple(block)), shape)
    ints = int_ops(frame)
    program = Program((stmt,))
    for at in np.ndindex(shape):
        assignment = {n: lo + i for n, (lo, _), i in zip(names, block, at)}
        assert int(got[at]) == run(program, ints, assignment.get)[-1]


def counting(ops, calls):
    zero, mask, dia, box = ops
    return (zero, mask, lambda a: calls.append(a) or dia(a),
            lambda a: calls.append(a) or box(a))


def test_a_late_premise_reads_the_nodes_it_shares_with_the_conclusion(store):
    x, y = store.var("x"), store.var("y")
    shared = store.box(store.or_(x, y))  # read last by the premise
    conclusion = leq(store.dia(shared), y)
    premise = eq(shared, store.dia(x))
    program = Program([conclusion, premise])
    frame = Frame(3, (0b110, 0b100, 0b100))
    calls: list = []
    ops = counting(int_ops(frame), calls)
    for assignment in ({"x": 1, "y": 2}, {"x": 5, "y": 0}):
        values = run(program, ops, assignment.get, [], program.roots[0] + 1)
        assert len(calls) == 2  # the shared box and the conclusion's diamond
        run(program, ops, assignment.get, values)
        assert len(calls) == 3  # only the premise's diamond is new
        for stmt, at in zip((conclusion, premise), program.roots):
            assert values[at] == Evaluator(frame).statement_gap(stmt, assignment)
        calls.clear()


def test_a_statement_outside_the_plan_runs_its_own_program(store):
    frame, names = Frame(3, (0b110, 0b100, 0b100)), ["x", "y"]
    inner = store.box(store.or_(store.var("x"), store.var("y")))
    planned = leq(store.dia(store.dia(inner)), store.var("y"))
    aside = eq(inner, store.dia(inner))  # its lhs is dropped inside the plan
    ev = SpaceEvaluator(frame, names)
    assert first_countermodel(ev, [], planned) is not None
    block = ((1, 3), (0, 8))
    for stmt in (planned, aside, planned):
        got = np.broadcast_to(ev.gap(stmt, block), (2, 8))
        for i, j in np.ndindex(2, 8):
            assignment = {"x": 1 + i, "y": j}
            assert int(got[i, j]) == Evaluator(frame).statement_gap(stmt, assignment)


def test_an_argument_read_twice_is_dropped_once(store):
    a = store.box(store.var("x"))
    both = store.and_(a, a)
    kinds, first, second, drop_a, drop_b = program_of(both).columns
    assert kinds[-1] == terms.AND and first[-1] == second[-1]
    assert (drop_a[-1], drop_b[-1]) == (False, True)
    frame = make_chain(3)
    ev = SpaceEvaluator(frame, ["x"])
    values = run(program_of(both), ev.ops, ev._leaf)
    assert values[first[-1]] is None
    assert [int(v) for v in values[-1]] == [Evaluator(frame).evaluate(a, {"x": v})
                                            for v in range(8)]


@pytest.mark.parametrize("text, holds", [
    ("T", 0b111), ("F", 0), ("T & F", 0), ("~F", 0b111), ("[]F", 0b100), ("<>T", 0b011),
])
def test_constant_leaves_on_both_backends(store, text, holds):
    frame = make_chain(3)
    t = parse_formula(text, store)
    assert Evaluator(frame).evaluate(t, {}) == holds
    out = SpaceEvaluator(frame, ["x"]).evaluate(t)
    assert out.shape == (1,) and int(out[0]) == holds


@pytest.mark.parametrize("build", [
    lambda store: parse_formula("~" * 10 ** 4 + "x", store),
    lambda store: parse_formula("tpow(200)", store),
], ids=["negations", "tpow"])
def test_long_terms_compile_and_run_without_recursion(store, build):
    t = build(store)
    frame, valuation = make_chain(3), lemma_valuation(1)
    assignment = {name: valuation.bits(name) for name in ("x", "y", "z")}
    scalar = Evaluator(frame).evaluate(t, assignment)
    vector = np.broadcast_to(SpaceEvaluator(frame, ["x", "y", "z"]).evaluate(t), (8, 8, 8))
    assert int(vector[tuple(assignment[n] for n in "xyz")]) == scalar
    assert len(program_of(t).columns[0]) == terms.node_count(t)


def test_no_array_is_reachable_from_a_cached_program(store):
    stmt = parse_formula("tpow(2)", store), parse_formula("tpow(3)", store)
    frame = make_chain(3)
    SpaceEvaluator(frame, ["x", "y", "z"]).evaluate(stmt[0])
    Evaluator(frame).evaluate(stmt[1], {})
    assert check_validity(frame, eq(*stmt), ["x", "y", "z"]).verdict == "valid"
    nodes = {t for side in stmt for t in walk(side)}
    programs = [t._program for t in nodes if t._program is not None]
    assert len(programs) == 2
    stack = [part for program in programs for part in (program.columns, program.roots)]
    while stack:  # a program is tuples of kinds, names, positions, flags and None
        obj = stack.pop()
        assert isinstance(obj, (tuple, str, int, type(None))), type(obj)
        stack += gc.get_referents(obj)
