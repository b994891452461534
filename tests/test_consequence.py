"""Global consequence over frame families and the premise/target builder."""

import tracemalloc
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import modalbench.vector as vector
from modalbench.algebra import check_validity
from modalbench.chains import enumerate_chains, make_chain
from modalbench.consequence import (ConsequenceProblem, ConsequenceResult,
                                    build_sigma_pi, check_consequence)
from modalbench.errors import CapExceededError, InputError
from modalbench.kripke import Model, Valuation, holds_globally
from modalbench.syntax import format_statement, parse_formula, parse_statement
from modalbench.terms import TermStore, chain_term, eq, leq
from modalbench.vector import decode_index

from oracles import naive_first_countermodel


def test_sigma_shape_for_the_chain_step(store):
    sigma, pi = build_sigma_pi(chain_term(store), "x", 2)
    assert [format_statement(s) for s in sigma] == [
        "y <= x", "x <= z", "x = [](y1 | [](z1 | x)) | x"]
    assert format_statement(pi[0]) == "y <= z"
    assert format_statement(pi[1]) == "[](y1 | [](z1 | y)) | y <= z"
    assert len(pi) == 3


def test_pi_at_zero_is_the_trivial_bound(store):
    _, pi = build_sigma_pi(chain_term(store), "x", 0)
    assert pi == [leq(store.var("y"), store.var("z"))]
    with pytest.raises(InputError):
        build_sigma_pi(chain_term(store), "x", -1)


def test_no_renaming_without_a_clash(store):
    t = parse_formula("[]a | x", store)
    sigma, pi = build_sigma_pi(t, "x", 1)
    assert [format_statement(s) for s in sigma] == [
        "y <= x", "x <= z", "x = []a | x"]
    assert format_statement(pi[1]) == "[]a | y <= z"


def test_renaming_skips_taken_suffixes(store):
    t = parse_formula("x | y | y1", store)
    sigma, _ = build_sigma_pi(t, "x", 0)
    assert format_statement(sigma[2]) == "x = x | y2 | y1"


def test_renamed_pivot(store):
    t = parse_formula("[]z | y", store)
    sigma, pi = build_sigma_pi(t, "y", 1)
    assert [format_statement(s) for s in sigma] == [
        "y <= y1", "y1 <= z", "y1 = []z1 | y1"]
    assert format_statement(pi[1]) == "[]z1 | y <= z"


def test_problem_validation(store):
    stmt = leq(store.var("x"), store.var("x"))
    problem = ConsequenceProblem([stmt], stmt, [make_chain(2)])
    assert problem.premises == (stmt,) and isinstance(problem.frames, tuple)
    assert problem.variables() == ["x"]


def test_terms_of_two_stores_answer_as_one_store_does(store):
    # every memo keys on the term object, so nothing needs one store: the
    # conclusion, or one side of it, may come from another
    other = TermStore()
    sigma, pi = build_sigma_pi(chain_term(store), "x", 2)
    _, pi_other = build_sigma_pi(chain_term(other), "x", 2)
    z_y, z_y_other = (parse_statement("z <= y", s) for s in (store, other))
    frames = [frame for size in (1, 2) for frame in enumerate_chains(size)]
    for premises, conclusion, moved in (
            (sigma, pi[1], pi_other[1]),
            (pi[2:], pi[1], pi_other[1]),
            (pi[:1], pi[1], leq(pi[1].lhs, pi_other[1].rhs)),
            (sigma, z_y, z_y_other)):
        want = check_consequence(ConsequenceProblem(premises, conclusion, frames))
        got = check_consequence(ConsequenceProblem(premises, moved, frames))
        assert got == want
    assert not check_consequence(ConsequenceProblem(sigma, z_y, frames)).holds
    stmt = leq(pi[1].lhs, pi_other[1].rhs)
    for frame in frames:
        assert check_validity(frame, stmt) == check_validity(frame, pi[1])


def test_trivial_consequence_holds(store):
    problem = ConsequenceProblem((), leq(store.var("x"), store.var("x")),
                                 tuple(enumerate_chains(2)))
    result = check_consequence(problem)
    assert result.holds and not result.complete
    assert result.assignments == 4 * 4  # four frames, 2^2 bitsets of x each
    assert result.to_json()["failure_world"] is None


def test_budget_refusal(store):
    stmt = leq(store.var("a"), store.var("b"))
    wide = eq(parse_formula("a | b | c | d | e | f", store), store.top())
    problem = ConsequenceProblem((wide,), stmt, (make_chain(5),))
    with pytest.raises(CapExceededError):
        check_consequence(problem)
    assert check_consequence(
        ConsequenceProblem((wide,), stmt, (make_chain(5),), max_bits=30)) is not None


def test_negative_budget_is_an_input_error(store):
    # once read as a budget that every frame exceeds
    stmt = leq(store.var("x"), store.var("x"))
    with pytest.raises(InputError, match="bit budget must be nonnegative, got -1"):
        ConsequenceProblem((), stmt, (make_chain(2),), max_bits=-1)
    assert check_consequence(ConsequenceProblem((), eq(store.top(), store.top()),
                                                (make_chain(2),), max_bits=0)).holds


@pytest.mark.parametrize("budget", [3.5, "3", True])
def test_a_budget_that_is_no_int_is_refused(store, budget):
    # 3.5 was accepted and printed in the cap message, "3" raised a raw TypeError
    with pytest.raises(InputError, match=f"^bit budget must be an int, not {type(budget).__name__}$"):
        ConsequenceProblem((), leq(store.var("x"), store.var("x")), (make_chain(2),),
                           max_bits=budget)


@pytest.mark.parametrize("k_max", [1.5, "3", True])
def test_a_k_max_that_is_no_int_is_refused(store, k_max):
    # 1.5 and "3" raised a raw TypeError, True built pi_0 and pi_1
    with pytest.raises(InputError, match=f"^k_max must be an int, not {type(k_max).__name__}$"):
        build_sigma_pi(chain_term(store), "x", k_max)


def test_a_budget_too_long_to_print_is_refused_by_its_size(store):
    with pytest.raises(InputError, match="<16610-bit int>"):
        ConsequenceProblem((), leq(store.var("x"), store.var("x")), (make_chain(2),),
                           max_bits=-10 ** 5000)


def test_countermodels_reverify_and_point_at_a_failure_world(store):
    sigma, pi = build_sigma_pi(chain_term(store), "x", 2)
    frames = tuple(enumerate_chains(3))
    problem = ConsequenceProblem((pi[1],), pi[2], frames)
    result = check_consequence(problem)
    assert not result.holds
    model = Model(frames[result.frame_index], result.valuation)
    assert holds_globally(model, pi[1])
    assert not holds_globally(model, pi[2])
    from modalbench.kripke import evaluate
    bad = evaluate(model, pi[2].lhs) & ~evaluate(model, pi[2].rhs)
    assert bad >> result.failure_world & 1
    assert result.failure_world == (bad & -bad).bit_length() - 1


def test_first_frame_with_a_countermodel_wins(store):
    x = store.var("x")
    stmt = eq(store.dia(x), store.bot())  # fails wherever an edge exists
    empty = make_chain(1)
    edge = make_chain(2)
    forward = check_consequence(ConsequenceProblem((), stmt, (empty, edge)))
    backward = check_consequence(ConsequenceProblem((), stmt, (edge, empty)))
    assert forward.frame_index == 1 and backward.frame_index == 0


def test_premise_strengthening_preserves_holds(store):
    sigma, pi = build_sigma_pi(chain_term(store), "x", 3)
    frames = tuple(enumerate_chains(2))
    base = ConsequenceProblem(tuple(pi[:2]), pi[0], frames)
    assert check_consequence(base).holds
    stronger = ConsequenceProblem(tuple(pi[:3]), pi[0], frames)
    assert check_consequence(stronger).holds


@settings(max_examples=25)
@given(k=st.integers(0, 2), size=st.integers(1, 3))
def test_higher_iterate_premise_bounds_lower_conclusions(k, size):
    store = TermStore()
    _, pi = build_sigma_pi(chain_term(store), "x", k + 1)
    frames = tuple(enumerate_chains(size))
    problem = ConsequenceProblem((pi[k + 1],), pi[k], frames)
    assert check_consequence(problem).holds


def test_sigma_consequences_match_the_oracle_at_every_block_size(store, monkeypatch):
    # with a budget of 16, pi_0, z <= y and x <= y let a 2-chain be read in
    # four blocks of 256, each searched by elimination; pi_1 and pi_2 mention
    # four of the five variables and keep the broadcast blocks of 16
    sigma, pi = build_sigma_pi(chain_term(store), "x", 2)
    conclusions = pi + [parse_statement(text, store) for text in ("z <= y", "x <= y")]
    names = ["x", "y", "y1", "z", "z1"]
    frames = [frame for size in (1, 2) for frame in enumerate_chains(size)]
    eliminated = set()
    real = vector._first_by_elimination
    monkeypatch.setattr(vector, "_first_by_elimination",
                        lambda *args: eliminated.add((frame.worlds, j)) or real(*args))
    want = {}
    for budget in (1 << 20, 16):
        monkeypatch.setattr(vector, "_BLOCK_ENTRIES", budget)
        for i, frame in enumerate(frames):
            for j, conclusion in enumerate(conclusions):
                if (i, j) not in want:
                    want[i, j] = naive_first_countermodel(frame, names, sigma, conclusion)
                result = check_consequence(ConsequenceProblem(sigma, conclusion, [frame]))
                hit = want[i, j]
                assert result.holds == (hit is None) == (j < len(pi))
                if hit is None:
                    assert result.assignments == 1 << 5 * frame.worlds
                    continue
                idx, gap = hit
                assert result.assignments == idx + 1
                assert result.valuation == Valuation(decode_index(idx, names, frame.worlds))
                assert result.failure_world == (gap & -gap).bit_length() - 1
    assert {j for worlds, j in eliminated if worlds == 2} == {0, 3, 4}


def test_sigma_refutes_z_below_y_on_the_five_chain_in_one_block(store, monkeypatch):
    # at the full budget the irreflexive 5-chain is one elimination block of
    # 2^25 assignments, and the countermodel is chosen through every axis
    sigma, _ = build_sigma_pi(chain_term(store), "x", 0)
    blocks = []
    real = vector._first_by_elimination
    monkeypatch.setattr(vector, "_first_by_elimination",
                        lambda lengths, *args: blocks.append(prod(lengths)) or real(lengths, *args))
    result = check_consequence(ConsequenceProblem(
        sigma, parse_statement("z <= y", store), [make_chain(5)], max_bits=25))
    assert blocks == [1 << 25]
    assert result.to_json() == {
        "holds": False, "complete": False, "frame_index": 0,
        "valuation": {"x": [0, 1, 2, 3, 4], "y": [], "y1": [], "z": [0, 1, 2, 3, 4], "z1": []},
        "failure_world": 0, "assignments": 32506849}


def test_sigma_pi_1_on_the_five_chain_builds_each_factor_once(store):
    # the conclusion's gap (1 MiB) and its float32 factor (4 MiB) are the
    # block's largest arrays; a bool copy of the gap and a transposed copy of
    # the factor for einsum's matmul took the peak to 9.3 MiB
    sigma, pi = build_sigma_pi(chain_term(store), "x", 1)
    problem = ConsequenceProblem(sigma, pi[1], [make_chain(5)], max_bits=25)
    tracemalloc.start()
    try:
        result = check_consequence(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.holds
    assert peak < 7 << 20


def test_a_problem_over_many_frames_compiles_its_statements_once(store, monkeypatch):
    # every frame's scan runs the program compiled for the first frame
    _, pi = build_sigma_pi(chain_term(store), "x", 1)
    frames = [frame for size in range(1, 6) for frame in enumerate_chains(size)]
    compiled = []
    real = vector.Program
    monkeypatch.setattr(vector, "Program", lambda roots: compiled.append(roots) or real(roots))
    result = check_consequence(ConsequenceProblem([pi[1]], pi[0], frames))
    assert len(frames) == 62 and result.holds
    assert result.assignments == sum(1 << 4 * frame.worlds for frame in frames)
    assert compiled == [[pi[0], pi[1]]]
