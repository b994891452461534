"""Frames, valuations, models, and bitset evaluation against the naive oracle."""

import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from modalbench.algebra import fixpoint_index
from modalbench.errors import CapExceededError, InputError, MissingVariableWarning
from modalbench.kripke import (Frame, Model, Program, Valuation,
                               bits_to_worlds, check_world, check_world_count,
                               evaluate, evaluate_orbit, frame_from_edges,
                               frame_from_json, frame_to_json, holds_globally,
                               int_ops, load_frame, program_of, run,
                               valuation_from_json, worlds_to_bits)
from modalbench.chains import enumerate_chains, lemma_valuation, make_chain
from modalbench.syntax import parse_formula, parse_statement
from modalbench.terms import TermStore, chain_term, diamond_term, eq, iterate, leq
from modalbench.vector import SpaceEvaluator

from oracles import naive_eval, naive_fails
from planes import world_sets
from strategies import build_term, frames, term_plans, valuations_for


def test_frame_validation():
    with pytest.raises(InputError):
        Frame(-1, ())
    with pytest.raises(InputError):
        Frame(2, (0,))
    with pytest.raises(InputError, match="^successor set of world 1 mentions worlds outside"):
        Frame(2, (0, 0b100))
    # the first bad set is named, whatever is wrong with the later ones
    for succ, text in [
            ((0, True), "successor set of world 1 must be an int, not bool"),
            ((0, 1.0, True), "successor set of world 1 must be an int, not float"),
            ((0, "1"), "successor set of world 1 must be an int, not str"),
            ((-1, 0), "successor set of world 0 mentions worlds outside the frame"),
            ((0b100, True), "successor set of world 0 mentions worlds outside the frame"),
            ((0, 0b10, 0b1000), "successor set of world 2 mentions worlds outside the frame")]:
        with pytest.raises(InputError) as refusal:
            Frame(len(succ), succ)
        assert str(refusal.value) == text


def test_frame_from_edges_collapses_duplicates():
    f = frame_from_edges(3, [(0, 1), (0, 1), (1, 2)])
    assert f.succ == (0b010, 0b100, 0)
    assert f.edges() == [(0, 1), (1, 2)]
    with pytest.raises(InputError):
        frame_from_edges(2, [(0, 2)])
    with pytest.raises(CapExceededError):
        frame_from_edges(65, [])


def test_frame_json_round_trip(tmp_path):
    f = make_chain(3, (1,))
    assert frame_from_json(frame_to_json(f)) == f
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(frame_to_json(f)))
    assert load_frame(str(path)) == f
    for bad in ([], {"worlds": 2}, {"worlds": "2", "edges": []},
                {"worlds": 2, "edges": [[0]]}, {"worlds": 2, "edges": [0, 1]}):
        with pytest.raises(InputError):
            frame_from_json(bad)


@given(st.sets(st.integers(0, 63)))
def test_world_bitset_round_trip(worlds):
    assert set(bits_to_worlds(worlds_to_bits(worlds))) == worlds


def test_world_indices_are_bounded_before_shifting():
    for bad in ([-1], [64], [10 ** 11]):
        with pytest.raises(InputError, match="outside 0..63"):
            worlds_to_bits(bad)
    assert worlds_to_bits([0, 63]) == 1 | 1 << 63
    tracemalloc.start()
    try:
        with pytest.raises(InputError):
            valuation_from_json({"x": [10 ** 8]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("call", [
    # a raw TypeError or ValueError before
    lambda: worlds_to_bits([1.5]),
    lambda: frame_from_edges(3, [(0, 1.5)]),
    lambda: frame_from_edges(3, [(0, 1, 2)]),
    lambda: frame_from_edges(3, [5]),
    # accepted before, a bool or a float read as a world or a count
    lambda: frame_from_edges(3, [(True, 2)]),
    lambda: make_chain(3, [1.0]),
    lambda: Frame(2, (True, 0)),
    lambda: Frame(True, (0,)),
    lambda: enumerate_chains(True),
    lambda: evaluate_orbit(Model(make_chain(2), Valuation()),
                           chain_term(TermStore()), "x", True, 2),
    # one world 1, the other world 0, before
    lambda: Valuation.from_sets({"x": [True]}),
    lambda: Valuation({"x": True}),
], ids=["float-world", "float-edge-end", "three-element-edge", "edge-not-a-pair",
        "bool-edge-end", "float-reflexive-point", "bool-successor-set", "bool-world-count",
        "bool-chain-size", "bool-orbit-base", "bool-world", "bool-bitset"])
def test_world_rules_refuse_every_non_int(call):
    with pytest.raises(InputError, match="must be an int|is not a pair"):
        call()


@pytest.mark.parametrize("call, kind", [
    # a raw TypeError before
    (lambda: Frame(2, 5), "not int"),
    (lambda: frame_from_edges(2, 5), "not int"),
    # accepted before, then unhashable
    (lambda: Frame(2, [0, 0]), "not list"),
], ids=["int-successors", "int-edges", "list-successors"])
def test_frames_refuse_bad_containers(call, kind):
    with pytest.raises(InputError, match=kind):
        call()


@pytest.mark.parametrize("call, error", [
    # a raw ValueError before: the refusal printed the number in decimal
    (lambda: check_world(10 ** 5000, 3), InputError),
    (lambda: check_world(-10 ** 5000, 3), InputError),
    (lambda: check_world_count(10 ** 5000), CapExceededError),
    (lambda: worlds_to_bits([10 ** 5000]), InputError),
    (lambda: frame_from_edges(3, [(10 ** 5000,)]), InputError),
], ids=["world", "negative-world", "world-count", "world-list", "edge"])
def test_numbers_too_long_to_print_are_refused_by_their_size(call, error):
    with pytest.raises(error) as refusal:
        call()
    assert len(str(refusal.value)) < 100


def test_world_counts_past_the_cap_are_cap_refusals():
    # lemma_valuation(40) blamed world 65 before; the 81-world chain is the cause
    with pytest.raises(CapExceededError, match="^81 worlds exceeds the 64-world cap$"):
        lemma_valuation(40)


def test_evaluator_refuses_out_of_frame_assignments(store):
    # the assignment was masked to the frame before, answering 1
    with pytest.raises(InputError, match="^x mentions worlds outside the frame$"):
        Model(make_chain(2)).evaluate(store.var("x"), {"x": 0b1101})
    with pytest.raises(InputError, match="^x must be an int, not bool$"):
        Model(make_chain(2)).evaluate(store.var("x"), {"x": True})


def test_a_model_refuses_a_statement(store):
    # kripke.evaluate answered a statement with its gap before: here 1, the
    # world where x <= y fails, as if the statement held there
    model = Model(make_chain(2), Valuation({"x": 1, "y": 0}))
    stmt = parse_statement("x <= y", store)
    with pytest.raises(InputError, match="holds_globally"):
        evaluate(model, stmt)
    with pytest.raises(InputError, match="holds_globally"):
        model.evaluate(stmt, {"x": 1})
    assert not holds_globally(model, stmt)


_CHAIN = make_chain(2)
_STORE = TermStore()
_STEP = diamond_term(_STORE)


@pytest.mark.parametrize("call, expected", [
    # a raw AttributeError before
    (lambda: fixpoint_index(_CHAIN, eq(_STEP, _STEP), "x", 0), "Term, not Statement"),
    (lambda: fixpoint_index(_CHAIN, "x", "x", 0), "Term, not str"),
    (lambda: fixpoint_index(_CHAIN, _STEP, "x", 0, {"y": 1}), "Valuation, not dict"),
    (lambda: evaluate_orbit(Model(_CHAIN), eq(_STEP, _STEP), "x", 0, 1),
     "Term, not Statement"),
    (lambda: Model(_CHAIN, {"x": 1}), "Valuation, not dict"),
    (lambda: Model(_CHAIN).evaluate("x"), "Term, not str"),
    # answered False before, though x holds at both worlds
    (lambda: holds_globally(Model(_CHAIN, Valuation({"x": 3})), _STORE.var("x")),
     "Statement, not Term; Model.evaluate"),
], ids=["fixpoint-statement", "fixpoint-str", "fixpoint-dict-params", "orbit-statement",
        "model-dict-valuation", "evaluate-str", "holds-globally-term"])
def test_doors_refuse_the_wrong_type(call, expected):
    with pytest.raises(InputError, match=expected):
        call()


def test_valuation_basics():
    v = Valuation.from_sets({"x": [0, 2]})
    assert v.bits("x") == 0b101
    assert v.bits("missing") == 0
    assert "x" in v and "missing" not in v
    assert Valuation({"x": 0b101, "y": 0b10}).to_sets() == {"x": [0, 2], "y": [1]}
    assert v == Valuation({"x": 0b101}) and hash(v) == hash(Valuation({"x": 0b101}))
    with pytest.raises(InputError):
        Valuation({"x": -1})
    for bad in ([0], "1", 1.0, None):
        with pytest.raises(InputError):
            Valuation({"x": bad})
    with pytest.raises(InputError):
        valuation_from_json({"x": [0, -1]})
    assert valuation_from_json({"x": [1]}) == Valuation({"x": 0b10})


def test_model_rejects_out_of_frame_valuation():
    with pytest.raises(InputError):
        Model(make_chain(2), Valuation({"x": 0b100}))


def test_chain_step_iterates_on_three_chain(store):
    # the alternating valuation on the 3-chain: x = z = {1}, y = {0, 2}
    model = Model(make_chain(3), lemma_valuation(1))
    t = chain_term(store)
    assert evaluate(model, iterate(t, "x", 1)) == 0b110
    assert evaluate(model, iterate(t, "x", 2)) == 0b111


def test_box_and_diamond_edges(store):
    model = Model(make_chain(3), Valuation({"x": 0b100}))
    assert evaluate(model, store.dia(store.var("x"))) == 0b011
    # box holds vacuously at the top world, which has no successors
    assert evaluate(model, store.box(store.bot())) == 0b100
    assert evaluate(model, store.box(store.var("x"))) == 0b110


def test_int_box_is_not_dia_not_on_every_world_set():
    rng = random.Random(6)
    for worlds in range(7):
        for _ in range(8):
            frame = frame_from_edges(worlds, [(i, j) for i in range(worlds)
                                              for j in range(worlds) if rng.random() < 0.4])
            _, mask, dia, box = int_ops(frame)
            assert [box(a) for a in range(mask + 1)] == [
                mask ^ dia(mask ^ a) for a in range(mask + 1)]


def _assert_int_ops_match_the_oracle(frame, store):
    x = store.var("x")
    dia_term, box_term = store.dia(x), store.box(x)
    _, mask, dia, box = int_ops(frame)
    for a in range(mask + 1):
        sets = {"x": set(bits_to_worlds(a))}
        assert dia(a) == worlds_to_bits(naive_eval(frame, sets, dia_term)), (frame, a)
        assert box(a) == worlds_to_bits(naive_eval(frame, sets, box_term)), (frame, a)


@pytest.mark.parametrize("size", range(9))
def test_chain_kernel_agrees_with_the_oracle(store, size):
    for frame in enumerate_chains(size):
        assert frame.chain_loops == sum(1 << w for w in range(size) if frame.succ[w] >> w & 1)
        _assert_int_ops_match_the_oracle(frame, store)


def test_near_chains_take_the_successor_loop(store):
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
                _assert_int_ops_match_the_oracle(frame, store)


def test_missing_variable_warns_once(store):
    model = Model(make_chain(2), Valuation())
    with pytest.warns(MissingVariableWarning):
        assert evaluate(model, store.var("q")) == 0
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(model, store.or_(store.var("q"), store.var("q"))) == 0


def test_model_evaluates_terms_of_two_stores(store):
    model = Model(make_chain(2), Valuation({"x": 0b10}))
    other = TermStore()
    assert evaluate(model, store.top()) == 0b11
    assert evaluate(model, other.top()) == 0b11
    assert evaluate(model, store.box(store.var("x"))) == 0b11
    assert evaluate(model, other.dia(other.var("x"))) == 0b01


@given(frame=frames(), plan=term_plans())
def test_diamond_is_dual_of_box(frame, plan):
    store = TermStore()
    t = build_term(plan, store)
    model = Model(frame, Valuation({n: 0 for n in ("x", "y", "z")}))
    assert evaluate(model, store.dia(t)) == \
        evaluate(model, store.not_(store.box(store.not_(t))))


@given(data=st.data(), plan=term_plans())
def test_evaluate_agrees_with_naive_oracle(data, plan):
    frame = data.draw(frames())
    valuation = data.draw(valuations_for(frame))
    store = TermStore()
    t = build_term(plan, store)
    got = evaluate(Model(frame, valuation), t)
    sets = {n: set(bits_to_worlds(valuation.bits(n))) for n in ("x", "y", "z")}
    assert got == worlds_to_bits(naive_eval(frame, sets, t))


@given(data=st.data(), k=st.integers(0, 12))
def test_iterated_evaluation_matches_syntactic_iterate(data, k):
    frame = data.draw(frames())
    valuation = data.draw(valuations_for(frame))
    store = TermStore()
    t = chain_term(store)
    model = Model(frame, valuation)
    assert evaluate_orbit(model, t, "x", valuation.bits("x"), k)[-1] == \
        evaluate(model, iterate(t, "x", k))


def test_orbit_shape_and_base_check(store):
    model = Model(make_chain(3), lemma_valuation(1))
    orbit = evaluate_orbit(model, chain_term(store), "x", 0, 3)
    assert len(orbit) == 4 and orbit[0] == 0
    with pytest.raises(InputError):
        evaluate_orbit(model, chain_term(store), "x", 0b1000, 1)


@pytest.mark.parametrize("k", [-1, 1.5, "2", True])
def test_orbit_refuses_a_step_count_that_is_no_count(store, k):
    # -1 answered [2], True counted as 1, and 1.5 and "2" raised a raw TypeError
    with pytest.raises(InputError, match="^iteration count must be"):
        evaluate_orbit(Model(make_chain(2), Valuation()), diamond_term(store), "x", 0b10, k)


def test_orbit_refuses_a_pivot_that_is_not_a_name(store):
    with pytest.raises(InputError, match="variable names match"):
        evaluate_orbit(Model(make_chain(2), Valuation()), diamond_term(store), "X", 0, 2)


def test_holds_globally(store):
    model = Model(make_chain(2, (0, 1)), Valuation({"x": 0b10}))
    x = store.var("x")
    assert holds_globally(model, leq(x, store.top()))
    assert not holds_globally(model, eq(x, store.top()))
    assert holds_globally(model, eq(store.dia(x), store.top()))


class TestEvaluator:
    def test_projection_memo_ignores_irrelevant_variables(self, store):
        ev = Model(make_chain(3))
        t = store.box(store.var("x"))
        a = ev.evaluate(t, {"x": 0b100, "y": 0})
        b = ev.evaluate(t, {"x": 0b100, "y": 0b111})
        assert a == b == 0b110

    def test_statement_gap(self, store):
        ops = int_ops(make_chain(2))
        x, y = store.var("x"), store.var("y")
        assert run(Program((leq(x, y),)), ops, {"x": 0b11, "y": 0b10}.get)[-1] == 0b01
        assert run(Program((eq(x, y),)), ops, {"x": 0b11, "y": 0b10}.get)[-1] == 0b01
        assert run(Program((leq(x, y),)), ops, {"x": 0b10, "y": 0b11}.get)[-1] == 0

    def test_store_binding(self, store):
        ev = Model(make_chain(2))
        other = TermStore()
        assert ev.evaluate(store.top(), {}) == ev.evaluate(other.top(), {}) == 0b11
        assert ev.evaluate(store.dia(store.var("x")), {"x": 0b10}) == 0b01
        assert ev.evaluate(other.dia(other.var("x")), {"x": 0b11}) == 0b01

    @given(data=st.data(), plan=term_plans())
    def test_gap_matches_naive_failure_set(self, data, plan):
        frame = data.draw(frames())
        assignment = {n: data.draw(st.integers(0, frame.mask)) for n in ("x", "y", "z")}
        store = TermStore()
        lhs = build_term(plan, store)
        stmt = data.draw(st.sampled_from([leq, eq]))(lhs, store.var("y"))
        sets = {n: set(bits_to_worlds(b)) for n, b in assignment.items()}
        assert run(Program((stmt,)), int_ops(frame), assignment.get)[-1] == \
            worlds_to_bits(naive_fails(frame, sets, stmt))


@pytest.mark.parametrize("n", [1, 2])
def test_all_evaluation_paths_agree_on_a_deep_iterate(n):
    frame, valuation = make_chain(2 * n + 1), lemma_valuation(n)
    assignment = {name: valuation.bits(name) for name in ("x", "y", "z")}
    t = parse_formula("tpow(200)", TermStore())
    scalar = evaluate(Model(frame, valuation), t)
    per_assignment = Model(frame).evaluate(t, assignment)
    # the plane backend at one assignment: no variable axes, one word per
    # world, all ones at the worlds of the variable's set
    ev = SpaceEvaluator(frame, [])
    planes = {name: np.array([[-(bits >> w & 1) & (1 << 64) - 1] for w in range(frame.worlds)],
                             dtype=np.uint64) for name, bits in assignment.items()}
    vector = run(program_of(t), ev.ops, planes.get)[-1]
    assert scalar == per_assignment == int(world_sets(vector, ())[0]) == frame.mask
