"""Validity search, transitivity degrees, fixpoint indices, and stabilization."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import modalbench.vector as vector
from modalbench.algebra import (DEFAULT_BIT_CAP, FixpointResult, ValidityReport,
                                check_validity, fixpoint_index, frame_validates,
                                transitivity_degree, uniform_stabilization)
from modalbench.chains import enumerate_chains, lemma_valuation, make_chain
from modalbench.errors import CapExceededError, InputError
from modalbench.kripke import (Frame, Program, Valuation, bits_to_worlds,
                               frame_from_edges, int_ops, run)
from modalbench.syntax import parse_formula, parse_statement
from modalbench.terms import (TermStore, boxdot_power, chain_term, diamond_term,
                              eq, iterate, leq, statement_vars)

from oracles import naive_fails, naive_fixpoint
from strategies import build_term, frames, term_plans, valuations_for


class TestCheckValidity:
    def test_chain_iterates_do_not_stabilize_at_one(self, store):
        report = check_validity(make_chain(3), parse_statement("tpow(1) = tpow(2)", store))
        assert report.verdict == "countermodel" and report.exhaustive
        assert report.valuations_tried == 1
        assert report.valuation.to_sets() == {"x": [], "y": [], "z": []}

    def test_reflexive_inclusion_is_valid(self, store):
        report = check_validity(make_chain(3), leq(store.var("x"), store.var("x")))
        assert report.verdict == "valid" and report.valuations_tried == 8
        assert report.to_json() == {"verdict": "valid", "valuation": None,
                                    "valuations_tried": 8, "exhaustive": True}

    def test_boxdot_axiom_on_reflexive_chain(self, store):
        stmt = eq(store.imp(boxdot_power(1, store), boxdot_power(2, store)),
                  store.top())
        report = check_validity(make_chain(3, (0, 1, 2)), stmt)
        assert report.verdict == "valid"
        assert report.valuations_tried == 8  # one variable, three worlds

    def test_t_axiom_fails_on_irreflexive_chain(self, store):
        frame = make_chain(3)
        stmt = eq(store.imp(store.box(store.var("x")), store.var("x")), store.top())
        report = check_validity(frame, stmt)
        assert report.verdict == "countermodel"
        assert report.valuation.to_sets() == {"x": []}
        # the classic witness x = {2} fails exactly at the middle world
        assert run(Program((stmt,)), int_ops(frame), {"x": 0b100}.get)[-1] == 0b010

    def test_countermodels_reverify(self, store):
        frame = make_chain(4, (1,))
        stmt = eq(store.dia(store.var("x")), store.var("x"))
        report = check_validity(frame, stmt)
        assert report.verdict == "countermodel"
        gap = run(Program((stmt,)), int_ops(frame), {"x": report.valuation.bits("x")}.get)
        assert gap[-1] != 0

    def test_explicit_variable_list_controls_the_space(self, store):
        frame = make_chain(2)
        stmt = leq(store.var("x"), store.var("x"))
        report = check_validity(frame, stmt, ["x", "y", "z"])
        assert report.valuations_tried == 4 ** 3

    def test_variable_list_names_each_statement_variable_once(self, store):
        stmt = eq(store.var("x"), store.bot())
        for bad in (["y"], [], ["x", "y", "x"], ["x", "", "X"], ["x", 1]):
            with pytest.raises(InputError):
                check_validity(make_chain(2), stmt, bad)

    def test_variable_list_refuses_a_str(self, store):
        # a str once split into letters: "yx" read as ["y", "x"] and "x1"
        # refused as "got '1'"
        stmt = leq(store.var("x"), store.var("y"))
        for bad in ("yx", "x1", "x"):
            with pytest.raises(InputError, match="list of names, not a str"):
                check_validity(make_chain(2), stmt, bad)

    def test_cap_refusal_and_sampling(self, store):
        frame = make_chain(13)
        stmt = leq(store.var("x"), store.or_(store.var("x"), store.var("y")))
        with pytest.raises(CapExceededError):
            check_validity(frame, stmt)
        report = check_validity(frame, stmt, samples=16)
        assert report.verdict == "unknown" and not report.exhaustive
        assert report.valuations_tried == 16
        with pytest.raises(InputError, match="nonnegative"):
            check_validity(frame, stmt, samples=-3)

    def test_negative_cap_is_an_input_error(self, store):
        # once read as a cap that every check exceeds
        stmt = eq(store.var("x"), store.var("x"))
        for samples in (None, 16):
            with pytest.raises(InputError, match="bit cap must be nonnegative, got -1"):
                check_validity(make_chain(2), stmt, bit_cap=-1, samples=samples)
        assert check_validity(make_chain(1), eq(store.top(), store.top()),
                              bit_cap=0).verdict == "valid"

    @pytest.mark.parametrize("cap", [3.5, "3", True])
    def test_a_bit_cap_that_is_no_int_is_refused(self, store, cap):
        # 3.5 was accepted and printed in the cap message, "3" raised a raw
        # TypeError and True was a cap of 1
        with pytest.raises(InputError, match=f"^bit cap must be an int, not {type(cap).__name__}$"):
            check_validity(make_chain(2), eq(store.var("x"), store.var("x")), bit_cap=cap)

    @pytest.mark.parametrize("count", [2.5, "3", True])
    def test_a_sample_count_that_is_no_int_is_refused(self, store, count):
        # True answered with valuations_tried=True, 2.5 and "3" raised a raw TypeError
        with pytest.raises(InputError,
                           match=f"^sample count must be an int, not {type(count).__name__}$"):
            check_validity(make_chain(2), eq(store.var("x"), store.var("x")), bit_cap=1,
                           samples=count)

    @pytest.mark.parametrize("knob", ["bit_cap", "samples"])
    def test_counts_too_long_to_print_are_refused_by_their_size(self, store, knob):
        with pytest.raises(InputError, match="<16610-bit int>"):
            check_validity(make_chain(2), eq(store.var("x"), store.var("x")),
                           **{knob: -10 ** 5000})

    def test_sampling_starts_with_the_empty_valuation(self, store):
        report = check_validity(make_chain(9), parse_statement("tpow(4) = tpow(5)", store),
                                samples=4096)
        assert report.verdict == "countermodel"
        assert report.valuations_tried == 1
        assert report.valuation.to_sets() == {"x": [], "y": [], "z": []}

    @pytest.mark.parametrize("frame, text, count, seed, least", [
        (make_chain(13), "x <= x | y", 0, 0, 0),
        (make_chain(13), "x <= x | y", 1, 0, 1),
        (make_chain(13), "x <= x | y", 2, 0, 2),
        (make_chain(13), "x <= x | y", 4096, 0, 4096),
        (make_chain(13), "x <= <>x", 4096, 0, 2),
        (make_chain(2), "[]F = F", 4096, 0, 1),
        (make_chain(13), "x & y & ~z & ~w & v = F", 4096, 2, 6),
    ], ids=["none", "one", "two", "unknown", "full-row-hit", "closed", "seeded-hit"])
    def test_sampling_matches_a_naive_row_loop(self, monkeypatch, store, frame, text, count,
                                              seed, least):
        stmt = parse_statement(text, store)
        # a closed statement costs 0 bits, which no cap refuses, so it is
        # sampled over one variable it does not use
        names = sorted(statement_vars(stmt)) or ["x"]

        def sample():
            return check_validity(frame, stmt, names, bit_cap=0, samples=count, seed=seed)

        report = sample()
        rng = random.Random(seed)
        want = ValidityReport("unknown", None, count, False)
        for row in range(count):
            if row < 2:
                values = {name: row * frame.mask for name in names}
            else:
                values = {name: rng.getrandbits(frame.worlds) for name in names}
            sets = {name: set(bits_to_worlds(b)) for name, b in values.items()}
            if naive_fails(frame, sets, stmt):
                want = ValidityReport("countermodel", Valuation(values), row + 1, False)
                break
        assert report == want
        assert report.valuations_tried >= least
        monkeypatch.setattr(vector, "_BLOCK_ENTRIES", 2)  # batches of two rows
        assert sample() == want


class TestTransitivityDegree:
    def test_pinned_examples(self):
        assert transitivity_degree(Frame(3, (0, 0, 0)), 4) == 0
        assert transitivity_degree(make_chain(2), 4) == 1
        path3 = frame_from_edges(3, [(0, 1), (1, 2)])
        assert transitivity_degree(path3, 4) == 2
        path5 = frame_from_edges(5, [(i, i + 1) for i in range(4)])
        assert transitivity_degree(path5, 6) == 4
        assert transitivity_degree(path5, 3) is None
        with pytest.raises(InputError):
            transitivity_degree(path3, -1)

    @pytest.mark.parametrize("bound", [2.5, "3", True])
    def test_a_bound_that_is_no_int_is_refused(self, bound):
        # "3" and 2.5 raised a raw TypeError, True was a bound of 1
        with pytest.raises(InputError, match=f"^max_n must be an int, not {type(bound).__name__}$"):
            transitivity_degree(frame_from_edges(3, [(0, 1), (1, 2)]), bound)

    @given(frame=frames(max_worlds=4), max_n=st.integers(0, 4))
    def test_degree_matches_the_boxdot_axiom(self, frame, max_n):
        """The relational degree and the least n making the n-th reflexive-box
        power imply the next one must coincide; this is the semantic content
        of the degree."""
        store = TermStore()
        degree = transitivity_degree(frame, max_n)
        axiomatic = None
        for n in range(max_n + 1):
            stmt = eq(store.imp(boxdot_power(n, store), boxdot_power(n + 1, store)),
                      store.top())
            if check_validity(frame, stmt).verdict == "valid":
                axiomatic = n
                break
        assert degree == axiomatic


def test_frame_validates(store):
    t_axiom = store.imp(store.box(store.var("x")), store.var("x"))
    assert frame_validates(make_chain(3, (0, 1, 2)), [t_axiom])
    assert not frame_validates(make_chain(3), [t_axiom])
    assert frame_validates(make_chain(3), [])


class TestFixpointIndex:
    def test_reachability_on_a_path(self, store):
        frame = frame_from_edges(3, [(0, 1), (1, 2)])
        result = fixpoint_index(frame, diamond_term(store), "x", 0b100)
        assert result.index == 2
        assert result.orbit == (0b100, 0b110, 0b111)
        assert result.fixpoint == 0b111
        assert result.to_json() == {"index": 2, "fixpoint": [0, 1, 2],
                                    "orbit": [[2], [1, 2], [0, 1, 2]]}

    def test_transitive_chain_closes_in_one_step(self, store):
        result = fixpoint_index(make_chain(3), diamond_term(store), "x", 0b100)
        assert result.index == 1 and result.fixpoint == 0b111

    def test_parameters_feed_the_step(self, store):
        result = fixpoint_index(make_chain(3), chain_term(store), "x", 0,
                                lemma_valuation(1))
        assert result.index == 2 and result.orbit == (0, 0b110, 0b111)

    def test_empty_base_on_empty_step(self, store):
        result = fixpoint_index(make_chain(2), diamond_term(store), "x", 0)
        assert result.index == 0 and result.orbit == (0,)

    def test_rejects_non_increasing_terms(self, store):
        with pytest.raises(InputError, match="not increasing"):
            fixpoint_index(make_chain(3), store.box(store.var("x")), "x", 0)

    def test_rejects_non_monotone_terms(self, store):
        t = parse_formula("x | []~x", store)
        with pytest.raises(InputError, match="not monotone"):
            fixpoint_index(make_chain(2), t, "x", 0)

    @given(data=st.data(), frame=frames(0, 5), plan=term_plans())
    def test_agrees_with_the_naive_precheck(self, data, frame, plan):
        # x | plan is increasing, so most draws reach the monotone check
        store = TermStore()
        term = store.make("or", (store.var("x"), build_term(plan, store)))
        params = data.draw(valuations_for(frame))
        base = data.draw(st.integers(0, frame.mask))
        want = naive_fixpoint(frame, term, "x", base,
                              {n: params.bits(n) for n in params.names()})
        try:
            got = fixpoint_index(frame, term, "x", base, params).orbit
        except InputError as refusal:
            got = str(refusal)
        assert got == want

    def test_refuses_large_frames_and_bad_bases(self, store):
        big = Frame(17, (0,) * 17)
        with pytest.raises(CapExceededError):
            fixpoint_index(big, diamond_term(store), "x", 0)
        with pytest.raises(InputError):
            fixpoint_index(make_chain(2), diamond_term(store), "x", 0b100)


class TestUniformStabilization:
    def test_reachability_step_on_transitive_chains(self, store):
        assert uniform_stabilization(enumerate_chains(3), diamond_term(store), "x") == 1

    def test_single_reflexive_point_is_immediate(self, store):
        assert uniform_stabilization([make_chain(1, (0,))], diamond_term(store), "x") == 0

    def test_chain_step_does_not_stabilize_early(self, store):
        assert uniform_stabilization(enumerate_chains(3), chain_term(store), "x",
                                     max_n=1) is None

    def test_over_cap_without_sampling_refuses(self, store):
        with pytest.raises(CapExceededError):
            uniform_stabilization([make_chain(9)], chain_term(store), "x", max_n=1)

    def test_negative_cap_is_an_input_error(self, store):
        for frames in ([], [make_chain(2)]):
            with pytest.raises(InputError, match="bit cap must be nonnegative, got -1"):
                uniform_stabilization(frames, diamond_term(store), "x", bit_cap=-1,
                                      samples=16)

    def test_a_cap_too_long_to_print_is_refused_by_its_size(self, store):
        with pytest.raises(InputError, match="<16610-bit int>"):
            uniform_stabilization([make_chain(2)], diamond_term(store), "x",
                                  bit_cap=-10 ** 5000)

    @pytest.mark.parametrize("knob, value, what", [
        ("max_n", 2.5, "max_n"), ("max_n", "3", "max_n"), ("max_n", True, "max_n"),
        ("bit_cap", 3.5, "bit cap"), ("bit_cap", True, "bit cap"),
    ])
    def test_a_bound_or_cap_that_is_no_int_is_refused(self, store, knob, value, what):
        # max_n=2.5 and "3" raised a raw TypeError, bit_cap=3.5 was accepted
        with pytest.raises(InputError, match=f"^{what} must be an int, not {type(value).__name__}$"):
            uniform_stabilization([make_chain(2)], diamond_term(store), "x", **{knob: value})

    def test_sampling_rejects_but_never_certifies(self, store):
        # every candidate through 6 is refuted by the first sample on the
        # 13-chain; candidate 7 survives sampling, which is not good enough
        with pytest.raises(CapExceededError, match="cannot certify"):
            uniform_stabilization([make_chain(13)], chain_term(store), "x", max_n=7,
                                  samples=64)

    def test_adding_frames_can_only_raise_the_index(self, store):
        small = [make_chain(1, (0,))]
        more = small + enumerate_chains(3)
        a = uniform_stabilization(small, diamond_term(store), "x")
        b = uniform_stabilization(more, diamond_term(store), "x")
        assert a == 0 and b == 1 and b >= a


def test_closed_statement_on_the_largest_frame(store):
    report = check_validity(make_chain(64), parse_statement("T = T", store))
    assert report.verdict == "valid" and report.valuations_tried == 1


def test_finished_check_frees_its_node_arrays_without_the_collector():
    stmt = parse_statement("tpow(2) = tpow(3)", TermStore())
    check_validity(make_chain(2), stmt, ["x", "y", "z"])  # one-time caches
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = check_validity(make_chain(6), stmt, ["x", "y", "z"])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert report.verdict == "countermodel"
    assert held < 1 << 20


def test_validity_memory_follows_the_dag_width_not_its_size():
    # every node array stayed to the end of its block: 5 MiB more per step of n
    store = TermStore()
    names = ["x", "y", "z"]
    check_validity(make_chain(7), parse_statement("tpow(1) = tpow(2)", store), names)
    peaks = []
    for n in range(4, 9):
        stmt = parse_statement(f"tpow({n}) = tpow({n + 1})", store)
        tracemalloc.start()
        try:
            report = check_validity(make_chain(7), stmt, names)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.verdict == "valid" and report.valuations_tried == 1 << 21
    assert all(peak < 8 << 20 and peak < 1.25 * peaks[0] for peak in peaks), peaks
