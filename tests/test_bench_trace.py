"""The traced benchmark run against the library: every module attribute that
bench/spans.py wraps must still exist, and the spans it records must add up.

The harness is imported as it is, from bench/, without edits; a library
change that breaks `bench/run.py --trace 1` fails here first.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import spans

    return run, spans


def test_traced_layers_count_the_assignments(harness):
    run, spans = harness
    lib = run.Library()
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        stmt = lib.syntax.parse_statement("x <= <>x | x")
        report = lib.algebra.check_validity(lib.chains.make_chain(2), stmt)
        cert = lib.chains.check_lemma(1)
    finally:
        tracer.unpatch()
    assert report.verdict == "valid" and cert.valid
    metrics = tracer.layer_metrics(1)
    assert metrics["vector.assignments"] == 4
    assert metrics["vector.evaluators"] == 1
    assert metrics["syntax.parse_calls"] == 1


def test_multi_block_checks_trace_one_gap_per_block(harness, monkeypatch):
    run, spans = harness
    lib = run.Library()
    monkeypatch.setattr(lib.vector, "_BLOCK_ENTRIES", 4)
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        stmt = lib.syntax.parse_statement("x & y <= x | z")
        report = lib.algebra.check_validity(lib.chains.make_chain(2), stmt, ["x", "y", "z"])
    finally:
        tracer.unpatch()
    assert report.verdict == "valid" and report.valuations_tried == 64
    assert tracer.layer_metrics(1)["vector.assignments"] == 64
    assert sum(span[0] == spans.GAP for span in tracer.spans) == 64 // 4


def test_eliminated_consequence_traces_one_gap_per_statement(harness, monkeypatch):
    # no statement of sigma |= pi_1 mentions all five variables, so with a
    # budget of 256 a 2-chain is one block of 4^5, searched by elimination
    run, spans = harness
    lib = run.Library()
    monkeypatch.setattr(lib.vector, "_BLOCK_ENTRIES", 256)
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        store = lib.terms.TermStore()
        sigma, pi = lib.consequence.build_sigma_pi(lib.terms.chain_term(store), "x", 1)
        result = lib.consequence.check_consequence(lib.consequence.ConsequenceProblem(
            sigma, pi[1], [lib.chains.make_chain(2)], max_bits=25))
    finally:
        tracer.unpatch()
    assert result.holds and result.assignments == 4 ** 5
    assert tracer.layer_metrics(1)["vector.assignments"] == 4 ** 5
    assert sum(span[0] == spans.GAP for span in tracer.spans) == len(sigma) + 1
