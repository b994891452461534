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
