"""Per-layer spans for the traced run, recorded from outside the library.

Tracing replaces the public functions at the module attributes the drivers
call through (for example `algebra.first_countermodel` or
`chains.evaluate_orbit`) with wrappers that record a span: layer, start,
end, parent span and operation. Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its direct
children, so nested layers are not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
from time import perf_counter_ns

# Span kinds and the layer each belongs to.
PARSE, BUILD, EVAL, ORBIT = "syntax.parse", "terms.build", "kripke.eval", "kripke.orbit"
INIT, NODE, GAP, SCAN = "vector.init", "vector.node", "vector.gap", "vector.scan"
ALGEBRA, CHAINS, CONSEQUENCE = "algebra", "chains", "consequence"
COMMAND, PROCESS = "cli.command", "cli.process"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (kind, start_ns, end_ns, parent, op, failed, value)
        self._open: list[int] = []
        self.op = -1
        self._patched: list[tuple] = []
        self._node_count = None

    def span(self, kind: str, fn, value=None):
        """Wrap fn so that every call records a span; value(args, result)
        attaches something to the span (assignments covered, or the term
        built, whose DAG nodes are counted once the run is over)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            tracer.spans.append(None)
            tracer._open.append(index)
            failed = True
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter_ns()
                tracer._open.pop()
                tracer.spans[index] = (kind, start, end, parent, tracer.op, failed, None)
            if value is not None:
                tracer.spans[index] = tracer.spans[index][:6] + (value(args, result),)
            return result

        return traced

    def patch(self, owner, attr: str, kind: str, value=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.span(kind, original, value))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def install(self, lib) -> None:
        """Wrap every layer boundary the workloads reach. lib is the
        benchmark's handle on the imported modalbench modules."""
        syntax, terms, kripke, vector = lib.syntax, lib.terms, lib.kripke, lib.vector
        algebra, chains, consequence, cli = lib.algebra, lib.chains, lib.consequence, lib.cli

        self._node_count = terms.node_count

        def built(args, result):
            return result  # counted by layer_metrics, after the run

        def covered(args, hit):
            space = args[0]
            return space.size ** len(space.names) if hit is None else hit[0] + 1

        for owner in (syntax, cli):
            for attr in ("parse_formula", "parse_statement"):
                self.patch(owner, attr, PARSE)
        for owner, attr in ((syntax, "iterate"), (syntax, "s_term"), (syntax, "chain_term"),
                            (chains, "chain_term"), (chains, "s_term"),
                            (consequence, "iterate"), (consequence, "substitute"),
                            (algebra, "iterate")):
            self.patch(owner, attr, BUILD, built)
        for owner in (kripke, chains, cli):
            self.patch(owner, "evaluate", EVAL)
        self.patch(kripke.Evaluator, "evaluate", EVAL)
        self.patch(chains, "evaluate_orbit", ORBIT)
        self.patch(vector.SpaceEvaluator, "__init__", INIT)
        self.patch(vector.SpaceEvaluator, "evaluate", NODE)
        self.patch(vector.SpaceEvaluator, "gap", GAP)
        for owner in (vector, algebra, consequence):
            self.patch(owner, "first_countermodel", SCAN, covered)
        for owner in (algebra, cli):
            self.patch(owner, "check_validity", ALGEBRA)
            self.patch(owner, "fixpoint_index", ALGEBRA)
        for owner in (chains, cli):
            self.patch(owner, "check_lemma", CHAINS)
        for owner in (consequence, cli):
            self.patch(owner, "check_consequence", CONSEQUENCE)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer totals for the traced rounds, divided by their number,
        and the median in-process command time."""
        self.spans = spans = [span[:6] + (self._node_count(span[6]),)
                              if span[0] == BUILD else span for span in self.spans]
        child_ns = [0] * len(spans)
        for kind, start, end, parent, *_ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total = {}   # self time per kind, ns
        outer = {}   # inclusive time of spans whose parent is in another layer
        calls = {}
        values = {}
        failed = 0
        for i, (kind, start, end, parent, _op, bad, value) in enumerate(spans):
            dur = end - start
            total[kind] = total.get(kind, 0) + dur - child_ns[i]
            calls[kind] = calls.get(kind, 0) + 1
            parent_kind = spans[parent][0] if parent >= 0 else None
            layer = kind.split(".")[0]
            if parent_kind is None or parent_kind.split(".")[0] != layer:
                outer[layer] = outer.get(layer, 0) + dur
                if value is not None:
                    values[kind] = values.get(kind, 0) + value
            if kind == EVAL and bad:
                failed += 1

        def ms(ns):
            return ns / 1e6 / rounds

        scan_ns = total.get(SCAN, 0)
        assignments = values.get(SCAN, 0)
        commands = [end - start for kind, start, end, *_ in spans if kind == COMMAND]
        return {
            "syntax.parse_ms": ms(total.get(PARSE, 0)),
            "syntax.parse_calls": calls.get(PARSE, 0) / rounds,
            "terms.build_ms": ms(outer.get("terms", 0)),
            "terms.dag_nodes": values.get(BUILD, 0) / rounds,
            "kripke.eval_ms": ms(outer.get("kripke", 0)),
            "kripke.eval_calls": calls.get(EVAL, 0) / rounds,
            "kripke.eval_failed": failed / rounds,
            "vector.node_eval_ms": ms(sum(total.get(k, 0) for k in (INIT, NODE, GAP))),
            "vector.node_eval_calls": calls.get(NODE, 0) / rounds,
            "vector.evaluators": calls.get(INIT, 0) / rounds,
            "vector.scan_self_ms": ms(scan_ns),
            "vector.assignments": assignments / rounds,
            "vector.scan_ns_per_assignment": scan_ns / assignments if assignments else 0.0,
            "algebra.self_ms": ms(total.get(ALGEBRA, 0)),
            "chains.self_ms": ms(total.get(CHAINS, 0)),
            "consequence.self_ms": ms(total.get(CONSEQUENCE, 0)),
            "cli.command_ms": statistics.median(commands) / 1e6 if commands else 0.0,
        }

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for kind, start, end, parent, op, failed, value in self.spans:
                out.write(json.dumps({"layer": kind, "start_ns": start, "end_ns": end,
                                      "parent": parent, "op": op, "failed": failed,
                                      "value": value}) + "\n")
