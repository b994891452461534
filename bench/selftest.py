"""Self-test of the benchmark's checkers: each accepts a genuine answer from
the library and rejects a corrupted copy of it, and the path-length
decisions agree with a brute-force search on every chain of up to 3 worlds.

    python3 bench/selftest.py

Exits 0 when every checker behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import checks
from run import Library
from workloads import loops_of

failures = 0


def expect(name: str, genuine, corrupted: dict) -> None:
    """genuine must pass; each corrupted variant must be rejected."""
    global failures
    if genuine is not None:
        failures += 1
        print(f"FAIL {name}: rejected a genuine answer: {genuine}")
    else:
        print(f"ok   {name}: accepts the genuine answer")
    for what, problem in corrupted.items():
        if problem is None:
            failures += 1
            print(f"FAIL {name}: accepted {what}")
        else:
            print(f"ok   {name}: rejects {what} ({problem[:70]})")


def brute_force() -> None:
    """The path-length deciders against every valuation on small chains."""
    global failures
    names = checks.CONSEQUENCE_VARS
    cases = 0
    for size in range(1, 4):
        for mask in range(1 << size):
            loops = frozenset(loops_of(mask))
            succ = checks.chain_succ(size, loops)
            for n in range(4):
                sets = [{v: checks.bits_to_set(b) for v, b in
                         checks.decode_flat(i, ["x", "y", "z"], size).items()}
                        for i in range(1 << (3 * size))]
                found = any(checks.tpow(succ, n, s["x"], s["y"], s["z"])
                            != checks.tpow(succ, n + 1, s["x"], s["y"], s["z"]) for s in sets)
                cases += 1
                if found != checks.tpow_step_refutable(size, loops, n):
                    failures += 1
                    print(f"FAIL tpow_step_refutable({size}, {sorted(loops)}, {n})")
                found = any(not checks.pi_fails(succ, n, v) and checks.pi_fails(succ, n + 1, v)
                            for v in (checks.decode_flat(i, names, size)
                                      for i in range(1 << (4 * size))))
                cases += 1
                if found != checks.perturbed_refutable(size, loops, n):
                    failures += 1
                    print(f"FAIL perturbed_refutable({size}, {sorted(loops)}, {n})")
    print(f"ok   path-length deciders: {cases} cases against brute force")


def main() -> int:
    lib = Library()
    chains, algebra, syntax, terms, kripke = (lib.chains, lib.algebra, lib.syntax,
                                              lib.terms, lib.kripke)
    brute_force()

    cert = chains.check_lemma(2, [1, 3])
    fields = json.loads(json.dumps(cert.to_json()))
    broken_claims = {**fields, "claim_table": {**fields["claim_table"], "0": [2, 4]}}
    expect("certificate", checks.check_certificate(2, [1, 3], fields), {
        "an invalid flag": checks.check_certificate(2, [1, 3], {**fields, "valid": False}),
        "a wrong claim table": checks.check_certificate(2, [1, 3], broken_claims),
        "a lost loop": checks.check_certificate(2, [1, 3], {**fields, "reflexive_points": [1]}),
    })

    frame = chains.make_chain(4, [2])
    step = terms.diamond_term(terms.TermStore())
    fix = algebra.fixpoint_index(frame, step, "x", 0b0100)
    expect("fixpoint", checks.check_fixpoint(4, 0b0100, fix.index, fix.fixpoint, fix.orbit), {
        "a wrong fixpoint": checks.check_fixpoint(4, 0b0100, fix.index, 0b1111, fix.orbit),
        "a wrong index": checks.check_fixpoint(4, 0b0100, 0, fix.fixpoint, fix.orbit),
    })

    model = kripke.Model(chains.make_chain(7), chains.lemma_valuation(3))
    bits = kripke.evaluate(model, syntax.parse_formula("tpow(3)", terms.TermStore()))
    expect("tpow value", checks.check_tpow_value(3, 3, bits), {
        "a flipped world": checks.check_tpow_value(3, 3, bits ^ 0b10),
        "the next iterate's value": checks.check_tpow_value(3, 3, 0b1111111),
    })

    decisions: dict = {}
    stmt = syntax.parse_statement("tpow(1) = tpow(2)", terms.TermStore())
    report = algebra.check_validity(chains.make_chain(3, [1]), stmt, ["x", "y", "z"])
    val = {v: report.valuation.bits(v) for v in "xyz"}
    later = next(i for i in range(report.valuations_tried, 1 << 9)
                 if checks.statement_fails(checks.chain_succ(3, {1}), ("step", 1),
                                            *(checks.bits_to_set(b) for b in
                                              checks.decode_flat(i, ["x", "y", "z"], 3).values())))
    later_val = checks.decode_flat(later, ["x", "y", "z"], 3)

    def validity(verdict, valuation, tried, key=("step", 1), exhaustive=True):
        return checks.check_validity_answer(3, [1], key, verdict, valuation, tried,
                                            exhaustive, decisions)
    expect("validity", validity("countermodel", val, report.valuations_tried), {
        "a valid verdict for a refutable statement": validity("valid", None, 1 << 9),
        "a countermodel that is not the lowest": validity("countermodel", later_val, later + 1),
        "an index the valuation does not spell": validity("countermodel", val,
                                                          report.valuations_tried + 1),
        "a countermodel to a valid statement": validity("countermodel", val,
                                                        report.valuations_tried, ("below", 1)),
        "a short count for a valid statement": validity("valid", None, 8, ("below", 1)),
    })

    store = terms.TermStore()
    sigma, pi = lib.consequence.build_sigma_pi(terms.chain_term(store), "x", 2)
    cframe = chains.make_chain(3)
    result = lib.consequence.check_consequence(
        lib.consequence.ConsequenceProblem([pi[0]], pi[1], [cframe]))
    names = checks.CONSEQUENCE_VARS
    cval = {v: result.valuation.bits(v) for v in names}

    def consequence(kind, holds, frame_index, valuation, world, assignments):
        return checks.check_consequence_answer(3, [], kind, 0, holds, frame_index, valuation,
                                               world, assignments, decisions)
    expect("consequence", consequence("perturbed", False, 0, cval, result.failure_world,
                                      result.assignments), {
        "a perturbed problem reported to hold": consequence("perturbed", True, None, None,
                                                            None, 1 << 12),
        "a wrong failure world": consequence("perturbed", False, 0, cval,
                                             result.failure_world + 1, result.assignments),
        "a bounded problem reported refuted": consequence("bounded", False, 0, cval, 0,
                                                          result.assignments),
        "a weakened problem with a short count": consequence("weakened", True, None, None,
                                                             None, 1 << 11),
    })

    rng = random.Random(7)
    sets = {v: {w for w in range(4) if rng.random() < 0.5} for v in "xyz"}
    ast = ("->", ("[]", ("var", "x")), ("|", ("<>", ("var", "y")), ("~", ("var", "z"))))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(["eval", "--frame", "chain:4:refl=1", "--formula",
                             checks.render(ast), "--val",
                             json.dumps({v: sorted(s) for v, s in sets.items()}), "--json"])
    payload = json.loads(out.getvalue())
    wrong = {**payload, "worlds": sorted(set(payload["worlds"]) ^ {0})}
    expect("cli eval", checks.check_eval_answer(4, [1], sets, ast, code, payload), {
        "a wrong world set": checks.check_eval_answer(4, [1], sets, ast, code, wrong),
        "a wrong exit code": checks.check_eval_answer(4, [1], sets, ast, 1 - code, payload),
    })

    print("all checkers behave" if not failures else f"{failures} checker failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
