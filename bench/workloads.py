"""The four workloads: their inputs, operations and answer checks.

Each workload builds its inputs from a seeded random.Random and hands the
benchmark loop whole rounds of operations. An operation is one call that
yields one verdict; the loop times the call alone and checks the answer
afterwards with the independent checkers in checks.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / "bench" / "runs"


class Op:
    __slots__ = ("label", "call", "check")

    def __init__(self, label: str, call, check):
        self.label = label
        self.call = call
        self.check = check


def loops_of(mask: int) -> list[int]:
    return [w for w in range(mask.bit_length()) if mask >> w & 1]


def valuation_bits(valuation, names) -> dict[str, int] | None:
    return None if valuation is None else {name: valuation.bits(name) for name in names}


class Certify:
    """The scalar route to the witness: every loop decoration's certificate
    for n = 1..5, every reachability orbit on chains of 1-5 worlds, and
    tpow(k) from text on each lemma chain, k = n, n+1, one seeded k in
    100..150 and the parser's cap 200."""

    tail_percentile = 95.0

    def __init__(self, lib, rng):
        self.lib, self.rng = lib, rng
        chains, terms = lib.chains, lib.terms
        self.step = terms.diamond_term(terms.TermStore())
        self.lemmas = [(n, mask) for n in range(1, 6) for mask in range(1 << (2 * n + 1))]
        self.orbits = [(chains.make_chain(size, loops_of(mask)), size, base)
                       for size in range(1, 6) for mask in range(1 << size)
                       for base in range(1 << size)]
        self.powers = [(n, k, chains.make_chain(2 * n + 1), chains.lemma_valuation(n))
                       for n in range(1, 6)
                       for k in (n, n + 1, rng.randint(100, 150), 200)]
        self.verified: set[str] = set()  # certificates already checked

    def _lemma(self, n, mask):
        return self.lib.chains.check_lemma(n, loops_of(mask))

    def _check_lemma(self, n, mask, cert):
        v = cert.valuation
        fields = {"n": cert.n, "worlds": cert.spec.size,
                  "reflexive_points": sorted(cert.spec.reflexive_points),
                  "valuation": {name: loops_of(v.bits(name)) for name in sorted(v.names())},
                  "fails_at_zero": cert.fails_at_zero, "global_next": cert.global_next,
                  "s_global": cert.s_global, "claim_table": cert.claim_table,
                  "valid": cert.valid}
        key = repr(fields)
        if key in self.verified:
            return None
        problem = checks.check_certificate(n, loops_of(mask), fields)
        if problem is None:
            self.verified.add(key)
        return problem

    def _orbit(self, frame, base):
        return self.lib.algebra.fixpoint_index(frame, self.step, "x", base)

    def _power(self, k, frame, valuation):
        lib = self.lib
        term = lib.syntax.parse_formula(f"tpow({k})", lib.terms.TermStore())
        return lib.kripke.evaluate(lib.kripke.Model(frame, valuation), term)

    def lemma_op(self, n, mask):
        return Op(f"lemma n={n} loops={mask:#x}", partial(self._lemma, n, mask),
                  partial(self._check_lemma, n, mask))

    def orbit_op(self, frame, size, base):
        return Op(f"orbit {size} worlds base={base:#x}", partial(self._orbit, frame, base),
                  lambda r: checks.check_fixpoint(size, base, r.index, r.fixpoint, r.orbit))

    def power_op(self, n, k, frame, valuation):
        return Op(f"tpow({k}) on the {2 * n + 1}-chain", partial(self._power, k, frame, valuation),
                  partial(checks.check_tpow_value, n, k))

    def round_ops(self):
        ops = ([self.lemma_op(*args) for args in self.lemmas]
               + [self.orbit_op(*args) for args in self.orbits]
               + [self.power_op(*args) for args in self.powers])
        self.rng.shuffle(ops)
        return ops

    def warm_up_ops(self):
        return [self.lemma_op(*self.lemmas[0]), self.orbit_op(*self.orbits[0]),
                self.power_op(*self.powers[0])]


STATEMENTS = ([(("step", n), f"tpow({n}) = tpow({n + 1})") for n in range(5)]
              + [(("below", m), f"spow({m}) <= tpow({m})") for m in range(1, 5)])


class Deck:
    """Deals the masks 0..count-1 a few at a time, each pass over them in a
    fresh seeded order, so consecutive rounds cover every mask evenly."""

    def __init__(self, count: int, rng):
        self.count, self.rng, self.left = count, rng, []

    def deal(self, k: int) -> list[int]:
        out = []
        while len(out) < k:
            if not self.left:
                self.left = list(range(self.count))
                self.rng.shuffle(self.left)
            out.append(self.left.pop())
        return sorted(out)


class Validity:
    """Exhaustive check_validity over x, y, z of the nine statements, each
    from text in a fresh TermStore, on all 32 five-world chains and on the
    irreflexive and the fully reflexive seven-world chain. The seed draws
    nothing: with drawn seven-world chains the peak memory of a run moved
    by a quarter between seeds, because how long finished checks keep their
    node arrays depends on when the cyclic collector happens to run."""

    SEVENS = (0, (1 << 7) - 1)
    tail_percentile = 96.0

    def __init__(self, lib, rng):
        self.lib = lib
        self.decisions: dict = {}

    def _check(self, text, frame):
        lib = self.lib
        parsed = lib.syntax.parse_statement(text, lib.terms.TermStore())
        return lib.algebra.check_validity(frame, parsed, ["x", "y", "z"])

    def _op(self, key, text, size, mask):
        frame = self.lib.chains.make_chain(size, loops_of(mask))
        return Op(f"{text} on {size} worlds loops={mask:#x}",
                  partial(self._check, text, frame),
                  lambda r: checks.check_validity_answer(
                      size, loops_of(mask), key, r.verdict,
                      valuation_bits(r.valuation, "xyz"), r.valuations_tried,
                      r.exhaustive, self.decisions))

    def round_ops(self):
        frames = [(5, m) for m in range(1 << 5)] + [(7, m) for m in self.SEVENS]
        return [self._op(key, text, size, mask)
                for key, text in STATEMENTS for size, mask in frames]

    def warm_up_ops(self):
        return [self._op(*STATEMENTS[0], 5, 0)]


class Consequence:
    """Criterion 6 one frame at a time: bounded (sigma |= pi_k), weakened
    (pi_(k+1) |= pi_k) and perturbed (pi_k |= pi_(k+1)) for k = 0..3. A round
    checks all twelve on each of the 30 chains of 1-4 worlds and on 8 of the
    32 five-world chains, dealt so that 4 rounds cover all 62 chains. Within
    a round the order is fixed, because peak memory depends on it (finished
    checks keep their node arrays until the cyclic collector runs)."""

    FIVES_PER_ROUND = 8
    tail_percentile = 97.5

    def __init__(self, lib, rng):
        self.lib, self.rng = lib, rng
        store = lib.terms.TermStore()
        sigma, pi = lib.consequence.build_sigma_pi(lib.terms.chain_term(store), "x", 4)
        self.problems = ([("bounded", k, sigma, pi[k], 25) for k in range(4)]
                         + [("weakened", k, [pi[k + 1]], pi[k], 24) for k in range(4)]
                         + [("perturbed", k, [pi[k]], pi[k + 1], 24) for k in range(4)])
        self.small = [(size, mask) for size in range(1, 5) for mask in range(1 << size)]
        self.fives = Deck(1 << 5, rng)
        self.decisions: dict = {}

    def _check(self, premises, conclusion, frame, max_bits):
        lib = self.lib.consequence
        return lib.check_consequence(
            lib.ConsequenceProblem(premises, conclusion, [frame], max_bits=max_bits))

    def _op(self, problem, size, mask):
        kind, k, premises, conclusion, max_bits = problem
        frame = self.lib.chains.make_chain(size, loops_of(mask))
        names = checks.SIGMA_VARS if kind == "bounded" else checks.CONSEQUENCE_VARS
        return Op(f"{kind} k={k} on {size} worlds loops={mask:#x}",
                  partial(self._check, premises, conclusion, frame, max_bits),
                  lambda r: checks.check_consequence_answer(
                      size, loops_of(mask), kind, k, r.holds, r.frame_index,
                      valuation_bits(r.valuation, names), r.failure_world,
                      r.assignments, self.decisions))

    def round_ops(self):
        frames = self.small + [(5, m) for m in self.fives.deal(self.FIVES_PER_ROUND)]
        return [self._op(p, *f) for f in frames for p in self.problems]

    def warm_up_ops(self):
        return [self._op(self.problems[4], *self.small[0])]


def cli_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def run_process(argv: list[str], stderr_path: Path):
    """Run one command to completion; (exit code, stdout, stderr, peak RSS in
    KiB), the last read from the child's own resource usage."""
    try:
        with open(stderr_path, "w+b") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    cwd=ROOT, env=cli_env())
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return proc.returncode, out.decode(), err.read().decode(), usage.ru_maxrss
    finally:
        stderr_path.unlink(missing_ok=True)


class Cli:
    """Cold, sequential `python -m modalbench.cli` runs on small seeded
    inputs. A round is four each of eval, lemma and check-valid (two on a
    3-world and two on a 5-world chain), in a seeded order, short so that
    whole rounds fill the run. With tracing, each command is also run in
    process through cli.main."""

    PER_KIND = 4
    tail_percentile = 75.0

    def __init__(self, lib, rng):
        self.lib, self.rng = lib, rng
        self.peak_kib = 0
        self.decisions: dict = {}
        self.tracer = None
        RUNS.mkdir(parents=True, exist_ok=True)
        self.stderr_path = RUNS / f"cli-stderr-{os.getpid()}.txt"

    # --- inputs
    def _formula(self, depth):
        rng = self.rng
        if depth == 0 or rng.random() < 0.25:
            return ("var", rng.choice("xyz")) if rng.random() < 0.85 \
                else ("const", rng.choice("TF"))
        op = rng.choice(["~", "[]", "<>", "&", "|", "->"])
        if op in ("~", "[]", "<>"):
            return (op, self._formula(depth - 1))
        return (op, self._formula(depth - 1), self._formula(depth - 1))

    def _frame(self, size):
        mask = self.rng.getrandbits(size)
        spec = f"chain:{size}" + (f":refl={','.join(map(str, loops_of(mask)))}" if mask else "")
        return spec, loops_of(mask)

    def _eval_op(self):
        size = self.rng.randint(1, 6)
        spec, loops = self._frame(size)
        ast = self._formula(4)
        sets = {v: checks.bits_to_set(self.rng.getrandbits(size)) for v in "xyz"}
        argv = ["eval", "--frame", spec, "--formula", checks.render(ast),
                "--val", json.dumps({v: sorted(s) for v, s in sets.items()}), "--json"]
        return argv, lambda code, payload: checks.check_eval_answer(
            size, loops, sets, ast, code, payload)

    def _lemma_op(self):
        n = self.rng.randint(1, 3)
        mask = self.rng.getrandbits(2 * n + 1)
        argv = ["lemma", "--n", str(n), "--refl", ",".join(map(str, loops_of(mask))), "--json"]

        def check(code, payload):
            if code != 0:
                return f"lemma exit code {code}"
            return checks.check_certificate(n, loops_of(mask), payload)
        return argv, check

    def _valid_op(self, size):
        spec, loops = self._frame(size)
        key, text = self.rng.choice(STATEMENTS)
        argv = ["check-valid", "--frame", spec, "--stmt", text, "--vars", "x,y,z", "--json"]

        def check(code, payload):
            val = payload.get("valuation")
            bits = None if val is None else {v: checks.set_to_bits(ws) for v, ws in val.items()}
            if code != {"valid": 0, "countermodel": 1}.get(payload.get("verdict")):
                return f"check-valid exit code {code} for verdict {payload.get('verdict')}"
            return checks.check_validity_answer(
                size, loops, key, payload["verdict"], bits, payload["valuations_tried"],
                payload["exhaustive"], self.decisions)
        return argv, check

    # --- operations
    def _cold(self, argv):
        code, out, err, peak = run_process([sys.executable, "-m", "modalbench.cli", *argv],
                                           self.stderr_path)
        self.peak_kib = max(self.peak_kib, peak)
        return code, out, err

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _make(self, argv, check):
        def verify(result, where="cold"):
            code, out, err = result
            if err:
                return f"{where} {argv[0]} wrote to stderr: {err.strip()[:300]}"
            try:
                payload = json.loads(out)
            except json.JSONDecodeError:
                return f"{where} {argv[0]} printed no JSON: {out[:200]!r}"
            return check(code, payload)

        def verify_both(result):
            # With tracing, the same command also runs in process after the
            # timed cold run, for cli.command_ms and the layers below it.
            problem = verify(result)
            if problem is None and self.tracer is not None:
                again = self.tracer.span(spans.COMMAND, self._in_process)(argv)
                problem = verify(again, "in-process")
            return problem

        call = self._cold
        if self.tracer is not None:
            call = self.tracer.span(spans.PROCESS, call)
        return Op(" ".join(argv[:-1]), partial(call, argv), verify_both)

    def round_ops(self):
        makers = ([self._eval_op] * self.PER_KIND + [self._lemma_op] * self.PER_KIND
                  + [partial(self._valid_op, size) for size in (3, 5)] * (self.PER_KIND // 2))
        self.rng.shuffle(makers)
        return [self._make(*maker()) for maker in makers]

    def warm_up_ops(self):
        return [self._make(["lemma", "--n", "1", "--json"],
                           lambda code, payload: checks.check_certificate(1, [], payload))]


WORKLOADS = {"certify": Certify, "validity": Validity,
             "consequence": Consequence, "cli": Cli}
