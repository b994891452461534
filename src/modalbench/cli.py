"""Command-line front end. One subcommand per library entry point.

Exit codes: 0 when the queried property is confirmed (valid, certificate
valid, consequence holds, index found), 1 when refuted (countermodel found,
certificate invalid, nothing found up to the bound), 2 on input errors, and
3 when a resource cap refuses the computation or leaves it undecided. Each
handler returns (payload, sentence, verdict), the verdict True, False or
None for confirmed, refuted or undecided; main prints the payload under
--json and the sentence otherwise, and maps the verdict to exit 0, 1 or 3.
Warnings print as one `warning: <message>` line each on standard error.

Frame specifiers: `chain:N` for the irreflexive N-chain, `chain:N:refl=0,2`
to add self-loops, or a path to a frame JSON file ({"worlds": N, "edges":
[[i, j], ...]}). Valuations are inline JSON ({"x": [0, 2]}) or @file.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .algebra import (DEFAULT_BIT_CAP, check_validity, fixpoint_index,
                      transitivity_degree, uniform_stabilization)
from .chains import check_lemma, enumerate_chains, make_chain
from .consequence import ConsequenceProblem, check_consequence
from .errors import CapExceededError, InputError
from .kripke import (Frame, Model, Valuation, bits_to_worlds, decode_json, evaluate,
                     frame_to_json, load_frame, read_json, valuation_from_json,
                     worlds_to_bits)
from .syntax import parse_formula, parse_statement
from .terms import TermStore


def parse_frame_spec(spec: str) -> Frame:
    if spec.startswith("chain:"):
        parts = spec.split(":")
        try:
            size = int(parts[1])
        except ValueError:
            raise InputError(f"bad chain size in {spec!r}") from None
        if len(parts) == 2:
            return make_chain(size)
        if len(parts) == 3 and parts[2].startswith("refl="):
            return make_chain(size, _world_list(parts[2][len("refl="):]))
        raise InputError(f"bad frame specifier {spec!r}; "
                         "use chain:N, chain:N:refl=0,2 or a JSON file path")
    return load_frame(spec)


def _world_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"expected a comma-separated world list, got {text!r}") from None


def _valuation_arg(text: str) -> Valuation:
    if text.startswith("@"):
        return valuation_from_json(read_json(text[1:]))
    return valuation_from_json(decode_json(text, "bad valuation JSON"))


def _cmd_eval(args: argparse.Namespace) -> tuple:
    frame = parse_frame_spec(args.frame)
    term = parse_formula(args.formula, args.store)
    valuation = _valuation_arg(args.val) if args.val else Valuation()
    model = Model(frame, valuation)
    bits = evaluate(model, term)
    worlds = bits_to_worlds(bits)
    globally = bits == frame.mask
    return ({"formula": args.formula, "worlds": worlds, "holds_globally": globally},
            f"holds at worlds {worlds}" + (" (globally)" if globally else ""), globally)


def _cmd_check_valid(args: argparse.Namespace) -> tuple:
    frame = parse_frame_spec(args.frame)
    stmt = parse_statement(args.stmt, args.store)
    variables = args.vars.split(",") if args.vars else None
    report = check_validity(frame, stmt, variables, bit_cap=args.cap,
                            samples=args.sample, seed=args.seed)
    if report.verdict == "valid":
        sentence = f"valid ({report.valuations_tried} valuations)"
    elif report.verdict == "countermodel":
        sentence = (f"countermodel after {report.valuations_tried} valuations: "
                    f"{report.valuation.to_sets()}")
    else:
        sentence = f"unknown: {report.valuations_tried} sampled valuations found nothing"
    return ({"statement": args.stmt, **report.to_json()}, sentence,
            {"valid": True, "countermodel": False}.get(report.verdict))


def _cmd_lemma(args: argparse.Namespace) -> tuple:
    cert = check_lemma(args.n, _world_list(args.refl), args.store)
    return (cert.to_json(), cert.render_table() + f"\ncertificate valid: {cert.valid}",
            cert.valid)


def _cmd_chains(args: argparse.Namespace) -> tuple:
    frames = enumerate_chains(args.size)
    lines = [f"{len(frames)} chains of size {args.size}"]
    for index, frame in enumerate(frames):
        loops = [w for w in range(frame.worlds) if frame.succ[w] >> w & 1]
        lines.append(f"  {index:>4}: reflexive at {loops}")
    return ({"size": args.size, "count": len(frames),
             "frames": [frame_to_json(f) for f in frames]}, "\n".join(lines), True)


def _cmd_transitivity(args: argparse.Namespace) -> tuple:
    frame = parse_frame_spec(args.frame)
    degree = transitivity_degree(frame, args.max)
    return ({"degree": degree, "max_n": args.max},
            f"degree {degree}" if degree is not None else f"no degree up to {args.max}",
            degree is not None)


def _cmd_fixpoint(args: argparse.Namespace) -> tuple:
    frame = parse_frame_spec(args.frame)
    term = parse_formula(args.term, args.store)
    base = worlds_to_bits(_world_list(args.base))
    params = _valuation_arg(args.params) if args.params else None
    result = fixpoint_index(frame, term, args.pivot, base, params)
    return (result.to_json(),
            f"index {result.index}, fixpoint {bits_to_worlds(result.fixpoint)}", True)


def _cmd_consequence(args: argparse.Namespace) -> tuple:
    frames = [parse_frame_spec(spec) for spec in args.frame]
    premises = [parse_statement(text, args.store) for text in args.premise or []]
    conclusion = parse_statement(args.conclusion, args.store)
    problem = ConsequenceProblem(premises, conclusion, frames, max_bits=args.budget)
    result = check_consequence(problem)
    if result.holds:
        sentence = (f"holds on all {len(frames)} frames "
                    f"({result.assignments} assignments covered; finite search only)")
    else:
        sentence = (f"countermodel on frame {result.frame_index}, conclusion fails "
                    f"at world {result.failure_world}: {result.valuation.to_sets()}")
    return result.to_json(), sentence, result.holds


def _cmd_stabilize(args: argparse.Namespace) -> tuple:
    frames = [parse_frame_spec(spec) for spec in args.frame or []]
    if args.all_chains is not None:
        frames.extend(enumerate_chains(args.all_chains))
    if not frames:
        raise InputError("no frames given; use --frame or --all-chains")
    term = parse_formula(args.term, args.store)
    index = uniform_stabilization(frames, term, args.pivot, args.max, bit_cap=args.cap,
                                  samples=args.sample, seed=args.seed)
    return ({"index": index, "max_n": args.max},
            f"stabilizes at {index}" if index is not None
            else f"no stabilization up to {args.max}",
            index is not None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalbench",
        description="Finite Kripke frame and complex-algebra workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)
        return p

    p = add("eval", _cmd_eval, "evaluate a formula on one model")
    p.add_argument("--frame", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--val", help="valuation as inline JSON or @file")

    check = add("check-valid", _cmd_check_valid, "check a statement under all valuations")
    check.add_argument("--frame", required=True)
    check.add_argument("--stmt", required=True)
    check.add_argument("--vars", help="comma-separated variables to enumerate")

    p = add("lemma", _cmd_lemma, "non-stabilization certificate on a (2n+1)-chain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--refl", default="", help="comma-separated self-loop points")

    p = add("chains", _cmd_chains, "enumerate all chains of a size")
    p.add_argument("--size", type=int, required=True)

    p = add("transitivity", _cmd_transitivity, "degree of the reflexive closure")
    p.add_argument("--frame", required=True)
    p.add_argument("--max", type=int, required=True)

    p = add("fixpoint", _cmd_fixpoint, "iterate an increasing term to its fixpoint")
    p.add_argument("--frame", required=True)
    p.add_argument("--term", required=True)
    p.add_argument("--pivot", required=True)
    p.add_argument("--base", default="", help="comma-separated world list")
    p.add_argument("--params", help="parameter valuation as inline JSON or @file")

    p = add("consequence", _cmd_consequence, "global consequence over frames")
    p.add_argument("--frame", action="append", required=True)
    p.add_argument("--premise", action="append", default=[])
    p.add_argument("--conclusion", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BIT_CAP)

    stabilize = add("stabilize", _cmd_stabilize, "least n where iterates n and n+1 agree")
    stabilize.add_argument("--frame", action="append", default=[])
    stabilize.add_argument("--all-chains", type=int,
                           help="also include every chain of this size")
    stabilize.add_argument("--term", required=True)
    stabilize.add_argument("--pivot", required=True)
    stabilize.add_argument("--max", type=int, required=True)

    for p, sample_help in (
            (check, "over-cap sampling budget, default 4096 (never concludes valid)"),
            (stabilize, "over-cap sampling budget per frame, default 4096")):
        p.add_argument("--cap", type=int, default=DEFAULT_BIT_CAP)
        p.add_argument("--sample", type=int, nargs="?", const=4096, help=sample_help)
        p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.store = TermStore()  # per call, so in-process calls leave DEFAULT_STORE alone
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                         file=sys.stderr)
        try:
            payload, sentence, verdict = args.handler(args)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except CapExceededError as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 3
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else sentence)
    return {True: 0, False: 1, None: 3}[verdict]


if __name__ == "__main__":
    sys.exit(main())
