"""Validity over all valuations of a finite frame, and what it yields:
countermodel search, transitivity degrees, fixpoint indices, and uniform
stabilization of iterated terms over frame families.

Checking a statement under every valuation of k variables on w worlds covers
2^(k*w) cases, so exhaustive runs are gated by a bit cap and refused beyond
it; within the cap vector.first_countermodel scans the space block by block,
bit-parallel. A sampling mode exists behind a flag for over-cap refutation
hunting; its seeded rows go through the same vectorized combine, and it can
report a countermodel or come back unknown, never valid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import CapExceededError, InputError
from .kripke import Evaluator, Frame, Valuation
from .terms import Statement, Term, eq, free_vars, iterate, statement_vars
from .vector import (SpaceEvaluator, decode_index, first_countermodel,
                     first_sampled_countermodel)

DEFAULT_BIT_CAP = 24
PRECHECK_WORLD_CAP = 16


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of a validity check. verdict is "valid" (exhaustive scan, no
    countermodel), "countermodel" (valuation attached), or "unknown" (sampled
    scan exhausted its budget). valuations_tried counts up to and including
    the decisive valuation."""

    verdict: str
    valuation: Valuation | None
    valuations_tried: int
    exhaustive: bool

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "valuation": None if self.valuation is None else self.valuation.to_sets(),
            "valuations_tried": self.valuations_tried,
            "exhaustive": self.exhaustive,
        }


def check_validity(frame: Frame, stmt: Statement, variables: list[str] | None = None, *,
                   bit_cap: int = DEFAULT_BIT_CAP, sampling: bool = False,
                   sample_count: int = 4096, seed: int = 0) -> ValidityReport:
    """Decide whether the statement holds under every valuation of the given
    variables (default: the statement's variables, sorted). A given list
    must name every variable of the statement, each once.

    Within the bit cap the scan is exhaustive with a deterministic order, so
    the reported countermodel is the lowest-index one. Beyond the cap the call
    refuses unless sampling is enabled; the sampled stream starts with the
    all-empty and all-full valuations and continues with seeded pseudorandom
    ones, is evaluated in batches along one array axis, and never concludes
    "valid"."""
    needed = statement_vars(stmt)
    names = sorted(needed) if variables is None else list(variables)
    given = set(names)
    if len(given) < len(names):
        raise InputError(f"variable list {names} repeats a name")
    if not needed <= given:
        raise InputError(f"variable list {names} omits {', '.join(sorted(needed - given))}")
    worlds = frame.worlds
    bits = len(names) * worlds

    if bits <= bit_cap:
        total = 1 << bits
        space = SpaceEvaluator(frame, names)
        hit = first_countermodel(space, [], stmt)
        if hit is None:
            return ValidityReport("valid", None, total, True)
        idx, _ = hit
        valuation = Valuation(decode_index(idx, names, worlds))
        return ValidityReport("countermodel", valuation, idx + 1, True)

    if not sampling:
        raise CapExceededError(
            f"{bits} assignment bits exceed the exhaustive cap of {bit_cap}; "
            "enable sampling to hunt for countermodels only")

    rng = random.Random(seed)

    def stream():  # row by row, one bitset per name
        yield from (0,) * len(names)
        yield from (frame.mask,) * len(names)
        while True:
            yield rng.getrandbits(worlds)

    count = max(sample_count, 0)
    hit = first_sampled_countermodel(frame, names, stream(), count, stmt)
    if hit is None:
        return ValidityReport("unknown", None, count, False)
    row, values = hit
    return ValidityReport("countermodel", Valuation(dict(zip(names, values))), row + 1, False)


def transitivity_degree(frame: Frame, max_n: int) -> int | None:
    """Least n with the (n+1)-th power of the reflexive closure contained in
    the n-th, or None past max_n. Powers of a reflexive relation grow, so this
    is the step where they stop, i.e. where the closure turns transitive."""
    if max_n < 0:
        raise InputError("max_n must be nonnegative")
    refl = tuple(s | 1 << w for w, s in enumerate(frame.succ))
    current = tuple(1 << w for w in range(frame.worlds))
    for n in range(max_n + 1):
        nxt = []
        for w in range(frame.worlds):
            row = 0
            reach = current[w]
            while reach:
                low = reach & -reach
                row |= refl[low.bit_length() - 1]
                reach ^= low
            nxt.append(row)
        if all(nxt[w] & ~current[w] == 0 for w in range(frame.worlds)):
            return n
        current = tuple(nxt)
    return None


def frame_validates(frame: Frame, axioms: list[Term], *,
                    bit_cap: int = DEFAULT_BIT_CAP) -> bool:
    """Whether every axiom term evaluates to the full world set under every
    valuation of its variables."""
    for axiom in axioms:
        stmt = eq(axiom, axiom.store.top())
        report = check_validity(frame, stmt, bit_cap=bit_cap)
        if report.verdict != "valid":
            return False
    return True


@dataclass(frozen=True)
class FixpointResult:
    """index is the least N whose iterate equals the next one starting from
    base; fixpoint is that stable bitset; orbit lists every iterate from the
    base through the fixpoint."""

    index: int
    fixpoint: int
    orbit: tuple[int, ...]

    def to_json(self) -> dict:
        from .kripke import bits_to_worlds

        return {"index": self.index,
                "fixpoint": bits_to_worlds(self.fixpoint),
                "orbit": [bits_to_worlds(step) for step in self.orbit]}


def fixpoint_index(frame: Frame, term: Term, pivot: str, base: int,
                   params: Valuation | None = None) -> FixpointResult:
    """Iterate the term's one-step map on the frame from the base bitset until
    it stops moving.

    The map must be increasing and monotone in the pivot; both are checked
    empirically over every pivot value first (single-bit extensions suffice
    for monotonicity), and ineligible terms are refused. Frames too large for
    that precheck are refused outright."""
    if frame.worlds > PRECHECK_WORLD_CAP:
        raise CapExceededError(
            f"monotonicity precheck enumerates 2^{frame.worlds} pivot values; "
            f"cap is {PRECHECK_WORLD_CAP} worlds")
    mask = frame.mask
    if base & ~mask:
        raise InputError("base bitset mentions worlds outside the frame")
    params = params or Valuation()
    assignment = {}
    for name in free_vars(term):
        if name != pivot:
            bits = params.bits(name)
            if bits & ~mask:
                raise InputError(f"parameter {name!r} mentions worlds outside the frame")
            assignment[name] = bits
    evaluator = Evaluator(frame)

    def step(a: int) -> int:
        assignment[pivot] = a
        return evaluator.evaluate(term, assignment)

    table = [step(a) for a in range(1 << frame.worlds)]
    for a, image in enumerate(table):
        if a & ~image:
            raise InputError(
                f"term is not increasing in {pivot!r} on this frame: "
                f"pivot bitset {a:#x} maps to {image:#x}")
    for a in range(1 << frame.worlds):
        rest = mask & ~a
        while rest:
            low = rest & -rest
            if table[a] & ~table[a | low]:
                raise InputError(
                    f"term is not monotone in {pivot!r} on this frame: "
                    f"adding world {low.bit_length() - 1} to {a:#x} loses output")
            rest ^= low

    orbit = [base]
    while True:
        nxt = table[orbit[-1]]
        if nxt == orbit[-1]:
            break
        orbit.append(nxt)
        if len(orbit) > frame.worlds + 1:  # increasing maps stabilize by then
            raise RuntimeError("fixpoint iteration exceeded its bound")
    return FixpointResult(len(orbit) - 1, orbit[-1], tuple(orbit))


def uniform_stabilization(frames: list[Frame], term: Term, pivot: str,
                          params_vars: list[str] | None = None, max_n: int = 8, *,
                          bit_cap: int = DEFAULT_BIT_CAP, sampling: bool = False,
                          sample_count: int = 4096, seed: int = 0) -> int | None:
    """Least n for which iterate n and iterate n+1 of the term coincide as a
    valid equation on every frame in the family, or None if no n up to max_n
    does. A candidate survives only on an exhaustive "valid" for every frame;
    any countermodel rejects it, and an over-cap frame that sampling fails to
    refute makes the candidate undecidable, which raises rather than guesses."""
    if params_vars is None:
        variables = [pivot] + sorted(free_vars(term) - {pivot})
    else:
        variables = [pivot] + list(params_vars)
    for n in range(max_n + 1):
        stmt = eq(iterate(term, pivot, n), iterate(term, pivot, n + 1))
        rejected = False
        uncertain = False
        for frame in frames:
            report = check_validity(frame, stmt, variables, bit_cap=bit_cap,
                                    sampling=sampling, sample_count=sample_count,
                                    seed=seed)
            if report.verdict == "countermodel":
                rejected = True
                break
            if report.verdict == "unknown":
                uncertain = True
        if not rejected:
            if uncertain:
                raise CapExceededError(
                    f"candidate {n} is not refuted but some frames exceed the "
                    "exhaustive cap; cannot certify stabilization")
            return n
    return None
