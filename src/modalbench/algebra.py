"""Validity over all valuations of a finite frame, and what it yields:
countermodel search, transitivity degrees, fixpoint indices, and uniform
stabilization of iterated terms over frame families.

Checking a statement under every valuation of k variables on w worlds covers
2^(k*w) cases, so exhaustive runs are gated by a bit cap and refused beyond
it; within the cap vector.first_countermodel scans the space block by block,
bit-parallel. Given a sample count, over-cap checks hunt for a refutation
instead; the seeded rows go through the same vectorized combine, and the hunt
can report a countermodel or come back unknown, never valid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import CapExceededError, InputError, check_count, check_type
from .kripke import Frame, Valuation, bits_to_worlds, int_ops, lane_ops, program_of, run
from .terms import Statement, Term, check_name, eq, free_vars, iterate, statement_vars
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
                   bit_cap: int = DEFAULT_BIT_CAP, samples: int | None = None,
                   seed: int = 0) -> ValidityReport:
    """Decide whether the statement holds under every valuation of the given
    variables (default: the statement's variables, sorted). A given list
    must be a list, not a str, that names every variable of the statement,
    each once, and nothing that is not a variable name.

    Within the bit cap the scan is exhaustive with a deterministic order, so
    the reported countermodel is the lowest-index one. Beyond the cap the call
    refuses unless given a number of samples to try: the all-empty and
    all-full valuations, then seeded pseudorandom ones, in batches along one
    array axis. Sampling never concludes "valid"."""
    if samples is not None:
        check_count(samples, "sample count")
    check_count(bit_cap, "bit cap")
    if isinstance(variables, str):
        raise InputError("variable list must be a list of names, not a str")
    needed = statement_vars(stmt)
    names = sorted(needed) if variables is None else [check_name(n) for n in variables]
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

    if samples is None:
        raise CapExceededError(
            f"{bits} assignment bits exceed the exhaustive cap of {bit_cap}; "
            "give a sample count to hunt for countermodels only")

    rng = random.Random(seed)

    def stream():  # row by row, one bitset per name
        yield from (0,) * len(names)
        yield from (frame.mask,) * len(names)
        while True:
            yield rng.getrandbits(worlds)

    hit = first_sampled_countermodel(frame, names, stream(), samples, stmt)
    if hit is None:
        return ValidityReport("unknown", None, samples, False)
    row, values = hit
    return ValidityReport("countermodel", Valuation(dict(zip(names, values))), row + 1, False)


def transitivity_degree(frame: Frame, max_n: int) -> int | None:
    """Least n with the (n+1)-th power of the reflexive closure contained in
    the n-th, or None past max_n. Powers of a reflexive relation grow, so this
    is the step where they stop, i.e. where the closure turns transitive.

    The walk runs on the converse, whose powers are the converses of the
    powers and stop at the same step: reach[w] holds the worlds that reach w
    in at most n steps and grows by the int backend's diamond."""
    check_count(max_n, "max_n")
    dia = int_ops(frame)[2]
    reach = [1 << w for w in range(frame.worlds)]
    for n in range(max_n + 1):
        grown = [r | dia(r) for r in reach]
        if grown == reach:
            return n
        reach = grown
    return None


def frame_validates(frame: Frame, axioms: list[Term]) -> bool:
    """Whether every axiom term evaluates to the full world set under every
    valuation of its variables."""
    return all(check_validity(frame, eq(axiom, axiom.store.top())).verdict == "valid"
               for axiom in axioms)


@dataclass(frozen=True)
class FixpointResult:
    """index is the least N whose iterate equals the next one starting from
    base; fixpoint is that stable bitset; orbit lists every iterate from the
    base through the fixpoint."""

    index: int
    fixpoint: int
    orbit: tuple[int, ...]

    def to_json(self) -> dict:
        return {"index": self.index,
                "fixpoint": bits_to_worlds(self.fixpoint),
                "orbit": [bits_to_worlds(step) for step in self.orbit]}


def fixpoint_index(frame: Frame, term: Term, pivot: str, base: int,
                   params: Valuation | None = None) -> FixpointResult:
    """Iterate the term's one-step map on the frame from the base bitset until
    it stops moving.

    The map must be increasing and monotone in the pivot; both are checked
    over every pivot value first (single-world extensions suffice for
    monotonicity), and ineligible terms are refused, naming the lowest pivot
    value that fails and then the lowest world. The precheck is one run of
    the term's program on the lane backend with one lane per pivot value, so
    one image holds the map's whole table; the orbit is read off it too.
    Frames too large for that precheck are refused outright. The term must be
    a Term, the pivot a variable name, params a Valuation or None, and the
    base and every parameter, sorted by name, world sets of the frame."""
    if frame.worlds > PRECHECK_WORLD_CAP:
        raise CapExceededError(
            f"monotonicity precheck enumerates 2^{frame.worlds} pivot values; "
            f"cap is {PRECHECK_WORLD_CAP} worlds")
    check_type(term, Term, "fixpoint term")
    check_name(pivot)
    frame.check(base, "base bitset")
    params = Valuation() if params is None else check_type(params, Valuation, "parameters")
    for name in sorted(params.names()):
        frame.check(params.bits(name), f"parameter {name!r}")
    worlds = frame.worlds
    lanes = 1 << worlds
    lane = (1 << lanes) - 1
    offsets = range(0, worlds * lanes, lanes)
    pivot_planes, keeps = _pivot_lanes(worlds)

    def leaf(name: str) -> int:  # a parameter is a full plane at each of its worlds
        if name == pivot:
            return pivot_planes
        return sum(lane << offsets[w] for w in bits_to_worlds(params.bits(name)))

    image = run(program_of(term), lane_ops(frame, lanes), leaf)[-1]
    planes = [image >> off & lane for off in offsets]

    def step(a: int) -> int:  # the map at pivot value a: lane a of each plane
        return sum((plane >> a & 1) << w for w, plane in enumerate(planes))

    def lowest(lost: int) -> int:  # the lowest lane set in any plane
        lanes_hit = 0
        for off in offsets:
            lanes_hit |= lost >> off
        lanes_hit &= lane
        return (lanes_hit & -lanes_hit).bit_length() - 1

    grown = pivot_planes & ~image
    if grown:
        a = lowest(grown)
        raise InputError(
            f"term is not increasing in {pivot!r} on this frame: "
            f"pivot bitset {a:#x} maps to {step(a):#x}")
    first = None  # (pivot value, world) of the lowest monotonicity failure
    for j, keep in enumerate(keeps):  # lane a against lane a + 2^j, for a without j
        lost = image & ~(image >> (1 << j)) & keep
        if lost:
            a = lowest(lost)
            if first is None or a < first[0]:
                first = (a, j)
    if first is not None:
        raise InputError(
            f"term is not monotone in {pivot!r} on this frame: "
            f"adding world {first[1]} to {first[0]:#x} loses output")

    orbit = [base]
    while True:
        nxt = step(orbit[-1])
        if nxt == orbit[-1]:
            break
        orbit.append(nxt)
        if len(orbit) > worlds + 1:  # increasing maps stabilize by then
            raise RuntimeError("fixpoint iteration exceeded its bound")
    return FixpointResult(len(orbit) - 1, orbit[-1], tuple(orbit))


@lru_cache(maxsize=8)
def _pivot_lanes(worlds: int) -> tuple[int, tuple[int, ...]]:
    """The precheck's constants on a frame of this many worlds, one lane per
    pivot value a: the pivot, whose lane a of world w's plane is set when w
    is in a; and for each world j, the lanes a without j in every plane.
    Each plane pattern is one block of 2^w ones above 2^w zeros, times a
    repeater, and each mask is copied across the planes by doubling, so the
    constants cost a few big-int operations per world, not one per lane."""
    lanes = 1 << worlds
    lane = (1 << lanes) - 1
    pivot, keeps = 0, []
    for w in range(worlds):
        block = 1 << w
        plane = ((1 << block) - 1 << block) * (lane // ((1 << 2 * block) - 1))
        pivot |= plane << w * lanes
        keep, width = lane ^ plane, lanes  # copied into every plane by doubling
        while width < worlds * lanes:
            keep |= keep << width
            width *= 2
        keeps.append(keep & (1 << worlds * lanes) - 1)
    return pivot, tuple(keeps)


def uniform_stabilization(frames: list[Frame], term: Term, pivot: str, max_n: int = 8, *,
                          bit_cap: int = DEFAULT_BIT_CAP, samples: int | None = None,
                          seed: int = 0) -> int | None:
    """Least n for which iterate n and iterate n+1 of the term coincide as a
    valid equation on every frame in the family, or None if no n up to max_n
    does. Each check ranges over the pivot first, then the term's other
    variables, sorted. A candidate survives only on an exhaustive "valid" for
    every frame; any countermodel rejects it, and an over-cap frame that
    `samples` sampled valuations fail to refute makes the candidate
    undecidable, which raises rather than guesses."""
    check_count(max_n, "max_n")
    check_count(bit_cap, "bit cap")
    variables = [pivot] + sorted(free_vars(term) - {pivot})
    for n in range(max_n + 1):
        stmt = eq(iterate(term, pivot, n), iterate(term, pivot, n + 1))
        rejected = False
        uncertain = False
        for frame in frames:
            report = check_validity(frame, stmt, variables, bit_cap=bit_cap,
                                    samples=samples, seed=seed)
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
