"""Global consequence over finite frame families, and the premise/target sets
for fixpoint-style reasoning about an iterated term.

A countermodel is a frame from the family plus a valuation making every
premise true at every world while the conclusion fails somewhere. "Holds"
only means the finite search found none; the result says so explicitly via
complete=False, since a frame family never exhausts the intended variety.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import DEFAULT_BIT_CAP
from .errors import CapExceededError, check_count
from .kripke import Frame, Valuation
from .terms import (Statement, Term, eq, free_vars, iterate, leq,
                    statement_vars, substitute)
from .vector import SpaceEvaluator, decode_index, first_countermodel


@dataclass(frozen=True)
class ConsequenceProblem:
    """Premises, conclusion, the frame family to search, and the assignment-bit
    budget a single frame may cost (variables times worlds)."""

    premises: tuple[Statement, ...]
    conclusion: Statement
    frames: tuple[Frame, ...]
    max_bits: int = DEFAULT_BIT_CAP

    def __post_init__(self) -> None:
        object.__setattr__(self, "premises", tuple(self.premises))
        object.__setattr__(self, "frames", tuple(self.frames))
        check_count(self.max_bits, "bit budget")

    def variables(self) -> list[str]:
        names = set(statement_vars(self.conclusion))
        for stmt in self.premises:
            names |= statement_vars(stmt)
        return sorted(names)


@dataclass(frozen=True)
class ConsequenceResult:
    """holds=True carries complete=False: the search is exhaustive for the
    given frames but silent about larger ones. A countermodel records which
    frame, the valuation, and the lowest world where the conclusion fails.
    assignments counts the valuations covered, over all frames scanned, up to
    and including the decisive one."""

    holds: bool
    frame_index: int | None = None
    valuation: Valuation | None = None
    failure_world: int | None = None
    complete: bool = False
    assignments: int = 0

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "complete": self.complete,
            "frame_index": self.frame_index,
            "valuation": None if self.valuation is None else self.valuation.to_sets(),
            "failure_world": self.failure_world,
            "assignments": self.assignments,
        }


def check_consequence(problem: ConsequenceProblem) -> ConsequenceResult:
    """Search every (frame, valuation) pair of the problem for a countermodel.

    Frames are scanned in order with early stop, each over its full valuation
    product space in blocks of vector.first_countermodel, so the first
    countermodel is deterministic: lowest frame index, then lowest assignment
    index. Blocks bound each statement's array rather than the product, so a
    frame where no statement mentions every variable (Sigma |= pi_k on a
    5-chain: 2^25 assignments, no statement over more than four of the five
    variables) is one block, searched by variable elimination instead of by
    broadcasting."""
    variables = problem.variables()
    for frame in problem.frames:
        bits = len(variables) * frame.worlds
        if bits > problem.max_bits:
            raise CapExceededError(
                f"{bits} assignment bits on a {frame.worlds}-world frame exceed "
                f"the problem budget of {problem.max_bits}")

    premises = list(problem.premises)
    covered = 0
    for index, frame in enumerate(problem.frames):
        space = SpaceEvaluator(frame, variables)
        hit = first_countermodel(space, premises, problem.conclusion)
        if hit is None:
            covered += 1 << (len(variables) * frame.worlds)
            continue
        idx, gap = hit
        covered += idx + 1
        valuation = Valuation(decode_index(idx, variables, frame.worlds))
        world = (gap & -gap).bit_length() - 1
        return ConsequenceResult(False, index, valuation, world,
                                 complete=False, assignments=covered)
    return ConsequenceResult(True, complete=False, assignments=covered)


def build_sigma_pi(term: Term, pivot: str, k_max: int) -> tuple[list[Statement], list[Statement]]:
    """The two statement families for an iterated term with bound roles y, z.

    The first pins the pivot between y and z and equates it with one term
    step: [y <= pivot, pivot <= z, pivot = t]. The second bounds each iterate
    seeded at y by z: [t^k(y) <= z for k = 0..k_max]. Variables of the term
    named y or z (the pivot included) are renamed with the smallest free
    numeric suffix first, deterministically."""
    check_count(k_max, "k_max")
    store = term.store
    used = set(free_vars(term)) | {pivot}
    taken = used | {"y", "z"}
    rename: dict[str, Term] = {}
    for name in sorted(used & {"y", "z"}):
        suffix = 1
        while f"{name}{suffix}" in taken:
            suffix += 1
        fresh = f"{name}{suffix}"
        taken.add(fresh)
        rename[name] = store.var(fresh)
    renamed = substitute(term, rename) if rename else term
    pivot_name = rename[pivot].name if pivot in rename else pivot
    x_ = store.var(pivot_name)
    y_ = store.var("y")
    z_ = store.var("z")
    sigma = [leq(y_, x_), leq(x_, z_), eq(x_, renamed)]
    pi = [leq(substitute(iterate(renamed, pivot_name, k), {pivot_name: y_}), z_)
          for k in range(k_max + 1)]
    return sigma, pi
