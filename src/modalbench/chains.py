"""Finite chains, the alternating valuation, and non-stabilization certificates.

A chain on n points is the strict total order i < j plus self-loops at any
chosen subset of points; there are 2^n of them. On the odd-length chains the
alternating valuation below separates consecutive iterates of the chain step
term, and check_lemma packages the full evidence into a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import CapExceededError, InputError, check_count, check_int
from .kripke import (Frame, Model, Program, Valuation, bits_to_worlds, check_world,
                     check_world_count, evaluate_orbit, run, worlds_to_bits)
from .kripke import evaluate  # noqa: F401  the traced benchmark wraps chains.evaluate
from .terms import Term, TermStore, chain_term, s_step, s_term

ENUMERATION_CAP = 16

# check_lemma's fixed terms: the chain step and the approximants s_0..s_{n+2}.
# The world cap bounds n by 31, so this store never holds more than 141 nodes.
# _lemma keeps them, with one program over the approximants (_lemma_terms).
_LEMMA_STORE = TermStore()
_lemma: tuple = (None, [], None)


@dataclass(frozen=True)
class ChainSpec:
    """Size of the chain and the set of points carrying a self-loop."""

    size: int
    reflexive_points: frozenset[int]

    def __post_init__(self) -> None:
        check_world_count(self.size)
        for p in self.reflexive_points:
            check_world(p, self.size)

    def frame(self) -> Frame:
        """The chain's frame: edges i -> j for i < j, plus a loop at each
        reflexive point."""
        full = (1 << self.size) - 1
        loops = self.reflexive_points
        return Frame(self.size, tuple(full >> (w + 1) << (w + 1) | (w in loops) << w
                                      for w in range(self.size)))


def make_chain(size: int, reflexive: Iterable[int] = ()) -> Frame:
    """The frame for ChainSpec(size, reflexive)."""
    return ChainSpec(size, frozenset(reflexive)).frame()


def enumerate_chains(size: int) -> list[Frame]:
    """All 2^size chains on the given size, ordered by the bitmask of their
    reflexive set, so index 0 is the irreflexive chain."""
    if check_world_count(size) > ENUMERATION_CAP:
        raise CapExceededError(
            f"2^{size} chains exceeds the enumeration cap 2^{ENUMERATION_CAP}")
    return [make_chain(size, bits_to_worlds(mask)) for mask in range(1 << size)]


def lemma_valuation(n: int) -> Valuation:
    """The alternating valuation on the chain of size 2n+1: x and z hold at the
    n odd points, y at the n+1 even points."""
    if check_int(n, "n") < 1:
        raise InputError("the construction needs n >= 1")
    even = sum(1 << w for w in range(0, check_world_count(2 * n + 1), 2))
    odd = even >> 1  # world 2i moves to 2i-1, and world 0 drops out
    return Valuation({"x": odd, "y": even, "z": odd})


@dataclass(frozen=True)
class LemmaCertificate:
    """Evidence that iterating the chain step on a (2n+1)-chain does not settle
    at step n: the n-th iterate fails at world 0, the next iterate is global,
    the pivot-free approximants turn global just past n, and each earlier
    iterate fails on an explicit set of even worlds."""

    n: int
    spec: ChainSpec
    valuation: Valuation
    fails_at_zero: bool
    global_next: bool
    s_global: dict[int, bool]
    claim_table: dict[int, tuple[int, ...]]
    valid: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "worlds": self.spec.size,
            "reflexive_points": sorted(self.spec.reflexive_points),
            "valuation": self.valuation.to_sets(),
            "fails_at_zero": self.fails_at_zero,
            "global_next": self.global_next,
            "s_global": {str(m): g for m, g in sorted(self.s_global.items())},
            "claim_table": {str(level): list(ws)
                            for level, ws in sorted(self.claim_table.items())},
            "valid": self.valid,
        }

    def render_table(self) -> str:
        """Per-world table mirroring the alternating pattern: the false letters
        among y, z at each world and, at even worlds, which iterates fail there."""
        v = self.valuation
        lines = [f"chain size {self.spec.size}, reflexive at "
                 f"{sorted(self.spec.reflexive_points) or 'no points'}, n = {self.n}",
                 f"iterate {self.n} fails at world 0: {self.fails_at_zero}; "
                 f"iterate {self.n + 1} global: {self.global_next}",
                 " world  loop  false   iterate fails"]
        for w in range(self.spec.size - 1, -1, -1):
            loop = "r" if w in self.spec.reflexive_points else "."
            false_letters = " ".join(f"!{name}" for name in ("y", "z")
                                     if not v.bits(name) >> w & 1)
            fails = " ".join(f"t^{level}" for level, ws in sorted(self.claim_table.items())
                             if w in ws)
            lines.append(f"  {w:>4}  {loop:>4}  {false_letters:<6}  {fails}".rstrip())
        return "\n".join(lines)


def check_lemma(n: int, reflexive: Iterable[int] = ()) -> LemmaCertificate:
    """Certify non-stabilization at step n on the (2n+1)-chain with the given
    self-loops, under the alternating valuation. The certificate is valid when
    all four pieces of evidence land, for any choice of self-loops."""
    valuation = lemma_valuation(n)
    spec = ChainSpec(2 * n + 1, frozenset(reflexive))
    model = Model(spec.frame(), valuation)
    t, approximants = _lemma_terms(n + 2)

    orbit = evaluate_orbit(model, t, "x", valuation.bits("x"), n + 1)
    full = model.frame.mask
    fails_at_zero = not orbit[n] & 1
    global_next = orbit[n + 1] == full

    values = run(approximants, model.ops, valuation.bits, stop=approximants.roots[n + 2] + 1)
    s_global = {m: values[approximants.roots[m]] == full for m in range(n + 3)}
    even = valuation.bits("y")
    claim_table = {level: tuple(bits_to_worlds(even & ~orbit[level]))
                   for level in range(n + 1)}

    # iterate `level` must fail at the even worlds 0, 2, ..., 2(n - level)
    valid = (fails_at_zero and global_next and s_global[n + 1] and s_global[n + 2]
             and not any(orbit[level] & even & (2 << 2 * (n - level)) - 1
                         for level in range(n + 1)))
    return LemmaCertificate(n, spec, valuation, fails_at_zero, global_next,
                            s_global, claim_table, valid)


def _lemma_terms(m: int) -> tuple[Term, Program]:
    """The chain step, and a program whose roots are s_0..s_m or more, built
    in _LEMMA_STORE once per process and grown on first need."""
    global _lemma
    store, built, _ = _lemma
    if store is not _LEMMA_STORE:
        built = [chain_term(_LEMMA_STORE), s_term(0, _LEMMA_STORE)]
    if store is not _LEMMA_STORE or len(built) < m + 2:
        while len(built) < m + 2:
            built.append(s_step(built[-1]))
        _lemma = (_LEMMA_STORE, built, Program(built[1:]))
    return built[0], _lemma[2]


def falsifying_path_starts(frame: Frame, valuation: Valuation, m: int) -> int:
    """Worlds admitting a relation path a0 R a1 R ... R a(2m) whose odd-position
    points falsify y and whose even positions from 2 on falsify z. These are
    exactly the worlds where the m-th pivot-free approximant fails, computed
    here by direct graph search as a cross-check against term evaluation."""
    check_count(m, "path length parameter")
    every = set(range(frame.worlds))
    if m == 0:
        return worlds_to_bits(every)
    adj = [set(bits_to_worlds(frame.succ[w])) for w in range(frame.worlds)]
    not_y = {w for w in every if not valuation.bits("y") >> w & 1}
    not_z = {w for w in every if not valuation.bits("z") >> w & 1}

    can = not_z  # position 2m
    for position in range(2 * m - 1, 0, -1):
        allowed = not_y if position % 2 else not_z
        can = {w for w in allowed if adj[w] & can}
    return worlds_to_bits(w for w in every if adj[w] & can)

