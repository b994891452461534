"""Bit-parallel evaluation of terms over whole valuation spaces, and the one
countermodel search.

A SpaceEvaluator fixes a frame and an ordered variable list and evaluates
each term node as a numpy array of world bitsets, one axis per variable
(length 1 where the variable does not occur), so node results broadcast
against each other and a term is evaluated over the full product space in a
handful of vectorized operations. Scans read the space in C order, first
variable most significant, which makes "the first countermodel" a single
well-defined index shared with the scalar scan order.

The evaluation itself is kripke.evaluate_nodes, the loop the scalar
evaluators run on ints. This module supplies only its array backend (a zero
array of the right rank, and the mask, successor sets and world bits as
uint64 scalars) and the variable axes.

The search reads the space in aligned blocks of at most _BLOCK_ENTRIES
assignments, so no scan array is larger than one block. A statement whose
own arrays fit that budget is evaluated once over the whole space and read
block by block; a larger one is evaluated afresh in each block. Sampled
validity runs its seeded rows through the same per-block combine, laid along
one axis.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .kripke import Frame, evaluate_gap, evaluate_nodes
from .terms import Statement, Term, statement_vars

_BLOCK_ENTRIES = 1 << 20  # the most assignments, or sampled rows, read at once


class SpaceEvaluator:
    """Vectorized term evaluation over all valuations of `names` on one frame.

    Results are uint64 arrays of world bitsets; axis i enumerates the 2^worlds
    bitsets of names[i] in increasing numeric order. Variables mentioned
    nowhere in `names` evaluate to the empty set. Nodes are cached by
    identity, so statements sharing subterms share their arrays."""

    def __init__(self, frame: Frame, names: list[str]):
        self.frame = frame
        self.names = list(names)
        self.size = 1 << frame.worlds
        n = len(self.names)
        self.ops = (np.zeros((1,) * n, dtype=np.uint64), np.uint64(frame.mask),
                    tuple(np.uint64(s) for s in frame.succ),
                    tuple(np.uint64(1 << w) for w in range(frame.worlds)))
        self._memo: dict[int, np.ndarray] = {}
        self._store = None
        self._axis = {name: i for i, name in enumerate(self.names)}

    def evaluate(self, term: Term) -> np.ndarray:
        return evaluate_nodes(self, (term,), self._memo, self._leaf)[0]

    def gap(self, stmt: Statement) -> np.ndarray:
        """Bitset array of worlds where the statement fails, per assignment."""
        return evaluate_gap(self, stmt, self._memo, self._leaf)

    def _leaf(self, name: str) -> np.ndarray:
        return self._values(name, ())

    def _values(self, name: str, bounds: tuple[tuple[int, int], ...]) -> np.ndarray:
        """The bitsets of a variable along its axis: all of them, or those in
        [lo, hi) = bounds[axis] when a block's bounds are given."""
        axis = self._axis.get(name)
        if axis is None:
            return self.ops[0]
        lo, hi = bounds[axis] if bounds else (0, self.size)
        shape = [1] * len(self.names)
        shape[axis] = hi - lo
        return np.arange(lo, hi, dtype=np.uint64).reshape(shape)


def decode_index(flat: int, names: list[str], worlds: int) -> dict[str, int]:
    """Variable bitsets spelled by a flat scan index (first name most significant)."""
    return dict(zip(names, _digits(flat, len(names), 1 << worlds)))


def _digits(flat: int, n: int, size: int) -> list[int]:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        flat, out[i] = divmod(flat, size)
    return out


def first_countermodel(evaluator: SpaceEvaluator, premises: list[Statement],
                       conclusion: Statement):
    """First assignment (in scan order) satisfying every premise everywhere
    while the conclusion fails somewhere, as (flat index, failure bitset), or
    None. The scan order is C order over `names`, first variable most
    significant, and the answer does not depend on the block size.

    Blocks are aligned runs of at most _BLOCK_ENTRIES assignments: the
    trailing variables that fit range over all their values, the variable
    before them over a power-of-two slice, and the leading ones are held at
    one value each. The scan stops at the first block holding a countermodel."""
    names, size = evaluator.names, evaluator.size
    total = size ** len(names)
    step = min(total, 1 << _BLOCK_ENTRIES.bit_length() - 1)
    places = [size ** i for i in reversed(range(len(names)))]
    # premises before the conclusion: the other order ran five-world
    # consequence checks about 15% slower, mapping fresh pages for each array
    stmts = [*premises, conclusion]
    whole =[evaluator.gap(s) if size ** len(set(names) & statement_vars(s)) <= _BLOCK_ENTRIES
             else None for s in stmts]

    for start in range(0, total, step):
        bounds = tuple((d, d + max(1, min(size, step // place)))
                       for d, place in zip(_digits(start, len(names), size), places))
        memo: dict = {}

        def gap(k: int) -> np.ndarray:
            g = whole[k]
            if g is None:
                return evaluate_gap(evaluator, stmts[k], memo,
                                    lambda name: evaluator._values(name, bounds))
            return g[tuple(slice(lo, hi) if g.shape[i] > 1 else slice(None)
                           for i, (lo, hi) in enumerate(bounds))]

        shape = tuple(hi - lo for lo, hi in bounds)
        hit = _first_in_block(shape, gap(-1), (gap(k) for k in range(len(premises))))
        if hit is not None:
            return start + hit[0], hit[1]
    return None


def first_sampled_countermodel(frame: Frame, names: list[str], values: Iterator[int],
                               count: int, stmt: Statement):
    """First of `count` rows under which the statement fails somewhere, as
    (row index, row), or None. `values` yields the rows' bitsets one after
    another, one per name in the order of `names`; variables outside `names`
    are empty. Rows are read in batches of at most _BLOCK_ENTRIES, each laid
    along one axis and evaluated at once."""
    owner = SpaceEvaluator(frame, [])
    zero = owner.ops[0]
    for done in range(0, count, _BLOCK_ENTRIES):
        rows = min(_BLOCK_ENTRIES, count - done)
        table = np.fromiter(values, dtype=np.uint64, count=rows * len(names))
        table = table.reshape(rows, len(names))
        columns = dict(zip(names, table.T))
        gap = evaluate_gap(owner, stmt, {}, lambda name: columns.get(name, zero))
        hit = _first_in_block((rows,), gap, ())
        if hit is not None:
            return done + hit[0], tuple(int(v) for v in table[hit[0]])
    return None


def _first_in_block(shape: tuple[int, ...], conc: np.ndarray, premise_gaps: Iterable):
    """First position, in C order over `shape`, where the conclusion's gap is
    nonzero and every premise gap is zero, with the conclusion's gap there,
    or None. Premise gaps are drawn only while some position is still open."""
    fail = np.empty(shape, dtype=bool)
    fail[...] = conc != 0
    for g in premise_gaps:
        if not fail.any():
            return None
        fail &= g == 0
    flat = fail.reshape(-1)
    if not flat.any():
        return None
    local = int(np.argmax(flat))
    return local, int(np.broadcast_to(conc, shape)[np.unravel_index(local, shape)])
