"""Bit-parallel evaluation of terms over whole valuation spaces.

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
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import terms
from .errors import InputError
from .kripke import Frame, evaluate_gap, evaluate_nodes
from .terms import Statement, Term

_BLOCK_ENTRIES = 1 << 20  # combine-block budget for the scan
_NODE_ENTRIES = 1 << 22   # largest per-node array; beyond this, pin and recurse


class SpaceEvaluator:
    """Vectorized term evaluation over all valuations of `names` on one frame.

    Results are uint64 arrays of world bitsets; axis i enumerates the 2^worlds
    bitsets of names[i] in increasing numeric order. Variables in `pin` are
    held at the given bitset; variables mentioned nowhere evaluate to the
    empty set. Nodes are cached by identity, so statements sharing subterms
    share their arrays."""

    def __init__(self, frame: Frame, names: list[str],
                 pin: Mapping[str, int] | None = None):
        if frame.worlds > 64:
            raise InputError("vectorized evaluation is limited to 64 worlds")
        self.frame = frame
        self.names = list(names)
        self.pin = dict(pin or {})
        self.size = 1 << frame.worlds
        n = len(self.names)
        self.ops = (np.zeros((1,) * n, dtype=np.uint64), np.uint64(frame.mask),
                    tuple(np.uint64(s) for s in frame.succ),
                    tuple(np.uint64(1 << w) for w in range(frame.worlds)))
        self._memo: dict[int, np.ndarray] = {}
        self._store = None
        self._vars: dict[str, np.ndarray] = {}
        if n:
            base = np.arange(self.size, dtype=np.uint64)
            for i, name in enumerate(self.names):
                self._vars[name] = base.reshape((1,) * i + (self.size,) + (1,) * (n - i - 1))

    def evaluate(self, term: Term) -> np.ndarray:
        return evaluate_nodes(self, (term,), self._memo, self._leaf)[0]

    def gap(self, stmt: Statement) -> np.ndarray:
        """Bitset array of worlds where the statement fails, per assignment."""
        return evaluate_gap(self, stmt, self._memo, self._leaf)

    def _leaf(self, name: str) -> np.ndarray:
        out = self._vars.get(name)
        if out is None:
            out = self.ops[0] | np.uint64(self.pin.get(name, 0))
        return out


def decode_index(flat: int, names: list[str], worlds: int) -> dict[str, int]:
    """Variable bitsets spelled by a flat scan index (first name most significant)."""
    size = 1 << worlds
    values: dict[str, int] = {}
    for name in reversed(names):
        flat, value = divmod(flat, size)
        values[name] = value
    return values


def first_countermodel(evaluator: SpaceEvaluator, premises: list[Statement],
                       conclusion: Statement, threads: int = 1):
    """First assignment (in scan order) satisfying every premise everywhere
    while the conclusion fails somewhere, as (flat index, failure bitset), or
    None. The scan order is C order over `names`, first variable most
    significant, and the answer does not depend on block size or threads.

    Memory stays bounded two ways: combine blocks cap the scan buffers, and
    when some single statement would materialize arrays past the per-node
    budget, the leading variable is pinned to each value in turn and the rest
    of the space handled recursively."""
    names = evaluator.names
    size = evaluator.size
    worst = 1
    for stmt in [*premises, conclusion]:
        touched = set(names) & set(terms.statement_vars(stmt))
        worst = max(worst, size ** len(touched))
    if names and worst > _NODE_ENTRIES:
        head, rest = names[0], names[1:]
        stride = size ** len(rest)
        for value in range(size):
            sub = SpaceEvaluator(evaluator.frame, rest,
                                 pin={**evaluator.pin, head: value})
            hit = first_countermodel(sub, premises, conclusion, threads)
            if hit is not None:
                idx, gap = hit
                return value * stride + idx, gap
        return None
    return _scan_space(evaluator, premises, conclusion, threads)


def _scan_space(evaluator: SpaceEvaluator, premises: list[Statement],
                conclusion: Statement, threads: int):
    n = len(evaluator.names)
    size = evaluator.size
    prem_gaps = [evaluator.gap(p) for p in premises]
    conc_gap = evaluator.gap(conclusion)

    if n == 0:
        ok = all(int(g.reshape(())) == 0 for g in prem_gaps)
        bad = int(conc_gap.reshape(()))
        return (0, bad) if ok and bad else None

    stride = size ** (n - 1)
    block_shape_tail = (size,) * (n - 1)

    def cut(arr: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return arr[lo:hi] if arr.shape[0] == size else arr

    def scan_span(span_lo: int, span_hi: int):
        block_len = max(1, _BLOCK_ENTRIES // stride)
        for lo in range(span_lo, span_hi, block_len):
            hi = min(lo + block_len, span_hi)
            shape = (hi - lo,) + block_shape_tail
            fail = np.empty(shape, dtype=bool)
            fail[...] = cut(conc_gap, lo, hi) != 0
            for g in prem_gaps:
                if not fail.any():
                    break
                fail &= cut(g, lo, hi) == 0
            flat_fail = fail.reshape(-1)
            if flat_fail.any():
                local = int(np.argmax(flat_fail))
                world_bits = np.broadcast_to(cut(conc_gap, lo, hi), shape).reshape(-1)[local]
                return lo * stride + local, int(world_bits)
        return None

    if threads > 1 and size >= threads:
        from concurrent.futures import ThreadPoolExecutor

        chunk = -(-size // threads)
        spans = [(lo, min(lo + chunk, size)) for lo in range(0, size, chunk)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = [h for h in pool.map(lambda s: scan_span(*s), spans) if h is not None]
        return min(hits, default=None)
    return scan_span(0, size)
