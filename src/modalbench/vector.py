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
evaluators run on ints. This module supplies only its array backend,
_array_ops, and the variable axes. A world set is stored in the narrowest
unsigned word that holds the frame's worlds (word_dtype: one byte per entry
up to 8 worlds, eight above 32), and diamond and box are computed by table
lookup in the four-Russians style: with D_b[v] the worlds that have a
successor in the world set v << 8b, dia(S) = OR_b D_b[byte b of S], and with
B_b[v] the worlds that have none among byte b's worlds outside v,
box(S) = AND_b B_b[byte b of S], one read per byte of the word. The tables
hold 256 words each; they are built once per frame and kept for the last
_TABLE_FRAMES frames (_tables). A read goes through ndarray.take, about
twice as fast here as fancy indexing, in runs of _TAKE entries, since take
copies its whole index to intp first.

The search reads the space in aligned blocks, and the block bounds each
statement's array, not the product: every gap over the block, and every
intermediate of the search, has at most _BLOCK_ENTRIES entries. Every
statement is evaluated through SpaceEvaluator.gap on the block, which shares
node arrays between the block's statements and starts afresh on the next
block. The scan counts each node's parents among all its statements once
(kripke.parent_counts), and each block starts from a copy of the counts: a
node array is dropped as soon as its last parent is computed, so the arrays
live at once are the DAG's width, not its size, while the statement sides
and variable leaves stay for the block. A node shared by the conclusion and
a premise is computed once per block, even when the premise is drawn late.
Sampled validity drops node arrays the same way in each batch. A lone
statement's first failure is read off its own gap, at any block size.
Premises are combined with the conclusion in one mask of the block's shape
when the block fits the budget; a larger block, which arises
only when a statement omits a variable the block ranges over, is searched by
variable elimination without an array of its shape. Its factors are 0/1
float32 arrays, each written once from its gap; the conclusion's axes are
ordered for its contraction with the largest premise (those the premise
lacks, then the shared ones in the premise's order), so the matrix products
inside einsum read both factors in place. A single statement over
every variable (most validity checks) gains nothing from this: its gap is
the product. Sampled validity reads its seeded rows the same way, laid
along one axis.

numpy is imported on first array use, in the functions that build or read
arrays, so importing this module (and modalbench) does not load it, and
the commands that never scan a valuation space (eval, lemma, chains,
transitivity, fixpoint) never do.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import TYPE_CHECKING, Iterable, Iterator

from .kripke import Frame, evaluate_gap, evaluate_nodes, parent_counts
from .terms import Statement, Term, statement_vars

if TYPE_CHECKING:
    import numpy as np

_BLOCK_ENTRIES = 1 << 20  # the most assignments, or sampled rows, read at once
_FIRST_BLOCK = 1 << 12  # a lone statement's first block, doubled up to the step
_TAKE = 1 << 14  # the most entries a byte-table read indexes at once
_TABLE_FRAMES = 128  # the frames whose byte tables are kept


class SpaceEvaluator:
    """Vectorized term evaluation over all valuations of `names` on one frame,
    or over one block of them.

    Results are arrays of world bitsets in the frame's word dtype
    (word_dtype); axis i enumerates the bitsets of names[i] in the block's
    [lo, hi) range, in increasing numeric order.
    Variables mentioned nowhere in `names` evaluate to the empty set. Node
    arrays are memoized by identity for the current block, so statements
    sharing subterms share their arrays; entering another block starts an
    empty memo. After plan(statements), each block also starts from a copy
    of those statements' remaining-parent counts, and a node array leaves
    the memo once its last parent among them is computed: the memo holds
    the statement sides, the variable leaves and the nodes still awaited,
    which is the DAG's width, not its size. Any term or statement, planned
    or not, still gets its right value."""

    def __init__(self, frame: Frame, names: list[str]):
        self.frame = frame
        self.names = list(names)
        self.size = 1 << frame.worlds
        self.ops = _array_ops(frame, len(self.names))
        self._axis = {name: i for i, name in enumerate(self.names)}
        self._block = self._whole = ((0, self.size),) * len(self.names)
        self._memo: dict[Term, np.ndarray] = {}
        self._parents: dict[Term, int] = {}  # the plan's counts
        self._left: dict[Term, int] = {}  # the current block's copy of them

    def plan(self, statements: list[Statement]) -> None:
        """Count parents for a scan that evaluates these statements on each
        block, and start the next block afresh. A node shared by several of
        them is computed once per block, whichever of them are evaluated."""
        self._parents = parent_counts(statements)
        self._block = None

    def evaluate(self, term: Term) -> np.ndarray:
        """The term's array over the whole space."""
        self._enter(self._whole)
        return evaluate_nodes(self.ops, (term,), self._memo, self._leaf, self._left)[0]

    def gap(self, stmt: Statement, block: tuple | None = None) -> np.ndarray:
        """Bitset array of worlds where the statement fails, per assignment of
        the block (one [lo, hi) range per name; None is the whole space)."""
        self._enter(block or self._whole)
        return evaluate_gap(self.ops, stmt, self._memo, self._leaf, self._left)

    def _enter(self, block: tuple) -> None:
        if block != self._block:
            self._block = block
            self._memo = {}
            self._left = dict(self._parents)

    def _leaf(self, name: str) -> np.ndarray:
        import numpy as np

        axis = self._axis.get(name)
        if axis is None:
            return self.ops[0]
        lo, hi = self._block[axis]
        shape = [1] * len(self.names)
        shape[axis] = hi - lo
        return np.arange(lo, hi, dtype=self.ops[0].dtype).reshape(shape)


def word_dtype(worlds: int) -> np.dtype:
    """The narrowest unsigned integer dtype with a bit for every world."""
    import numpy as np

    for dtype in (np.uint8, np.uint16, np.uint32):
        if worlds <= np.iinfo(dtype).bits:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def _array_ops(frame: Frame, rank: int) -> tuple:
    """The array backend of evaluate_nodes: a zero array of the given rank
    with every axis of length 1 and the mask, both in the frame's word dtype,
    then diamond and box, each one read of the frame's byte tables (_tables)
    per byte of the word: the OR of the diamond tables' words, the AND of
    the box tables'."""
    import numpy as np

    dia_tables, box_tables = _tables(frame)
    dtype = dia_tables[0].dtype
    return (np.zeros((1,) * rank, dtype=dtype), dtype.type(frame.mask),
            lambda a: _read(dia_tables, np.bitwise_or, a),
            lambda a: _read(box_tables, np.bitwise_and, a))


@lru_cache(maxsize=_TABLE_FRAMES)
def _tables(frame: Frame) -> tuple:
    """The frame's diamond and box tables, one of each per byte of its word,
    read-only. Diamond table b maps each byte value v to the worlds with a
    successor in the world set v << 8b; it is built by doubling, one world
    of the byte at a time, from the worlds' predecessor sets. Box table b
    maps v to mask ^ D_b[width ^ (v & width)], width being the byte's worlds:
    the worlds with no successor among the byte's worlds outside v."""
    import numpy as np

    dtype = word_dtype(frame.worlds)
    preds = [sum(1 << w for w, s in enumerate(frame.succ) if s >> u & 1)
             for u in range(frame.worlds)]
    dia_tables, box_tables = [], []
    for low in range(0, max(frame.worlds, 1), 8):
        table = [0]
        for pred in preds[low:low + 8]:
            table += [v | pred for v in table]
        width = len(table) - 1
        # repeated to 256 entries: bits past the last world are never set
        dia = np.array(table * (256 // len(table)), dtype=dtype)
        box = dtype.type(frame.mask) ^ dia[width ^ (np.arange(256) & width)]
        dia.setflags(write=False)
        box.setflags(write=False)
        dia_tables.append(dia)
        box_tables.append(box)
    return tuple(dia_tables), tuple(box_tables)


def _read(tables: tuple, combine, a: np.ndarray) -> np.ndarray:
    """combine over b of tables[b][byte b of a], entry by entry. take copies
    its index to intp, eight bytes an entry, so an array longer than _TAKE is
    read _TAKE entries at a time into one output."""
    import numpy as np

    if a.size <= _TAKE:
        return _read_run(tables, combine, a)
    flat = a.reshape(-1)
    out = np.empty(flat.shape, dtype=tables[0].dtype)
    for lo in range(0, flat.size, _TAKE):
        _read_run(tables, combine, flat[lo:lo + _TAKE], out[lo:lo + _TAKE])
    return out.reshape(a.shape)


def _read_run(tables: tuple, combine, a: np.ndarray, dest=None):
    """_read of one run of entries, into dest if given. Without dest a
    closed statement's scalar gets a scalar back."""
    import numpy as np

    out = tables[0].take(a.astype(np.uint8, copy=False), out=dest)
    for shift, table in zip(range(8, 8 * len(tables), 8), tables[1:]):
        out = combine(out, table.take((a >> shift).astype(np.uint8)), out=dest)
    return out


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

    Blocks are aligned runs of a power-of-two number of assignments: the
    trailing variables that fit range over all their values, the variable
    before them over a power-of-two slice, and the leading ones are held at
    one value each. The step is the largest at which every statement's own
    gap over the block has at most _BLOCK_ENTRIES entries, so the block
    outgrows the budget when no statement mentions every variable it ranges
    over. Every statement is evaluated through evaluator.gap. A block is
    read by _first_in_block, on the axes its gaps mention, unless it has
    premises and more than _BLOCK_ENTRIES assignments: then the lowest
    countermodel is found by variable elimination (_first_by_elimination),
    and no array of the block's shape is built. The scan stops at the first
    block holding a countermodel."""
    names, size = evaluator.names, evaluator.size
    total = size ** len(names)
    statements = [conclusion, *premises]
    step = _widest_step(names, size, statements)
    evaluator.plan(statements)
    start = 0
    while start < total:
        # A lone statement doubles its blocks from _FIRST_BLOCK, so an early
        # refutation reads little. Premise scans take whole steps: doubling
        # splits the one 2^25 elimination block of Sigma |= pi_k on a
        # five-chain, which made those checks about four times slower.
        width = step if premises else min(step, max(_FIRST_BLOCK, start))
        lengths = _block_lengths(width, size, len(names))
        block = tuple((d, d + length)
                      for d, length in zip(_digits(start, len(names), size), lengths))
        conc = evaluator.gap(conclusion, block)
        premise_gaps = (evaluator.gap(p, block) for p in premises)
        if premises and prod(lengths) > _BLOCK_ENTRIES:
            hit = _first_by_elimination(lengths, conc, premise_gaps)
        else:
            hit = _first_in_block(lengths, conc, premise_gaps)
        if hit is not None:
            return start + hit[0], hit[1]
        start += width
    return None


def _block_lengths(step: int, size: int, n: int) -> tuple[int, ...]:
    """Per-variable lengths of an aligned block of `step` assignments."""
    return tuple(max(1, min(size, step // size ** i)) for i in reversed(range(n)))


def _widest_step(names: list[str], size: int, statements: list[Statement]) -> int:
    """The scan's step: the largest power of two, at most the whole space and
    2^52, at which every statement's gap over the block has at most
    _BLOCK_ENTRIES entries, and never below the largest power of two within
    _BLOCK_ENTRIES. A block of at most 2^52 entries has at most 52 axes
    longer than one, einsum's label limit."""
    floor = 1 << _BLOCK_ENTRIES.bit_length() - 1
    axis = {name: i for i, name in enumerate(names)}
    supports = [[axis[v] for v in statement_vars(s) if v in axis] for s in statements]
    step = min(size ** len(names), 1 << 52)
    while step > floor:
        lengths = _block_lengths(step, size, len(names))
        if all(prod(lengths[i] for i in support) <= _BLOCK_ENTRIES for support in supports):
            break
        step //= 2
    return step


def _first_by_elimination(lengths: tuple[int, ...], conc: np.ndarray,
                          premise_gaps: Iterable):
    """_first_in_block for a premise block too large to broadcast, by bucket
    elimination over 0/1 float32 factors: the conclusion's gap != 0 and each
    premise's gap == 0, each over its own axes. Axis by axis in scan order,
    with the earlier axes held at their chosen values, one einsum sums the
    product of the factors over the later axes, and the axis takes the
    smallest value whose sum is positive; a sum of 0/1 products is positive
    exactly when one of them is 1. None if the first axis has no such value.
    The greedy contraction order builds no intermediate of more than
    _BLOCK_ENTRIES entries. Premise gaps are drawn only if the conclusion
    fails somewhere.

    Each factor is written once, straight from its gap into a float32
    buffer (_factor), and its axes are listed in the buffer's order, so the
    slices that hold earlier axes index it as laid out. The premises keep
    scan order. The conclusion is laid out for a contraction with the
    largest premise (the first, on a tie), the step the greedy order starts
    with on Sigma |= pi_k: first the conclusion's axes that premise lacks,
    then the shared ones in the premise's order. Each group is then
    contiguous, so the matmul that einsum runs reads both factors as views."""
    import numpy as np

    if not conc.any():
        return None
    ranging = [i for i, n in enumerate(lengths) if n > 1]
    dims = [lengths[i] for i in ranging]
    premises = [_factor(np.equal, g, ranging, dims) for g in premise_gaps]
    largest = max(premises, key=lambda f: f[0].size, default=(None, ()))[1]
    factors = [_factor(np.not_equal, conc, ranging, dims, last=largest)] + premises
    chosen: list[int] = []
    for p in range(len(dims)):
        args = []
        for array, axes in factors:
            args += [array[tuple(chosen[a] if a < p else slice(None) for a in axes)],
                     [a for a in axes if a >= p]]
        out = [p] if any(p in axes for _, axes in factors) else []
        marginal = np.einsum(*args, out, optimize=("greedy", _BLOCK_ENTRIES))
        positive = np.flatnonzero(marginal)
        if not positive.size:
            return None
        chosen.append(int(positive[0]))
    local = int(np.ravel_multi_index(chosen, dims))
    return local, int(np.broadcast_to(conc, lengths)[np.unravel_index(local, lengths)])


def _factor(truth, gap: np.ndarray, ranging: list[int], dims: list[int],
            last=()) -> tuple:
    """(truth(gap, 0) as 0/1 float32, its axes in the buffer's order),
    written in one pass. The gap's ranging axes keep scan order, except
    that those in `last` move to the end, in last's order."""
    import numpy as np

    axes = [a for a, i in enumerate(ranging) if gap.shape[i] > 1]
    order = [a for a in axes if a not in last] + [a for a in last if a in axes]
    buffer = np.empty([dims[a] for a in order], dtype=np.float32)
    truth(gap.reshape([dims[a] for a in axes]), 0,
          out=buffer.transpose([order.index(a) for a in axes]))
    return buffer, order


def first_sampled_countermodel(frame: Frame, names: list[str], values: Iterator[int],
                               count: int, stmt: Statement):
    """First of `count` rows under which the statement fails somewhere, as
    (row index, row), or None. `values` yields the rows' bitsets one after
    another, one per name in the order of `names`; variables outside `names`
    are empty. Rows are read in batches of at most _BLOCK_ENTRIES, each laid
    along one axis in the frame's word dtype and evaluated at once."""
    import numpy as np

    ops = _array_ops(frame, 1)
    zero = ops[0]
    parents = parent_counts([stmt])
    for done in range(0, count, _BLOCK_ENTRIES):
        rows = min(_BLOCK_ENTRIES, count - done)
        table = np.fromiter(values, dtype=zero.dtype, count=rows * len(names))
        table = table.reshape(rows, len(names))
        columns = dict(zip(names, table.T))
        gap = evaluate_gap(ops, stmt, {}, lambda name: columns.get(name, zero), dict(parents))
        hit = _first_in_block((rows,), gap, ())
        if hit is not None:
            return done + hit[0], tuple(int(v) for v in table[hit[0]])
    return None


def _first_in_block(shape: tuple[int, ...], conc: np.ndarray, premise_gaps: Iterable):
    """First position, in C order over the block `shape`, where the
    conclusion's gap is nonzero and every premise gap is zero, with the
    conclusion's gap there, or None. The gaps are read on the axes they
    mention: a lone conclusion's first failure is read off its own gap, with
    the axes it omits held at 0, at any block size. Premise gaps are drawn
    only while some position is still open, and combined in place into one
    mask, widened once to the block's shape."""
    import numpy as np

    fail = conc != 0
    for g in premise_gaps:
        if not fail.any():
            return None
        if fail.shape != shape:
            fail = np.broadcast_to(fail, shape).copy()
        fail &= g == 0
    flat = fail.reshape(-1)
    local = int(np.argmax(flat))
    if not flat[local]:
        return None
    at = np.unravel_index(local, fail.shape)
    return int(np.ravel_multi_index(at, shape)), int(np.broadcast_to(conc, fail.shape)[at])
