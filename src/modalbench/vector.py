"""Bit-parallel evaluation of terms over whole valuation spaces, and the one
countermodel search.

A SpaceEvaluator fixes a frame and an ordered variable list and evaluates
each term node over a block of the valuation space at once, in bit planes
(bit slicing: E. Biham, "A Fast New DES Implementation in Software", FSE
1997). A value is a uint64 array of shape (worlds, words, d_0, ..., d_{k-2})
with one plane per world, in which a set bit is an assignment under which
the world is in the node's set. The block's last variable is packed 64
assignments to a word, lowest value in the lowest bit, on the axis right
after the worlds; every other variable keeps an axis of its own, of length
1 where the node does not depend on it, so values broadcast against each
other and a node costs what its own variables span. The words come first
so that numpy's innermost loop runs over the last unpacked variable, not
over the few words of a short packed axis, when a full array meets a leaf.
Scans read the space in C order, first variable most significant, and the
packed variable least, which makes "the first countermodel" a single
well-defined index shared with the scalar scan order.

The evaluation itself is kripke.run, the loop that the scalar evaluators run
on ints; this module supplies its plane backend (_plane_ops) and the leaves.
The connectives are word operations, and diamond and box at world w are the
OR and the AND of the planes of w's successors: on a chain a running OR or
AND from the top world down, one word operation per world, and on every
other frame one reduction per world. Where the packed variable has fewer
than 64 values in a block, the high bits of its words are junk (negation
sets them), and the readers of a gap clear them.

The search reads the space in aligned blocks, and the block bounds each
statement's array, not the product: every gap over the block, and every
intermediate of the search, has at most _BLOCK_ENTRIES entries, and a
statement scanned alone at most _LONE_ENTRIES, so that its node arrays stay
near the L2 cache. The scan compiles its statements into one program once
(SpaceEvaluator.plan, kept across frames by SpaceEvaluator.on), and each
block runs a statement's part of it when its gap is drawn, so a node shared
by the conclusion and a premise is computed once per block. The run drops
each node's array right after its last read, so the arrays live at once are
the DAG's width, not its size. A gap is read through the OR of its planes
(_fails): the lowest set bit of the conclusion's, with each premise's
cleared from it word by word, is the block's first countermodel. A premise
block past the budget, which arises only when a statement omits a variable
the block ranges over, is searched instead by variable elimination over 0/1
float32 factors, each written once from its statement's unpacked OR, on the
axes of the variables the statement mentions; the conclusion's axes are
ordered for its contraction with the largest premise, so the matrix
products inside einsum read both factors in place. Sampled validity packs
its seeded rows along one axis and reads them the same way.

numpy is imported on first array use, in the functions that build or read
arrays, so importing this module (and modalbench) does not load it, and
the commands that never scan a valuation space (eval, lemma, chains,
transitivity, fixpoint) never do.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import TYPE_CHECKING, Iterable, Iterator

from .kripke import Frame, Program, program_of, run
from .terms import Statement, Term, statement_vars

if TYPE_CHECKING:
    import numpy as np

_BLOCK_ENTRIES = 1 << 20  # the most assignments, or sampled rows, read at once
_LONE_ENTRIES = 1 << 18  # a lone statement's gap entries per block: 224 KiB on a 7-chain
_FIRST_BLOCK = 1 << 15  # a lone statement's first block, doubled up to the step
_LEAF_WORDS = 1 << 12  # leaves of at most this many words per axis value are kept
# the first six worlds' planes in a word of 64 aligned values: bit t is bit w of t
_PATTERNS = tuple(sum(1 << t for t in range(64) if t >> w & 1) for w in range(6))


class SpaceEvaluator:
    """Vectorized term evaluation over all valuations of `names` on one frame,
    or over one block of them.

    Results are bit planes (see the module docstring): axis 0 is the worlds,
    axis 1 holds the last name's bitsets in the block's [lo, hi) range, 64 to
    a word, and axis 2 + i enumerates those of names[i] in increasing order.
    Variables mentioned nowhere in `names` evaluate to the empty set.
    After plan(statements), the statements' one program runs on each block
    as far as the statements drawn so far need, so statements sharing
    subterms share their arrays, and each node array is dropped right after
    its last read. Entering another block starts the run afresh. evaluate
    runs a term's own program over the whole space."""

    def __init__(self, frame: Frame, names: list[str]):
        self.frame = frame
        self.names = list(names)
        self.size = 1 << frame.worlds
        self.ops = _plane_ops(frame, len(self.names))
        self._axis = {name: i for i, name in enumerate(self.names)}
        self._block = self._whole = ((0, self.size),) * len(self.names)
        # the planned statements, their program, and each one's first gap position
        self._plan: tuple = ((), None, {})
        self._values: list = []  # the plan's values on the current block

    def plan(self, statements: list[Statement]) -> None:
        """Compile the statements that a scan evaluates on each block into one
        program, unless they are the ones already planned, and start the next
        block afresh. A node shared by several of them is computed once per
        block, whichever of them are evaluated."""
        if tuple(statements) != self._plan[0]:
            program = Program(statements)
            gaps = dict(zip(reversed(statements), reversed(program.roots)))
            self._plan = (tuple(statements), program, gaps)
        self._block = None

    def on(self, frame: Frame) -> SpaceEvaluator:
        """An evaluator over the same names on another frame, with this one's
        plan: a problem checked frame by frame compiles its statements once."""
        other = SpaceEvaluator(frame, self.names)
        other._plan = self._plan
        return other

    def evaluate(self, term: Term) -> np.ndarray:
        """The term's planes over the whole space."""
        self._enter(self._whole)
        return run(program_of(term), self.ops, self._leaf)[-1]

    def gap(self, stmt: Statement, block: tuple) -> np.ndarray:
        """Planes of the worlds where a planned statement fails, per
        assignment of the block (one [lo, hi) range per name). The gap is
        handed over: drawn again, it is run again."""
        self._enter(block)
        _, program, gaps = self._plan
        at = gaps[stmt]
        if len(self._values) > at and self._values[at] is None:  # handed over already
            self._values = []
        if len(self._values) <= at:
            run(program, self.ops, self._leaf, self._values, at + 1)
        gap, self._values[at] = self._values[at], None
        return gap

    def _enter(self, block: tuple) -> None:
        if block != self._block:
            self._block = block
            self._values = []

    def _leaf(self, name: str) -> np.ndarray:
        axis = self._axis.get(name)
        if axis is None:
            return self.ops[0]
        lo, hi = self._block[axis]
        leaf = _kept_leaf if self.frame.worlds * (hi - lo) <= _LEAF_WORDS else _leaf_planes
        return leaf(self.frame.worlds, len(self.names), axis, lo, hi)


def _plane_ops(frame: Frame, rank: int) -> tuple:
    """The plane backend of kripke.run for a space of `rank` variables: zero
    planes with every variable axis of length 1, read-only, and the all-ones
    word, then diamond and box. At world w they are the OR and the AND of the
    planes of w's successors (0 and all ones where it has none, the
    identities). On a chain (Frame.chain_loops) they run from the top world
    down: w's successors are the worlds above it, whose planes the running
    value holds, and w itself where it is looped, so each world costs about
    one word operation, the loop folded into the running value. On every
    other frame each world takes one reduction, over a run of rows when its
    successors are consecutive worlds and over the gathered rows otherwise."""
    import numpy as np

    loops = frame.chain_loops
    rows = [slice(r[0], r[-1] + 1) if r and r[-1] - r[0] == len(r) - 1
            else np.array(r, dtype=np.intp) for r in frame.succ_worlds]

    def chain(combine, identity):
        def step(a: np.ndarray) -> np.ndarray:
            out = np.empty_like(a)
            above = ()  # the arrays whose combination is the worlds above w
            for w in reversed(range(frame.worlds)):
                parts = (*above, a[w]) if loops >> w & 1 else above
                if not parts:
                    out[w] = identity
                elif len(parts) == 1:
                    np.copyto(out[w], parts[0])
                else:
                    combine(parts[0], parts[1], out=out[w])
                    if len(parts) > 2:
                        combine(out[w], parts[2], out=out[w])
                # where w is looped, out[w] already holds its own plane
                above = ((out[w],) if loops >> w & 1 else
                         (out[w], a[w]) if above else (a[w],))
            return out
        return step

    def modal(reduce):
        def step(a: np.ndarray) -> np.ndarray:
            out = np.empty_like(a)
            for w, at in enumerate(rows):
                reduce(a[at], axis=0, out=out[w])
            return out
        return step

    zero = np.zeros((frame.worlds,) + (1,) * max(rank, 1), dtype=np.uint64)
    zero.setflags(write=False)
    ones = ~np.uint64(0)
    if loops is not None:
        return zero, ones, chain(np.bitwise_or, 0), chain(np.bitwise_and, ones)
    return zero, ones, modal(np.bitwise_or.reduce), modal(np.bitwise_and.reduce)


def _leaf_planes(worlds: int, rank: int, axis: int, lo: int, hi: int) -> np.ndarray:
    """The read-only planes of the variable on `axis` of a space of `rank`
    variables over its values [lo, hi), a pure function of its arguments,
    so small ones are kept (_kept_leaf). On an unpacked axis a value v is a
    word per world w, all ones where bit w of v is set. The packed axis, the
    one after the worlds, is built in words of 64 aligned values: the word
    from value 64q on is the same at world w >= 6, and _PATTERNS at the
    first six worlds. A range that starts off a word boundary is shifted
    into place from two words."""
    import numpy as np

    packed, shape = axis == rank - 1, [worlds] + [1] * rank
    shift, count = (lo & 63, -(-(hi - lo) // 64)) if packed else (0, hi - lo)
    values = np.arange(count + (shift > 0), dtype=np.uint64) * np.uint64(64 if packed else 1)
    planes = -(values + np.uint64(lo - shift) >> np.arange(worlds, dtype=np.uint64)[:, None]
               & np.uint64(1))
    if packed:
        planes[:6] = np.array(_PATTERNS[:worlds], dtype=np.uint64)[:, None]
        if shift:
            planes = planes[:, :-1] >> np.uint64(shift) | planes[:, 1:] << np.uint64(64 - shift)
    shape[1 if packed else 2 + axis] = count
    planes = planes.reshape(shape)
    planes.setflags(write=False)
    return planes


_kept_leaf = lru_cache(maxsize=256)(_leaf_planes)


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
    gap over the block has at most _BLOCK_ENTRIES entries, or, for a lone
    conclusion, at most _LONE_ENTRIES (never more than _BLOCK_ENTRIES), so
    the block outgrows the budget when no statement mentions every variable
    it ranges over. Every statement is evaluated through evaluator.gap. A
    block is read by _first_in_block, on the axes its gaps mention, unless
    it has premises and more than _BLOCK_ENTRIES assignments: then the
    lowest countermodel is found by variable elimination
    (_first_by_elimination), and no array of the block's shape is built.
    The scan stops at the first block holding a countermodel."""
    import numpy as np

    names, size = evaluator.names, evaluator.size
    total = size ** len(names)
    statements = [conclusion, *premises]
    axis = {name: i for i, name in enumerate(names)}
    supports = [{axis[v] for v in statement_vars(s) if v in axis} for s in statements]
    budget = _BLOCK_ENTRIES if premises else min(_BLOCK_ENTRIES, _LONE_ENTRIES)
    step = _widest_step(len(names), size, supports, budget)
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
        fails = _fails(conc, lengths[-1] if lengths else 1)
        premises_fail = (_fails(evaluator.gap(p, block)) for p in premises)
        if premises and prod(lengths) > _BLOCK_ENTRIES:
            conc = None  # its planes go before the factors; drawn again for a countermodel
            local = _first_by_elimination(lengths, supports, fails, premises_fail)
        else:
            local = _first_in_block(lengths, fails, premises_fail)
        if local is not None:
            conc = evaluator.gap(conclusion, block) if conc is None else conc
            return start + local, _world_set(conc, np.unravel_index(local, lengths or (1,)))
        start += width
    return None


def _block_lengths(step: int, size: int, n: int) -> tuple[int, ...]:
    """Per-variable lengths of an aligned block of `step` assignments."""
    return tuple(max(1, min(size, step // size ** i)) for i in reversed(range(n)))


def _widest_step(n: int, size: int, supports: list[set[int]], budget: int) -> int:
    """The scan's step over n variables: the largest power of two, at most the
    whole space and 2^52, at which every statement's gap over the block (on
    the axes in its support) has at most `budget` entries, and never below
    the largest power of two within the budget. A block of at most 2^52
    entries has at most 52 axes longer than one, einsum's label limit."""
    floor = 1 << budget.bit_length() - 1
    step = min(size ** n, 1 << 52)
    while step > floor:
        lengths = _block_lengths(step, size, n)
        if all(prod(lengths[i] for i in support) <= budget for support in supports):
            break
        step //= 2
    return step


def _fails(gap: np.ndarray, length: int = 64) -> np.ndarray:
    """The OR of the gap's planes, the assignments under which the statement
    fails somewhere, with the junk bits past `length` packed values cleared."""
    import numpy as np

    fails = np.bitwise_or.reduce(gap, axis=0)
    fails &= np.uint64((1 << min(length, 64)) - 1)
    return fails


def _world_set(gap: np.ndarray, at: tuple) -> int:
    """The gap's world set at the block position `at`, the packed coordinate last."""
    *lead, packed = (int(i) for i in at)
    index = [i if n > 1 else 0 for i, n in zip(lead, gap.shape[2:])]
    words = gap[(slice(None), packed >> 6 if gap.shape[1] > 1 else 0, *index)]
    return sum((int(word) >> (packed & 63) & 1) << w for w, word in enumerate(words))


def _first_by_elimination(lengths: tuple[int, ...], supports: list[set[int]],
                          fails: np.ndarray, premises_fail: Iterable):
    """_first_in_block for a premise block too large to broadcast, by bucket
    elimination over 0/1 float32 factors, the conclusion failing somewhere
    and each premise nowhere, on the axes of their variables (supports, the
    conclusion's first). Axis by axis in scan order, with the earlier axes
    held at their chosen values, one einsum sums the product of the factors
    over the later axes, and the axis takes the smallest value whose sum is
    positive; a sum of 0/1 products is positive exactly when one of them is
    1. None if the first axis has no such value. The greedy contraction
    order builds no intermediate of more than _BLOCK_ENTRIES entries.
    Premise gaps are drawn only if the conclusion fails somewhere.

    Each factor is written once into a float32 buffer (_factor), its axes
    listed in the buffer's order, so the slices that hold earlier axes index
    it as laid out. The premises keep scan order. The conclusion is laid out
    for a contraction with the largest premise (the first, on a tie), the
    step the greedy order starts with on Sigma |= pi_k: first the
    conclusion's axes that premise lacks, then the shared ones in the
    premise's order. Each group is then contiguous, so the matmul that
    einsum runs reads both factors as views."""
    import numpy as np

    if not fails.any():
        return None
    ranging = [i for i, n in enumerate(lengths) if n > 1]
    dims = [lengths[i] for i in ranging]
    premises = [_factor(~words, support, lengths, ranging, dims)
                for words, support in zip(premises_fail, supports[1:])]
    largest = max(premises, key=lambda f: f[0].size, default=(None, ()))[1]
    factors = [_factor(fails, supports[0], lengths, ranging, dims, last=largest)] + premises
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
    return int(np.ravel_multi_index(chosen, dims))


def _factor(words: np.ndarray, support: set[int], lengths: tuple[int, ...],
            ranging: list[int], dims: list[int], last=()) -> tuple:
    """(the bits of `words` as 0/1 float32, its axes in the buffer's order),
    written in one pass. The axes are the ranging ones of the statement's
    variables (support), not read off its words, which are one per row for a
    packed axis of up to 64 values; the words axis moves last to be unpacked.
    They keep scan order, except that those in `last` move to the end, in
    last's order."""
    import numpy as np

    packed = len(lengths) - 1 in support
    words = np.ascontiguousarray(np.moveaxis(words, 0, -1), dtype="<u8")
    bits = np.unpackbits(words.view(np.uint8), axis=-1,
                         count=lengths[-1] if packed else 1, bitorder="little")
    axes = [a for a, i in enumerate(ranging) if i in support]
    order = [a for a in axes if a not in last] + [a for a in last if a in axes]
    buffer = np.empty([dims[a] for a in order], dtype=np.float32)
    np.copyto(buffer, bits.reshape([dims[a] for a in axes]).transpose(
        [axes.index(a) for a in order]))
    return buffer, order


def first_sampled_countermodel(frame: Frame, names: list[str], values: Iterator[int],
                               count: int, stmt: Statement):
    """First of `count` rows under which the statement fails somewhere, as
    (row index, row), or None. `values` yields the rows' bitsets one after
    another, one per name in the order of `names`; variables outside `names`
    are empty. Rows are read in batches of at most _BLOCK_ENTRIES, each
    packed along one axis (_row_planes) and evaluated at once."""
    import numpy as np

    ops = _plane_ops(frame, 1)
    program, used = Program((stmt,)), statement_vars(stmt)
    for done in range(0, count, _BLOCK_ENTRIES):
        rows = min(_BLOCK_ENTRIES, count - done)
        table = np.fromiter(values, "<u8", rows * len(names)).reshape(rows, len(names))
        planes = {name: _row_planes(table[:, i], frame.worlds)
                  for i, name in enumerate(names) if name in used}
        gap = run(program, ops, lambda name: planes.get(name, ops[0]))[-1]
        row = _first_in_block((rows,), _fails(gap, rows), ())
        if row is not None:
            return done + row, tuple(int(v) for v in table[row])
    return None


def _row_planes(values: np.ndarray, worlds: int) -> np.ndarray:
    """The planes of one variable over a batch of rows, bit r of plane w being
    bit w of values[r], packed one world at a time: no temporary holds a byte
    per world and row."""
    import numpy as np

    octets = np.ascontiguousarray(values, dtype="<u8").view(np.uint8).reshape(-1, 8)
    planes = np.zeros((worlds, -(-len(values) // 64) * 8), dtype=np.uint8)
    for w in range(worlds):
        planes[w, :-(-len(values) // 8)] = np.packbits(octets[:, w >> 3] & 1 << (w & 7),
                                                        bitorder="little")
    return planes.view("<u8")


def _first_in_block(shape: tuple[int, ...], fail: np.ndarray, premises_fail: Iterable):
    """First position, as a flat index in C order over the block `shape`,
    where the conclusion fails somewhere and every premise nowhere, or None.
    fail is the conclusion's OR (_fails); premises_fail yields the premises'
    ORs, drawn only while some position is still open, and each clears its
    failures from fail word by word. The words are read on the axes they
    mention: a lone conclusion's first failure is the lowest set bit of its
    own OR, with the axes it omits held at 0, at any block size. The words
    axis moves last, so C order over the words is scan order."""
    import numpy as np

    for words in premises_fail:
        if not fail.any():
            return None
        fail = fail & ~words
    fail = np.moveaxis(fail, 0, -1)
    flat = fail.reshape(-1)
    local = int(np.argmax(flat != 0))
    word = int(flat[local])
    if not word:
        return None
    *lead, j = np.unravel_index(local, fail.shape)
    packed = 64 * int(j) + (word & -word).bit_length() - 1
    return int(np.ravel_multi_index((*lead, packed), shape or (1,)))
