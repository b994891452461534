"""Finite Kripke frames, valuations, models, and the one evaluation core.

World sets are plain ints used as bitsets (bit w set means world w is in the
set), which keeps every Boolean connective a single machine operation and
makes evaluation results cheap to memoize and compare.

run is the only place where the connectives get their meaning: the
operations of the frame's complex algebra (Jonsson-Tarski), with box as the
dual of diamond. It runs a Program, terms or statements compiled once into
a flat list of instructions, children first (a term keeps its own,
program_of), and is generic in its backend, which supplies diamond and box.
Each instruction marks the arguments it is the last to read, and run drops
their values right after that read. Model and Evaluator run programs on
ints, each modality a loop over the successor sets; the vectorized
SpaceEvaluator in vector.py runs them on numpy arrays of one bitset per
valuation, each modality one byte-table read per byte of the world set, and
the drops keep its live arrays to the DAG's width.

Each world rule has one owner: check_world_count (counts), check_world
(numbers), Frame.check (sets) and frame_from_edges (edges). All take ints
through errors.check_int, which refuses bools (JSON true and false) and
floats, as does errors.check_count, the rule for every cap, count and bound.
A Frame's successor sets come as a tuple, and an int too long to print in
decimal is named by its bit length in a refusal.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

from . import terms
from .errors import (CapExceededError, InputError, MissingVariableWarning, check_int,
                     shown)
from .terms import AND, BOT, BOX, DIA, EQ, IMP, LEQ, NOT, OR, TOP, VAR, Statement, Term

MAX_WORLDS = 64


@dataclass(frozen=True)
class Frame:
    """worlds many points 0..worlds-1; succ[w] is the bitset of R-successors of w."""

    worlds: int
    succ: tuple[int, ...]

    def __post_init__(self) -> None:
        check_world_count(self.worlds)
        if type(self.succ) is not tuple:
            raise InputError("successor sets must be a tuple of ints, "
                             f"not {type(self.succ).__name__}")
        if len(self.succ) != self.worlds:
            raise InputError("successor table length must equal the world count")
        for w, bits in enumerate(self.succ):
            self.check(bits, f"successor set of world {w}")

    @cached_property
    def mask(self) -> int:
        return (1 << self.worlds) - 1

    def check(self, bits: int, what: str) -> int:
        """bits, if an int of worlds of the frame; what names it in the refusal."""
        if check_int(bits, what) & ~self.mask:
            raise InputError(f"{what} mentions worlds outside the frame")
        return bits

    def edges(self) -> list[tuple[int, int]]:
        return [(w, v) for w in range(self.worlds)
                for v in bits_to_worlds(self.succ[w])]


def check_world_count(worlds: int) -> int:
    """worlds, if it is a world count of a frame. Builders that allocate per
    world call it first, so a refused count costs nothing."""
    if check_int(worlds, "world count") < 0:
        raise InputError("world count must be nonnegative")
    if worlds > MAX_WORLDS:
        raise CapExceededError(f"{shown(worlds)} worlds exceeds the {MAX_WORLDS}-world cap")
    return worlds


def check_world(w: int, worlds: int) -> int:
    """w, if it is one of the world numbers 0..worlds-1. Callers shift by it
    only after this check, so no number can ask for a huge or negative shift."""
    if not 0 <= check_int(w, "world number") < worlds:
        span = f"0..{worlds - 1}" if worlds else "the empty frame"
        raise InputError(f"world {shown(w)} is outside {span}")
    return w


def frame_from_edges(worlds: int, edges: Iterable[tuple[int, int]]) -> Frame:
    """Build a frame from an edge list, each edge a pair of world numbers;
    edge order is irrelevant and duplicate edges collapse."""
    check_world_count(worlds)
    if not isinstance(edges, Iterable):
        raise InputError(f"edges must be an iterable of pairs, not {type(edges).__name__}")
    succ = [0] * worlds
    for edge in edges:
        if not (isinstance(edge, (tuple, list)) and len(edge) == 2):
            raise InputError(f"edge {shown(edge)} is not a pair of worlds")
        succ[check_world(edge[0], worlds)] |= 1 << check_world(edge[1], worlds)
    return Frame(worlds, tuple(succ))


def frame_to_json(frame: Frame) -> dict:
    return {"worlds": frame.worlds, "edges": [[i, j] for i, j in frame.edges()]}


def frame_from_json(data: object) -> Frame:
    if not isinstance(data, dict):
        raise InputError("frame JSON must be an object")
    try:
        worlds, edges = data["worlds"], data["edges"]
    except KeyError as missing:
        raise InputError(f"frame JSON lacks key {missing}") from None
    if not isinstance(edges, list):
        raise InputError("frame JSON 'edges' must be a list of [i, j] pairs")
    return frame_from_edges(worlds, edges)


def decode_json(text: str, source: str) -> object:
    """The JSON document in text. Any failure to decode it, an integer past
    int()'s digit limit and nesting past the recursion limit included, is an
    InputError whose message starts with source."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{source}: {exc}") from None


def read_json(path: str) -> object:
    """The JSON document in a file; InputError if unreadable, not UTF-8 or not
    a JSON document that decode_json accepts."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None
    return decode_json(text, path)


def load_frame(path: str) -> Frame:
    return frame_from_json(read_json(path))


def worlds_to_bits(worlds: Iterable[int]) -> int:
    """The bitset of a world list, each world one of 0..MAX_WORLDS-1."""
    bits = 0
    for w in worlds:
        bits |= 1 << check_world(w, MAX_WORLDS)
    return bits


def bits_to_worlds(bits: int) -> list[int]:
    return [w for w in range(bits.bit_length()) if bits >> w & 1]


class Valuation:
    """Immutable map from variable name to world bitset, so models can cache
    evaluations safely. A changed valuation is a new Valuation."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Mapping[str, int] | None = None):
        self._bits = {name: _checked_bits(name, b) for name, b in (bits or {}).items()}

    @classmethod
    def from_sets(cls, sets: Mapping[str, Iterable[int]]) -> "Valuation":
        return cls({name: worlds_to_bits(ws) for name, ws in sets.items()})

    def bits(self, name: str) -> int:
        return self._bits.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._bits

    def names(self) -> frozenset[str]:
        return frozenset(self._bits)

    def to_sets(self) -> dict[str, list[int]]:
        return {name: bits_to_worlds(b) for name, b in sorted(self._bits.items())}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Valuation) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(frozenset(self._bits.items()))

    def __repr__(self) -> str:
        return f"Valuation({self.to_sets()})"


def _checked_bits(name: str, bits: object) -> int:
    """The world-set rule for a valuation without a frame: a nonnegative int."""
    if check_int(bits, f"bitset for variable {name!r}") < 0:
        raise InputError(f"negative bitset for variable {name!r}")
    return bits


def valuation_from_json(data: object) -> Valuation:
    if not isinstance(data, dict) or not all(isinstance(ws, list) for ws in data.values()):
        raise InputError("valuation JSON must map names to lists of worlds")
    return Valuation.from_sets(data)


class Model:
    """A frame plus a valuation, with a memo of root values keyed by term
    identity: evaluate answers a term again without running its program.
    The memo never needs invalidation because both halves are immutable."""

    __slots__ = ("frame", "valuation", "ops", "_memo", "_warned")

    def __init__(self, frame: Frame, valuation: Valuation):
        for name in sorted(valuation.names()):
            frame.check(valuation.bits(name), f"valuation of {name!r}")
        self.frame = frame
        self.valuation = valuation
        self.ops = int_ops(frame)
        self._memo: dict[Term, int] = {}
        self._warned: set[str] = set()

    def _leaf(self, name: str) -> int:
        if name not in self.valuation and name not in self._warned:
            self._warned.add(name)
            warnings.warn(f"variable {name!r} not in valuation, treating as empty set",
                          MissingVariableWarning, stacklevel=4)
        return self.valuation.bits(name)


def int_ops(frame: Frame) -> tuple:
    """The int backend of run: zero, mask, diamond and box on Python ints.
    Both loop over the successor sets: w is in dia(a) when a meets its
    successors, and in box(a) when they miss the worlds outside a. One
    evaluation on one valuation is too little work to pay for the byte
    tables of the array backend."""
    mask = frame.mask
    pairs = tuple((s, 1 << w) for w, s in enumerate(frame.succ))

    def dia(a: int) -> int:
        out = 0
        for s, bit in pairs:
            if a & s:
                out |= bit
        return out

    def box(a: int) -> int:
        outside = mask ^ a
        out = 0
        for s, bit in pairs:
            if not s & outside:
                out |= bit
        return out

    return 0, mask, dia, box


_KINDS = {kind: kind for kind in (VAR, TOP, BOT, NOT, AND, OR, IMP, DIA, BOX, EQ, LEQ)}


class Program:
    """A term, or a list of terms and statements, compiled once for run.

    The program lists the nodes below its roots, each once and children
    first, numbered by position; a statement is its two sides and one gap
    instruction of kind EQ or LEQ. columns holds five tuples, one entry per
    instruction: its kind, the positions a and b of its arguments (a is a
    variable's name, and unused slots are None), and drop_a and drop_b,
    which mark an argument that this instruction is the last to read. roots
    holds each root's position; roots are never dropped. A program holds no
    term and no value."""

    __slots__ = ("columns", "roots")

    def __init__(self, roots: Sequence[Term | Statement]):
        position: dict[Term, int] = {}
        rows: list[tuple] = []  # (kind, a, b) per instruction
        tops = []
        for root in roots:
            if isinstance(root, Statement):
                sides = [_emit(side, position, rows) for side in (root.lhs, root.rhs)]
                rows.append((_KINDS[root.kind], *sides))
                tops.append(len(rows) - 1)
            else:
                tops.append(_emit(root, position, rows))
        drops = []
        read = set(tops)  # walking backwards: what is read later on
        for _, a, b in reversed(rows):
            drop_b = type(b) is int and b not in read
            read.add(b)
            drops.append((type(a) is int and a not in read, drop_b))
            read.add(a)
        self.columns = (*zip(*rows), *zip(*reversed(drops)))
        self.roots = tuple(tops)


def _emit(term: Term, position: dict, rows: list) -> int:
    """Append the nodes below term that position lacks, children first,
    without recursion; term's position."""
    stack = [term]
    while stack:
        t = stack[-1]
        if t in position:
            stack.pop()
            continue
        for x in reversed(t.args):  # the last argument first
            if x not in position:
                stack.append(x)
                break
        else:
            stack.pop()
            position[t] = len(rows)
            args = t.args
            rows.append((_KINDS[t.kind], position[args[0]] if args else t.name,
                         position[args[1]] if len(args) == 2 else None))
    return position[term]


def program_of(term: Term) -> Program:
    """The term's program, compiled on first use and kept on the term."""
    if term._program is None:
        term._program = Program((term,))
    return term._program


def run(program: Program, ops: tuple, leaf: Callable, values: list | None = None,
        stop: int | None = None) -> list:
    """Run the program's instructions from len(values) up to stop (default:
    to the end), appending each value to values, which it returns; an
    argument's value becomes None right after its last read.

    This loop is the only place where the connectives get their meaning, in
    the complex algebra of a frame. ops = (zero, mask, dia, box) is the
    backend: zero and mask are the empty and the full world set, dia maps a
    value to the worlds with a successor in it, and box to the worlds whose
    successors all lie in it. The Boolean connectives are the same operators
    on every backend: ints for the scalar evaluators (int_ops), numpy arrays
    of the frame's word dtype for the vectorized one (vector._array_ops).
    leaf(name) gives a variable's value. A statement's gap is the worlds
    where it fails: where the sides differ for an equation, where lhs holds
    without rhs for an inequation."""
    zero, mask, dia, box = ops
    values = [] if values is None else values
    append = values.append
    columns = program.columns
    if values or stop is not None:
        columns = [column[len(values):stop] for column in columns]
    for kind, a, b, drop_a, drop_b in zip(*columns):
        if kind is VAR:
            out = leaf(a)
        elif kind is OR:
            out = values[a] | values[b]
        elif kind is BOX:
            out = box(values[a])
        elif kind is AND:
            out = values[a] & values[b]
        elif kind is DIA:
            out = dia(values[a])
        elif kind is NOT:
            out = mask ^ values[a]
        elif kind is IMP:
            out = (mask ^ values[a]) | values[b]
        elif kind is EQ:
            out = values[a] ^ values[b]
        elif kind is LEQ:
            out = values[a] & (mask ^ values[b])
        elif kind is TOP:
            out = zero | mask
        else:  # bottom
            out = zero
        append(out)
        if drop_a:
            values[a] = None
        if drop_b:
            values[b] = None
    return values


def evaluate(model: Model, term: Term) -> int:
    """Bitset of worlds where the term holds. Box is universal over successors,
    so it holds vacuously at worlds with none; variables missing from the
    valuation evaluate to the empty set, with a one-shot warning each."""
    if term not in model._memo:  # a model runs a term once: the term keeps no program
        model._memo[term] = run(Program((term,)), model.ops, model._leaf)[-1]
    return model._memo[term]


def evaluate_orbit(model: Model, term: Term, pivot: str, base_bits: int, k: int) -> list[int]:
    """The k+1 bitsets of the semantic iteration: start at base_bits, then
    repeatedly evaluate the term with the pivot bound to the previous value.
    The pivot must be a variable name and the base a world set of the frame."""
    terms.check_name(pivot)
    orbit = [model.frame.check(base_bits, "base bitset")]
    evaluator = Evaluator(model.frame)
    assignment = {name: model.valuation.bits(name)
                  for name in terms.free_vars(term) if name != pivot}
    for _ in range(k):
        assignment[pivot] = orbit[-1]
        orbit.append(evaluator.evaluate(term, assignment))
    return orbit


def holds_globally(model: Model, stmt: Statement) -> bool:
    """Truth of a statement at every world: equality of the two bitsets for
    equations, bitset inclusion for inequations."""
    return run(Program((stmt,)), model.ops, model._leaf)[-1] == 0


class Evaluator:
    """Evaluation on one frame under many assignments, each call a fresh run
    of the term's program. Assignments are plain dicts of world sets of the
    frame; absent variables mean empty, silently, since enumeration callers
    control the variable set."""

    __slots__ = ("frame", "ops")

    def __init__(self, frame: Frame):
        self.frame = frame
        self.ops = int_ops(frame)

    def evaluate(self, term: Term, assignment: Mapping[str, int]) -> int:
        return run(program_of(term), self.ops, self._leaf_of(assignment))[-1]

    def statement_gap(self, stmt: Statement, assignment: Mapping[str, int]) -> int:
        """Bitset of worlds where the statement fails under the assignment."""
        return run(Program((stmt,)), self.ops, self._leaf_of(assignment))[-1]

    def _leaf_of(self, assignment: Mapping[str, int]) -> Callable:
        # the name is the label: formatting one per read cost more than the check
        check = self.frame.check
        return lambda name: check(assignment.get(name, 0), name)
