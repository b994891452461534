"""Finite Kripke frames, valuations, models, and the one evaluation core.

World sets are plain ints used as bitsets (bit w set means world w is in the
set), which keeps every Boolean connective a single machine operation and
makes evaluation results cheap to memoize and compare.

evaluate_nodes is the only place where the connectives get their meaning: the
operations of the frame's complex algebra (Jonsson-Tarski), with box as the
dual of diamond. It walks the term DAG without recursion and is generic in
its backend, which supplies diamond and box. Model and Evaluator run it on
ints, with each modality as a loop over the successor sets; the vectorized
SpaceEvaluator in vector.py runs it on numpy arrays that hold one bitset per
valuation in the narrowest unsigned word that holds the frame's worlds, with
each modality as one byte-table read per byte of the world set, from tables
built once per frame. The array backend also passes
remaining-parent counts (parent_counts), so a node's array leaves the memo
once its last parent is computed; the int backend keeps every node.

Each world rule has one owner: check_world_count (counts), check_world
(numbers), Frame.check (sets) and frame_from_edges (edges). All take ints
through check_int, which refuses bools (JSON true and false) and floats, as
does check_count, the rule for the drivers' caps, counts and bounds.
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
from .errors import CapExceededError, InputError, MissingVariableWarning
from .terms import Statement, Term

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


def check_int(value: object, what: str) -> int:
    """value, if its type is int (so no bool); what names it in the refusal."""
    if type(value) is int:
        return value
    raise InputError(f"{what} must be an int, not {type(value).__name__}")


def check_count(value: object, what: str) -> int:
    """value, if it is a nonnegative int: a count, cap or bound named what."""
    if check_int(value, what) < 0:
        raise InputError(f"{what} must be nonnegative, got {_shown(value)}")
    return value


def check_world_count(worlds: int) -> int:
    """worlds, if it is a world count of a frame. Builders that allocate per
    world call it first, so a refused count costs nothing."""
    if check_int(worlds, "world count") < 0:
        raise InputError("world count must be nonnegative")
    if worlds > MAX_WORLDS:
        raise CapExceededError(f"{_shown(worlds)} worlds exceeds the {MAX_WORLDS}-world cap")
    return worlds


def check_world(w: int, worlds: int) -> int:
    """w, if it is one of the world numbers 0..worlds-1. Callers shift by it
    only after this check, so no number can ask for a huge or negative shift."""
    if not 0 <= check_int(w, "world number") < worlds:
        span = f"0..{worlds - 1}" if worlds else "the empty frame"
        raise InputError(f"world {_shown(w)} is outside {span}")
    return w


def _shown(value: object) -> str:
    """value in a refusal message: an int past 64 bits by its size, since
    decimal conversion stops at 4300 digits, anything else by repr."""
    if type(value) is int and value.bit_length() > 64:
        return f"<{value.bit_length()}-bit int>"
    try:
        return repr(value)
    except ValueError:  # a container holding an int past the digit limit
        return f"<{type(value).__name__}>"


def frame_from_edges(worlds: int, edges: Iterable[tuple[int, int]]) -> Frame:
    """Build a frame from an edge list, each edge a pair of world numbers;
    edge order is irrelevant and duplicate edges collapse."""
    check_world_count(worlds)
    if not isinstance(edges, Iterable):
        raise InputError(f"edges must be an iterable of pairs, not {type(edges).__name__}")
    succ = [0] * worlds
    for edge in edges:
        if not (isinstance(edge, (tuple, list)) and len(edge) == 2):
            raise InputError(f"edge {_shown(edge)} is not a pair of worlds")
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
    """A frame plus a valuation, with a per-model evaluation cache keyed by
    term identity. The cache never needs invalidation because both halves
    are immutable."""

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
    """The int backend of evaluate_nodes: zero, mask, diamond and box on
    Python ints. Both loop over the successor sets: w is in dia(a) when a
    meets its successors, and in box(a) when they miss the worlds outside a.
    One evaluation on one valuation is too little work to pay for the byte
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


def evaluate_nodes(ops: tuple, roots: Sequence[Term], memo: dict, leaf: Callable,
                   parents: dict | None = None) -> list:
    """Values of the root terms in the complex algebra of a frame.

    Every node below the roots that memo (term -> value) lacks is computed
    children first with an explicit stack, so term depth is not limited by
    recursion. ops = (zero, mask, dia, box) is the backend: zero and mask are
    the empty and the full world set, dia maps a value to the worlds with a
    successor in it, and box to the worlds whose successors all lie in it,
    which is mask ^ dia(mask ^ value), computed in one step. The Boolean
    connectives are the same operators on every backend: ints for the scalar
    evaluators (int_ops), numpy arrays of the frame's word dtype for the
    vectorized one (vector._array_ops). leaf(name) gives a variable's value.
    Terms key the memo by identity, so terms of several stores share one
    memo without colliding.

    parents, if given, holds remaining-parent counts (parent_counts): each
    computed node takes one from the count of each of its arguments, and an
    argument whose count reaches zero leaves the memo, so a memo of arrays
    holds the DAG's width, not its size. The roots lose their counts and
    stay, as do nodes without one. A node dropped and then needed by a
    parent outside the counts is computed again, so any statement gets the
    right value under any counts."""
    zero, mask, dia, box = ops
    if parents:
        for root in roots:
            parents.pop(root, None)
    stack = list(roots)
    while stack:
        t = stack[-1]
        if t in memo:
            stack.pop()
            continue
        waiting = [a for a in t.args if a not in memo]
        if waiting:
            stack += waiting
            continue
        stack.pop()
        kind = t.kind
        if kind == terms.VAR:
            out = leaf(t.name)
        elif kind == terms.TOP:
            out = zero | mask
        elif kind == terms.BOT:
            out = zero
        else:
            a = memo[t.args[0]]
            if kind == terms.NOT:
                out = mask ^ a
            elif kind == terms.AND:
                out = a & memo[t.args[1]]
            elif kind == terms.OR:
                out = a | memo[t.args[1]]
            elif kind == terms.IMP:
                out = (mask ^ a) | memo[t.args[1]]
            elif kind == terms.DIA:
                out = dia(a)
            else:  # box
                out = box(a)
        memo[t] = out
        if parents:
            for a in t.args:
                left = parents.get(a)
                if left is not None:
                    if left == 1:
                        del parents[a], memo[a]
                    else:
                        parents[a] = left - 1
    return [memo[root] for root in roots]


def parent_counts(statements: Iterable[Statement]) -> dict[Term, int]:
    """The parents argument of evaluate_nodes for evaluating the statements
    together: for each node below them that has arguments and is no side of
    any statement, the number of argument slots it fills in the distinct
    nodes above it. Leaves and sides get no count, so they are never dropped."""
    sides = {side: None for stmt in statements for side in (stmt.lhs, stmt.rhs)}
    counts: dict[Term, int] = {}
    stack = list(sides)  # each node is expanded once: a side here, others when first counted
    while stack:
        for a in stack.pop().args:
            if a.args and a not in sides:
                n = counts.get(a, 0)
                counts[a] = n + 1
                if not n:
                    stack.append(a)
    return counts


def evaluate_gap(ops: tuple, stmt: Statement, memo: dict, leaf: Callable,
                 parents: dict | None = None):
    """Worlds where the statement fails: where the sides differ for an
    equation, where lhs holds without rhs for an inequation. memo and
    parents are evaluate_nodes'."""
    lhs, rhs = evaluate_nodes(ops, (stmt.lhs, stmt.rhs), memo, leaf, parents)
    if stmt.kind == terms.EQ:
        return lhs ^ rhs
    return lhs & (ops[1] ^ rhs)


def evaluate(model: Model, term: Term) -> int:
    """Bitset of worlds where the term holds. Box is universal over successors,
    so it holds vacuously at worlds with none; variables missing from the
    valuation evaluate to the empty set, with a one-shot warning each."""
    return evaluate_nodes(model.ops, (term,), model._memo, model._leaf)[0]


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
    return evaluate_gap(model.ops, stmt, model._memo, model._leaf) == 0


class Evaluator:
    """Evaluation on one frame under many assignments, each call with a fresh
    memo. Assignments are plain dicts of world sets of the frame; absent
    variables mean empty, silently, since enumeration callers control the
    variable set."""

    __slots__ = ("frame", "ops")

    def __init__(self, frame: Frame):
        self.frame = frame
        self.ops = int_ops(frame)

    def evaluate(self, term: Term, assignment: Mapping[str, int]) -> int:
        return evaluate_nodes(self.ops, (term,), {}, self._leaf_of(assignment))[0]

    def statement_gap(self, stmt: Statement, assignment: Mapping[str, int]) -> int:
        """Bitset of worlds where the statement fails under the assignment."""
        return evaluate_gap(self.ops, stmt, {}, self._leaf_of(assignment))

    def _leaf_of(self, assignment: Mapping[str, int]) -> Callable:
        # the name is the label: formatting one per read cost more than the check
        check = self.frame.check
        return lambda name: check(assignment.get(name, 0), name)
