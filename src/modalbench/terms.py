"""Hash-consed modal term DAGs and the named term families used throughout.

Terms are immutable and interned per store: building the same shape twice
returns the same object, so structural equality is identity equality and
iterated substitution shares subDAGs instead of exploding.
"""

from __future__ import annotations

import re
import threading
import weakref
import warnings
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import InputError, check_count

VAR_NAME = re.compile(r"[a-z][a-z0-9_]*")

VAR = "var"
TOP = "top"
BOT = "bot"
NOT = "not"
AND = "and"
OR = "or"
IMP = "imp"
BOX = "box"
DIA = "dia"

_ARITY = {VAR: 0, TOP: 0, BOT: 0, NOT: 1, BOX: 1, DIA: 1, AND: 2, OR: 2, IMP: 2}

EQ = "eq"
LEQ = "leq"


class Term:
    """One node of a hash-consed DAG. Never constructed directly; a TermStore
    interns nodes so that `a is b` holds exactly when a and b are structurally
    equal terms of the same store. The object is the node's only identity:
    tables and memos key on it, hashed by identity."""

    __slots__ = ("kind", "name", "args", "store", "_free", "_tree", "_program", "__weakref__")

    def __init__(self, kind: str, name: str | None, args: tuple[Term, ...],
                 store: "TermStore"):
        self.kind = kind
        self.name = name
        self.args = args
        self.store = store
        self._free: frozenset[str] | None = None
        self._tree: int | None = None
        self._program = None  # kripke.program_of's compiled program

    def __repr__(self) -> str:
        from .syntax import format_term  # deferred, syntax imports this module

        try:
            text = format_term(self, max_nodes=400)
        except InputError:
            text = f"<{node_count(self)} DAG nodes, display cap exceeded>"
        if len(text) > 120:
            text = text[:117] + "..."
        return f"Term({text})"


class TermStore:
    """Interning table for terms. Identity comparisons are only meaningful
    between terms of the same store; building a term from children of two
    stores raises InputError. Statements, consequence problems and evaluation
    accept terms of any store. The table holds its terms weakly, so terms and
    store make no cycle: a store nothing uses is freed without the collector."""

    def __init__(self) -> None:
        self._table: weakref.WeakValueDictionary[tuple, Term] = weakref.WeakValueDictionary()
        self._lock = threading.Lock()

    def make(self, kind: str, args: tuple[Term, ...] = (), name: str | None = None) -> Term:
        if kind not in _ARITY:
            raise InputError(f"unknown term kind {kind!r}")
        if len(args) != _ARITY[kind]:
            raise InputError(f"{kind} takes {_ARITY[kind]} children, got {len(args)}")
        if (kind == VAR) != (name is not None):
            raise InputError("name is given exactly for variable nodes")
        for a in args:
            if a.store is not self:
                raise InputError("child term belongs to a different store")
        key = (kind, name, args)
        with self._lock:
            hit = self._table.get(key)
            if hit is not None:
                return hit
            term = Term(kind, name, args, self)
            self._table[key] = term
            return term

    def var(self, name: str) -> Term:
        return self.make(VAR, name=check_name(name))

    def top(self) -> Term:
        return self.make(TOP)

    def bot(self) -> Term:
        return self.make(BOT)

    def not_(self, t: Term) -> Term:
        return self.make(NOT, (t,))

    def and_(self, a: Term, b: Term) -> Term:
        return self.make(AND, (a, b))

    def or_(self, a: Term, b: Term) -> Term:
        return self.make(OR, (a, b))

    def imp(self, a: Term, b: Term) -> Term:
        return self.make(IMP, (a, b))

    def box(self, t: Term) -> Term:
        return self.make(BOX, (t,))

    def dia(self, t: Term) -> Term:
        return self.make(DIA, (t,))


def check_name(name: object) -> str:
    """The name, if it is a variable name: a str matching VAR_NAME."""
    if not (isinstance(name, str) and VAR_NAME.fullmatch(name)):
        raise InputError(f"variable names match [a-z][a-z0-9_]*, got {name!r}")
    return name


def free_vars(term: Term) -> frozenset[str]:
    """Variable names occurring in the term (cached per node)."""
    if term._free is None:
        for node in walk(term):
            if node._free is None:
                node._free = (frozenset((node.name,)) if node.kind == VAR
                              else frozenset().union(*(a._free for a in node.args)))
    return term._free


def walk(term: Term) -> Iterator[Term]:
    """Each distinct DAG node exactly once, children before parents."""
    seen: set[Term] = set()
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node in seen:
            continue
        if expanded or not node.args:
            seen.add(node)
            yield node
        else:
            stack.append((node, True))
            for a in node.args:
                if a not in seen:
                    stack.append((a, False))


def node_count(term: Term) -> int:
    """Number of distinct DAG nodes reachable from the term."""
    return sum(1 for _ in walk(term))


def tree_size(term: Term) -> int:
    """Size of the term expanded to a tree, i.e. with sharing printed out.
    Can be exponential in the DAG size, hence the display cap elsewhere."""
    if term._tree is None:
        for node in walk(term):
            if node._tree is None:
                node._tree = 1 + sum(a._tree for a in node.args)
    return term._tree


def substitute(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Replace variables by terms, simultaneously; results stay in term's store."""
    store = term.store
    for repl in mapping.values():
        if repl.store is not store:
            raise InputError("substitution mixes term stores")
    memo: dict[Term, Term] = {}
    for t in walk(term):
        if t.kind == VAR:
            out = mapping.get(t.name, t)
        else:
            new_args = tuple(memo[a] for a in t.args)
            out = t if all(n is o for n, o in zip(new_args, t.args)) \
                else store.make(t.kind, new_args, name=t.name)
        memo[t] = out
    return memo[term]


def iterate(term: Term, pivot: str, k: int) -> Term:
    """k-fold self-composition in the pivot: step 0 is the pivot variable
    itself, step k+1 substitutes step k for the pivot in the term. Shares
    structure through the store, so DAG growth per step is constant."""
    check_count(k, "iteration count")
    current = term.store.var(pivot)
    if pivot not in free_vars(term):
        warnings.warn(f"pivot {pivot!r} does not occur in the term; iteration is constant",
                      stacklevel=2)
    for _ in range(k):
        current = substitute(term, {pivot: current})
    return current


@dataclass(frozen=True)
class Statement:
    """An equation lhs = rhs or an inequation lhs <= rhs between terms.
    lhs <= rhs is semantically the equation (lhs or rhs) = rhs."""

    kind: str
    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if self.kind not in (EQ, LEQ):
            raise InputError(f"statement kind must be {EQ!r} or {LEQ!r}, got {self.kind!r}")

    def __repr__(self) -> str:
        from .syntax import format_statement

        try:
            text = format_statement(self, max_nodes=400)
        except InputError:
            text = (f"<{node_count(self.lhs)} and {node_count(self.rhs)} DAG nodes, "
                    "display cap exceeded>")
        return f"Statement({text})"


def eq(lhs: Term, rhs: Term) -> Statement:
    return Statement(EQ, lhs, rhs)


def leq(lhs: Term, rhs: Term) -> Statement:
    return Statement(LEQ, lhs, rhs)


def statement_vars(stmt: Statement) -> frozenset[str]:
    return free_vars(stmt.lhs) | free_vars(stmt.rhs)


def chain_term(store: TermStore) -> Term:
    """The guarded chain step box(y or box(z or x)) or x in variables x, y, z.
    Increasing and monotone in x; iterating it probes how far information
    propagates down a frame two steps at a time."""
    x = store.var("x")
    return store.or_(s_step(x), x)


def diamond_term(store: TermStore) -> Term:
    """The reachability step dia(x) or x."""
    x = store.var("x")
    return store.or_(store.dia(x), x)


def s_term(m: int, store: TermStore) -> Term:
    """The pivot-free approximant: step 0 is bottom, step m+1 wraps step m in
    box(y or box(z or .)). Lies below the m-th iterate of the chain step."""
    check_count(m, "approximant index")
    out = store.bot()
    for _ in range(m):
        out = s_step(out)
    return out


def s_step(prev: Term) -> Term:
    """The next approximant after prev: box(y or box(z or prev))."""
    s = prev.store
    return s.box(s.or_(s.var("y"), s.box(s.or_(s.var("z"), prev))))


def boxdot_power(n: int, store: TermStore) -> Term:
    """n applications of the reflexive box u -> u and box(u) to the variable x."""
    check_count(n, "power")
    out = store.var("x")
    for _ in range(n):
        out = store.and_(out, store.box(out))
    return out
