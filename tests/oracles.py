"""Reference implementations the tests compare the library against.

Everything here is deliberately naive: recursive, set-based, no caching, no
bitsets. Slow and obviously correct is the point; the fast paths must agree
with these on every input tried.
"""

from __future__ import annotations

from modalbench.kripke import Frame
from modalbench.terms import Statement, Term


def naive_eval(frame: Frame, sets: dict[str, set[int]], term: Term) -> set[int]:
    """Worlds where the term holds, computed by structural recursion on the
    term tree over plain Python sets."""
    every = set(range(frame.worlds))
    succ = [{v for v in every if frame.succ[w] >> v & 1} for w in range(frame.worlds)]

    def go(t: Term) -> set[int]:
        if t.kind == "var":
            return set(sets.get(t.name, set()))
        if t.kind == "top":
            return set(every)
        if t.kind == "bot":
            return set()
        if t.kind == "not":
            return every - go(t.args[0])
        if t.kind == "and":
            return go(t.args[0]) & go(t.args[1])
        if t.kind == "or":
            return go(t.args[0]) | go(t.args[1])
        if t.kind == "imp":
            return (every - go(t.args[0])) | go(t.args[1])
        if t.kind == "box":
            inner = go(t.args[0])
            return {w for w in every if succ[w] <= inner}
        if t.kind == "dia":
            inner = go(t.args[0])
            return {w for w in every if succ[w] & inner}
        raise AssertionError(t.kind)

    return go(term)


def naive_free_vars(term: Term, memo: dict[Term, set[str]]) -> set[str]:
    """Variable names occurring in the term, by structural recursion on its
    children. memo keeps each node's answer, since the tree of an iterate is
    exponential in its DAG; a deep term needs a raised recursion limit."""
    if term not in memo:
        memo[term] = ({term.name} if term.kind == "var" else
                      set().union(*(naive_free_vars(a, memo) for a in term.args)))
    return memo[term]


def naive_fails(frame: Frame, sets: dict[str, set[int]], stmt: Statement) -> set[int]:
    """Worlds where the statement fails."""
    lhs = naive_eval(frame, sets, stmt.lhs)
    rhs = naive_eval(frame, sets, stmt.rhs)
    if stmt.kind == "eq":
        return lhs ^ rhs
    return lhs - rhs


def assignments_in_order(names: list[str], worlds: int):
    """Every assignment of world bitsets to names, in the scan order the
    library promises: flat index spells the bitsets with the first name most
    significant."""
    size = 1 << worlds
    total = size ** len(names)
    for idx in range(total):
        rest, values = idx, []
        for _ in names:
            rest, v = divmod(rest, size)
            values.append(v)
        values.reverse()
        yield idx, dict(zip(names, values))


def naive_first_countermodel(frame: Frame, names: list[str],
                             premises: list[Statement], conclusion: Statement):
    """First (flat index, failure bitset) where all premises hold globally and
    the conclusion fails, or None; the definition the fast scans must match."""
    for idx, assignment in assignments_in_order(names, frame.worlds):
        sets = {n: {w for w in range(frame.worlds) if b >> w & 1}
                for n, b in assignment.items()}
        if any(naive_fails(frame, sets, p) for p in premises):
            continue
        bad = naive_fails(frame, sets, conclusion)
        if bad:
            return idx, sum(1 << w for w in bad)
    return None


def naive_fixpoint(frame: Frame, term: Term, pivot: str, base: int,
                   params: dict[str, int]):
    """The orbit of the term's map from base as a tuple of bitsets, or the
    refusal that fixpoint_index must give, as its text. The map's table
    comes from naive_eval at every pivot value; then the loops run in the
    order that fixes which refusal is named: increasing at each value, then
    monotone at each value and each added world, lowest first."""
    worlds = range(frame.worlds)

    def step(a: int) -> int:
        sets = {n: {w for w in worlds if b >> w & 1} for n, b in params.items()}
        sets[pivot] = {w for w in worlds if a >> w & 1}
        return sum(1 << w for w in naive_eval(frame, sets, term))

    table = [step(a) for a in range(1 << frame.worlds)]
    for a, image in enumerate(table):
        if a & ~image:
            return (f"term is not increasing in {pivot!r} on this frame: "
                    f"pivot bitset {a:#x} maps to {image:#x}")
    for a in range(1 << frame.worlds):
        for j in worlds:
            if not a >> j & 1 and table[a] & ~table[a | 1 << j]:
                return (f"term is not monotone in {pivot!r} on this frame: "
                        f"adding world {j} to {a:#x} loses output")
    orbit = [base]
    while table[orbit[-1]] != orbit[-1]:
        orbit.append(table[orbit[-1]])
    return tuple(orbit)
