"""Independent checkers for every answer the benchmark collects.

Nothing here imports modalbench. Frames are chains described by their size
and their set of self-loops, world sets are plain Python sets, and the
semantics of the terms is written out directly: the chain step
t(x) = [](y | [](z | x)) | x, its iterates tpow(k), the approximants spow(m)
and the reachability step <>x | x. Where the answer is a verdict over every
valuation, it is decided by a dynamic program over bad paths (below), a
different algorithm from the library's exhaustive scan.

Bad paths. On a frame, w fails tpow(k) under (X, Y, Z) exactly when there is
a path a0 R a1 R ... R a(2k) from w whose even positions avoid X, whose odd
positions avoid Y and whose even positions from 2 on avoid Z (induction on
k: w is outside t(A) iff w is outside A and some a1 outside Y sees some a2
outside Z and A). On a chain a path never moves down and stays put only at a
self-loop, so the longest bad path from each world follows from two numbers
about the worlds above it. Scanning the worlds top down and keeping the set
of reachable (numbers, flag) states decides whether any valuation produces
a given pattern of path lengths, in time linear in the chain.

Every check returns None when the answer is right and a message otherwise.
"""

from __future__ import annotations

import math

INF = math.inf
NONE = -1  # no bad path of this kind from this world

# How many lower flat indices a countermodel check re-evaluates naively to
# confirm that the reported countermodel is the lowest one.
LOWEST_INDEX_LIMIT = 2048


# ----------------------------------------------------------------- semantics

def chain_succ(size: int, loops: frozenset[int] | set[int]) -> list[set[int]]:
    """Successor sets of the chain: i sees every j > i, plus i itself on a loop."""
    return [set(range(w + 1, size)) | ({w} if w in loops else set())
            for w in range(size)]


def box(succ: list[set[int]], inner: set[int]) -> set[int]:
    return {w for w, seen in enumerate(succ) if seen <= inner}


def dia(succ: list[set[int]], inner: set[int]) -> set[int]:
    return {w for w, seen in enumerate(succ) if seen & inner}


def chain_step(succ, x: set[int], y: set[int], z: set[int]) -> set[int]:
    return box(succ, y | box(succ, z | x)) | x


def tpow(succ, k: int, x: set[int], y: set[int], z: set[int]) -> set[int]:
    """The k-th iterate of the chain step, evaluated as k steps of its map."""
    for _ in range(k):
        nxt = chain_step(succ, x, y, z)
        if nxt == x:
            break  # the map is increasing, so a fixed point stays fixed
        x = nxt
    return x


def spow(succ, m: int, y: set[int], z: set[int]) -> set[int]:
    out: set[int] = set()
    for _ in range(m):
        out = box(succ, y | box(succ, z | out))
    return out


def bits_to_set(bits: int) -> set[int]:
    return {w for w in range(bits.bit_length()) if bits >> w & 1}


def set_to_bits(worlds) -> int:
    return sum(1 << w for w in set(worlds))


def decode_flat(index: int, names: list[str], worlds: int) -> dict[str, int]:
    """Bitsets spelled by a flat index, first name most significant."""
    size = 1 << worlds
    out = {}
    for name in reversed(names):
        index, out[name] = divmod(index, size)
    return out


def alternating(n: int) -> tuple[set[int], set[int], set[int]]:
    """x and z on the odd worlds of the (2n+1)-chain, y on the even ones."""
    odd = set(range(1, 2 * n + 1, 2))
    return odd, set(range(0, 2 * n + 1, 2)), set(odd)


# ------------------------------------------------------------ path lengths

def _world_lengths(above_even, above_odd, start_ok, odd_ok, even_ok, loop):
    """Longest bad-path continuations at one world, given the best ones
    strictly above it: (from an even position >= 2, from an odd position,
    from position 0). NONE where the world cannot stand there."""
    if loop and odd_ok and even_ok:
        even = odd = INF  # the path can stay at this world forever
    else:
        odd = 1 + above_even if odd_ok and above_even != NONE else NONE
        even = (1 + above_odd if above_odd != NONE else 0) if even_ok else NONE
    if not start_ok:
        return even, odd, NONE
    nxt = max(above_odd, odd if loop else NONE)
    return even, odd, (1 + nxt if nxt != NONE else 0)


def _reachable(size: int, loops, letters: int, roles, visit) -> bool:
    """Scan the chain top down over every valuation of `letters` variables
    per world. roles(bits) gives (start_ok, odd_ok, even_ok) for a world's
    membership bits; visit(found, bits, start_len) returns the new `found`
    flag, or None to prune the valuation. True when some full valuation ends
    with `found` set."""
    states = {(NONE, NONE, False)}
    for w in range(size - 1, -1, -1):
        loop = w in loops
        nxt = set()
        for above_even, above_odd, found in states:
            for bits in range(1 << letters):
                even, odd, start = _world_lengths(above_even, above_odd,
                                                  *roles(bits), loop)
                now = visit(found, bits, start)
                if now is not None:
                    nxt.add((max(above_even, even), max(above_odd, odd), now))
        states = nxt
    return any(found for _, _, found in states)


def tpow_step_refutable(size: int, loops, n: int) -> bool:
    """Whether tpow(n) = tpow(n+1) has a countermodel on the chain: some
    world with a longest bad path of exactly 2n. Bits per world: x, y, z."""
    def roles(bits):
        x, y, z = bits & 1, bits >> 1 & 1, bits >> 2 & 1
        return not x, not y, not x and not z

    def visit(found, bits, start):
        return found or start == 2 * n

    return _reachable(size, loops, 3, roles, visit)


def perturbed_refutable(size: int, loops, k: int) -> bool:
    """Whether pi_k |= pi_(k+1) has a countermodel on the chain, where
    pi_k is tpow(k) seeded at y, with y1 and z1 for the step's y and z, below
    z. pi_k holds iff every world outside Z has a bad path of length 2k;
    pi_(k+1) then fails where such a world has none of length 2k+2.
    Bits per world: y, z, y1, z1."""
    def roles(bits):
        y, y1, z1 = bits & 1, bits >> 2 & 1, bits >> 3 & 1
        return not y, not y1, not y and not z1

    def visit(found, bits, start):
        if bits >> 1 & 1:  # world in Z: neither statement constrains it
            return found
        if start < 2 * k:  # premise fails here
            return None
        return found or start == 2 * k

    return _reachable(size, loops, 4, roles, visit)


# ------------------------------------------------------------------ checks

def check_certificate(n: int, loops, fields: dict) -> str | None:
    """The non-stabilization certificate asked for with n and these loops:
    every piece recomputed from the alternating valuation on the chain, and
    the certificate must be valid."""
    loops = set(loops)
    size = 2 * n + 1
    succ = chain_succ(size, loops)
    x, y, z = alternating(n)
    asked = (n, size, sorted(loops))
    got = (fields["n"], fields["worlds"], sorted(fields["reflexive_points"]))
    if got != asked:
        return f"certificate for (n, worlds, loops) {got}, asked for {asked}"
    if {k: set(v) for k, v in fields["valuation"].items()} != {"x": x, "y": y, "z": z}:
        return "certificate valuation is not the alternating one"
    orbit = [x]
    for _ in range(n + 1):
        orbit.append(chain_step(succ, orbit[-1], y, z))
    every = set(range(size))
    want_claims = {level: sorted(w for w in range(0, size, 2) if w not in orbit[level])
                   for level in range(n + 1)}
    want_s = {m: spow(succ, m, y, z) == every for m in range(n + 3)}
    expected = {"fails_at_zero": 0 not in orbit[n], "global_next": orbit[n + 1] == every,
                "s_global": want_s, "claim_table": want_claims, "valid": True}
    got = {"fails_at_zero": fields["fails_at_zero"], "global_next": fields["global_next"],
           "s_global": {int(m): g for m, g in fields["s_global"].items()},
           "claim_table": {int(k): sorted(v) for k, v in fields["claim_table"].items()},
           "valid": fields["valid"]}
    for key, want in expected.items():
        if got[key] != want:
            return f"certificate n={n} loops={sorted(loops)}: {key} is {got[key]}, expected {want}"
    if not (expected["fails_at_zero"] and expected["global_next"]):
        return f"chain n={n} loops={sorted(loops)} is not a witness"
    return None


def check_fixpoint(size: int, base: int, index: int, fixpoint: int, orbit) -> str | None:
    """<>x | x on a chain from base B: the fixpoint is {w <= max B} (empty
    for an empty base), reached at index 0 when B already is that set and at
    index 1 otherwise."""
    want = (1 << base.bit_length()) - 1
    want_orbit = (base,) if base == want else (base, want)
    got = (index, fixpoint, tuple(orbit))
    if got != (len(want_orbit) - 1, want, want_orbit):
        return f"fixpoint on {size} worlds from {base:#x}: got {got}, expected {want_orbit}"
    return None


def check_tpow_value(n: int, k: int, bits: int) -> str | None:
    """tpow(k) under the alternating valuation on the irreflexive
    (2n+1)-chain: the naive value, global for k >= n+1, and missing world 0
    for k <= n."""
    size = 2 * n + 1
    x, y, z = alternating(n)
    want = tpow(chain_succ(size, set()), k, x, y, z)
    if bits_to_set(bits) != want:
        return f"tpow({k}) on the {size}-chain: got {sorted(bits_to_set(bits))}, expected {sorted(want)}"
    if (k >= n + 1) != (want == set(range(size))) or (k <= n) != (0 not in want):
        return f"tpow({k}) on the {size}-chain breaks the lemma pattern"
    return None


def statement_fails(succ, stmt: tuple, x, y, z) -> set[int]:
    """Worlds where ("step", n) or ("below", m) fails under (x, y, z)."""
    kind, a = stmt
    if kind == "step":  # tpow(a) = tpow(a+1)
        return tpow(succ, a, x, y, z) ^ tpow(succ, a + 1, x, y, z)
    return spow(succ, a, y, z) - tpow(succ, a, x, y, z)  # spow(a) <= tpow(a)


def check_validity_answer(size: int, loops, stmt: tuple, verdict: str,
                          valuation: dict[str, int] | None, tried: int,
                          exhaustive: bool, expect_refuted: dict) -> str | None:
    """A check_validity answer over variables x, y, z for stmt, which is
    ("step", n) for tpow(n) = tpow(n+1) or ("below", m) for spow(m) <= tpow(m).

    The verdict must match the path-length decision (spow(m) <= tpow(m) is
    valid on every frame); a countermodel must fail the statement, spell the
    reported index, and be the lowest where the lower indices are affordable.
    expect_refuted caches decisions by (size, loops, stmt)."""
    loops = frozenset(loops)
    kind, a = stmt
    total = 1 << (3 * size)
    key = (size, loops, stmt)
    if key not in expect_refuted:
        expect_refuted[key] = kind == "step" and tpow_step_refutable(size, loops, a)
    refuted = expect_refuted[key]
    if kind == "step" and a <= (size - 1) // 2 and not refuted:
        return f"tpow({a}) = tpow({a + 1}) must be refuted on a {size}-chain"
    if not exhaustive:
        return "exhaustive check reported as sampled"
    if not refuted:
        if (verdict, valuation, tried) != ("valid", None, total):
            return f"{stmt} on {size} worlds, loops {sorted(loops)}: got {verdict} after {tried}, expected valid after {total}"
        return None
    if verdict != "countermodel" or valuation is None:
        return f"{stmt} on {size} worlds, loops {sorted(loops)}: got {verdict}, expected a countermodel"
    succ = chain_succ(size, loops)
    index = tried - 1
    if decode_flat(index, ["x", "y", "z"], size) != valuation:
        return f"countermodel {valuation} does not spell index {index}"
    if not statement_fails(succ, stmt, *(bits_to_set(valuation[v]) for v in "xyz")):
        return f"reported countermodel {valuation} satisfies {stmt}"
    if index < LOWEST_INDEX_LIMIT:
        for lower in range(index):
            val = decode_flat(lower, ["x", "y", "z"], size)
            if statement_fails(succ, stmt, *(bits_to_set(val[v]) for v in "xyz")):
                return f"{stmt}: index {lower} is a countermodel below the reported {index}"
    return None


CONSEQUENCE_VARS = ["y", "y1", "z", "z1"]
SIGMA_VARS = ["x", "y", "y1", "z", "z1"]


def pi_fails(succ, k, val) -> set[int]:
    """Worlds where pi_k fails under a valuation of y, y1, z, z1."""
    y, y1, z, z1 = (bits_to_set(val[v]) for v in CONSEQUENCE_VARS)
    return tpow(succ, k, y, y1, z1) - z


def check_consequence_answer(size: int, loops, kind: str, k: int, holds: bool,
                             frame_index, valuation: dict[str, int] | None,
                             failure_world, assignments: int,
                             expect_refuted: dict) -> str | None:
    """A one-frame consequence answer for criterion 6. Bounded problems
    (sigma |= pi_k) and weakened ones (pi_(k+1) |= pi_k) hold on every frame;
    the perturbed one (pi_k |= pi_(k+1)) is decided by path lengths, and its
    countermodels are re-verified, with the lowest index confirmed where the
    lower indices are affordable."""
    loops = frozenset(loops)
    names = SIGMA_VARS if kind == "bounded" else CONSEQUENCE_VARS
    total = 1 << (len(names) * size)
    refuted = False
    if kind == "perturbed":
        key = (size, loops, k)
        if key not in expect_refuted:
            expect_refuted[key] = perturbed_refutable(size, loops, k)
        refuted = expect_refuted[key]
    label = f"{kind} k={k} on {size} worlds, loops {sorted(loops)}"
    if not refuted:
        if (holds, frame_index, valuation, assignments) != (True, None, None, total):
            return f"{label}: got holds={holds} after {assignments}, expected to hold over {total}"
        return None
    if holds or frame_index != 0 or valuation is None:
        return f"{label}: got holds={holds}, expected a countermodel on frame 0"
    succ = chain_succ(size, loops)
    index = assignments - 1
    if decode_flat(index, names, size) != valuation:
        return f"{label}: countermodel {valuation} does not spell index {index}"
    if pi_fails(succ, k, valuation):
        return f"{label}: premise fails under the reported countermodel"
    bad = pi_fails(succ, k + 1, valuation)
    if not bad or failure_world != min(bad):
        return f"{label}: conclusion fails at {sorted(bad)}, reported {failure_world}"
    if index < LOWEST_INDEX_LIMIT:
        for lower in range(index):
            val = decode_flat(lower, names, size)
            if not pi_fails(succ, k, val) and pi_fails(succ, k + 1, val):
                return f"{label}: index {lower} is a countermodel below the reported {index}"
    return None


# ------------------------------------------------------ formulas for `eval`

def render(ast) -> str:
    """Concrete syntax for a formula tree, fully parenthesized."""
    head = ast[0]
    if head in ("var", "const"):
        return ast[1]
    if head in ("~", "[]", "<>"):
        return head + render(ast[1])
    return f"({render(ast[1])} {head} {render(ast[2])})"


def naive_eval(succ, sets: dict[str, set[int]], ast) -> set[int]:
    every = set(range(len(succ)))
    head = ast[0]
    if head == "var":
        return set(sets.get(ast[1], set()))
    if head == "const":
        return set(every) if ast[1] == "T" else set()
    if head == "~":
        return every - naive_eval(succ, sets, ast[1])
    if head == "[]":
        return box(succ, naive_eval(succ, sets, ast[1]))
    if head == "<>":
        return dia(succ, naive_eval(succ, sets, ast[1]))
    lhs, rhs = naive_eval(succ, sets, ast[1]), naive_eval(succ, sets, ast[2])
    if head == "&":
        return lhs & rhs
    if head == "|":
        return lhs | rhs
    return (every - lhs) | rhs  # "->"


def check_eval_answer(size: int, loops, sets: dict[str, set[int]], ast,
                      code: int, payload: dict) -> str | None:
    """`modalbench eval --json`: the worlds where the formula holds, whether
    that is every world, and exit 0 exactly when it is."""
    want = naive_eval(chain_succ(size, set(loops)), sets, ast)
    globally = want == set(range(size))
    got = (code, sorted(payload.get("worlds", [])), payload.get("holds_globally"))
    if got != (0 if globally else 1, sorted(want), globally):
        return f"eval {render(ast)} on {size} worlds: got {got}, expected {sorted(want)}"
    return None
