"""Parser and printer: grammar shape, error reporting, and the round-trip
contract that parsing printed output rebuilds the identical interned term.
"""

import random

import pytest
from hypothesis import given

from modalbench.errors import InputError
from modalbench.syntax import (_NESTING_CAP, DISPLAY_NODE_CAP, ParseError,
                               format_statement, format_term, parse_formula,
                               parse_statement, tokenize)
from modalbench.terms import (EQ, LEQ, TermStore, chain_term, diamond_term,
                              iterate, node_count, s_term, tree_size)

from strategies import build_term, term_plans


class TestParsing:
    def test_chain_step_parses_to_the_interned_family_term(self, store):
        assert parse_formula("[](y | [](z | x)) | x", store) is chain_term(store)

    def test_diamond_step(self, store):
        assert parse_formula("<>x | x", store) is diamond_term(store)

    def test_implication_is_right_associative(self, store):
        x, y, z = store.var("x"), store.var("y"), store.var("z")
        assert parse_formula("x -> y -> z", store) is store.imp(x, store.imp(y, z))
        assert parse_formula("(x -> y) -> z", store) is store.imp(store.imp(x, y), z)

    def test_and_binds_tighter_than_or(self, store):
        x, y, z = store.var("x"), store.var("y"), store.var("z")
        assert parse_formula("x & y | z", store) is store.or_(store.and_(x, y), z)
        assert parse_formula("x | y & z", store) is store.or_(x, store.and_(y, z))

    def test_prefix_operators_stack_and_bind_tightest(self, store):
        x = store.var("x")
        assert parse_formula("~[]x", store) is store.not_(store.box(x))
        assert parse_formula("[]<>~x", store) is store.box(store.dia(store.not_(x)))
        assert parse_formula("~x | x", store) is store.or_(store.not_(x), x)

    def test_binary_operators_fold_left(self, store):
        x, y, z = store.var("x"), store.var("y"), store.var("z")
        assert parse_formula("x | y | z", store) is store.or_(store.or_(x, y), z)
        assert parse_formula("x & y & z", store) is store.and_(store.and_(x, y), z)

    def test_constants_parens_and_identifiers(self, store):
        assert parse_formula("T", store) is store.top()
        assert parse_formula("F", store) is store.bot()
        assert parse_formula("((x))", store) is store.var("x")
        assert parse_formula("ab_1", store) is store.var("ab_1")
        # only the exact names are macros
        assert parse_formula("tpowx", store) is store.var("tpowx")

    def test_power_macros_expand(self, store):
        for k in [*range(13), 100, 200]:
            assert parse_formula(f"tpow({k})", store) is iterate(chain_term(store), "x", k)
            assert parse_formula(f"spow({k})", store) is s_term(k, store)
        assert parse_formula("tpow(0)", store) is store.var("x")
        assert parse_formula("spow(0)", store) is store.bot()

    def test_macro_power_cap(self, store):
        parse_formula("tpow(200)", store)  # at the cap, fine as a DAG
        with pytest.raises(ParseError, match="exceeds the cap 200"):
            parse_formula("tpow(201)", store)

    def test_macro_arguments_count_significant_digits(self, store):
        assert parse_formula("tpow(0200)", store) is parse_formula("tpow(200)", store)
        # leading zeros past int()'s digit limit are still insignificant
        assert parse_formula("spow(" + "0" * 5000 + "2)", store) is s_term(2, store)
        with pytest.raises(ParseError, match="macro power 1000 exceeds the cap 200"):
            parse_formula("tpow(0001000)", store)

    def test_macro_arguments_are_decimal_digits_of_any_script(self, store):
        assert parse_formula("tpow(٣)", store) is parse_formula("tpow(3)", store)

    def test_statements(self, store):
        stmt = parse_statement("x <= []y", store)
        assert stmt.kind == LEQ
        assert stmt.lhs is store.var("x")
        assert stmt.rhs is store.box(store.var("y"))
        assert parse_statement("x = y", store).kind == EQ

    def test_token_positions_track_lines(self):
        kinds = [(t.kind, t.line, t.col) for t in tokenize("x |\n []y")]
        assert kinds == [("ident", 1, 1), ("|", 1, 3), ("[]", 2, 2),
                         ("ident", 2, 4), ("eof", 2, 5)]

    def test_only_newline_starts_a_line(self):
        # tab, carriage return, U+2028 and U+001C are whitespace of one column
        kinds = [(t.kind, t.line, t.col) for t in tokenize("x\t|\r\n y\u2028&\x1cz")]
        assert kinds == [("ident", 1, 1), ("|", 1, 3), ("ident", 2, 2),
                         ("&", 2, 4), ("ident", 2, 6), ("eof", 2, 7)]


class TestErrors:
    def test_missing_operand_reports_position_and_expectations(self, store):
        with pytest.raises(ParseError) as info:
            parse_formula("x |", store)
        err = info.value
        assert (err.line, err.col) == (1, 4)
        assert err.expected == ("variable", "T", "F", "~", "[]", "<>", "(",
                                "tpow", "spow")
        assert "end of input" in str(err)

    def test_formula_where_statement_expected(self, store):
        with pytest.raises(ParseError) as info:
            parse_statement("x", store)
        assert info.value.expected == ("=", "<=")
        assert (info.value.line, info.value.col) == (1, 2)

    def test_unclosed_paren(self, store):
        with pytest.raises(ParseError) as info:
            parse_formula("(x", store)
        assert info.value.expected == (")",)
        assert info.value.col == 3

    def test_unexpected_character(self, store):
        with pytest.raises(ParseError) as info:
            parse_formula("x @ y", store)
        assert "unexpected character '@'" in str(info.value)
        assert (info.value.line, info.value.col) == (1, 3)
        assert info.value.expected == ()

    def test_uppercase_is_not_an_identifier(self, store):
        with pytest.raises(ParseError, match="unexpected character 'X'"):
            parse_formula("X", store)

    def test_bare_less_than_is_rejected(self, store):
        with pytest.raises(ParseError, match="unexpected character '<'"):
            parse_statement("x < y", store)

    def test_chained_comparison_is_rejected(self, store):
        with pytest.raises(ParseError) as info:
            parse_statement("x = y = z", store)
        assert info.value.col == 7
        assert info.value.expected == ("&", "|", "->", "end of input")

    def test_trailing_garbage_after_formula(self, store):
        with pytest.raises(ParseError) as info:
            parse_formula("x y", store)
        assert info.value.expected == ("&", "|", "->", "end of input")

    def test_errors_report_across_lines(self, store):
        with pytest.raises(ParseError) as info:
            parse_formula("x |\n  @", store)
        assert (info.value.line, info.value.col) == (2, 3)

    def test_non_decimal_digit_is_refused_where_it_stands(self, store):
        with pytest.raises(ParseError, match="unexpected character '²'") as info:
            parse_formula("tpow(²)", store)
        assert (info.value.line, info.value.col) == (1, 6)

    def test_parse_errors_are_input_errors(self, store):
        with pytest.raises(InputError):
            parse_formula("", store)


class TestPrinting:
    def test_frozen_renderings(self, store):
        x, y, z = store.var("x"), store.var("y"), store.var("z")
        assert format_term(chain_term(store)) == "[](y | [](z | x)) | x"
        assert format_term(store.imp(x, store.imp(y, z))) == "x -> y -> z"
        assert format_term(store.imp(store.imp(x, y), z)) == "(x -> y) -> z"
        assert format_term(store.and_(store.or_(x, y), z)) == "(x | y) & z"
        assert format_term(store.not_(store.box(x))) == "~[]x"
        assert format_term(store.box(store.or_(x, y))) == "[](x | y)"
        assert format_term(store.not_(store.not_(x))) == "~~x"

    def test_statement_rendering(self, store):
        from modalbench.terms import leq
        assert format_statement(leq(store.var("x"), store.var("y"))) == "x <= y"

    def test_display_cap_refuses_wide_expansions(self, store):
        big = iterate(chain_term(store), "x", 11)
        assert tree_size(big) == 8 * 2 ** 11 - 7
        with pytest.raises(InputError, match="16377 nodes"):
            format_term(big)
        # one step below the cap still prints, and prints faithfully
        ok = iterate(chain_term(store), "x", 10)
        assert parse_formula(format_term(ok), store) is ok

    def test_repr_falls_back_past_the_cap(self, store):
        assert repr(store.var("x")) == "Term(x)"
        big = iterate(chain_term(store), "x", 6)
        assert repr(big) == f"Term(<{node_count(big)} DAG nodes, display cap exceeded>)"
        # long but printable reprs are truncated, not refused
        mid = repr(iterate(chain_term(store), "x", 4))
        assert mid.endswith("...)") and len(mid) <= len("Term()") + 120


class TestRoundTrip:
    @given(plan=term_plans())
    def test_parse_inverts_format(self, plan):
        store = TermStore()
        t = build_term(plan, store)
        assert parse_formula(format_term(t), store) is t

    def test_seeded_volume_round_trip(self, store):
        rng = random.Random(20260823)
        names = ("x", "y", "z", "w1")
        leaves = [store.top(), store.bot()] + [store.var(n) for n in names]

        def grow(depth):
            if depth == 0 or rng.random() < 0.25:
                return rng.choice(leaves)
            op = rng.randrange(6)
            if op == 0:
                return store.not_(grow(depth - 1))
            if op == 1:
                return store.box(grow(depth - 1))
            if op == 2:
                return store.dia(grow(depth - 1))
            pick = (store.and_, store.or_, store.imp)[op - 3]
            return pick(grow(depth - 1), grow(depth - 1))

        for _ in range(1000):
            t = grow(6)
            if tree_size(t) > DISPLAY_NODE_CAP:
                continue
            assert parse_formula(format_term(t), store) is t

    def test_statement_round_trip(self, store):
        from modalbench.terms import eq
        stmt = eq(store.box(store.var("x")), diamond_term(store))
        again = parse_statement(format_statement(stmt), store)
        assert again.kind == stmt.kind
        assert again.lhs is stmt.lhs and again.rhs is stmt.rhs


class TestDepth:
    def test_long_prefix_runs_parse_without_recursion(self, store):
        t = parse_formula("~[]<>" * 400 + "x", store)
        assert node_count(t) == 1201
        assert t.kind == "not" and t.args[0].kind == "box"

    def test_long_implication_chain_folds_to_the_right(self, store):
        x = store.var("x")
        t = parse_formula(" -> ".join(["x"] * 1000), store)
        assert node_count(t) == 1000
        assert t is store.imp(x, t.args[1]) and t.args[1].args[0] is x

    def test_deep_prefix_chain_round_trips(self, store):
        t = store.var("x")
        for _ in range(1000):
            t = store.not_(t)
        assert parse_formula(format_term(t), store) is t

    def test_nesting_cap(self, store):
        deep = "(" * _NESTING_CAP + "x" + ")" * _NESTING_CAP
        assert parse_formula(deep, store) is store.var("x")
        with pytest.raises(ParseError) as info:
            parse_formula("(" + deep + ")", store)
        assert (info.value.line, info.value.col) == (1, _NESTING_CAP + 1)
