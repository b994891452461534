"""Term store interning, substitution, iteration, and the named families."""

import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from modalbench.errors import InputError
from modalbench.syntax import parse_formula
from modalbench.terms import (Statement, TermStore, boxdot_power, chain_term,
                              diamond_term, eq, free_vars, iterate,
                              leq, node_count, s_term,
                              statement_vars, substitute, tree_size, walk)

from strategies import build_term, term_plans


def test_interning_gives_identity(store):
    a = store.or_(store.var("x"), store.box(store.var("y")))
    b = store.or_(store.var("x"), store.box(store.var("y")))
    assert a is b
    assert store.var("x") is not store.var("y")


def test_stores_do_not_share_nodes():
    s1, s2 = TermStore(), TermStore()
    assert s1.var("x") is not s2.var("x")
    with pytest.raises(InputError):
        s1.or_(s1.var("x"), s2.var("x"))


def test_variable_name_validation(store):
    for bad in ("X", "1a", "", "a-b", "aB", 1, None):
        with pytest.raises(InputError):
            store.var(bad)
    assert store.var("a_1").name == "a_1"


def test_make_rejects_bad_shapes(store):
    with pytest.raises(InputError):
        store.make("nand", (store.top(), store.top()))
    with pytest.raises(InputError):
        store.make("not", ())
    with pytest.raises(InputError):
        store.make("top", name="x")


def test_free_vars_and_tuple(store):
    t = chain_term(store)
    assert free_vars(t) == {"x", "y", "z"}
    assert free_vars(store.top()) == frozenset()


def test_walk_visits_each_dag_node_once(store):
    x = store.var("x")
    shared = store.box(x)
    t = store.and_(shared, store.or_(shared, x))
    nodes = list(walk(t))
    assert len(nodes) == len(set(nodes)) == node_count(t) == 4
    # children come before parents
    seen = set()
    for n in nodes:
        assert all(a in seen for a in n.args)
        seen.add(n)


def test_substitute_simultaneous_and_sharing(store):
    x, y = store.var("x"), store.var("y")
    t = store.imp(x, y)
    swapped = substitute(t, {"x": y, "y": x})
    assert swapped is store.imp(y, x)
    # untouched terms come back as the same object
    assert substitute(t, {"q": x}) is t


def test_iterate_base_cases(store):
    t = chain_term(store)
    assert iterate(t, "x", 0) is store.var("x")
    assert iterate(t, "x", 1) is t


def test_iterate_matches_repeated_substitution(store):
    t = chain_term(store)
    by_hand = store.var("x")
    for k in range(12):
        assert iterate(t, "x", k) is by_hand
        by_hand = substitute(t, {"x": by_hand})


def test_iterate_warns_on_missing_pivot(store):
    with pytest.warns(UserWarning, match="does not occur"):
        iterate(store.var("x"), "q", 2)


def test_chain_iterates_grow_linearly_as_dags(store):
    t = chain_term(store)
    counts = [node_count(iterate(t, "x", k)) for k in range(6)]
    assert counts[0] == 1 and counts[1] == 8
    assert all(b - a == 5 for a, b in zip(counts[1:], counts[2:]))


def test_tree_size_expands_sharing(store):
    t = chain_term(store)
    assert tree_size(t) == 9
    # the pivot occurs twice, so tree size doubles per step while the DAG
    # only gains five nodes
    assert tree_size(iterate(t, "x", 4)) == 8 * 2 ** 4 - 7
    assert node_count(iterate(t, "x", 4)) == 8 + 3 * 5


def test_named_family_shapes(store):
    x, y, z = store.var("x"), store.var("y"), store.var("z")
    assert chain_term(store) is store.or_(
        store.box(store.or_(y, store.box(store.or_(z, x)))), x)
    assert diamond_term(store) is store.or_(store.dia(x), x)
    assert s_term(0, store) is store.bot()
    assert s_term(2, store) is store.box(
        store.or_(y, store.box(store.or_(z, s_term(1, store)))))
    assert boxdot_power(0, store) is x
    b1 = boxdot_power(1, store)
    assert b1 is store.and_(x, store.box(x))
    assert boxdot_power(2, store) is store.and_(b1, store.box(b1))


def test_family_argument_validation(store):
    with pytest.raises(InputError):
        s_term(-1, store)
    with pytest.raises(InputError):
        boxdot_power(-2, store)
    with pytest.raises(InputError):
        iterate(chain_term(store), "x", -1)


# Each count is read through errors.check_count. Before, a float raised a raw
# TypeError, a string "'<' not supported", and True was taken as 1.
BAD_COUNTS = [(2.5, "float"), ("3", "str"), (True, "bool")]


@pytest.mark.parametrize("bad, kind", BAD_COUNTS)
def test_iterate_refuses_a_count_that_is_no_int(store, bad, kind):
    with pytest.raises(InputError, match=f"^iteration count must be an int, not {kind}$"):
        iterate(chain_term(store), "x", bad)


@pytest.mark.parametrize("bad, kind", BAD_COUNTS)
def test_s_term_refuses_an_index_that_is_no_int(store, bad, kind):
    with pytest.raises(InputError, match=f"^approximant index must be an int, not {kind}$"):
        s_term(bad, store)


@pytest.mark.parametrize("bad, kind", BAD_COUNTS)
def test_boxdot_power_refuses_a_power_that_is_no_int(store, bad, kind):
    with pytest.raises(InputError, match=f"^power must be an int, not {kind}$"):
        boxdot_power(bad, store)


def test_a_store_nothing_uses_is_freed_without_the_collector():
    # the table held its terms and each term its store, a cycle that kept a
    # parsed tpow(k) until the cyclic collector ran
    gc.disable()
    try:
        t = parse_formula("tpow(20)", TermStore())
        store = weakref.ref(t.store)
        assert iterate(t, "x", 1).store is store()
        del t
        assert store() is None
    finally:
        gc.enable()


def test_statement_construction(store):
    x, y = store.var("x"), store.var("y")
    assert eq(x, y).kind == "eq"
    assert leq(x, y).kind == "leq"
    assert statement_vars(leq(chain_term(store), store.var("w"))) == {"x", "y", "z", "w"}
    with pytest.raises(InputError):
        Statement("lt", x, y)


@given(plan=term_plans())
def test_interning_is_stable_under_rebuilding(plan):
    store = TermStore()
    assert build_term(plan, store) is build_term(plan, store)


@given(plan=term_plans(), k=st.integers(0, 6))
def test_iterate_composes(plan, k):
    store = TermStore()
    t = store.or_(store.var("x"), build_term(plan, store))  # ensure pivot occurs
    assert iterate(t, "x", k + 1) is substitute(t, {"x": iterate(t, "x", k)})


def test_deep_terms_need_no_recursion(store):
    deep = iterate(chain_term(store), "x", 200)
    assert free_vars(iterate(chain_term(store), "x", 150)) == {"x", "y", "z"}
    assert tree_size(deep) == 2 ** 203 - 7  # the pivot occurs twice per step
    assert "display cap exceeded" in repr(deep)
    assert "display cap exceeded" in repr(eq(deep, store.var("x")))
    again = substitute(deep, {"y": store.var("w")})
    assert free_vars(again) == {"x", "w", "z"} and node_count(again) == node_count(deep)
