"""Chain frames, the alternating valuation, and non-stabilization certificates."""

import pytest
from hypothesis import given, strategies as st

from modalbench import chains
from modalbench.chains import (ChainSpec, check_lemma,
                               enumerate_chains, falsifying_path_starts,
                               lemma_valuation, make_chain)
from modalbench.errors import CapExceededError, InputError
from modalbench.kripke import Model, Valuation, evaluate, worlds_to_bits
from modalbench.terms import TermStore, s_term


def test_make_chain_successors():
    assert make_chain(3).succ == (0b110, 0b100, 0b000)
    assert make_chain(3, (0, 2)).succ == (0b111, 0b100, 0b100)
    assert make_chain(0).succ == ()


def test_chain_spec_validation():
    with pytest.raises(InputError):
        ChainSpec(-1, frozenset())
    with pytest.raises(InputError):
        ChainSpec(2, frozenset({2}))
    with pytest.raises(InputError):
        make_chain(2, (5,))


def test_enumerate_chains_order_and_cap():
    chains = enumerate_chains(2)
    assert len(chains) == 4
    assert chains[0] == make_chain(2)
    assert chains[1] == make_chain(2, (0,))
    assert chains[3] == make_chain(2, (0, 1))
    assert len(enumerate_chains(3)) == 8
    with pytest.raises(CapExceededError):
        enumerate_chains(17)


def test_enumerate_chains_refuses_a_negative_size():
    with pytest.raises(InputError):
        enumerate_chains(-1)


def test_lemma_valuation_alternates():
    v = lemma_valuation(2)
    assert v.to_sets() == {"x": [1, 3], "y": [0, 2, 4], "z": [1, 3]}
    with pytest.raises(InputError):
        lemma_valuation(0)


def test_certificate_for_n_one_is_fully_pinned():
    cert = check_lemma(1)
    assert cert.valid
    assert cert.spec == ChainSpec(3, frozenset())
    assert cert.fails_at_zero and cert.global_next
    assert cert.claim_table == {0: (0, 2), 1: (0,)}
    assert cert.s_global == {0: False, 1: False, 2: True, 3: True}
    data = cert.to_json()
    assert data["valid"] and data["worlds"] == 3
    assert data["claim_table"] == {"0": [0, 2], "1": [0]}
    assert data["s_global"]["2"] is True


def test_certificates_hold_for_every_self_loop_choice():
    for n in (1, 2):
        size = 2 * n + 1
        for mask in range(1 << size):
            refl = [w for w in range(size) if mask >> w & 1]
            assert check_lemma(n, refl).valid, (n, refl)


def test_render_table_mentions_the_failing_iterates():
    text = check_lemma(2, (0, 4)).render_table()
    assert "chain size 5" in text
    assert "t^0 t^1 t^2" in text  # world 0 carries every failure
    assert text.count("r") >= 2   # the chosen loops show up


def test_zeroth_claim_row_is_where_x_misses_even_worlds():
    cert = check_lemma(3)
    evens = set(range(0, 7, 2))
    assert set(cert.claim_table[0]) == evens  # x holds only at odd worlds


def test_path_search_base_case():
    frame = make_chain(4)
    v = Valuation()
    assert falsifying_path_starts(frame, v, 0) == frame.mask


@given(data=st.data(), m=st.integers(1, 3))
def test_path_search_agrees_with_approximant_failure(data, m):
    size = data.draw(st.integers(1, 5))
    refl = data.draw(st.sets(st.integers(0, size - 1)))
    frame = make_chain(size, refl)
    valuation = Valuation({"y": data.draw(st.integers(0, frame.mask)),
                           "z": data.draw(st.integers(0, frame.mask))})
    model = Model(frame, valuation)
    fails = frame.mask ^ evaluate(model, s_term(m, TermStore()))
    assert falsifying_path_starts(frame, valuation, m) == fails


@pytest.mark.parametrize("bad, kind", [(1.5, "float"), ("3", "str"), (True, "bool")])
def test_path_starts_refuse_a_length_that_is_no_int(bad, kind):
    # a raw TypeError for 1.5 and "3", and True answered as 1, before
    frame, valuation = make_chain(3), lemma_valuation(1)
    with pytest.raises(InputError, match=f"^path length parameter must be an int, not {kind}$"):
        falsifying_path_starts(frame, valuation, bad)


def test_make_chain_respects_the_world_cap():
    assert make_chain(64).worlds == 64
    with pytest.raises(CapExceededError):
        make_chain(65)


def test_certificate_builds_each_approximant_once(monkeypatch):
    class CountingStore(TermStore):
        calls = 0

        def make(self, *args, **kwargs):
            CountingStore.calls += 1
            return super().make(*args, **kwargs)

    for n in (5, 10):
        CountingStore.calls = 0
        monkeypatch.setattr(chains, "_LEMMA_STORE", CountingStore())
        assert check_lemma(n).valid
        assert CountingStore.calls <= 8 * (n + 3)
        CountingStore.calls = 0
        assert check_lemma(n, [0]).valid and check_lemma(n).valid
        assert CountingStore.calls == 0  # built once per process, and kept


def test_the_lemma_store_is_bounded_by_the_world_cap(monkeypatch):
    # the chain step and s_0..s_33 of n = 31, the largest n whose chain
    # fits the world cap; a larger n is refused before any term is built
    store = TermStore()
    monkeypatch.setattr(chains, "_LEMMA_STORE", store)
    for _ in range(2):
        assert all(check_lemma(n).valid for n in range(1, 32))
        with pytest.raises(CapExceededError):
            check_lemma(32)
        assert len(store._table) == 141


@pytest.mark.parametrize("n, message", [
    (-1, "the construction needs n >= 1"),  # refused as a negative chain size before
    (0, "the construction needs n >= 1"),
    (True, "n must be an int, not bool"),  # certified the 3-chain with "n": true before
])
def test_lemma_refuses_a_bad_n_before_building_the_chain(n, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        check_lemma(n)
