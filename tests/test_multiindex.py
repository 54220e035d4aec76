"""Graded-lex enumeration and Leibniz splittings of multi-indices, and the
index check that every derivative route shares."""

import itertools
import math

import pytest

from hsprolong import (
    BaseElem,
    DerivationMode,
    DiffPoly,
    FieldDescriptor,
    apply_d,
    enumerate_multiindices,
    graded_lex_key,
    hasse_derive,
    index_add,
    index_leq,
    index_size,
    indices_below,
    splittings,
    taylor_oracle,
)


def brute_force_indices(n, m):
    # independent oracle: filter the full product cube
    out = [t for t in itertools.product(range(m + 1), repeat=n) if sum(t) <= m]
    return sorted(out, key=graded_lex_key)


def test_single_derivation_example():
    assert enumerate_multiindices(1, 3) == [(0,), (1,), (2,), (3,)]


def test_two_derivations_example():
    got = enumerate_multiindices(2, 2)
    assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(got) == 6


def test_count_matches_closed_form():
    assert len(enumerate_multiindices(3, 4)) == 35 == math.comb(7, 3)
    for n in range(1, 5):
        for m in range(7):
            got = enumerate_multiindices(n, m)
            assert got == brute_force_indices(n, m)
            assert len(got) == math.comb(n + m, n)


def test_order_is_graded():
    for n in (1, 2, 3):
        seq = enumerate_multiindices(n, 5)
        sizes = [index_size(a) for a in seq]
        assert sizes == sorted(sizes)
        assert len(set(seq)) == len(seq)


def test_partial_order_vs_size():
    assert index_leq((1, 0), (1, 2))
    assert not index_leq((2, 0), (1, 2))  # size smaller but not pointwise
    assert index_size((2, 0)) <= index_size((1, 2))


def test_splittings_cover_sum():
    for alpha in [(3,), (2, 1), (1, 1, 1)]:
        parts = splittings(alpha)
        count = 1
        for a in alpha:
            count *= a + 1
        assert len(parts) == count
        for beta, gamma in parts:
            assert index_add(beta, gamma) == alpha


def test_indices_below():
    below = indices_below((1, 2))
    assert len(below) == 6
    assert all(index_leq(b, (1, 2)) for b in below)


@pytest.mark.parametrize("alpha, message", [
    ((1,), "multi-index length 1 != derivation count 2"),
    ((2, -1), "multi-index entries must be naturals, got (2, -1)"),
], ids=["wrong-length", "negative-entry"])
def test_every_route_rejects_a_bad_index_alike(alpha, message):
    field = FieldDescriptor(0, ("s1", "s2"), 2)
    x0 = DiffPoly.variable(field, 0)
    calls = [lambda: hasse_derive(alpha, BaseElem.param(field, 0))]
    for mode in DerivationMode:
        calls += [lambda m=mode: apply_d(alpha, x0 * x0, m), lambda m=mode: taylor_oracle(alpha, x0 * x0, m)]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
