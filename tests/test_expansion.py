"""The all-orders routes against the single-index routes and the series oracles.

``derive_upto`` must agree with ``apply_d`` and ``taylor_oracle`` at every
multi-index up to its order, and ``hasse_table`` with ``hasse_derive`` and the
``twist_expand`` coefficients.  Inputs come from hypothesis strategies, so a
failure shrinks to a small polynomial.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hsprolong import (
    BaseElem,
    DerivationMode,
    DiffPoly,
    DiffSymbol,
    FieldDescriptor,
    ParamPoly,
    apply_d,
    enumerate_multiindices,
    hasse_derive,
    taylor_oracle,
    twist_expand,
)
from hsprolong.basefield import hasse_table
from hsprolong.diffpoly import derive_upto

FIELDS = {
    "Q(s)": FieldDescriptor(0, ("s",), 1),
    "Q(s1,s2)": FieldDescriptor(0, ("s1", "s2"), 2),
    "F5(s)": FieldDescriptor(5, ("s",), 1),
    "trivial Q(s)": FieldDescriptor(0, ("s",), 0),
}
# the largest order drawn per derivation count, to keep each example cheap
MAX_ORDER = {0: 3, 1: 4, 2: 3}


def scalars(field):
    if field.characteristic:
        return st.integers(0, field.characteristic - 1)
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def param_polys(field, max_deg, max_terms):
    exps = st.tuples(*[st.integers(0, max_deg)] * field.param_count)
    terms = st.lists(st.tuples(exps, scalars(field)), max_size=max_terms)

    def build(pairs):
        out = ParamPoly.zero(field)
        for e, c in pairs:
            out = out + ParamPoly.monomial(field, e, c)
        return out

    return terms.map(build)


def base_elems(field):
    def build(pair):
        num, den = pair
        return BaseElem(num, den) if den else BaseElem(num)

    return st.tuples(param_polys(field, 2, 3), param_polys(field, 1, 2)).map(build)


def diffpolys(field, var_count=2, max_factors=3):
    n = field.derivation_count
    symbols = st.builds(
        DiffSymbol, st.integers(0, var_count - 1), st.tuples(*[st.integers(0, 1)] * n)
    )
    term = st.tuples(base_elems(field), st.lists(symbols, max_size=max_factors))

    def build(terms):
        out = DiffPoly.zero(field)
        for c, syms in terms:
            t = DiffPoly.const(field, c)
            for s in syms:
                t = t * DiffPoly.from_symbol(field, s)
            out = out + t
        return out

    return st.lists(term, min_size=1, max_size=3).map(build)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@settings(max_examples=50, deadline=None)
@given(data=st.data(), mode=st.sampled_from(list(DerivationMode)))
def test_derive_upto_matches_apply_d_and_taylor_oracle(field, data, mode):
    n = field.derivation_count
    f = data.draw(diffpolys(field), label="f")
    m = data.draw(st.integers(0, MAX_ORDER[n]), label="m")
    for order in sorted({0, m}):
        table = derive_upto(f, order, mode)
        alphas = enumerate_multiindices(n, order)
        assert list(table) == alphas
        for alpha in alphas:
            direct = apply_d(alpha, f, mode)
            assert table[alpha] == direct
            assert direct == taylor_oracle(alpha, f, mode)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_hasse_table_matches_hasse_derive_and_twist_expand(field, data):
    n = field.derivation_count
    a = data.draw(base_elems(field), label="a")
    m = data.draw(st.integers(0, MAX_ORDER[n] + 1), label="m")
    table = hasse_table(a, m)
    series = twist_expand(a, m)
    zero = BaseElem.zero(field)
    assert sorted(table) == sorted(enumerate_multiindices(n, m))
    for alpha, value in table.items():
        assert value == hasse_derive(alpha, a)
        assert value == series.coeff_or(alpha, zero)


def test_hasse_table_rejects_negative_order():
    with pytest.raises(ValueError):
        hasse_table(BaseElem.one(FIELDS["Q(s)"]), -1)
