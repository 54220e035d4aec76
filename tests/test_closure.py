"""The fold's one truncation rule: it runs over a down-closed index set.

``termdict.leibniz`` keeps an index sum only if it lies in the closure it is
given.  The value at an index alpha depends only on the indices below alpha,
so every down-closed set that holds alpha gives the same value there: the box
below alpha, the simplex |gamma| <= |alpha|, the box below alpha + e_i.  The
same holds one level up: ``derive_each`` at order m + 1 agrees with order m
on |alpha| <= m, and ``layered_expand_each`` on more tops agrees on the tops
it had.

The layered maps reject a negative or missing order, and a fold or a variety
takes polynomials over its one field only.
"""

import pytest
from hypothesis import given, settings, strategies as st

from hsprolong import BaseElem, DerivationMode, DiffPoly, DiffSymbol, FieldDescriptor, VarietyPresentation, termdict
from hsprolong.basefield import _hasse_values
from hsprolong.diffpoly import derive_each
from hsprolong.fields import comp_count
from hsprolong.layered import LayeredPoly, layered_expand, layered_expand_each, outer_derive
from hsprolong.multiindex import enumerate_multiindices, index_add, indices_below, unit_index

from test_expansion import diffpolys
from test_onepass import order_zero_polys

P = DerivationMode.PROLONGATION
J = DerivationMode.JET
KIND_PAIRS = [(P, P), (P, J), (J, P), (J, J)]

Q_S = FieldDescriptor(0, ("s",), 1)
F2_S = FieldDescriptor(2, ("s",), 1)
F5_S = FieldDescriptor(5, ("s",), 1)
DIRECT_FIELDS = {"Q(s1,s2)": FieldDescriptor(0, ("s1", "s2"), 2), "F5(s)": F5_S}
LAYERED_FIELDS = {"Q(s)": Q_S, "F2(s)": F2_S, "F5(s)": F5_S}


def fold_at(alpha, f, mode, closure):
    """d_alpha f from termdict.leibniz truncated to ``closure``, with the symbol
    pieces d_u(x^(beta)) = comp_count(u, beta) * x^(beta+u), u in the closure."""
    field = f.field
    p, n = field.characteristic, field.derivation_count

    def pieces(code):
        sym = DiffSymbol.decode(code, n)
        return [
            (u, count, DiffSymbol(sym.var, index_add(sym.order, u)).code)
            for u in closure
            for count in (comp_count(u, sym.order),)
            if not p or count % p
        ]

    def coeff_table(c):
        return _hasse_values(c, closure) if mode is P else {(0,) * n: c}

    return termdict.leibniz((f,), closure, (alpha,), coeff_table, pieces, DiffPoly)[0][alpha]


def alphas(field):
    n = field.derivation_count
    return st.tuples(*[st.integers(0, 6 // n)] * n)


@pytest.mark.parametrize("field", DIRECT_FIELDS.values(), ids=DIRECT_FIELDS.keys())
@settings(max_examples=25, deadline=None)
@given(data=st.data(), mode=st.sampled_from([P, J]))
def test_the_fold_at_alpha_is_the_same_over_any_closure_that_holds_it(field, data, mode):
    f = data.draw(diffpolys(field), label="f")
    alpha = data.draw(alphas(field), label="alpha")
    n = field.derivation_count
    box = fold_at(alpha, f, mode, indices_below(alpha))
    assert box == fold_at(alpha, f, mode, enumerate_multiindices(n, sum(alpha)))
    for i in range(n):
        assert box == fold_at(alpha, f, mode, indices_below(index_add(alpha, unit_index(n, i))))


@pytest.mark.parametrize("field", DIRECT_FIELDS.values(), ids=DIRECT_FIELDS.keys())
@settings(max_examples=20, deadline=None)
@given(data=st.data(), mode=st.sampled_from([P, J]))
def test_derive_each_one_order_higher_agrees_below(field, data, mode):
    fs = data.draw(st.lists(diffpolys(field), min_size=1, max_size=2), label="fs")
    m = data.draw(st.integers(0, 4 // field.derivation_count), label="m")
    lower, higher = derive_each(fs, m, mode), derive_each(fs, m + 1, mode)
    for low, high in zip(lower, higher):
        assert low == {alpha: high[alpha] for alpha in low}


tops = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3)


@pytest.mark.parametrize("field", LAYERED_FIELDS.values(), ids=LAYERED_FIELDS.keys())
@settings(max_examples=20, deadline=None)
@given(data=st.data(), kinds=st.sampled_from(KIND_PAIRS))
def test_layered_expand_each_on_more_tops_agrees_on_the_tops(field, data, kinds):
    h = data.draw(order_zero_polys(field), label="h")
    some, more = data.draw(tops, label="tops"), data.draw(tops, label="more")
    fewer = layered_expand_each(some, h, *kinds)
    wider = layered_expand_each(some + more, h, *kinds)
    assert fewer == {top: wider[top] for top in fewer}


# -- orders and fields that the maps reject -------------------------------------


def _layered_with(coeff):
    field = coeff.field
    return LayeredPoly.const(field, coeff) * LayeredPoly.generator(field, 0, 1, 0, P)


@pytest.mark.parametrize("rational", [False, True], ids=["polynomial", "rational"])
def test_outer_derive_rejects_a_negative_order(rational):
    s = BaseElem.param(Q_S, "s")
    p = _layered_with(s / (s + BaseElem.one(Q_S)) if rational else s)
    with pytest.raises(ValueError, match="derivative order must be a natural, got -1"):
        outer_derive(-1, p, 4)


@pytest.mark.parametrize("orders", [(-1, 0), (0, -1)])
def test_layered_expand_rejects_a_negative_order(orders):
    h = DiffPoly.variable(Q_S, 0)
    with pytest.raises(ValueError, match="derivative order must be a natural, got -1"):
        layered_expand(*orders, h, P, P)


def test_layered_expand_each_rejects_no_tops():
    with pytest.raises(ValueError, match="at least one"):
        layered_expand_each([], DiffPoly.variable(Q_S, 0), P, P)


def test_a_fold_takes_polynomials_over_one_field():
    x = DiffPoly.variable(Q_S, 0)
    y = DiffPoly.variable(F5_S, 1)
    with pytest.raises(ValueError, match="one field"):
        derive_each([x * x, y * y * y], 1, P)


def test_a_variety_takes_generators_over_its_field():
    x = DiffPoly.variable(Q_S, 0)
    y = DiffPoly.variable(F5_S, 0)
    with pytest.raises(ValueError, match="generator #1 is over another field"):
        VarietyPresentation(Q_S, 1, [x - DiffPoly.const(Q_S, BaseElem.one(Q_S)), y * y * y])
