"""The Leibniz fold: multiplicities reduced once, base coefficients multiplied in once.

``termdict.leibniz`` expands each symbol monomial's derivative table over the
integers and only then meets the coefficient table.  In characteristic p a
multiplicity such as C(p, 1) vanishes only after that reduction, so x^p and
y^p are where a zero coefficient could slip into a term dict: every result
here must equal ``taylor_oracle`` and store no zero coefficient, as must
two terms whose derivatives meet and cancel.  The count
guards pin where the rational-function work happens: in JET mode an order-0
polynomial takes no symbolic product and no base-field sum, and in
PROLONGATION mode each pair of coefficient-table entry and monomial-table
entry costs at most one base-field product.
"""

import pytest

from hsprolong import (
    BaseElem,
    DerivationMode,
    DiffPoly,
    DiffSymbol,
    FieldDescriptor,
    apply_d,
    enumerate_multiindices,
    taylor_oracle,
)
from hsprolong.basefield import hasse_table
from hsprolong.diffpoly import derive_upto
from hsprolong.multiindex import index_size
from hsprolong.sparsepoly import SparsePoly

from test_expansion import FIELDS

P = DerivationMode.PROLONGATION
J = DerivationMode.JET

CHAR_P_FIELDS = {f"F{p}(s)": FieldDescriptor(p, ("s",), 1) for p in (2, 3, 5)}
COUNT_FIELDS = {name: FIELDS[name] for name in ("Q(s)", "Q(s1,s2)", "F5(s)")}


def variables(field, count):
    return [DiffPoly.variable(field, i) for i in range(count)]


@pytest.mark.parametrize("mode", [P, J], ids=["prolong", "jet"])
@pytest.mark.parametrize("field", CHAR_P_FIELDS.values(), ids=CHAR_P_FIELDS.keys())
def test_vanishing_multiplicities_leave_no_zero_coefficient(field, mode):
    p = field.characteristic
    s = DiffPoly.const(field, BaseElem.param(field, 0))
    x, y = variables(field, 2)
    # d_1(x^p) = p * x^(p-1) * d1x vanishes
    assert not apply_d((1,), x**p, mode)
    m = p + 1
    for f in (s * x**p + x, x**p * y + y**p):
        table = derive_upto(f, m, mode)
        for alpha in enumerate_multiindices(1, m):
            expected = taylor_oracle(alpha, f, mode)
            for got in (table[alpha], apply_d(alpha, f, mode)):
                assert got == expected, (f, alpha)
                assert all(got.terms.values()), (f, alpha, got.terms)


@pytest.mark.parametrize("mode", [P, J], ids=["prolong", "jet"])
def test_terms_that_meet_and_cancel_leave_no_zero_coefficient(mode):
    field = FIELDS["Q(s)"]
    x, d1x, d2x = (DiffPoly.from_symbol(field, DiffSymbol(0, (k,))) for k in range(3))
    # d_1(4*x*d2x) = 4*d1x*d2x + 12*x*d3x and d_1(d1x^2) = 4*d1x*d2x
    f = 4 * x * d2x - d1x**2
    table = derive_upto(f, 3, mode)
    for alpha in enumerate_multiindices(1, 3):
        expected = taylor_oracle(alpha, f, mode)
        for got in (table[alpha], apply_d(alpha, f, mode)):
            assert got == expected, alpha
            assert all(got.terms.values()), (alpha, got.terms)
    assert table[(1,)] == 12 * x * DiffPoly.from_symbol(field, DiffSymbol(0, (3,)))


@pytest.fixture
def fold_ops(monkeypatch):
    """Calls of SparsePoly.__mul__, BaseElem.__add__ and BaseElem.__mul__, counted from here on."""
    calls = {}
    for cls, name in ((SparsePoly, "__mul__"), (BaseElem, "__add__"), (BaseElem, "__mul__")):
        label = f"{cls.__name__}.{name}"
        calls[label] = 0

        def counted(self, other, _label=label, _real=getattr(cls, name)):
            calls[_label] += 1
            return _real(self, other)

        monkeypatch.setattr(cls, name, counted)
    return calls


def order_zero_poly(field):
    s = BaseElem.param(field, 0)
    t = BaseElem.param(field, field.param_count - 1)
    x, y, z = variables(field, 3)
    return (
        x**2 * y * DiffPoly.const(field, s)
        + x * y**2 * DiffPoly.const(field, (s + t) / (s**2 + 1))
        + 3 * z**3
        + x * z
        - DiffPoly.const(field, s * t)
    )


@pytest.mark.parametrize("field", COUNT_FIELDS.values(), ids=COUNT_FIELDS.keys())
def test_jet_fold_takes_no_symbolic_product_and_no_base_sum(field, fold_ops):
    f = order_zero_poly(field)
    for key in fold_ops:
        fold_ops[key] = 0
    table = derive_upto(f, 4, J)
    assert all(table.values())
    assert fold_ops["SparsePoly.__mul__"] == 0, fold_ops
    assert fold_ops["BaseElem.__add__"] == 0, fold_ops


@pytest.mark.parametrize("field", COUNT_FIELDS.values(), ids=COUNT_FIELDS.keys())
def test_prolong_fold_multiplies_each_pair_once(field, fold_ops):
    m = 4 if field.derivation_count == 1 else 3
    f = order_zero_poly(field)
    # the pairs (gamma, entry) inside the truncation: D_gamma(c) != 0 beside a
    # term of d_alpha(monomial) with |gamma| + |alpha| <= m
    pairs = 0
    for mono, c in f.terms.items():
        monomial = derive_upto(DiffPoly({mono: BaseElem.one(field)}, field), m, J)
        for gamma, d in hasse_table(c, m).items():
            if d:
                pairs += sum(
                    len(g.terms) for alpha, g in monomial.items() if index_size(gamma) + index_size(alpha) <= m
                )
    for key in fold_ops:
        fold_ops[key] = 0
    derive_upto(f, m, P)
    assert 0 < fold_ops["BaseElem.__mul__"] <= pairs, (fold_ops, pairs)
    assert fold_ops["SparsePoly.__mul__"] == 0, fold_ops
