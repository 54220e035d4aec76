"""A third route to D_alpha(num/den): the defining identity of the quotient.

From D_alpha(den * a) = D_alpha(num) and the Leibniz rule,

    sum over beta <= alpha of D_beta(den) * D_{alpha - beta}(a) = D_alpha(num),

where D on a polynomial is ``ParamPoly.hasse``, composed family by family.
The beta = 0 term is den * D_alpha(a) and den != 0, so the identity fixes
every D_alpha(a) once the lower ones are fixed: a table that satisfies it at
every |alpha| <= m is the table of D_alpha(a).  Both the quotient-rule table
``hasse_table`` and the series route ``twist_expand`` are held to it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from hsprolong import BaseElem, FieldDescriptor, enumerate_multiindices, twist_expand
from hsprolong.basefield import hasse_table
from hsprolong.multiindex import splittings

from test_expansion import FIELDS, MAX_ORDER, base_elems

IDENTITY_FIELDS = {name: FIELDS[name] for name in ("Q(s)", "Q(s1,s2)", "F5(s)", "trivial Q(s)")}


def poly_hasse(alpha, p):
    """D_alpha of a parameter polynomial, one family at a time."""
    for i, k in enumerate(alpha):
        p = p.hasse(i, k)
    return p


def assert_quotient_identity(a, m, values):
    """values[alpha] satisfies the identity at every |alpha| <= m."""
    field = a.field
    zero = BaseElem.zero(field)
    for alpha in enumerate_multiindices(field.derivation_count, m):
        total = zero
        for beta, gamma in splittings(alpha):
            d = poly_hasse(beta, a.den)
            if d:
                total = total + BaseElem(d) * values.get(gamma, zero)
        assert total == BaseElem(poly_hasse(alpha, a.num)), (a, alpha)


@pytest.mark.parametrize("field", IDENTITY_FIELDS.values(), ids=IDENTITY_FIELDS.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_both_routes_satisfy_the_quotient_identity(field, data):
    a = data.draw(base_elems(field), label="a")
    m = data.draw(st.integers(0, MAX_ORDER[field.derivation_count]), label="m")
    assert_quotient_identity(a, m, hasse_table(a, m))
    assert_quotient_identity(a, m, twist_expand(a, m).coeffs)


def test_identity_on_repeated_and_monomial_denominators():
    # denominators that are not square-free, or a monomial, or free of s1
    q2 = FIELDS["Q(s1,s2)"]
    s1, s2 = (BaseElem.param(q2, i) for i in range(2))
    q1 = FIELDS["Q(s)"]
    s = BaseElem.param(q1, 0)
    f5 = FieldDescriptor(5, ("s",), 1)
    t = BaseElem.param(f5, 0)
    for a in [
        (s**2 + 3) / (s**2 + 2 * s + 5),
        (s + 1) / (s - 2) ** 3,
        1 / s**4,
        s2 / (s1 * (s2 + 1) ** 2),
        (s1 + s2) / (s1 * s2 - 1),
        (t**3 + 1) / (t + 1) ** 5,
        1 / t**5,
    ]:
        assert_quotient_identity(a, 4, hasse_table(a, 4))
        assert_quotient_identity(a, 4, twist_expand(a, 4).coeffs)
