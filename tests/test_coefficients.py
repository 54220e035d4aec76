"""The coefficient layer keeps plain numbers.

Every ParamPoly coefficient is a Fraction in characteristic 0 and an int in
[0, p) in characteristic p, never a float, whatever arithmetic produced it.
Inputs come from the hypothesis strategies of ``test_expansion``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hsprolong import BaseElem, poly_divexact, poly_gcd
from hsprolong.basefield import hasse_table

from test_expansion import FIELDS, base_elems, param_polys


def assert_plain_coefficients(*polys):
    for poly in polys:
        p = poly.field.characteristic
        for c in poly.terms.values():
            if p:
                assert type(c) is int and 0 < c < p, c
            else:
                assert type(c) is Fraction and c, c


def parts(*elems):
    return [q for a in elems for q in (a.num, a.den)]


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coefficients_stay_plain(field, data):
    f = data.draw(param_polys(field, 2, 3), label="f")
    g = data.draw(param_polys(field, 2, 3), label="g")
    a = data.draw(base_elems(field), label="a")
    b = data.draw(base_elems(field), label="b")
    assert_plain_coefficients(f, g, f + g, f - g, -f, f * g, f**2, f.scale(Fraction(1, 3)))
    if f or g:
        assert_plain_coefficients(poly_gcd(f, g))
    if g:
        q = poly_divexact(f * g, g)
        assert q == f
        assert_plain_coefficients(q)
    results = [a + b, a - b, -a, a * b, a**2, BaseElem.const(field, 3, 2)]
    if b:
        results += [a / b, b.inverse()]
    results += list(hasse_table(a, 2).values())
    assert_plain_coefficients(*parts(*results))
