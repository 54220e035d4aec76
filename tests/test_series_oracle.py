"""The series oracle stays independent of the quotient-rule route.

twist_expand, twist_psi and twist_inverse substitute s -> s + t on integer
Pascal rows and sum a geometric series; they take no binomial from
``fields.binom``, ``math.comb`` or ``ParamPoly.hasse`` and never reach the
D_alpha(1/den) recursion of ``basefield._hasse_values``.  With all of those
made to raise, the three routes must still give the values they gave before.
"""

import math
import random

import pytest

from hsprolong import BaseElem, FieldDescriptor, ParamPoly, TruncatedElement, fields, series
from hsprolong import basefield
from hsprolong.basefield import hasse_table
from hsprolong.sampling import random_base_elem, random_multiindex, random_nonzero_base_elem

FIELDS = {
    "Q(s1,s2)": FieldDescriptor(0, ("s1", "s2"), 2),
    "F5(s)": FieldDescriptor(5, ("s",), 1),
    "Q(s;u inert)": FieldDescriptor(0, ("s", "u"), 1),
}


def _inputs(field):
    rng = random.Random(2005)
    n = field.derivation_count
    elems = [random_nonzero_base_elem(rng, field) for _ in range(6)]
    # a denominator with a repeated factor and a numerator of higher degree
    s = BaseElem.param(field, 0)
    elems.append((s**3 + 2) / (s + 1) ** 2)
    truncs = [
        TruncatedElement(
            {random_multiindex(rng, n, m): random_base_elem(rng, field) for _ in range(3)}, m, n
        )
        for m in range(5)
    ]
    return elems, truncs


def _values(elems, truncs):
    expanded = [series.twist_expand(r, m) for r in elems for m in range(5)]
    return expanded, [series.twist_psi(c) for c in truncs], [series.twist_inverse(c) for c in truncs]


def _refuse(*_args, **_kwargs):
    raise AssertionError("the series oracle reached a binomial of the quotient-rule route")


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_series_routes_need_no_binomial_of_the_quotient_rule(field, monkeypatch):
    elems, truncs = _inputs(field)
    before = _values(elems, truncs)
    monkeypatch.setattr(ParamPoly, "hasse", _refuse)
    monkeypatch.setattr(fields, "binom", _refuse)
    monkeypatch.setattr(basefield, "binom", _refuse)
    monkeypatch.setattr(basefield, "_hasse_values", _refuse)
    monkeypatch.setattr(math, "comb", _refuse)
    # the quotient-rule route does stop at the patches
    with pytest.raises(AssertionError, match="binomial"):
        hasse_table(elems[-1], 2)
    assert _values(elems, truncs) == before


def test_series_binds_no_binomial():
    names = vars(series)
    assert "comb" not in names and "binom" not in names and "math" not in names
    refused = (fields.binom, math.comb, ParamPoly.hasse)
    assert not any(any(v is r for r in refused) for v in names.values())
