"""The coefficient layer keeps plain numbers.

Every ParamPoly coefficient is a Fraction in characteristic 0 and an int in
[0, p) in characteristic p, never a float, whatever arithmetic produced it.
Underneath, a ParamPoly holds integer numerators over one positive common
denominator in canonical form, and ``terms`` is a fresh view of them.
BaseElem arithmetic with a plain number, a zero or a constant operand, on
either side, equals the general route (one normalization of the unreduced
cross products) and calls neither ``_reduce`` nor ``poly_gcd``.  Both
routes to the Hasse derivatives normalize each output coefficient once.  One
``substitute`` calls ``image`` once per symbol and exponent.
Inputs come from the hypothesis strategies of ``test_expansion``.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hsprolong import (
    BaseElem,
    DiffPoly,
    DiffSymbol,
    ParamPoly,
    basefield,
    poly_divexact,
    poly_gcd,
    twist_expand,
)
from hsprolong.basefield import _monic_den, hasse_table

from test_expansion import FIELDS, base_elems, param_polys


def assert_plain_coefficients(*polys):
    """Each coefficient in ``terms`` a field element, over integer numerators and
    one common denominator in canonical form; ``terms`` rebuilds the polynomial,
    and no caller can write through it."""
    for poly in polys:
        p = poly.field.characteristic
        for c in poly.terms.values():
            if p:
                assert type(c) is int and 0 < c < p, c
            else:
                assert type(c) is Fraction and c, c
        assert type(poly.den) is int and all(type(c) is int for c in poly.nums.values()), poly
        if p:
            assert poly.den == 1 and all(0 < c < p for c in poly.nums.values()), (poly.den, poly.nums)
        else:
            assert poly.den >= 1 and gcd(poly.den, *poly.nums.values()) == 1, (poly.den, poly.nums)
        assert ParamPoly(poly.terms, poly.field) == poly, poly
        before = (poly.den, dict(poly.nums))
        view = poly.terms
        view.clear()
        view[(1,) * poly.field.param_count] = 7
        assert (poly.den, poly.nums) == before, poly


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
    k = data.draw(st.integers(0, 3), label="k")
    c = data.draw(st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 2, 3, 4])), label="c")
    assert_plain_coefficients(f, g, f + g, f - g, -f, f * g, f**2, f**k, f.scale(Fraction(1, 3)), f.scale(c))
    assert_plain_coefficients(*(f.hasse(i, k) for i in range(field.param_count)))
    if f or g:
        assert_plain_coefficients(poly_gcd(f, g))
    if g:
        q = poly_divexact(f * g, g)
        assert q == f
        assert_plain_coefficients(q, *_monic_den(f, g))
    assert_plain_coefficients(*parts(*twist_expand(a, 2).coeffs.values()))
    results = [a + b, a - b, -a, a * b, a**2, BaseElem.const(field, 3, 2)]
    if b:
        results += [a / b, b.inverse()]
    results += list(hasse_table(a, 2).values())
    assert_plain_coefficients(*parts(*results))


# -- constant operands against the general route ------------------------------
#
# Every operand is an int, a Fraction or a BaseElem; each result must equal the
# BaseElem built from raw cross products (one _reduce on an unreduced num/den)
# and be in normal form.  Plain numbers include values >= p and below 0.

PROPERTY_FIELDS = {name: FIELDS[name] for name in ("Q(s)", "Q(s1,s2)", "F5(s)")}


def raw_parts(field, x):
    """x as an unreduced (num, den) pair of parameter polynomials."""
    if isinstance(x, BaseElem):
        return x.num, x.den
    return ParamPoly.const(field, x), ParamPoly.const(field, 1)


def special_elems(field):
    """Zero, constants, a polynomial and rational elements, including 1/s."""
    s = BaseElem.param(field, 0)
    out = [
        BaseElem.zero(field),
        BaseElem.one(field),
        BaseElem.const(field, -1),
        BaseElem.const(field, 3, 2),
        s,
        1 / s,
        (s + 1) / (s**2 + 2),
        s**2 - 3 * s,
    ]
    if field.param_count > 1:
        t = BaseElem.param(field, 1)
        out += [s * t / (t + 1), (s + t) / (3 * s - t)]
    return out


def plain_numbers(field):
    p = field.characteristic
    ints = st.integers(-7, 2 * p + 2 if p else 12)
    # denominators prime to p, so every Fraction is a coefficient of the field
    fractions = st.builds(Fraction, st.integers(-7, 12), st.sampled_from([1, 2, 3, 4]))
    return st.one_of(ints, fractions)


def operands(field):
    return st.one_of(
        plain_numbers(field),
        st.sampled_from(special_elems(field)),
        base_elems(field),
    )


def assert_normal_form(x):
    assert isinstance(x, BaseElem)
    if not x.num:
        assert x.den == ParamPoly.const(x.field, 1), "zero must be written 0/1"
        return
    assert x.den.leading()[1] == 1, "denominator not monic"
    assert poly_gcd(x.num, x.den).is_const(), "numerator and denominator share a factor"


def assert_same(got, num, den):
    assert_normal_form(got)
    want = BaseElem(num, den)
    assert (got.num, got.den) == (want.num, want.den), (got, want)


def check_against_raw(field, x, y):
    """Every operation on x, y (at least one a BaseElem) against raw cross products."""
    an, ad = raw_parts(field, x)
    bn, bd = raw_parts(field, y)
    assert_same(x * y, an * bn, ad * bd)
    assert_same(x + y, an * bd + bn * ad, ad * bd)
    assert_same(x - y, an * bd - bn * ad, ad * bd)
    if bn:
        assert_same(x / y, an * bd, ad * bn)


def check_equality_with_number(field, x, k):
    n, d = raw_parts(field, x)
    want = not (n - d * ParamPoly.const(field, k))
    assert (x == k) is want, (x, k)
    assert (k == x) is want, (k, x)
    assert (x != k) is (not want)


@pytest.mark.parametrize("field", PROPERTY_FIELDS.values(), ids=PROPERTY_FIELDS.keys())
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_constant_operands_match_the_general_route(field, data):
    x = data.draw(st.one_of(st.sampled_from(special_elems(field)), base_elems(field)), label="x")
    y = data.draw(operands(field), label="y")
    check_against_raw(field, x, y)
    check_against_raw(field, y, x)
    if not isinstance(y, BaseElem):
        check_equality_with_number(field, x, y)


@pytest.mark.parametrize("field", PROPERTY_FIELDS.values(), ids=PROPERTY_FIELDS.keys())
def test_constant_operands_on_the_special_grid(field):
    p = field.characteristic
    numbers = [0, 1, -1, 2, Fraction(3, 2), Fraction(-1, 4)]
    numbers += [p, p + 1, p + 6, -p - 1] if p else [12, -7]
    elems = special_elems(field)
    for x in elems:
        for y in elems + numbers:
            check_against_raw(field, x, y)
            check_against_raw(field, y, x)
            if not isinstance(y, BaseElem):
                check_equality_with_number(field, x, y)


def test_constant_equality_reduces_and_reads_the_denominator():
    q, f5 = PROPERTY_FIELDS["Q(s)"], PROPERTY_FIELDS["F5(s)"]
    s = BaseElem.param(q, 0)
    assert (1 / s == 1) is False
    assert (s / s == 1) is True
    assert BaseElem.one(f5) == 6
    assert BaseElem.one(f5) == -4
    assert BaseElem.zero(f5) == 10
    assert (BaseElem.const(f5, 2) == 7) is True
    assert (BaseElem.const(f5, 2) == Fraction(1, 3)) is True


# -- the constant lane takes no gcd ---------------------------------------------


@pytest.fixture
def normalizations(monkeypatch):
    """Calls of basefield._reduce and basefield.poly_gcd, counted from here on."""
    calls = {"_reduce": 0, "poly_gcd": 0}
    for name in calls:
        real = getattr(basefield, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(basefield, name, counted)
    return calls


@pytest.mark.parametrize("field", PROPERTY_FIELDS.values(), ids=PROPERTY_FIELDS.keys())
def test_constant_operands_take_no_normalization(field, normalizations):
    s = BaseElem.param(field, 0)
    rational = (s**2 + 1) / (s**3 + 2 * s + 1)
    k = BaseElem.const(field, 3)
    normalizations.update(_reduce=0, poly_gcd=0)
    results = [
        rational * 3, 3 * rational,
        rational * Fraction(2, 3), Fraction(2, 3) * rational,
        rational * k, k * rational,
        rational * 0, BaseElem.zero(field) * rational,
        k + rational, rational + k, rational - k, k - rational, rational + 2,
        BaseElem.const(field, 7, 3), BaseElem.one(field), BaseElem.zero(field),
    ]
    assert not (rational == 1) and not (1 == rational) and k == 3
    assert normalizations == {"_reduce": 0, "poly_gcd": 0}
    for x in results:
        assert_normal_form(x)


@pytest.mark.parametrize("field", PROPERTY_FIELDS.values(), ids=PROPERTY_FIELDS.keys())
def test_hasse_expansions_normalize_once_per_coefficient(field, normalizations):
    # both routes keep each numerator over a power of den and build one BaseElem
    # per output coefficient; over one parameter poly_gcd does not recurse
    s = BaseElem.param(field, 0)
    t = BaseElem.param(field, field.param_count - 1)
    m = 4 if field.derivation_count == 1 else 3
    univariate = field.param_count == 1
    for a in [(s**2 + 3) / (s**2 + 2 * s + 5), (s + t) / (s * t + t**2 + 1), 1 / (s + 1) ** 2]:
        for outputs in (lambda: hasse_table(a, m), lambda: twist_expand(a, m).coeffs):
            normalizations.update(_reduce=0, poly_gcd=0)
            count = len(outputs())
            assert normalizations["_reduce"] <= count, (a, normalizations)
            if univariate:
                assert normalizations["poly_gcd"] <= count, (a, normalizations)


def test_substitute_builds_each_power_once():
    field = PROPERTY_FIELDS["Q(s)"]
    x, y = (DiffPoly.from_symbol(field, DiffSymbol(i, (0,))) for i in range(2))
    s = DiffPoly.const(field, BaseElem.param(field, 0))
    f = x**2 + x**2 * y + s * x * y + 3 * x**2 * y**2 + x * y**2
    asked = []

    def image(sym):
        asked.append(sym)
        return x + y + s if sym.var == 0 else x - 1

    g = f.substitute(image)
    # (x, 2), (x, 1), (y, 1) and (y, 2) over five terms
    assert len(asked) == 4
    u, v = x + y + s, x - 1
    assert g == u**2 + u**2 * v + s * u * v + 3 * u**2 * v**2 + u * v**2


# -- ring results are built on termdict's zero-free dicts -----------------------


@pytest.mark.parametrize("field", PROPERTY_FIELDS.values(), ids=PROPERTY_FIELDS.keys())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_results_take_no_second_zero_filter(field, data):
    # termdict already drops zeros, so over Q no result passes through
    # _nonzero; over F_p its int residues are reduced, once
    a = data.draw(param_polys(field, 2, 3), label="a")
    b = data.draw(param_polys(field, 2, 3), label="b")
    calls = []
    real = basefield._nonzero

    def counted(terms, p):
        calls.append(p)
        return real(terms, p)

    basefield._nonzero = counted
    try:
        results = [a + b, a - b, a * b, -a, a.scale(3)]
    finally:
        basefield._nonzero = real
    if field.characteristic:
        assert calls
        for r in results:
            assert r == ParamPoly(r.terms, field), r
    else:
        assert calls == []
    assert_plain_coefficients(*results)
