"""Rational functions with Hasse derivatives: normalization, gcd, quotient rule."""

import random
from fractions import Fraction

import pytest

from hsprolong import (
    BaseElem,
    FieldDescriptor,
    ParamPoly,
    comp_coeff,
    enumerate_multiindices,
    hasse_derive,
    index_add,
    poly_divexact,
    poly_gcd,
    splittings,
    TruncatedElement,
    twist_expand,
)
from hsprolong.basefield import _monic, hasse_table
from hsprolong.sampling import (
    random_base_elem,
    random_multiindex,
    random_nonzero_base_elem,
    random_param_poly,
)

Q_s = FieldDescriptor(0, ("s",), 1)
Q_su = FieldDescriptor(0, ("s", "u"), 2)
F5_s = FieldDescriptor(5, ("s",), 1)

FIELDS = [Q_s, Q_su, F5_s, FieldDescriptor(2, ("s", "u"), 2), FieldDescriptor(0, ("a", "b", "c"), 3)]


def trunc_inverse(e):
    """The inverse of a truncated element with invertible constant term, by the
    geometric series 1/(c0 (1 + w)) = (1/c0) sum over k of (-w)^k.

    An oracle for the base field's quotient rule, built on the carrier
    arithmetic alone: w^k has no term below size k, so k runs to m.
    """
    m, n = e.order_bound, e.t_count
    c0 = e.coeff_or((0,) * n, None)
    if c0 is None:
        raise ZeroDivisionError("constant term is not invertible")
    inv0 = c0.inverse()
    one = TruncatedElement.constant(BaseElem.one(c0.field), m, n)
    w = e.scale(inv0) - one
    out, power = one, one
    for _ in range(m):
        power = power * -w
        if not power:
            break
        out = out + power
    return out.scale(inv0)


def s_elem(field=Q_s):
    return BaseElem.param(field, "s")


class TestNormalization:
    def test_cancellation(self):
        s = s_elem()
        assert (s**2 - 1) / (s - 1) == s + 1
        assert (s**2 - 1) / (s + 1) == s - 1

    def test_denominator_is_monic(self):
        s = s_elem()
        e = 1 / (1 - s)
        assert e.den.leading()[1] == 1
        assert e.render() == "-1/(s - 1)"

    def test_zero_normal_form(self):
        s = s_elem()
        z = (s - s) / (s**2 + 1)
        assert not z
        assert z.den == ParamPoly.const(Q_s, 1)

    def test_equality_is_structural(self):
        s = s_elem()
        a = (s**2 + 2 * s + 1) / (s + 1)
        assert a == s + 1

    def test_zero_denominator_rejected(self):
        s = s_elem()
        with pytest.raises(ZeroDivisionError):
            BaseElem(s.num, ParamPoly.zero(Q_s))


class TestGcd:
    def test_gcd_common_factor(self):
        rng = random.Random(11)
        for t in range(200):
            field = FIELDS[t % len(FIELDS)]
            a = random_param_poly(rng, field, 2, 3, nonzero=True)
            b = random_param_poly(rng, field, 2, 3, nonzero=True)
            c = random_param_poly(rng, field, 2, 2, nonzero=True)
            g = poly_gcd(a, b)
            qa, qb = poly_divexact(a, g), poly_divexact(b, g)
            assert poly_gcd(qa, qb).is_const()
            assert poly_gcd(a * c, b * c) == _monic(g * c)

    def test_divexact_roundtrip(self):
        rng = random.Random(12)
        for t in range(100):
            field = FIELDS[t % len(FIELDS)]
            a = random_param_poly(rng, field, 2, 3, nonzero=True)
            b = random_param_poly(rng, field, 2, 3, nonzero=True)
            assert poly_divexact(a * b, b) == a

    def test_divexact_rejects_inexact(self):
        s, u = ParamPoly.var(Q_su, 0), ParamPoly.var(Q_su, 1)
        with pytest.raises(ValueError):
            poly_divexact(s * s + ParamPoly.const(Q_su, 1), u)

    def test_divexact_by_a_divisor_with_content_and_a_negative_head(self):
        # over Q the numerators are divided by the primitive part of the
        # divisor's, -(s1 + 2*s2) here, and its content 3 joins the denominator
        q = ParamPoly.var(Q_su, 0) * ParamPoly.var(Q_su, 0)
        d = ParamPoly({(1, 0): -3, (0, 1): -6}, Q_su)
        c = ParamPoly({(2, 0): Fraction(1, 2), (0, 1): Fraction(-2, 3), (0, 0): Fraction(5, 7)}, Q_su)
        assert poly_divexact(d * c, d) == c
        assert poly_divexact(d * c, c) == d
        assert poly_divexact(d * c * q, d * q) == c
        assert poly_divexact(d * c, d.scale(Fraction(1, 9))) == c.scale(9)

    def test_divexact_names_every_inexact_pair(self):
        s, u = ParamPoly.var(Q_su, 0), ParamPoly.var(Q_su, 1)
        one = ParamPoly.const(Q_su, 1)
        # a head coefficient that is no multiple of the primitive leading one
        # (s^2 + s + 1 = (2s + 1)(s/2 + 1/4) + 3/4); s^2 over 2s + u is refused
        # at its first head, where a quotient coefficient of 0 would leave no remainder
        pairs = [
            (s * s + s + one, s.scale(2) + one),
            (s * u + one, s.scale(3) + u),
            (s * s, s.scale(2) + u),
        ]
        for f, g in pairs:
            with pytest.raises(ValueError, match="^inexact polynomial division$"):
                poly_divexact(f, g)


class TestHasseDerive:
    def test_spec_examples(self):
        s = s_elem()
        assert hasse_derive((1,), s**2) == 2 * s
        assert hasse_derive((2,), s**2) == BaseElem.one(Q_s)
        assert hasse_derive((2,), 1 / s) == 1 / s**3
        t = s_elem(F5_s)
        assert not hasse_derive((1,), t**5)

    def test_derived_example_reads_off_series(self):
        # D_(2)(1/s) equals the t^2 coefficient of the series inverse of e(s)
        s = s_elem()
        series = trunc_inverse(twist_expand(s, 2))
        assert hasse_derive((2,), 1 / s) == series.coeff_or((2,), None)

    def test_negative_index_rejected(self):
        s = s_elem()
        u = BaseElem.param(Q_su, "u")
        for alpha, a in [((-1,), s), ((-2,), 1 / (s + 1)), ((1, -1), u)]:
            with pytest.raises(ValueError):
                hasse_derive(alpha, a)

    def test_identity_at_zero(self):
        rng = random.Random(3)
        for field in FIELDS:
            a = random_base_elem(rng, field)
            n = field.derivation_count
            assert hasse_derive((0,) * n, a) == a

    def test_iterativity(self):
        rng = random.Random(5)
        for t in range(150):
            field = FIELDS[t % len(FIELDS)]
            n = field.derivation_count
            a = random_base_elem(rng, field)
            alpha = random_multiindex(rng, n, 2)
            beta = random_multiindex(rng, n, 2)
            lhs = hasse_derive(alpha, hasse_derive(beta, a))
            rhs = hasse_derive(index_add(alpha, beta), a) * comp_coeff(alpha, beta, field)
            assert lhs == rhs

    def test_commutativity_of_families(self):
        rng = random.Random(7)
        for _ in range(60):
            a = random_base_elem(rng, Q_su)
            d1 = lambda x: hasse_derive((1, 0), x)
            d2 = lambda x: hasse_derive((0, 1), x)
            assert d1(d2(a)) == d2(d1(a))

    def test_generalized_leibniz(self):
        rng = random.Random(9)
        for t in range(120):
            field = FIELDS[t % len(FIELDS)]
            n = field.derivation_count
            a = random_base_elem(rng, field)
            b = random_base_elem(rng, field)
            alpha = random_multiindex(rng, n, 3)
            total = BaseElem.zero(field)
            for be, ga in splittings(alpha):
                total = total + hasse_derive(be, a) * hasse_derive(ga, b)
            assert hasse_derive(alpha, a * b) == total

    def test_quotient_rule_matches_series_inversion(self):
        rng = random.Random(13)
        for t in range(80):
            field = FIELDS[t % 3]
            n = field.derivation_count
            b = random_nonzero_base_elem(rng, field)
            inv_series = trunc_inverse(twist_expand(b, 3))
            alpha = random_multiindex(rng, n, 3)
            got = hasse_derive(alpha, 1 / b)
            want = inv_series.coeff_or(alpha, BaseElem.zero(field))
            assert got == want

    def test_inverse_derivative_convolution_vanishes(self):
        # sum_{i<=n} D_i(b) D_{n-i}(1/b) = 0 for n >= 1, the relation the
        # quotient rule solves
        rng = random.Random(17)
        for _ in range(40):
            b = random_nonzero_base_elem(rng, Q_s)
            for n in range(1, 4):
                total = BaseElem.zero(Q_s)
                for i in range(n + 1):
                    total = total + hasse_derive((i,), b) * hasse_derive((n - i,), 1 / b)
                assert not total

    def test_char_p_frobenius_kernel(self):
        rng = random.Random(19)
        for p in (2, 3, 5):
            field = FieldDescriptor(p, ("s",), 1)
            for _ in range(30):
                a = random_base_elem(rng, field)
                assert not hasse_derive((1,), a**p)

    def test_extra_parameters_are_constants(self):
        # derivation count below the parameter count: the tail is inert
        field = FieldDescriptor(0, ("s", "u"), 1)
        s, u = BaseElem.param(field, "s"), BaseElem.param(field, "u")
        assert not hasse_derive((1,), u)
        assert hasse_derive((1,), u * s**2) == 2 * s * u
        assert hasse_derive((2,), u / s) == u / s**3
        rng = random.Random(21)
        for _ in range(30):
            a = random_base_elem(rng, field)
            b = random_base_elem(rng, field)
            total = BaseElem.zero(field)
            for k in range(3):
                total = total + hasse_derive((k,), a) * hasse_derive((2 - k,), b)
            assert hasse_derive((2,), a * b) == total


class TestRendering:
    def test_polynomial_prints_without_slash(self):
        s = s_elem()
        assert (s**2 - s).render() == "s^2 - s"

    def test_quotient_prints_with_slash(self):
        s = s_elem()
        assert (1 / s**2).render() == "1/s^2"
        assert ((s + 2) / s).render() == "(s + 2)/s"


@pytest.mark.parametrize("field", [Q_s, Q_su, F5_s], ids=["Q(s)", "Q(s,u)", "F5(s)"])
def test_constant_hasse_table_takes_no_parameter_derivative(field, monkeypatch):
    # a constant's table is the constant at order 0 and zeros above it, with
    # no ParamPoly.hasse call per order and family
    calls = []
    real = ParamPoly.hasse

    def counted(self, i, k):
        calls.append((i, k))
        return real(self, i, k)

    monkeypatch.setattr(ParamPoly, "hasse", counted)
    s = BaseElem.param(field, 0)
    assert hasse_table(s, 4)[(1,) + (0,) * (field.derivation_count - 1)] == BaseElem.one(field)
    assert calls, "the counter must see the polynomial route"
    for c in (BaseElem.const(field, 3), BaseElem.const(field, 7, 3), BaseElem.zero(field)):
        calls.clear()
        table = hasse_table(c, 4)
        assert calls == [], c
        assert set(table) == set(enumerate_multiindices(field.derivation_count, 4))
        # the same values as hasse_derive, which asks each family for one order
        monkeypatch.setattr(ParamPoly, "hasse", real)
        for alpha, d in table.items():
            assert d == hasse_derive(alpha, c), (c, alpha)
            assert d.den == ParamPoly.const(field, 1)
        monkeypatch.setattr(ParamPoly, "hasse", counted)


def test_hasse_derive_makes_one_normalization(monkeypatch):
    # hasse_derive runs one recursion over the box below alpha and normalizes
    # its one output once, whatever the number of families with a nonzero
    # order; alpha = 0, a constant and a polynomial take no normalization
    from hsprolong import basefield

    calls = []
    real = basefield._reduce

    def counted(num, den):
        calls.append(den)
        return real(num, den)

    monkeypatch.setattr(basefield, "_reduce", counted)
    s, u = BaseElem.param(Q_su, "s"), BaseElem.param(Q_su, "u")
    cases = [((s + u) / (s * u + 1), 1), (3 * s * u**2 + s + 2, 0), (BaseElem.const(Q_su, 7, 3), 0)]
    for a, want in cases:
        for alpha in [(2, 0), (0, 3), (1, 2), (2, 2)]:
            calls.clear()
            # a zero numerator would skip the normalization
            assert hasse_derive(alpha, a) or not want
            assert len(calls) == want, (a, alpha)
        calls.clear()
        assert hasse_derive((0, 0), a) == a
        assert calls == [], a


class TestOutsideInput:
    def test_monomial_rejects_a_key_of_the_wrong_length(self):
        # (1, 2) over one parameter would print as 3*s and equal no 3*s
        with pytest.raises(ValueError, match="1 naturals"):
            ParamPoly.monomial(Q_s, (1, 2), 3)
        assert ParamPoly.monomial(Q_s, (1,), 3).render() == "3*s"

    def test_constructor_rejects_a_negative_exponent(self):
        for terms in ({(-1,): 1}, {(0,): 1, (-1,): 0}):
            with pytest.raises(ValueError, match="naturals"):
                ParamPoly(terms, Q_s)
        with pytest.raises(ValueError, match="naturals"):
            ParamPoly({(1, -2): 1}, Q_su)

    def test_const_zero_is_the_zero_polynomial(self):
        for field in FIELDS:
            zero = ParamPoly.const(field, 0)
            assert not zero and zero == ParamPoly.zero(field) and zero.terms == {}

    def test_constructor_maps_coefficients_into_the_field(self):
        # an int coefficient over Q used to stay an int, and a float was kept
        p = ParamPoly({(1,): 3, (0,): Fraction(1, 2)}, Q_s)
        assert all(type(c) is Fraction for c in p.terms.values())
        assert p == ParamPoly.monomial(Q_s, (1,), 3) + ParamPoly.const(Q_s, Fraction(1, 2))
        with pytest.raises(TypeError, match="int or a Fraction"):
            ParamPoly({(1,): 1.5}, Q_s)
