"""Truncated t-rings, the twisted expansion, and its graded-elimination inverse."""

import random

import pytest

from hsprolong import (
    BaseElem,
    FieldDescriptor,
    TruncatedElement,
    hasse_derive,
    enumerate_multiindices,
    twist_expand,
    twist_inverse,
    twist_psi,
)
from hsprolong.sampling import random_base_elem, random_multiindex

Q_s = FieldDescriptor(0, ("s",), 1)
Q_su = FieldDescriptor(0, ("s1", "s2"), 2)
F5_s = FieldDescriptor(5, ("s",), 1)


def const(v, m, n=1, field=Q_s):
    return TruncatedElement.constant(BaseElem.const(field, v), m, n)


def t_var(m, n=1, i=0, field=Q_s):
    e = [0] * n
    e[i] = 1
    return TruncatedElement({tuple(e): BaseElem.one(field)}, m, n)


class TestTruncRing:
    def test_one_plus_t_times_one_minus_t(self):
        one, t = const(1, 1), t_var(1)
        assert (one + t) * (one - t) == const(1, 1)
        one2, t2 = const(1, 2), t_var(2)
        assert (one2 + t2) * (one2 - t2) == const(1, 2) - t2 * t2

    def test_binomial_expansion_two_vars(self):
        t1, t2 = t_var(2, 2, 0, Q_su), t_var(2, 2, 1, Q_su)
        sq = (t1 + t2) * (t1 + t2)
        two = BaseElem.const(Q_su, 2)
        expected = TruncatedElement(
            {(2, 0): BaseElem.one(Q_su), (1, 1): two, (0, 2): BaseElem.one(Q_su)}, 2, 2
        )
        assert sq == expected

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(ValueError):
            const(1, 1) * const(1, 2)

    def test_truncation_drops_high_orders(self):
        t = t_var(2)
        assert not t * t * t

    @pytest.mark.parametrize("coeff", [1, 0], ids=["nonzero", "zero"])
    def test_wrong_length_key_rejected(self, coeff):
        c = BaseElem.const(Q_s, coeff)
        for key in ((1, 0), (5, 0)):
            with pytest.raises(ValueError, match="wrong length"):
                TruncatedElement({(0,): BaseElem.one(Q_s), key: c}, 2, 1)


class TestTwistExpand:
    def test_parameter(self):
        s = BaseElem.param(Q_s, "s")
        assert twist_expand(s, 2) == TruncatedElement(
            {(0,): s, (1,): BaseElem.one(Q_s)}, 2, 1
        )

    def test_square(self):
        s = BaseElem.param(Q_s, "s")
        got = twist_expand(s**2, 2)
        assert got.coeff_or((0,), None) == s**2
        assert got.coeff_or((1,), None) == 2 * s
        assert got.coeff_or((2,), None) == 1

    def test_inverse_of_s(self):
        s = BaseElem.param(Q_s, "s")
        got = twist_expand(1 / s, 2)
        assert got.coeff_or((0,), None) == 1 / s
        assert got.coeff_or((1,), None) == -1 / s**2
        assert got.coeff_or((2,), None) == 1 / s**3
        assert got.render() == "1/s - 1/s^2*t1 + 1/s^3*t1^2"

    def test_geometric_series_example(self):
        s = BaseElem.param(Q_s, "s")
        a = 1 / (1 - s)
        got = twist_expand(a, 2)
        assert got.coeff_or((0,), None) == a
        assert got.coeff_or((1,), None) == a**2
        assert got.coeff_or((2,), None) == a**3

    def test_constants_are_fixed(self):
        c = BaseElem.const(Q_s, 7, 3)
        assert twist_expand(c, 3) == TruncatedElement.constant(c, 3, 1)

    def test_matches_hasse_derivatives(self):
        rng = random.Random(23)
        for t in range(60):
            field = (Q_s, Q_su, F5_s)[t % 3]
            n = field.derivation_count
            a = random_base_elem(rng, field)
            m = rng.randint(0, 3)
            e = twist_expand(a, m)
            for alpha in enumerate_multiindices(n, m):
                want = hasse_derive(alpha, a)
                got = e.coeff_or(alpha, BaseElem.zero(field))
                assert got == want

    def test_inert_parameter_stays_in_coefficients(self):
        field = FieldDescriptor(0, ("s", "u"), 1)
        s, u = BaseElem.param(field, "s"), BaseElem.param(field, "u")
        got = twist_expand(u * s, 1)
        assert got == TruncatedElement({(0,): u * s, (1,): u}, 1, 1)
        assert twist_expand(u, 3) == TruncatedElement.constant(u, 3, 1)

    def test_ring_homomorphism(self):
        rng = random.Random(29)
        for t in range(60):
            field = (Q_s, Q_su, F5_s)[t % 3]
            a = random_base_elem(rng, field)
            b = random_base_elem(rng, field)
            m = rng.randint(0, 3)
            assert twist_expand(a * b, m) == twist_expand(a, m) * twist_expand(b, m)
            assert twist_expand(a + b, m) == twist_expand(a, m) + twist_expand(b, m)


class TestTwistInverse:
    def test_constant_s_at_order_one(self):
        s = BaseElem.param(Q_s, "s")
        b = TruncatedElement.constant(s, 1, 1)
        c = twist_inverse(b)
        assert c == TruncatedElement({(0,): s, (1,): BaseElem.const(Q_s, -1)}, 1, 1)
        assert twist_psi(c) == b

    def test_one_is_fixed(self):
        b = const(1, 3)
        assert twist_inverse(b) == b

    def test_round_trip_random(self):
        rng = random.Random(31)
        for t in range(80):
            field = (Q_s, Q_su, F5_s)[t % 3]
            n = field.derivation_count
            m = rng.randint(0, 3)
            coeffs = {
                random_multiindex(rng, n, m): random_base_elem(rng, field)
                for _ in range(rng.randint(1, 4))
            }
            c = TruncatedElement(coeffs, m, n)
            assert twist_inverse(twist_psi(c)) == c
            assert twist_psi(twist_inverse(c)) == c

    def test_trivial_field_is_constant_embedding(self):
        Q0 = FieldDescriptor(0, ("c",), 0)
        c = BaseElem.param(Q0, "c")
        e = twist_expand(c**2 + 1, 3)
        assert e == TruncatedElement.constant(c**2 + 1, 3, 0)
        assert twist_inverse(e) == e
        assert twist_psi(e) == e

    def test_twisted_scalar_action(self):
        # psi(r*c) = e(r) * psi(c): the precise sense of the R-algebra claim
        rng = random.Random(37)
        for t in range(60):
            field = (Q_su, F5_s)[t % 2]
            n = field.derivation_count
            m = rng.randint(1, 3)
            coeffs = {
                random_multiindex(rng, n, m): random_base_elem(rng, field)
                for _ in range(rng.randint(1, 3))
            }
            c = TruncatedElement(coeffs, m, n)
            r = random_base_elem(rng, field)
            assert twist_psi(c.scale(r)) == twist_expand(r, m) * twist_psi(c)
