"""Truncated t-rings, the twisted expansion, and the twist isomorphism.

twist_inverse is the closed form psi^-1(sum b_a t^a) = sum t^a e(b_a)(-t).
Its oracle here solves psi(c) = b by graded elimination instead, which
inverts any expansion whose constant term is right; that is why the
production route must not solve for its inverse, and why a non-iterative
twist_expand has to fail ``check twist``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

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
from hsprolong import checks, cli, series
from hsprolong.basefield import hasse_table
from hsprolong.multiindex import index_add, index_size, unit_index
from hsprolong.sampling import random_base_elem, random_multiindex, random_nonzero_base_elem

from test_expansion import base_elems

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


def graded_elimination_inverse(b):
    """The unique c with twist_psi(c) = b, solved index by index.

    Multi-indices are processed in the canonical graded-lex order; fixing the
    coefficient at one index never disturbs indices of size <= its own.
    """
    m, n = b.order_bound, b.t_count
    out: dict = {}
    image = TruncatedElement.zero(m, n)
    for alpha in enumerate_multiindices(n, m):
        got = image.coeff_or(alpha, None)
        want = b.coeff_or(alpha, None)
        if want is None and got is None:
            continue
        if want is None:
            defect = -got
        elif got is None:
            defect = want
        else:
            defect = want - got
        if not defect:
            continue
        out[alpha] = defect
        image = image + twist_expand(defect, m).shift(alpha)
    return TruncatedElement(out, m, n)


ORACLE_FIELDS = {
    "Q(s)": Q_s,
    "Q(s1,s2)": Q_su,
    "F5(s)": F5_s,
    "Q(s;u inert)": FieldDescriptor(0, ("s", "u"), 1),
}


def truncated_elems(field, m):
    n = field.derivation_count
    keys = st.sampled_from(enumerate_multiindices(n, m))
    return st.dictionaries(keys, base_elems(field), max_size=4).map(
        lambda coeffs: TruncatedElement(coeffs, m, n)
    )


@pytest.mark.parametrize("field", ORACLE_FIELDS.values(), ids=ORACLE_FIELDS.keys())
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_closed_form_inverse_matches_graded_elimination(field, data):
    m = data.draw(st.integers(0, 3), label="m")
    b = data.draw(truncated_elems(field, m), label="b")
    c = twist_inverse(b)
    assert c == graded_elimination_inverse(b)
    assert twist_psi(c) == b


@pytest.fixture
def expand_calls(monkeypatch):
    """The (r, m) of every twist_expand call made by the series module from here on."""
    calls = []
    real = series.twist_expand

    def counted(r, m):
        calls.append((r, m))
        return real(r, m)

    monkeypatch.setattr(series, "twist_expand", counted)
    return calls


@pytest.mark.parametrize("route", [twist_psi, twist_inverse], ids=["psi", "inverse"])
@pytest.mark.parametrize("field", [Q_s, Q_su, F5_s], ids=["Q(s)", "Q(s1,s2)", "F5(s)"])
def test_each_coefficient_is_expanded_once_to_its_bound(route, field, expand_calls):
    # the coefficient at t^alpha is expanded once, to m - |alpha|: the shift
    # by t^alpha drops every term past that bound
    rng = random.Random(43)
    n = field.derivation_count
    for m in range(4):
        coeffs = {alpha: random_nonzero_base_elem(rng, field) for alpha in enumerate_multiindices(n, m)}
        c = TruncatedElement(coeffs, m, n)
        expand_calls.clear()
        route(c)
        expected = [(b, m - index_size(alpha)) for alpha, b in coeffs.items()]
        assert len(expand_calls) == len(expected), (m, expand_calls)
        for call in expand_calls:
            expected.remove(call)


def test_non_iterative_expansion_fails_check_twist(monkeypatch, capsys):
    # D_2 += D_1 in each direction is e(t + t^2): still a ring homomorphism
    # at m = 2, but not iterative, so s -> s - t no longer undoes it
    real = series.twist_expand

    def mutant(r, m):
        e = real(r, m)
        coeffs = dict(e.coeffs)
        for i in range(e.t_count):
            once = unit_index(e.t_count, i)
            twice = index_add(once, once)
            if once in coeffs:
                coeffs[twice] = coeffs[twice] + coeffs[once] if twice in coeffs else coeffs[once]
        return TruncatedElement(coeffs, e.order_bound, e.t_count)

    monkeypatch.setattr(series, "twist_expand", mutant)
    monkeypatch.setattr(checks, "twist_expand", mutant)
    rc = cli.main(["check", "twist", "--seed", "42"])
    out = capsys.readouterr().out
    assert "FAIL twist" in out
    assert rc == 1


class TestOutsideInput:
    def test_negative_key_rejected(self):
        # {(-1,): c} used to print as t1^-1
        with pytest.raises(ValueError, match="negative"):
            TruncatedElement({(-1,): BaseElem.one(Q_s)}, 2, 1)
        with pytest.raises(ValueError, match="negative"):
            TruncatedElement({(0, -1): BaseElem.one(Q_su)}, 2, 2)

    def test_negative_order_bound_rejected(self):
        with pytest.raises(ValueError, match="natural"):
            TruncatedElement({}, -1, 1)
        with pytest.raises(ValueError, match="natural"):
            TruncatedElement.zero(-1, 1)

    def test_twist_expand_rejects_a_negative_order_like_hasse_table(self):
        s = BaseElem.param(Q_s, "s")
        with pytest.raises(ValueError):
            hasse_table(s, -1)
        for r in (s, 1 / (s + 1), BaseElem.const(Q_s, 2)):
            with pytest.raises(ValueError, match="natural"):
                twist_expand(r, -1)
