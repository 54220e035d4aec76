"""The coprimality certificate of poly_gcd: images in F_P[s_v].

``_coprime_by_evaluation`` decides "the gcd is free of s_v" from the images
of both operands in F_P[s_v], with P the characteristic or, over Q, the word
prime ``_WORD_PRIME``.  It may only answer when the answer is proved: a
denominator divisible by P and a leading v-coefficient that vanishes at the
evaluation points give no certificate, and a pair that shares a factor only
mod P gets none either.  Each case below is built so that a certificate that
answered anyway would return a wrong gcd.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hsprolong import FieldDescriptor, ParamPoly, poly_gcd
from hsprolong.basefield import _WORD_PRIME, _coprime_by_evaluation, _eval_points, _residues

from test_expansion import scalars

try:
    import sympy
except ImportError:  # a test-only dependency
    sympy = None
else:
    from test_sympy_oracle import from_sympy, leading_one, to_sympy

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")

Q_s = FieldDescriptor(0, ("s",), 1)
Q_s12 = FieldDescriptor(0, ("s1", "s2"), 2)
F5_s12 = FieldDescriptor(5, ("s1", "s2"), 2)
P = _WORD_PRIME


def poly(field, terms):
    return ParamPoly(terms, field)


def one(field):
    return ParamPoly.const(field, 1)


def test_word_prime_is_a_prime_below_a_machine_word():
    from hsprolong.fields import is_prime

    assert P < 2**31 and is_prime(P)


# -- soundness against sympy ----------------------------------------------------


def univariate(max_deg):
    coeffs = st.lists(scalars(Q_s), min_size=1, max_size=max_deg + 1)
    return coeffs.map(lambda cs: poly(Q_s, {(d,): c for d, c in enumerate(cs)}))


@needs_sympy
@settings(max_examples=80, deadline=None)
@given(a=univariate(3), b=univariate(3), h=univariate(2))
def test_univariate_gcd_matches_sympy_with_a_planted_factor(a, b, h):
    f, g = a * h, b * h
    want = from_sympy(to_sympy(f).gcd(to_sympy(g)), Q_s)
    if want:
        (want,) = leading_one(want, Q_s)
    assert poly_gcd(f, g).terms == want
    if f and g and len(f.terms) > 1 and len(g.terms) > 1 and _coprime_by_evaluation(f, g, 0):
        assert max(sum(e) for e in want) == 0


def in_one_parameter(field, v, max_deg):
    """Polynomials in the parameter s_(v+1) alone, in a field with more parameters."""
    coeffs = st.lists(scalars(field), min_size=1, max_size=max_deg + 1)
    exps = [tuple(d if i == v else 0 for i in range(field.param_count)) for d in range(max_deg + 1)]
    return coeffs.map(lambda cs: poly(field, dict(zip(exps, cs))))


@needs_sympy
@pytest.mark.parametrize("field, v", [(Q_s12, 1), (F5_s12, 0)], ids=["s2 in Q(s1,s2)", "s1 in F5(s1,s2)"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_parameter_gcd_in_a_two_parameter_field_matches_sympy_with_a_planted_factor(field, v, data):
    # one-parameter pairs take the same route as every other pair
    h = data.draw(in_one_parameter(field, v, 2), label="h")
    f = data.draw(in_one_parameter(field, v, 3), label="a") * h
    g = data.draw(in_one_parameter(field, v, 3), label="b") * h
    want = from_sympy(to_sympy(f).gcd(to_sympy(g)), field)
    if want:
        (want,) = leading_one(want, field)
    got = poly_gcd(f, g)
    assert got.terms == want
    assert got.variables() <= {v}


def bivariate(field):
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = st.dictionaries(exps, scalars(field).filter(bool), min_size=2, max_size=4)
    return terms.map(lambda t: poly(field, t))


@needs_sympy
@pytest.mark.parametrize("field", [Q_s12, F5_s12], ids=["Q(s1,s2)", "F5(s1,s2)"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_certificate_is_never_given_for_a_gcd_that_has_the_variable(field, data):
    h = data.draw(bivariate(field), label="h")
    f = data.draw(bivariate(field), label="f") * h
    g = data.draw(bivariate(field), label="g") * h
    common = to_sympy(f).gcd(to_sympy(g))
    for v in range(2):
        if any(e[v] for e in f.terms) and _coprime_by_evaluation(f, g, v):
            assert common.degree(v) == 0


# -- the refusal cases --------------------------------------------------------


def test_a_denominator_divisible_by_the_word_prime_gives_no_certificate():
    # h = s/P + 1: read with 1/P as 0, f and g would be s + 3 and s + 5, coprime
    h = poly(Q_s, {(1,): Fraction(1, P), (0,): 1})
    f = h * poly(Q_s, {(1,): 1, (0,): 3})
    g = h * poly(Q_s, {(1,): 1, (0,): 5})
    assert _residues(f, P) is None
    assert not _coprime_by_evaluation(f, g, 0)
    assert poly_gcd(f, g) == poly(Q_s, {(1,): 1, (0,): P})
    # with no factor in common the exact route still finds gcd 1
    assert poly_gcd(h, poly(Q_s, {(1,): 1, (0,): 3})) == one(Q_s)


@pytest.mark.parametrize("field", [Q_s12, F5_s12], ids=["Q(s1,s2)", "F5(s1,s2)"])
def test_a_leading_coefficient_that_vanishes_at_every_point_gives_no_certificate(field):
    # lead(s2) is zero at every evaluation point, so there h = lead*s1 + 1 is
    # the constant 1 and the images of f and g share nothing at most points
    s2 = poly(field, {(0, 1): 1})
    lead = one(field)
    for point in _eval_points(field):
        lead = lead * (s2 - ParamPoly.const(field, point))
    h = lead * poly(field, {(1, 0): 1}) + one(field)
    f = h * poly(field, {(1, 0): 1, (0, 1): 1})
    g = h * poly(field, {(1, 0): 1, (0, 1): 2, (0, 0): 1})
    assert not _coprime_by_evaluation(f, g, 0)
    assert poly_gcd(f, g) == h


def test_a_pair_coprime_over_q_but_not_mod_the_word_prime_takes_the_exact_route():
    # s^2 + 1 + P and s^2 + 1 are equal mod P, so their images share everything
    f = poly(Q_s, {(2,): 1, (0,): 1 + P})
    g = poly(Q_s, {(2,): 1, (0,): 1})
    assert not _coprime_by_evaluation(f, g, 0)
    assert poly_gcd(f, g) == one(Q_s)
    # the same in two variables: the images agree at every point
    f2 = poly(Q_s12, {(2, 0): 1, (0, 1): 1, (0, 0): 1 + P})
    g2 = poly(Q_s12, {(2, 0): 1, (0, 1): 1, (0, 0): 1})
    assert not _coprime_by_evaluation(f2, g2, 0)
    assert poly_gcd(f2, g2) == one(Q_s12)


@settings(max_examples=80, deadline=None)
@given(
    terms=st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, P, 2 * P, P * P])),
        max_size=4,
    )
)
def test_residues_refuse_exactly_a_denominator_divisible_by_the_word_prime(terms):
    # the one common denominator is the lcm of the coefficients' own
    f = poly(Q_s12, terms)
    refused = any(c.denominator % P == 0 for c in f.terms.values())
    assert (_residues(f, P) is None) is refused
    if not refused:
        assert _residues(f, P) == {e: c.numerator * pow(c.denominator, -1, P) % P for e, c in f.terms.items()}


def test_a_coprime_pair_is_certified():
    f = poly(Q_s12, {(2, 0): Fraction(1, 3), (0, 1): 1, (0, 0): 1})
    g = poly(Q_s12, {(1, 0): 1, (0, 1): 2})
    assert _coprime_by_evaluation(f, g, 0)
    assert poly_gcd(f, g) == one(Q_s12)
