"""An independent oracle for the gcd normal form and the Hasse derivatives.

``poly_gcd`` and the ``BaseElem`` normal form (gcd cancelled, denominator
scaled to graded-lex leading coefficient 1) are checked against sympy's
polynomial gcd over QQ and GF(5), which shares no code with this package.
Both routes to D_alpha (``hasse_table`` and the ``twist_expand``
coefficients) are checked against sympy's ``diff(expr, s_i, k) / k!`` over QQ.
sympy is a test-only dependency; the module is skipped without it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hsprolong import BaseElem, ParamPoly, enumerate_multiindices, poly_divexact, poly_gcd, twist_expand
from hsprolong.basefield import hasse_table

from test_expansion import FIELDS, base_elems, scalars

sympy = pytest.importorskip("sympy")

ORACLE_FIELDS = {name: FIELDS[name] for name in ("Q(s1,s2)", "F5(s)")}


def to_sympy(poly):
    gens = sympy.symbols(poly.field.parameter_names)
    p = poly.field.characteristic
    terms = {e: c if p else sympy.Rational(c.numerator, c.denominator) for e, c in poly.terms.items()}
    domain = {"modulus": p} if p else {"domain": sympy.QQ}
    return sympy.Poly.from_dict(terms or {(0,) * len(gens): 0}, *gens, **domain)


def from_sympy(poly, field):
    """Back to {exponents: coefficient}, with coefficients in this package's form."""
    p = field.characteristic
    out = {}
    for e, c in poly.terms():
        r = poly.domain.to_sympy(c)
        out[tuple(e)] = int(r) % p if p else Fraction(int(r.p), int(r.q))
    return {e: c for e, c in out.items() if c}


def leading_one(terms, field, *others):
    """Scale terms (and others alike) so the graded-lex leading coefficient is 1."""
    lead = max(terms, key=lambda e: (sum(e), e))
    inv = field.inverse(terms[lead])
    p = field.characteristic
    return [
        {e: (c * inv) % p if p else c * inv for e, c in t.items()}
        for t in (terms, *others)
    ]


def binomials_or_more(field, max_deg):
    """Polynomials of two to four terms, so never monomials."""
    exps = st.tuples(*[st.integers(0, max_deg)] * field.param_count)
    terms = st.dictionaries(exps, scalars(field).filter(bool), min_size=2, max_size=4)
    return terms.map(lambda t: ParamPoly(t, field))


@pytest.mark.parametrize("field", ORACLE_FIELDS.values(), ids=ORACLE_FIELDS.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_poly_gcd_matches_sympy(field, data):
    # f and g share a factor h and are never monomials, which reaches the
    # remainder sequence over one parameter and over two, and its content
    h = data.draw(binomials_or_more(field, 1), label="h1") * data.draw(
        binomials_or_more(field, 1), label="h2"
    )
    f = data.draw(binomials_or_more(field, 2), label="f") * h
    g = data.draw(binomials_or_more(field, 2), label="g") * h
    want = from_sympy(to_sympy(f).gcd(to_sympy(g)), field)
    (want,) = leading_one(want, field)
    assert poly_gcd(f, g).terms == want


@pytest.mark.parametrize("field", ORACLE_FIELDS.values(), ids=ORACLE_FIELDS.keys())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_base_elem_normal_form_matches_sympy(field, data):
    a = data.draw(base_elems(field), label="a")
    b = data.draw(base_elems(field), label="b")
    h = data.draw(binomials_or_more(field, 1), label="h")
    cases = [(a.num * h, a.den * h, a), (a.num * b.num, a.den * b.den, a * b),
             (a.num * b.den + b.num * a.den, a.den * b.den, a + b)]
    for num, den, got in cases:
        if not den:
            continue
        if not num:
            assert not got
            continue
        n, d = to_sympy(num), to_sympy(den)
        common = n.gcd(d)
        want_num, want_den = from_sympy(n.exquo(common), field), from_sympy(d.exquo(common), field)
        want_den, want_num = leading_one(want_den, field, want_num)
        elem = BaseElem(num, den)
        assert (elem.num.terms, elem.den.terms) == (want_num, want_den)
        assert elem == got


@pytest.mark.parametrize("field", ORACLE_FIELDS.values(), ids=ORACLE_FIELDS.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_poly_divexact_matches_sympy_div(field, data):
    # over Q the division runs on integer numerators and the divisor's
    # primitive part; the fractional coefficients draw contents and denominators
    q = data.draw(binomials_or_more(field, 2), label="q")
    g = data.draw(binomials_or_more(field, 2), label="g")
    f = q * g
    want, rem = sympy.div(to_sympy(f), to_sympy(g))
    assert rem.is_zero
    got = poly_divexact(f, g)
    assert got.terms == from_sympy(want, field)
    assert got == q


# -- Hasse derivatives against sympy's diff ------------------------------------

DIFF_FIELDS = {name: FIELDS[name] for name in ("Q(s)", "Q(s1,s2)")}


def to_expr(elem):
    """A BaseElem as a sympy expression num/den over QQ."""
    gens = sympy.symbols(elem.field.parameter_names)

    def poly(p):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(g**e for g, e in zip(gens, exps)))
             for exps, c in p.terms.items()),
            sympy.Integer(0),
        )

    return poly(elem.num) / poly(elem.den)


def sympy_hasse(alpha, expr, field):
    """diff(expr, s_i, k) / k! for each family i, then cancel."""
    gens = sympy.symbols(field.parameter_names)
    for i, k in enumerate(alpha):
        if k:
            expr = sympy.diff(expr, gens[i], k) / sympy.factorial(k)
    return sympy.cancel(expr)


@pytest.mark.parametrize("field", DIFF_FIELDS.values(), ids=DIFF_FIELDS.keys())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hasse_derivatives_match_sympy_diff(field, data):
    a = data.draw(base_elems(field), label="a")
    m = data.draw(st.integers(0, 3), label="m")
    table = hasse_table(a, m)
    series = twist_expand(a, m)
    zero = BaseElem.zero(field)
    expr = to_expr(a)
    for alpha in enumerate_multiindices(field.derivation_count, m):
        want = sympy_hasse(alpha, expr, field)
        for got in (table[alpha], series.coeff_or(alpha, zero)):
            assert sympy.cancel(to_expr(got) - want) == 0, (a, alpha, got, want)
