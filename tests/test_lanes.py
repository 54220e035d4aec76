"""Operand-shape lanes agree with the general routes.

BaseElem's + and * take one lane per operand shape: two polynomials (both
denominators 1) add or multiply their numerators, a constant, an int or a
Fraction goes through the integer-ratio lane, and only two operands with a
rational function among them take the gcd route.  Each result must equal the
BaseElem built from the unreduced cross products, ``BaseElem(num, den)``, and
be in normal form, for operands of every shape on both sides.

``termdict.mul`` builds a product with a one-term factor as one map, with no
sums and no zero filter.  That rests on two facts: every key product is
injective in each factor, and every input is zero-free.  Its result must
equal the general accumulate-then-filter loop for each key product the rings
pass it, and every input that ``check all --seed 42`` hands it must be
zero-free.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hsprolong import BaseElem, DiffPoly, LayeredPoly, ParamPoly, TruncatedElement, cli, layered, termdict
from hsprolong.checks import _random_layered, _random_truncated
from hsprolong.diffpoly import DerivationMode
from hsprolong.sampling import random_base_elem
from hsprolong.sparsepoly import monomial_mul

from test_acceptance import CHECK_ALL_SEED_42_SHA256
from test_coefficients import PROPERTY_FIELDS, assert_normal_form
from test_expansion import diffpolys, param_polys, scalars


# -- operands of every shape ------------------------------------------------------


def _nonconst(field, max_deg, max_terms):
    return param_polys(field, max_deg, max_terms).filter(lambda f: not f.is_const())


def shaped_operands(field):
    """BaseElems of each shape (zero, constant, polynomial, rational), and the
    plain operands a BaseElem takes: ints (also past p and below 0),
    Fractions with denominators prime to p, and ParamPolys."""
    p = field.characteristic
    zero = st.just(BaseElem.zero(field))
    constant = scalars(field).map(lambda c: BaseElem.const(field, c))
    polynomial = _nonconst(field, 2, 3).map(BaseElem)
    rational = st.tuples(param_polys(field, 2, 3), _nonconst(field, 1, 2)).map(lambda nd: BaseElem(*nd))
    ints = st.integers(-7, 2 * p + 2 if p else 12)
    fractions = st.builds(Fraction, st.integers(-7, 12), st.sampled_from([1, 2, 3, 4]))
    polys = param_polys(field, 2, 3)
    return st.one_of(zero, constant, polynomial, rational, ints, fractions, polys)


def raw_parts(field, x):
    """x as an unreduced (num, den) pair of parameter polynomials."""
    if isinstance(x, BaseElem):
        return x.num, x.den
    if isinstance(x, ParamPoly):
        return x, ParamPoly.const(field, 1)
    return ParamPoly.const(field, x), ParamPoly.const(field, 1)


def assert_built(got, num, den):
    assert_normal_form(got)
    want = BaseElem(num, den)
    assert (got.num, got.den) == (want.num, want.den), (got, want)


@pytest.mark.parametrize("field", PROPERTY_FIELDS.values(), ids=PROPERTY_FIELDS.keys())
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_lane_matches_the_unreduced_cross_products(field, data):
    x = data.draw(shaped_operands(field), label="x")
    y = data.draw(shaped_operands(field), label="y")
    if not isinstance(x, BaseElem) and not isinstance(y, BaseElem):
        x = BaseElem.const(field, x) if not isinstance(x, ParamPoly) else BaseElem(x)
    an, ad = raw_parts(field, x)
    bn, bd = raw_parts(field, y)
    assert_built(x + y, an * bd + bn * ad, ad * bd)
    assert_built(x - y, an * bd - bn * ad, ad * bd)
    assert_built(x * y, an * bn, ad * bd)
    equal = not (an * bd - bn * ad)
    assert (x == y) is equal and (y == x) is equal, (x, y)
    assert (x != y) is (not equal)


# -- termdict.mul's one-term lane against the general loop -------------------------


def general_mul(a, b, key):
    """The accumulate-then-filter loop over every pair of terms."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = key(k1, k2)
            if k is not None:
                out[k] = out[k] + c1 * c2 if k in out else c1 * c2
    return {k: c for k, c in out.items() if c}


@contextlib.contextmanager
def recorded_products():
    """Every termdict.mul call inside the block, as (a, b, key, result)."""
    calls = []
    real = termdict.mul

    def recorded(a, b, key):
        out = real(a, b, key)
        calls.append((dict(a), dict(b), key, out))
        return out

    termdict.mul = recorded
    try:
        yield calls
    finally:
        termdict.mul = real


def check_products(calls, key_name):
    """Each recorded product under the key product named ``key_name`` (its
    qualified name) equals the general loop, key order included, on zero-free
    inputs; at least one had a one-term factor."""
    seen = [(a, b, key, out) for a, b, key, out in calls if key.__qualname__ == key_name]
    for a, b, key, out in seen:
        assert all(a.values()) and all(b.values()), "termdict.mul given a zero coefficient"
        want = general_mul(a, b, key)
        assert out == want and list(out) == list(want), (a, b, out, want)
    assert any(len(a) == 1 or len(b) == 1 for a, b, _, _ in seen), f"no {key_name} product had a one-term factor"


@pytest.mark.parametrize("field", PROPERTY_FIELDS.values(), ids=PROPERTY_FIELDS.keys())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_term_products_of_exponent_tuples(field, data):
    f = data.draw(param_polys(field, 2, 3), label="f")
    m = data.draw(param_polys(field, 2, 1).filter(bool), label="m")
    with recorded_products() as products:
        assert f * m == m * f == ParamPoly(general_mul(f.terms, m.terms, termdict.exp_add), field)
    check_products(products, "exp_add")


@pytest.mark.parametrize("field", PROPERTY_FIELDS.values(), ids=PROPERTY_FIELDS.keys())
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_term_products_of_symbol_monomials(field, data):
    f = data.draw(diffpolys(field), label="f")
    g = data.draw(diffpolys(field).filter(bool), label="g")
    g = DiffPoly._of(field, dict([next(iter(g.terms.items()))]))
    with recorded_products() as products:
        assert f * g == g * f == DiffPoly._of(field, general_mul(f.terms, g.terms, monomial_mul))
    check_products(products, "monomial_mul")


@pytest.mark.parametrize("field", PROPERTY_FIELDS.values(), ids=PROPERTY_FIELDS.keys())
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 4))
def test_one_term_products_of_truncated_series(field, seed, m):
    rng = random.Random(seed)
    x = _random_truncated(rng, field, m)
    y = _random_truncated(rng, field, m)
    one = TruncatedElement.constant(BaseElem.param(field, 0), m, field.derivation_count)
    with recorded_products() as products:
        x * y, x * one, one * y
    check_products(products, "TruncatedElement.__mul__.<locals>.key")


@pytest.mark.parametrize("field", PROPERTY_FIELDS.values(), ids=PROPERTY_FIELDS.keys())
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(0, 4))
def test_one_term_products_of_u_shifts(field, seed, q):
    rng = random.Random(seed)
    v = {(rng.randint(0, 2), rng.randint(0, q)): random_base_elem(rng, field) for _ in range(rng.randint(1, 4))}
    s = BaseElem.param(field, 0)
    with recorded_products() as products:
        # a constant's table has one term, and so does a one-term v
        for c in (BaseElem.const(field, rng.randint(1, 4)), s, 1 / (s + 1)):
            for w in (v, {(0, 0): c}):
                layered.tensor_left_action(c, w, q)
                layered.tensor_right_action(c, w, q)
    check_products(products, "_u_shift.<locals>.key")


@pytest.mark.parametrize("field", PROPERTY_FIELDS.values(), ids=PROPERTY_FIELDS.keys())
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_one_term_products_of_expansion_tables(field, seed):
    # theta has one piece per symbol, phi and psi one per outer shift, so the
    # tables of a monomial's codes meet one-term and many-term factors
    rng = random.Random(seed)
    P, J = DerivationMode.PROLONGATION, DerivationMode.JET
    p = _random_layered(rng, field, 2, 2, P)
    j = _random_layered(rng, field, 2, 2, J)
    x = LayeredPoly.generator(field, 0, 1, 1, P)
    with recorded_products() as products:
        layered.theta(x * x), layered.theta(p * p), layered.phi(p * p, 8), layered.psi(j * j, 8)
    check_products(products, "_expand.<locals>.pair_key")


# -- the inputs of check all ----------------------------------------------------------


def test_check_all_hands_termdict_mul_zero_free_inputs():
    out = io.StringIO()
    with recorded_products() as products, contextlib.redirect_stdout(out):
        code = cli.main(["check", "all", "--seed", "42"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CHECK_ALL_SEED_42_SHA256
    zero = [(a, b, key.__qualname__) for a, b, key, _ in products if not all(a.values()) or not all(b.values())]
    assert not zero, zero[:3]
    # the tensor suite's left action passes its D_k tables through the one-term lane
    shifts = [(a, b) for a, b, key, _ in products if key.__qualname__.startswith("_u_shift.")]
    assert any(len(a) == 1 or len(b) == 1 for a, b in shifts)
    assert len(products) > 1000
