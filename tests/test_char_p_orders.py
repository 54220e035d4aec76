"""Hasse derivatives at orders k >= p in characteristic p.

There D_k differs from d^k/k!: D_k(s^n) = C(n, k) s^(n-k), and C(n, k) mod p
is read off the base-p digits of n and k by Lucas' theorem.  The expected
values here come from those digits and a Pascal triangle mod p, never from
``binom`` or ``math.comb``; the CLI outputs were pinned from an earlier,
independent build.  On quotients, ``hasse_table`` is checked against
``twist_expand``, the series route that takes no binomial at all, and
against the Q route reduced mod p, whose binomials are integers until the
reduction.
"""

import math

import pytest
from hypothesis import Phase, assume, event, given, reject, settings, strategies as st

from hsprolong import FieldDescriptor, basefield, cli
from hsprolong.basefield import BaseElem, ParamPoly, hasse_derive, hasse_table
from hsprolong.series import twist_expand

PRIMES = (2, 3, 5)


def pascal_mod(p: int) -> list[list[int]]:
    """Rows 0..p-1 of Pascal's triangle mod p."""
    rows = [[1]]
    for _ in range(p - 1):
        prev = rows[-1]
        rows.append([1] + [(a + b) % p for a, b in zip(prev, prev[1:])] + [1])
    return rows


def lucas(n: int, k: int, p: int) -> int:
    """C(n, k) mod p as the product of C(n_i, k_i) over base-p digits."""
    rows = pascal_mod(p)
    out = 1
    while n or k:
        n, ni = divmod(n, p)
        k, ki = divmod(k, p)
        out = out * (rows[ni][ki] if ki <= ni else 0) % p
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_hasse_of_a_monomial_follows_lucas(data):
    p = data.draw(st.sampled_from(PRIMES))
    n = data.draw(st.integers(p, p**3))
    k = data.draw(st.integers(0, 2 * p))
    field = FieldDescriptor(p, ("s",), 1)
    got = ParamPoly.monomial(field, (n,)).hasse(0, k)
    c = lucas(n, k, p) if k <= n else 0
    assert got == (ParamPoly.monomial(field, (n - k,), c) if c else ParamPoly.zero(field))


@pytest.mark.parametrize("p", PRIMES)
def test_hasse_is_nonzero_at_order_p_on_s_to_the_p(p):
    # D_p(s^p) = 1: the one value a "D_k = 0 for k >= p" shortcut gets wrong first
    field = FieldDescriptor(p, ("s",), 1)
    assert ParamPoly.monomial(field, (p,)).hasse(0, p) == ParamPoly.const(field, 1)


# (document, command, stdout) in characteristic 5, 2 and 3 at an order >= p
PINNED = [
    ("char 5; params s; derivations 1; vars x; gens x - s^6; point x = s^6;", ["prolong", "--order", "5"],
     "P_m mode=prolong vars=1 derivations=1 order=5\nsymbol x\nsymbol d1x\nsymbol d2x\nsymbol d3x\n"
     "symbol d4x\nsymbol d5x\ngenerator x + 4*s^6\ngenerator d1x + 4*s^5\ngenerator d2x\n"
     "generator d3x\ngenerator d4x\ngenerator d5x + 4*s\n"),
    ("char 5; params s; derivations 1; vars x; gens x - s^6; point x = s^6;", ["nabla", "--order", "6"],
     "nabla order=6\nx = s^6\nd1x = s^5\nd2x = 0\nd3x = 0\nd4x = 0\nd5x = s\nd6x = 1\nON-VARIETY: yes\n"),
    ("char 2; params s; derivations 1; vars x; gens x - s^3; point x = s^3;", ["prolong", "--order", "3"],
     "P_m mode=prolong vars=1 derivations=1 order=3\nsymbol x\nsymbol d1x\nsymbol d2x\nsymbol d3x\n"
     "generator x + s^3\ngenerator d1x + s^2\ngenerator d2x + s\ngenerator d3x + 1\n"),
    ("char 2; params s; derivations 1; vars x; gens x - s^3; point x = s^3;", ["nabla", "--order", "3"],
     "nabla order=3\nx = s^3\nd1x = s^2\nd2x = s\nd3x = 1\nON-VARIETY: yes\n"),
    ("char 3; params s; derivations 1; vars x; gens x - s^4; point x = s^4;", ["prolong", "--order", "3"],
     "P_m mode=prolong vars=1 derivations=1 order=3\nsymbol x\nsymbol d1x\nsymbol d2x\nsymbol d3x\n"
     "generator x + 2*s^4\ngenerator d1x + 2*s^3\ngenerator d2x\ngenerator d3x + 2*s\n"),
    ("char 3; params s; derivations 1; vars x; gens x - s^4; point x = s^4;", ["nabla", "--order", "3"],
     "nabla order=3\nx = s^4\nd1x = s^3\nd2x = 0\nd3x = s\nON-VARIETY: yes\n"),
]


@pytest.mark.parametrize("doc, argv, stdout", PINNED, ids=[f"F{d[5]}-{a[0]}" for d, a, _ in PINNED])
def test_outputs_at_orders_past_the_characteristic(tmp_path, capsys, doc, argv, stdout):
    path = tmp_path / "doc.txt"
    path.write_text(doc + "\n", encoding="utf-8")
    assert cli.main([*argv, str(path)]) == 0
    assert capsys.readouterr().out == stdout


_hasse = ParamPoly.hasse


def _hasse_zero_past_p(self, i, k):
    p = self.field.characteristic
    return ParamPoly.zero(self.field) if p and k >= p else _hasse(self, i, k)


def _binom_last_digit(n, k, field):
    # Lucas' first factor alone: C(n mod p, k mod p)
    p = field.characteristic
    if k < 0 or k > n:
        return field.scalar(0)
    return field.scalar(math.comb(n % p, k % p) if p else math.comb(n, k))


MUTANTS = pytest.mark.parametrize("owner, name, mutant", [
    (ParamPoly, "hasse", _hasse_zero_past_p),
    (basefield, "binom", _binom_last_digit),
], ids=["hasse-zero-past-p", "binom-last-digit"])


@MUTANTS
def test_check_all_catches_a_defect_past_the_characteristic(monkeypatch, capsys, owner, name, mutant):
    monkeypatch.setattr(owner, name, mutant)
    assert cli.main(["check", "all", "--seed", "42"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL iterative-char-p ")


@st.composite
def quotients_past_p(draw):
    """(c, p): c = num/den in lowest terms over F2, F3 or F5 with one
    derivation, deg num >= p and den nonconstant."""
    p = draw(st.sampled_from(PRIMES))
    field = FieldDescriptor(p, ("s",), 1)

    def poly(low, high):
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=low, max_size=high))
        return ParamPoly({(e,): c for e, c in enumerate([*coeffs, draw(st.integers(1, p - 1))])}, field)

    c = BaseElem(poly(p, 2 * p + 1), poly(1, 2))
    assume(c.num.degree() >= p and not c.den.is_const())
    return c, p


def assert_table_matches_twist(c, m):
    table = hasse_table(c, m)
    assert {a: v for a, v in table.items() if v} == twist_expand(c, m).coeffs


@settings(max_examples=60, deadline=None)
@given(case=quotients_past_p(), data=st.data())
def test_hasse_table_matches_twist_expand_past_p(case, data):
    # the quotient recursion against the shift-and-invert series, at orders up to 2p
    c, p = case
    assert_table_matches_twist(c, data.draw(st.integers(p, 2 * p)))


@MUTANTS
def test_the_twist_property_catches_a_defect_past_the_characteristic(monkeypatch, owner, name, mutant):
    monkeypatch.setattr(owner, name, mutant)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True, phases=[Phase.generate])
    @given(case=quotients_past_p())
    def under_mutant(case):
        c, p = case
        assert_table_matches_twist(c, 2 * p)

    with pytest.raises(AssertionError):
        under_mutant()


@settings(max_examples=30, deadline=None)
@given(case=quotients_past_p())
def test_iterativity_past_p(case):
    # D_a D_b = C(a+b, a) D_(a+b) for all a, b >= 1 with a + b <= 2p; among
    # them a = 1, b = p - 1, where C(p, 1) = 0 and D_1 D_(p-1) must vanish
    c, p = case
    for b in range(1, 2 * p):
        d_b = hasse_derive((b,), c)
        for a in range(1, 2 * p - b + 1):
            assert hasse_derive((a,), d_b) == hasse_derive((a + b,), c) * lucas(a + b, a, p), (a, b)


# Hasse derivatives are defined over Z, so reduction mod p commutes with them:
# for c over Q(s) with integer coefficients, D_k(c) mapped coefficientwise into
# F_p(s) by FieldDescriptor.scalar is D_k of the image of c.

Q_S = FieldDescriptor(0, ("s",), 1)


@st.composite
def integer_quotients(draw):
    """(c, p): c = num/den over Q(s) with integer coefficients, deg num in
    p..2p+1 and den monic of degree 1 or 2, for p in PRIMES."""
    p = draw(st.sampled_from(PRIMES))
    ints = st.integers(-3 * p, 3 * p)
    top = draw(st.lists(ints, min_size=p, max_size=2 * p + 1)) + [draw(ints.filter(bool))]
    low = draw(st.lists(ints, min_size=1, max_size=2)) + [1]
    num, den = (ParamPoly({(e,): c for e, c in enumerate(cs)}, Q_S) for cs in (top, low))
    return BaseElem(num, den), p


def reduce_mod(x, fp):
    """x with each coefficient mapped into fp by FieldDescriptor.scalar, or None
    when a coefficient's denominator or x's denominator vanishes there."""
    try:
        num, den = (ParamPoly({e: fp.scalar(c) for e, c in q.terms.items()}, fp) for q in (x.num, x.den))
    except ZeroDivisionError:
        return None
    return BaseElem(num, den) if den else None


def mismatches(c, p):
    """The multi-indices alpha, |alpha| <= 2p+1, at which D_alpha(c) reduced
    mod p is not D_alpha of c reduced, or None when a value does not reduce."""
    fp = FieldDescriptor(p, ("s",), 1)
    reduced = {alpha: reduce_mod(v, fp) for alpha, v in hasse_table(c, 2 * p + 1).items()}
    if any(v is None for v in reduced.values()):
        return None
    table = hasse_table(reduced[(0,)], 2 * p + 1)  # D_0(c) is c
    return [alpha for alpha, v in reduced.items() if v != table[alpha]]


@settings(max_examples=60, deadline=None)
@given(case=integer_quotients())
def test_reduction_mod_p_commutes_with_hasse_table(case):
    found = mismatches(*case)
    if found is None:
        event("a value does not reduce mod p")
        reject()
    assert found == []


@MUTANTS
def test_the_reduction_property_catches_a_defect_past_the_characteristic(monkeypatch, owner, name, mutant):
    monkeypatch.setattr(owner, name, mutant)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True, phases=[Phase.generate])
    @given(case=integer_quotients())
    def under_mutant(case):
        assert not mismatches(*case)

    with pytest.raises(AssertionError):
        under_mutant()
