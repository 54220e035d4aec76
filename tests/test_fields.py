"""Exact coefficient arithmetic: binomials, multinomials, composition factors."""

import math
from fractions import Fraction

import pytest

from hsprolong import BaseElem, DiffPoly, FieldDescriptor, ParamPoly, binom, comp_coeff, multinomial
from hsprolong.fields import PRIME_BOUND, is_prime

Q = FieldDescriptor(0, (), 0)
Q_s = FieldDescriptor(0, ("s",), 1)
F5 = FieldDescriptor(5, ("s",), 1)
QQ2 = FieldDescriptor(0, ("a", "b"), 2)


def pascal_table(n_max):
    # independent oracle: Pascal recurrence over plain ints
    table = [[1]]
    for n in range(1, n_max + 1):
        prev = table[-1]
        row = [1] + [prev[k - 1] + (prev[k] if k < n else 0) for k in range(1, n + 1)]
        table.append(row)
    return table


def test_binom_examples():
    assert binom(4, 2, Q) == 6
    assert binom(5, 1, F5) == 0
    assert binom(2, 3, Q) == 0


def test_binom_matches_pascal():
    table = pascal_table(12)
    for n in range(13):
        for k in range(n + 1):
            assert binom(n, k, Q) == table[n][k]


def test_binom_mod_p_is_reduction_of_exact_value():
    table = pascal_table(12)
    for n in range(13):
        for k in range(n + 1):
            assert binom(n, k, F5) == table[n][k] % 5


def test_multinomial_examples():
    assert multinomial((1, 2)) == 3
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((3,)) == 1


def test_multinomial_times_factorials_is_total_factorial():
    # brute-force check over all compositions with sum <= 10
    def compositions(k):
        if k == 0:
            yield ()
            return
        for first in range(1, k + 1):
            for rest in compositions(k - first):
                yield (first,) + rest

    for k in range(1, 11):
        for parts in compositions(k):
            prod = 1
            for a in parts:
                prod *= math.factorial(a)
            assert multinomial(parts) * prod == math.factorial(k)


def test_multinomial_rejects_bad_input():
    with pytest.raises(ValueError):
        multinomial(())
    with pytest.raises(ValueError):
        multinomial((2, 0))


def test_comp_coeff_examples():
    assert comp_coeff((1,), (1,), Q_s) == 2
    assert comp_coeff((1, 0), (0, 1), QQ2) == 1
    # per-coordinate binomials, frozen from the factorial oracle:
    # C(3,2) * C(2,1) = (3!/(2!1!)) * (2!/(1!1!)) = 3 * 2 = 6
    fact = math.factorial
    oracle = (fact(3) // (fact(2) * fact(1))) * (fact(2) // (fact(1) * fact(1)))
    assert oracle == 6
    assert comp_coeff((2, 1), (1, 1), QQ2) == oracle


def test_comp_coeff_symmetry():
    for alpha in [(0, 0), (1, 2), (3, 1), (2, 2)]:
        for beta in [(0, 1), (2, 0), (1, 1), (3, 2)]:
            assert comp_coeff(alpha, beta, QQ2) == comp_coeff(beta, alpha, QQ2)


def test_comp_coeff_length_mismatch():
    with pytest.raises(ValueError):
        comp_coeff((1,), (1, 0), QQ2)


def test_scalar_arithmetic():
    a = Q.scalar(Fraction(3, 4))
    b = Q.scalar(1, 4)
    assert type(a) is Fraction and type(b) is Fraction and type(Q.scalar(2)) is Fraction
    assert a + b == 1
    assert a - b == Fraction(1, 2)
    assert a * Q.inverse(b) == 3
    assert a * 0 == 0 and not (a * 0)

    # over F5 the residues are plain ints; ParamPoly reduces sums and products
    x, y = F5.scalar(3), F5.scalar(4)
    assert type(x) is int and F5.scalar(-2) == 3 and F5.scalar(13) == 3
    assert ParamPoly.const(F5, x) + ParamPoly.const(F5, y) == ParamPoly.const(F5, 2)
    assert ParamPoly.const(F5, x) * ParamPoly.const(F5, y) == ParamPoly.const(F5, 2)
    assert F5.scalar(x * F5.inverse(y) * y) == x
    assert (ParamPoly.const(F5, x) ** 4).const_value() == pow(3, 4, 5)
    for c in range(1, 5):
        assert c * F5.inverse(c) % 5 == 1


def test_scalar_char_p_from_fraction():
    assert F5.scalar(Fraction(1, 2)) == F5.scalar(1, 2) == F5.inverse(2) == 3
    with pytest.raises(ZeroDivisionError):
        F5.scalar(Fraction(1, 5))
    with pytest.raises(ZeroDivisionError):
        F5.scalar(2, 10)
    with pytest.raises(ZeroDivisionError):
        F5.inverse(0)
    with pytest.raises(ZeroDivisionError):
        Q.inverse(Fraction(0))


def test_param_poly_reduces_char_p_coefficients():
    # the constructor is the one place a char-p coefficient is reduced
    s = (1,)
    p = ParamPoly({s: 7, (0,): 10, (2,): -1}, F5)
    assert p.terms == {s: 2, (2,): 4}
    assert all(type(c) is int and 0 <= c < 5 for c in (-p).terms.values())
    assert not ParamPoly({s: 5}, F5)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        FieldDescriptor(4, ("s",), 1)
    with pytest.raises(ValueError):
        FieldDescriptor(0, ("s", "s"), 1)
    with pytest.raises(ValueError):
        FieldDescriptor(0, ("s",), 2)


def test_is_prime_agrees_with_a_sieve_below_ten_to_the_five():
    n_max = 10**5
    sieve = [False, False] + [True] * (n_max - 2)
    for i in range(2, math.isqrt(n_max) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, n_max, i))
    assert [n for n in range(n_max) if is_prime(n)] == [n for n in range(n_max) if sieve[n]]


@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051, 318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes_to_smaller_base_sets(n):
    # a Carmichael number, then strong pseudoprimes to the first 4, 11 and 12 prime bases
    assert not is_prime(n)


def test_large_prime_characteristics_below_the_bound():
    assert is_prime(1000000000000000003) and is_prime(2**61 - 1)
    assert FieldDescriptor(1000000000000000003, ("s",), 1).characteristic == 1000000000000000003
    with pytest.raises(ValueError, match=f"characteristic must be below {PRIME_BOUND}"):
        FieldDescriptor(PRIME_BOUND, ("s",), 1)
    with pytest.raises(ValueError, match="characteristic must be below"):
        FieldDescriptor(10**4000, ("s",), 1)


# A number enters the field by one rule, FieldDescriptor.ratio: an int or a
# Fraction, over a denominator that is a unit of the field, with one text for
# each refusal.  Each entry takes the value on the right: a result, compared
# with its type, or an exception, compared with its whole text.
FLOAT = TypeError("0.5 is not an int or a Fraction")
NOT_A_UNIT_IN_F5 = ZeroDivisionError("denominator divisible by 5")
ONE_RULE = {
    "Q.scalar(0.5)": (lambda: Q.scalar(0.5), FLOAT),
    "F5.scalar(0.5)": (lambda: F5.scalar(0.5), FLOAT),
    "Q.inverse(0.5)": (lambda: Q.inverse(0.5), FLOAT),
    "ParamPoly({s: 0.5})": (lambda: ParamPoly({(1,): 0.5}, Q_s), FLOAT),
    "ParamPoly.const(Q, 0.5)": (lambda: ParamPoly.const(Q_s, 0.5), FLOAT),
    "ParamPoly.scale(0.5)": (lambda: ParamPoly.var(Q_s, 0).scale(0.5), FLOAT),
    "BaseElem.const(Q, 0.5)": (lambda: BaseElem.const(Q_s, 0.5), FLOAT),
    "DiffPoly.const(Q, 0.5)": (lambda: DiffPoly.const(Q_s, 0.5), FLOAT),
    "DiffPoly.scale(0.5)": (lambda: DiffPoly.zero(Q_s).scale(0.5), FLOAT),
    "Q.scalar(1, 0)": (lambda: Q.scalar(1, 0), ZeroDivisionError("zero denominator")),
    "F5.inverse(5)": (lambda: F5.inverse(5), NOT_A_UNIT_IN_F5),
    "Q.inverse(2)": (lambda: Q.inverse(2), Fraction(1, 2)),
    "binom over Q": (lambda: binom(4, 2, Q), 6),
    "comp_coeff over Q": (lambda: comp_coeff((1, 2), (1, 1), QQ2), 6),
}


@pytest.mark.parametrize("call, expected", ONE_RULE.values(), ids=ONE_RULE)
def test_a_number_enters_the_field_by_one_rule(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            call()
        assert str(info.value) == str(expected)
    else:
        value = call()
        assert type(value) is type(expected) and value == expected


def test_a_number_that_is_not_in_f5_meets_an_element():
    # arithmetic refuses the number, and equality is False rather than an error
    s = BaseElem.param(F5, "s")
    with pytest.raises(ZeroDivisionError, match="^denominator divisible by 5$"):
        s * Fraction(1, 5)
    assert (s == Fraction(1, 5)) is False
    assert (BaseElem.const(F5, 2) == Fraction(1, 5)) is False
    assert Fraction(1, 5) not in [s, s + 1, BaseElem.one(F5)]
