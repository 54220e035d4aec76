"""Exact coefficient arithmetic in characteristic 0 or p.

Coefficients are plain numbers with no wrapper: a normalized Fraction in
characteristic 0, an int residue in [0, p) in characteristic p.  The way in
is FieldDescriptor.ratio, the one rule for a number: an int or a Fraction
over an int denominator, as ints (a, b) with b a unit of the field.  The way
out is FieldDescriptor.scalar, the one place that builds a coefficient from
those ints; division goes through inverse, which goes through scalar,
since int / int would give a float in characteristic p.  Binomial and multinomial
coefficients are computed exactly over the integers and only then reduced,
so they are plain ints.  A characteristic is 0 or a prime below PRIME_BOUND,
where is_prime, Miller-Rabin with the first 13 primes as bases, is exact
(Sorenson and Webster, Math. Comp. 86 (2017)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < PRIME_BOUND."""
    if n <= _BASES[-1]:
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for b in _BASES:
        x = pow(b, (n - 1) >> s, n)
        # a prime n has b^d = 1, or b^(d*2^j) = -1 for some j < s
        if x != 1 and n - 1 not in (pow(x, 1 << j, n) for j in range(s)):
            return False
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """A rational function field k0(s_1..s_r) with n commuting Hasse derivations.

    Derivation i (0-based) is the standard iterative Hasse derivation with
    respect to parameter i; parameters beyond ``derivation_count`` are
    constants of every derivation.  A descriptor with ``derivation_count`` 0
    is trivial.
    """

    characteristic: int = 0
    parameter_names: tuple[str, ...] = ()
    derivation_count: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameter_names", tuple(self.parameter_names))
        if self.characteristic >= PRIME_BOUND:
            raise ValueError(f"characteristic must be below {PRIME_BOUND}, got {self.characteristic}")
        if self.characteristic != 0 and not is_prime(self.characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {self.characteristic}")
        if len(set(self.parameter_names)) != len(self.parameter_names):
            raise ValueError("parameter names must be distinct")
        if not 0 <= self.derivation_count <= len(self.parameter_names):
            raise ValueError("derivation count must not exceed the parameter count")

    def __eq__(self, other: object) -> bool:
        # the fields of one run are nearly always one object
        if self is other:
            return True
        if type(other) is not FieldDescriptor:
            return NotImplemented
        return (
            self.characteristic == other.characteristic
            and self.parameter_names == other.parameter_names
            and self.derivation_count == other.derivation_count
        )

    @property
    def param_count(self) -> int:
        return len(self.parameter_names)

    def param_index(self, name: str) -> int:
        try:
            return self.parameter_names.index(name)
        except ValueError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def ratio(self, value: int | Fraction, den: int = 1) -> tuple[int, int]:
        """The number value/den, for an int or a Fraction value and an int den,
        as ints (a, b) with value/den = a/b and b a unit of the field."""
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"{value!r} is not an int or a Fraction")
        if not isinstance(den, int):
            raise TypeError(f"denominator {den!r} is not an int")
        b = value.denominator * den
        p = self.characteristic
        if not (b % p if p else b):
            raise ZeroDivisionError(f"denominator divisible by {p}" if p else "zero denominator")
        return value.numerator, b

    def scalar(self, value: int | Fraction, den: int = 1) -> int | Fraction:
        """value/den as a coefficient: a Fraction in characteristic 0, an int in [0, p) in p."""
        a, b = self.ratio(value, den)
        p = self.characteristic
        return a * pow(b, p - 2, p) % p if p else Fraction(a, b)

    def inverse(self, c: int | Fraction) -> int | Fraction:
        """The inverse of a nonzero coefficient c of this field."""
        a, b = self.ratio(c)
        return self.scalar(b, a)  # ratio refuses the denominator a when c is zero


def binom(n: int, k: int, field: FieldDescriptor) -> int:
    """Binomial coefficient C(n, k) reduced into the field's characteristic, an int.

    Out-of-range k yields 0, matching the empty-product convention used by
    iterative composition.
    """
    if k < 0 or k > n:
        return 0
    p = field.characteristic
    return math.comb(n, k) % p if p else math.comb(n, k)


def multinomial(parts: Sequence[int]) -> int:
    """k!/(a_1!...a_r!) for k = sum(parts), as an exact natural number."""
    if not parts:
        raise ValueError("multinomial requires a nonempty sequence")
    if any(a < 1 for a in parts):
        raise ValueError("multinomial parts must be positive")
    total = math.factorial(sum(parts))
    for a in parts:
        total //= math.factorial(a)
    return total


def comp_count(alpha: Sequence[int], beta: Sequence[int]) -> int:
    """comp_coeff over the integers: the product of the binomials
    C(alpha_i + beta_i, alpha_i), a natural number not yet reduced."""
    if len(alpha) != len(beta):
        raise ValueError(f"multi-index length mismatch: {len(alpha)} vs {len(beta)}")
    acc = 1
    for a, b in zip(alpha, beta):
        acc *= math.comb(a + b, a)
    return acc


def comp_coeff(alpha: Sequence[int], beta: Sequence[int], field: FieldDescriptor) -> int:
    """The coefficient in D_alpha o D_beta = comp_coeff * D_(alpha+beta).

    comp_count(alpha, beta), computed exactly and then reduced: an int.
    """
    p = field.characteristic
    return comp_count(alpha, beta) % p if p else comp_count(alpha, beta)
