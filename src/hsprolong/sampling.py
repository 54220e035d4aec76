"""Seeded random generators for property checks.

Everything takes an explicit random.Random so identical seeds reproduce
identical streams; checks never touch global randomness.

A random parameter polynomial is drawn straight into integer numerators
``nums`` over SCALAR_DEN = 12, the lcm of the denominators 1..4 of its
coefficients (residues in characteristic p), with no Fraction and no
validating constructor; ``basefield._make`` puts the pair in canonical form.

A random polynomial is one term dict per draw: each term's monomial is the
product of its drawn factors' codes (``monomial_mul``), and ``termdict.add``
sums the drawn (monomial, coefficient) pairs and drops zeros.  The generator
calls come in the order that a chain of ring products and sums would make
them, so each draw is the value of that chain.  A rational function still
takes its one ``BaseElem(num, den)`` normalization.
"""

from __future__ import annotations

import random
from typing import Callable

from . import basefield, termdict
from .basefield import BaseElem, ParamPoly
from .fields import FieldDescriptor
from .diffpoly import DiffPoly, DiffSymbol
from .multiindex import zero_index
from .presentations import VarietyPresentation
from .sparsepoly import SparsePoly, monomial_mul


# the numerator bound of a random rational scalar, the lcm of its
# denominators 1..4, and the generator count of a random variety
SCALAR_SPAN = 6
SCALAR_DEN = 12
GEN_COUNT = 2


def random_param_poly(
    rng: random.Random,
    field: FieldDescriptor,
    max_deg: int = 2,
    max_terms: int = 3,
    nonzero: bool = False,
) -> ParamPoly:
    r, p = field.param_count, field.characteristic

    def coeff() -> int:
        # a residue in characteristic p; over Q the numerator of n/d over SCALAR_DEN
        if p:
            return rng.randrange(p)
        n = rng.randint(-SCALAR_SPAN, SCALAR_SPAN)
        return n * (SCALAR_DEN // rng.randint(1, 4))

    pairs = ((tuple(rng.randint(0, max_deg) for _ in range(r)), coeff()) for _ in range(rng.randint(0, max_terms)))
    poly = basefield._make(termdict.add({}, pairs), field, 1 if p else SCALAR_DEN)
    return ParamPoly.const(field, 1) if nonzero and not poly else poly


def random_base_elem(
    rng: random.Random,
    field: FieldDescriptor,
    max_deg: int = 2,
    max_terms: int = 2,
) -> BaseElem:
    num = random_param_poly(rng, field, max_deg, max_terms)
    if rng.random() < 0.5:
        den = random_param_poly(rng, field, max(1, max_deg - 1), 2, nonzero=True)
        return BaseElem(num, den)
    return BaseElem(num)


def random_nonzero_base_elem(rng: random.Random, field: FieldDescriptor) -> BaseElem:
    for _ in range(50):
        a = random_base_elem(rng, field)
        if a:
            return a
    return BaseElem.const(field, 1) + BaseElem.param(field, 0) if field.param_count else BaseElem.const(field, 1)


def random_multiindex(rng: random.Random, n: int, max_size: int) -> tuple:
    size = rng.randint(0, max_size)
    out = [0] * n
    for _ in range(size):
        out[rng.randrange(n)] += 1
    return tuple(out)


def random_sparse_poly(
    rng: random.Random,
    field: FieldDescriptor,
    cls: type[SparsePoly],
    max_terms: int,
    max_factors: int,
    symbol: Callable[[], object],
) -> SparsePoly:
    """1..max_terms terms, each a random base element times 0..max_factors
    symbols from ``symbol()``, which draws one symbol from the same rng."""

    def term():
        c = random_base_elem(rng, field, max_deg=1, max_terms=2)
        mono = ()
        for _ in range(rng.randint(0, max_factors)):
            mono = monomial_mul(mono, (symbol().code,))
        return mono, c

    return cls._of(field, termdict.add({}, (term() for _ in range(rng.randint(1, max_terms)))))


def random_diffpoly(
    rng: random.Random,
    field: FieldDescriptor,
    var_count: int,
    max_terms: int = 3,
    max_factors: int = 3,
    max_order: int = 1,
    order_zero_only: bool = False,
) -> DiffPoly:
    n = field.derivation_count

    def symbol():
        order = zero_index(n) if order_zero_only else random_multiindex(rng, n, max_order)
        return DiffSymbol(rng.randrange(var_count), order)

    return random_sparse_poly(rng, field, DiffPoly, max_terms, max_factors, symbol)


def random_point(rng: random.Random, field: FieldDescriptor, var_count: int) -> dict:
    return {i: random_base_elem(rng, field, max_deg=2, max_terms=2) for i in range(var_count)}


def random_variety_with_point(rng: random.Random, field: FieldDescriptor, var_count: int):
    """A presentation plus a point that provably lies on it.

    Generators have the shape (x_i - a_i) * g, which vanish at the chosen
    point by construction, so no system solving is needed.
    """
    point = random_point(rng, field, var_count)
    gens = []
    for _ in range(GEN_COUNT):
        i = rng.randrange(var_count)
        linear = DiffPoly.variable(field, i) - DiffPoly.const(field, point[i])
        g = random_diffpoly(rng, field, var_count, max_terms=2, max_factors=1, order_zero_only=True)
        gens.append(linear * g if (g and rng.random() < 0.5) else linear)
    return VarietyPresentation(field, var_count, gens), point
