"""Seeded random generators for property checks.

Everything takes an explicit random.Random so identical seeds reproduce
identical streams; checks never touch global randomness.
"""

from __future__ import annotations

import random
from fractions import Fraction
from .basefield import BaseElem, ParamPoly
from .fields import FieldDescriptor
from .diffpoly import DiffPoly, DiffSymbol
from .multiindex import zero_index


def random_scalar(rng: random.Random, field: FieldDescriptor, span: int = 6):
    if field.characteristic:
        return field.scalar(rng.randrange(field.characteristic))
    return field.scalar(Fraction(rng.randint(-span, span), rng.randint(1, 4)))


def random_param_poly(
    rng: random.Random,
    field: FieldDescriptor,
    max_deg: int = 2,
    max_terms: int = 3,
    nonzero: bool = False,
) -> ParamPoly:
    r = field.param_count
    out = ParamPoly.zero(field)
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(r))
        out = out + ParamPoly.monomial(field, exps, random_scalar(rng, field))
    if nonzero and not out:
        return ParamPoly.const(field, 1)
    return out


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
    out = DiffPoly.zero(field)
    for _ in range(rng.randint(1, max_terms)):
        term = DiffPoly.const(field, random_base_elem(rng, field, max_deg=1, max_terms=2))
        for _ in range(rng.randint(0, max_factors)):
            order = zero_index(n) if order_zero_only else random_multiindex(rng, n, max_order)
            sym = DiffSymbol(rng.randrange(var_count), order)
            term = term * DiffPoly.from_symbol(field, sym)
        out = out + term
    return out


def random_point(rng: random.Random, field: FieldDescriptor, var_count: int) -> dict:
    return {i: random_base_elem(rng, field, max_deg=2, max_terms=2) for i in range(var_count)}


def random_variety_with_point(
    rng: random.Random, field: FieldDescriptor, var_count: int, gen_count: int = 2
):
    """A presentation plus a point that provably lies on it.

    Generators have the shape (x_i - a_i) * g, which vanish at the chosen
    point by construction, so no system solving is needed.
    """
    from .presentations import VarietyPresentation

    point = random_point(rng, field, var_count)
    gens = []
    for _ in range(gen_count):
        i = rng.randrange(var_count)
        linear = DiffPoly.variable(field, i) - DiffPoly.const(field, point[i])
        g = random_diffpoly(rng, field, var_count, max_terms=2, max_factors=1, order_zero_only=True)
        gens.append(linear * g if (g and rng.random() < 0.5) else linear)
    return VarietyPresentation(field, var_count, gens), point
