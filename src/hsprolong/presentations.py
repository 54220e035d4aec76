"""Affine varieties as generator lists and their prolongation/jet presentations.

A variety presentation holds order-0 generators f_j in K[x_1..x_q]; the
order-m presentation adjoins the symbols x_i^(alpha) for |alpha| <= m and the
derived generators d_alpha f_j.  Everything here is presentation-level data:
symbol lists and generator lists in the canonical graded-lex order, plus the
point-level section nabla, projections, morphism lifts, base change, and the
Leibniz cofactor witnesses for membership of d_alpha(h f) in the derived
ideal.

Every order at once: prolong_presentation and lift_morphism expand each
generator or image in one truncated Leibniz pass (derive_upto), which yields
d_alpha f for all |alpha| <= m together, and nabla takes each coordinate's
derivatives D_alpha(a_i), |alpha| <= m, from one quotient-rule table
(hasse_table).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

from .basefield import BaseElem, ParamPoly, hasse_table
from .fields import FieldDescriptor
from .multiindex import (
    enumerate_multiindices,
    index_size,
    splittings,
    zero_index,
)
from .diffpoly import DerivationMode, DiffPoly, DiffSymbol, apply_d, derive_upto


class PointNotOnVariety(ValueError):
    """Raised when a nabla precondition fails; carries the offending generator."""

    def __init__(self, gen_index: int, generator: DiffPoly, value: BaseElem):
        self.gen_index = gen_index
        self.generator = generator
        self.value = value
        super().__init__(
            f"point is not on the variety: generator #{gen_index} "
            f"({generator.render()}) evaluates to {value.render()}"
        )


@dataclass
class VarietyPresentation:
    """X inside affine q-space, presented by order-0 generators."""

    field: FieldDescriptor
    var_count: int
    generators: list[DiffPoly] = dc_field(default_factory=list)

    def __post_init__(self) -> None:
        n = self.field.derivation_count
        for j, g in enumerate(self.generators):
            for sym in g.symbols():
                if sym.var >= self.var_count:
                    raise ValueError(f"generator #{j} uses undeclared variable index {sym.var}")
                if any(sym.order) or len(sym.order) != n:
                    raise ValueError(f"generator #{j} must only use order-0 symbols")

    def point_assignment(self, point: Mapping[int, BaseElem]) -> dict[DiffSymbol, BaseElem]:
        n = self.field.derivation_count
        out = {}
        for i in range(self.var_count):
            if i not in point:
                raise ValueError(f"point assignment is missing variable index {i}")
            out[DiffSymbol(i, zero_index(n))] = point[i]
        return out


@dataclass
class ProlongationPresentation:
    """P_m(X) or J_m(X): symbols x_i^(alpha) and generators d_alpha f_j."""

    base: VarietyPresentation
    order: int
    mode: DerivationMode
    symbols: list[DiffSymbol]
    generators: list[DiffPoly]

    @property
    def field(self) -> FieldDescriptor:
        return self.base.field

    def generator_index(self, alpha: tuple, j: int) -> int:
        alphas = enumerate_multiindices(self.field.derivation_count, self.order)
        return alphas.index(tuple(alpha)) * len(self.base.generators) + j


def prolong_presentation(
    variety: VarietyPresentation, m: int, mode: DerivationMode
) -> ProlongationPresentation:
    """Generators d_alpha f_j for all |alpha| <= m, in graded-lex order."""
    n = variety.field.derivation_count
    alphas = enumerate_multiindices(n, m)
    symbols = [
        DiffSymbol(i, a) for i in range(variety.var_count) for a in alphas
    ]
    tables = [derive_upto(g, m, mode) for g in variety.generators]
    generators = [t[alpha] for alpha in alphas for t in tables]
    return ProlongationPresentation(variety, m, mode, symbols, generators)


def nabla(
    variety: VarietyPresentation, m: int, point: Mapping[int, BaseElem]
) -> dict[DiffSymbol, BaseElem]:
    """The section x_i^(alpha) -> D_alpha(a_i) over a point on the variety."""
    assignment = variety.point_assignment(point)
    for j, g in enumerate(variety.generators):
        value = g.evaluate(assignment)
        if value:
            raise PointNotOnVariety(j, g, value)
    alphas = enumerate_multiindices(variety.field.derivation_count, m)
    out = {}
    for i in range(variety.var_count):
        table = hasse_table(point[i], m)
        for alpha in alphas:
            out[DiffSymbol(i, alpha)] = table[alpha]
    return out


def point_projection(
    values: Mapping[DiffSymbol, BaseElem], m_low: int
) -> dict[DiffSymbol, BaseElem]:
    """pi_{m m'} on points: forget coordinates with |alpha| > m'."""
    return {s: v for s, v in values.items() if index_size(s.order) <= m_low}


def point_to_base(values: Mapping[DiffSymbol, BaseElem]) -> dict[int, BaseElem]:
    """pi_{m 0}: the underlying point of the variety."""
    return {s.var: v for s, v in values.items() if not any(s.order)}


def lift_morphism(
    images: Mapping[int, DiffPoly], m: int, mode: DerivationMode
) -> dict[DiffSymbol, DiffPoly]:
    """Lift y_j -> f_j(x) to prolongations: d_alpha y_j -> d_alpha f_j."""
    if not images:
        return {}
    some = next(iter(images.values()))
    n = some.field.derivation_count
    for j, f in images.items():
        for sym in f.symbols():
            if any(sym.order):
                raise ValueError(f"morphism image for variable {j} must be order-0")
    tables = {j: derive_upto(f, m, mode) for j, f in images.items()}
    return {
        DiffSymbol(j, alpha): t[alpha]
        for alpha in enumerate_multiindices(n, m)
        for j, t in tables.items()
    }


def apply_lift(lift: Mapping[DiffSymbol, DiffPoly], g: DiffPoly) -> DiffPoly:
    """Substitute lifted symbol images into a polynomial over the target symbols."""

    def image(sym: DiffSymbol) -> DiffPoly:
        if sym not in lift:
            raise ValueError(f"lift does not cover symbol {sym}")
        return lift[sym]

    return g.substitute(image)


def ideal_membership_witness(
    alpha: Sequence[int], h: DiffPoly, f: DiffPoly, mode: DerivationMode
) -> list[tuple[DiffPoly, tuple]]:
    """Cofactors exhibiting d_alpha(h f) = sum d_beta(h) * d_gamma(f).

    Returns (cofactor, gamma) pairs, gamma naming the derived generator
    d_gamma f; the identity itself is an exact Leibniz expansion.
    """
    out = []
    for beta, gamma in splittings(alpha):
        cof = apply_d(beta, h, mode)
        if cof:
            out.append((cof, gamma))
    return out


def projection_restrict(
    pres: ProlongationPresentation, m_low: int
) -> ProlongationPresentation:
    """Restriction to orders <= m_low; inverse limit structure of the tower."""
    if m_low > pres.order:
        raise ValueError(f"cannot restrict order {pres.order} presentation to {m_low}")
    symbols = [s for s in pres.symbols if index_size(s.order) <= m_low]
    keep = len(enumerate_multiindices(pres.field.derivation_count, m_low))
    g_per_alpha = len(pres.base.generators)
    generators = pres.generators[: keep * g_per_alpha]
    return ProlongationPresentation(pres.base, m_low, pres.mode, symbols, generators)


# -- base change ---------------------------------------------------------------


def _compatible_extension(src: FieldDescriptor, dst: FieldDescriptor) -> None:
    if src.characteristic != dst.characteristic:
        raise ValueError("base change must preserve the characteristic")
    if not set(src.parameter_names) <= set(dst.parameter_names):
        raise ValueError("extension field must contain all source parameters")
    n = src.derivation_count
    if n == 0:
        return
    if dst.derivation_count != n or dst.parameter_names[:n] != src.parameter_names[:n]:
        raise ValueError("extension field must carry the same derivations")


def _remap_param_poly(p: ParamPoly, dst: FieldDescriptor) -> ParamPoly:
    src = p.field
    pos = [dst.param_index(name) for name in src.parameter_names]
    out = {}
    for exps, c in p.terms.items():
        ne = [0] * dst.param_count
        for i, e in enumerate(exps):
            ne[pos[i]] = e
        out[tuple(ne)] = dst.scalar(c.value)
    return ParamPoly(out, dst)


def base_change_elem(a: BaseElem, dst: FieldDescriptor) -> BaseElem:
    return BaseElem(_remap_param_poly(a.num, dst), _remap_param_poly(a.den, dst))


def base_change_poly(f: DiffPoly, dst: FieldDescriptor) -> DiffPoly:
    """Reinterpret coefficients in the extension field, keeping symbols."""
    n_src = f.field.derivation_count
    n_dst = dst.derivation_count
    out = {}
    for mono, coeff in f.terms.items():
        if n_src == n_dst:
            nm = mono
        else:
            # only a trivial source can change derivation count; orders are all 0
            nm = tuple((DiffSymbol(s.var, zero_index(n_dst)), e) for s, e in mono)
        out[nm] = base_change_elem(coeff, dst)
    return DiffPoly(out, dst)


def base_change(variety: VarietyPresentation, dst: FieldDescriptor) -> VarietyPresentation:
    """Extend scalars of the presentation to a compatible extension field."""
    _compatible_extension(variety.field, dst)
    gens = [base_change_poly(g, dst) for g in variety.generators]
    return VarietyPresentation(dst, variety.var_count, gens)


# -- rendering -----------------------------------------------------------------


def render_presentation(
    pres: ProlongationPresentation, names: Sequence[str] | None = None
) -> str:
    lines = [
        f"P_m mode={pres.mode.value} vars={pres.base.var_count} "
        f"derivations={pres.field.derivation_count} order={pres.order}"
    ]
    for s in pres.symbols:
        lines.append(f"symbol {s.render(names)}")
    for g in pres.generators:
        lines.append(f"generator {g.render(names)}")
    return "\n".join(lines)


def presentation_to_json(
    pres: ProlongationPresentation, names: Sequence[str] | None = None
) -> dict:
    return {
        "mode": pres.mode.value,
        "vars": pres.base.var_count,
        "derivations": pres.field.derivation_count,
        "order": pres.order,
        "symbols": [s.render(names) for s in pres.symbols],
        "generators": [g.render(names) for g in pres.generators],
    }
