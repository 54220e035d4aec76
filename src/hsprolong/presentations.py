"""Affine varieties as generator lists and their prolongation/jet presentations.

A variety presentation holds order-0 generators f_j in K[x_1..x_q]; the
order-m presentation adjoins the symbols x_i^(alpha) for |alpha| <= m and the
derived generators d_alpha f_j.  Everything here is presentation-level data:
symbol lists and generator lists in the canonical graded-lex order, plus the
point-level section nabla, projections, morphism lifts, base change, and the
Leibniz cofactor witnesses for membership of d_alpha(h f) in the derived
ideal.

Every order at once, in one pass: prolong_presentation and lift_morphism
expand all their generators or images in one truncated Leibniz pass on
symbol codes (derive_each), so each builds only the DiffSymbols it returns:
the symbol list, or the lift's keys.  Generators are validated on their
codes.  nabla takes each coordinate's derivatives D_alpha(a_i), |alpha| <= m,
from one quotient-rule table (hasse_table).

Text: render_presentation and presentation_to_json write the symbol lines
into a table keyed by code, then all the generators in one
sparsepoly.render_polys call that reads it, so each symbol and each
D_gamma(c) is written once.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

from .basefield import BaseElem, ParamPoly, _make, hasse_table
from .fields import FieldDescriptor
from .multiindex import (
    enumerate_multiindices,
    index_size,
    splittings,
    zero_index,
)
from .diffpoly import DerivationMode, DiffPoly, DiffSymbol, apply_d, derive_each, var_rank
from .sparsepoly import render_polys


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
        for j, g in enumerate(self.generators):
            if g.field != self.field:
                raise ValueError(f"generator #{j} is over another field than the variety")
            for var, rank in map(var_rank, {code for mono in g.terms for code in mono}):
                if var >= self.var_count:
                    raise ValueError(f"generator #{j} uses undeclared variable index {var}")
                if rank:
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


def prolong_presentation(
    variety: VarietyPresentation, m: int, mode: DerivationMode
) -> ProlongationPresentation:
    """Generators d_alpha f_j for all |alpha| <= m, in graded-lex order."""
    alphas = enumerate_multiindices(variety.field.derivation_count, m)
    symbols = [DiffSymbol(i, a) for i in range(variety.var_count) for a in alphas]
    tables = derive_each(variety.generators, m, mode)
    generators = [t[alpha] for alpha in alphas for t in tables]
    return ProlongationPresentation(variety, m, mode, symbols, generators)


def nabla(
    variety: VarietyPresentation, m: int, point: Mapping[int, BaseElem]
) -> dict[DiffSymbol, BaseElem]:
    """The section x_i^(alpha) -> D_alpha(a_i) over a point on the variety,
    its symbols in sort_key order: by variable, then alpha in graded-lex order."""
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
    for j, f in images.items():
        if any(var_rank(code)[1] for mono in f.terms for code in mono):
            raise ValueError(f"morphism image for variable {j} must be order-0")
    alphas = enumerate_multiindices(next(iter(images.values())).field.derivation_count, m)
    tables = derive_each(list(images.values()), m, mode)
    return {DiffSymbol(j, alpha): t[alpha] for alpha in alphas for j, t in zip(images, tables)}


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
    """p over dst: a renaming of the keys of its numerators, over the same denominator."""
    pos = [dst.param_index(name) for name in p.field.parameter_names]
    out = {}
    for exps, c in p.nums.items():
        ne = [0] * dst.param_count
        for i, e in enumerate(exps):
            ne[pos[i]] = e
        out[tuple(ne)] = c
    return _make(out, dst, p.den)


def base_change_elem(a: BaseElem, dst: FieldDescriptor) -> BaseElem:
    """a over dst; a renaming keeps num and den coprime, so only the monic rescale is left."""
    return BaseElem._raw(_remap_param_poly(a.num, dst), _remap_param_poly(a.den, dst))


def base_change_poly(f: DiffPoly, dst: FieldDescriptor) -> DiffPoly:
    """Reinterpret coefficients in the extension field, keeping symbols: only a
    trivial source can change the derivation count, its orders are all 0, and
    an order-0 code is the same for every count."""
    return DiffPoly._of(dst, {mono: base_change_elem(coeff, dst) for mono, coeff in f.terms.items()})


def base_change(variety: VarietyPresentation, dst: FieldDescriptor) -> VarietyPresentation:
    """Extend scalars of the presentation to a compatible extension field."""
    _compatible_extension(variety.field, dst)
    gens = [base_change_poly(g, dst) for g in variety.generators]
    return VarietyPresentation(dst, variety.var_count, gens)


# -- rendering -----------------------------------------------------------------


def _texts(pres: ProlongationPresentation, names: Sequence[str] | None) -> tuple[list[str], list[str]]:
    """The texts of the symbols and of the generators, each symbol written once
    for both."""
    symbol_text = {s.code: s.render(names) for s in pres.symbols}
    return [symbol_text[s.code] for s in pres.symbols], render_polys(pres.generators, names, symbol_text)


def render_presentation(
    pres: ProlongationPresentation, names: Sequence[str] | None = None
) -> str:
    lines = [
        f"P_m mode={pres.mode.value} vars={pres.base.var_count} "
        f"derivations={pres.field.derivation_count} order={pres.order}"
    ]
    symbols, generators = _texts(pres, names)
    lines += [f"symbol {text}" for text in symbols]
    lines += [f"generator {text}" for text in generators]
    return "\n".join(lines)


def presentation_to_json(
    pres: ProlongationPresentation, names: Sequence[str] | None = None
) -> dict:
    symbols, generators = _texts(pres, names)
    return {
        "mode": pres.mode.value,
        "vars": pres.base.var_count,
        "derivations": pres.field.derivation_count,
        "order": pres.order,
        "symbols": symbols,
        "generators": generators,
    }
