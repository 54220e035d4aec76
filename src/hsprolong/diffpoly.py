"""Differential polynomial rings: symbols x_i^(alpha) and the derivation d_alpha.

DerivationMode selects what d_alpha does to base coefficients: in
PROLONGATION mode it applies the field's derivation, in JET mode it kills
them (d_alpha c = 0 for alpha != 0).  apply_d computes canonical
representatives directly by a Leibniz convolution on the term structure; the
symbols are free, so no ideal reduction is needed.  taylor_oracle recomputes
the same values through substitution into a truncated t-ring and is kept as
an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from . import termdict
from .basefield import hasse_derive
from .fields import FieldDescriptor, Scalar, comp_coeff
from .multiindex import (
    enumerate_multiindices,
    graded_lex_key,
    index_add,
    index_size,
    indices_below,
    zero_index,
)
from .series import TruncatedElement
from .sparsepoly import SparsePoly


@dataclass(frozen=True)
class DiffSymbol:
    """The symbol x_i^(alpha); alpha = 0 denotes the variable itself."""

    var: int
    order: tuple[int, ...]

    @property
    def sort_key(self):
        return (self.var, graded_lex_key(self.order))

    def render(self, names: Sequence[str] | None = None) -> str:
        name = names[self.var] if names is not None else f"x{self.var}"
        if not any(self.order):
            return name
        if len(self.order) == 1:
            return f"d{self.order[0]}{name}"
        return f"d[{','.join(str(e) for e in self.order)}]{name}"

    def __repr__(self) -> str:
        return self.render()


class DerivationMode(Enum):
    PROLONGATION = "prolong"
    JET = "jet"


class DiffPoly(SparsePoly):
    """Sparse polynomial in DiffSymbols over the base field."""

    @classmethod
    def variable(cls, field: FieldDescriptor, var: int) -> "DiffPoly":
        return cls.from_symbol(field, DiffSymbol(var, zero_index(field.derivation_count)))

    def max_order(self) -> int:
        return max((index_size(s.order) for s in self.symbols()), default=0)


def symbol_derive(beta: Sequence[int], sym: DiffSymbol, field: FieldDescriptor) -> tuple[Scalar, DiffSymbol]:
    """d_beta(x^(alpha)) = comp_coeff(beta, alpha) * x^(alpha+beta)."""
    beta = tuple(beta)
    c = comp_coeff(beta, sym.order, field)
    return c, DiffSymbol(sym.var, index_add(sym.order, beta))


def apply_d(alpha: Sequence[int], f: DiffPoly, mode: DerivationMode) -> DiffPoly:
    """The universal derivation d_alpha applied to f, as a canonical DiffPoly.

    No order bound is enforced: the result may contain symbols of order above
    any presentation the caller has in mind, and is then read in the larger
    ring.  Bounds are the presentation layer's concern.
    """
    field = f.field
    alpha = tuple(alpha)
    if len(alpha) != field.derivation_count:
        raise ValueError("multi-index length does not match the derivation count")
    below = indices_below(alpha)
    if mode is DerivationMode.JET:
        zero = zero_index(len(alpha))

        def coeff_table(c):
            return {zero: c}

    else:

        def coeff_table(c):
            return {g: hasse_derive(g, c) for g in below}

    def pieces(sym: DiffSymbol) -> dict:
        # d_u(x^(beta)) for u <= alpha
        out = {}
        for u in below:
            c, shifted = symbol_derive(u, sym, field)
            if c:
                out[u] = DiffPoly.from_symbol(field, shifted, coeff=c)
        return out

    return termdict.leibniz(f, alpha, coeff_table, pieces, DiffPoly)


def taylor_oracle(alpha: Sequence[int], f: DiffPoly, mode: DerivationMode) -> DiffPoly:
    """d_alpha f recomputed by Taylor substitution into the truncated t-ring.

    Every symbol is replaced by its full expansion sum comp_coeff * x^(b+g) t^g
    and every coefficient by its twisted expansion (or constant embedding in
    JET mode); the t^alpha coefficient of the expanded product is the answer.
    """
    field = f.field
    alpha = tuple(alpha)
    n = field.derivation_count
    if len(alpha) != n:
        raise ValueError("multi-index length does not match the derivation count")
    bound = index_size(alpha)
    zero = DiffPoly.zero(field)
    if not f:
        return zero
    total = TruncatedElement.zero(bound, n)
    gammas = enumerate_multiindices(n, bound)
    for mono, coeff in f.terms.items():
        if mode is DerivationMode.JET:
            acc = TruncatedElement.constant(DiffPoly.const(field, coeff), bound, n)
        else:
            from .series import twist_expand

            acc = twist_expand(coeff, bound).map_coeffs(lambda b: DiffPoly.const(field, b))
        for sym, e in mono:
            expansion = TruncatedElement(
                {
                    g: DiffPoly.from_symbol(field, shifted, coeff=c)
                    for g in gammas
                    for c, shifted in (symbol_derive(g, sym, field),)
                    if c
                },
                bound,
                n,
            )
            acc = acc * expansion**e
        total = total + acc
    return total.coeff_or(alpha, zero)
