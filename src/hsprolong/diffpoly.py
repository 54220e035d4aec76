"""Differential polynomial rings: symbols x_i^(alpha) and the derivation d_alpha.

DerivationMode selects what d_alpha does to base coefficients: in
PROLONGATION mode it applies the field's derivation, in JET mode it kills
them (d_alpha c = 0 for alpha != 0).  apply_d computes canonical
representatives directly by a Leibniz convolution on the term structure; the
symbols are free, so no ideal reduction is needed.

derive_upto is the one-pass route to every order at once: per term of f it
multiplies the coefficient's table D_gamma(c), |gamma| <= m (one hasse_table
call), by the symbols' tables d_u(x), |u| <= m (built once per symbol), in the
ring truncated to total size <= m, and reads d_alpha f off as the t^alpha
coefficient for every |alpha| <= m.  Its values equal apply_d's at each
alpha; both stay on the quotient rule plus Leibniz.  taylor_oracle recomputes
the same values through substitution into a truncated t-ring with the series
expansion of the coefficients, and is kept as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from . import termdict
from .basefield import hasse_derive, hasse_table
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


def _fold(f: DiffPoly, mode: DerivationMode, key, indices: list, collect: Sequence, derivatives):
    """termdict.leibniz over f with the symbol tables d_u(x), u in indices, and
    the coefficient tables derivatives(c) (PROLONGATION) or {0: c} (JET)."""
    field = f.field
    if mode is DerivationMode.JET:
        zero = zero_index(field.derivation_count)

        def coeff_table(c):
            return {zero: c}

    else:
        coeff_table = derivatives

    def pieces(sym: DiffSymbol) -> dict:
        # d_u(x^(beta)) for u in indices
        out = {}
        for u in indices:
            c, shifted = symbol_derive(u, sym, field)
            if c:
                out[u] = DiffPoly.from_symbol(field, shifted, coeff=c)
        return out

    return termdict.leibniz(f, key, collect, coeff_table, pieces, DiffPoly)


def apply_d(alpha: Sequence[int], f: DiffPoly, mode: DerivationMode) -> DiffPoly:
    """The universal derivation d_alpha applied to f, as a canonical DiffPoly.

    No order bound is enforced: the result may contain symbols of order above
    any presentation the caller has in mind, and is then read in the larger
    ring.  Bounds are the presentation layer's concern.
    """
    alpha = tuple(alpha)
    if len(alpha) != f.field.derivation_count:
        raise ValueError("multi-index length does not match the derivation count")
    below = indices_below(alpha)

    def derivatives(c):
        return {g: hasse_derive(g, c) for g in below}

    return _fold(f, mode, termdict.box_key(alpha), below, (alpha,), derivatives)[alpha]


def derive_upto(f: DiffPoly, m: int, mode: DerivationMode) -> dict[tuple, DiffPoly]:
    """{alpha: d_alpha f} for every |alpha| <= m, in graded-lex order.

    One truncated Leibniz pass over f gives every order at once; each value
    equals apply_d(alpha, f, mode).
    """
    alphas = enumerate_multiindices(f.field.derivation_count, m)
    return _fold(f, mode, termdict.size_key(m), alphas, alphas, lambda c: hasse_table(c, m))


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
