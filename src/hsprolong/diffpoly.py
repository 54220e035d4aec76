"""Differential polynomial rings: symbols x_i^(alpha) and the derivation d_alpha.

DerivationMode selects what d_alpha does to base coefficients: in
PROLONGATION mode it applies the field's derivation, in JET mode it kills
them (d_alpha c = 0 for alpha != 0).  apply_d computes canonical
representatives directly by a Leibniz convolution on the term structure; the
symbols are free, so no ideal reduction is needed.

derive_upto is the one-pass route to every order at once: per term of f it
expands the monomial's table d_u(x^e ...), |u| <= m, over the integers from
the symbols' pieces comp_count(u, beta) * x^(beta+u) (built once per symbol),
reduces each entry into the field once, and scales it by the coefficient's
table D_gamma(c), |gamma + u| <= m (one hasse_table call), reading d_alpha f
off as the t^alpha coefficient for every |alpha| <= m.  It is the
one-polynomial case of derive_each, which derives a sequence of polynomials
in one pass: the pieces, their powers and the output monomials are built
once for the sequence, and each piece's DiffSymbol comes from one table
(var, order) -> DiffSymbol, which a caller may pass in and so share with the
symbols it builds itself.  Its values equal
apply_d's at each alpha; both stay on the quotient rule plus Leibniz.
taylor_oracle recomputes the same values through substitution into a
truncated t-ring with the series expansion of the coefficients, and is kept
as an independent cross-check.  The check suites compare the routes: the
``oracle`` suite apply_d with taylor_oracle, ``iterative`` apply_d applied
twice with derive_upto, and ``leibniz`` the membership witness's sum of
apply_d terms with derive_upto of h*f.

DiffSymbol is a light value object: a plain ``__slots__`` class, immutable by
convention like ParamPoly and BaseElem, that stores its fields, hash and
sort_key once in ``__init__`` and is equal only to a DiffSymbol with the same
fields.  The fold's pieces take their symbols from a per-call table, so each
one is built once per call.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Sequence

from . import termdict
from .basefield import _hasse_values, hasse_table
from .fields import FieldDescriptor, comp_coeff, comp_count
from .multiindex import (
    enumerate_multiindices,
    graded_lex_key,
    index_add,
    index_size,
    indices_below,
    multiindex,
    zero_index,
)
from .series import TruncatedElement, twist_expand
from .sparsepoly import SparsePoly


class DiffSymbol:
    """The symbol x_i^(alpha); alpha = 0 denotes the variable itself.

    A value object, immutable by convention: equal to a DiffSymbol with the
    same fields and to nothing else.  Symbols key every term dict, so the hash
    and sort_key are computed once, here.
    """

    __slots__ = ("var", "order", "_hash", "sort_key")

    def __init__(self, var: int, order: tuple[int, ...]):
        self.var = var
        self.order = order
        self._hash = hash((var, order))
        self.sort_key = (var, graded_lex_key(order))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DiffSymbol:
            return NotImplemented
        return self.var == other.var and self.order == other.order

    def __hash__(self) -> int:
        return self._hash

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


def symbol_derive(beta: Sequence[int], sym: DiffSymbol, field: FieldDescriptor) -> tuple[int | Fraction, DiffSymbol]:
    """d_beta(x^(alpha)) = comp_coeff(beta, alpha) * x^(alpha+beta)."""
    beta = tuple(beta)
    c = comp_coeff(beta, sym.order, field)
    return c, DiffSymbol(sym.var, index_add(sym.order, beta))


def _fold(
    fs: Sequence[DiffPoly], mode: DerivationMode, key, indices: list, collect: Sequence, derivatives,
    symbols: dict | None = None,
) -> list[dict]:
    """termdict.leibniz over fs, not empty, with the symbol pieces d_u(x), u in
    indices, and the coefficient tables derivatives(c) (PROLONGATION) or
    {0: c} (JET).

    The shifts (u, comp_count(u, beta), beta + u) are listed once per order
    beta, and the pieces take their symbols from ``symbols``, a table
    (var, order) -> DiffSymbol that the call fills, so each symbol is built
    once however many pieces and polynomials it stands in; a caller that
    builds symbols of its own passes the table it built them in."""
    field = fs[0].field
    if mode is DerivationMode.JET:
        zero = zero_index(field.derivation_count)

        def coeff_table(c):
            return {zero: c}

    else:
        coeff_table = derivatives

    p = field.characteristic
    if symbols is None:
        symbols = {}
    shifts: dict = {}  # beta -> [(u, n, beta + u)], one list for all the symbols of order beta

    def pieces(sym: DiffSymbol) -> dict:
        # d_u(x^(beta)) = comp_count(u, beta) * x^(beta+u), kept where the
        # count n does not vanish in the field
        beta = sym.order
        row = shifts.get(beta)
        if row is None:
            row = shifts[beta] = []
            for u in indices:
                n = comp_count(u, beta)
                if not p or n % p:
                    row.append((u, n, index_add(beta, u)))
        out = {}
        for u, n, order in row:
            k = (sym.var, order)
            y = symbols.get(k)
            if y is None:
                y = symbols[k] = DiffSymbol(*k)
            out[u] = (n, y)
        return out

    return termdict.leibniz(fs, key, collect, coeff_table, pieces, DiffPoly)


def apply_d(alpha: Sequence[int], f: DiffPoly, mode: DerivationMode) -> DiffPoly:
    """The universal derivation d_alpha applied to f, as a canonical DiffPoly.

    No order bound is enforced: the result may contain symbols of order above
    any presentation the caller has in mind, and is then read in the larger
    ring.  Bounds are the presentation layer's concern.
    """
    alpha = multiindex(alpha, f.field.derivation_count)

    # the coefficient tables D_gamma(c) over the box below alpha, each from
    # one quotient recursion over that box
    box = indices_below(alpha)
    return _fold((f,), mode, termdict.box_key(alpha), box, (alpha,), lambda c: _hasse_values(c, box))[0][alpha]


def derive_upto(f: DiffPoly, m: int, mode: DerivationMode) -> dict[tuple, DiffPoly]:
    """{alpha: d_alpha f} for every |alpha| <= m, in graded-lex order.

    One truncated Leibniz pass over f gives every order at once; each value
    equals apply_d(alpha, f, mode).  The one-polynomial case of derive_each.
    """
    return derive_each((f,), m, mode)[0]


def derive_each(
    fs: Sequence[DiffPoly], m: int, mode: DerivationMode, symbols: dict | None = None
) -> list[dict[tuple, DiffPoly]]:
    """derive_upto(f, m, mode) for each f of fs, polynomials over one field, in
    one truncated Leibniz pass: the symbols, their pieces and the powers of
    the pieces are built once for all of fs.  ``symbols``, if given, is the
    table (var, order) -> DiffSymbol the pieces take their symbols from."""
    if not fs:
        return []
    alphas = enumerate_multiindices(fs[0].field.derivation_count, m)
    # hasse_table is read from the module at call time, where a test may patch it
    return _fold(fs, mode, termdict.size_key(m), alphas, alphas, lambda c: hasse_table(c, m), symbols)


def taylor_oracle(alpha: Sequence[int], f: DiffPoly, mode: DerivationMode) -> DiffPoly:
    """d_alpha f recomputed by Taylor substitution into the truncated t-ring.

    Every symbol is replaced by its expansion sum comp_coeff * x^(b+g) t^g
    and every coefficient by its twisted expansion (or constant embedding in
    JET mode); the t^alpha coefficient of the expanded product is the answer.
    Only a t^g with g <= alpha can reach t^alpha, so the ring is
    B[t]/(t_i^(alpha_i+1)): the expansions run over the box below alpha, and
    each partial product drops its terms that are not <= alpha.
    """
    field = f.field
    n = field.derivation_count
    alpha = multiindex(alpha, n)
    bound = index_size(alpha)
    zero = DiffPoly.zero(field)
    if not f:
        return zero

    def below_alpha(x: TruncatedElement) -> TruncatedElement:
        # its own test of g <= alpha, shared with no other route
        kept = {g: c for g, c in x.coeffs.items() if all(a <= b for a, b in zip(g, alpha))}
        return TruncatedElement._of(kept, bound, n)

    total = TruncatedElement.zero(bound, n)
    gammas = indices_below(alpha)
    for mono, coeff in f.terms.items():
        if mode is DerivationMode.JET:
            acc = TruncatedElement.constant(DiffPoly.const(field, coeff), bound, n)
        else:
            acc = below_alpha(twist_expand(coeff, bound)).map_coeffs(lambda b: DiffPoly.const(field, b))
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
            for _ in range(e):
                acc = below_alpha(acc * expansion)
        total = total + acc
    return total.coeff_or(alpha, zero)
