"""Differential polynomial rings: symbols x_i^(alpha) and the derivation d_alpha.

DerivationMode selects what d_alpha does to base coefficients: in
PROLONGATION mode it applies the field's derivation, in JET mode it kills
them (d_alpha c = 0 for alpha != 0).  apply_d computes canonical
representatives directly by a Leibniz convolution on the term structure; the
symbols are free, so no ideal reduction is needed.  Both folds hand
``termdict.leibniz`` the down-closed index set they truncate to: apply_d the
box below alpha, derive_each the simplex |alpha| <= m.

derive_upto is the one-pass route to every order at once: per term of f it
expands the monomial's table d_u(x^e ...), |u| <= m, over the integers from
the symbols' pieces comp_count(u, beta) * x^(beta+u), reduces each entry into
the field once, and scales it by the coefficient's table D_gamma(c),
|gamma + u| <= m (one hasse_table call).  It is the one-polynomial case of
derive_each, which derives a sequence of polynomials in one pass on symbol
codes.  Its values equal apply_d's at each alpha.  taylor_oracle recomputes
them through substitution into a truncated t-ring, as an independent
cross-check: the ``oracle`` suite compares it with apply_d, ``iterative``
apply_d twice with derive_upto, and ``leibniz`` the membership witness's sum
of apply_d terms with derive_upto of h*f.

DiffSymbol is a light value object: a ``__slots__`` class, immutable by
convention, that stores its fields, hash, sort_key and code once and is
equal only to a DiffSymbol with the same fields.  Its code is
var << 32 | graded_lex_rank(alpha), so codes sort as sort_keys do; a rank
past 32 bits raises ValueError.  The fold shifts a code's rank, and a
DiffSymbol is built only at the API boundary (``pres.symbols``, the keys of
``nabla`` and ``lift``, ``symbols()``).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

from . import basefield, termdict
from .basefield import BaseElem, hasse_table
from .fields import FieldDescriptor, comp_coeff, comp_count
from .multiindex import (
    enumerate_multiindices,
    graded_lex_key,
    graded_lex_rank,
    graded_lex_unrank,
    index_add,
    index_size,
    indices_below,
    multiindex,
    zero_index,
)
from .series import TruncatedElement, twist_expand
from .sparsepoly import SparsePoly


_RANK_BITS = 32
_RANK_MASK = (1 << _RANK_BITS) - 1


def _rank(order: Sequence[int]) -> int:
    """The graded-lex rank of order, the low field of a code; past its width it raises."""
    rank = graded_lex_rank(order)
    if rank > _RANK_MASK:
        raise ValueError(f"order {tuple(order)} is past the {_RANK_BITS}-bit rank of a symbol code")
    return rank


def var_rank(code: int) -> tuple[int, int]:
    """(var, rank of alpha) of the code of x_var^(alpha); alpha = 0 has rank 0."""
    return code >> _RANK_BITS, code & _RANK_MASK


def _text(var: int, order: Sequence[int], names: Sequence[str] | None) -> str:
    name = names[var] if names is not None else f"x{var}"
    if not any(order):
        return name
    if len(order) == 1:
        return f"d{order[0]}{name}"
    return f"d[{','.join(str(e) for e in order)}]{name}"


class DiffSymbol:
    """The symbol x_i^(alpha); alpha = 0 denotes the variable itself.  A value
    object: equal only to a DiffSymbol with the same fields."""

    __slots__ = ("var", "order", "_hash", "sort_key", "code")

    def __init__(self, var: int, order: tuple[int, ...]):
        self.var = var
        self.order = order
        self._hash = hash((var, order))
        self.sort_key = (var, graded_lex_key(order))
        self.code = var << _RANK_BITS | _rank(order)

    @staticmethod
    def decode(code: int, n: int) -> "DiffSymbol":
        """The symbol of a code in a ring with n derivations."""
        return DiffSymbol(code >> _RANK_BITS, graded_lex_unrank(code & _RANK_MASK, n))

    @staticmethod
    def code_text(code: int, n: int, names: Sequence[str] | None = None) -> str:
        """The text of the symbol of a code, written from the code."""
        return _text(code >> _RANK_BITS, graded_lex_unrank(code & _RANK_MASK, n), names)

    def fits(self, field: FieldDescriptor) -> bool:
        return len(self.order) == field.derivation_count

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DiffSymbol:
            return NotImplemented
        return self.var == other.var and self.order == other.order

    def __hash__(self) -> int:
        return self._hash

    def render(self, names: Sequence[str] | None = None) -> str:
        return _text(self.var, self.order, names)

    def __repr__(self) -> str:
        return self.render()


class DerivationMode(Enum):
    PROLONGATION = "prolong"
    JET = "jet"


class DiffPoly(SparsePoly):
    """Sparse polynomial in DiffSymbols over the base field."""

    symbol = DiffSymbol

    @classmethod
    def variable(cls, field: FieldDescriptor, var: int) -> "DiffPoly":
        return cls._of(field, {(var << _RANK_BITS,): BaseElem.one(field)})  # order 0 has rank 0


def symbol_derive(beta: Sequence[int], sym: DiffSymbol, field: FieldDescriptor) -> tuple[int, DiffSymbol]:
    """d_beta(x^(alpha)) = comp_coeff(beta, alpha) * x^(alpha+beta)."""
    beta = tuple(beta)
    c = comp_coeff(beta, sym.order, field)
    return c, DiffSymbol(sym.var, index_add(sym.order, beta))


def _fold(fs: Sequence[DiffPoly], mode: DerivationMode, closure: list, collect: Sequence, derivatives) -> list[dict]:
    """termdict.leibniz over fs, not empty, truncated to ``closure``, with the
    symbol pieces d_u(x), u in closure, and the coefficient tables
    derivatives(c) (PROLONGATION) or {0: c} (JET).  A piece's code is the
    symbol's var bits plus the rank of beta + u, listed once per rank of beta."""
    field = fs[0].field
    p, n = field.characteristic, field.derivation_count
    zero = zero_index(n)
    coeff_table = derivatives if mode is DerivationMode.PROLONGATION else lambda c: {zero: c}
    shifts: dict = {}  # rank of beta -> [(u, count, rank of beta + u)], one list for every var

    def pieces(code: int) -> list:
        # d_u(x^(beta)) = comp_count(u, beta) * x^(beta+u), where the count does not vanish
        rank = code & _RANK_MASK
        row = shifts.get(rank)
        if row is None:
            beta = graded_lex_unrank(rank, n)
            row = shifts[rank] = []
            for u in closure:
                count = comp_count(u, beta)
                if not p or count % p:
                    row.append((u, count, _rank(index_add(beta, u))))
        return [(u, count, code - rank + r) for u, count, r in row]

    return termdict.leibniz(fs, closure, collect, coeff_table, pieces, DiffPoly)


def apply_d(alpha: Sequence[int], f: DiffPoly, mode: DerivationMode) -> DiffPoly:
    """The universal derivation d_alpha applied to f, as a canonical DiffPoly.

    No order bound is enforced: the result may contain symbols of order above
    any presentation the caller has in mind, and is then read in the larger
    ring.  Bounds are the presentation layer's concern.
    """
    alpha = multiindex(alpha, f.field.derivation_count)

    # the coefficient tables D_gamma(c) over the box below alpha, each from
    # one quotient recursion over that box, read from basefield at call time
    box = indices_below(alpha)
    return _fold((f,), mode, box, (alpha,), lambda c: basefield._hasse_values(c, box))[0][alpha]


def derive_upto(f: DiffPoly, m: int, mode: DerivationMode) -> dict[tuple, DiffPoly]:
    """{alpha: d_alpha f} for every |alpha| <= m, in graded-lex order.

    One truncated Leibniz pass over f gives every order at once; each value
    equals apply_d(alpha, f, mode).  The one-polynomial case of derive_each.
    """
    return derive_each((f,), m, mode)[0]


def derive_each(fs: Sequence[DiffPoly], m: int, mode: DerivationMode) -> list[dict[tuple, DiffPoly]]:
    """derive_upto(f, m, mode) for each f of fs, polynomials over one field, in
    one truncated Leibniz pass: each symbol's pieces are built once for all
    of fs."""
    if not fs:
        return []
    alphas = enumerate_multiindices(fs[0].field.derivation_count, m)
    # hasse_table is read from the module at call time, where a test may patch it
    return _fold(fs, mode, alphas, alphas, lambda c: hasse_table(c, m))


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
    # a code's order is read off the canonical enumeration, not graded_lex_unrank as in the fold
    top, size = max((var_rank(code)[1] for mono in f.terms for code in mono), default=0), 0
    while math.comb(n + size, n) <= top:
        size += 1
    orders = enumerate_multiindices(n, size)
    for mono, coeff in f.terms.items():
        if mode is DerivationMode.JET:
            acc = TruncatedElement.constant(DiffPoly.const(field, coeff), bound, n)
        else:
            acc = below_alpha(twist_expand(coeff, bound)).map_coeffs(lambda b: DiffPoly.const(field, b))
        for code, e in termdict.runs(mono):
            var, rank = var_rank(code)
            sym = DiffSymbol(var, orders[rank])
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
