"""The layered maps behind the commuting isomorphisms, at finite truncation.

Two-layer rings arise by deriving a prolongation or jet presentation once
more: their generators d_i(delta_j x) or d_i(del_j x) are individual symbols
carrying an outer and an inner order.  This module implements

  * the two-layer expansion of an order-0 polynomial under any combination
    of outer/inner coefficient rules, and the outer derivation D_l,
  * the swap map theta between jets-of-prolongations and
    prolongations-of-jets,
  * the phi/psi pair identifying infinite prolongations of P_m and J_m,
    truncated at a hard outer bound N (overflow raises, never truncates), and
  * the two scalar actions on the twisted tensor normal forms behind the
    second commutation proof.

All layered maps work over a base field with a single derivation (or a
trivial one), matching the single-derivation setting of the isomorphism.
The checks that compare these maps live in ``hsprolong.checks``.

None of phi, psi and theta takes a symbolic product.  Each is one
``termdict.integer_map`` call: phi and psi send a symbol to an integer
combination of symbols, theta sends it to one symbol.  ``layered_expand_each``
and ``outer_derive``, the other route of the claims and theta relations,
run the same Leibniz fold with indices kept and with derivatives of the base
coefficients, each truncated to the down-closed index set it builds: the
down-closure of its tops, and the orders w <= l.  ``layered_expand_each``
reads every D_a D_b c its layers allow off one table as C(a+b, a) D_{a+b} c,
by iterativity (a JET layer allows order 0 only), while ``outer_derive``
applies D_l to coefficients that already carry D_b: so the claims' two sides
take the base derivatives by two routes.

LayeredSymbol is a light value object like DiffSymbol, with its hash,
sort_key and code stored once.  Its code packs (var, outer + inner, outer,
kind) as sort_key orders them, a 32-bit field per order and one bit for the
kind, jet before prolong; an order past its field raises ValueError.  Every
map here reads and writes codes (``_fields``, ``_code``), and a
LayeredSymbol is built only at the API boundary.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from . import basefield, termdict
from .basefield import BaseElem
from .fields import FieldDescriptor
from .diffpoly import DerivationMode, DiffPoly, var_rank
from .multiindex import down_closure, natural
from .series import twist_expand
from .sparsepoly import SparsePoly


class TruncationOverflow(ValueError):
    """An outer order would exceed the hard truncation bound N."""


_KIND_MARK = {DerivationMode.PROLONGATION: "del", DerivationMode.JET: "pd"}
# the kind bit of a code: jet before prolong, as sort_key's "jet" < "prolong"
_KINDS = (DerivationMode.JET, DerivationMode.PROLONGATION)
_BITS = 32
_MASK = (1 << _BITS) - 1


def _code(var: int, outer: int, inner: int, kind: DerivationMode) -> int:
    """The code of d_outer X_inner x_var, X the inner kind."""
    total = outer + inner
    if outer < 0 or inner < 0 or total > _MASK:
        raise ValueError(f"orders ({outer}, {inner}) are past the {_BITS}-bit fields of a symbol code")
    return ((var << _BITS | total) << _BITS | outer) << 1 | (kind is DerivationMode.PROLONGATION)


def _fields(code: int) -> tuple:
    """(var, outer, inner, kind) of a code, by arithmetic."""
    outer = code >> 1 & _MASK
    return code >> 2 * _BITS + 1, outer, (code >> _BITS + 1 & _MASK) - outer, _KINDS[code & 1]


class LayeredSymbol:
    """d_i del_j x or d_i pd_j x: outer order i, inner order j.  A value object
    like DiffSymbol: equal only to a LayeredSymbol with the same fields."""

    __slots__ = ("var", "outer", "inner", "inner_kind", "_hash", "sort_key", "code")

    def __init__(self, var: int, outer: int, inner: int, inner_kind: DerivationMode):
        self.var = var
        self.outer = outer
        self.inner = inner
        self.inner_kind = inner_kind
        self._hash = hash((var, outer, inner, inner_kind))
        self.sort_key = (var, outer + inner, outer, inner_kind.value)
        self.code = _code(var, outer, inner, inner_kind)

    @staticmethod
    def decode(code: int, n: int) -> "LayeredSymbol":
        return LayeredSymbol(*_fields(code))

    @staticmethod
    def code_text(code: int, n: int, names: Sequence[str] | None = None) -> str:
        var, outer, inner, kind = _fields(code)
        return f"d{outer}{_KIND_MARK[kind]}{inner}{names[var] if names is not None else f'x{var}'}"

    def fits(self, field: FieldDescriptor) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LayeredSymbol:
            return NotImplemented
        return self.code == other.code  # the code is the fields, packed

    def __hash__(self) -> int:
        return self._hash

    def render(self, names: Sequence[str] | None = None) -> str:
        return self.code_text(self.code, 1, names)

    def __repr__(self) -> str:
        return self.render()


class LayeredPoly(SparsePoly):
    """Sparse polynomial in LayeredSymbols over the base field."""

    symbol = LayeredSymbol

    @classmethod
    def generator(
        cls, field: FieldDescriptor, var: int, outer: int, inner: int, kind: DerivationMode
    ) -> "LayeredPoly":
        return cls.from_symbol(field, LayeredSymbol(var, outer, inner, kind))


def _d_table(l: int, c: BaseElem) -> list[BaseElem]:
    """[D_0(c), ..., D_l(c)], the orders k*e_0 of basefield's one D_alpha
    recursion, read at call time; a trivial field kills every positive order."""
    n = c.field.derivation_count
    if n == 0:
        return [c] + [BaseElem.zero(c.field)] * l
    orders = [(k,) + (0,) * (n - 1) for k in range(l + 1)]
    return list(basefield._hasse_values(c, orders).values())


def layered_expand_each(
    tops: Sequence[tuple[int, int]], h: DiffPoly, outer: DerivationMode, inner: DerivationMode
) -> dict[tuple[int, int], LayeredPoly]:
    """{(i, j): the canonical representative of u_outer,i v_inner,j (h)} for
    every (i, j) of tops, not empty, and order-0 h, from one Leibniz fold.

    The fold is truncated to the down-closure of tops, every index at or below
    some top, and the symbol pieces d_u X_v x run over the same closure.  A
    coefficient's table keeps the (a, b) of the closure that its layers allow
    (a JET layer keeps only order 0) and reads D_a D_b c = C(a+b, a) D_{a+b} c
    off one ``_d_table``, by iterativity; an entry whose binomial vanishes in
    the field drops out.
    """
    if not tops:
        raise ValueError("layered expansion needs at least one (outer, inner) order")
    closure = down_closure((natural(a), natural(b)) for a, b in tops)
    P = DerivationMode.PROLONGATION
    char = h.field.characteristic
    allowed = []  # ((a, b), a + b, C(a+b, a)) for each coefficient entry that can be nonzero
    for a, b in closure:
        n = math.comb(a + b, a)
        if (outer is P or not a) and (inner is P or not b) and (not char or n % char):
            allowed.append(((a, b), a + b, n))
    depth = allowed[-1][1]  # the closure ascends in size

    # _d_table is read from the module at call time, where a test may patch it
    def coeff_table(c: BaseElem) -> dict:
        d = _d_table(depth, c)
        return {ab: d[k] if n == 1 else d[k] * n for ab, k, n in allowed}

    def pieces(code: int) -> list:
        var, rank = var_rank(code)
        if rank:
            raise ValueError("layered expansion requires order-0 symbols")
        return [((u, v), 1, _code(var, u, v, inner)) for u, v in closure]

    return termdict.leibniz((h,), closure, list(dict.fromkeys(tops)), coeff_table, pieces, LayeredPoly)[0]


def layered_expand(
    outer_order: int,
    inner_order: int,
    h: DiffPoly,
    outer: DerivationMode,
    inner: DerivationMode,
) -> LayeredPoly:
    """The canonical representative of u_outer v_inner (h) for order-0 h.

    Additivity plus the double Leibniz convolution, with base coefficients
    handled by the outer/inner mode pair; every symbol of h must be order 0.
    The one-top case of ``layered_expand_each``.
    """
    top = (outer_order, inner_order)
    return layered_expand_each((top,), h, outer, inner)[top]


def _outer_shifts(outer: int, top: int, char: int, bound: int):
    """(k, C(outer + k, k)) for each k <= top whose binomial does not vanish in
    the field; only such a k makes a symbol, so only it can pass the bound."""
    for k in range(top + 1):
        n = math.comb(outer + k, k)
        if not char or n % char:
            if outer + k > bound:
                raise TruncationOverflow(f"outer order {outer + k} exceeds bound {bound}")
            yield k, n


def outer_derive(l: int, p: LayeredPoly, bound: int) -> LayeredPoly:
    """D_l on a layered ring: C(a+l, l)-shifts on symbols, D_l on coefficients."""
    char = p.field.characteristic
    box = [(w,) for w in range(natural(l) + 1)]

    def coeff_table(c: BaseElem) -> dict:
        return {(u,): d for u, d in enumerate(_d_table(l, c))}

    def pieces(code: int) -> list:
        var, outer, inner, kind = _fields(code)
        return [((w,), n, _code(var, outer + w, inner, kind)) for w, n in _outer_shifts(outer, l, char, bound)]

    return termdict.leibniz((p,), box, box[-1:], coeff_table, pieces, LayeredPoly)[0][(l,)]


# -- the phi / psi pair ---------------------------------------------------------


def _phi_psi(p: LayeredPoly, bound: int, sign: int, target: DerivationMode) -> LayeredPoly:
    """The ring map d_i X_j x -> D_i(sum_{k+l=j} sign^k d_k Y_l x), Y = target.

    X is the other inner kind; base coefficients are fixed.  On one symbol the
    image is the integer combination sum_k C(i+k, k) sign^k d_{i+k} Y_{j-k} x,
    so termdict.integer_map expands each monomial over the integers and scales
    by its coefficient last; no symbolic product is taken.
    """
    char = p.field.characteristic

    def pieces(code: int) -> list:
        var, outer, inner, kind = _fields(code)
        if kind is target:
            raise ValueError(f"expected no symbols with a {target.value} inner layer")
        shifts = _outer_shifts(outer, inner, char, bound)
        return [(sign**k * n, _code(var, outer + k, inner - k, target)) for k, n in shifts]

    return termdict.integer_map(p, pieces, LayeredPoly)


def phi(p: LayeredPoly, bound: int) -> LayeredPoly:
    """phi(d_i del_j x) = D_i(sum_{k+l=j} d_k pd_l x), extended as a ring map.

    Base coefficients are fixed; producing an outer order above the bound is
    an error, never a silent truncation.
    """
    return _phi_psi(p, bound, 1, DerivationMode.JET)


def psi(p: LayeredPoly, bound: int) -> LayeredPoly:
    """psi(d_i pd_j x) = D_i(sum_{k+l=j} (-1)^k D_k del_l x) as a ring map."""
    return _phi_psi(p, bound, -1, DerivationMode.PROLONGATION)


def theta(p: LayeredPoly) -> LayeredPoly:
    """The swap d_i del_j a -> del_j d_i a between the two layered rings.

    termdict.integer_map with the single piece 1 * del_j d_i a per symbol:
    distinct symbols go to distinct ones, so no two terms meet and each
    monomial keeps its coefficient, with no product and no sum.
    """

    def pieces(code: int) -> list:
        var, outer, inner, kind = _fields(code)
        if kind is not DerivationMode.PROLONGATION:
            raise ValueError("theta expects jet-of-prolongation symbols")
        return [(1, _code(var, inner, outer, DerivationMode.JET))]

    return termdict.integer_map(p, pieces, LayeredPoly)


# -- twisted tensor normal forms ----------------------------------------------------


def _u_shift(q: int):
    """Key product (i, j) x (k,) -> (i, j + k), dropping u-exponents above q."""

    def key(ij: tuple, k: tuple):
        j = ij[1] + k[0]
        return (ij[0], j) if j <= q else None

    return key


def _u_reach(v: Mapping[tuple, BaseElem], q: int) -> int:
    """The largest u-degree a scalar can add to some term of v without passing q."""
    return q - min((j for _, j in v), default=q)


def _nonzero_terms(v: Mapping[tuple, BaseElem]) -> dict:
    """v without its zero coefficients, as termdict.mul takes it."""
    return {k: x for k, x in v.items() if x}


def tensor_left_action(c: BaseElem, v: Mapping[tuple, BaseElem], q: int) -> dict:
    """Scalar action on (B (x) K_q)~ (x) K_m in normal form.

    c joins the outer t-leg and crosses the twisted tensor, depositing
    D_k(c) at u-exponent j+k; D_k comes from the quotient-rule derivatives.
    """
    # termdict.mul takes zero-free dicts; D_k(c) vanishes past a polynomial's degree
    derivatives = {(k,): d for k, d in enumerate(_d_table(_u_reach(v, q), c)) if d}
    return termdict.mul(_nonzero_terms(v), derivatives, _u_shift(q))


def tensor_right_action(c: BaseElem, v: Mapping[tuple, BaseElem], q: int) -> dict:
    """Scalar action on ((B (x) K_m) (x) K_q)~ in normal form.

    The unit map is twisted: c acts as e(c) on the u-leg, whose coefficients
    then cross two plain tensors into B.  e(c) is read off the truncated
    series ``twist_expand(c, q)``, the route independent of the left action.
    """
    return termdict.mul(_nonzero_terms(v), twist_expand(c, _u_reach(v, q)).coeffs, _u_shift(q))
