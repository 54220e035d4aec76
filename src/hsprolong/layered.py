"""Machine verification of the layered isomorphisms at finite truncation.

Two-layer rings arise by deriving a prolongation or jet presentation once
more: their generators d_i(delta_j x) or d_i(del_j x) are individual symbols
carrying an outer and an inner order.  This module implements

  * the two-layer expansion of an order-0 polynomial under any combination
    of outer/inner coefficient rules,
  * the swap map theta between jets-of-prolongations and
    prolongations-of-jets,
  * the phi/psi pair identifying infinite prolongations of P_m and J_m,
    truncated at a hard outer bound N (overflow raises, never truncates),
  * the twisted tensor normal forms behind the second commutation proof, and
  * ordered partitions with the alternating multinomial identity.

All layered maps work over a base field with a single derivation (or a
trivial one), matching the single-derivation setting of the isomorphism.

None of phi, psi and theta takes a symbolic product.  phi and psi send a
symbol to an integer combination of symbols, so ``termdict.integer_map``
expands each monomial's image over the integers and multiplies the base
coefficient in last; theta sends each symbol to one symbol and only relabels
monomials.  They share no step with ``layered_expand`` and ``outer_derive``,
the other route of the claims and theta relations checked here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import termdict
from .basefield import BaseElem, _family_table, hasse_derive
from .fields import FieldDescriptor, multinomial
from .diffpoly import DerivationMode, DiffPoly
from .multiindex import indices_below
from .series import TruncatedElement, twist_expand, twist_inverse
from .sparsepoly import SparsePoly
from .sampling import random_base_elem, random_diffpoly, random_nonzero_base_elem


class TruncationOverflow(ValueError):
    """An outer order would exceed the hard truncation bound N."""


_KIND_MARK = {DerivationMode.PROLONGATION: "del", DerivationMode.JET: "pd"}


@dataclass(frozen=True)
class LayeredSymbol:
    """d_i del_j x or d_i pd_j x: outer order i, inner order j."""

    var: int
    outer: int
    inner: int
    inner_kind: DerivationMode

    def __post_init__(self) -> None:
        # symbols key every term dict: hash and sort_key are computed once, here
        object.__setattr__(self, "_hash", hash((self.var, self.outer, self.inner, self.inner_kind)))
        object.__setattr__(self, "sort_key", (self.var, self.outer + self.inner, self.outer, self.inner_kind.value))

    def __hash__(self) -> int:
        return self._hash

    def render(self, names: Sequence[str] | None = None) -> str:
        name = names[self.var] if names is not None else f"x{self.var}"
        return f"d{self.outer}{_KIND_MARK[self.inner_kind]}{self.inner}{name}"

    def __repr__(self) -> str:
        return self.render()


class LayeredPoly(SparsePoly):
    """Sparse polynomial in LayeredSymbols over the base field."""

    @classmethod
    def generator(
        cls, field: FieldDescriptor, var: int, outer: int, inner: int, kind: DerivationMode
    ) -> "LayeredPoly":
        return cls.from_symbol(field, LayeredSymbol(var, outer, inner, kind))


def _d_table(l: int, c: BaseElem) -> list[BaseElem]:
    """[D_0(c), ..., D_l(c)] on base coefficients, from one quotient-rule pass;
    a trivial field kills every positive order."""
    if c.field.derivation_count == 0:
        return [c] + [BaseElem.zero(c.field)] * l
    return _family_table(0, l, c)


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
    """
    top = (outer_order, inner_order)
    box = indices_below(top)
    P = DerivationMode.PROLONGATION

    def coeff_table(c: BaseElem) -> dict:
        # a JET layer keeps only order 0 of the base coefficient
        inner_values = _d_table(inner_order, c) if inner is P else [c]
        return {
            (a, b): d
            for b, v in enumerate(inner_values)
            for a, d in enumerate(_d_table(outer_order, v) if outer is P else [v])
        }

    def pieces(sym) -> dict:
        if any(sym.order):
            raise ValueError("layered expansion requires order-0 symbols")
        return {(u, v): (1, LayeredSymbol(sym.var, u, v, inner)) for u, v in box}

    out = termdict.leibniz(h, termdict.box_key(top), (top,), coeff_table, pieces, LayeredPoly)
    return out[top]


def _check_outer(order: int, bound: int) -> None:
    if order > bound:
        raise TruncationOverflow(f"outer order {order} exceeds bound {bound}")


def outer_derive(l: int, p: LayeredPoly, bound: int) -> LayeredPoly:
    """D_l on a layered ring: C(a+l, l)-shifts on symbols, D_l on coefficients."""
    char = p.field.characteristic

    def coeff_table(c: BaseElem) -> dict:
        return {(u,): d for u, d in enumerate(_d_table(l, c))}

    def pieces(sym: LayeredSymbol) -> dict:
        # a count that vanishes in the field makes no symbol, so it cannot overflow
        out = {}
        for w in range(l + 1):
            n = math.comb(sym.outer + w, w)
            if not char or n % char:
                _check_outer(sym.outer + w, bound)
                out[(w,)] = (n, LayeredSymbol(sym.var, sym.outer + w, sym.inner, sym.inner_kind))
        return out

    top = (l,)
    out = termdict.leibniz(p, termdict.box_key(top), (top,), coeff_table, pieces, LayeredPoly)
    return out[top]


# -- the phi / psi pair ---------------------------------------------------------


def _phi_psi(p: LayeredPoly, bound: int, sign: int, target: DerivationMode) -> LayeredPoly:
    """The ring map d_i X_j x -> D_i(sum_{k+l=j} sign^k d_k Y_l x), Y = target.

    X is the other inner kind; base coefficients are fixed.  On one symbol the
    image is the integer combination sum_k C(i+k, k) sign^k d_{i+k} Y_{j-k} x,
    so termdict.integer_map expands each monomial over the integers and scales
    by its coefficient last; no symbolic product is taken.
    """
    char = p.field.characteristic

    def pieces(sym: LayeredSymbol) -> dict:
        if sym.inner_kind is target:
            raise ValueError(f"expected no symbols with a {target.value} inner layer")
        # a binomial that vanishes in the field makes no symbol, so it cannot overflow
        out = {}
        for k in range(sym.inner + 1):
            n = math.comb(sym.outer + k, k)
            if not char or n % char:
                _check_outer(sym.outer + k, bound)
                out[(k,)] = (sign**k * n, LayeredSymbol(sym.var, sym.outer + k, sym.inner - k, target))
        return out

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

    theta sends each symbol to one symbol, and distinct symbols to distinct
    ones, so it relabels monomials: each is re-sorted by sort_key and keeps
    its coefficient, with no product and no sum.
    """
    swapped: dict = {}

    def swap(sym: LayeredSymbol) -> LayeredSymbol:
        out = swapped.get(sym)
        if out is None:
            if sym.inner_kind is not DerivationMode.PROLONGATION:
                raise ValueError("theta expects jet-of-prolongation symbols")
            out = swapped[sym] = LayeredSymbol(sym.var, sym.inner, sym.outer, DerivationMode.JET)
        return out

    return LayeredPoly._of(
        p.field,
        {
            tuple(sorted(((swap(sym), e) for sym, e in mono), key=_factor_key)): c
            for mono, c in p.terms.items()
        },
    )


def _factor_key(factor: tuple):
    return factor[0].sort_key


# -- report-producing checks ------------------------------------------------------


def report_passed(lines: Sequence[str]) -> bool:
    return all(not line.startswith("FAIL") for line in lines)


def check_phi_psi_inverse(
    bound: int,
    m: int,
    trials: int,
    seed: int,
    field: FieldDescriptor | None = None,
) -> list[str]:
    """Generator sweep and randomized verification that phi and psi invert.

    Sweeps every layered generator with outer order <= bound - m and inner
    order <= m, round-trips random layered polynomials, checks that phi is
    multiplicative, and verifies Claims 1-2 on random order-0 polynomials.
    """
    if field is None:
        field = FieldDescriptor(0, ("s",), 1)
    rng = random.Random(seed)
    lines: list[str] = []
    P, J = DerivationMode.PROLONGATION, DerivationMode.JET

    bad = None
    for i in range(bound - m + 1):
        for j in range(m + 1):
            g = LayeredPoly.generator(field, 0, i, j, P)
            if psi(phi(g, bound), bound) != g:
                bad = (i, j, "psi.phi")
                break
            gj = LayeredPoly.generator(field, 0, i, j, J)
            if phi(psi(gj, bound), bound) != gj:
                bad = (i, j, "phi.psi")
                break
        if bad:
            break
    if bad:
        lines.append(f"FAIL phi-psi-sweep at={bad} lhs=roundtrip rhs=identity")
    else:
        lines.append(f"OK phi-psi-sweep params=N={bound},m={m} trials={(bound - m + 1) * (m + 1)}")

    for t in range(trials):
        p = _random_layered(rng, field, bound - m, m, P)
        q = _random_layered(rng, field, bound - m, m, P)
        if psi(phi(p, bound), bound) != p:
            lines.append(f"FAIL phi-psi-roundtrip at=trial{t} lhs={psi(phi(p, bound), bound)} rhs={p}")
            break
        if phi(p * q, bound) != phi(p, bound) * phi(q, bound):
            lines.append(f"FAIL phi-multiplicative at=trial{t} lhs={phi(p * q, bound)} rhs=product")
            break
    else:
        lines.append(f"OK phi-psi-random params=N={bound},m={m} trials={trials}")

    for t in range(trials):
        h = random_diffpoly(rng, field, var_count=2, max_terms=2, max_factors=2, order_zero_only=True)
        i = rng.randint(0, max(0, bound - m))
        j = rng.randint(0, m)
        lhs1 = phi(layered_expand(i, j, h, P, P), bound)
        rhs1 = LayeredPoly.zero(field)
        for k in range(j + 1):
            rhs1 = rhs1 + layered_expand(k, j - k, h, P, J)
        rhs1 = outer_derive(i, rhs1, bound)
        if lhs1 != rhs1:
            lines.append(f"FAIL claim1 at=trial{t},i={i},j={j},h={h} lhs={lhs1} rhs={rhs1}")
            break
        lhs2 = psi(layered_expand(i, j, h, P, J), bound)
        rhs2 = LayeredPoly.zero(field)
        minus = field.scalar(-1)
        for k in range(j + 1):
            rhs2 = rhs2 + layered_expand(k, j - k, h, P, P).scale(minus**k)
        rhs2 = outer_derive(i, rhs2, bound)
        if lhs2 != rhs2:
            lines.append(f"FAIL claim2 at=trial{t},i={i},j={j},h={h} lhs={lhs2} rhs={rhs2}")
            break
    else:
        lines.append(f"OK phi-psi-claims params=N={bound},m={m} trials={trials}")
    return lines


def _random_layered(
    rng: random.Random, field: FieldDescriptor, max_outer: int, max_inner: int, kind: DerivationMode
) -> LayeredPoly:
    out = LayeredPoly.zero(field)
    for _ in range(rng.randint(1, 3)):
        term = LayeredPoly.const(field, random_base_elem(rng, field, max_deg=1, max_terms=2))
        for _ in range(rng.randint(0, 2)):
            sym = LayeredSymbol(rng.randrange(2), rng.randint(0, max_outer), rng.randint(0, max_inner), kind)
            term = term * LayeredPoly.from_symbol(field, sym)
        out = out + term
    return out


def check_theta_relations(m: int, q: int, variety) -> list[str]:
    """theta(d_i del_j f) = del_j d_i f for every generator and i <= m, j <= q."""
    P, J = DerivationMode.PROLONGATION, DerivationMode.JET
    lines: list[str] = []
    checked = 0
    for gi, f in enumerate(variety.generators):
        for i in range(m + 1):
            for j in range(q + 1):
                lhs = theta(layered_expand(i, j, f, outer=J, inner=P))
                rhs = layered_expand(j, i, f, outer=P, inner=J)
                checked += 1
                if lhs != rhs:
                    lines.append(
                        f"FAIL theta at=(i={i},j={j},gen={gi}) lhs={lhs} rhs={rhs}"
                    )
                    return lines
    lines.append(f"OK theta params=m={m},q={q},gens={len(variety.generators)} trials={checked}")
    return lines


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


def tensor_left_action(c: BaseElem, v: Mapping[tuple, BaseElem], q: int) -> dict:
    """Scalar action on (B (x) K_q)~ (x) K_m in normal form.

    c joins the outer t-leg and crosses the twisted tensor, depositing
    D_k(c) at u-exponent j+k; D_k comes from the quotient-rule derivatives.
    """
    derivatives = {(k,): d for k, d in enumerate(_d_table(_u_reach(v, q), c))}
    return termdict.mul(v, derivatives, _u_shift(q))


def tensor_right_action(c: BaseElem, v: Mapping[tuple, BaseElem], q: int) -> dict:
    """Scalar action on ((B (x) K_m) (x) K_q)~ in normal form.

    The unit map is twisted: c acts as e(c) on the u-leg, whose coefficients
    then cross two plain tensors into B.  e(c) is read off the truncated
    series ``twist_expand(c, q)``, the route independent of the left action.
    """
    return termdict.mul(v, twist_expand(c, _u_reach(v, q)).coeffs, _u_shift(q))


def twisted_tensor_check(
    m: int, q: int, samples: int, seed: int, field: FieldDescriptor | None = None
) -> list[str]:
    """K-linearity and surjectivity of the tensor swap, on random normal forms.

    In normal form the swap b (x) u^j (x) t^i -> b (x) t^i (x) u^j is the
    identity on (t, u) keys, so linearity compares the quotient-rule left
    action with the series right action directly.
    """
    if field is None:
        field = FieldDescriptor(0, ("s",), 1)
    if field.derivation_count != 1:
        raise ValueError("the tensor check runs over a single-derivation field")
    rng = random.Random(seed)
    lines: list[str] = []

    for t in range(samples):
        v = {
            (rng.randint(0, m), rng.randint(0, q)): random_base_elem(rng, field)
            for _ in range(rng.randint(1, 3))
        }
        v = {k: b for k, b in v.items() if b}
        c = random_base_elem(rng, field)
        c2 = random_base_elem(rng, field)
        lhs = tensor_left_action(c, v, q)
        rhs = tensor_right_action(c, v, q)
        if lhs != rhs:
            lines.append(f"FAIL tensor-linearity at=trial{t} lhs={lhs} rhs={rhs}")
            return lines
        assoc_l = tensor_left_action(c * c2, v, q)
        assoc_r = tensor_left_action(c, tensor_left_action(c2, v, q), q)
        if assoc_l != assoc_r:
            lines.append(f"FAIL tensor-associative at=trial{t} lhs={assoc_l} rhs={assoc_r}")
            return lines
    lines.append(f"OK tensor-linearity params=m={m},q={q} trials={samples}")

    one = BaseElem.one(field)
    for t in range(samples):
        c = random_nonzero_base_elem(rng, field)
        embedded = TruncatedElement.constant(c, q, 1)
        cs = twist_inverse(embedded)
        got: dict = {}
        for (g,), cg in cs.coeffs.items():
            got = termdict.add(got, tensor_left_action(cg, {(0, g): one}, q).items())
        target = {(0, 0): c}
        if got != target:
            lines.append(f"FAIL tensor-surjectivity at=trial{t},c={c} lhs={got} rhs={target}")
            return lines
    lines.append(f"OK tensor-surjectivity params=m={m},q={q} trials={samples}")
    return lines


# -- ordered partitions ---------------------------------------------------------------


def ordered_partitions(k: int) -> list[tuple[int, ...]]:
    """All compositions of k into positive parts; |P[k]| = 2^(k-1)."""
    if k < 1:
        raise ValueError("ordered partitions need k >= 1")
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, prefix: tuple):
        if remaining == 0:
            out.append(prefix)
            return
        for first in range(1, remaining + 1):
            rec(remaining - first, prefix + (first,))

    rec(k, ())
    return out


def multinomial_identity_check(
    k: int,
    field: FieldDescriptor | None = None,
    rng: random.Random | None = None,
    trials: int = 5,
) -> bool:
    """Signed multinomial sum over compositions of k equals (-1)^k.

    Also cross-checks |P[k]| = 2^(k-1) and, when a field is supplied, the
    operator identity D_pi = mu(pi) D_k on random elements.
    """
    parts = ordered_partitions(k)
    if len(parts) != 2 ** (k - 1):
        return False
    total = sum((-1) ** len(pi) * multinomial(pi) for pi in parts)
    if total != (-1) ** k:
        return False
    if field is not None:
        rng = rng or random.Random(0)
        if field.derivation_count != 1:
            raise ValueError("the operator identity check runs over a single derivation")
        for _ in range(trials):
            a = random_base_elem(rng, field)
            pi = rng.choice(parts)
            lhs = a
            for part in reversed(pi):
                lhs = hasse_derive((part,), lhs)
            rhs = hasse_derive((k,), a) * field.scalar(multinomial(pi))
            if lhs != rhs:
                return False
    return True
