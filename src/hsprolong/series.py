"""Truncated multivariate polynomial rings B[t_1..t_n]/(t_1..t_n)^(m+1).

A TruncatedElement maps multi-indices of size <= m to nonzero carrier
elements; the carrier is duck-typed (BaseElem, a sparse symbol polynomial, or
a ParamPoly inside twist_expand) and only needs +, -, *, bool and ==, plus
render and render_head to be written.  Products discard terms of size > m.
render_series writes the text form: termdict's render_term puts each
coefficient beside its power of t, in graded-lex order.

The twisted structure lives here too: twist_expand sends a base element
r = num/den to its truncated Taylor expansion sum D_alpha(r) t^alpha.  It
substitutes s_i -> s_i + t_i into num and den and inverts den(s + t) by the
truncated geometric series.  The substitution runs on flat integer tables:
the counts of (s_i + t_i)^e are a Pascal row, built by repeated
multiplication by (s_i + t_i) and never read off a binomial routine, and each
term's coefficient is multiplied in once per output monomial.  With each
t^alpha coefficient scaled by den^|alpha|, every step stays in polynomials,
and the t^alpha coefficient is a numerator over den^(|alpha|+1), normalized
once as a BaseElem.  This is deliberately *not* the quotient-rule route of
basefield: that one takes the binomials of ParamPoly.hasse and runs the
Leibniz rule on den * a = num over the numerators T_gamma of D_gamma(a),
this one only substitutes and sums a geometric series,
and it takes no binomial from fields, math or ParamPoly.hasse, so the two
routes check each other.
twist_psi applies the expansion coefficientwise: for iterative derivations
e(r)(t) = r(s + t), so psi is the Taylor shift X(s, t) -> X(s + t, t), and
twist_inverse is the shift back, s -> s - t, read off the same expansion with
the t^beta coefficient times (-1)^|beta|.  Both run one loop over the input's
coefficients, expanding the coefficient at t^alpha only to the bound
m - |alpha| that the shift by t^alpha leaves.
"""

from __future__ import annotations

from operator import add
from typing import Callable, Mapping, Sequence

from . import termdict
from .basefield import BaseElem, ParamPoly, _make
from .multiindex import graded_lex_key, index_add, index_size, zero_index


class TruncatedElement(termdict.Ring):
    """Element of a truncated polynomial ring over an exact carrier ring.

    The constructor checks outside input; ring results are built by ``_of``."""

    __slots__ = ("coeffs", "order_bound", "t_count")

    def __init__(self, coeffs: Mapping[tuple, object], order_bound: int, t_count: int):
        if order_bound < 0:
            raise ValueError(f"order bound must be a natural, got {order_bound}")
        kept = {}
        for a, c in coeffs.items():
            if len(a) != t_count:
                raise ValueError(f"t-exponent {a} has wrong length for {t_count} variables")
            if min(a, default=0) < 0:
                raise ValueError(f"t-exponent {a} has a negative entry")
            if c and sum(a) <= order_bound:
                kept[a] = c
        self.coeffs = kept
        self.order_bound = order_bound
        self.t_count = t_count

    @classmethod
    def _of(cls, coeffs: dict, order_bound: int, t_count: int) -> "TruncatedElement":
        """The element on a zero-free dict of in-range multi-indices, taken as is."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        out.order_bound = order_bound
        out.t_count = t_count
        return out

    @classmethod
    def zero(cls, order_bound: int, t_count: int) -> "TruncatedElement":
        return cls({}, order_bound, t_count)

    @classmethod
    def constant(cls, value, order_bound: int, t_count: int) -> "TruncatedElement":
        return cls({zero_index(t_count): value}, order_bound, t_count)

    def _check(self, other: "TruncatedElement") -> None:
        if self.order_bound != other.order_bound or self.t_count != other.t_count:
            raise ValueError("mismatched truncation bounds")
        if self.coeffs and other.coeffs:
            a = next(iter(self.coeffs.values()))
            b = next(iter(other.coeffs.values()))
            if type(a) is not type(b):
                raise ValueError("mismatched carrier rings")

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedElement):
            return NotImplemented
        return (
            self.order_bound == other.order_bound
            and self.t_count == other.t_count
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "TruncatedElement") -> "TruncatedElement":
        self._check(other)
        return TruncatedElement._of(
            termdict.add(self.coeffs, other.coeffs.items()), self.order_bound, self.t_count
        )

    def __neg__(self) -> "TruncatedElement":
        return TruncatedElement._of({a: -c for a, c in self.coeffs.items()}, self.order_bound, self.t_count)

    def __mul__(self, other: "TruncatedElement") -> "TruncatedElement":
        self._check(other)
        m = self.order_bound

        def key(a: tuple, b: tuple):
            # the ring's size rule: a product of total size above m is dropped
            k = tuple(map(add, a, b))
            return k if sum(k) <= m else None

        return TruncatedElement._of(termdict.mul(self.coeffs, other.coeffs, key), m, self.t_count)

    def scale(self, c) -> "TruncatedElement":
        return TruncatedElement._of(termdict.scale(self.coeffs, c), self.order_bound, self.t_count)

    def shift(self, alpha: tuple) -> "TruncatedElement":
        """Multiply by t^alpha, discarding overflowing terms."""
        m = self.order_bound
        out = {}
        for a, c in self.coeffs.items():
            e = index_add(a, alpha)
            if index_size(e) <= m:
                out[e] = c
        return TruncatedElement(out, m, self.t_count)

    def coeff_or(self, alpha: tuple, default):
        return self.coeffs.get(tuple(alpha), default)

    def map_coeffs(self, f: Callable) -> "TruncatedElement":
        return TruncatedElement(
            {a: f(c) for a, c in self.coeffs.items()}, self.order_bound, self.t_count
        )

    def render(self) -> str:
        return render_series(self.coeffs, [f"t{i + 1}" for i in range(self.t_count)])

    def __repr__(self) -> str:
        return f"TruncatedElement({self.render()}; m={self.order_bound}, n={self.t_count})"


def render_series(coeffs: Mapping[tuple, object], names: Sequence[str]) -> str:
    """The sum of c * names^a over {a: c} in graded-lex order of a, each c a ring element."""
    return termdict.render_sum(
        termdict.render_term(coeffs[a], termdict.render_powers(zip(names, a)))
        for a in sorted(coeffs, key=graded_lex_key)
    )


def _poly_twist(p: ParamPoly, m: int) -> TruncatedElement:
    """The shift p(s + t), truncated at m, on flat integer tables.

    Row e of rows holds the integer counts of (s_i + t_i)^e, each row the one
    before times (s_i + t_i).  A term c*s^e sends c times the product of the
    counts rows[e_i][a_i] to s^(e - a) at t^a, for each a <= e with |a| <= m.
    For a fixed a, e -> e - a is injective, so no two terms meet: every output
    coefficient is one product, and one ParamPoly is built per t^a.
    """
    field = p.field
    n = field.derivation_count
    rows = [[1]]
    out: dict = {}
    for exps, c in p.nums.items():
        # (t-exponent, its size, count, shifted s-exponents) over the derivations
        cells = [((), 0, 1, ())]
        for e in exps[:n]:
            while len(rows) <= e:
                last = rows[-1]
                rows.append([1, *map(add, last, last[1:]), 1])
            row = rows[e]
            cells = [
                (a + (j,), size + j, k * row[j], x + (e - j,))
                for a, size, k, x in cells
                for j in range(min(e, m - size) + 1)
            ]
        # the parameters past the derivations stay in the coefficient
        rest = exps[n:]
        for a, _, k, x in cells:
            out.setdefault(a, {})[x + rest] = c if k == 1 else c * k
    return TruncatedElement._of(
        {a: q for a, t in out.items() if (q := _make(t, field, p.den))}, m, n
    )


def twist_expand(r: BaseElem, m: int) -> TruncatedElement:
    """The twisted homomorphism e(r) = sum over |alpha| <= m of D_alpha(r) t^alpha.

    Computed by parameter shift and truncated series inversion, independently
    of the quotient-rule derivative code.  With B = den(s + t) and the t^beta
    coefficients scaled by den^|beta| (a scaling products keep), the inverse
    is 1/B = (1/den) * sum over k of (-Q')^k with Q'_beta = B_beta * den^(|beta|-1),
    so the t^alpha coefficient of num(s + t)/B is a polynomial over
    den^(|alpha|+1), normalized once.
    """
    num, den = r.num, r.den
    num_e = _poly_twist(num, m)
    if den.is_const():
        # the normal form's denominator is monic, so a constant one is 1
        return num_e.map_coeffs(lambda c: BaseElem._raw(c, den))
    n = num_e.t_count
    powers = [ParamPoly.const(num.field, 1), den]
    for _ in range(m):
        powers.append(powers[-1] * den)
    # w = -Q', the scaled terms of B/den past the constant 1
    w = TruncatedElement(
        {a: -(c * powers[sum(a) - 1]) for a, c in _poly_twist(den, m).coeffs.items() if any(a)},
        m,
        n,
    )
    # w^k has no term below size k, so k runs to m
    series = TruncatedElement.constant(powers[0], m, n) + w
    power = w
    for _ in range(m - 1):
        power = power * w
        if not power:
            break
        series = series + power
    scaled = TruncatedElement({a: c * powers[sum(a)] for a, c in num_e.coeffs.items()}, m, n)
    return TruncatedElement(
        {a: BaseElem(c, powers[sum(a) + 1]) for a, c in (scaled * series).coeffs.items()}, m, n
    )


def _twist_sum(c: TruncatedElement, sign: int) -> TruncatedElement:
    """sum over alpha of t^alpha * e(c_alpha)(sign * t), truncated at m.

    The t^alpha shift keeps only the terms of e(c_alpha) of size <= m - |alpha|,
    so each coefficient is expanded to that bound and no further.
    """
    m, n = c.order_bound, c.t_count
    out: dict = {}
    for alpha, b in c.coeffs.items():
        e = twist_expand(b, m - index_size(alpha)).coeffs
        if sign < 0:
            e = {beta: -x if index_size(beta) % 2 else x for beta, x in e.items()}
        out = termdict.add(out, ((index_add(beta, alpha), x) for beta, x in e.items()))
    return TruncatedElement(out, m, n)


def twist_psi(c: TruncatedElement) -> TruncatedElement:
    """psi(sum b_a t^a) = sum t^a e(b_a)(t): the Taylor shift s -> s + t."""
    return _twist_sum(c, 1)


def twist_inverse(b: TruncatedElement) -> TruncatedElement:
    """psi^-1(sum b_a t^a) = sum t^a e(b_a)(-t): the shift back, s -> s - t.

    The derivations are iterative, so e(b)(t) = b(s + t) and the inverse
    substitutes s -> s - t: e(b)(-t) is e(b) with its t^beta coefficient
    times (-1)^|beta|.  Nothing is solved for, so a non-iterative
    twist_expand breaks the round trip instead of being inverted.
    """
    return _twist_sum(b, -1)
