"""Rational function fields K = k0(s_1..s_r) with commuting Hasse derivations.

Polynomials in the parameters are sparse maps from exponent tuples to Scalar
coefficients.  A BaseElem is a normalized quotient num/den of two such
polynomials: the gcd is cancelled (content/primitive-part recursion with a
primitive pseudo-remainder sequence) and the denominator's leading
coefficient under graded-lex is scaled to 1, so equality is structural.

The mixed Hasse derivative D_alpha acts on the standard monomial basis by
D_{i,k}(s_i^j) = C(j,k) s_i^{j-k} and reaches denominators through the
quotient-rule recursion obtained by solving D_k(b * 1/b) = 0 for D_k(1/b).
The truncated-series route to the same values lives in the series module and
is kept independent as a cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

from . import termdict
from .fields import FieldDescriptor, Scalar, binom

Coeffish = Union[Scalar, int, Fraction]


def _monomial_key(exps: Sequence[int]) -> tuple:
    # graded order with s_1 > s_2 > ...; max under this key is the leading monomial
    return (sum(exps), tuple(exps))


class ParamPoly:
    """Sparse polynomial in the field parameters with Scalar coefficients."""

    __slots__ = ("terms", "field")

    def __init__(self, terms: Mapping[tuple, Scalar], field: FieldDescriptor):
        self.terms = {e: c for e, c in terms.items() if c}
        self.field = field

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldDescriptor) -> "ParamPoly":
        return cls({}, field)

    @classmethod
    def const(cls, field: FieldDescriptor, value: Coeffish) -> "ParamPoly":
        c = value if isinstance(value, Scalar) else field.scalar(value)
        return cls({(0,) * field.param_count: c}, field)

    @classmethod
    def var(cls, field: FieldDescriptor, i: int) -> "ParamPoly":
        if not 0 <= i < field.param_count:
            raise ValueError(f"no parameter with index {i}")
        e = [0] * field.param_count
        e[i] = 1
        return cls({tuple(e): field.one}, field)

    @classmethod
    def monomial(cls, field: FieldDescriptor, exps: Sequence[int], coeff: Coeffish = 1) -> "ParamPoly":
        c = coeff if isinstance(coeff, Scalar) else field.scalar(coeff)
        return cls({tuple(exps): c}, field)

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "ParamPoly") -> None:
        if self.field != other.field:
            raise ValueError("parameter polynomials over different fields")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        self._check(other)
        return ParamPoly(termdict.add(self.terms, other.terms.items()), self.field)

    def __neg__(self) -> "ParamPoly":
        return ParamPoly({e: -c for e, c in self.terms.items()}, self.field)

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        self._check(other)
        return ParamPoly(termdict.mul(self.terms, other.terms, termdict.exp_add), self.field)

    def __pow__(self, k: int) -> "ParamPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return termdict.power(self, k, ParamPoly.const(self.field, 1))

    def scale(self, c: Coeffish) -> "ParamPoly":
        c = c if isinstance(c, Scalar) else self.field.scalar(c)
        return ParamPoly(termdict.scale(self.terms, c), self.field)

    # -- structure queries -------------------------------------------------

    def is_const(self) -> bool:
        return all(not any(e) for e in self.terms)

    def const_value(self) -> Scalar:
        if not self.terms:
            return self.field.zero
        ((e, c),) = self.terms.items()
        if any(e):
            raise ValueError("not a constant polynomial")
        return c

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def leading(self) -> tuple[tuple, Scalar]:
        if not self.terms:
            raise ValueError("leading term of the zero polynomial")
        e = max(self.terms, key=_monomial_key)
        return e, self.terms[e]

    def variables(self) -> set:
        return {i for e in self.terms for i, k in enumerate(e) if k}

    # -- Hasse derivative of the polynomial part ----------------------------

    def hasse(self, i: int, k: int) -> "ParamPoly":
        """D_{i,k} of the polynomial: C(e_i, k) s_i^{e_i - k} per monomial."""
        if k == 0:
            return self
        # e -> e - k*unit_i is injective, so no two terms collide
        return ParamPoly(
            {
                e[:i] + (e[i] - k,) + e[i + 1 :]: binom(e[i], k, self.field) * c
                for e, c in self.terms.items()
                if e[i] >= k
            },
            self.field,
        )

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for e in sorted(self.terms, key=_monomial_key, reverse=True):
            c = self.terms[e]
            body = render_monomial_over(self.field.parameter_names, e)
            if body:
                if c == 1:
                    piece = body
                elif c == -1 and c.char == 0:
                    piece = "-" + body
                else:
                    piece = f"{c}*{body}"
            else:
                piece = str(c)
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"ParamPoly({self.render()})"


def render_monomial_over(names: Sequence[str], exps: Sequence[int]) -> str:
    factors = []
    for name, e in zip(names, exps):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


# -- gcd machinery ----------------------------------------------------------


def _monomial_content(f: ParamPoly) -> tuple:
    it = iter(f.terms)
    first = next(it)
    mins = list(first)
    for e in it:
        for i, k in enumerate(e):
            if k < mins[i]:
                mins[i] = k
    return tuple(mins)


def _shift_down(f: ParamPoly, exps: Sequence[int]) -> ParamPoly:
    if not any(exps):
        return f
    return ParamPoly(
        {tuple(a - b for a, b in zip(e, exps)): c for e, c in f.terms.items()}, f.field
    )


def _monic(f: ParamPoly) -> ParamPoly:
    if not f:
        return f
    _, lc = f.leading()
    if lc == 1:
        return f
    return f.scale(lc.inverse())


def _coeffs_in(f: ParamPoly, v: int) -> dict[int, ParamPoly]:
    """View f as a univariate polynomial in parameter v over the other parameters."""
    out: dict[int, dict] = {}
    for e, c in f.terms.items():
        d = e[v]
        rest = list(e)
        rest[v] = 0
        out.setdefault(d, {})[tuple(rest)] = c
    return {d: ParamPoly(t, f.field) for d, t in out.items()}


def _from_coeffs(coeffs: Mapping[int, ParamPoly], v: int, field: FieldDescriptor) -> ParamPoly:
    out: dict = {}
    for d, p in coeffs.items():
        for e, c in p.terms.items():
            ne = list(e)
            ne[v] += d
            out[tuple(ne)] = c
    return ParamPoly(out, field)


def _scalar_rescale(r: dict[int, ParamPoly]) -> dict[int, ParamPoly]:
    """Scale a whole remainder so its coefficients are coprime integers (char 0).

    A PRS tolerates scaling by one global scalar; this keeps Fraction sizes
    from snowballing across reduction rounds.
    """
    if not r:
        return r
    sample = next(iter(r.values()))
    if sample.field.characteristic:
        return r
    from math import gcd, lcm

    den = 1
    num = 0
    for p in r.values():
        for c in p.terms.values():
            den = lcm(den, c.value.denominator)
    for p in r.values():
        for c in p.terms.values():
            num = gcd(num, c.value.numerator * (den // c.value.denominator))
    if den == 1 and num in (0, 1):
        return r
    factor = Fraction(den, num)
    return {d: p.scale(factor) for d, p in r.items()}


def _pseudo_rem(a: dict[int, ParamPoly], b: dict[int, ParamPoly]) -> dict[int, ParamPoly]:
    """Fraction-free remainder of univariate polynomials with ParamPoly coefficients."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r:
        dr = max(r)
        if dr < db:
            break
        lr = r.pop(dr)
        # r := lb*r - lr*v^(dr-db)*b, cancelling the head term
        nr = termdict.add(
            {d: c * lb for d, c in r.items()},
            ((d + dr - db, -(c * lr)) for d, c in b.items() if d != db),
        )
        r = _scalar_rescale(nr)
    return r


def _content_and_pp(coeffs: dict[int, ParamPoly]) -> tuple[ParamPoly, dict[int, ParamPoly]]:
    cont = None
    for c in coeffs.values():
        cont = c if cont is None else poly_gcd(cont, c)
    assert cont is not None
    pp = {d: poly_divexact(c, cont) for d, c in coeffs.items()}
    return cont, pp


def _gcd_univar(f: ParamPoly, g: ParamPoly, v: int) -> ParamPoly:
    """Plain Euclid for polynomials in the single parameter v."""
    a = {e[v]: c for e, c in f.terms.items()}
    b = {e[v]: c for e, c in g.terms.items()}
    while b:
        db = max(b)
        b = termdict.scale(b, b[db].inverse())
        while a:
            da = max(a)
            if da < db:
                break
            lead = a.pop(da)
            a = termdict.add(a, ((d + da - db, -c * lead) for d, c in b.items() if d != db))
        a, b = b, a
    out = {}
    proto = [0] * f.field.param_count
    for d, c in a.items():
        e = proto[:]
        e[v] = d
        out[tuple(e)] = c
    return _monic(ParamPoly(out, f.field))


def _eval_except(p: ParamPoly, v: int, values: dict[int, Scalar]) -> ParamPoly:
    """Substitute scalars for every variable except v, leaving a univariate poly."""
    proto = (0,) * p.field.param_count
    pairs = []
    for e, c in p.terms.items():
        for i, k in enumerate(e):
            if i != v and k:
                c = c * values[i] ** k
        pairs.append((proto[:v] + (e[v],) + proto[v + 1 :], c))
    return ParamPoly(termdict.add({}, pairs), p.field)


def _eval_points(field: FieldDescriptor) -> list[int]:
    if field.characteristic:
        return list(range(1, min(field.characteristic, 6)))
    return [2, -3, 5]


def _coprime_by_evaluation(f0: ParamPoly, g0: ParamPoly, v: int) -> bool:
    """Exact certificate that gcd(f0, g0) has degree 0 in variable v.

    Evaluating all other variables can only enlarge the gcd while the leading
    v-coefficient survives, so a constant evaluated gcd is conclusive; an
    inconclusive evaluation just falls back to the remainder sequence.
    """
    field = f0.field
    others = (f0.variables() | g0.variables()) - {v}
    lead_f = _coeffs_in(f0, v)[max(e[v] for e in f0.terms)]
    for point in _eval_points(field):
        values = {i: field.scalar(point) for i in others}
        if not _eval_except(lead_f, v, values):
            continue
        fe = _eval_except(f0, v, values)
        ge = _eval_except(g0, v, values)
        if not ge:
            continue
        if _gcd_univar(fe, ge, v).is_const():
            return True
    return False


def poly_gcd(f: ParamPoly, g: ParamPoly) -> ParamPoly:
    """Gcd in k0[s_1..s_r], normalized to leading coefficient 1."""
    if not f:
        return _monic(g)
    if not g:
        return _monic(f)
    if f.is_const() or g.is_const():
        return ParamPoly.const(f.field, 1)

    # strip monomial content first; it is cheap and covers the common cases
    mf, mg = _monomial_content(f), _monomial_content(g)
    common = tuple(min(a, b) for a, b in zip(mf, mg))
    f0, g0 = _shift_down(f, mf), _shift_down(g, mg)
    mono = ParamPoly.monomial(f.field, common)

    if len(f0.terms) == 1 or len(g0.terms) == 1:
        # after content removal a monomial shares no further factor
        return _monic(mono)

    shared = f0.variables() & g0.variables()
    if not shared:
        return _monic(mono)
    vf, vg = f0.variables(), g0.variables()
    if len(vf) == 1 and vf == vg:
        return _monic(mono * _gcd_univar(f0, g0, next(iter(vf))))
    v = min(shared)

    if _coprime_by_evaluation(f0, g0, v):
        # the gcd is free of v, hence divides both contents with respect to v
        cf = _content_of(f0, v)
        cg = _content_of(g0, v)
        return _monic(mono * poly_gcd(cf, cg))

    # denominators are often prefix products of one another; try exact division
    lo, hi = (f0, g0) if f0.degree() <= g0.degree() else (g0, f0)
    try:
        poly_divexact(hi, lo)
        return _monic(mono * lo)
    except ValueError:
        pass

    ca, a = _content_and_pp(_coeffs_in(f0, v))
    cb, b = _content_and_pp(_coeffs_in(g0, v))
    cont = poly_gcd(ca, cb)

    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        if r:
            _, r = _content_and_pp(r)
        a, b = b, r
    pp = _from_coeffs(a, v, f.field)
    return _monic(mono * cont * pp)


def _content_of(p: ParamPoly, v: int) -> ParamPoly:
    cont = None
    for c in _coeffs_in(p, v).values():
        cont = c if cont is None else poly_gcd(cont, c)
        if cont.is_const():
            break
    return cont if cont is not None else ParamPoly.const(p.field, 1)


def poly_divexact(f: ParamPoly, g: ParamPoly) -> ParamPoly:
    """Exact division f/g; raises ValueError when g does not divide f."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return f
    if g.is_const():
        return f.scale(g.const_value().inverse())
    ge, gc = g.leading()
    rem = f
    out: dict = {}
    while rem:
        fe, fc = rem.leading()
        qe = tuple(a - b for a, b in zip(fe, ge))
        if any(e < 0 for e in qe):
            raise ValueError("inexact polynomial division")
        qc = fc / gc
        out[qe] = qc
        rem = rem - g * ParamPoly.monomial(f.field, qe, qc)
        if rem and _monomial_key(rem.leading()[0]) >= _monomial_key(fe):
            raise ValueError("inexact polynomial division")
    return ParamPoly(out, f.field)


# -- rational functions -------------------------------------------------------


class BaseElem:
    """A rational function in the base parameters, kept in normal form."""

    __slots__ = ("num", "den", "field")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None):
        field = num.field
        if den is None:
            den = ParamPoly.const(field, 1)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = ParamPoly.const(field, 1)
        else:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den
        self.field = field

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, field: FieldDescriptor, value: Coeffish, den: int = 1) -> "BaseElem":
        return cls(ParamPoly.const(field, field.scalar(value, den)))

    @classmethod
    def param(cls, field: FieldDescriptor, name_or_index: Union[str, int]) -> "BaseElem":
        i = name_or_index if isinstance(name_or_index, int) else field.param_index(name_or_index)
        return cls(ParamPoly.var(field, i))

    @classmethod
    def zero(cls, field: FieldDescriptor) -> "BaseElem":
        return cls(ParamPoly.zero(field))

    @classmethod
    def one(cls, field: FieldDescriptor) -> "BaseElem":
        return cls(ParamPoly.const(field, 1))

    @classmethod
    def _raw(cls, num: ParamPoly, den: ParamPoly) -> "BaseElem":
        """Construct from an already-coprime pair, only rescaling the denominator."""
        field = num.field
        if not num:
            den = ParamPoly.const(field, 1)
        else:
            lc = den.leading()[1]
            if lc != 1:
                inv = lc.inverse()
                num, den = num.scale(inv), den.scale(inv)
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        out.field = field
        return out

    # -- field structure ----------------------------------------------------

    def _coerce(self, other) -> "BaseElem":
        if isinstance(other, BaseElem):
            if other.field != self.field:
                raise ValueError("base elements over different fields")
            return other
        if isinstance(other, ParamPoly):
            return BaseElem(other)
        if isinstance(other, (int, Fraction, Scalar)):
            return BaseElem.const(self.field, other)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, Scalar)):
            other = BaseElem.const(self.field, other)
        if not isinstance(other, BaseElem):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __add__(self, other) -> "BaseElem":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        if b.is_const() and d.is_const():
            # denominators are 1 after normalization
            return BaseElem._raw(a + c, b)
        if b == d:
            t = a + c
            h = poly_gcd(t, b)
            if h.is_const():
                return BaseElem._raw(t, b)
            return BaseElem._raw(poly_divexact(t, h), poly_divexact(b, h))
        g = poly_gcd(b, d)
        if g.is_const():
            return BaseElem._raw(a * d + c * b, b * d)
        db, dd = poly_divexact(b, g), poly_divexact(d, g)
        t = a * dd + c * db
        h = poly_gcd(t, g)
        if h.is_const():
            return BaseElem._raw(t, db * d)
        return BaseElem._raw(poly_divexact(t, h), db * poly_divexact(d, h))

    __radd__ = __add__

    def __neg__(self) -> "BaseElem":
        out = BaseElem.__new__(BaseElem)
        out.num = -self.num
        out.den = self.den
        out.field = self.field
        return out

    def __sub__(self, other) -> "BaseElem":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BaseElem":
        return (-self) + other

    def __mul__(self, other) -> "BaseElem":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        if not a or not c:
            return BaseElem.zero(self.field)
        # cross-cancel so the result is coprime with no final gcd
        if not b.is_const() and not c.is_const():
            g = poly_gcd(c, b)
            if not g.is_const():
                c, b = poly_divexact(c, g), poly_divexact(b, g)
        if not d.is_const() and not a.is_const():
            g = poly_gcd(a, d)
            if not g.is_const():
                a, d = poly_divexact(a, g), poly_divexact(d, g)
        return BaseElem._raw(a * c, b * d)

    __rmul__ = __mul__

    def inverse(self) -> "BaseElem":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        return BaseElem._raw(self.den, self.num)

    def __truediv__(self, other) -> "BaseElem":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "BaseElem":
        return self.inverse() * other

    def __pow__(self, k: int) -> "BaseElem":
        if k < 0:
            return self.inverse() ** (-k)
        return termdict.power(self, k, BaseElem.one(self.field))

    # -- queries and rendering ----------------------------------------------

    def is_poly(self) -> bool:
        return self.den.is_const()

    def is_negative_leading(self) -> bool:
        if not self.num:
            return False
        return self.num.leading()[1].is_negative()

    def render(self) -> str:
        if self.den == ParamPoly.const(self.field, 1):
            return self.num.render()
        num_s = self.num.render()
        if len(self.num.terms) > 1:
            num_s = f"({num_s})"
        den_s = self.den.render()
        # a monic monomial renders as its factors joined by "*"; "/" binds
        # only the first factor, so any product needs parentheses too
        if len(self.den.terms) > 1 or "*" in den_s:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def render_atomic(self) -> str:
        """Rendering safe to juxtapose with '*': parenthesized when a sum."""
        s = self.render()
        if len(self.num.terms) > 1 and self.den == ParamPoly.const(self.field, 1):
            return f"({s})"
        return s

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"BaseElem({self.render()})"


def _reduce(num: ParamPoly, den: ParamPoly) -> tuple[ParamPoly, ParamPoly]:
    mf, mg = _monomial_content(num), _monomial_content(den)
    common = tuple(min(a, b) for a, b in zip(mf, mg))
    if any(common):
        num, den = _shift_down(num, common), _shift_down(den, common)
    if len(den.terms) > 1 and len(num.terms) > 1:
        g = poly_gcd(num, den)
        if not g.is_const():
            num, den = poly_divexact(num, g), poly_divexact(den, g)
    lc = den.leading()[1]
    if lc != 1:
        inv = lc.inverse()
        num, den = num.scale(inv), den.scale(inv)
    return num, den


# -- Hasse derivatives --------------------------------------------------------


def _inverse_derivatives(i: int, den: ParamPoly, k: int) -> list[BaseElem]:
    """D_{i,l}(1/den) for l = 0..k, solving D_{i,v}(den * 1/den) = 0 for v >= 1."""
    field = den.field
    inv0 = BaseElem(den, None).inverse()
    invs = [inv0]
    dens = [den.hasse(i, l) for l in range(k + 1)]
    for v in range(1, k + 1):
        total = BaseElem.zero(field)
        for l in range(1, v + 1):
            if dens[l]:
                total = total + BaseElem(dens[l]) * invs[v - l]
        invs.append(-(inv0 * total))
    return invs


def _quotient_rule(v: int, nums: list[ParamPoly], invs: list[BaseElem]) -> BaseElem:
    """D_v(num/den) = sum over u of D_u(num) D_{v-u}(1/den), from both tables."""
    out = BaseElem.zero(invs[0].field)
    for u in range(v + 1):
        if nums[u]:
            out = out + BaseElem(nums[u]) * invs[v - u]
    return out


def _family_derive(i: int, k: int, a: BaseElem) -> BaseElem:
    """D_{i,k}(a) for the single derivation family i, via the quotient rule."""
    if k == 0:
        return a
    num, den = a.num, a.den
    if den.is_const():
        return BaseElem(num.hasse(i, k), den)
    nums = [num.hasse(i, u) for u in range(k + 1)]
    return _quotient_rule(k, nums, _inverse_derivatives(i, den, k))


def _family_table(i: int, k: int, a: BaseElem) -> list[BaseElem]:
    """[D_{i,0}(a), ..., D_{i,k}(a)], running the 1/den recursion once for all k."""
    num, den = a.num, a.den
    if den.is_const():
        return [a] + [BaseElem(num.hasse(i, v), den) for v in range(1, k + 1)]
    nums = [num.hasse(i, u) for u in range(k + 1)]
    invs = _inverse_derivatives(i, den, k)
    return [a] + [_quotient_rule(v, nums, invs) for v in range(1, k + 1)]


def hasse_derive(alpha: Sequence[int], a: BaseElem) -> BaseElem:
    """The mixed derivative D_alpha(a); D_0 is the identity."""
    n = a.field.derivation_count
    if len(alpha) != n:
        raise ValueError(f"multi-index length {len(alpha)} != derivation count {n}")
    out = a
    for i in range(n - 1, -1, -1):
        if alpha[i]:
            out = _family_derive(i, alpha[i], out)
    return out


def hasse_table(a: BaseElem, m: int) -> dict[tuple, BaseElem]:
    """{alpha: D_alpha(a)} for every multi-index alpha with |alpha| <= m.

    Family by family from n-1 down to 0, as hasse_derive composes them, so each
    entry equals hasse_derive(alpha, a); each element met in a family's pass
    runs the D_l(1/den) recursion once for every order it needs.
    """
    if m < 0:
        raise ValueError(f"derivative order must be a natural, got {m}")
    table: dict[tuple, BaseElem] = {(): a}
    for i in range(a.field.derivation_count - 1, -1, -1):
        table = {
            (k,) + rest: d
            for rest, b in table.items()
            for k, d in enumerate(_family_table(i, m - sum(rest), b))
        }
    return table
