"""Rational function fields K = k0(s_1..s_r) with commuting Hasse derivations.

Polynomials in the parameters are sparse maps from exponent tuples to plain
coefficients: Fractions in characteristic 0, ints in [0, p) in characteristic
p.  The ParamPoly constructor checks outside input and maps each coefficient
into the field; ring results skip it.  Arithmetic on raw term dicts leaves
unreduced ints, and ``_make``, which builds every ring result, is the one
place that folds them back into [0, p); over Q termdict's dicts are taken
as they are.

A BaseElem is a quotient num/den of two such polynomials in normal form, so
equality is structural.  The normal form takes three steps, each written
once: the common monomial factor is stripped, ``_cancel`` divides both by
their gcd, and ``_monic_den`` scales both so that the denominator's leading
coefficient under graded-lex is 1.  Sums and products that cancel a gcd on
the way call ``_cancel`` too.

Two integer routines sit inside the gcd machinery, where no coefficient type
shows.  ``poly_divexact`` updates one remainder dict in place: cancelling
the head term adds only terms below it in the monomial order, so the head
falls at every step, and a head that the divisor's leading monomial does not
divide proves the division inexact.  The coprimality certificate decides
"the gcd is free of s_v" from the images of both operands in F_P[s_v], every
other parameter sent to one point, with P the characteristic or, over Q, the
word prime ``_WORD_PRIME`` (after Brown's modular gcd): a constant gcd of
the images, by Euclid on integer lists, proves it.  There is no certificate
when a denominator is divisible by P, when the leading v-coefficient
vanishes at every point, or when the images share a factor that the
operands do not (an unlucky P or point); the exact route then runs.

``poly_gcd`` has one route for any number of parameters: strip the monomial
content, ask the certificate for the smallest shared parameter v, try exact
division of the larger operand by the smaller, and otherwise run the
primitive PRS (pseudo-remainder sequence) in v over the other parameters.
``_content``, the gcd of a run of polynomials, is 1 with no poly_gcd call
once the partial gcd or the next polynomial is constant; over one parameter
every content is a constant, so poly_gcd never recurses there.

Constants take a lane that never runs a gcd.  The constant c is c/1, its own
normal form.  For num/den in normal form and a coefficient c, c*num/den is
again in normal form when c != 0, since a unit factor changes no gcd, and so
is (num + c*den)/den, since gcd(num + c*den, den) = gcd(num, den) = 1.  So a
product or sum with an int, a Fraction or a constant BaseElem scales or
shifts the numerator and keeps the denominator, and ``x == k`` for a number k
compares the constant of x with k reduced into the field.

Text: ParamPoly writes its number coefficients with ``str``, and
BaseElem.render_head gives what a rational function writes before a power
product; both feed the term-sum rules in termdict, so a coefficient of 4 in F5
stays ``4*s`` in a ParamPoly but is the sign of ``-x`` in a DiffPoly.

The mixed Hasse derivative D_alpha acts on the standard monomial basis by
D_{i,k}(s_i^j) = C(j,k) s_i^{j-k}, one family at a time, and reaches
denominators through one recursion over multi-indices: the n families
commute and are iterative, so D_alpha is a ring homomorphism into power
series, and the Leibniz rule on den * (num/den) = num solves for
D_gamma(num/den).  That work stays in polynomials: D_gamma(num/den) is a
numerator T_gamma over den^(|gamma|+1), each T_gamma built from D_gamma(num)
and the T below it, so each output takes one normalization and no BaseElem
sum or product on the way.
``_hasse_values`` runs this recursion over the down-closure of the
multi-indices it is asked for, in graded order; ``hasse_derive`` asks it for
one alpha, ``hasse_table`` for the simplex |alpha| <= m, diffpoly's
``apply_d`` for the box below alpha and the layered maps for the orders
k*e_0.  The truncated-series route to the same values lives in the series
module (substitution s -> s + t and a geometric series, no binomials and no
Leibniz recursion) and is kept independent as a cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Sequence, Union

from . import termdict
from .fields import FieldDescriptor, binom
from .multiindex import enumerate_multiindices, indices_below, multiindex


def _monomial_key(exps: Sequence[int]) -> tuple:
    # graded order with s_1 > s_2 > ...; max under this key is the leading monomial
    return (sum(exps), tuple(exps))


def _nonzero(terms: Mapping, p: int) -> dict:
    """The terms with each coefficient reduced mod p (when p) and zeros dropped."""
    if p:
        return {k: r for k, c in terms.items() if (r := c % p)}
    return {k: c for k, c in terms.items() if c}


class ParamPoly(termdict.Ring):
    """Sparse polynomial in the field parameters with exact coefficients.

    The constructor checks outside input; ring results are built by ``_make``."""

    __slots__ = ("terms", "field")

    def __init__(self, terms: Mapping[tuple, int | Fraction], field: FieldDescriptor):
        r = field.param_count
        for e, c in terms.items():
            if type(e) is not tuple or len(e) != r or not all(type(k) is int and k >= 0 for k in e):
                raise ValueError(f"exponent {e!r} is not a tuple of {r} naturals")
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
        self.terms = {e: x for e, c in terms.items() if (x := field.scalar(c))}
        self.field = field

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldDescriptor) -> "ParamPoly":
        return _make({}, field)

    @classmethod
    def const(cls, field: FieldDescriptor, value: int | Fraction) -> "ParamPoly":
        c = field.scalar(value)
        return _make({(0,) * field.param_count: c} if c else {}, field)

    @classmethod
    def var(cls, field: FieldDescriptor, i: int) -> "ParamPoly":
        if not 0 <= i < field.param_count:
            raise ValueError(f"no parameter with index {i}")
        e = [0] * field.param_count
        e[i] = 1
        return _make({tuple(e): field.scalar(1)}, field)

    @classmethod
    def monomial(cls, field: FieldDescriptor, exps: Sequence[int], coeff: int | Fraction = 1) -> "ParamPoly":
        return cls({tuple(exps): coeff}, field)

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
        return _make(termdict.add(self.terms, other.terms.items()), self.field)

    def __neg__(self) -> "ParamPoly":
        return _make({e: -c for e, c in self.terms.items()}, self.field)

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        self._check(other)
        return _make(termdict.mul(self.terms, other.terms, termdict.exp_add), self.field)

    def __pow__(self, k: int) -> "ParamPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return termdict.power(self, k, ParamPoly.const(self.field, 1))

    def scale(self, c: int | Fraction) -> "ParamPoly":
        return _make(termdict.scale(self.terms, self.field.scalar(c)), self.field)

    # -- structure queries -------------------------------------------------

    def is_const(self) -> bool:
        # nonzero coefficients only, so a constant has at most the one zero-exponent term
        t = self.terms
        return not t or (len(t) == 1 and not any(next(iter(t))))

    def const_value(self) -> int | Fraction:
        if not self.terms:
            return self.field.scalar(0)
        ((e, c),) = self.terms.items()
        if any(e):
            raise ValueError("not a constant polynomial")
        return c

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def leading(self) -> tuple[tuple, int | Fraction]:
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
        if k < 0:
            raise ValueError(f"derivative order must be a natural, got {k}")
        # e -> e - k*unit_i is injective, so no two terms collide
        return _make(
            {
                e[:i] + (e[i] - k,) + e[i + 1 :]: binom(e[i], k, self.field) * c
                for e, c in self.terms.items()
                if e[i] >= k
            },
            self.field,
        )

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        names = self.field.parameter_names
        return termdict.render_sum(
            termdict.render_product(str(self.terms[e]), termdict.render_powers(zip(names, e)))
            for e in sorted(self.terms, key=_monomial_key, reverse=True)
        )


def _make(terms: dict, field: FieldDescriptor) -> ParamPoly:
    """The polynomial on a zero-free dict of valid keys, taken as is; only in
    characteristic p are its int coefficients reduced and zeros dropped."""
    out = ParamPoly.__new__(ParamPoly)
    p = field.characteristic
    out.terms = _nonzero(terms, p) if p else terms
    out.field = field
    return out


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
    return _make({tuple(a - b for a, b in zip(e, exps)): c for e, c in f.terms.items()}, f.field)


def _monic(f: ParamPoly) -> ParamPoly:
    if not f:
        return f
    _, lc = f.leading()
    if lc == 1:
        return f
    return f.scale(f.field.inverse(lc))


def _coeffs_in(f: ParamPoly, v: int) -> dict[int, ParamPoly]:
    """View f as a univariate polynomial in parameter v over the other parameters."""
    out: dict[int, dict] = {}
    for e, c in f.terms.items():
        d = e[v]
        rest = list(e)
        rest[v] = 0
        out.setdefault(d, {})[tuple(rest)] = c
    return {d: _make(t, f.field) for d, t in out.items()}


def _from_coeffs(coeffs: Mapping[int, ParamPoly], v: int, field: FieldDescriptor) -> ParamPoly:
    out: dict = {}
    for d, p in coeffs.items():
        for e, c in p.terms.items():
            ne = list(e)
            ne[v] += d
            out[tuple(ne)] = c
    return _make(out, field)


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
            den = lcm(den, c.denominator)
    for p in r.values():
        for c in p.terms.values():
            num = gcd(num, c.numerator * (den // c.denominator))
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


def _content(coeffs: Iterable[ParamPoly]) -> ParamPoly:
    """The gcd of a nonempty run of nonzero polynomials: 1, with no poly_gcd
    call, once the partial gcd or the next polynomial is constant."""
    it = iter(coeffs)
    cont = next(it)
    for c in it:
        if cont.is_const() or c.is_const():
            return ParamPoly.const(cont.field, 1)
        cont = poly_gcd(cont, c)
    return cont


def _content_and_pp(coeffs: dict[int, ParamPoly]) -> tuple[ParamPoly, dict[int, ParamPoly]]:
    cont = _content(coeffs.values())
    return cont, {d: poly_divexact(c, cont) for d, c in coeffs.items()}


# the image field F_P of the coprimality certificate over Q: a prime below 2^31
_WORD_PRIME = 2**31 - 1


def _residues(f: ParamPoly, prime: int) -> dict | None:
    """f's coefficients mod prime, or None when a denominator is divisible by it."""
    if f.field.characteristic:
        return f.terms
    out = {}
    for e, c in f.terms.items():
        d = c.denominator
        if d == 1:
            out[e] = c.numerator % prime
        elif d % prime:
            out[e] = c.numerator * pow(d, -1, prime) % prime
        else:
            return None
    return out


def _image(res: dict, v: int, point: int, prime: int, deg: int) -> list[int]:
    """The residues res in F_P[s_v], every other parameter sent to point:
    dense coefficients, lowest degree first."""
    dense = [0] * (deg + 1)
    for e, c in res.items():
        d = e[v]
        dense[d] += c * pow(point, sum(e) - d, prime)
    return [x % prime for x in dense]


def _coprime_mod(a: list[int], b: list[int], prime: int) -> bool:
    """Whether two dense polynomials over F_P have a constant gcd: Euclid on
    the coefficient lists, which it consumes."""
    while b and not b[-1]:
        b.pop()
    while b:
        if len(b) == 1:
            return True
        db = len(b) - 1
        inv = pow(b[-1], -1, prime)
        for top in range(len(a) - 1, db - 1, -1):
            q = a[top] * inv % prime
            if q:
                off = top - db
                a[off:top] = [(x - q * y) % prime for x, y in zip(a[off:top], b)]
        del a[db:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(a) == 1


def _eval_points(field: FieldDescriptor) -> list[int]:
    if field.characteristic:
        return list(range(1, min(field.characteristic, 6)))
    return [2, -3, 5]


def _coprime_by_evaluation(f0: ParamPoly, g0: ParamPoly, v: int) -> bool:
    """Exact certificate that gcd(f0, g0) has degree 0 in variable v.

    The images live in F_P[s_v]: P is the characteristic, or _WORD_PRIME over
    Q, and every other parameter goes to one point.  Write f0 = h*f1 and
    g0 = h*g1 with h the gcd, taken over Z with content 1 in characteristic 0;
    by Gauss's lemma f1 and g1 then have no denominator divisible by P when f0
    and g0 have none.  The image of h divides both images, and it keeps its
    v-degree while the leading v-coefficient of f0 does not vanish, so a
    constant gcd of the images proves that h is free of v.  A denominator
    divisible by P or a vanishing leading coefficient gives no certificate,
    and neither does a P or point where the images share a factor that f0
    and g0 do not; the caller then runs the exact route.
    """
    prime = f0.field.characteristic or _WORD_PRIME
    rf, rg = _residues(f0, prime), _residues(g0, prime)
    if rf is None or rg is None:
        return False
    df = max(e[v] for e in f0.terms)
    dg = max(e[v] for e in g0.terms)
    others = any(sum(e) != e[v] for t in (f0.terms, g0.terms) for e in t)
    for point in _eval_points(f0.field) if others else (1,):
        fe = _image(rf, v, point, prime, df)
        if not fe[-1]:
            continue
        if _coprime_mod(fe, _image(rg, v, point, prime, dg), prime):
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
    mono = _make({common: f.field.scalar(1)}, f.field)

    if len(f0.terms) == 1 or len(g0.terms) == 1 or not (shared := f0.variables() & g0.variables()):
        # after content removal a monomial, or a pair with no shared
        # parameter, shares no further factor; mono is monic
        return mono
    v = min(shared)

    if _coprime_by_evaluation(f0, g0, v):
        # the gcd is free of v, hence divides both contents with respect to v;
        # that gcd of at least two polynomials is 1 or monic, and so is mono
        return mono * _content([*_coeffs_in(f0, v).values(), *_coeffs_in(g0, v).values()])

    # denominators are often prefix products of one another; try exact division
    lo, hi = (f0, g0) if f0.degree() <= g0.degree() else (g0, f0)
    try:
        poly_divexact(hi, lo)
        return _monic(mono * lo)
    except ValueError:
        pass

    ca, a = _content_and_pp(_coeffs_in(f0, v))
    cb, b = _content_and_pp(_coeffs_in(g0, v))
    cont = _content((ca, cb))

    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        if r:
            _, r = _content_and_pp(r)
        a, b = b, r
    pp = _from_coeffs(a, v, f.field)
    return _monic(mono * cont * pp)


def poly_divexact(f: ParamPoly, g: ParamPoly) -> ParamPoly:
    """Exact division f/g; raises ValueError when g does not divide f.

    One remainder dict is updated in place.  Cancelling the head term of the
    remainder adds only terms below it in the monomial order, so the head
    falls at every step, and a head that g's leading monomial does not divide
    proves the division inexact.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return f
    field = f.field
    if g.is_const():
        return f.scale(field.inverse(g.const_value()))
    p = field.characteristic
    ge, gc = g.leading()
    inv = field.inverse(gc)
    tail = [(e, c) for e, c in g.terms.items() if e != ge]
    rem = dict(f.terms)
    get = rem.get
    out: dict = {}
    while rem:
        fe = max(rem, key=_monomial_key)
        qe = tuple(a - b for a, b in zip(fe, ge))
        if min(qe) < 0:
            raise ValueError("inexact polynomial division")
        qc = rem.pop(fe) * inv
        if p:
            qc %= p
        out[qe] = qc
        for e, c in tail:
            k = tuple(map(add, e, qe))
            x = get(k, 0) - qc * c
            if p:
                x %= p
            if x:
                rem[k] = x
            else:
                rem.pop(k, None)
    return _make(out, field)


# -- rational functions -------------------------------------------------------


class BaseElem(termdict.Ring):
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
    def const(cls, field: FieldDescriptor, value: int | Fraction, den: int = 1) -> "BaseElem":
        return _const(field, field.scalar(value, den))

    @classmethod
    def param(cls, field: FieldDescriptor, name_or_index: Union[str, int]) -> "BaseElem":
        i = name_or_index if isinstance(name_or_index, int) else field.param_index(name_or_index)
        return cls(ParamPoly.var(field, i))

    @classmethod
    def zero(cls, field: FieldDescriptor) -> "BaseElem":
        return _const(field, 0)

    @classmethod
    def one(cls, field: FieldDescriptor) -> "BaseElem":
        return _const(field, 1)

    @classmethod
    def _raw(cls, num: ParamPoly, den: ParamPoly) -> "BaseElem":
        """Construct from an already-coprime pair, only rescaling the denominator."""
        field = num.field
        if not num:
            den = ParamPoly.const(field, 1)
        else:
            num, den = _monic_den(num, den)
        return _elem(num, den)

    # -- field structure ----------------------------------------------------

    def _coerce(self, other) -> "BaseElem":
        if isinstance(other, BaseElem):
            if other.field != self.field:
                raise ValueError("base elements over different fields")
            return other
        if isinstance(other, ParamPoly):
            return BaseElem(other)
        if isinstance(other, (int, Fraction)):
            return BaseElem.const(self.field, other)
        return NotImplemented

    def _value(self) -> int | Fraction | None:
        """The coefficient c when self is the constant c/1, else None."""
        # a monic constant denominator is 1
        if self.den.is_const() and self.num.is_const():
            return self.num.const_value()
        return None

    def _times(self, c: int | Fraction) -> "BaseElem":
        """self * c for a coefficient c: a unit factor keeps num and den coprime."""
        if not c:
            return BaseElem.zero(self.field)
        if c == 1:
            return self
        return _elem(self.num.scale(c), self.den)

    def _plus(self, c: int | Fraction) -> "BaseElem":
        """self + c for a coefficient c: gcd(a + c*b, b) = gcd(a, b) = 1."""
        if not c:
            return self
        # a + c*b = 0 forces b = 1 (b divides a), so a zero sum is already 0/1
        return _elem(self.num + self.den.scale(c), self.den)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            c = self._value()
            return c is not None and c == self.field.scalar(other)
        if not isinstance(other, BaseElem):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __add__(self, other) -> "BaseElem":
        if isinstance(other, (int, Fraction)):
            return self._plus(self.field.scalar(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = other._value()
        if c is not None:
            return self._plus(c)
        c = self._value()
        if c is not None:
            return other._plus(c)
        a, b = self.num, self.den
        c, d = other.num, other.den
        if b.is_const() and d.is_const():
            # denominators are 1 after normalization
            return BaseElem._raw(a + c, b)
        if b == d:
            return BaseElem._raw(*_cancel(a + c, b))
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
        return _elem(-self.num, self.den)

    def __rsub__(self, other) -> "BaseElem":
        return (-self) + other

    def __mul__(self, other) -> "BaseElem":
        if isinstance(other, (int, Fraction)):
            return self._times(self.field.scalar(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = other._value()
        if c is not None:
            return self._times(c)
        c = self._value()
        if c is not None:
            return other._times(c)
        # neither operand is constant, hence neither is zero
        a, b = self.num, self.den
        c, d = other.num, other.den
        # cross-cancel so the result is coprime with no final gcd
        if not b.is_const() and not c.is_const():
            c, b = _cancel(c, b)
        if not d.is_const() and not a.is_const():
            a, d = _cancel(a, d)
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

    def render(self) -> str:
        if self.den.is_const():
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

    def render_head(self) -> str:
        """What is written before a power product that self multiplies, for
        termdict.render_product.  The field's -1 (p - 1 in characteristic p) is
        a bare sign, and a negative leading coefficient gives its sign to the
        piece."""
        c = self._value()
        if c is not None:
            # characteristic - 1 is -1 in characteristic 0 and p - 1 in p; in
            # characteristic 2 it is also 1, which is no sign
            return "-1" if c == self.field.characteristic - 1 and c != 1 else str(c)
        x, sign = (-self, "-") if self.num.leading()[1] < 0 else (self, "")
        s = x.render()
        if x.den.is_const() and len(x.num.terms) > 1:
            s = f"({s})"  # a sum beside '*' needs parentheses
        return sign + s


def _elem(num: ParamPoly, den: ParamPoly) -> BaseElem:
    """The BaseElem num/den, taking the pair as its normal form."""
    out = BaseElem.__new__(BaseElem)
    out.num = num
    out.den = den
    out.field = num.field
    return out


def _const(field: FieldDescriptor, c: int | Fraction) -> BaseElem:
    """The constant c/1 for a coefficient c, which is its own normal form."""
    return _elem(ParamPoly.const(field, c), ParamPoly.const(field, 1))


def _reduce(num: ParamPoly, den: ParamPoly) -> tuple[ParamPoly, ParamPoly]:
    mf, mg = _monomial_content(num), _monomial_content(den)
    common = tuple(min(a, b) for a, b in zip(mf, mg))
    if any(common):
        num, den = _shift_down(num, common), _shift_down(den, common)
    if len(den.terms) > 1 and len(num.terms) > 1:
        num, den = _cancel(num, den)
    return _monic_den(num, den)


def _cancel(p: ParamPoly, q: ParamPoly) -> tuple[ParamPoly, ParamPoly]:
    """p and q divided by their gcd, or both as they are when it is constant."""
    g = poly_gcd(p, q)
    if g.is_const():
        return p, q
    return poly_divexact(p, g), poly_divexact(q, g)


def _monic_den(num: ParamPoly, den: ParamPoly) -> tuple[ParamPoly, ParamPoly]:
    """num and den scaled so that den's leading coefficient is 1."""
    lc = den.leading()[1]
    if lc == 1:
        return num, den
    inv = den.field.inverse(lc)
    return num.scale(inv), den.scale(inv)


# -- Hasse derivatives --------------------------------------------------------


def _poly_hasse(f: ParamPoly, alpha: Sequence[int]) -> ParamPoly:
    """D_alpha of a polynomial: one ParamPoly.hasse per family with a nonzero order."""
    for i, k in enumerate(alpha):
        if k:
            f = f.hasse(i, k)
    return f


def _hasse_values(a: BaseElem, wanted: Sequence[tuple]) -> dict[tuple, BaseElem]:
    """{alpha: D_alpha(a)} for alpha in wanted, from one recursion over the
    down-closure of wanted, walked in graded order.

    For a = num/den the Leibniz rule on den * a = num gives
    D_gamma(num) = sum over beta <= gamma of D_beta(den) * D_{gamma-beta}(a).
    In numerators T_gamma = D_gamma(a) * den^(|gamma|+1) that is T_0 = num and
    T_gamma = D_gamma(num) * den^|gamma|
              - sum over 0 < beta <= gamma of D_beta(den) * den^(|beta|-1) * T_{gamma-beta},
    and each wanted D_alpha(a) is T_alpha over den^(|alpha|+1), normalized
    once.  D_0(a) is a itself.
    """
    num, den = a.num, a.den
    if den.is_const():
        if num.is_const():
            # a constant's positive orders are all zero
            zero = _elem(ParamPoly.zero(a.field), den)
            return {alpha: zero if any(alpha) else a for alpha in wanted}
        # a polynomial's derivatives are polynomials, each its own normal form
        return {alpha: _elem(_poly_hasse(num, alpha), den) for alpha in wanted}
    # the down-closure in graded order: the zero index first, and each
    # T_{gamma-beta} before T_gamma
    closure = sorted(dict.fromkeys(beta for alpha in wanted for beta in indices_below(alpha)), key=sum)
    powers = [ParamPoly.const(a.field, 1), den]
    for _ in range(sum(closure[-1])):
        powers.append(powers[-1] * den)
    # steps[beta] = D_beta(den) * den^(|beta|-1)
    steps, ts = {}, {closure[0]: num}
    for gamma in closure[1:]:
        size = sum(gamma)
        steps[gamma] = _poly_hasse(den, gamma) * powers[size - 1]
        t = _poly_hasse(num, gamma) * powers[size]
        for beta in indices_below(gamma):
            x = steps.get(beta)
            if x:
                y = ts[tuple(map(sub, gamma, beta))]
                if y:
                    t = t - x * y
        ts[gamma] = t
    return {alpha: BaseElem(ts[alpha], powers[sum(alpha) + 1]) if any(alpha) else a for alpha in wanted}


def hasse_derive(alpha: Sequence[int], a: BaseElem) -> BaseElem:
    """The mixed derivative D_alpha(a); D_0 is the identity."""
    alpha = multiindex(alpha, a.field.derivation_count)
    return _hasse_values(a, [alpha])[alpha]


def hasse_table(a: BaseElem, m: int) -> dict[tuple, BaseElem]:
    """{alpha: D_alpha(a)} for every multi-index alpha with |alpha| <= m, in
    graded-lex order, from one recursion over the simplex."""
    if m < 0:
        raise ValueError(f"derivative order must be a natural, got {m}")
    return _hasse_values(a, enumerate_multiindices(a.field.derivation_count, m))
