"""Rational function fields K = k0(s_1..s_r) with commuting Hasse derivations.

A polynomial in the parameters is integer numerators ``nums``, a sparse map
from exponent tuples to nonzero ints, over one positive integer ``den``
(FLINT's fmpq_mpoly layout).  Over Q the pair is canonical, gcd(den, *nums)
= 1 with den = 1 for zero, so equality is structural; over F_p den is 1 and
the numerators are residues in [1, p).  The ring runs on ints alone: a
number enters as FieldDescriptor.ratio's pair (a, b), b a unit, which
``_times_ratio`` scales by with no check again, and ``terms``,
``const_value``, ``leading`` and ``render`` write c/den back through
FieldDescriptor.scalar.  Arithmetic on raw integer dicts leaves numerators
that share a factor with den, or ints outside [0, p), and
``_make``, which builds every ring result, is the one place that puts them
in canonical form: over Q it divides out gcd(den, *nums) and makes den
positive, over F_p it folds them back into [0, p) and drops zeros.

A BaseElem is a quotient num/den of two such polynomials in normal form, so
equality is structural.  The normal form takes three steps, each written
once: the common monomial factor is stripped, ``_cancel`` divides both by
their gcd, and ``_monic_den`` scales both so that the denominator's leading
coefficient under graded-lex is 1.  Sums and products that cancel a gcd on
the way call ``_cancel`` too.

Two integer routines sit inside the gcd machinery.  ``poly_divexact``
updates one remainder dict in place, with its keys in a heap under the
monomial order (Monagan and Pearce, CASC 2007), so each head is one heap
pop and not a scan of the remainder.  Cancelling the head term adds only
terms below it, so the head falls at every step, and a head that the
divisor's leading monomial does not divide proves the division inexact.
Over Q it divides the numerators in Z[s] by the
divisor's primitive part, so by Gauss's lemma a head coefficient that is
not a multiple of the leading one proves it inexact as well.  The
coprimality certificate decides "the gcd is free of s_v" from the images of
both operands in F_P[s_v], every other parameter sent to one point, with P
the characteristic or, over Q, the word prime ``_WORD_PRIME`` (after
Brown's modular gcd): a constant gcd of the images, by Euclid on integer
lists, proves it.  There is no certificate when a denominator is divisible
by P, when the leading v-coefficient vanishes at every point, or when the
images share a factor that the operands do not (an unlucky P or point); the
exact route then runs.

``poly_gcd`` has one route for any number of parameters: strip the monomial
content, ask the certificate for the smallest shared parameter v, try exact
division of the larger operand by the smaller, and otherwise run the
primitive PRS (pseudo-remainder sequence) in v over the other parameters.
``_content``, the gcd of a run of polynomials, is 1 with no poly_gcd call
once the partial gcd or the next polynomial is constant; over one parameter
every content is a constant, so poly_gcd never recurses there.

BaseElem's +, * and / read their operand once, in ``_operand``: a number
(through FieldDescriptor.ratio) or a constant element comes back as its
ratio (a, b), c = a/b with b a unit, and a ParamPoly p as p/1.  Each shape
then takes only the work it needs; only the last runs a gcd:
  - a constant on either side: the integer-ratio lane, (a, b) on
    ``_times_ratio``.  For num/den in normal form,
    (a/b)*num/den is again in normal form when a != 0, since a unit factor
    changes no gcd, and so is (num + (a/b)*den)/den, since
    gcd(num + c*den, den) = gcd(num, den) = 1.  So the lane scales or shifts
    the numerator and keeps the denominator, and ``x == k`` for a number k
    compares the ratios of the constant x and of k by cross-multiplying.
  - two polynomials, both denominators 1: the sum or product of the
    numerators, over 1.  ``BaseElem(num)`` with no denominator is num/1 too.
  - a rational function and anything that is no constant: the gcd route
    (cross-cancelling for *, the Henrici sum for +).

Text: ParamPoly writes each coefficient with ``str``, of the int numerator
or, when den != 1, of FieldDescriptor.scalar(c, den), and
BaseElem.render_head gives what a rational function writes before a power
product; both feed the term-sum rules in termdict, so a coefficient of 4 in
F5 stays ``4*s`` in a ParamPoly but is the sign of ``-x`` in a DiffPoly.

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
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import add, sub
from typing import Iterable, Mapping, Sequence, Union

from . import termdict
from .fields import FieldDescriptor, binom
from .multiindex import down_closure, enumerate_multiindices, indices_below, multiindex, natural, unit_index


def _monomial_key(exps: Sequence[int]) -> tuple:
    # graded order with s_1 > s_2 > ...; max under this key is the leading monomial
    return (sum(exps), tuple(exps))


def _heap_key(exps: tuple) -> tuple:
    # heapq's min is the leading monomial: _monomial_key negated, then the exponents
    return (-sum(exps), tuple([-k for k in exps]), exps)


def _nonzero(terms: Mapping, p: int) -> dict:
    """The terms with each int coefficient reduced mod the characteristic p and zeros dropped."""
    return {k: r for k, c in terms.items() if (r := c % p)}


class ParamPoly(termdict.Ring):
    """Sparse polynomial in the field parameters with exact coefficients:
    integer numerators ``nums`` over one positive integer ``den``.

    The constructor checks outside input; ring results are built by ``_make``."""

    __slots__ = ("nums", "den", "field")

    def __init__(self, terms: Mapping[tuple, int | Fraction], field: FieldDescriptor):
        r = field.param_count
        for e in terms:
            if type(e) is not tuple or len(e) != r or not all(type(k) is int and k >= 0 for k in e):
                raise ValueError(f"exponent {e!r} is not a tuple of {r} naturals")
        ratios = {e: field.ratio(c) for e, c in terms.items()}
        # the numerators over the lcm of the denominators, a unit of the field
        den = lcm(*(b for _, b in ratios.values()))
        f = _times_ratio(_make({e: a * (den // b) for e, (a, b) in ratios.items() if a}, field), 1, den)
        self.nums, self.den, self.field = f.nums, f.den, field

    @property
    def terms(self) -> dict:
        """{exponent tuple: coefficient}, a new dict: Fractions over Q, residues over F_p."""
        scalar, den = self.field.scalar, self.den
        return {e: scalar(c, den) for e, c in self.nums.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldDescriptor) -> "ParamPoly":
        return _make({}, field)

    @classmethod
    def const(cls, field: FieldDescriptor, value: int | Fraction) -> "ParamPoly":
        # an int needs no check; any other number is read by the field
        a, b = (value, 1) if type(value) is int else field.ratio(value)
        f = _make({(0,) * field.param_count: a} if a else {}, field)
        return f if b == 1 else _times_ratio(f, 1, b)

    @classmethod
    def var(cls, field: FieldDescriptor, i: int) -> "ParamPoly":
        if not 0 <= i < field.param_count:
            raise ValueError(f"no parameter with index {i}")
        return _make({unit_index(field.param_count, i): 1}, field)

    @classmethod
    def monomial(cls, field: FieldDescriptor, exps: Sequence[int], coeff: int | Fraction = 1) -> "ParamPoly":
        return cls({tuple(exps): coeff}, field)

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "ParamPoly") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError("parameter polynomials over different fields")

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.field == other.field and self.den == other.den and self.nums == other.nums

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        if type(other) is not ParamPoly:
            return NotImplemented  # a BaseElem takes p as p/1
        self._check(other)
        a, b = self.den, other.den
        if a == b:
            return _make(termdict.add(self.nums, other.nums.items()), self.field, a)
        # over lcm(a, b) = a*x = b*y
        g = gcd(a, b)
        x, y = b // g, a // g
        nums = termdict.add(termdict.scale(self.nums, x), ((e, c * y) for e, c in other.nums.items()))
        return _make(nums, self.field, a * x)

    def __neg__(self) -> "ParamPoly":
        return _make({e: -c for e, c in self.nums.items()}, self.field, self.den)

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        if type(other) is not ParamPoly:
            return NotImplemented
        self._check(other)
        return _make(termdict.mul(self.nums, other.nums, termdict.exp_add), self.field, self.den * other.den)

    def __pow__(self, k: int) -> "ParamPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return termdict.power(self, k, ParamPoly.const(self.field, 1))

    def scale(self, c: int | Fraction) -> "ParamPoly":
        return _times_ratio(self, *self.field.ratio(c))

    # -- structure queries -------------------------------------------------

    def is_const(self) -> bool:
        # nonzero numerators only, so a constant has at most the one zero-exponent term
        t = self.nums
        return not t or (len(t) == 1 and not any(next(iter(t))))

    def const_value(self) -> int | Fraction:
        if not self.nums:
            return self.field.scalar(0)
        ((e, c),) = self.nums.items()
        if any(e):
            raise ValueError("not a constant polynomial")
        return self.field.scalar(c, self.den)

    def degree(self) -> int:
        return max((sum(e) for e in self.nums), default=0)

    def leading(self) -> tuple[tuple, int | Fraction]:
        if not self.nums:
            raise ValueError("leading term of the zero polynomial")
        e = _lead(self)
        return e, self.field.scalar(self.nums[e], self.den)

    def variables(self) -> set:
        return {i for e in self.nums for i, k in enumerate(e) if k}

    # -- Hasse derivative of the polynomial part ----------------------------

    def hasse(self, i: int, k: int) -> "ParamPoly":
        """D_{i,k} of the polynomial: C(e_i, k) s_i^{e_i - k} per monomial."""
        if not natural(k):
            return self
        field = self.field
        p = field.characteristic
        # e -> e - k*unit_i is injective, so no two terms collide; in
        # characteristic p ``binom`` reduces the binomial, over Q it is the integer
        return _make(
            {
                e[:i] + (e[i] - k,) + e[i + 1 :]: (binom(e[i], k, field) if p else comb(e[i], k)) * c
                for e, c in self.nums.items()
                if e[i] >= k
            },
            field,
            self.den,
        )

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        field, nums, den = self.field, self.nums, self.den
        return termdict.render_sum(
            termdict.render_product(
                str(nums[e] if den == 1 else field.scalar(nums[e], den)),
                termdict.render_powers(zip(field.parameter_names, e)),
            )
            for e in sorted(nums, key=_monomial_key, reverse=True)
        )


def _make(nums: dict, field: FieldDescriptor, den: int = 1) -> ParamPoly:
    """The polynomial nums/den on a zero-free dict of valid keys, in its
    canonical form.  Over F_p den is 1 and the int numerators are reduced mod p
    with zeros dropped; over Q gcd(den, *nums) is divided out and den made
    positive, which also sends zero to den 1."""
    out = ParamPoly.__new__(ParamPoly)
    p = field.characteristic
    if p:
        nums = _nonzero(nums, p)
    elif den != 1:
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            den //= g
    out.nums = nums
    out.den = den
    out.field = field
    return out


def _lead(f: ParamPoly) -> tuple:
    """The leading exponent of a nonzero polynomial."""
    return max(f.nums, key=_monomial_key)


def _times_ratio(f: ParamPoly, a: int, b: int) -> ParamPoly:
    """f * a/b for ints a and b, b a unit of the field, in int arithmetic: the
    one scaling rule, which takes (a, b) as FieldDescriptor.ratio gives it and
    checks nothing again."""
    field = f.field
    p = field.characteristic
    if p:
        return _make(termdict.scale(f.nums, a * pow(b, p - 2, p)), field)
    return _make(termdict.scale(f.nums, a), field, f.den * b)


# -- gcd machinery ----------------------------------------------------------


def _monomial_content(f: ParamPoly) -> tuple:
    it = iter(f.nums)
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
    return _make({tuple(a - b for a, b in zip(e, exps)): c for e, c in f.nums.items()}, f.field, f.den)


def _monic(f: ParamPoly) -> ParamPoly:
    if not f:
        return f
    # the leading coefficient is c/den
    c = f.nums[_lead(f)]
    return f if c == f.den else _times_ratio(f, f.den, c)


def _coeffs_in(f: ParamPoly, v: int) -> dict[int, ParamPoly]:
    """View f as a univariate polynomial in parameter v over the other parameters."""
    out: dict[int, dict] = {}
    for e, c in f.nums.items():
        d = e[v]
        rest = list(e)
        rest[v] = 0
        out.setdefault(d, {})[tuple(rest)] = c
    return {d: _make(t, f.field, f.den) for d, t in out.items()}


def _from_coeffs(coeffs: Mapping[int, ParamPoly], v: int, field: FieldDescriptor) -> ParamPoly:
    den = lcm(*(q.den for q in coeffs.values()))
    out: dict = {}
    for d, q in coeffs.items():
        k = den // q.den
        for e, c in q.nums.items():
            ne = list(e)
            ne[v] += d
            out[tuple(ne)] = c * k
    return _make(out, field, den)


def _scalar_rescale(r: dict[int, ParamPoly]) -> dict[int, ParamPoly]:
    """Scale a whole remainder so its coefficients are coprime integers (char 0).

    A PRS tolerates scaling by one global positive scalar; this keeps the
    integer numerators from growing across reduction rounds.
    """
    if not r:
        return r
    field = next(iter(r.values())).field
    if field.characteristic:
        return r
    # over the lcm of the denominators every coefficient is an integer
    den = lcm(*(q.den for q in r.values()))
    scaled = {d: termdict.scale(q.nums, den // q.den) for d, q in r.items()}
    num = gcd(*(c for t in scaled.values() for c in t.values()))
    if den == 1 and num == 1:
        return r
    return {d: _make({e: c // num for e, c in t.items()}, field) for d, t in scaled.items()}


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
    """f's coefficients mod prime, or None when a denominator is divisible by it:
    the common denominator is the lcm of the coefficients' own."""
    if f.field.characteristic:
        return f.nums
    den = f.den
    if den % prime == 0:
        return None
    inv = pow(den, -1, prime)
    return {e: c * inv % prime for e, c in f.nums.items()}


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
    df = max(e[v] for e in f0.nums)
    dg = max(e[v] for e in g0.nums)
    others = any(sum(e) != e[v] for t in (f0.nums, g0.nums) for e in t)
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
    mono = _make({common: 1}, f.field)

    if len(f0.nums) == 1 or len(g0.nums) == 1 or not (shared := f0.variables() & g0.variables()):
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

    One remainder dict is updated in place, and its keys are kept in a heap
    under the monomial order; a key that cancels stays in the heap and is
    skipped when it comes to the top.  Cancelling the head term of the
    remainder adds only terms below it in the monomial order, so the head
    falls at every step, and a head that g's leading monomial does not divide
    proves the division inexact.  Over Q the remainder holds f's integer
    numerators, divided in Z[s] by the primitive part of g's: by Gauss's lemma
    an exact quotient of an integer polynomial by a primitive one has integer
    coefficients, so a head coefficient that is not a multiple of the leading
    one proves the division inexact too.  g's content and both denominators
    go into the quotient's denominator.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return f
    field = f.field
    p = field.characteristic
    if g.is_const():
        (c,) = g.nums.values()
        return _times_ratio(f, g.den, c)
    ge = _lead(g)
    if p:
        cont, inv = 1, field.inverse(g.nums[ge])
    else:
        cont = gcd(*g.nums.values())
        lc = g.nums[ge] // cont
    tail = [(e, c // cont) for e, c in g.nums.items() if e != ge]
    rem = dict(f.nums)
    get = rem.get
    # the remainder's keys, a max-heap under the monomial order with lazy
    # deletion: a key that left rem is skipped when it comes to the top
    heap = [_heap_key(e) for e in rem]
    heapify(heap)
    out: dict = {}
    while rem:
        fe = heappop(heap)[2]
        if fe not in rem:
            continue
        qe = tuple(a - b for a, b in zip(fe, ge))
        if min(qe) < 0:
            raise ValueError("inexact polynomial division")
        if p:
            qc = rem.pop(fe) * inv % p
        else:
            qc, r = divmod(rem.pop(fe), lc)
            if r:
                raise ValueError("inexact polynomial division")
        out[qe] = qc
        for e, c in tail:
            k = tuple(map(add, e, qe))
            y = get(k)
            x = -qc * c if y is None else y - qc * c
            if p:
                x %= p
            if x:
                if y is None:
                    heappush(heap, _heap_key(k))
                rem[k] = x
            elif y is not None:
                del rem[k]
    # over F_p both denominators and the content are 1
    return _make(termdict.scale(out, g.den), field, f.den * cont)


# -- rational functions -------------------------------------------------------


class BaseElem(termdict.Ring):
    """A rational function in the base parameters, kept in normal form."""

    __slots__ = ("num", "den", "field")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None):
        field = num.field
        if den is None:
            # num/1 is its own normal form
            den = ParamPoly.const(field, 1)
        elif not den:
            raise ZeroDivisionError("zero denominator")
        elif not num:
            den = ParamPoly.const(field, 1)
        else:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den
        self.field = field

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, field: FieldDescriptor, value: int | Fraction, den: int = 1) -> "BaseElem":
        return _const(field, *field.ratio(value, den))

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

    def _check(self, other: "BaseElem") -> None:
        if other.field is not self.field and other.field != self.field:
            raise ValueError("base elements over different fields")

    def _operand(self, other) -> "BaseElem | tuple[int, int]":
        """The operand of +, * or /: a number or a constant element as its
        ratio (a, b), b a unit of the field; any other element of self's field
        as it is, and a ParamPoly p as p/1; NotImplemented for any other type."""
        if type(other) is not BaseElem:
            if not isinstance(other, ParamPoly):
                try:
                    return self.field.ratio(other)
                except TypeError:
                    return NotImplemented
            other = BaseElem(other)
        self._check(other)
        return _const_ratio(other) or other

    def _mul_ratio(self, a: int, b: int) -> "BaseElem":
        """self * a/b for ints a and b, b a unit: a unit factor keeps num and den coprime."""
        if a == b:
            return self
        num = _times_ratio(self.num, a, b)
        return _elem(num, self.den) if num else BaseElem.zero(self.field)

    def _add_ratio(self, a: int, b: int) -> "BaseElem":
        """self + a/b for ints a and b, b a unit: gcd(num + c*den, den) = gcd(num, den) = 1."""
        if not a:
            return self
        # num + c*den = 0 forces den = 1 (den divides num), so a zero sum is already 0/1
        return _elem(self.num + _times_ratio(self.den, a, b), self.den)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ParamPoly):
            other = BaseElem(other)
        if isinstance(other, BaseElem):
            # an element over another field is unequal, not an error
            return self.num == other.num and self.den == other.den
        try:
            a, b = self.field.ratio(other)
        except TypeError:
            return NotImplemented
        except ZeroDivisionError:
            return False  # a number with no value in the field equals no element
        r = _const_ratio(self)
        if r is None:
            return False
        n, d = r
        x, p = n * b - a * d, self.field.characteristic
        return not (x % p if p else x)

    def __add__(self, other) -> "BaseElem":
        other = self._operand(other)
        if type(other) is tuple:
            return self._add_ratio(*other)
        if other is NotImplemented:
            return NotImplemented
        r = _const_ratio(self)
        if r:
            return other._add_ratio(*r)
        a, b = self.num, self.den
        c, d = other.num, other.den
        b1, d1 = b.is_const(), d.is_const()
        if b1 and d1:
            # two polynomials: their sum is a polynomial over 1
            return _elem(a + c, b)
        if b == d:
            return BaseElem._raw(*_cancel(a + c, b))
        g = poly_gcd(b, d)
        if g.is_const():
            return BaseElem._raw(a * d + c * b, b * d)
        db, dd = poly_divexact(b, g), poly_divexact(d, g)
        t, g = _cancel(a * dd + c * db, g)
        return BaseElem._raw(t, db * dd * g)

    __radd__ = __add__

    def __neg__(self) -> "BaseElem":
        return _elem(-self.num, self.den)

    def __rsub__(self, other) -> "BaseElem":
        return (-self) + other

    def __mul__(self, other) -> "BaseElem":
        other = self._operand(other)
        if type(other) is tuple:
            return self._mul_ratio(*other)
        if other is NotImplemented:
            return NotImplemented
        r = _const_ratio(self)
        if r:
            return other._mul_ratio(*r)
        a, b = self.num, self.den
        c, d = other.num, other.den
        b1, d1 = b.is_const(), d.is_const()
        if b1 and d1:
            # two polynomials: their product is a polynomial over 1
            return _elem(a * c, b)
        # neither operand is constant, hence neither is zero, and one is no polynomial
        # cross-cancel so the result is coprime with no final gcd
        if not b1 and not c.is_const():
            c, b = _cancel(c, b)
        if not d1 and not a.is_const():
            a, d = _cancel(a, d)
        return BaseElem._raw(a * c, b * d)

    __rmul__ = __mul__

    def inverse(self) -> "BaseElem":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        return BaseElem._raw(self.den, self.num)

    def __truediv__(self, other) -> "BaseElem":
        other = self._operand(other)
        if type(other) is tuple:
            # b/a, with a refused when it is zero in the field
            a, b = other
            return self._mul_ratio(*self.field.ratio(b, a))
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
        if len(self.num.nums) > 1:
            num_s = f"({num_s})"
        den_s = self.den.render()
        # a monic monomial renders as its factors joined by "*"; "/" binds
        # only the first factor, so any product needs parentheses too
        if len(self.den.nums) > 1 or "*" in den_s:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def render_head(self) -> str:
        """What is written before a power product that self multiplies, for
        termdict.render_product.  The field's -1 (p - 1 in characteristic p) is
        a bare sign, and a negative leading coefficient gives its sign to the
        piece."""
        r = _const_ratio(self)
        if r is not None:
            n, d = r
            if d != 1:
                return f"{n}/{d}"
            # characteristic - 1 is -1 in characteristic 0 and p - 1 in p; in
            # characteristic 2 it is also 1, which is no sign
            return "-1" if n == self.field.characteristic - 1 and n != 1 else str(n)
        num = self.num
        x, sign = (-self, "-") if num.nums[_lead(num)] < 0 else (self, "")
        s = x.render()
        if x.den.is_const() and len(x.num.nums) > 1:
            s = f"({s})"  # a sum beside '*' needs parentheses
        return sign + s


def _elem(num: ParamPoly, den: ParamPoly) -> BaseElem:
    """The BaseElem num/den, taking the pair as its normal form."""
    out = BaseElem.__new__(BaseElem)
    out.num = num
    out.den = den
    out.field = num.field
    return out


def _const(field: FieldDescriptor, a: int, b: int = 1) -> BaseElem:
    """The constant a/b over 1 for ints a and b, b a unit, which is its own normal form."""
    one = ParamPoly.const(field, 1)
    return _elem(_times_ratio(one, a, b), one)


def _const_ratio(x: BaseElem) -> tuple[int, int] | None:
    """(a, b) with x = a/b when x is a constant, else None."""
    # a monic constant denominator is 1
    num = x.num
    if x.den.is_const() and num.is_const():
        return next(iter(num.nums.values()), 0), num.den
    return None


def _reduce(num: ParamPoly, den: ParamPoly) -> tuple[ParamPoly, ParamPoly]:
    mf, mg = _monomial_content(num), _monomial_content(den)
    common = tuple(min(a, b) for a, b in zip(mf, mg))
    num, den = _shift_down(num, common), _shift_down(den, common)
    if len(den.nums) > 1 and len(num.nums) > 1:
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
    # the leading coefficient is c/d, so both are scaled by d/c
    c, d = den.nums[_lead(den)], den.den
    if c == d:
        return num, den
    return _times_ratio(num, d, c), _times_ratio(den, d, c)


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
    closure = down_closure(wanted)
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
    return _hasse_values(a, enumerate_multiindices(a.field.derivation_count, natural(m)))
