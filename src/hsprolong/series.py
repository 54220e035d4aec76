"""Truncated multivariate polynomial rings B[t_1..t_n]/(t_1..t_n)^(m+1).

A TruncatedElement maps multi-indices of size <= m to nonzero carrier
elements; the carrier is duck-typed (BaseElem or a sparse symbol polynomial)
and only needs +, -, *, bool and ==.  Products discard terms of size > m.

The twisted structure lives here too: twist_expand sends a base element r to
its truncated Taylor expansion sum D_alpha(r) t^alpha, computed by the
substitution s_i -> s_i + t_i and truncated geometric inversion for
denominators -- deliberately *not* by the quotient-rule derivatives, so the
two routes check each other.  twist_psi applies the expansion coefficientwise
and twist_inverse undoes it by graded elimination.
"""

from __future__ import annotations

from typing import Callable, Mapping

from . import termdict
from .basefield import BaseElem, ParamPoly
from .fields import FieldDescriptor
from .multiindex import (
    enumerate_multiindices,
    graded_lex_key,
    index_add,
    index_size,
    unit_index,
    zero_index,
)


class TruncatedElement:
    """Element of a truncated polynomial ring over an exact carrier ring."""

    __slots__ = ("coeffs", "order_bound", "t_count")

    def __init__(self, coeffs: Mapping[tuple, object], order_bound: int, t_count: int):
        kept = {}
        for a, c in coeffs.items():
            if len(a) != t_count:
                raise ValueError(f"t-exponent {a} has wrong length for {t_count} variables")
            if c and sum(a) <= order_bound:
                kept[a] = c
        self.coeffs = kept
        self.order_bound = order_bound
        self.t_count = t_count

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
        return TruncatedElement(
            termdict.add(self.coeffs, other.coeffs.items()), self.order_bound, self.t_count
        )

    def __neg__(self) -> "TruncatedElement":
        return TruncatedElement(
            {a: -c for a, c in self.coeffs.items()}, self.order_bound, self.t_count
        )

    def __sub__(self, other: "TruncatedElement") -> "TruncatedElement":
        return self + (-other)

    def __mul__(self, other: "TruncatedElement") -> "TruncatedElement":
        self._check(other)
        m = self.order_bound
        return TruncatedElement(
            termdict.mul(self.coeffs, other.coeffs, termdict.size_key(m)), m, self.t_count
        )

    def __pow__(self, k: int) -> "TruncatedElement":
        if k < 0:
            raise ValueError("negative power in a truncated ring")
        if k == 0:
            raise ValueError("power 0 needs a carrier unit; multiply explicitly")
        return termdict.power(self, k - 1, self)

    def scale(self, c) -> "TruncatedElement":
        return TruncatedElement(termdict.scale(self.coeffs, c), self.order_bound, self.t_count)

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
        if not self.coeffs:
            return "0"
        names = tuple(f"t{i+1}" for i in range(self.t_count))
        parts = []
        for a in sorted(self.coeffs, key=graded_lex_key):
            c = self.coeffs[a]
            mono = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, a) if e
            )
            cs = c.render_atomic() if hasattr(c, "render_atomic") else f"({c})"
            neg = getattr(c, "is_negative_leading", lambda: False)()
            if not mono:
                piece = c.render() if hasattr(c, "render") else str(c)
            elif neg:
                body = (-c).render_atomic()
                piece = "-" + (mono if body == "1" else f"{body}*{mono}")
            elif cs == "1":
                piece = mono
            else:
                piece = f"{cs}*{mono}"
            parts.append(piece)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"TruncatedElement({self.render()}; m={self.order_bound}, n={self.t_count})"


def _poly_twist(p: ParamPoly, m: int) -> TruncatedElement:
    """Twisted expansion of a parameter polynomial via s_i -> s_i + t_i."""
    field = p.field
    n = field.derivation_count
    total = TruncatedElement.zero(m, n)
    one = BaseElem.one(field)
    for exps, c in p.terms.items():
        acc = TruncatedElement.constant(BaseElem.const(field, c), m, n)
        for i in range(n):
            if exps[i]:
                lin = TruncatedElement(
                    {zero_index(n): BaseElem.param(field, i), unit_index(n, i): one}, m, n
                )
                acc = acc * lin ** exps[i]
        tail = tuple(0 if i < n else e for i, e in enumerate(exps))
        if any(tail):
            acc = acc.scale(BaseElem(ParamPoly.monomial(field, tail)))
        total = total + acc
    return total


def trunc_inverse(e: TruncatedElement) -> TruncatedElement:
    """Inverse of a truncated element over BaseElem with invertible constant term."""
    m, n = e.order_bound, e.t_count
    c0 = e.coeff_or(zero_index(n), None)
    if c0 is None or not c0:
        raise ZeroDivisionError("constant term is not invertible")
    inv0 = c0.inverse()
    w = e.scale(inv0) - TruncatedElement.constant(BaseElem.one(_field_of(e)), m, n)
    out = TruncatedElement.constant(BaseElem.one(_field_of(e)), m, n)
    power = None
    sign = 1
    for _ in range(1, m + 1):
        power = w if power is None else power * w
        if not power:
            break
        sign = -sign
        out = out + power if sign > 0 else out - power
    return out.scale(inv0)


def _field_of(e: TruncatedElement) -> FieldDescriptor:
    return next(iter(e.coeffs.values())).field


def twist_expand(r: BaseElem, m: int) -> TruncatedElement:
    """The twisted homomorphism e(r) = sum over |alpha| <= m of D_alpha(r) t^alpha.

    Computed by parameter shift and truncated series inversion, independently
    of the quotient-rule derivative code.
    """
    num_e = _poly_twist(r.num, m)
    if r.den.is_const():
        # the normal form's denominator is monic, so a constant one is 1
        return num_e
    return num_e * trunc_inverse(_poly_twist(r.den, m))


def twist_psi(c: TruncatedElement) -> TruncatedElement:
    """Apply twist_expand coefficientwise and recollect: psi(sum b_a t^a)."""
    m, n = c.order_bound, c.t_count
    out = TruncatedElement.zero(m, n)
    for alpha, b in c.coeffs.items():
        out = out + twist_expand(b, m).shift(alpha)
    return out


def twist_inverse(b: TruncatedElement) -> TruncatedElement:
    """The unique c with twist_psi(c) = b, by graded elimination.

    Multi-indices are processed in the canonical graded-lex order; fixing the
    coefficient at one index never disturbs indices of size <= its own.
    """
    m, n = b.order_bound, b.t_count
    out: dict = {}
    image = TruncatedElement.zero(m, n)
    for alpha in enumerate_multiindices(n, m):
        got = image.coeff_or(alpha, None)
        want = b.coeff_or(alpha, None)
        if want is None and got is None:
            continue
        if want is None:
            defect = -got
        elif got is None:
            defect = want
        else:
            defect = want - got
        if not defect:
            continue
        out[alpha] = defect
        image = image + twist_expand(defect, m).shift(alpha)
    return TruncatedElement(out, m, n)
