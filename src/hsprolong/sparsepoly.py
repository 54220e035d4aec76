"""Sparse polynomials in opaque symbols with rational-function coefficients.

A monomial is a tuple of (symbol, exponent) pairs with exponents >= 1, kept
sorted by the symbol's ``sort_key``; terms map monomials to nonzero BaseElem
coefficients.  Symbols only need ``sort_key`` and ``render(names)``, so the
same machinery carries both the differential symbols x_i^(alpha) and the
two-layer symbols of the isomorphism checks.

Canonical term order for rendering: descending total degree, then ascending
factor sequence, which yields e.g. ``x^2 - s`` and ``x*d2y + d1x*d1y + d2x*y``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

from . import termdict
from .basefield import BaseElem
from .fields import FieldDescriptor, Scalar

Monomial = tuple[tuple[object, int], ...]


def monomial_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for sym, e in b:
        exps[sym] = exps.get(sym, 0) + e
    return tuple(sorted(exps.items(), key=lambda p: p[0].sort_key))


def monomial_degree(mono) -> int:
    return sum(e for _, e in mono)


def _display_key(mono):
    return (-monomial_degree(mono), tuple((sym.sort_key, e) for sym, e in mono))


class SparsePoly:
    """Base class; instantiate through a concrete subclass."""

    __slots__ = ("terms", "field")

    def __init__(self, terms: Mapping, field: FieldDescriptor):
        self.terms = {m: c for m, c in terms.items() if c}
        self.field = field

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldDescriptor):
        return cls({}, field)

    @classmethod
    def const(cls, field: FieldDescriptor, value: Union[BaseElem, Scalar, int, Fraction]):
        if not isinstance(value, BaseElem):
            value = BaseElem.const(field, value)
        return cls({(): value}, field)

    @classmethod
    def from_symbol(cls, field: FieldDescriptor, sym, exp: int = 1, coeff=None):
        c = coeff if coeff is not None else BaseElem.one(field)
        if not isinstance(c, BaseElem):
            c = BaseElem.const(field, c)
        return cls({((sym, exp),): c}, field)

    def _make(self, terms) -> "SparsePoly":
        return self.__class__(terms, self.field)

    # -- ring structure -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SparsePoly):
            if type(other) is not type(self):
                raise TypeError("mixing different symbolic polynomial rings")
            return other
        if isinstance(other, (BaseElem, Scalar, int, Fraction)):
            return self.const(self.field, other)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (BaseElem, Scalar, int, Fraction)):
            other = self.const(self.field, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return type(self) is type(other) and self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._make(termdict.add(self.terms, other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._make({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._make(termdict.mul(self.terms, other.terms, monomial_mul))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a symbolic polynomial")
        return termdict.power(self, k, self.const(self.field, 1))

    def scale(self, c):
        if not isinstance(c, BaseElem):
            c = BaseElem.const(self.field, c)
        return self._make(termdict.scale(self.terms, c))

    # -- structure queries ----------------------------------------------------

    def symbols(self) -> set:
        return {sym for m in self.terms for sym, _ in m}

    def degree(self) -> int:
        return max((monomial_degree(m) for m in self.terms), default=0)

    def constant_term(self) -> BaseElem:
        return self.terms.get((), BaseElem.zero(self.field))

    def evaluate(self, assignment: Mapping) -> BaseElem:
        total = BaseElem.zero(self.field)
        for mono, coeff in self.terms.items():
            v = coeff
            for sym, e in mono:
                if sym not in assignment:
                    raise ValueError(f"unassigned symbol {sym}")
                v = v * assignment[sym] ** e
            total = total + v
        return total

    def substitute(self, image: Callable):
        """Replace every symbol by image(symbol), a polynomial of this class."""
        out = self.zero(self.field)
        for mono, coeff in self.terms.items():
            v = self.const(self.field, coeff)
            for sym, e in mono:
                v = v * image(sym) ** e
            out = out + v
        return out

    def map_coeffs(self, f: Callable):
        return self._make({m: f(c) for m, c in self.terms.items()})

    # -- rendering --------------------------------------------------------------

    def render(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_display_key):
            coeff = self.terms[mono]
            body = "*".join(
                sym.render(names) if e == 1 else f"{sym.render(names)}^{e}"
                for sym, e in mono
            )
            if not body:
                parts.append(coeff.render())
                continue
            if coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append("-" + body)
            elif coeff.is_negative_leading():
                cs = (-coeff).render_atomic()
                parts.append("-" + (body if cs == "1" else f"{cs}*{body}"))
            else:
                parts.append(f"{coeff.render_atomic()}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"
