"""The text form of every sparse ring, pinned term by term.

Each case writes one coefficient c as a constant term and beside a monomial,
in a parameter polynomial, a base element, a DiffPoly, a LayeredPoly and a
TruncatedElement over base elements and over DiffPolys.  The coefficients
cover 1, -1, p - 1, negative rational constants, a negative leading term and
sums in the numerator and the denominator, over Q(s,u) and F5(s); over F2(s),
where -1 = p - 1 = 1, a unit coefficient carries no sign.
"""

from fractions import Fraction

import pytest

from hsprolong import BaseElem, DerivationMode, DiffPoly, DiffSymbol, FieldDescriptor, TruncatedElement
from hsprolong.basefield import ParamPoly
from hsprolong.layered import LayeredPoly

Q_SU = FieldDescriptor(0, ("s", "u"), 2)
F5_S = FieldDescriptor(5, ("s",), 1)
F2_S = FieldDescriptor(2, ("s",), 1)
FIELDS = {"Q(s,u)": Q_SU, "F5(s)": F5_S, "F2(s)": F2_S}


def _params(field):
    one = BaseElem.one(field)
    s = BaseElem.param(field, "s")
    u = BaseElem.param(field, "u") if "u" in field.parameter_names else one
    return one, s, u


# coefficient id -> builder from (one, s, u); u is 1 over F5(s)
COEFFS = {
    "one": lambda one, s, u: one,
    "minus-one": lambda one, s, u: -one,
    "p-minus-one": lambda one, s, u: one * 4,
    "two": lambda one, s, u: one * 2,
    "neg-half": lambda one, s, u: one * Fraction(-1, 2),
    "neg-three-halves": lambda one, s, u: one * Fraction(-3, 2),
    "neg-lead": lambda one, s, u: 1 - s,
    "neg-lead-monomial": lambda one, s, u: -2 * s * u,
    "sum-num": lambda one, s, u: s * s + 3 * u - 1,
    "neg-sum-num": lambda one, s, u: -(s * s) + u,
    "inv-monomial": lambda one, s, u: 1 / (s * u),
    "neg-inv": lambda one, s, u: -1 / s,
    "sum-over-sum": lambda one, s, u: (s + 1) / (u * s - 2),
    "neg-sum-over-sum": lambda one, s, u: (1 - s * u) / (s + 3),
}
# number id -> the number, for ParamPoly coefficients
NUMBERS = {"one": 1, "minus-one": -1, "p-minus-one": 4, "two": 2, "neg-half": Fraction(-1, 2)}


def _x(field, var, order=None):
    n = field.derivation_count
    return DiffPoly.from_symbol(field, DiffSymbol(var, order or (0,) * n))


def _d1(field, var):
    return _x(field, var, (1,) + (0,) * (field.derivation_count - 1))


def _layer(field, var, outer, inner):
    return LayeredPoly.generator(field, var, outer, inner, DerivationMode.JET)


def _trunc(field, coeffs):
    n = field.derivation_count
    return TruncatedElement(
        {tuple(a) + (0,) * (n - len(a)): c for a, c in coeffs.items()}, 2, n
    )


def build(kind: str, field, c: BaseElem):
    """The object of the given kind that carries c as a constant term, beside a
    monomial, or both; ``-alone`` kinds carry c as their first (or only) piece."""
    if kind == "base":
        return c
    if kind == "diff-const":
        return DiffPoly.const(field, c)
    if kind == "diff-alone":
        return _x(field, 0) * _d1(field, 1) ** 2 * c
    if kind == "diff-sum":
        x = _x(field, 0)
        return x * x * _d1(field, 1) + x * c + c
    if kind == "layered-alone":
        return _layer(field, 0, 1, 2) * c
    if kind == "layered-sum":
        g = _layer(field, 1, 0, 1)
        return g**2 + _layer(field, 0, 2, 0) * c + c
    if kind == "trunc-alone":
        return _trunc(field, {(0, 1) if field.derivation_count > 1 else (2,): c})
    if kind == "trunc-sum":
        return _trunc(field, {(0,): c, (1,): c, (2,): BaseElem.one(field)})
    if kind == "trunc-diff":
        x = _x(field, 0)
        return _trunc(field, {(0,): DiffPoly.const(field, c), (1,): DiffPoly.const(field, c), (2,): x * c})
    raise ValueError(kind)


def build_param(kind: str, field, k):
    """A ParamPoly with the number k as a constant term, beside a monomial, or both."""
    s = ParamPoly.var(field, 0)
    if kind == "param-const":
        return ParamPoly.const(field, k)
    if kind == "param-alone":
        return (s * s).scale(k)
    if kind == "param-sum":
        top = s * s * s if field.param_count == 1 else s * s * ParamPoly.var(field, 1)
        return top + s.scale(k) + ParamPoly.const(field, k)
    raise ValueError(kind)


# (kind, field, coefficient id, text)
CASES = [
    ("param-const", "Q(s,u)", "one", "1"),
    ("param-const", "Q(s,u)", "minus-one", "-1"),
    ("param-const", "Q(s,u)", "two", "2"),
    ("param-const", "Q(s,u)", "neg-half", "-1/2"),
    ("param-const", "F5(s)", "one", "1"),
    ("param-const", "F5(s)", "p-minus-one", "4"),
    ("param-const", "F5(s)", "two", "2"),
    ("param-alone", "Q(s,u)", "one", "s^2"),
    ("param-alone", "Q(s,u)", "minus-one", "-s^2"),
    ("param-alone", "Q(s,u)", "two", "2*s^2"),
    ("param-alone", "Q(s,u)", "neg-half", "-1/2*s^2"),
    ("param-alone", "F5(s)", "one", "s^2"),
    ("param-alone", "F5(s)", "p-minus-one", "4*s^2"),
    ("param-alone", "F5(s)", "two", "2*s^2"),
    ("param-sum", "Q(s,u)", "one", "s^2*u + s + 1"),
    ("param-sum", "Q(s,u)", "minus-one", "s^2*u - s - 1"),
    ("param-sum", "Q(s,u)", "two", "s^2*u + 2*s + 2"),
    ("param-sum", "Q(s,u)", "neg-half", "s^2*u - 1/2*s - 1/2"),
    ("param-sum", "F5(s)", "one", "s^3 + s + 1"),
    ("param-sum", "F5(s)", "p-minus-one", "s^3 + 4*s + 4"),
    ("param-sum", "F5(s)", "two", "s^3 + 2*s + 2"),
    ("base", "Q(s,u)", "one", "1"),
    ("base", "Q(s,u)", "minus-one", "-1"),
    ("base", "Q(s,u)", "two", "2"),
    ("base", "Q(s,u)", "neg-half", "-1/2"),
    ("base", "Q(s,u)", "neg-three-halves", "-3/2"),
    ("base", "Q(s,u)", "neg-lead", "-s + 1"),
    ("base", "Q(s,u)", "neg-lead-monomial", "-2*s*u"),
    ("base", "Q(s,u)", "sum-num", "s^2 + 3*u - 1"),
    ("base", "Q(s,u)", "neg-sum-num", "-s^2 + u"),
    ("base", "Q(s,u)", "inv-monomial", "1/(s*u)"),
    ("base", "Q(s,u)", "neg-inv", "-1/s"),
    ("base", "Q(s,u)", "sum-over-sum", "(s + 1)/(s*u - 2)"),
    ("base", "Q(s,u)", "neg-sum-over-sum", "(-s*u + 1)/(s + 3)"),
    ("base", "F5(s)", "one", "1"),
    ("base", "F5(s)", "p-minus-one", "4"),
    ("base", "F5(s)", "two", "2"),
    ("base", "F5(s)", "neg-lead", "4*s + 1"),
    ("base", "F5(s)", "sum-num", "s^2 + 2"),
    ("base", "F5(s)", "inv-monomial", "1/s"),
    ("base", "F5(s)", "neg-inv", "4/s"),
    ("base", "F5(s)", "sum-over-sum", "(s + 1)/(s + 3)"),
    ("base", "F5(s)", "neg-sum-over-sum", "(4*s + 1)/(s + 3)"),
    ("diff-const", "Q(s,u)", "one", "1"),
    ("diff-const", "Q(s,u)", "minus-one", "-1"),
    ("diff-const", "Q(s,u)", "two", "2"),
    ("diff-const", "Q(s,u)", "neg-half", "-1/2"),
    ("diff-const", "Q(s,u)", "neg-three-halves", "-3/2"),
    ("diff-const", "Q(s,u)", "neg-lead", "-s + 1"),
    ("diff-const", "Q(s,u)", "neg-lead-monomial", "-2*s*u"),
    ("diff-const", "Q(s,u)", "sum-num", "s^2 + 3*u - 1"),
    ("diff-const", "Q(s,u)", "neg-sum-num", "-s^2 + u"),
    ("diff-const", "Q(s,u)", "inv-monomial", "1/(s*u)"),
    ("diff-const", "Q(s,u)", "neg-inv", "-1/s"),
    ("diff-const", "Q(s,u)", "sum-over-sum", "(s + 1)/(s*u - 2)"),
    ("diff-const", "Q(s,u)", "neg-sum-over-sum", "(-s*u + 1)/(s + 3)"),
    ("diff-const", "F5(s)", "one", "1"),
    ("diff-const", "F5(s)", "p-minus-one", "4"),
    ("diff-const", "F5(s)", "two", "2"),
    ("diff-const", "F5(s)", "neg-lead", "4*s + 1"),
    ("diff-const", "F5(s)", "sum-num", "s^2 + 2"),
    ("diff-const", "F5(s)", "inv-monomial", "1/s"),
    ("diff-const", "F5(s)", "neg-inv", "4/s"),
    ("diff-const", "F5(s)", "sum-over-sum", "(s + 1)/(s + 3)"),
    ("diff-const", "F5(s)", "neg-sum-over-sum", "(4*s + 1)/(s + 3)"),
    ("diff-alone", "Q(s,u)", "one", "x0*d[1,0]x1^2"),
    ("diff-alone", "Q(s,u)", "minus-one", "-x0*d[1,0]x1^2"),
    ("diff-alone", "Q(s,u)", "two", "2*x0*d[1,0]x1^2"),
    ("diff-alone", "Q(s,u)", "neg-half", "-1/2*x0*d[1,0]x1^2"),
    ("diff-alone", "Q(s,u)", "neg-three-halves", "-3/2*x0*d[1,0]x1^2"),
    ("diff-alone", "Q(s,u)", "neg-lead", "-(s - 1)*x0*d[1,0]x1^2"),
    ("diff-alone", "Q(s,u)", "neg-lead-monomial", "-2*s*u*x0*d[1,0]x1^2"),
    ("diff-alone", "Q(s,u)", "sum-num", "(s^2 + 3*u - 1)*x0*d[1,0]x1^2"),
    ("diff-alone", "Q(s,u)", "neg-sum-num", "-(s^2 - u)*x0*d[1,0]x1^2"),
    ("diff-alone", "Q(s,u)", "inv-monomial", "1/(s*u)*x0*d[1,0]x1^2"),
    ("diff-alone", "Q(s,u)", "neg-inv", "-1/s*x0*d[1,0]x1^2"),
    ("diff-alone", "Q(s,u)", "sum-over-sum", "(s + 1)/(s*u - 2)*x0*d[1,0]x1^2"),
    ("diff-alone", "Q(s,u)", "neg-sum-over-sum", "-(s*u - 1)/(s + 3)*x0*d[1,0]x1^2"),
    ("diff-alone", "F5(s)", "one", "x0*d1x1^2"),
    ("diff-alone", "F5(s)", "p-minus-one", "-x0*d1x1^2"),
    ("diff-alone", "F5(s)", "two", "2*x0*d1x1^2"),
    ("diff-alone", "F5(s)", "neg-lead", "(4*s + 1)*x0*d1x1^2"),
    ("diff-alone", "F5(s)", "sum-num", "(s^2 + 2)*x0*d1x1^2"),
    ("diff-alone", "F5(s)", "inv-monomial", "1/s*x0*d1x1^2"),
    ("diff-alone", "F5(s)", "neg-inv", "4/s*x0*d1x1^2"),
    ("diff-alone", "F5(s)", "sum-over-sum", "(s + 1)/(s + 3)*x0*d1x1^2"),
    ("diff-alone", "F5(s)", "neg-sum-over-sum", "(4*s + 1)/(s + 3)*x0*d1x1^2"),
    ("diff-sum", "Q(s,u)", "one", "x0^2*d[1,0]x1 + x0 + 1"),
    ("diff-sum", "Q(s,u)", "minus-one", "x0^2*d[1,0]x1 - x0 - 1"),
    ("diff-sum", "Q(s,u)", "two", "x0^2*d[1,0]x1 + 2*x0 + 2"),
    ("diff-sum", "Q(s,u)", "neg-half", "x0^2*d[1,0]x1 - 1/2*x0 - 1/2"),
    ("diff-sum", "Q(s,u)", "neg-three-halves", "x0^2*d[1,0]x1 - 3/2*x0 - 3/2"),
    ("diff-sum", "Q(s,u)", "neg-lead", "x0^2*d[1,0]x1 - (s - 1)*x0 - s + 1"),
    ("diff-sum", "Q(s,u)", "neg-lead-monomial", "x0^2*d[1,0]x1 - 2*s*u*x0 - 2*s*u"),
    ("diff-sum", "Q(s,u)", "sum-num", "x0^2*d[1,0]x1 + (s^2 + 3*u - 1)*x0 + s^2 + 3*u - 1"),
    ("diff-sum", "Q(s,u)", "neg-sum-num", "x0^2*d[1,0]x1 - (s^2 - u)*x0 - s^2 + u"),
    ("diff-sum", "Q(s,u)", "inv-monomial", "x0^2*d[1,0]x1 + 1/(s*u)*x0 + 1/(s*u)"),
    ("diff-sum", "Q(s,u)", "neg-inv", "x0^2*d[1,0]x1 - 1/s*x0 - 1/s"),
    ("diff-sum", "Q(s,u)", "sum-over-sum", "x0^2*d[1,0]x1 + (s + 1)/(s*u - 2)*x0 + (s + 1)/(s*u - 2)"),
    ("diff-sum", "Q(s,u)", "neg-sum-over-sum", "x0^2*d[1,0]x1 - (s*u - 1)/(s + 3)*x0 + (-s*u + 1)/(s + 3)"),
    ("diff-sum", "F5(s)", "one", "x0^2*d1x1 + x0 + 1"),
    ("diff-sum", "F5(s)", "p-minus-one", "x0^2*d1x1 - x0 + 4"),
    ("diff-sum", "F5(s)", "two", "x0^2*d1x1 + 2*x0 + 2"),
    ("diff-sum", "F5(s)", "neg-lead", "x0^2*d1x1 + (4*s + 1)*x0 + 4*s + 1"),
    ("diff-sum", "F5(s)", "sum-num", "x0^2*d1x1 + (s^2 + 2)*x0 + s^2 + 2"),
    ("diff-sum", "F5(s)", "inv-monomial", "x0^2*d1x1 + 1/s*x0 + 1/s"),
    ("diff-sum", "F5(s)", "neg-inv", "x0^2*d1x1 + 4/s*x0 + 4/s"),
    ("diff-sum", "F5(s)", "sum-over-sum", "x0^2*d1x1 + (s + 1)/(s + 3)*x0 + (s + 1)/(s + 3)"),
    ("diff-sum", "F5(s)", "neg-sum-over-sum", "x0^2*d1x1 + (4*s + 1)/(s + 3)*x0 + (4*s + 1)/(s + 3)"),
    ("layered-alone", "Q(s,u)", "one", "d1pd2x0"),
    ("layered-alone", "Q(s,u)", "minus-one", "-d1pd2x0"),
    ("layered-alone", "Q(s,u)", "two", "2*d1pd2x0"),
    ("layered-alone", "Q(s,u)", "neg-half", "-1/2*d1pd2x0"),
    ("layered-alone", "Q(s,u)", "neg-three-halves", "-3/2*d1pd2x0"),
    ("layered-alone", "Q(s,u)", "neg-lead", "-(s - 1)*d1pd2x0"),
    ("layered-alone", "Q(s,u)", "neg-lead-monomial", "-2*s*u*d1pd2x0"),
    ("layered-alone", "Q(s,u)", "sum-num", "(s^2 + 3*u - 1)*d1pd2x0"),
    ("layered-alone", "Q(s,u)", "neg-sum-num", "-(s^2 - u)*d1pd2x0"),
    ("layered-alone", "Q(s,u)", "inv-monomial", "1/(s*u)*d1pd2x0"),
    ("layered-alone", "Q(s,u)", "neg-inv", "-1/s*d1pd2x0"),
    ("layered-alone", "Q(s,u)", "sum-over-sum", "(s + 1)/(s*u - 2)*d1pd2x0"),
    ("layered-alone", "Q(s,u)", "neg-sum-over-sum", "-(s*u - 1)/(s + 3)*d1pd2x0"),
    ("layered-alone", "F5(s)", "one", "d1pd2x0"),
    ("layered-alone", "F5(s)", "p-minus-one", "-d1pd2x0"),
    ("layered-alone", "F5(s)", "two", "2*d1pd2x0"),
    ("layered-alone", "F5(s)", "neg-lead", "(4*s + 1)*d1pd2x0"),
    ("layered-alone", "F5(s)", "sum-num", "(s^2 + 2)*d1pd2x0"),
    ("layered-alone", "F5(s)", "inv-monomial", "1/s*d1pd2x0"),
    ("layered-alone", "F5(s)", "neg-inv", "4/s*d1pd2x0"),
    ("layered-alone", "F5(s)", "sum-over-sum", "(s + 1)/(s + 3)*d1pd2x0"),
    ("layered-alone", "F5(s)", "neg-sum-over-sum", "(4*s + 1)/(s + 3)*d1pd2x0"),
    ("layered-sum", "Q(s,u)", "one", "d0pd1x1^2 + d2pd0x0 + 1"),
    ("layered-sum", "Q(s,u)", "minus-one", "d0pd1x1^2 - d2pd0x0 - 1"),
    ("layered-sum", "Q(s,u)", "two", "d0pd1x1^2 + 2*d2pd0x0 + 2"),
    ("layered-sum", "Q(s,u)", "neg-half", "d0pd1x1^2 - 1/2*d2pd0x0 - 1/2"),
    ("layered-sum", "Q(s,u)", "neg-three-halves", "d0pd1x1^2 - 3/2*d2pd0x0 - 3/2"),
    ("layered-sum", "Q(s,u)", "neg-lead", "d0pd1x1^2 - (s - 1)*d2pd0x0 - s + 1"),
    ("layered-sum", "Q(s,u)", "neg-lead-monomial", "d0pd1x1^2 - 2*s*u*d2pd0x0 - 2*s*u"),
    ("layered-sum", "Q(s,u)", "sum-num", "d0pd1x1^2 + (s^2 + 3*u - 1)*d2pd0x0 + s^2 + 3*u - 1"),
    ("layered-sum", "Q(s,u)", "neg-sum-num", "d0pd1x1^2 - (s^2 - u)*d2pd0x0 - s^2 + u"),
    ("layered-sum", "Q(s,u)", "inv-monomial", "d0pd1x1^2 + 1/(s*u)*d2pd0x0 + 1/(s*u)"),
    ("layered-sum", "Q(s,u)", "neg-inv", "d0pd1x1^2 - 1/s*d2pd0x0 - 1/s"),
    ("layered-sum", "Q(s,u)", "sum-over-sum", "d0pd1x1^2 + (s + 1)/(s*u - 2)*d2pd0x0 + (s + 1)/(s*u - 2)"),
    ("layered-sum", "Q(s,u)", "neg-sum-over-sum", "d0pd1x1^2 - (s*u - 1)/(s + 3)*d2pd0x0 + (-s*u + 1)/(s + 3)"),
    ("layered-sum", "F5(s)", "one", "d0pd1x1^2 + d2pd0x0 + 1"),
    ("layered-sum", "F5(s)", "p-minus-one", "d0pd1x1^2 - d2pd0x0 + 4"),
    ("layered-sum", "F5(s)", "two", "d0pd1x1^2 + 2*d2pd0x0 + 2"),
    ("layered-sum", "F5(s)", "neg-lead", "d0pd1x1^2 + (4*s + 1)*d2pd0x0 + 4*s + 1"),
    ("layered-sum", "F5(s)", "sum-num", "d0pd1x1^2 + (s^2 + 2)*d2pd0x0 + s^2 + 2"),
    ("layered-sum", "F5(s)", "inv-monomial", "d0pd1x1^2 + 1/s*d2pd0x0 + 1/s"),
    ("layered-sum", "F5(s)", "neg-inv", "d0pd1x1^2 + 4/s*d2pd0x0 + 4/s"),
    ("layered-sum", "F5(s)", "sum-over-sum", "d0pd1x1^2 + (s + 1)/(s + 3)*d2pd0x0 + (s + 1)/(s + 3)"),
    ("layered-sum", "F5(s)", "neg-sum-over-sum", "d0pd1x1^2 + (4*s + 1)/(s + 3)*d2pd0x0 + (4*s + 1)/(s + 3)"),
    ("trunc-alone", "Q(s,u)", "one", "t2"),
    ("trunc-alone", "Q(s,u)", "minus-one", "-t2"),
    ("trunc-alone", "Q(s,u)", "two", "2*t2"),
    ("trunc-alone", "Q(s,u)", "neg-half", "-1/2*t2"),
    ("trunc-alone", "Q(s,u)", "neg-three-halves", "-3/2*t2"),
    ("trunc-alone", "Q(s,u)", "neg-lead", "-(s - 1)*t2"),
    ("trunc-alone", "Q(s,u)", "neg-lead-monomial", "-2*s*u*t2"),
    ("trunc-alone", "Q(s,u)", "sum-num", "(s^2 + 3*u - 1)*t2"),
    ("trunc-alone", "Q(s,u)", "neg-sum-num", "-(s^2 - u)*t2"),
    ("trunc-alone", "Q(s,u)", "inv-monomial", "1/(s*u)*t2"),
    ("trunc-alone", "Q(s,u)", "neg-inv", "-1/s*t2"),
    ("trunc-alone", "Q(s,u)", "sum-over-sum", "(s + 1)/(s*u - 2)*t2"),
    ("trunc-alone", "Q(s,u)", "neg-sum-over-sum", "-(s*u - 1)/(s + 3)*t2"),
    ("trunc-alone", "F5(s)", "one", "t1^2"),
    # p - 1 beside a monomial is a bare sign, as in a DiffPoly (was 4*t1^2)
    ("trunc-alone", "F5(s)", "p-minus-one", "-t1^2"),
    ("trunc-alone", "F5(s)", "two", "2*t1^2"),
    ("trunc-alone", "F5(s)", "neg-lead", "(4*s + 1)*t1^2"),
    ("trunc-alone", "F5(s)", "sum-num", "(s^2 + 2)*t1^2"),
    ("trunc-alone", "F5(s)", "inv-monomial", "1/s*t1^2"),
    ("trunc-alone", "F5(s)", "neg-inv", "4/s*t1^2"),
    ("trunc-alone", "F5(s)", "sum-over-sum", "(s + 1)/(s + 3)*t1^2"),
    ("trunc-alone", "F5(s)", "neg-sum-over-sum", "(4*s + 1)/(s + 3)*t1^2"),
    ("trunc-sum", "Q(s,u)", "one", "1 + t1 + t1^2"),
    ("trunc-sum", "Q(s,u)", "minus-one", "-1 - t1 + t1^2"),
    ("trunc-sum", "Q(s,u)", "two", "2 + 2*t1 + t1^2"),
    ("trunc-sum", "Q(s,u)", "neg-half", "-1/2 - 1/2*t1 + t1^2"),
    ("trunc-sum", "Q(s,u)", "neg-three-halves", "-3/2 - 3/2*t1 + t1^2"),
    ("trunc-sum", "Q(s,u)", "neg-lead", "-s + 1 - (s - 1)*t1 + t1^2"),
    ("trunc-sum", "Q(s,u)", "neg-lead-monomial", "-2*s*u - 2*s*u*t1 + t1^2"),
    ("trunc-sum", "Q(s,u)", "sum-num", "s^2 + 3*u - 1 + (s^2 + 3*u - 1)*t1 + t1^2"),
    ("trunc-sum", "Q(s,u)", "neg-sum-num", "-s^2 + u - (s^2 - u)*t1 + t1^2"),
    ("trunc-sum", "Q(s,u)", "inv-monomial", "1/(s*u) + 1/(s*u)*t1 + t1^2"),
    ("trunc-sum", "Q(s,u)", "neg-inv", "-1/s - 1/s*t1 + t1^2"),
    ("trunc-sum", "Q(s,u)", "sum-over-sum", "(s + 1)/(s*u - 2) + (s + 1)/(s*u - 2)*t1 + t1^2"),
    ("trunc-sum", "Q(s,u)", "neg-sum-over-sum", "(-s*u + 1)/(s + 3) - (s*u - 1)/(s + 3)*t1 + t1^2"),
    ("trunc-sum", "F5(s)", "one", "1 + t1 + t1^2"),
    # was 4 + 4*t1 + t1^2
    ("trunc-sum", "F5(s)", "p-minus-one", "4 - t1 + t1^2"),
    ("trunc-sum", "F5(s)", "two", "2 + 2*t1 + t1^2"),
    ("trunc-sum", "F5(s)", "neg-lead", "4*s + 1 + (4*s + 1)*t1 + t1^2"),
    ("trunc-sum", "F5(s)", "sum-num", "s^2 + 2 + (s^2 + 2)*t1 + t1^2"),
    ("trunc-sum", "F5(s)", "inv-monomial", "1/s + 1/s*t1 + t1^2"),
    ("trunc-sum", "F5(s)", "neg-inv", "4/s + 4/s*t1 + t1^2"),
    ("trunc-sum", "F5(s)", "sum-over-sum", "(s + 1)/(s + 3) + (s + 1)/(s + 3)*t1 + t1^2"),
    ("trunc-sum", "F5(s)", "neg-sum-over-sum", "(4*s + 1)/(s + 3) + (4*s + 1)/(s + 3)*t1 + t1^2"),
    ("trunc-diff", "Q(s,u)", "one", "1 + (1)*t1 + (x0)*t1^2"),
    ("trunc-diff", "Q(s,u)", "minus-one", "-1 + (-1)*t1 + (-x0)*t1^2"),
    ("trunc-diff", "Q(s,u)", "two", "2 + (2)*t1 + (2*x0)*t1^2"),
    ("trunc-diff", "Q(s,u)", "neg-half", "-1/2 + (-1/2)*t1 + (-1/2*x0)*t1^2"),
    ("trunc-diff", "Q(s,u)", "neg-three-halves", "-3/2 + (-3/2)*t1 + (-3/2*x0)*t1^2"),
    ("trunc-diff", "Q(s,u)", "neg-lead", "-s + 1 + (-s + 1)*t1 + (-(s - 1)*x0)*t1^2"),
    ("trunc-diff", "Q(s,u)", "neg-lead-monomial", "-2*s*u + (-2*s*u)*t1 + (-2*s*u*x0)*t1^2"),
    ("trunc-diff", "Q(s,u)", "sum-num", "s^2 + 3*u - 1 + (s^2 + 3*u - 1)*t1 + ((s^2 + 3*u - 1)*x0)*t1^2"),
    ("trunc-diff", "Q(s,u)", "neg-sum-num", "-s^2 + u + (-s^2 + u)*t1 + (-(s^2 - u)*x0)*t1^2"),
    ("trunc-diff", "Q(s,u)", "inv-monomial", "1/(s*u) + (1/(s*u))*t1 + (1/(s*u)*x0)*t1^2"),
    ("trunc-diff", "Q(s,u)", "neg-inv", "-1/s + (-1/s)*t1 + (-1/s*x0)*t1^2"),
    ("trunc-diff", "Q(s,u)", "sum-over-sum", "(s + 1)/(s*u - 2) + ((s + 1)/(s*u - 2))*t1 + ((s + 1)/(s*u - 2)*x0)*t1^2"),
    ("trunc-diff", "Q(s,u)", "neg-sum-over-sum", "(-s*u + 1)/(s + 3) + ((-s*u + 1)/(s + 3))*t1 + (-(s*u - 1)/(s + 3)*x0)*t1^2"),
    ("trunc-diff", "F5(s)", "one", "1 + (1)*t1 + (x0)*t1^2"),
    ("trunc-diff", "F5(s)", "p-minus-one", "4 + (4)*t1 + (-x0)*t1^2"),
    ("trunc-diff", "F5(s)", "two", "2 + (2)*t1 + (2*x0)*t1^2"),
    ("trunc-diff", "F5(s)", "neg-lead", "4*s + 1 + (4*s + 1)*t1 + ((4*s + 1)*x0)*t1^2"),
    ("trunc-diff", "F5(s)", "sum-num", "s^2 + 2 + (s^2 + 2)*t1 + ((s^2 + 2)*x0)*t1^2"),
    ("trunc-diff", "F5(s)", "inv-monomial", "1/s + (1/s)*t1 + (1/s*x0)*t1^2"),
    ("trunc-diff", "F5(s)", "neg-inv", "4/s + (4/s)*t1 + (4/s*x0)*t1^2"),
    ("trunc-diff", "F5(s)", "sum-over-sum", "(s + 1)/(s + 3) + ((s + 1)/(s + 3))*t1 + ((s + 1)/(s + 3)*x0)*t1^2"),
    ("trunc-diff", "F5(s)", "neg-sum-over-sum", "(4*s + 1)/(s + 3) + ((4*s + 1)/(s + 3))*t1 + ((4*s + 1)/(s + 3)*x0)*t1^2"),
    # characteristic 2: p - 1 is 1, so a unit coefficient is elided, never a sign
    ("param-const", "F2(s)", "one", "1"),
    ("param-const", "F2(s)", "minus-one", "1"),
    ("param-alone", "F2(s)", "one", "s^2"),
    ("param-alone", "F2(s)", "minus-one", "s^2"),
    ("param-sum", "F2(s)", "one", "s^3 + s + 1"),
    ("param-sum", "F2(s)", "minus-one", "s^3 + s + 1"),
    ("base", "F2(s)", "one", "1"),
    ("base", "F2(s)", "minus-one", "1"),
    ("base", "F2(s)", "neg-lead", "s + 1"),
    ("diff-const", "F2(s)", "one", "1"),
    ("diff-const", "F2(s)", "minus-one", "1"),
    ("diff-const", "F2(s)", "neg-lead", "s + 1"),
    ("diff-alone", "F2(s)", "one", "x0*d1x1^2"),
    ("diff-alone", "F2(s)", "minus-one", "x0*d1x1^2"),
    ("diff-alone", "F2(s)", "neg-lead", "(s + 1)*x0*d1x1^2"),
    ("diff-sum", "F2(s)", "one", "x0^2*d1x1 + x0 + 1"),
    ("diff-sum", "F2(s)", "minus-one", "x0^2*d1x1 + x0 + 1"),
    ("diff-sum", "F2(s)", "neg-lead", "x0^2*d1x1 + (s + 1)*x0 + s + 1"),
    ("layered-alone", "F2(s)", "one", "d1pd2x0"),
    ("layered-alone", "F2(s)", "minus-one", "d1pd2x0"),
    ("layered-alone", "F2(s)", "neg-lead", "(s + 1)*d1pd2x0"),
    ("layered-sum", "F2(s)", "one", "d0pd1x1^2 + d2pd0x0 + 1"),
    ("layered-sum", "F2(s)", "minus-one", "d0pd1x1^2 + d2pd0x0 + 1"),
    ("layered-sum", "F2(s)", "neg-lead", "d0pd1x1^2 + (s + 1)*d2pd0x0 + s + 1"),
    ("trunc-alone", "F2(s)", "one", "t1^2"),
    ("trunc-alone", "F2(s)", "minus-one", "t1^2"),
    ("trunc-alone", "F2(s)", "neg-lead", "(s + 1)*t1^2"),
    ("trunc-sum", "F2(s)", "one", "1 + t1 + t1^2"),
    ("trunc-sum", "F2(s)", "minus-one", "1 + t1 + t1^2"),
    ("trunc-sum", "F2(s)", "neg-lead", "s + 1 + (s + 1)*t1 + t1^2"),
    ("trunc-diff", "F2(s)", "one", "1 + (1)*t1 + (x0)*t1^2"),
    ("trunc-diff", "F2(s)", "minus-one", "1 + (1)*t1 + (x0)*t1^2"),
    ("trunc-diff", "F2(s)", "neg-lead", "s + 1 + (s + 1)*t1 + ((s + 1)*x0)*t1^2"),
]


@pytest.mark.parametrize(
    "kind, field, coeff, text", CASES, ids=[f"{k}-{f}-{c}" for k, f, c, _ in CASES]
)
def test_text_form_is_pinned(kind, field, coeff, text):
    F = FIELDS[field]
    if kind.startswith("param"):
        got = build_param(kind, F, NUMBERS[coeff])
    else:
        got = build(kind, F, COEFFS[coeff](*_params(F)))
    assert got.render() == text
