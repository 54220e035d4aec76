"""Parser for variety input documents.

Grammar (whitespace-insensitive)::

    document   := fieldblock varietyblock [pointblock]
    fieldblock := "char" NAT ";" "params" IDENT* ";" "derivations" NAT ";"
    varietyblock := "vars" IDENT+ ";" "gens" poly ("," poly)* ";"
    pointblock := "point" assignments ";"
    assignments := IDENT "=" poly ("," IDENT "=" poly)*
    poly       := ["+"|"-"] term (("+"|"-") term)*
    term       := factor (("*"|"/") factor)*
    factor     := atom ["^" NAT]
    atom       := NAT | IDENT | "(" poly ")"

Identifiers must be declared parameters or variety variables; a divisor may
not involve variety variables.  ``assignments`` is also the whole grammar of
a ``--point`` value (``parse_point``) and of a ``--map`` value
(``parse_assignments``); an assigned name is an identifier, not a keyword.
A declared or assigned name appears once, and no variable is a parameter;
a name that breaks this is reported at its own token.  Diagnostics carry
line and column, counted in the text that was parsed: the document, or the
flag value.

A token is its text, one string of a single ``findall``, and the end of input
is the token "".  Its kind comes from its first character: a number starts
with a decimal digit (``str.isdecimal``, so "٥" is a number and "²" starts an
identifier), a punctuation mark is a token of its own, and anything else
starts an identifier.  A successful parse keeps no offsets; a diagnostic
names a token by its index and tokenizes the text again to find where that
token starts.

An expression is read into a term dict from variety exponent tuples to
coefficients num/den, each a numerator and a denominator ParamPoly.  A term
folds its run of number, parameter and variable factors, powers and
divisions by numbers and parameters included, into one monomial: a scalar,
parameter exponents (negative ones go to the denominator) and variable
exponents; a leading minus sign goes into the scalar.  Ring arithmetic is
left to what the fold cannot do: a product is taken only for a parenthesized
factor and for a parenthesized divisor, which must be constant and nonzero.
A sum adds each term into one term dict in place, dropping a sum that
cancels as termdict.add does; sums, products and powers take no gcd, and
every output coefficient is normalized once, as one BaseElem(num, den), when
the expression becomes a DiffPoly or a point coordinate.  Each monomial
keeps its own denominator, so the denominators of other terms never enter
its gcd.  A quotient is zero exactly when its numerator is, so the zero
tests behind "division by zero" and "variety variable in a denominator" read
the unreduced values, at the divisor that fails them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import termdict
from .basefield import BaseElem, ParamPoly, _elem, _make
from .fields import FieldDescriptor, is_prime
from .diffpoly import DiffPoly, DiffSymbol
from .multiindex import zero_index
from .presentations import VarietyPresentation

KEYWORDS = {"char", "params", "derivations", "vars", "gens", "point"}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


def _where(text: str, offset: int) -> tuple[int, int]:
    """(line, column) of an offset, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# Tried in this order, the alternatives give the tokens of
# \d+|[^\W\d]\w*|[-+*/^();,=]: \w+ is reached only where \d+ fails, so an
# identifier starts with no decimal digit.  Punctuation text never equals the
# text of a number or an identifier, so the parser tells punctuation and
# keywords apart by their text alone.
_TOKEN = re.compile(r"[-+*/^();,=]|\d+|\w+")
_PUNCT = frozenset("-+*/^();,=")
# any non-space character that starts no token
_STRAY = re.compile(r"[^\w\s+*/^();,=-]")


def _tokenize(text: str) -> list[str]:
    stray = _STRAY.search(text)
    if stray:
        raise ParseError(f"unexpected character {stray.group()!r}", *_where(text, stray.start()))
    toks = _TOKEN.findall(text)
    toks.append("")
    return toks


def _offsets(text: str) -> list[int]:
    """Where each token of text starts, then the end of input; only a
    diagnostic needs them, so only a diagnostic tokenizes the text again."""
    out = [m.start() for m in _TOKEN.finditer(text)]
    out.append(len(text))
    return out


def _is_name(tok: str) -> bool:
    """Whether a token is an identifier: not the end of input, a number or punctuation."""
    return tok != "" and not tok[0].isdecimal() and tok not in _PUNCT


class _Fraction:
    """num/den of two ParamPolys with no gcd taken: one coefficient of a parsed
    expression before its one normalization.

    A denominator of 1 is None; any other denominator is nonconstant, because
    division by a constant is folded into the numerator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPoly, den: Optional[ParamPoly] = None):
        self.num = num
        self.den = den

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: "_Fraction") -> "_Fraction":
        if self.den == other.den:
            return _Fraction(self.num + other.num, self.den)
        return _Fraction(_times(self.num, other.den) + _times(other.num, self.den), _times(self.den, other.den))

    def __mul__(self, other: "_Fraction") -> "_Fraction":
        return _Fraction(self.num * other.num, _times(self.den, other.den))

    def normalize(self, one: ParamPoly) -> BaseElem:
        """The BaseElem num/den; with no denominator, num/1 is its own normal form."""
        return _elem(self.num, one) if self.den is None else BaseElem(self.num, self.den)


def _times(a: Optional[ParamPoly], b: Optional[ParamPoly]) -> Optional[ParamPoly]:
    """a * b, where None stands for 1."""
    if a is None:
        return b
    return a if b is None else a * b


def _mul_terms(a: dict, b: dict) -> dict:
    return termdict.mul(a, b, termdict.exp_add)


def _add_term(acc: dict, key: tuple, c: _Fraction) -> None:
    """acc[key] += c in place; a sum that cancels is dropped, as in termdict.add."""
    s = acc.get(key)
    if s is None:
        acc[key] = c
    else:
        s += c
        if s:
            acc[key] = s
        else:
            del acc[key]


@dataclass
class InputDocument:
    field: FieldDescriptor
    var_names: tuple[str, ...]
    variety: VarietyPresentation
    point: Optional[dict[int, BaseElem]] = None


class _Parser:
    def __init__(self, text: str, field: FieldDescriptor | None = None, var_names: tuple[str, ...] = ()):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.field = field
        self.var_names = var_names
        if field is not None:
            self._bind(field, var_names)
            # names from the caller: an identifier token spells no keyword,
            # number or punctuation, so a name that is one names nothing
            self.names = {name: v for name, v in self.names.items() if _is_name(name) and name not in KEYWORDS}

    def _bind(self, field: FieldDescriptor, var_names: tuple[str, ...]) -> None:
        self.field = field
        self.var_names = var_names
        zero = zero_index(field.derivation_count)
        self.syms = tuple([DiffSymbol(i, zero) for i in range(len(var_names))])
        self.origin = (0,) * len(var_names)
        self.param_count = field.param_count
        self.one = ParamPoly.const(field, 1)
        # identifier -> (is a variety variable, index); a variable shadows a parameter
        self.names = names = {name: (False, i) for i, name in enumerate(field.parameter_names)}
        for i, name in enumerate(var_names):
            names[name] = (True, i)

    # -- token plumbing ----------------------------------------------------

    def error(self, message: str, i: int) -> ParseError:
        """A diagnostic at token i."""
        return ParseError(message, *_where(self.text, _offsets(self.text)[i]))

    def expect(self, text: str) -> int:
        """The index of the next token, which must be the punctuation or keyword ``text``."""
        i = self.pos
        tok = self.toks[i]
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok or 'end of input'!r}", i)
        self.pos = i + 1
        return i

    def expect_nat(self) -> int:
        i = self.pos
        tok = self.toks[i]
        if not tok.isdecimal():
            raise self.error(f"expected a natural number, found {tok!r}", i)
        self.pos = i + 1
        return int(tok)

    def expect_end(self) -> int:
        i = self.pos
        if self.toks[i]:
            raise self.error(f"unexpected trailing input {self.toks[i]!r}", i)
        return i

    def name_list(self, repeated: str, params: Sequence[str] = (), at_least_one: bool = False) -> list[str]:
        """The identifiers up to the next keyword or punctuation.  A name read
        earlier in the list (message ``repeated``) or among ``params`` is
        rejected at its own token."""
        toks = self.toks
        names: list[str] = []
        i = self.pos
        while toks[i] not in KEYWORDS and _is_name(toks[i]):
            tok = toks[i]
            if tok in names:
                raise self.error(repeated, i)
            if tok in params:
                raise self.error(f"identifier {tok!r} is both a parameter and a variable", i)
            names.append(tok)
            i += 1
        if at_least_one and not names:
            raise self.error("expected at least one identifier", i)
        self.pos = i
        return names

    # -- document structure ---------------------------------------------------

    def parse_document(self) -> InputDocument:
        toks = self.toks
        char_at = self.expect("char")
        char = self.expect_nat()
        if char != 0 and not is_prime(char):
            raise self.error(f"characteristic {char} is not 0 or prime", char_at)
        self.expect(";")
        self.expect("params")
        params = self.name_list("parameter names must be distinct")
        self.expect(";")
        der_at = self.expect("derivations")
        n = self.expect_nat()
        self.expect(";")
        try:
            field = FieldDescriptor(char, tuple(params), n)
        except ValueError as exc:
            raise self.error(str(exc), der_at) from None

        self.expect("vars")
        var_names = self.name_list("variety variables must be distinct", params, at_least_one=True)
        self._bind(field, tuple(var_names))
        self.expect(";")

        self.expect("gens")
        gens = [self.parse_poly()]
        while toks[self.pos] == ",":
            self.pos += 1
            gens.append(self.parse_poly())
        self.expect(";")
        gens = [self.diffpoly(g) for g in gens]

        point = None
        if toks[self.pos] == "point":
            self.pos += 1
            pairs = self.assignments()
            point = self.point(pairs, "point block", self.expect(";"))
        self.expect_end()

        variety = VarietyPresentation(field, len(var_names), gens)
        return InputDocument(field, self.var_names, variety, point)

    def assignments(self) -> dict[str, tuple[int, dict]]:
        """IDENT "=" poly ("," IDENT "=" poly)*, as name -> (token index, value).

        A name that is not one identifier, is a keyword, or repeats an earlier
        name is rejected at its own position.
        """
        toks = self.toks
        pairs: dict[str, tuple[int, dict]] = {}
        while True:
            i = self.pos
            tok = toks[i]
            if not _is_name(tok) or tok in KEYWORDS:
                stop = next(j for j in range(i, len(toks)) if toks[j] in ("", "=", ",", ";"))
                offsets = _offsets(self.text)
                got = self.text[offsets[i]:offsets[stop]].strip()
                raise self.error(f"expected a name before '=', got {got!r}", i)
            if tok in pairs:
                raise self.error(f"{tok!r} is assigned twice", i)
            self.pos = i + 1
            self.expect("=")
            pairs[tok] = (i, self.parse_poly())
            if toks[self.pos] != ",":
                return pairs
            self.pos += 1

    def point(self, pairs: dict[str, tuple[int, dict]], where: str, end: int) -> dict[int, BaseElem]:
        """The point given by assignments: every variable once, each a constant.

        A missing variable is reported at token ``end``, the one that closed
        the assignments.
        """
        var_names = self.var_names
        point = {}
        for name, (i, value) in pairs.items():
            if name not in var_names:
                raise self.error(f"undeclared variable {name!r} in {where}", i)
            if any(map(any, value)):
                raise self.error("point coordinates must not involve variety variables", i)
            c = value.get(self.origin)
            point[var_names.index(name)] = c.normalize(self.one) if c else _elem(_make({}, self.field), self.one)
        if len(point) < len(var_names):
            missing = next(v for i, v in enumerate(var_names) if i not in point)
            raise self.error(f"{where} is missing {missing!r}", end)
        return point

    # -- polynomial expressions ---------------------------------------------------

    # An expression is a term dict {exponent tuple: _Fraction}; see the module docstring.

    def diffpoly(self, terms: dict) -> DiffPoly:
        """The DiffPoly of a parsed expression: one normalization per term."""
        one = self.one
        syms = self.syms
        return DiffPoly._of(
            self.field,
            {tuple([(sym, k) for sym, k in zip(syms, e) if k]): c.normalize(one) for e, c in terms.items()},
        )

    def parse_poly(self) -> dict:
        """["+"|"-"] term (("+"|"-") term)*, each term summed into one dict in place."""
        toks = self.toks
        acc: dict = {}
        sign = toks[self.pos]
        if sign == "+" or sign == "-":
            self.pos += 1
        while True:
            self.parse_term(acc, sign == "-")
            sign = toks[self.pos]
            if sign != "+" and sign != "-":
                return acc
            self.pos += 1

    def parse_term(self, acc: dict, negative: bool) -> None:
        """factor (("*"|"/") factor)*, with factor := atom ["^" NAT], added to acc.

        Number, parameter and variable factors fold into the monomial
        top/bottom * s^pexp * x^vexp, with top and bottom integers and the
        term's sign in top; each diagnostic fires once its divisor is read.
        """
        toks = self.toks
        field = self.field
        p = field.characteristic
        names = self.names
        top = -1 if negative else 1
        bottom = 1
        pexp = [0] * self.param_count
        vexp = list(self.origin)
        product = None  # the product of the parenthesized factors; None is 1
        num = den = None  # what the parenthesized divisors contribute; None is 1
        op = -1  # the index of the "/" before the factor; -1 before a "*" or the first
        inverted = False  # whether a parameter was divided by
        i = self.pos
        while True:
            tok = toks[i]
            name = names.get(tok)
            if name is not None or tok.isdecimal():
                i += 1
            elif tok == "(":
                self.pos = i + 1
                value = self.parse_poly()
                i = self.expect(")") + 1
            elif _is_name(tok):
                if tok in KEYWORDS:
                    raise self.error(f"keyword {tok!r} cannot be used in an expression", i)
                raise self.error(f"undeclared identifier {tok!r}", i)
            else:
                raise self.error(f"expected a value, found {tok or 'end of input'!r}", i)
            if toks[i] == "^":
                i += 1
                if not toks[i].isdecimal():
                    raise self.error(f"expected a natural number, found {toks[i]!r}", i)
                k = int(toks[i])
                i += 1
            else:
                k = 1
            divide = op >= 0

            if name is not None:
                is_var, j = name
                if not is_var:
                    if divide:
                        pexp[j] -= k
                        inverted = True
                    else:
                        pexp[j] += k
                elif not divide:
                    vexp[j] += k
                elif k:
                    raise self.error("variety variable in a denominator", op)
            elif tok != "(":
                c = int(tok)
                if k != 1:
                    c = pow(c, k, p) if p else c**k
                elif p:
                    c %= p
                if not divide:
                    top *= c
                elif c:
                    bottom *= c
                else:
                    raise self.error("division by zero", op)
            else:
                if k != 1:
                    value = termdict.power(value, k, {self.origin: _Fraction(self.one)}, _mul_terms)
                if not divide:
                    product = value if product is None else _mul_terms(product, value)
                else:
                    if any(map(any, value)):
                        raise self.error("variety variable in a denominator", op)
                    if not value:
                        raise self.error("division by zero", op)
                    d = value[self.origin]
                    if d.num.is_const():
                        # an int or a Fraction: either has a numerator and a denominator
                        c = d.num.const_value()
                        top *= c.denominator
                        bottom *= c.numerator
                    else:
                        den = _times(den, d.num)
                    num = _times(num, d.den)

            tok = toks[i]
            if tok == "/":
                op = i
            elif tok == "*":
                op = -1
            else:
                break
            i += 1
        self.pos = i

        # top/bottom as a coefficient; bottom is a unit in characteristic p
        if p:
            scalar = (top if bottom == 1 else top * pow(bottom, p - 2, p)) % p
        else:
            scalar = Fraction(top) if bottom == 1 else Fraction(top, bottom)
        if not scalar:
            return
        if inverted and min(pexp) < 0:
            den = _times(den, _make({tuple(-e if e < 0 else 0 for e in pexp): self.one.const_value()}, field))
            pexp = [e if e > 0 else 0 for e in pexp]
        mono = _make({tuple(pexp): scalar}, field)
        num = mono if num is None else mono * num
        if product is None:
            _add_term(acc, tuple(vexp), _Fraction(num, den))
        else:
            for e, c in product.items():
                _add_term(acc, termdict.exp_add(e, vexp), _Fraction(c.num * num, _times(c.den, den)))


def parse_document(text: str) -> InputDocument:
    return _Parser(text).parse_document()


def parse_assignments(field: FieldDescriptor, var_names: tuple[str, ...], text: str) -> dict[str, DiffPoly]:
    """Parse a --map value, 'name = expr, name = expr', against a field and variable set."""
    parser = _Parser(text, field, var_names)
    pairs = parser.assignments()
    parser.expect_end()
    return {name: parser.diffpoly(value) for name, (_, value) in pairs.items()}


def parse_point(field: FieldDescriptor, var_names: tuple[str, ...], text: str) -> dict[int, BaseElem]:
    """Parse a --point value: every variable of var_names once, each assigned a constant."""
    parser = _Parser(text, field, var_names)
    pairs = parser.assignments()
    return parser.point(pairs, "--point", parser.expect_end())


def render_document(doc: InputDocument) -> str:
    """Canonical rendering; reparsing it reproduces the same document."""
    params = " ".join(doc.field.parameter_names)
    lines = [
        f"char {doc.field.characteristic};",
        f"params {params};" if params else "params;",
        f"derivations {doc.field.derivation_count};",
        f"vars {' '.join(doc.var_names)};",
        "gens " + ", ".join(g.render(doc.var_names) for g in doc.variety.generators) + ";",
    ]
    if doc.point is not None:
        coords = ", ".join(
            f"{doc.var_names[i]} = {doc.point[i].render()}" for i in range(len(doc.var_names))
        )
        lines.append(f"point {coords};")
    return "\n".join(lines)
