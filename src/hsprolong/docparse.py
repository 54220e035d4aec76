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
(``parse_assignments``); an assigned name is an identifier, not a keyword,
and appears once.  Diagnostics carry line and column, counted in the text
that was parsed: the document, or the flag value.

An expression is read into a term dict from variety exponent tuples to
coefficients num/den, each a numerator and a denominator ParamPoly.  Sums,
products, powers and division by a base constant combine these dicts with no
gcd, and every output coefficient is normalized once, as one
BaseElem(num, den), when the expression becomes a DiffPoly or a point
coordinate.  Each monomial keeps its own denominator, so the denominators of
other terms never enter its gcd.  A quotient is zero exactly when its
numerator is, so the zero tests behind "division by zero" and "variety
variable in a denominator" read the unreduced dicts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from . import termdict
from .basefield import BaseElem, ParamPoly
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


@dataclass(slots=True)
class Token:
    kind: str  # NAT, IDENT, PUNCT, EOF
    text: str
    offset: int


def _where(text: str, offset: int) -> tuple[int, int]:
    """(line, column) of an offset, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# One group per token kind (NAT, IDENT, PUNCT), then any other non-space character.
_TOKEN = re.compile(r"(\d+)|([^\W\d]\w*)|([-+*/^();,=])|(\S)")
_KINDS = (None, "NAT", "IDENT", "PUNCT")


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    for match in _TOKEN.finditer(text):
        if match.lastindex == 4:
            raise ParseError(f"unexpected character {match.group()!r}", *_where(text, match.start()))
        toks.append(Token(_KINDS[match.lastindex], match.group(), match.start()))
    toks.append(Token("EOF", "", len(text)))
    return toks


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

    def __neg__(self) -> "_Fraction":
        return _Fraction(-self.num, self.den)

    def __mul__(self, other: "_Fraction") -> "_Fraction":
        return _Fraction(self.num * other.num, _times(self.den, other.den))

    def divide(self, other: "_Fraction") -> "_Fraction":
        """self / other for a nonzero other."""
        num = _times(self.num, other.den)
        if other.num.is_const():
            return _Fraction(num.scale(num.field.inverse(other.num.const_value())), self.den)
        return _Fraction(num, _times(self.den, other.num))

    def normalize(self) -> BaseElem:
        return BaseElem(self.num, self.den)


def _times(a: Optional[ParamPoly], b: Optional[ParamPoly]) -> Optional[ParamPoly]:
    """a * b, where None stands for 1."""
    if a is None:
        return b
    return a if b is None else a * b


def _mul_terms(a: dict, b: dict) -> dict:
    return termdict.mul(a, b, termdict.exp_add)


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

    def _bind(self, field: FieldDescriptor, var_names: tuple[str, ...]) -> None:
        self.field = field
        self.var_names = var_names
        self.syms = tuple(DiffSymbol(i, zero_index(field.derivation_count)) for i in range(len(var_names)))
        self.origin = (0,) * len(var_names)
        self.one = ParamPoly.const(field, 1)

    # -- token plumbing ----------------------------------------------------

    def error(self, message: str, tok: Token) -> ParseError:
        return ParseError(message, *_where(self.text, tok.offset))

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.text != ch:
            raise self.error(f"expected {ch!r}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            raise self.error(f"expected {word!r}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    def expect_nat(self) -> int:
        tok = self.peek()
        if tok.kind != "NAT":
            raise self.error(f"expected a natural number, found {tok.text!r}", tok)
        self.next()
        return int(tok.text)

    def expect_end(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            raise self.error(f"unexpected trailing input {tok.text!r}", tok)
        return tok

    def accept_punct(self, ch: str) -> bool:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == ch:
            self.next()
            return True
        return False

    def name_list(self, at_least_one: bool) -> list[str]:
        names: list[str] = []
        while self.peek().kind == "IDENT" and self.peek().text not in KEYWORDS:
            names.append(self.next().text)
        if at_least_one and not names:
            raise self.error("expected at least one identifier", self.peek())
        return names

    # -- document structure ---------------------------------------------------

    def parse_document(self) -> InputDocument:
        char_tok = self.expect_keyword("char")
        char = self.expect_nat()
        if char != 0 and not is_prime(char):
            raise self.error(f"characteristic {char} is not 0 or prime", char_tok)
        self.expect_punct(";")
        self.expect_keyword("params")
        params = self.name_list(at_least_one=False)
        self.expect_punct(";")
        der_tok = self.expect_keyword("derivations")
        n = self.expect_nat()
        self.expect_punct(";")
        try:
            field = FieldDescriptor(char, tuple(params), n)
        except ValueError as exc:
            raise self.error(str(exc), der_tok) from None

        self.expect_keyword("vars")
        var_tok = self.peek()
        var_names = self.name_list(at_least_one=True)
        if len(set(var_names)) != len(var_names):
            raise self.error("variety variables must be distinct", var_tok)
        clash = set(var_names) & set(params)
        if clash:
            raise self.error(f"identifier {clash.pop()!r} is both a parameter and a variable", var_tok)
        self._bind(field, tuple(var_names))
        self.expect_punct(";")

        self.expect_keyword("gens")
        gens = [self.parse_poly()]
        while self.accept_punct(","):
            gens.append(self.parse_poly())
        self.expect_punct(";")
        gens = [self.diffpoly(g) for g in gens]

        point = None
        if self.peek().kind == "IDENT" and self.peek().text == "point":
            self.next()
            pairs = self.assignments()
            point = self.point(pairs, "point block", self.expect_punct(";"))
        self.expect_end()

        variety = VarietyPresentation(self.field, len(self.var_names), gens)
        return InputDocument(self.field, self.var_names, variety, point)

    def assignments(self) -> list[tuple[Token, dict]]:
        """IDENT "=" poly ("," IDENT "=" poly)*, as (name token, value) pairs.

        A name that is not one identifier, is a keyword, or repeats an earlier
        name is rejected at its own position.
        """
        pairs: list[tuple[Token, dict]] = []
        while True:
            tok = self.peek()
            if tok.kind != "IDENT" or tok.text in KEYWORDS:
                stop = next(t for t in self.toks[self.pos:] if t.kind == "EOF" or t.text in ("=", ",", ";"))
                got = self.text[tok.offset:stop.offset].strip()
                raise self.error(f"expected a name before '=', got {got!r}", tok)
            if any(tok.text == name.text for name, _ in pairs):
                raise self.error(f"{tok.text!r} is assigned twice", tok)
            self.next()
            self.expect_punct("=")
            pairs.append((tok, self.parse_poly()))
            if not self.accept_punct(","):
                return pairs

    def point(self, pairs: list[tuple[Token, dict]], where: str, end: Token) -> dict[int, BaseElem]:
        """The point given by assignments: every variable once, each a constant.

        A missing variable is reported at ``end``, the token that closed the
        assignments.
        """
        point = {}
        for tok, value in pairs:
            if tok.text not in self.var_names:
                raise self.error(f"undeclared variable {tok.text!r} in {where}", tok)
            if any(map(any, value)):
                raise self.error("point coordinates must not involve variety variables", tok)
            c = value.get(self.origin)
            point[self.var_names.index(tok.text)] = c.normalize() if c else BaseElem.zero(self.field)
        missing = [v for i, v in enumerate(self.var_names) if i not in point]
        if missing:
            raise self.error(f"{where} is missing {missing[0]!r}", end)
        return point

    # -- polynomial expressions ---------------------------------------------------

    # An expression is a term dict {exponent tuple: _Fraction}; see the module docstring.

    def diffpoly(self, terms: dict) -> DiffPoly:
        """The DiffPoly of a parsed expression: one normalization per term."""
        return DiffPoly(
            {tuple((sym, k) for sym, k in zip(self.syms, e) if k): c.normalize() for e, c in terms.items()},
            self.field,
        )

    def constant(self, c: ParamPoly) -> dict:
        return {self.origin: _Fraction(c)} if c else {}

    def parse_poly(self) -> dict:
        tok = self.peek()
        negate = False
        if tok.kind == "PUNCT" and tok.text in "+-":
            self.next()
            negate = tok.text == "-"
        acc = self.parse_term()
        if negate:
            acc = {e: -c for e, c in acc.items()}
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.text in "+-":
                self.next()
                rhs = self.parse_term().items()
                acc = termdict.add(acc, rhs if tok.text == "+" else ((e, -c) for e, c in rhs))
            else:
                return acc

    def parse_term(self) -> dict:
        acc = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.text == "*":
                self.next()
                acc = _mul_terms(acc, self.parse_factor())
            elif tok.kind == "PUNCT" and tok.text == "/":
                self.next()
                divisor = self.parse_factor()
                if any(map(any, divisor)):
                    raise self.error("variety variable in a denominator", tok)
                if not divisor:
                    raise self.error("division by zero", tok)
                d = divisor[self.origin]
                acc = {e: c.divide(d) for e, c in acc.items()}
            else:
                return acc

    def parse_factor(self) -> dict:
        base = self.parse_atom()
        if self.accept_punct("^"):
            exp = self.expect_nat()
            return termdict.power(base, exp, self.constant(self.one), _mul_terms)
        return base

    def parse_atom(self) -> dict:
        tok = self.peek()
        field = self.field
        assert field is not None
        if tok.kind == "NAT":
            self.next()
            return self.constant(ParamPoly.const(field, int(tok.text)))
        if tok.kind == "IDENT":
            if tok.text in KEYWORDS:
                raise self.error(f"keyword {tok.text!r} cannot be used in an expression", tok)
            self.next()
            if tok.text in self.var_names:
                i = self.var_names.index(tok.text)
                e = self.origin[:i] + (1,) + self.origin[i + 1 :]
                return {e: _Fraction(self.one)}
            if tok.text in field.parameter_names:
                return self.constant(ParamPoly.var(field, field.param_index(tok.text)))
            raise self.error(f"undeclared identifier {tok.text!r}", tok)
        if tok.kind == "PUNCT" and tok.text == "(":
            self.next()
            inner = self.parse_poly()
            self.expect_punct(")")
            return inner
        raise self.error(f"expected a value, found {tok.text or 'end of input'!r}", tok)


def parse_document(text: str) -> InputDocument:
    return _Parser(text).parse_document()


def parse_assignments(field: FieldDescriptor, var_names: tuple[str, ...], text: str) -> dict[str, DiffPoly]:
    """Parse a --map value, 'name = expr, name = expr', against a field and variable set."""
    parser = _Parser(text, field, var_names)
    pairs = parser.assignments()
    parser.expect_end()
    return {tok.text: parser.diffpoly(value) for tok, value in pairs}


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
