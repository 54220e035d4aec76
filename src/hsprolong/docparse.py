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
coefficients num/den, each a numerator and a denominator ParamPoly.  A term
folds its run of number, parameter and variable factors, powers and
divisions by numbers and parameters included, into one monomial: a scalar,
parameter exponents (negative ones go to the denominator) and variable
exponents.  Ring arithmetic is left to what the fold cannot do: a product is
taken only for a parenthesized factor and for a parenthesized divisor, which
must be constant and nonzero.  Sums, products and powers combine term dicts
with no gcd, and every output coefficient is normalized once, as one
BaseElem(num, den), when the expression becomes a DiffPoly or a point
coordinate.  Each monomial keeps its own denominator, so the denominators of
other terms never enter its gcd.  A quotient is zero exactly when its
numerator is, so the zero tests behind "division by zero" and "variety
variable in a denominator" read the unreduced values, at the divisor that
fails them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

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


# One group per token kind, numbered as the kinds below.  A token is a tuple
# (kind, text, offset); the end of input is (EOF, "", len(text)).  Punctuation
# text never equals the text of a number or an identifier, so the parser
# tells punctuation and keywords apart by their text alone.
_TOKEN = re.compile(r"(\d+)|([^\W\d]\w*)|([-+*/^();,=])")
EOF, NAT, IDENT, PUNCT = range(4)
# any non-space character that starts no token
_STRAY = re.compile(r"[^\w\s+*/^();,=-]")


def _tokenize(text: str) -> list[tuple[int, str, int]]:
    stray = _STRAY.search(text)
    if stray:
        raise ParseError(f"unexpected character {stray.group()!r}", *_where(text, stray.start()))
    toks = [(m.lastindex, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    toks.append((EOF, "", len(text)))
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
        # identifier -> (is a variety variable, index); a variable shadows a parameter
        self.names = {name: (False, i) for i, name in enumerate(field.parameter_names)}
        self.names.update((name, (True, i)) for i, name in enumerate(var_names))

    # -- token plumbing ----------------------------------------------------

    def error(self, message: str, tok: tuple) -> ParseError:
        return ParseError(message, *_where(self.text, tok[2]))

    def peek(self) -> tuple:
        return self.toks[self.pos]

    def next(self) -> tuple:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> tuple:
        """The next token, which must be the punctuation or keyword ``text``."""
        tok = self.toks[self.pos]
        if tok[1] != text:
            raise self.error(f"expected {text!r}, found {tok[1] or 'end of input'!r}", tok)
        self.pos += 1
        return tok

    def expect_nat(self) -> int:
        tok = self.peek()
        if tok[0] != NAT:
            raise self.error(f"expected a natural number, found {tok[1]!r}", tok)
        self.pos += 1
        return int(tok[1])

    def expect_end(self) -> tuple:
        tok = self.peek()
        if tok[0] != EOF:
            raise self.error(f"unexpected trailing input {tok[1]!r}", tok)
        return tok

    def accept(self, text: str) -> bool:
        if self.toks[self.pos][1] == text:
            self.pos += 1
            return True
        return False

    def name_list(self, at_least_one: bool) -> list[str]:
        names: list[str] = []
        while self.peek()[0] == IDENT and self.peek()[1] not in KEYWORDS:
            names.append(self.next()[1])
        if at_least_one and not names:
            raise self.error("expected at least one identifier", self.peek())
        return names

    # -- document structure ---------------------------------------------------

    def parse_document(self) -> InputDocument:
        char_tok = self.expect("char")
        char = self.expect_nat()
        if char != 0 and not is_prime(char):
            raise self.error(f"characteristic {char} is not 0 or prime", char_tok)
        self.expect(";")
        self.expect("params")
        params = self.name_list(at_least_one=False)
        self.expect(";")
        der_tok = self.expect("derivations")
        n = self.expect_nat()
        self.expect(";")
        try:
            field = FieldDescriptor(char, tuple(params), n)
        except ValueError as exc:
            raise self.error(str(exc), der_tok) from None

        self.expect("vars")
        var_tok = self.peek()
        var_names = self.name_list(at_least_one=True)
        if len(set(var_names)) != len(var_names):
            raise self.error("variety variables must be distinct", var_tok)
        clash = set(var_names) & set(params)
        if clash:
            raise self.error(f"identifier {clash.pop()!r} is both a parameter and a variable", var_tok)
        self._bind(field, tuple(var_names))
        self.expect(";")

        self.expect("gens")
        gens = [self.parse_poly()]
        while self.accept(","):
            gens.append(self.parse_poly())
        self.expect(";")
        gens = [self.diffpoly(g) for g in gens]

        point = None
        if self.accept("point"):
            pairs = self.assignments()
            point = self.point(pairs, "point block", self.expect(";"))
        self.expect_end()

        variety = VarietyPresentation(self.field, len(self.var_names), gens)
        return InputDocument(self.field, self.var_names, variety, point)

    def assignments(self) -> list[tuple[tuple, dict]]:
        """IDENT "=" poly ("," IDENT "=" poly)*, as (name token, value) pairs.

        A name that is not one identifier, is a keyword, or repeats an earlier
        name is rejected at its own position.
        """
        pairs: list[tuple[tuple, dict]] = []
        while True:
            tok = self.peek()
            if tok[0] != IDENT or tok[1] in KEYWORDS:
                stop = next(t for t in self.toks[self.pos:] if t[0] == EOF or t[1] in ("=", ",", ";"))
                got = self.text[tok[2]:stop[2]].strip()
                raise self.error(f"expected a name before '=', got {got!r}", tok)
            if any(tok[1] == name[1] for name, _ in pairs):
                raise self.error(f"{tok[1]!r} is assigned twice", tok)
            self.pos += 1
            self.expect("=")
            pairs.append((tok, self.parse_poly()))
            if not self.accept(","):
                return pairs

    def point(self, pairs: list[tuple[tuple, dict]], where: str, end: tuple) -> dict[int, BaseElem]:
        """The point given by assignments: every variable once, each a constant.

        A missing variable is reported at ``end``, the token that closed the
        assignments.
        """
        point = {}
        for tok, value in pairs:
            if tok[1] not in self.var_names:
                raise self.error(f"undeclared variable {tok[1]!r} in {where}", tok)
            if any(map(any, value)):
                raise self.error("point coordinates must not involve variety variables", tok)
            c = value.get(self.origin)
            point[self.var_names.index(tok[1])] = c.normalize(self.one) if c else BaseElem.zero(self.field)
        missing = [v for i, v in enumerate(self.var_names) if i not in point]
        if missing:
            raise self.error(f"{where} is missing {missing[0]!r}", end)
        return point

    # -- polynomial expressions ---------------------------------------------------

    # An expression is a term dict {exponent tuple: _Fraction}; see the module docstring.

    def diffpoly(self, terms: dict) -> DiffPoly:
        """The DiffPoly of a parsed expression: one normalization per term."""
        one = self.one
        return DiffPoly._of(
            self.field,
            {tuple((sym, k) for sym, k in zip(self.syms, e) if k): c.normalize(one) for e, c in terms.items()},
        )

    def parse_poly(self) -> dict:
        negate = False
        if self.peek()[1] in ("+", "-"):
            negate = self.next()[1] == "-"
        acc = self.parse_term()
        if negate:
            acc = {e: -c for e, c in acc.items()}
        while self.peek()[1] in ("+", "-"):
            sign = self.next()[1]
            rhs = self.parse_term().items()
            acc = termdict.add(acc, rhs if sign == "+" else ((e, -c) for e, c in rhs))
        return acc

    def parse_term(self) -> dict:
        """factor (("*"|"/") factor)*, with factor := atom ["^" NAT].

        Number, parameter and variable factors fold into the monomial
        top/bottom * s^pexp * x^vexp, with top and bottom integers; each
        diagnostic fires once its divisor is read.
        """
        field = self.field
        p = field.characteristic
        names = self.names
        top = bottom = 1
        pexp = [0] * field.param_count
        vexp = [0] * len(self.var_names)
        product = None  # the product of the parenthesized factors; None is 1
        num = den = None  # what the parenthesized divisors contribute; None is 1
        op = None  # the "*" or "/" token before the factor; None before the first
        while True:
            tok = self.next()
            kind, text = tok[0], tok[1]
            if kind == IDENT:
                if text in KEYWORDS:
                    raise self.error(f"keyword {text!r} cannot be used in an expression", tok)
                name = names.get(text)
                if name is None:
                    raise self.error(f"undeclared identifier {text!r}", tok)
            elif text == "(":
                value = self.parse_poly()
                self.expect(")")
            elif kind != NAT:
                raise self.error(f"expected a value, found {text or 'end of input'!r}", tok)
            k = self.expect_nat() if self.accept("^") else 1
            divide = op is not None and op[1] == "/"

            if kind == NAT:
                c = pow(int(text), k, p) if p else int(text) ** k
                if not divide:
                    top *= c
                elif c:
                    bottom *= c
                else:
                    raise self.error("division by zero", op)
            elif kind == IDENT:
                is_var, i = name
                if not is_var:
                    pexp[i] += -k if divide else k
                elif not divide:
                    vexp[i] += k
                elif k:
                    raise self.error("variety variable in a denominator", op)
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

            op = self.toks[self.pos]
            if op[1] not in ("*", "/"):
                break
            self.pos += 1

        scalar = field.scalar(top, bottom)
        if not scalar:
            return {}
        num = _times(_make({tuple(e if e > 0 else 0 for e in pexp): scalar}, field), num)
        if min(pexp, default=0) < 0:
            den = _times(den, _make({tuple(-e if e < 0 else 0 for e in pexp): self.one.const_value()}, field))
        if product is None:
            return {tuple(vexp): _Fraction(num, den)}
        return {
            termdict.exp_add(e, vexp): _Fraction(c.num * num, _times(c.den, den)) for e, c in product.items()
        }


def parse_document(text: str) -> InputDocument:
    return _Parser(text).parse_document()


def parse_assignments(field: FieldDescriptor, var_names: tuple[str, ...], text: str) -> dict[str, DiffPoly]:
    """Parse a --map value, 'name = expr, name = expr', against a field and variable set."""
    parser = _Parser(text, field, var_names)
    pairs = parser.assignments()
    parser.expect_end()
    return {tok[1]: parser.diffpoly(value) for tok, value in pairs}


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
