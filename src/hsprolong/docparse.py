"""Parser for variety input documents.

Grammar (whitespace-insensitive)::

    document   := fieldblock varietyblock [pointblock]
    fieldblock := "char" NAT ";" "params" IDENT* ";" "derivations" NAT ";"
    varietyblock := "vars" IDENT+ ";" "gens" poly ("," poly)* ";"
    pointblock := "point" IDENT "=" poly ("," IDENT "=" poly)* ";"
    poly       := ["+"|"-"] term (("+"|"-") term)*
    term       := factor (("*"|"/") factor)*
    factor     := atom ["^" NAT]
    atom       := NAT | IDENT | "(" poly ")"

Identifiers must be declared parameters or variety variables; a divisor may
not involve variety variables.  Diagnostics carry line and column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .basefield import BaseElem
from .fields import FieldDescriptor, is_prime
from .diffpoly import DiffPoly
from .presentations import VarietyPresentation

KEYWORDS = {"char", "params", "derivations", "vars", "gens", "point"}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


@dataclass
class Token:
    kind: str  # NAT, IDENT, PUNCT, EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(Token("NAT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^();,=":
            toks.append(Token("PUNCT", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


@dataclass
class InputDocument:
    field: FieldDescriptor
    var_names: tuple[str, ...]
    variety: VarietyPresentation
    point: Optional[dict[int, BaseElem]] = None


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.field: FieldDescriptor | None = None
        self.var_names: tuple[str, ...] = ()

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.text != ch:
            raise ParseError(f"expected {ch!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            raise ParseError(f"expected {word!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def expect_nat(self) -> int:
        tok = self.peek()
        if tok.kind != "NAT":
            raise ParseError(f"expected a natural number, found {tok.text!r}", tok.line, tok.col)
        self.next()
        return int(tok.text)

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
            tok = self.peek()
            raise ParseError("expected at least one identifier", tok.line, tok.col)
        return names

    # -- document structure ---------------------------------------------------

    def parse_document(self) -> InputDocument:
        char_tok = self.expect_keyword("char")
        char = self.expect_nat()
        if char != 0 and not is_prime(char):
            raise ParseError(f"characteristic {char} is not 0 or prime", char_tok.line, char_tok.col)
        self.expect_punct(";")
        self.expect_keyword("params")
        params = self.name_list(at_least_one=False)
        self.expect_punct(";")
        der_tok = self.expect_keyword("derivations")
        n = self.expect_nat()
        self.expect_punct(";")
        try:
            self.field = FieldDescriptor(char, tuple(params), n)
        except ValueError as exc:
            raise ParseError(str(exc), der_tok.line, der_tok.col) from None

        self.expect_keyword("vars")
        var_tok = self.peek()
        var_names = self.name_list(at_least_one=True)
        if len(set(var_names)) != len(var_names):
            raise ParseError("variety variables must be distinct", var_tok.line, var_tok.col)
        clash = set(var_names) & set(params)
        if clash:
            raise ParseError(f"identifier {clash.pop()!r} is both a parameter and a variable", var_tok.line, var_tok.col)
        self.var_names = tuple(var_names)
        self.expect_punct(";")

        self.expect_keyword("gens")
        gens = [self.parse_poly()]
        while self.accept_punct(","):
            gens.append(self.parse_poly())
        self.expect_punct(";")

        point = None
        if self.peek().kind == "IDENT" and self.peek().text == "point":
            self.next()
            point = {}
            while True:
                tok = self.peek()
                if tok.kind != "IDENT":
                    raise ParseError("expected a variable name in the point block", tok.line, tok.col)
                if tok.text not in self.var_names:
                    raise ParseError(f"undeclared variable {tok.text!r} in point block", tok.line, tok.col)
                self.next()
                self.expect_punct("=")
                value = self.parse_poly()
                if value.symbols():
                    raise ParseError("point coordinates must not involve variety variables", tok.line, tok.col)
                point[self.var_names.index(tok.text)] = value.constant_term()
                if not self.accept_punct(","):
                    break
            self.expect_punct(";")
            missing = [v for i, v in enumerate(self.var_names) if i not in point]
            if missing:
                tok = self.peek()
                raise ParseError(f"point block is missing {missing[0]!r}", tok.line, tok.col)

        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)

        variety = VarietyPresentation(self.field, len(self.var_names), gens)
        return InputDocument(self.field, self.var_names, variety, point)

    # -- polynomial expressions ---------------------------------------------------

    def parse_poly(self) -> DiffPoly:
        tok = self.peek()
        negate = False
        if tok.kind == "PUNCT" and tok.text in "+-":
            self.next()
            negate = tok.text == "-"
        acc = self.parse_term()
        if negate:
            acc = -acc
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.text in "+-":
                self.next()
                rhs = self.parse_term()
                acc = acc + rhs if tok.text == "+" else acc - rhs
            else:
                return acc

    def parse_term(self) -> DiffPoly:
        acc = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.text == "*":
                self.next()
                acc = acc * self.parse_factor()
            elif tok.kind == "PUNCT" and tok.text == "/":
                self.next()
                divisor = self.parse_factor()
                if divisor.symbols():
                    raise ParseError("variety variable in a denominator", tok.line, tok.col)
                value = divisor.constant_term()
                if not value:
                    raise ParseError("division by zero", tok.line, tok.col)
                acc = acc.scale(value.inverse())
            else:
                return acc

    def parse_factor(self) -> DiffPoly:
        base = self.parse_atom()
        if self.accept_punct("^"):
            exp = self.expect_nat()
            return base**exp
        return base

    def parse_atom(self) -> DiffPoly:
        tok = self.peek()
        field = self.field
        assert field is not None
        if tok.kind == "NAT":
            self.next()
            return DiffPoly.const(field, int(tok.text))
        if tok.kind == "IDENT":
            if tok.text in KEYWORDS:
                raise ParseError(f"keyword {tok.text!r} cannot be used in an expression", tok.line, tok.col)
            self.next()
            if tok.text in self.var_names:
                return DiffPoly.variable(field, self.var_names.index(tok.text))
            if tok.text in field.parameter_names:
                return DiffPoly.const(field, BaseElem.param(field, tok.text))
            raise ParseError(f"undeclared identifier {tok.text!r}", tok.line, tok.col)
        if tok.kind == "PUNCT" and tok.text == "(":
            self.next()
            inner = self.parse_poly()
            self.expect_punct(")")
            return inner
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}", tok.line, tok.col)


def parse_document(text: str) -> InputDocument:
    return _Parser(text).parse_document()


def parse_assignments(field: FieldDescriptor, var_names: tuple[str, ...], text: str) -> dict[str, DiffPoly]:
    """Parse 'name = expr, name = expr' against an existing field and variable set.

    Each name must be a single identifier that is not a keyword, and may be
    assigned only once.
    """
    out: dict[str, DiffPoly] = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise ParseError(f"expected name=expression, got {piece.strip()!r}", 1, 1)
        name, expr = piece.split("=", 1)
        name = name.strip()
        toks = _tokenize(name)
        if len(toks) != 2 or toks[0].kind != "IDENT" or name in KEYWORDS:
            raise ParseError(f"expected a name before '=', got {name!r}", 1, 1)
        if name in out:
            raise ParseError(f"{name!r} is assigned twice", 1, 1)
        inner = _Parser(expr)
        inner.field = field
        inner.var_names = var_names
        value = inner.parse_poly()
        tok = inner.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        out[name] = value
    return out


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
