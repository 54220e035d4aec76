"""The expression parser against DiffPoly/BaseElem arithmetic.

Random expression trees over Q(s1,s2) and F5(s) are evaluated twice: once
node by node with DiffPoly and BaseElem arithmetic, which normalizes after
every operation, and once by rendering the tree as text that is not in
canonical form (nested and redundant parentheses, powers, division by base
constants, one denominator repeated across the terms of a sum, and flat
products such as ``2^3*s*x^2/3/s^2``, which the parser folds into one
monomial) and parsing it, which normalizes each output coefficient once.
Both must give the same normal form, and the parse must reduce no
coefficient twice.
"""

import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hsprolong import BaseElem, DiffPoly, FieldDescriptor, ParseError, basefield
from hsprolong.docparse import parse_assignments, parse_document, parse_point

FIELDS = {
    "Q(s1,s2)": FieldDescriptor(0, ("s1", "s2"), 2),
    "F5(s)": FieldDescriptor(5, ("s",), 1),
}
VARS = ("x", "y")


def flat_products(field, variables=st.nothing()):
    """("flat", factors, divisors): powers of numbers, parameters and
    variables, divided by powers of numbers and parameters, with no
    parentheses; an exponent of None writes no "^"."""
    numbers = st.integers(0, 7).map(lambda n: ("nat", n))
    params = st.sampled_from(field.parameter_names).map(lambda name: ("param", name))
    factors = st.one_of(numbers, params, variables)
    exponents = st.one_of(st.none(), st.integers(0, 3))
    return st.tuples(
        st.just("flat"),
        st.lists(st.tuples(factors, exponents), min_size=1, max_size=4),
        st.lists(st.tuples(st.one_of(numbers, params), exponents), max_size=3),
    )


def constant_trees(field):
    leaves = st.one_of(
        st.integers(0, 7).map(lambda n: ("nat", n)),
        st.sampled_from(field.parameter_names).map(lambda name: ("param", name)),
        flat_products(field),
    )

    def extend(kids):
        return st.one_of(
            st.tuples(st.sampled_from("+-*"), kids, kids),
            st.tuples(st.just("^"), kids, st.integers(0, 3)),
            st.tuples(st.just("neg"), kids),
            st.tuples(st.just("/"), kids, kids),
        )

    return st.recursive(leaves, extend, max_leaves=5)


def trees(field):
    consts = constant_trees(field)
    variables = st.sampled_from(VARS).map(lambda name: ("var", name))
    leaves = st.one_of(consts, variables, flat_products(field, variables))

    def extend(kids):
        return st.one_of(
            st.tuples(st.sampled_from("+-*"), kids, kids),
            st.tuples(st.just("^"), kids, st.integers(0, 2)),
            st.tuples(st.just("neg"), kids),
            st.tuples(st.just("/"), kids, consts),
            st.tuples(st.just("shared"), st.lists(kids, min_size=2, max_size=3), consts),
        )

    return st.recursive(leaves, extend, max_leaves=8)


class ZeroDivisor(Exception):
    pass


def value(tree, field) -> DiffPoly:
    """The tree evaluated node by node in DiffPoly/BaseElem arithmetic."""
    kind = tree[0]
    if kind == "nat":
        return DiffPoly.const(field, tree[1])
    if kind == "param":
        return DiffPoly.const(field, BaseElem.param(field, tree[1]))
    if kind == "var":
        return DiffPoly.variable(field, VARS.index(tree[1]))
    if kind == "neg":
        return -value(tree[1], field)
    if kind == "flat":
        out = DiffPoly.const(field, 1)
        for leaf, k in tree[1]:
            out = out * value(leaf, field) ** (1 if k is None else k)
        for leaf, k in tree[2]:
            out = out.scale(inverse(("^", leaf, 1 if k is None else k), field))
        return out
    if kind == "^":
        return value(tree[1], field) ** tree[2]
    if kind == "/":
        return value(tree[1], field).scale(inverse(tree[2], field))
    if kind == "shared":
        inv = inverse(tree[2], field)
        return sum((value(t, field).scale(inv) for t in tree[1]), DiffPoly.zero(field))
    a, b = value(tree[1], field), value(tree[2], field)
    return a + b if kind == "+" else a - b if kind == "-" else a * b


def inverse(tree, field) -> BaseElem:
    c = value(tree, field).constant_term()
    if not c:
        raise ZeroDivisor
    return c.inverse()


def render(tree, draw) -> str:
    """Text for the tree; every compound node is parenthesized, some twice."""
    kind = tree[0]
    if kind in ("nat", "param", "var"):
        text = str(tree[1])
    elif kind == "flat":
        text = "*".join(power(leaf, k) for leaf, k in tree[1]) + "".join(f"/{power(leaf, k)}" for leaf, k in tree[2])
    elif kind == "neg":
        text = f"(-{render(tree[1], draw)})"
    elif kind == "^":
        text = f"({tight(tree[1], draw)}^{tree[2]})"
    elif kind == "/":
        text = f"({render(tree[1], draw)}/{tight(tree[2], draw)})"
    elif kind == "shared":
        den = tight(tree[2], draw)
        text = "(" + " + ".join(f"{render(t, draw)}/{den}" for t in tree[1]) + ")"
    else:
        op = " * " if kind == "*" else f" {kind} "
        text = f"({render(tree[1], draw)}{op}{render(tree[2], draw)})"
    return f"({text})" if draw(st.booleans()) else text


def power(leaf, k) -> str:
    return str(leaf[1]) if k is None else f"{leaf[1]}^{k}"


def tight(tree, draw) -> str:
    """Text for a tree that is a power's base or a divisor: a flat product is parenthesized."""
    text = render(tree, draw)
    return f"({text})" if tree[0] == "flat" else text


def header(field) -> str:
    return (f"char {field.characteristic}; params {' '.join(field.parameter_names)}; "
            f"derivations {field.derivation_count}; vars {' '.join(VARS)};")


def counting_reduce():
    return mock.patch.object(basefield, "_reduce", wraps=basefield._reduce)


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parsed_expression_matches_node_by_node_arithmetic(name, data):
    field = FIELDS[name]
    tree = data.draw(trees(field))
    text = render(tree, data.draw)
    document = f"{header(field)} gens {text};"
    try:
        expected = value(tree, field)
    except ZeroDivisor:
        with pytest.raises(ParseError, match="division by zero"):
            parse_document(document)
        return
    with counting_reduce() as reduce:
        (got,) = parse_document(document).variety.generators
    assert got == expected, text
    assert reduce.call_count <= len(got.terms)


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parsed_point_coordinate_matches_node_by_node_arithmetic(name, data):
    field = FIELDS[name]
    tree = data.draw(constant_trees(field))
    text = render(tree, data.draw)
    try:
        expected = value(tree, field).constant_term()
    except ZeroDivisor:
        with pytest.raises(ParseError, match="division by zero"):
            parse_point(field, ("x",), f"x = {text}")
        return
    with counting_reduce() as reduce:
        point = parse_point(field, ("x",), f"x = {text}")
    assert point == {0: expected}, text
    assert reduce.call_count <= 1


# -- diagnostic positions -------------------------------------------------------

# Soup pieces: keywords, declared and undeclared names, numbers (one an
# Arabic-Indic digit), every punctuation mark, and characters that start no
# token ("&", "#") or that continue a word ("²" starts an identifier).
SOUP_PIECES = ["char", "params", "derivations", "vars", "gens", "point", "x", "y", "s", "w", "_t",
               "0", "1", "2", "5", "٣", "+", "-", "*", "/", "^", "(", ")", ";", ",", "=", "&", "#", "²"]
SOUP_HEADS = ["", "char 0; params s; derivations 1; vars x y;",
              "char 5; params s; derivations 1;\nvars x y;\ngens x*y - 1;"]
SOUP_TOKEN = re.compile(r"\d+|[^\W\d]\w*|[-+*/^();,=]")
SOUP_STRAY = re.compile(r"[^\w\s+*/^();,=-]")


@st.composite
def soups(draw, heads=("",)):
    """Token soup text; two numbers never touch, so every exponent is one digit."""
    text = draw(st.sampled_from(heads))
    for piece in draw(st.lists(st.sampled_from(SOUP_PIECES), max_size=30)):
        sep = draw(st.sampled_from(["", " ", "  ", "\n", "\t"]))
        if not sep and text[-1:].isdecimal() and piece[0].isdecimal():
            sep = " "
        text += sep + piece
    return text + draw(st.sampled_from(["", " ", "\n"]))


def token_starts(text) -> set:
    """(line, column) of every token start, every stray character and the end of input."""
    offsets = [m.start() for m in SOUP_TOKEN.finditer(text)]
    offsets += [m.start() for m in SOUP_STRAY.finditer(text)]
    offsets.append(len(text))
    out = set()
    for offset in offsets:
        lines = text[:offset].split("\n")
        out.add((len(lines), len(lines[-1]) + 1))
    return out


def assert_points_at_a_token(parse, text):
    try:
        parse(text)
    except ParseError as exc:
        assert (exc.line, exc.col) in token_starts(text), (text, str(exc))


Q_S = FieldDescriptor(0, ("s",), 1)


@settings(max_examples=300, deadline=None)
@given(text=soups(SOUP_HEADS))
def test_document_diagnostics_point_at_a_token_or_the_end(text):
    assert_points_at_a_token(parse_document, text)


@settings(max_examples=300, deadline=None)
@given(text=soups())
def test_assignment_diagnostics_point_at_a_token_or_the_end(text):
    assert_points_at_a_token(lambda t: parse_assignments(Q_S, VARS, t), text)


@settings(max_examples=300, deadline=None)
@given(text=soups())
def test_point_diagnostics_point_at_a_token_or_the_end(text):
    assert_points_at_a_token(lambda t: parse_point(Q_S, VARS, t), text)


# -- the digit bound ---------------------------------------------------------------

# Each number position of the grammar, as (template, a value that parses there,
# or None where any run parses); "{}" marks the digit run.
NUMBER_POSITIONS = {
    "char": ("char {}; params s; derivations 1; vars x; gens x - s;", "0"),
    "derivations": ("char 0; params s; derivations {}; vars x; gens x - s;", "1"),
    "exponent": ("char 0; params s; derivations 1; vars x; gens x^{} - s;", "2"),
    "coefficient": ("char 0; params s; derivations 1; vars x; gens {}*x - s;", None),
    "point value": ("char 0; params s; derivations 1; vars x; gens x - s; point x = {};", None),
}
DIGIT_PATTERNS = st.text("0123456789٣", min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(position=st.sampled_from(sorted(NUMBER_POSITIONS)), length=st.integers(4301, 6000), pattern=DIGIT_PATTERNS)
def test_a_run_of_more_than_4300_digits_is_reported_at_its_start(position, length, pattern):
    template, _ = NUMBER_POSITIONS[position]
    run = (pattern * length)[:length]
    cases = [(parse_document, template.format(run), template.index("{"))]
    if position == "point value":
        cases.append((lambda t: parse_point(Q_S, ("x",), t), f"x = {run}", 4))
    for parse, text, offset in cases:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.col) == (1, offset + 1)
        assert str(exc.value).startswith(f"number has {length} digits, more than 4300 ")


@settings(max_examples=30, deadline=None)
@given(position=st.sampled_from(sorted(NUMBER_POSITIONS)), pattern=DIGIT_PATTERNS)
def test_a_run_of_exactly_4300_digits_parses(position, pattern):
    # where the value matters, the run is that value padded with leading zeros
    template, value = NUMBER_POSITIONS[position]
    run = value.rjust(4300, "0") if value else (pattern * 4300)[:4300]
    parse_document(template.format(run))
    if position == "point value":
        parse_point(Q_S, ("x",), f"x = {run}")


def nonzero_texts(field):
    """Text of a nonzero natural, or of a parenthesized sum of distinct
    parameter monomials with coefficients 1..4 (nonzero also in F5)."""
    monomials = st.lists(
        st.tuples(st.integers(1, 4), st.sampled_from(field.parameter_names), st.integers(1, 2), st.sampled_from("+-")),
        min_size=1, max_size=3, unique_by=lambda m: m[1:3],
    )
    sums = st.tuples(monomials, st.integers(0, 4)).map(
        lambda t: "(" + " ".join(f"{sign} {c}*{name}^{e}" for c, name, e, sign in t[0]) + f" + {t[1]})"
    )
    return st.one_of(st.integers(1, 4).map(str), sums)


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dividing_by_a_parenthesized_quotient_multiplies_by_its_inverse(name, data):
    # x/(a/b) puts a constant a/b in the denominator, x*b/a folds a number a into the scalar
    field = FIELDS[name]
    a, b = data.draw(nonzero_texts(field)), data.draw(nonzero_texts(field))
    quotient = parse_assignments(field, VARS, f"u = x/({a}/{b})")
    product = parse_assignments(field, VARS, f"u = x*{b}/{a}")
    assert quotient == product, (a, b)
