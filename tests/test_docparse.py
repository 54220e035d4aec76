"""Input-document grammar: parsing, diagnostics, canonical round-trip."""

import random

import pytest

from hsprolong import (
    BaseElem,
    DiffPoly,
    FieldDescriptor,
    InputDocument,
    ParseError,
    parse_assignments,
    parse_document,
    render_document,
)
from hsprolong.docparse import parse_point
from hsprolong.sampling import random_base_elem, random_variety_with_point

WITT = "char 0; params s; derivations 1;\nvars x;\ngens x^2 - s;\n"


def test_valid_document():
    doc = parse_document(WITT)
    assert doc.field.characteristic == 0
    assert doc.field.parameter_names == ("s",)
    assert doc.field.derivation_count == 1
    assert doc.var_names == ("x",)
    assert len(doc.variety.generators) == 1
    assert doc.variety.generators[0].render(("x",)) == "x^2 - s"


def test_variable_over_parameter_coefficient():
    doc = parse_document("char 0; params s; derivations 1; vars x; gens x / s;")
    g = doc.variety.generators[0]
    s = BaseElem.param(doc.field, "s")
    assert g == DiffPoly.variable(doc.field, 0).scale(1 / s)


def test_variety_variable_in_denominator():
    with pytest.raises(ParseError) as exc:
        parse_document("char 0; params s; derivations 1; vars x; gens 1 / x;")
    assert "denominator" in str(exc.value)


def test_undeclared_identifier():
    with pytest.raises(ParseError) as exc:
        parse_document("char 0; params s; derivations 1; vars x; gens x - w;")
    assert "undeclared" in str(exc.value)
    assert exc.value.line == 1


def test_non_prime_characteristic():
    with pytest.raises(ParseError) as exc:
        parse_document("char 6; params s; derivations 1; vars x; gens x;")
    assert "prime" in str(exc.value)


def test_too_many_derivations():
    with pytest.raises(ParseError):
        parse_document("char 0; params s; derivations 2; vars x; gens x;")


def test_point_block():
    doc = parse_document(
        "char 0; params s; derivations 1; vars x y; gens x*y - 1; point x = s, y = 1/s;"
    )
    s = BaseElem.param(doc.field, "s")
    assert doc.point == {0: s, 1: 1 / s}


def test_point_block_must_be_total():
    with pytest.raises(ParseError) as exc:
        parse_document("char 0; params s; derivations 1; vars x y; gens x*y - 1; point x = s;")
    assert "missing" in str(exc.value)


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("char 0; params s t s; derivations 1; vars x; gens x;", "parameter names must be distinct", 20),
        ("char 0; params s; derivations 1; vars x y x; gens x;", "variety variables must be distinct", 43),
        ("char 0; params s; derivations 1; vars x s; gens x;", "identifier 's' is both a parameter and a variable", 41),
    ],
    ids=["repeated-param", "repeated-var", "var-is-a-param"],
)
def test_a_declared_name_is_rejected_at_its_own_token(text, message, col):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert str(exc.value) == f"{message} (line 1, column {col})"


def test_point_block_rejects_a_repeated_name():
    with pytest.raises(ParseError) as exc:
        parse_document(
            "char 0; params s; derivations 1;\nvars x y;\ngens x*y - 1;\npoint x = s, y = 1/s, x = 2;"
        )
    assert str(exc.value) == "'x' is assigned twice (line 4, column 23)"


@pytest.mark.parametrize(
    "body",
    ["x = s, y = 1/s", "y = 2, x = 1/2", "x = s", "x = s, z = 1", "x = y, y = 1",
     "x = s, y = 1, x = 2", "point = 1", "x = s, = 1", "x = s, y = 1/0"],
)
def test_point_block_and_point_flag_share_one_check(body):
    # the same assignments, as a document's point block and as a --point value
    head = "char 0; params s; derivations 1; vars x y; gens x*y - 1; point "
    try:
        from_block = parse_document(head + body + ";").point
    except ParseError as exc:
        from_block = str(exc).replace("point block", "--point").rsplit(" (line", 1)[0]
    try:
        from_flag = parse_point(FieldDescriptor(0, ("s",), 1), ("x", "y"), body)
    except ParseError as exc:
        from_flag = str(exc).rsplit(" (line", 1)[0]
    assert from_block == from_flag


def test_keyword_collision():
    with pytest.raises(ParseError):
        parse_document("char 0; params s; derivations 1; vars x; gens x - gens;")


def test_diagnostic_position():
    with pytest.raises(ParseError) as exc:
        parse_document("char 0; params s; derivations 1;\nvars x;\ngens x + + ;")
    assert exc.value.line == 3


# (characteristic, generator text, message, line, column) of each diagnostic
# that a term's folded run of numbers, parameters and variables can meet,
# captured when every factor was a term dict of its own; the generators sit
# on line 3, after "gens ".
FOLD_DIAGNOSTICS = [
    (5, "x/5", "division by zero", 3, 7),
    (0, "2/0", "division by zero", 3, 7),
    (0, "x/0^2", "division by zero", 3, 7),
    (5, "s/5^2", "division by zero", 3, 7),
    (0, "x*s/(s - s)", "division by zero", 3, 9),
    (0, "x/(0*x)", "division by zero", 3, 7),
    (0, "x/(x - x)", "division by zero", 3, 7),
    (0, "2*(x/0)", "division by zero", 3, 10),
    (0, "s/x", "variety variable in a denominator", 3, 7),
    (0, "s/x^2", "variety variable in a denominator", 3, 7),
    (0, "0/x", "variety variable in a denominator", 3, 7),
    (0, "s^2*x/(s*y)", "variety variable in a denominator", 3, 11),
    (0, "2*gens", "keyword 'gens' cannot be used in an expression", 3, 8),
    (0, "x*w", "undeclared identifier 'w'", 3, 8),
    (0, "x^", "expected a natural number, found ';'", 3, 8),
    (0, "x*/s", "expected a value, found '/'", 3, 8),
    (0, "x/s/", "expected a value, found ';'", 3, 10),
]


@pytest.mark.parametrize(
    "char, gens, message, line, col", FOLD_DIAGNOSTICS, ids=[case[1] for case in FOLD_DIAGNOSTICS]
)
def test_fold_diagnostics_fire_at_the_same_token(char, gens, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_document(f"char {char}; params s; derivations 1;\nvars x y;\ngens {gens};")
    assert str(exc.value) == f"{message} (line {line}, column {col})"
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize(
    "gens, message",
    [
        ("x & y", "unexpected character '&' (line 3, column 8)"),
        ("x*y - 1 # note\n", "unexpected character '#' (line 3, column 14)"),
        ("x\u00b2", "undeclared identifier 'x\u00b2' (line 3, column 6)"),
    ],
    ids=["ampersand", "comment", "superscript"],
)
def test_stray_characters_are_reported_where_they_stand(gens, message):
    # "\u00b2" is a word character but no digit, so it continues the identifier
    with pytest.raises(ParseError) as exc:
        parse_document(f"char 0; params s; derivations 1;\nvars x y;\ngens {gens};")
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "gens, rendered", [("s/x^0", "s"), ("x/s^0", "x"), ("x/0^0", "x"), ("2^3*s^2*x/4/s^3*y^0", "2/s*x")]
)
def test_zeroth_powers_in_a_folded_run_are_one(gens, rendered):
    doc = parse_document(f"char 0; params s; derivations 1; vars x y; gens {gens};")
    assert doc.variety.generators[0].render(doc.var_names) == rendered


def docs_equal(a, b):
    return (
        a.field == b.field
        and a.var_names == b.var_names
        and a.variety.generators == b.variety.generators
        and a.point == b.point
    )


def test_fuzzed_inputs_fail_cleanly():
    # arbitrary token soup must raise ParseError, never anything else
    rng = random.Random(101)
    pieces = ["char", "params", "derivations", "vars", "gens", "point", "x", "s", "w",
              "0", "1", "5", "+", "-", "*", "/", "^", "(", ")", ";", ",", "="]
    for _ in range(400):
        text = " ".join(rng.choice(pieces) for _ in range(rng.randint(1, 25)))
        try:
            parse_document(text)
        except ParseError:
            pass


@pytest.mark.parametrize(
    "text",
    [
        WITT,
        "char 0; params s; derivations 1; vars x y; gens x*y - 1, x^2 - s; point x = s, y = 1/s;",
        "char 5; params s u; derivations 2; vars x; gens x^5 - s*u;",
        "char 0; params; derivations 0; vars x y; gens x^2 + y^2 - 1;",
        "char 0; params s; derivations 1; vars x; gens 2*x^3 - 1/2*s + (s + 1)*x;",
        "char 3; params s; derivations 1; vars x; gens x^2 - 2*x + s^2;",
    ],
)
def test_parse_render_round_trip(text):
    first = parse_document(text)
    rendered = render_document(first)
    second = parse_document(rendered)
    assert docs_equal(first, second)
    assert render_document(second) == rendered


Q_S1S2 = FieldDescriptor(0, ("s1", "s2"), 2)


def reparse_elem(a):
    return parse_assignments(Q_S1S2, ("x",), f"y = {a.render()}")["y"].constant_term()


def test_product_denominators_round_trip():
    s1, s2 = BaseElem.param(Q_S1S2, "s1"), BaseElem.param(Q_S1S2, "s2")
    cases = [(s1 + 1) / (s1 * s2), 1 / (s1 * s2**2), (s1 - s2) / (s1**2 * s2), -3 * s2 / (s1 * s2 * s2)]
    for a in cases:
        assert reparse_elem(a) == a
    assert ((s1 + 1) / (s1 * s2)).render() == "(s1 + 1)/(s1*s2)"
    rng = random.Random(7)
    for _ in range(200):
        a = random_base_elem(rng, Q_S1S2)
        assert reparse_elem(a) == a


def test_seeded_document_round_trip():
    rng = random.Random(11)
    for _ in range(30):
        variety, point = random_variety_with_point(rng, Q_S1S2, var_count=2)
        doc = InputDocument(Q_S1S2, ("x", "y"), variety, point)
        assert docs_equal(parse_document(render_document(doc)), doc)


# The token contract: a token's kind follows from its first character.  A
# number starts with a decimal digit of any script (str.isdecimal), so "٥" and
# "٢" are numbers; "²" is a digit to str.isdigit but no decimal, so it starts
# an identifier; "_" starts a name.


def test_arabic_indic_digits_are_numbers():
    doc = parse_document("char ٥; params s; derivations 1; vars x; gens x - s;")
    assert doc.field == FieldDescriptor(5, ("s",), 1)
    assert doc.variety.generators[0].render(doc.var_names) == "x + 4*s"
    doc = parse_document("char 0; params s; derivations 1; vars x; gens x^٢ - s;")
    assert doc.variety.generators[0].render(doc.var_names) == "x^2 - s"


def test_a_superscript_starts_an_identifier():
    with pytest.raises(ParseError) as exc:
        parse_document("char 0; params s; derivations 1; vars x; gens 2²;")
    assert str(exc.value) == "expected ';', found '²' (line 1, column 48)"


def test_an_underscore_starts_a_name():
    doc = parse_document("char 0; params _s; derivations 1; vars x_1; gens x_1 - _s;")
    assert doc.field.parameter_names == ("_s",)
    assert doc.var_names == ("x_1",)
    assert doc.variety.generators[0].render(doc.var_names) == "x_1 - _s"


def test_a_superscript_after_a_number_is_an_input_error(tmp_path, capsys):
    # int("²") raises a plain ValueError, which the CLI would report as an
    # internal error (exit 3); a superscript must stay a parse error (exit 2)
    from hsprolong import cli

    path = tmp_path / "doc.txt"
    path.write_text("char 0; params s; derivations 1; vars x; gens 2²;", encoding="utf-8")
    assert cli.main(["prolong", "--order", "1", str(path)]) == 2
    assert capsys.readouterr().err == "input error: expected ';', found '²' (line 1, column 48)\n"


def test_a_caller_name_no_identifier_can_spell_names_nothing():
    # parse_assignments takes its field from the caller: a parameter named as a
    # keyword or a number is still read as that keyword or number
    with pytest.raises(ParseError) as exc:
        parse_assignments(FieldDescriptor(0, ("gens",), 0), ("x",), "y = gens")
    assert str(exc.value) == "keyword 'gens' cannot be used in an expression (line 1, column 5)"
    images = parse_assignments(FieldDescriptor(0, ("1",), 0), ("x",), "y = 1*x")
    assert images["y"].render(("x",)) == "x"
