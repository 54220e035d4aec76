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


def test_keyword_collision():
    with pytest.raises(ParseError):
        parse_document("char 0; params s; derivations 1; vars x; gens x - gens;")


def test_diagnostic_position():
    with pytest.raises(ParseError) as exc:
        parse_document("char 0; params s; derivations 1;\nvars x;\ngens x + + ;")
    assert exc.value.line == 3


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
