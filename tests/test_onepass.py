"""One pass over many polynomials: the sequence fold against one polynomial at a time.

``derive_each`` derives a list of polynomials in one truncated Leibniz pass,
with one table of each symbol's pieces and of their powers for the whole
list.  Each of its tables must equal
``derive_upto`` of that polynomial alone and store no zero coefficient, and
``prolong_presentation`` and ``lift_morphism``, which make one such call for
all their generators or images, must equal their generator-by-generator
results.  Inputs are lists of 1-4 order-0 polynomials that hold zero,
constants, repeats, disjoint variable sets and terms that meet and cancel;
over F2(s) and F3(s) they hold x^p, whose multiplicity C(p, 1) vanishes only
once it is reduced into the field.

The count guards pin the builds: the fold works on symbol codes, so one
``prolong_presentation`` call constructs each DiffSymbol of the presentation
once and no other, one ``lift_morphism`` call exactly the lift's keys, and
one ``render_polys`` call writes each distinct code's text once, from the
code, with no symbol built.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hsprolong import (
    BaseElem,
    DerivationMode,
    DiffPoly,
    DiffSymbol,
    FieldDescriptor,
    VarietyPresentation,
    enumerate_multiindices,
    lift_morphism,
    prolong_presentation,
    render_presentation,
)
from hsprolong.diffpoly import derive_each, derive_upto
from hsprolong.sparsepoly import render_polys

from test_expansion import base_elems

P = DerivationMode.PROLONGATION
J = DerivationMode.JET

FIELDS = {
    "Q(s)": FieldDescriptor(0, ("s",), 1),
    "Q(s1,s2)": FieldDescriptor(0, ("s1", "s2"), 2),
    "F5(s)": FieldDescriptor(5, ("s",), 1),
    "F2(s)": FieldDescriptor(2, ("s",), 1),
    "F3(s)": FieldDescriptor(3, ("s",), 1),
}
# the largest order drawn per derivation count; F3's 4 passes p = 3
MAX_ORDER = {1: 4, 2: 2}
VAR_COUNT = 3
# the variables a polynomial may use: two lists can share none of them
VAR_SETS = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]


def order_zero_polys(field):
    """Zero, a constant, or a sum of terms over one of VAR_SETS, with x^p in
    characteristic p; a term may be drawn again with its sign flipped, so
    that it meets its negative and cancels."""
    p = field.characteristic
    exponents = st.sampled_from([1, 2, p] if p else [1, 2, 3])
    coeffs = base_elems(field).filter(bool)

    @st.composite
    def terms(draw):
        variables = draw(st.sampled_from(VAR_SETS))
        out = DiffPoly.zero(field)
        for _ in range(draw(st.integers(1, 3))):
            t = DiffPoly.const(field, draw(coeffs))
            for i in draw(st.lists(st.sampled_from(variables), max_size=2)):
                t = t * DiffPoly.variable(field, i) ** draw(exponents)
            out = out + t
            if draw(st.booleans()):
                out = out - t
        return out

    constants = coeffs.map(lambda c: DiffPoly.const(field, c))
    return st.one_of(st.just(DiffPoly.zero(field)), constants, terms())


@st.composite
def poly_lists(draw, field):
    """1-4 polynomials; the first may come back later in the list, as the same object."""
    fs = draw(st.lists(order_zero_polys(field), min_size=1, max_size=4))
    if len(fs) < 4 and draw(st.booleans()):
        fs.append(fs[0])
    return fs


def one_by_one(fs, m, mode):
    return [derive_upto(f, m, mode) for f in fs]


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@settings(max_examples=40, deadline=None)
@given(data=st.data(), mode=st.sampled_from([P, J]))
def test_each_table_is_derive_upto_alone(field, data, mode):
    fs = data.draw(poly_lists(field), label="fs")
    m = data.draw(st.integers(0, MAX_ORDER[field.derivation_count]), label="m")
    alphas = enumerate_multiindices(field.derivation_count, m)
    tables = derive_each(fs, m, mode)
    assert tables == one_by_one(fs, m, mode)
    for table in tables:
        assert list(table) == alphas
        for g in table.values():
            assert all(g.terms.values()), g.terms


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@settings(max_examples=25, deadline=None)
@given(data=st.data(), mode=st.sampled_from([P, J]))
def test_presentation_and_lift_equal_their_per_polynomial_results(field, data, mode):
    fs = data.draw(poly_lists(field), label="fs")
    m = data.draw(st.integers(0, MAX_ORDER[field.derivation_count]), label="m")
    alphas = enumerate_multiindices(field.derivation_count, m)
    tables = one_by_one(fs, m, mode)

    pres = prolong_presentation(VarietyPresentation(field, VAR_COUNT, fs), m, mode)
    assert pres.symbols == [DiffSymbol(i, a) for i in range(VAR_COUNT) for a in alphas]
    assert pres.generators == [t[alpha] for alpha in alphas for t in tables]

    lift = lift_morphism(dict(enumerate(fs)), m, mode)
    expected = {DiffSymbol(j, alpha): t[alpha] for alpha in alphas for j, t in enumerate(tables)}
    assert list(lift.items()) == list(expected.items())


@pytest.mark.parametrize("mode", [P, J], ids=["prolong", "jet"])
def test_terms_that_meet_across_the_list_and_cancel(mode):
    # d_1(4*x*d2x) = 4*d1x*d2x + 12*x*d3x and d_1(d1x^2) = 4*d1x*d2x: the
    # output monomial d1x*d2x is one object across the list, and cancels in f
    field = FIELDS["Q(s)"]
    x, d1x, d2x = (DiffPoly.from_symbol(field, DiffSymbol(0, (k,))) for k in range(3))
    s = DiffPoly.const(field, BaseElem.param(field, 0))
    fs = [4 * x * d2x - d1x**2, d1x**2, s * x * d2x, DiffPoly.zero(field), s, d1x**2]
    tables = derive_each(fs, 3, mode)
    assert tables == one_by_one(fs, 3, mode)
    assert tables[0][(1,)] == 12 * x * DiffPoly.from_symbol(field, DiffSymbol(0, (3,)))
    for table in tables:
        for g in table.values():
            assert all(g.terms.values()), g.terms


def test_an_empty_list_derives_to_an_empty_list():
    field = FIELDS["Q(s)"]
    assert derive_each([], 3, P) == []
    pres = prolong_presentation(VarietyPresentation(field, 2, []), 2, J)
    assert pres.generators == []
    assert pres.symbols == [DiffSymbol(i, (k,)) for i in range(2) for k in range(3)]
    assert lift_morphism({}, 2, P) == {}


# -- count guards ----------------------------------------------------------------


@pytest.fixture
def symbol_builds(monkeypatch):
    """The (var, order) of every DiffSymbol constructed from here on."""
    built = []
    real = DiffSymbol.__init__

    def counted(self, var, order):
        built.append((var, order))
        real(self, var, order)

    monkeypatch.setattr(DiffSymbol, "__init__", counted)
    return built


def count_variety(field):
    """Three generators over four variables; variable 3 appears in none."""
    x, y, z = (DiffPoly.variable(field, i) for i in range(3))
    s = DiffPoly.const(field, BaseElem.param(field, 0))
    return VarietyPresentation(field, 4, [x**2 * y - s, y * z**3 + s * x, x * y * z - 1])


@pytest.mark.parametrize("mode", [P, J], ids=["prolong", "jet"])
@pytest.mark.parametrize("field, m", [(FIELDS["Q(s)"], 5), (FIELDS["Q(s1,s2)"], 3), (FIELDS["F3(s)"], 4)],
                         ids=["Q(s)", "Q(s1,s2)", "F3(s)"])
def test_a_presentation_builds_each_symbol_once(field, m, mode, symbol_builds):
    variety = count_variety(field)
    alphas = enumerate_multiindices(field.derivation_count, m)
    symbol_builds.clear()
    pres = prolong_presentation(variety, m, mode)
    assert len(symbol_builds) == variety.var_count * len(alphas)
    assert Counter(symbol_builds) == Counter((s.var, s.order) for s in pres.symbols)


@pytest.mark.parametrize("mode", [P, J], ids=["prolong", "jet"])
def test_a_lift_builds_each_symbol_once(mode, symbol_builds):
    # targets 0 and 1 over sources 0, 1 and 2: the fold works on codes, so the
    # lifted y_j^(alpha), the lift's keys, are the only symbols built
    field = FIELDS["Q(s)"]
    x, y, z = (DiffPoly.variable(field, i) for i in range(3))
    images = {0: x * y, 1: z**2 - x}
    symbol_builds.clear()
    lift = lift_morphism(images, 4, mode)
    assert Counter(symbol_builds) == Counter((j, (k,)) for j in range(2) for k in range(5))
    assert Counter(symbol_builds) == Counter((s.var, s.order) for s in lift)


@pytest.fixture
def symbol_renders(monkeypatch):
    """The symbol of every DiffSymbol.render call from here on."""
    rendered = []
    real = DiffSymbol.render

    def counted(self, names=None):
        rendered.append(self)
        return real(self, names)

    monkeypatch.setattr(DiffSymbol, "render", counted)
    return rendered


@pytest.fixture
def code_texts(monkeypatch):
    """The code of every DiffSymbol.code_text call from here on."""
    written = []
    real = DiffSymbol.code_text

    def counted(code, n, names=None):
        written.append(code)
        return real(code, n, names)

    monkeypatch.setattr(DiffSymbol, "code_text", staticmethod(counted))
    return written


@pytest.mark.parametrize("mode", [P, J], ids=["prolong", "jet"])
def test_one_render_call_renders_each_symbol_once(mode, code_texts, symbol_renders, symbol_builds):
    # each distinct code is written once per call, from the code: no symbol is
    # built to write it
    field = FIELDS["Q(s1,s2)"]
    pres = prolong_presentation(count_variety(field), 3, mode)
    codes = {s.code for g in pres.generators for s in g.symbols()}
    names = ("x", "y", "z", "w")
    expected = [g.render(names) for g in pres.generators]
    code_texts.clear()
    symbol_renders.clear()
    symbol_builds.clear()
    assert render_polys(pres.generators, names) == expected
    assert Counter(code_texts) == Counter(codes)
    assert symbol_renders == []
    # the symbol lines are written first, each symbol once, and the generators
    # then write no code of their own: every one of them is a symbol of pres
    code_texts.clear()
    symbol_renders.clear()
    render_presentation(pres, names)
    assert Counter(symbol_renders) == Counter(pres.symbols)
    assert code_texts == []
    assert symbol_builds == []
