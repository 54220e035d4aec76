"""Symbols as integer codes inside the symbol ring.

A DiffSymbol's code is var << 32 | graded_lex_rank(alpha), and a
LayeredSymbol's packs (var, outer + inner, outer, kind).  Codes must sort as
sort_keys do, decode back to the same symbol and text, and raise rather than
collide when a field is past its width.  Inside the ring a monomial is the
sorted tuple of its codes: the public constructor canonicalizes the
(symbol, exponent) pairs it is given and bounds an exponent, and the folds,
phi/psi/theta, the ring operators and the renderer hash no symbol object and
leave no reference cycle.  Generators are validated on their codes, with the
messages pinned before codes existed.  The Taylor oracle, the fold's
independent reference, reads orders without the fold's unranking.
"""

import gc

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
)
import hsprolong.diffpoly as diffpoly
from hsprolong.diffpoly import apply_d, derive_each, taylor_oracle
from hsprolong.layered import (
    LayeredPoly,
    LayeredSymbol,
    layered_expand_each,
    outer_derive,
    phi,
    psi,
    theta,
)
from hsprolong.multiindex import graded_lex_rank, graded_lex_unrank
from hsprolong.sparsepoly import render_polys

P = DerivationMode.PROLONGATION
J = DerivationMode.JET
Q_S = FieldDescriptor(0, ("s",), 1)
NAMES = ("x", "y", "z", "w")


def diff_symbols(n):
    return st.builds(DiffSymbol, st.integers(0, 3), st.tuples(*[st.integers(0, 6)] * n))


layered_symbols = st.builds(
    LayeredSymbol, st.integers(0, 3), st.integers(0, 40), st.integers(0, 40), st.sampled_from([P, J])
)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_the_rank_enumerates_the_canonical_order(n):
    alphas = enumerate_multiindices(n, 5)
    assert [graded_lex_rank(a) for a in alphas] == list(range(len(alphas)))
    assert [graded_lex_unrank(r, n) for r in range(len(alphas))] == alphas


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_diff_codes_sort_as_sort_keys_and_decode(n, data):
    a, b = data.draw(diff_symbols(n), label="a"), data.draw(diff_symbols(n), label="b")
    assert (a.code < b.code) == (a.sort_key < b.sort_key)
    assert (a.code == b.code) == (a == b)
    assert DiffSymbol.decode(a.code, n) == a
    assert DiffSymbol.code_text(a.code, n, NAMES) == a.render(NAMES)
    assert DiffSymbol.code_text(a.code, n) == a.render()


@settings(max_examples=60, deadline=None)
@given(a=layered_symbols, b=layered_symbols)
def test_layered_codes_sort_as_sort_keys_and_decode(a, b):
    assert (a.code < b.code) == (a.sort_key < b.sort_key)
    assert (a.code == b.code) == (a == b)
    assert LayeredSymbol.decode(a.code, 1) == a
    assert LayeredSymbol.code_text(a.code, 1, NAMES) == a.render(NAMES)


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_rank_past_the_width_raises(n, data):
    alpha = data.draw(st.tuples(*[st.integers(0, 2**33)] * n), label="alpha")
    if graded_lex_rank(alpha) >= 2**32:
        with pytest.raises(ValueError):
            DiffSymbol(0, alpha)
    else:
        assert DiffSymbol(1, alpha).code == 1 << 32 | graded_lex_rank(alpha)


def test_the_widths_end_where_they_say():
    assert DiffSymbol(0, (2**32 - 1,)).code == 2**32 - 1
    for alpha in [(2**32,), (92682, 0), (0, 92682)]:
        # for n = 2 the rank of size s starts at s(s + 1)/2 = 4,294,983,903 for s = 92682
        assert graded_lex_rank(alpha) >= 2**32
        with pytest.raises(ValueError):
            DiffSymbol(0, alpha)
    assert LayeredSymbol(0, 2**31, 2**31 - 1, P).outer == 2**31
    for outer, inner in [(2**32, 0), (0, 2**32), (2**31, 2**31), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError):
            LayeredSymbol(0, outer, inner, J)


@settings(max_examples=40, deadline=None)
@given(outer=st.integers(0, 2**32 - 1), data=st.data(), var=st.integers(0, 5), kind=st.sampled_from([P, J]))
def test_layered_fields_round_trip_up_to_their_width(outer, data, var, kind):
    inner = data.draw(st.integers(0, 2**32 - 1 - outer), label="inner")
    sym = LayeredSymbol(var, outer, inner, kind)
    assert LayeredSymbol.decode(sym.code, 1) == sym


# -- the public constructor ------------------------------------------------------


def test_the_constructor_canonicalizes_its_monomials():
    x0s, x1s = DiffSymbol(0, (0,)), DiffSymbol(1, (0,))
    x0, x1 = DiffPoly.variable(Q_S, 0), DiffPoly.variable(Q_S, 1)
    one, s = BaseElem.one(Q_S), BaseElem.param(Q_S, 0)
    swapped = DiffPoly({((x1s, 1), (x0s, 1)): one}, Q_S)
    assert swapped == x0 * x1 and swapped.render() == "x0*x1"
    assert not swapped - x0 * x1 and (swapped - x0 * x1).render() == "0"
    repeated = DiffPoly({((x0s, 1), (x0s, 1)): one}, Q_S)
    assert repeated == x0**2 and repeated.render() == "x0^2"
    assert DiffPoly({((x0s, 0),): one}, Q_S) == 1
    assert DiffPoly({((x0s, 0), (x1s, 2)): s}, Q_S) == s * x1**2
    # two spellings of one monomial are one term, and a cancelled sum is none
    assert DiffPoly({((x1s, 1), (x0s, 1)): s, ((x0s, 1), (x1s, 1)): one}, Q_S) == (s + one) * x0 * x1
    assert not DiffPoly({((x1s, 1), (x0s, 1)): s, ((x0s, 1), (x1s, 1)): -s}, Q_S)
    # its own stored keys come back as they are
    f = 3 * x0**2 * x1 - s * x1 + 1
    assert DiffPoly(f.terms, Q_S) == f


@pytest.mark.parametrize("e", [-1, 1.0, "2", None])
def test_the_constructor_rejects_an_exponent_that_is_not_a_natural(e):
    with pytest.raises(ValueError):
        DiffPoly({((DiffSymbol(0, (0,)), e),): BaseElem.one(Q_S)}, Q_S)


def test_the_constructor_bounds_an_exponent():
    # a key holds one code per unit of exponent: 10^9 would be a key of 10^9 codes
    x0s, one, MAX_EXPONENT = DiffSymbol(0, (0,)), BaseElem.one(Q_S), DiffPoly.MAX_EXPONENT
    assert DiffPoly({((x0s, MAX_EXPONENT),): one}, Q_S) == DiffPoly.variable(Q_S, 0) ** MAX_EXPONENT
    with pytest.raises(ValueError, match=f"exponent 1000000000 of x0 is above {MAX_EXPONENT}"):
        DiffPoly({((x0s, 10**9),): one}, Q_S)
    # so is a power: its largest exponent is k times the base's
    x0, x1 = DiffPoly.variable(Q_S, 0), DiffPoly.variable(Q_S, 1)
    assert (x0**2 * x1) ** 500 == DiffPoly({((x0s, 1000), (DiffSymbol(1, (0,)), 500)): one}, Q_S)
    for base, k in [(x0, 10**9), (x0**2 * x1 + 1, 501), ((x0 * x1) ** 1000, 2)]:
        with pytest.raises(ValueError, match=f"takes an exponent above {MAX_EXPONENT}"):
            base**k


def test_the_constructor_rejects_a_symbol_of_another_ring():
    one = BaseElem.one(Q_S)
    for sym in (LayeredSymbol(0, 0, 0, P), DiffSymbol(0, (0, 0)), DiffSymbol(0, ())):
        with pytest.raises(ValueError):
            DiffPoly({((sym, 1),): one}, Q_S)
    with pytest.raises(ValueError):
        LayeredPoly({((DiffSymbol(0, (0,)), 1),): one}, Q_S)
    # evaluate reads its assignment by code: a symbol of another ring, whose
    # code may equal x0's, assigns nothing
    x0 = DiffPoly.variable(Q_S, 0)
    assert x0.evaluate({DiffSymbol(0, (0,)): one}) == one
    for sym in (DiffSymbol(0, (0, 0)), DiffSymbol(0, ()), LayeredSymbol(0, 0, 0, J)):
        with pytest.raises(ValueError):
            x0.evaluate({sym: one})


# -- validation on codes -----------------------------------------------------------


def test_generator_and_lift_messages_are_pinned():
    x0, x1 = DiffPoly.variable(Q_S, 0), DiffPoly.variable(Q_S, 1)
    d1 = DiffPoly.from_symbol(Q_S, DiffSymbol(1, (1,)))
    with pytest.raises(ValueError) as exc:
        VarietyPresentation(Q_S, 1, [x0, x0 * x1 + 1])
    assert str(exc.value) == "generator #1 uses undeclared variable index 1"
    with pytest.raises(ValueError) as exc:
        VarietyPresentation(Q_S, 2, [x0 - 1, x0 * d1])
    assert str(exc.value) == "generator #1 must only use order-0 symbols"
    VarietyPresentation(Q_S, 3, [x1, x0 * x1 - BaseElem.param(Q_S, 0)])
    with pytest.raises(ValueError) as exc:
        lift_morphism({0: x0 * x1, 1: d1 + x0}, 2, J)
    assert str(exc.value) == "morphism image for variable 1 must be order-0"
    with pytest.raises(ValueError) as exc:
        lift_morphism({3: d1}, 2, J)
    assert str(exc.value) == "morphism image for variable 3 must be order-0"


def test_validation_decodes_no_symbol(monkeypatch):
    decoded = []
    real = DiffSymbol.decode

    def counted(code, n):
        decoded.append(code)
        return real(code, n)

    monkeypatch.setattr(DiffSymbol, "decode", staticmethod(counted))
    x0, x1 = DiffPoly.variable(Q_S, 0), DiffPoly.variable(Q_S, 1)
    VarietyPresentation(Q_S, 2, [x0 * x1 - 1, x1**2])
    lift_morphism({0: x0 * x1}, 2, P)
    assert decoded == []


# -- no symbol object is hashed inside the ring ------------------------------------


@pytest.fixture
def symbol_hashes(monkeypatch):
    """Every hash of a DiffSymbol or LayeredSymbol from here on."""
    hashed = []
    for cls in (DiffSymbol, LayeredSymbol):
        real = cls.__hash__

        def counted(self, real=real):
            hashed.append(self)
            return real(self)

        monkeypatch.setattr(cls, "__hash__", counted)
    return hashed


def test_the_ring_hashes_no_symbol(symbol_hashes):
    s = DiffPoly.const(Q_S, BaseElem.param(Q_S, 0))
    x, y = DiffPoly.variable(Q_S, 0), DiffPoly.variable(Q_S, 1)
    d2y = DiffPoly.from_symbol(Q_S, DiffSymbol(1, (2,)))
    fs = [x**2 * y - s, s * y**3 + x, x * d2y - 1]
    gens = [LayeredPoly.generator(Q_S, v, i, j, k) for v in (0, 1) for i, j in ((0, 2), (3, 1)) for k in (P, J)]
    p = gens[0] * gens[4] + s.constant_term() * gens[2] ** 2
    q = gens[1] * gens[5] - gens[3]
    symbol_hashes.clear()
    for mode in (P, J):
        derive_each(fs, 3, mode)
        for inner in (P, J):
            layered_expand_each([(2, 1), (0, 3)], fs[0] * fs[1], mode, inner)
    outer_derive(2, p + q, 10)
    phi(p, 10), psi(q, 10), theta(p)
    fs[0] * fs[2] + fs[1], p * q + p
    render_polys(fs + [x * y * d2y, x**3]), render_polys([p, q, p * q])
    assert symbol_hashes == []


def test_the_folds_leave_no_reference_cycle():
    # a cycle lives until the collector runs, and it holds the fold's tables;
    # the collections it sets off then cost every later call in the process
    s = DiffPoly.const(Q_S, BaseElem.param(Q_S, 0))
    x, y = DiffPoly.variable(Q_S, 0), DiffPoly.variable(Q_S, 1)
    f = x**2 * y - s * x
    p = LayeredPoly.generator(Q_S, 0, 1, 2, P) ** 2 + LayeredPoly.generator(Q_S, 1, 0, 1, P)
    gc.collect()
    gc.disable()
    try:
        derive_each([f, y**3], 3, P)
        layered_expand_each([(1, 1), (0, 2)], f, P, J)
        outer_derive(2, p, 10), phi(p, 10), psi(phi(p, 10), 10), theta(p)
        render_polys([f, f * y])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_oracle_reads_orders_without_the_unrank(monkeypatch):
    # the oracle is the fold's independent reference: it reads each code's
    # order off the canonical enumeration, never through graded_lex_unrank
    field = FieldDescriptor(0, ("s", "t"), 2)
    s = BaseElem.param(field, 0)

    def sym(var, order):
        return DiffPoly.from_symbol(field, DiffSymbol(var, order))

    f = sym(0, (2, 1)) * sym(1, (0, 3)) ** 2 + s * sym(1, (1, 1)) - sym(0, (0, 0))
    expected = {mode: apply_d((1, 2), f, mode) for mode in (P, J)}

    def unrank(*_):
        raise AssertionError("the oracle ranked a symbol")

    monkeypatch.setattr(diffpoly, "graded_lex_unrank", unrank)
    for mode in (P, J):
        assert taylor_oracle((1, 2), f, mode) == expected[mode]
