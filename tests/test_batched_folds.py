"""Folds batched per check trial: many indices of one polynomial in one pass.

``layered_expand_each`` expands one order-0 polynomial at every top of a list
in one Leibniz fold, truncated to the down-closure of the tops.  For two
PROLONGATION layers it reads D_a D_b c off one ``_d_table`` as
C(a+b, a) D_{a+b} c.  Each entry must equal a reference built here the way
the one-top expansion was built before: one fold per top, truncated to its
box, over the nested table ``_d_table(a, D_b c)``.  Over F2(s), F3(s) and
F5(s) the tops reach a + b >= p, where the binomial can vanish and the
iterated table must still agree with the nested one.

``taylor_oracle`` expands only the box below alpha; for alphas whose
coordinates differ, that box is not the simplex |gamma| <= |alpha|, and the
oracle must still equal ``derive_upto``.

The count guards pin the batching in ``checks``: a claims trial makes two
``layered_expand_each`` calls, one per inner kind, and the theta suite two
per generator of each variety, one per side.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hsprolong import BaseElem, DerivationMode, DiffPoly, DiffSymbol, FieldDescriptor, VarietyPresentation
from hsprolong import checks, layered, termdict
from hsprolong.diffpoly import derive_upto, taylor_oracle
from hsprolong.layered import LayeredPoly, LayeredSymbol, layered_expand, layered_expand_each
from hsprolong.multiindex import indices_below

from test_expansion import diffpolys
from test_onepass import order_zero_polys

P = DerivationMode.PROLONGATION
J = DerivationMode.JET
KIND_PAIRS = [(P, P), (P, J), (J, P), (J, J)]

FIELDS = {
    "Q(s)": FieldDescriptor(0, ("s",), 1),
    "F2(s)": FieldDescriptor(2, ("s",), 1),
    "F3(s)": FieldDescriptor(3, ("s",), 1),
    "F5(s)": FieldDescriptor(5, ("s",), 1),
}
# the largest coordinate of a top; over F5 a top's a + b reaches 6 >= p
MAX_COORD = 3


def nested_expand(i: int, j: int, h: DiffPoly, outer: DerivationMode, inner: DerivationMode) -> LayeredPoly:
    """u_outer,i v_inner,j (h) from one fold truncated to the box below (i, j),
    with the base coefficients' table nested: _d_table(i, D_b c) for each b."""
    top = (i, j)
    box = indices_below(top)

    def coeff_table(c):
        inner_values = layered._d_table(j, c) if inner is P else [c]
        return {
            (a, b): d
            for b, v in enumerate(inner_values)
            for a, d in enumerate(layered._d_table(i, v) if outer is P else [v])
        }

    def pieces(code):
        # the fold's symbols are codes: h's order-0 x_var in, d_u X_v x_var out
        var = DiffSymbol.decode(code, h.field.derivation_count).var
        return [((u, v), 1, LayeredSymbol(var, u, v, inner).code) for u, v in box]

    return termdict.leibniz((h,), box, (top,), coeff_table, pieces, LayeredPoly)[0][top]


def top_lists():
    """Lists of 1-5 tops: free draws with repeats and (0, 0), or one anti-diagonal
    a + b = s, as the claims' right side reads."""
    top = st.one_of(st.just((0, 0)), st.tuples(st.integers(0, MAX_COORD), st.integers(0, MAX_COORD)))
    free = st.lists(top, min_size=1, max_size=5)
    diagonals = st.integers(0, 4).map(lambda s: [(k, s - k) for k in range(s + 1)])
    return st.one_of(free, diagonals, free.map(lambda tops: tops + tops[:1]))


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@settings(max_examples=25, deadline=None)
@given(data=st.data(), kinds=st.sampled_from(KIND_PAIRS))
def test_each_entry_equals_the_nested_reference(field, data, kinds):
    outer, inner = kinds
    h = data.draw(order_zero_polys(field), label="h")
    tops = data.draw(top_lists(), label="tops")
    got = layered_expand_each(tops, h, outer, inner)
    assert list(got) == list(dict.fromkeys(tops))
    for (i, j), value in got.items():
        assert value == nested_expand(i, j, h, outer, inner), (i, j)
        assert all(value.terms.values())


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@pytest.mark.parametrize("kinds", KIND_PAIRS, ids=lambda k: f"{k[0].value}-{k[1].value}")
def test_x_to_the_p_across_the_binomials_that_vanish(field, kinds):
    # s/(s + 1) * x^p + 1 at every top with a + b = p + 1: each binomial
    # C(a + b, a) that vanishes mod p drops an entry of the iterated table
    p = field.characteristic or 3
    s, one = BaseElem.param(field, "s"), BaseElem.one(field)
    h = DiffPoly.const(field, s / (s + one)) * DiffPoly.variable(field, 0) ** p + DiffPoly.const(field, one)
    tops = [(a, p + 1 - a) for a in range(p + 2)]
    got = layered_expand_each(tops, h, *kinds)
    for (i, j), value in got.items():
        assert value == nested_expand(i, j, h, *kinds)
        assert value == layered_expand(i, j, h, *kinds)


TAYLOR_FIELDS = {
    "Q(s1,s2)": FieldDescriptor(0, ("s1", "s2"), 2),
    "F5(s)": FieldDescriptor(5, ("s",), 1),
}


def unequal_alphas(field):
    """Multi-indices with two different coordinates for two derivations, so
    the box below alpha is not the simplex |gamma| <= |alpha|; orders past
    p = 5 for one."""
    if field.derivation_count == 1:
        return st.integers(0, 6).map(lambda k: (k,))
    return st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda a: a[0] != a[1])


@pytest.mark.parametrize("field", TAYLOR_FIELDS.values(), ids=TAYLOR_FIELDS.keys())
@settings(max_examples=30, deadline=None)
@given(data=st.data(), mode=st.sampled_from(list(DerivationMode)))
def test_taylor_oracle_over_the_box_equals_derive_upto(field, data, mode):
    f = data.draw(diffpolys(field), label="f")
    alpha = data.draw(unequal_alphas(field), label="alpha")
    assert taylor_oracle(alpha, f, mode) == derive_upto(f, sum(alpha), mode)[alpha]


def _count_folds(monkeypatch) -> list:
    """Patch checks.layered_expand_each to record (h, outer, inner) per call."""
    calls = []
    real = checks.layered_expand_each

    def counting(tops, h, outer, inner):
        calls.append((h, outer, inner))
        return real(tops, h, outer, inner)

    monkeypatch.setattr(checks, "layered_expand_each", counting)
    return calls


@pytest.mark.parametrize("field", [FIELDS["Q(s)"], FIELDS["F5(s)"]], ids=["Q(s)", "F5(s)"])
def test_a_claims_trial_makes_two_batched_folds(field, monkeypatch):
    calls = _count_folds(monkeypatch)
    trials = 7
    assert checks.report_passed(checks.check_phi_psi_inverse(6, 3, trials, seed=11, field=field))
    # the sweep and the round trips expand nothing; each claims trial expands
    # its h once per inner kind, with the outer kind PROLONGATION
    assert len(calls) == 2 * trials
    assert Counter((outer, inner) for _, outer, inner in calls) == {(P, P): trials, (P, J): trials}


def test_theta_makes_two_batched_folds_per_generator(monkeypatch):
    calls = _count_folds(monkeypatch)
    field = FIELDS["Q(s)"]
    x, y = DiffPoly.variable(field, 0), DiffPoly.variable(field, 1)
    gens = [x * y - DiffPoly.const(field, 2), x * x + y]
    variety = VarietyPresentation(field, 2, gens)
    assert checks.check_theta_relations(3, 2, variety) == ["OK theta params=m=3,q=2,gens=2 trials=12"]
    assert calls == [(gens[0], J, P), (gens[0], P, J), (gens[1], J, P), (gens[1], P, J)]


def test_theta_suite_folds_each_generator_once_per_side(monkeypatch):
    calls = _count_folds(monkeypatch)
    lines = checks.check_theta(seed=5, trials=30, order=2, inner=2)
    assert lines == ["OK theta params=m=2,q=2,varieties=3 trials=27"]
    # three varieties; each generator object is folded once on each side
    per_generator = Counter(id(h) for h, _, _ in calls)
    assert set(per_generator.values()) == {2}
    sides = Counter((outer, inner) for _, outer, inner in calls)
    assert sides == {(J, P): len(per_generator), (P, J): len(per_generator)}
