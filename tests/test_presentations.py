"""Prolongation/jet presentations, the nabla section, lifts, and base change."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from hsprolong import (
    BaseElem,
    DerivationMode,
    DiffPoly,
    DiffSymbol,
    FieldDescriptor,
    PointNotOnVariety,
    VarietyPresentation,
    apply_d,
    apply_lift,
    base_change,
    base_change_elem,
    base_change_poly,
    ideal_membership_witness,
    lift_morphism,
    nabla,
    point_projection,
    point_to_base,
    prolong_presentation,
    projection_restrict,
    render_presentation,
    taylor_oracle,
)
from hsprolong.multiindex import enumerate_multiindices, zero_index
from hsprolong.presentations import _remap_param_poly
from hsprolong.sampling import (
    random_base_elem,
    random_diffpoly,
    random_multiindex,
    random_point,
    random_variety_with_point,
)

P = DerivationMode.PROLONGATION
J = DerivationMode.JET

Q_s = FieldDescriptor(0, ("s",), 1)
F5_s = FieldDescriptor(5, ("s",), 1)


def witt_variety():
    s = BaseElem.param(Q_s, "s")
    x = DiffPoly.variable(Q_s, 0)
    return VarietyPresentation(Q_s, 1, [x * x - DiffPoly.const(Q_s, s)])


def hyperbola():
    x, y = DiffPoly.variable(Q_s, 0), DiffPoly.variable(Q_s, 1)
    return VarietyPresentation(Q_s, 2, [x * y - DiffPoly.const(Q_s, 1)])


class TestProlong:
    def test_order_one_examples(self):
        pres = prolong_presentation(witt_variety(), 1, P)
        assert [g.render(("x",)) for g in pres.generators] == ["x^2 - s", "2*x*d1x - 1"]
        jet = prolong_presentation(witt_variety(), 1, J)
        assert [g.render(("x",)) for g in jet.generators] == ["x^2 - s", "2*x*d1x"]

    def test_constant_coefficients_agree_across_modes(self):
        x = DiffPoly.variable(Q_s, 0)
        v = VarietyPresentation(Q_s, 1, [x * x - DiffPoly.const(Q_s, 2)])
        for m in range(4):
            assert prolong_presentation(v, m, P).generators == prolong_presentation(v, m, J).generators

    def test_hyperbola_order_two(self):
        pres = prolong_presentation(hyperbola(), 2, P)
        rendered = [g.render(("x", "y")) for g in pres.generators]
        assert rendered == [
            "x*y - 1",
            "x*d1y + d1x*y",
            "x*d2y + d1x*d1y + d2x*y",
        ]

    def test_first_generator_block_is_verbatim(self):
        v = hyperbola()
        pres = prolong_presentation(v, 3, P)
        assert pres.generators[: len(v.generators)] == v.generators

    def test_generators_match_taylor_oracle(self):
        rng = random.Random(71)
        for _ in range(5):
            v, _ = random_variety_with_point(rng, Q_s, 2)
            m = rng.randint(0, 2)
            mode = (P, J)[rng.randrange(2)]
            pres = prolong_presentation(v, m, mode)
            alphas = enumerate_multiindices(1, m)
            k = 0
            for alpha in alphas:
                for g in v.generators:
                    assert pres.generators[k] == taylor_oracle(alpha, g, mode)
                    k += 1

    def test_symbol_count_closed_form(self):
        for n in range(1, 4):
            names = tuple(f"s{i}" for i in range(n))
            field = FieldDescriptor(0, names, n)
            for m in range(5):
                for q in range(1, 4):
                    v = VarietyPresentation(field, q, [])
                    pres = prolong_presentation(v, m, P)
                    assert len(pres.symbols) == q * math.comb(n + m, n)

    def test_render_header(self):
        text = render_presentation(prolong_presentation(witt_variety(), 1, P), ("x",))
        lines = text.splitlines()
        assert lines[0] == "P_m mode=prolong vars=1 derivations=1 order=1"
        assert lines[1:3] == ["symbol x", "symbol d1x"]
        assert lines[3:] == ["generator x^2 - s", "generator 2*x*d1x - 1"]


class TestNabla:
    def test_line_example(self):
        s = BaseElem.param(Q_s, "s")
        x = DiffPoly.variable(Q_s, 0)
        v = VarietyPresentation(Q_s, 1, [x - DiffPoly.const(Q_s, s)])
        values = nabla(v, 2, {0: s})
        assert values[DiffSymbol(0, (0,))] == s
        assert values[DiffSymbol(0, (1,))] == 1
        assert not values[DiffSymbol(0, (2,))]

    def test_even_curve_example(self):
        s = BaseElem.param(Q_s, "s")
        x = DiffPoly.variable(Q_s, 0)
        v = VarietyPresentation(Q_s, 1, [x * x - DiffPoly.const(Q_s, s**2)])
        values = nabla(v, 1, {0: s})
        gen = apply_d((1,), v.generators[0], P)
        assert not gen.evaluate(values)

    def test_hyperbola_example(self):
        s = BaseElem.param(Q_s, "s")
        values = nabla(hyperbola(), 2, {0: s, 1: 1 / s})
        assert values[DiffSymbol(1, (1,))] == -1 / s**2
        assert values[DiffSymbol(1, (2,))] == 1 / s**3
        for g in prolong_presentation(hyperbola(), 2, P).generators:
            assert not g.evaluate(values)

    def test_off_variety_reports_generator(self):
        s = BaseElem.param(Q_s, "s")
        with pytest.raises(PointNotOnVariety) as exc:
            nabla(hyperbola(), 1, {0: s, 1: s})
        assert exc.value.gen_index == 0
        assert exc.value.value == s**2 - 1

    def test_section_property_randomized(self):
        rng = random.Random(73)
        for t in range(25):
            field = (Q_s, F5_s)[t % 2]
            v, point = random_variety_with_point(rng, field, 2)
            m = rng.randint(0, 3)
            values = nabla(v, m, point)
            for g in prolong_presentation(v, m, P).generators:
                assert not g.evaluate(values)
            assert point_to_base(values) == point

    def test_projection_composition(self):
        s = BaseElem.param(Q_s, "s")
        values = nabla(hyperbola(), 2, {0: s, 1: 1 / s})
        low = point_projection(values, 1)
        assert set(low) == {DiffSymbol(i, (k,)) for i in (0, 1) for k in (0, 1)}
        assert point_to_base(values) == {0: s, 1: 1 / s}


class TestLift:
    def test_square_map(self):
        x = DiffPoly.variable(Q_s, 0)
        lift = lift_morphism({1: x * x}, 1, P)
        assert lift[DiffSymbol(1, (1,))].render(("x",)) == "2*x*d1x"

    def test_identity_morphism(self):
        x = DiffPoly.variable(Q_s, 0)
        lift = lift_morphism({0: x}, 2, P)
        for k in range(3):
            assert lift[DiffSymbol(0, (k,))] == DiffPoly.from_symbol(Q_s, DiffSymbol(0, (k,)))

    def test_scaled_map_uses_base_derivation(self):
        s = BaseElem.param(Q_s, "s")
        x = DiffPoly.variable(Q_s, 0)
        lift = lift_morphism({1: x.scale(s)}, 1, P)
        assert lift[DiffSymbol(1, (1,))].render(("x",)) == "x + s*d1x"

    def test_lift_commutes_with_nabla(self):
        # P_m(f)(nabla(a)) = nabla(f(a)) on random points and maps
        rng = random.Random(79)
        for t in range(20):
            field = (Q_s, F5_s)[t % 2]
            point = random_point(rng, field, 2)
            images = {
                j: random_diffpoly(rng, field, 2, max_terms=2, max_factors=2, order_zero_only=True)
                for j in range(2)
            }
            m = rng.randint(0, 2)
            lift = lift_morphism(images, m, P)
            free = VarietyPresentation(field, 2, [])
            src = nabla(free, m, point)
            image_point = {
                j: images[j].evaluate(free.point_assignment(point)) for j in range(2)
            }
            tgt = nabla(free, m, image_point)
            for sym_t, poly in lift.items():
                assert poly.evaluate(src) == tgt[sym_t]

    def test_apply_lift_substitutes(self):
        x = DiffPoly.variable(Q_s, 0)
        y = DiffPoly.variable(Q_s, 1)
        lift = lift_morphism({1: x * x}, 1, P)
        g = DiffPoly.from_symbol(Q_s, DiffSymbol(1, (1,))) + y
        image = apply_lift(lift, g)
        assert image == apply_d((1,), x * x, P) + x * x


class TestWitness:
    def test_first_order_example(self):
        x, y = DiffPoly.variable(Q_s, 0), DiffPoly.variable(Q_s, 1)
        witness = ideal_membership_witness((1,), x, y, P)
        assert len(witness) == 2
        total = DiffPoly.zero(Q_s)
        for cof, gamma in witness:
            total = total + cof * apply_d(gamma, y, P)
        assert total == apply_d((1,), x * y, P)

    def test_zero_index_single_cofactor(self):
        x, y = DiffPoly.variable(Q_s, 0), DiffPoly.variable(Q_s, 1)
        witness = ideal_membership_witness((0,), x, y, P)
        assert witness == [(x, (0,))]

    def test_second_order_with_coefficients(self):
        s = BaseElem.param(Q_s, "s")
        x, y = DiffPoly.variable(Q_s, 0), DiffPoly.variable(Q_s, 1)
        h = x * x
        f = y * y - DiffPoly.const(Q_s, s)
        witness = ideal_membership_witness((2,), h, f, P)
        assert len(witness) == 3
        total = DiffPoly.zero(Q_s)
        for cof, gamma in witness:
            total = total + cof * apply_d(gamma, f, P)
        assert total == apply_d((2,), h * f, P)

    def test_randomized_identity(self):
        rng = random.Random(83)
        for t in range(40):
            field = (Q_s, F5_s)[t % 2]
            n = field.derivation_count
            h = random_diffpoly(rng, field, 2, max_terms=2, max_factors=2, order_zero_only=True)
            f = random_diffpoly(rng, field, 2, max_terms=2, max_factors=2, order_zero_only=True)
            alpha = random_multiindex(rng, n, 3)
            mode = (P, J)[t % 2]
            total = DiffPoly.zero(field)
            for cof, gamma in ideal_membership_witness(alpha, h, f, mode):
                total = total + cof * apply_d(gamma, f, mode)
            assert total == apply_d(alpha, h * f, mode)


class TestRestrictAndBaseChange:
    def test_restrict_equals_lower_order(self):
        v = witt_variety()
        for mode in (P, J):
            p2 = prolong_presentation(v, 2, mode)
            p1 = prolong_presentation(v, 1, mode)
            r = projection_restrict(p2, 1)
            assert r.symbols == p1.symbols and r.generators == p1.generators
        assert projection_restrict(p2, 2).generators == p2.generators

    def test_restrict_rejects_higher_order(self):
        p1 = prolong_presentation(witt_variety(), 1, P)
        with pytest.raises(ValueError):
            projection_restrict(p1, 2)

    def test_trivial_embedding(self):
        # constants-only field into a differential one: jet generators unchanged
        Q0 = FieldDescriptor(0, (), 0)
        x = DiffPoly.variable(Q0, 0)
        v = VarietyPresentation(Q0, 1, [x * x - DiffPoly.const(Q0, 2)])
        v2 = base_change(v, Q_s)
        jet = prolong_presentation(v2, 2, J)
        assert [g.render(("x",)) for g in jet.generators[:1]] == ["x^2 - 2"]
        pro = prolong_presentation(v2, 2, P)
        assert pro.generators == jet.generators

    def test_textual_invariance(self):
        Q_su2 = FieldDescriptor(0, ("s", "u"), 1)
        v2 = base_change(witt_variety(), Q_su2)
        assert v2.generators[0].render(("x",)) == "x^2 - s"

    def test_commuting_square(self):
        Q_su2 = FieldDescriptor(0, ("s", "u"), 1)
        v = hyperbola()
        lhs = prolong_presentation(base_change(v, Q_su2), 1, P).generators
        rhs = [base_change_poly(g, Q_su2) for g in prolong_presentation(v, 1, P).generators]
        assert lhs == rhs

    def test_incompatible_descriptors(self):
        with pytest.raises(ValueError):
            base_change(witt_variety(), FieldDescriptor(5, ("s",), 1))
        with pytest.raises(ValueError):
            base_change(witt_variety(), FieldDescriptor(0, ("u",), 1))

    def test_base_change_elem_values(self):
        Q_su2 = FieldDescriptor(0, ("s", "u"), 1)
        s = BaseElem.param(Q_s, "s")
        moved = base_change_elem(1 / (1 - s), Q_su2)
        s2 = BaseElem.param(Q_su2, "s")
        assert moved == 1 / (1 - s2)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([0, 5]), st.permutations(("u", "v", "w")))
def test_base_change_elem_is_the_normal_form_of_the_renamed_pair(seed, p, extra):
    # renaming keeps num and den coprime, so only the monic rescale is left
    src = FieldDescriptor(p, ("s", "u", "v"), 1)
    dst = FieldDescriptor(p, ("s", *extra), 1)
    a = random_base_elem(random.Random(seed), src, max_deg=2, max_terms=3)
    moved = base_change_elem(a, dst)
    assert moved == BaseElem(_remap_param_poly(a.num, dst), _remap_param_poly(a.den, dst))
