"""Differential polynomials: the derivation d_alpha against its Taylor oracle."""

import random

import pytest

from hsprolong import (
    BaseElem,
    DerivationMode,
    DiffPoly,
    DiffSymbol,
    FieldDescriptor,
    apply_d,
    comp_coeff,
    index_add,
    symbol_derive,
    taylor_oracle,
)
from hsprolong.sampling import random_diffpoly, random_multiindex

P = DerivationMode.PROLONGATION
J = DerivationMode.JET

Q_s = FieldDescriptor(0, ("s",), 1)
Q_su = FieldDescriptor(0, ("s1", "s2"), 2)
F5_s = FieldDescriptor(5, ("s",), 1)
F3_s = FieldDescriptor(3, ("s",), 1)


def sym(var, order):
    return DiffSymbol(var, order)


class TestSymbolDerive:
    def test_examples(self):
        c, shifted = symbol_derive((1,), sym(0, (1,)), Q_s)
        assert c == 2 and shifted == sym(0, (2,))
        c, shifted = symbol_derive((0, 1), sym(0, (1, 0)), Q_su)
        assert c == 1 and shifted == sym(0, (1, 1))
        c, shifted = symbol_derive((2,), sym(0, (1,)), F3_s)
        assert not c  # C(3,2) = 3 vanishes mod 3
        assert shifted == sym(0, (3,))


class TestApplyD:
    def test_leibniz_square(self):
        x = DiffPoly.variable(Q_s, 0)
        expected = DiffPoly.from_symbol(Q_s, sym(0, (1,)), coeff=BaseElem.const(Q_s, 2)) * x
        for mode in (P, J):
            assert apply_d((1,), x * x, mode) == expected

    def test_base_coefficient_rule(self):
        s = BaseElem.param(Q_s, "s")
        x = DiffPoly.variable(Q_s, 0)
        f = x * x - DiffPoly.const(Q_s, s)
        got_p = apply_d((1,), f, P)
        got_j = apply_d((1,), f, J)
        assert got_p.render(("x",)) == "2*x*d1x - 1"
        assert got_j.render(("x",)) == "2*x*d1x"

    def test_order_two_product(self):
        x, y = DiffPoly.variable(Q_s, 0), DiffPoly.variable(Q_s, 1)
        got = apply_d((2,), x * y, P)
        assert got.render(("x", "y")) == "x*d2y + d1x*d1y + d2x*y"

    def test_zero_index_is_identity(self):
        rng = random.Random(41)
        for _ in range(10):
            f = random_diffpoly(rng, Q_su, 2)
            assert apply_d((0, 0), f, P) == f
            assert apply_d((0, 0), f, J) == f


class TestTaylorOracle:
    def test_oracle_is_reference_for_spec_example(self):
        s = BaseElem.param(Q_s, "s")
        x = DiffPoly.variable(Q_s, 0)
        f = x * x - DiffPoly.const(Q_s, s)
        got = taylor_oracle((1,), f, P)
        assert got.render(("x",)) == "2*x*d1x - 1"
        assert got == apply_d((1,), f, P)

    def test_zero_index_extraction(self):
        rng = random.Random(43)
        f = random_diffpoly(rng, Q_s, 2)
        assert taylor_oracle((0,), f, P) == f

    def test_mixed_index_product(self):
        x, y = DiffPoly.variable(Q_su, 0), DiffPoly.variable(Q_su, 1)
        got = taylor_oracle((1, 1), x * y, J)
        assert (
            got.render(("x", "y"))
            == "x*d[1,1]y + d[1,0]x*d[0,1]y + d[0,1]x*d[1,0]y + d[1,1]x*y"
        )
        assert got == apply_d((1, 1), x * y, J)

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(47)
        fields = (Q_s, Q_su, F5_s)
        for t in range(90):
            field = fields[t % 3]
            n = field.derivation_count
            f = random_diffpoly(rng, field, var_count=3, max_terms=3, max_factors=3)
            alpha = random_multiindex(rng, n, 4)
            for mode in (P, J):
                assert apply_d(alpha, f, mode) == taylor_oracle(alpha, f, mode)


class TestDerivationLaws:
    def test_additivity(self):
        rng = random.Random(53)
        for t in range(40):
            field = (Q_s, Q_su)[t % 2]
            n = field.derivation_count
            f = random_diffpoly(rng, field, 2)
            g = random_diffpoly(rng, field, 2)
            alpha = random_multiindex(rng, n, 3)
            for mode in (P, J):
                assert apply_d(alpha, f + g, mode) == apply_d(alpha, f, mode) + apply_d(alpha, g, mode)

    def test_leibniz(self):
        rng = random.Random(59)
        from hsprolong import splittings

        for t in range(30):
            field = (Q_s, F5_s)[t % 2]
            n = field.derivation_count
            f = random_diffpoly(rng, field, 2, max_terms=2, max_factors=2)
            g = random_diffpoly(rng, field, 2, max_terms=2, max_factors=2)
            alpha = random_multiindex(rng, n, 3)
            for mode in (P, J):
                total = DiffPoly.zero(field)
                for be, ga in splittings(alpha):
                    total = total + apply_d(be, f, mode) * apply_d(ga, g, mode)
                assert apply_d(alpha, f * g, mode) == total

    def test_iterativity_of_extension(self):
        rng = random.Random(61)
        for t in range(40):
            field = (Q_s, Q_su, F5_s)[t % 3]
            n = field.derivation_count
            f = random_diffpoly(rng, field, 2, max_terms=2, max_factors=2)
            alpha = random_multiindex(rng, n, 2)
            beta = random_multiindex(rng, n, 2)
            for mode in (P, J):
                lhs = apply_d(alpha, apply_d(beta, f, mode), mode)
                rhs = apply_d(index_add(alpha, beta), f, mode).scale(
                    comp_coeff(alpha, beta, field)
                )
                assert lhs == rhs

    def test_constant_coefficients_make_modes_agree(self):
        # coefficients in the constants of the derivation: jet == prolongation
        rng = random.Random(67)
        for _ in range(20):
            terms = {}
            f = DiffPoly.zero(Q_s)
            for _ in range(3):
                t = DiffPoly.const(Q_s, rng.randint(-5, 5))
                for _ in range(rng.randint(0, 2)):
                    t = t * DiffPoly.variable(Q_s, rng.randrange(2))
                f = f + t
            alpha = (rng.randint(0, 3),)
            assert apply_d(alpha, f, P) == apply_d(alpha, f, J)


class TestEval:
    def test_examples(self):
        s = BaseElem.param(Q_s, "s")
        x = DiffPoly.variable(Q_s, 0)
        f = x * x - DiffPoly.const(Q_s, s)
        assert f.evaluate({sym(0, (0,)): s}) == s**2 - s

        h = apply_d((1,), f, P)
        value = h.evaluate({sym(0, (0,)): s, sym(0, (1,)): BaseElem.one(Q_s)})
        assert value == 2 * s - 1

        assert not DiffPoly.zero(Q_s).evaluate({})

    def test_unassigned_symbol(self):
        x = DiffPoly.variable(Q_s, 0)
        with pytest.raises(ValueError):
            x.evaluate({})
