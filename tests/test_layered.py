"""Layered two-ring maps: theta, phi/psi, tensor normal forms, partitions."""

import random

import pytest

from hsprolong import (
    BaseElem,
    DerivationMode,
    DiffPoly,
    FieldDescriptor,
    LayeredPoly,
    TruncatedElement,
    TruncationOverflow,
    VarietyPresentation,
    check_phi_psi_inverse,
    check_theta_relations,
    layered_expand,
    multinomial_identity_check,
    ordered_partitions,
    outer_derive,
    phi,
    psi,
    report_passed,
    tensor_left_action,
    tensor_right_action,
    theta,
    twist_inverse,
    twisted_tensor_check,
)
from hsprolong import layered
from hsprolong.layered import _d_coeff
from hsprolong.sampling import random_base_elem

P = DerivationMode.PROLONGATION
J = DerivationMode.JET

Q_s = FieldDescriptor(0, ("s",), 1)
F5_s = FieldDescriptor(5, ("s",), 1)


def gen(i, j, kind=P, var=0, field=Q_s):
    return LayeredPoly.generator(field, var, i, j, kind)


class TestPhiPsi:
    def test_identity_layer(self):
        assert phi(gen(0, 0), 3) == gen(0, 0, J)

    def test_first_inner_order(self):
        assert phi(gen(0, 1), 3) == gen(0, 1, J) + gen(1, 0, J)

    def test_iterative_coefficient(self):
        # D_1 applied to d_0 pd_1 x + d_1 pd_0 x picks up C(2,1) = 2
        got = phi(gen(1, 1), 3)
        assert got == gen(1, 1, J) + gen(2, 0, J).scale(2)

    def test_psi_examples(self):
        assert psi(gen(0, 0, J), 3) == gen(0, 0)
        assert psi(gen(0, 1, J), 3) == gen(0, 1) - gen(1, 0)
        assert psi(phi(gen(1, 1), 3), 3) == gen(1, 1)

    def test_sweep_small(self):
        lines = check_phi_psi_inverse(3, 1, 10, seed=1)
        assert report_passed(lines)

    def test_full_sweep_exact(self):
        for bound in range(1, 7):
            for m in range(0, min(3, bound) + 1):
                for i in range(bound - m + 1):
                    for j in range(m + 1):
                        g = gen(i, j)
                        assert psi(phi(g, bound), bound) == g
                        gj = gen(i, j, J)
                        assert phi(psi(gj, bound), bound) == gj

    def test_ring_map(self):
        rng = random.Random(5)
        for _ in range(20):
            a = gen(rng.randint(0, 1), rng.randint(0, 2)).scale(random_base_elem(rng, Q_s))
            b = gen(rng.randint(0, 1), rng.randint(0, 2))
            assert phi(a * b, 6) == phi(a, 6) * phi(b, 6)
            assert phi(a + b, 6) == phi(a, 6) + phi(b, 6)

    def test_base_coefficients_fixed(self):
        c = LayeredPoly.const(Q_s, BaseElem.param(Q_s, "s"))
        assert phi(c, 2) == LayeredPoly.const(Q_s, BaseElem.param(Q_s, "s"))

    def test_overflow_is_an_error(self):
        with pytest.raises(TruncationOverflow):
            phi(gen(3, 1), 3)
        with pytest.raises(TruncationOverflow):
            psi(gen(3, 1, J), 3)
        with pytest.raises(TruncationOverflow):
            phi(gen(5, 0), 3)

    def test_wrong_layer_kind_rejected(self):
        with pytest.raises(ValueError):
            phi(gen(0, 0, J), 3)
        with pytest.raises(ValueError):
            psi(gen(0, 0, P), 3)

    def test_claim_one_instance(self):
        # h = s*x^2 at N=4, m=2: phi of the layered expansion equals the
        # outer-derived sum of jet-layer expansions
        s = BaseElem.param(Q_s, "s")
        x = DiffPoly.variable(Q_s, 0)
        h = (x * x).scale(s)
        i, j = 1, 2
        lhs = phi(layered_expand(i, j, h, P, P), 4)
        rhs = LayeredPoly.zero(Q_s)
        for k in range(j + 1):
            rhs = rhs + layered_expand(k, j - k, h, P, J)
        rhs = outer_derive(i, rhs, 4)
        assert lhs == rhs

    def test_char_five_sweep(self):
        lines = check_phi_psi_inverse(4, 2, 15, seed=9, field=F5_s)
        assert report_passed(lines)

    def test_trivial_derivation_degenerates(self):
        Q0 = FieldDescriptor(0, (), 0)
        lines = check_phi_psi_inverse(3, 1, 10, seed=3, field=Q0)
        assert report_passed(lines)
        g = LayeredPoly.generator(Q0, 0, 0, 1, P)
        assert phi(g, 3) == LayeredPoly.generator(Q0, 0, 0, 1, J) + LayeredPoly.generator(Q0, 0, 1, 0, J)


class TestTheta:
    def test_generator_rule(self):
        assert theta(gen(1, 1)) == LayeredPoly.generator(Q_s, 0, 1, 1, J)
        assert theta(gen(2, 0)) == LayeredPoly.generator(Q_s, 0, 0, 2, J)

    def test_witt_curve(self):
        s = BaseElem.param(Q_s, "s")
        x = DiffPoly.variable(Q_s, 0)
        v = VarietyPresentation(Q_s, 1, [x * x - DiffPoly.const(Q_s, s)])
        assert report_passed(check_theta_relations(1, 1, v))
        lhs = theta(layered_expand(1, 1, v.generators[0], J, P))
        rhs = layered_expand(1, 1, v.generators[0], P, J)
        assert lhs == rhs

    def test_constant_coefficients(self):
        x = DiffPoly.variable(Q_s, 0)
        v = VarietyPresentation(Q_s, 1, [x * x - DiffPoly.const(Q_s, 2)])
        assert report_passed(check_theta_relations(3, 3, v))

    def test_well_definedness_identities(self):
        # the three computations of the first proof: additivity, Leibniz,
        # and the base-coefficient rule, checked through the engines
        s = BaseElem.param(Q_s, "s")
        x, y = DiffPoly.variable(Q_s, 0), DiffPoly.variable(Q_s, 1)
        for i in range(3):
            for j in range(3):
                lhs = theta(layered_expand(i, j, x + y, J, P))
                rhs = layered_expand(j, i, x + y, P, J)
                assert lhs == rhs
                lhs = theta(layered_expand(i, j, x * y, J, P))
                rhs = layered_expand(j, i, x * y, P, J)
                assert lhs == rhs
                c = DiffPoly.const(Q_s, s)
                assert theta(layered_expand(i, j, c, J, P)) == layered_expand(j, i, c, P, J)


class TestTensor:
    def test_constant_scalar_is_plain_scaling(self):
        v = {(0, 0): BaseElem.one(Q_s)}
        c = BaseElem.const(Q_s, 5)
        assert tensor_left_action(c, v, 1, 1) == {(0, 0): c}
        assert tensor_right_action(c, v, 1, 1) == {(0, 0): c}

    def test_twisted_action_of_parameter(self):
        # c = s on 1 (x) 1 (x) 1 at m=q=1 deposits s at u^0 and 1 at u^1
        s = BaseElem.param(Q_s, "s")
        v = {(0, 0): BaseElem.one(Q_s)}
        acted = tensor_left_action(s, v, 1, 1)
        assert acted == {(0, 0): s, (0, 1): BaseElem.one(Q_s)}
        assert acted == tensor_right_action(s, v, 1, 1)

    def test_surjectivity_preimage_of_s(self):
        # twist_inverse(s) = s - u builds the preimage of 1 (x) 1 (x) s
        s = BaseElem.param(Q_s, "s")
        cs = twist_inverse(TruncatedElement.constant(s, 1, 1))
        assert cs == TruncatedElement({(0,): s, (1,): BaseElem.const(Q_s, -1)}, 1, 1)
        v = {}
        for (g,), cg in cs.coeffs.items():
            for k in range(1 - g + 1):
                dk = _d_coeff(k, cg)
                if dk:
                    key = (0, g + k)
                    v[key] = v.get(key, BaseElem.zero(Q_s)) + dk
        v = {k: b for k, b in v.items() if b}
        assert v == {(0, 0): s}

    def test_randomized_report(self):
        assert report_passed(twisted_tensor_check(2, 2, 60, seed=21))
        assert report_passed(twisted_tensor_check(2, 3, 40, seed=22, field=F5_s))

    def test_wrong_derivative_is_caught(self, monkeypatch):
        # a D_k that kills every positive order must break the left action
        # against the series-route right action
        monkeypatch.setattr(layered, "_d_coeff", lambda i, c: c if i == 0 else BaseElem.zero(c.field))
        lines = twisted_tensor_check(2, 2, 20, seed=21)
        assert lines[-1].startswith("FAIL tensor-linearity")

    def test_associativity_of_action(self):
        rng = random.Random(23)
        for _ in range(30):
            v = {(rng.randint(0, 2), rng.randint(0, 2)): random_base_elem(rng, Q_s)}
            c1 = random_base_elem(rng, Q_s)
            c2 = random_base_elem(rng, Q_s)
            lhs = tensor_left_action(c1 * c2, v, 2, 2)
            rhs = tensor_left_action(c1, tensor_left_action(c2, v, 2, 2), 2, 2)
            assert lhs == rhs


class TestPartitions:
    def test_small_sets(self):
        assert ordered_partitions(1) == [(1,)]
        assert sorted(ordered_partitions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_counts(self):
        for k in range(1, 13):
            assert len(ordered_partitions(k)) == 2 ** (k - 1)

    def test_signed_sums(self):
        from hsprolong import multinomial

        def signed(k):
            return sum((-1) ** len(p) * multinomial(p) for p in ordered_partitions(k))

        assert signed(1) == -1
        assert signed(3) == -1  # -1 + 3 + 3 - 6
        assert signed(6) == 1 and len(ordered_partitions(6)) == 32

    def test_identity_with_operator_check(self):
        rng = random.Random(27)
        for k in range(1, 13):
            assert multinomial_identity_check(k, Q_s, rng, trials=3)

    def test_identity_char_p(self):
        rng = random.Random(29)
        for k in range(1, 8):
            assert multinomial_identity_check(k, F5_s, rng, trials=2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ordered_partitions(0)
