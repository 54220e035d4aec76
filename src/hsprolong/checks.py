"""Named verification suites behind the `check` command.

Each suite returns report lines in the shared format

    OK <check> params=<...> trials=<T>
    FAIL <check> at=<witness> lhs=<canonical> rhs=<canonical>

and draws all randomness from seeds derived deterministically from the
top-level seed, so identical invocations produce identical reports.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .basefield import BaseElem, hasse_derive
from .fields import FieldDescriptor, comp_coeff
from .diffpoly import DerivationMode, DiffPoly, apply_d, taylor_oracle
from .layered import (
    check_phi_psi_inverse,
    check_theta_relations,
    multinomial_identity_check,
    report_passed,
    twisted_tensor_check,
)
from .multiindex import index_add, splittings
from .presentations import ideal_membership_witness
from .sampling import (
    random_base_elem,
    random_diffpoly,
    random_multiindex,
    random_variety_with_point,
)
from .series import twist_expand, twist_inverse, twist_psi, TruncatedElement

CHECK_NAMES = (
    "oracle",
    "twist",
    "iterative",
    "leibniz",
    "theta",
    "phi-psi",
    "tensor",
    "multinomial",
)

_FIELDS = {
    "Q(s)": FieldDescriptor(0, ("s",), 1),
    "Q(s1,s2)": FieldDescriptor(0, ("s1", "s2"), 2),
    "F5(s)": FieldDescriptor(5, ("s",), 1),
}


def check_oracle(seed: int, trials: int, **_) -> list[str]:
    """apply_d against the Taylor substitution oracle, both modes."""
    rng = random.Random(seed)
    fields = [_FIELDS["Q(s)"], _FIELDS["Q(s1,s2)"], _FIELDS["F5(s)"]]
    for t in range(trials):
        field = fields[t % len(fields)]
        n = field.derivation_count
        f = random_diffpoly(rng, field, var_count=3, max_terms=3, max_factors=3, max_order=1)
        alpha = random_multiindex(rng, n, 4)
        for mode in (DerivationMode.PROLONGATION, DerivationMode.JET):
            a = apply_d(alpha, f, mode)
            b = taylor_oracle(alpha, f, mode)
            if a != b:
                return [
                    f"FAIL oracle at=trial{t},alpha={alpha},mode={mode.value},f={f} lhs={a} rhs={b}"
                ]
    return [f"OK oracle params=modes=2,orders<=4 trials={trials}"]


def _random_truncated(rng: random.Random, field: FieldDescriptor, m: int) -> TruncatedElement:
    n = field.derivation_count
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        coeffs[random_multiindex(rng, n, m)] = random_base_elem(rng, field)
    return TruncatedElement(coeffs, m, n)


def check_twist(seed: int, trials: int, *, order: int, **_) -> list[str]:
    """Twist isomorphism: psi round-trips and the twisted scalar action."""
    rng = random.Random(seed)
    fields = [_FIELDS["Q(s1,s2)"], _FIELDS["F5(s)"]]
    m = min(order, 3)
    for t in range(trials):
        field = fields[t % len(fields)]
        c = _random_truncated(rng, field, m)
        b = _random_truncated(rng, field, m)
        psi_c = twist_psi(c)
        back = twist_inverse(psi_c)
        if back != c:
            return [f"FAIL twist at=trial{t},dir=inv.psi lhs={back} rhs={c}"]
        back = twist_psi(twist_inverse(b))
        if back != b:
            return [f"FAIL twist at=trial{t},dir=psi.inv lhs={back} rhs={b}"]
        r = random_base_elem(rng, field)
        lhs = twist_psi(c.scale(r))
        rhs = twist_expand(r, m) * psi_c
        if lhs != rhs:
            return [f"FAIL twist at=trial{t},scalar={r} lhs={lhs} rhs={rhs}"]
        a1 = random_base_elem(rng, field)
        a2 = random_base_elem(rng, field)
        if twist_expand(a1 * a2, m) != twist_expand(a1, m) * twist_expand(a2, m):
            return [f"FAIL twist at=trial{t},hom={a1},{a2} lhs=e(ab) rhs=e(a)e(b)"]
    return [f"OK twist params=m<={m},n<=2 trials={trials}"]


def check_iterative(seed: int, trials: int, **_) -> list[str]:
    """Iterativity and commutativity, on the base field and on symbols."""
    rng = random.Random(seed)
    fields = [_FIELDS["Q(s)"], _FIELDS["Q(s1,s2)"], _FIELDS["F5(s)"]]
    for t in range(trials):
        field = fields[t % len(fields)]
        n = field.derivation_count
        a = random_base_elem(rng, field)
        alpha = random_multiindex(rng, n, 2)
        beta = random_multiindex(rng, n, 2)
        lhs = hasse_derive(alpha, hasse_derive(beta, a))
        rhs = hasse_derive(index_add(alpha, beta), a) * comp_coeff(alpha, beta, field)
        if lhs != rhs:
            return [f"FAIL iterative at=trial{t},a={a},alpha={alpha},beta={beta} lhs={lhs} rhs={rhs}"]
        if n >= 2:
            e1, e2 = (1, 0), (0, 1)
            if hasse_derive(e1, hasse_derive(e2, a)) != hasse_derive(e2, hasse_derive(e1, a)):
                return [f"FAIL commute at=trial{t},a={a} lhs=D1D2 rhs=D2D1"]
        f = random_diffpoly(rng, field, var_count=2, max_terms=2, max_factors=2)
        for mode in (DerivationMode.PROLONGATION, DerivationMode.JET):
            l2 = apply_d(alpha, apply_d(beta, f, mode), mode)
            r2 = apply_d(index_add(alpha, beta), f, mode).scale(comp_coeff(alpha, beta, field))
            if l2 != r2:
                return [
                    f"FAIL iterative-symbols at=trial{t},mode={mode.value},f={f} lhs={l2} rhs={r2}"
                ]
    return [f"OK iterative params=|alpha|+|beta|<=4 trials={trials}"]


def check_leibniz(seed: int, trials: int, **_) -> list[str]:
    """Generalized Leibniz rule and the membership-witness identity."""
    rng = random.Random(seed)
    fields = [_FIELDS["Q(s)"], _FIELDS["Q(s1,s2)"], _FIELDS["F5(s)"]]
    for t in range(trials):
        field = fields[t % len(fields)]
        n = field.derivation_count
        a = random_base_elem(rng, field)
        b = random_base_elem(rng, field)
        alpha = random_multiindex(rng, n, 3)
        lhs = hasse_derive(alpha, a * b)
        rhs = BaseElem.zero(field)
        for be, ga in splittings(alpha):
            rhs = rhs + hasse_derive(be, a) * hasse_derive(ga, b)
        if lhs != rhs:
            return [f"FAIL leibniz at=trial{t},a={a},b={b},alpha={alpha} lhs={lhs} rhs={rhs}"]
        h = random_diffpoly(rng, field, var_count=2, max_terms=2, max_factors=2, order_zero_only=True)
        f = random_diffpoly(rng, field, var_count=2, max_terms=2, max_factors=2, order_zero_only=True)
        mode = DerivationMode.PROLONGATION if t % 2 else DerivationMode.JET
        witness = ideal_membership_witness(alpha, h, f, mode)
        total = DiffPoly.zero(field)
        for cof, gamma in witness:
            total = total + cof * apply_d(gamma, f, mode)
        direct = apply_d(alpha, h * f, mode)
        if total != direct:
            return [f"FAIL witness at=trial{t},alpha={alpha},h={h},f={f} lhs={total} rhs={direct}"]
    return [f"OK leibniz params=|alpha|<=3 trials={trials}"]


def check_theta(seed: int, trials: int, *, order: int, inner: int, **_) -> list[str]:
    """Layer commutation on randomly constructed small varieties."""
    rng = random.Random(seed)
    field = _FIELDS["Q(s)"]
    varieties = max(1, trials // 10)
    m, q = min(order, 3), min(inner, 3)
    for t in range(varieties):
        variety, _ = random_variety_with_point(rng, field, var_count=2)
        lines = check_theta_relations(m, q, variety)
        if not report_passed(lines):
            return [line.replace("at=(", f"at=(variety{t},", 1) for line in lines]
    return [f"OK theta params=m={m},q={q},varieties={varieties} trials={varieties * (m + 1) * (q + 1)}"]


def check_phi_psi(seed: int, trials: int, *, outer: int, inner: int, **_) -> list[str]:
    lines = check_phi_psi_inverse(outer, inner, trials, seed, _FIELDS["Q(s)"])
    lines += check_phi_psi_inverse(outer, inner, trials, seed + 1, _FIELDS["F5(s)"])
    return lines


def check_tensor(seed: int, trials: int, *, order: int, inner: int, **_) -> list[str]:
    lines = twisted_tensor_check(min(order, 3), min(inner, 3), trials, seed, _FIELDS["Q(s)"])
    lines += twisted_tensor_check(min(order, 3), min(inner, 3), trials, seed + 1, _FIELDS["F5(s)"])
    return lines


def check_multinomial(seed: int, trials: int, *, max_k: int, **_) -> list[str]:
    rng = random.Random(seed)
    for k in range(1, max_k + 1):
        if not multinomial_identity_check(k, _FIELDS["Q(s)"], rng, trials=3):
            return [f"FAIL multinomial at=k={k} lhs=signed-sum rhs=(-1)^k"]
    return [f"OK multinomial params=k<=({max_k}) trials={max_k}"]


_SUITES: dict[str, Callable[..., list[str]]] = {
    "oracle": check_oracle,
    "twist": check_twist,
    "iterative": check_iterative,
    "leibniz": check_leibniz,
    "theta": check_theta,
    "phi-psi": check_phi_psi,
    "tensor": check_tensor,
    "multinomial": check_multinomial,
}


def run_checks(
    names: Sequence[str], *, seed: int, trials: int, order: int, outer: int, inner: int, max_k: int
) -> tuple[bool, list[str]]:
    """Run the named suites; returns (all_passed, report_lines)."""
    top = random.Random(seed)
    lines: list[str] = []
    for name in names:
        if name not in _SUITES:
            raise KeyError(f"unknown check {name!r}")
        sub_seed = top.randrange(2**32)
        lines += _SUITES[name](
            seed=sub_seed, trials=trials, order=order, outer=outer, inner=inner, max_k=max_k
        )
    return report_passed(lines), lines
