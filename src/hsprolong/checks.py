"""Named verification suites behind the `check` command, and the one trial loop.

Every suite is a list of loops run by ``_run``, which owns the field
rotation, the stop policy and the report format

    OK <check> params=<...> trials=<T>
    FAIL <check> at=<witness> lhs=<canonical> rhs=<canonical>

A trial is a generator that yields one (label, witness, lhs, rhs) per
comparison, in a fixed order; witness is a zero-argument callable that writes
the ``at=`` token.  ``_run`` is the only code that compares two sides: at the
first pair with lhs != rhs it calls that pair's witness (before the trial
would resume, so the witness may read the trial's loop variables), writes the
FAIL line and resumes no trial.  So no later comparison is computed, no
passing pair's witness is written, and a failing suite's FAIL line is its
last line.  All randomness comes from seeds derived deterministically from the
top-level seed, so identical invocations produce identical reports.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import termdict
from .basefield import BaseElem, ParamPoly, hasse_derive
from .fields import FieldDescriptor, comp_coeff, multinomial
from .diffpoly import DerivationMode, DiffPoly, apply_d, derive_upto, taylor_oracle
from .layered import LayeredPoly, LayeredSymbol, layered_expand_each, outer_derive, phi, psi, theta
from .layered import tensor_left_action, tensor_right_action
from .multiindex import index_add, index_size, splittings
from .presentations import ideal_membership_witness
from .sampling import random_base_elem, random_diffpoly, random_multiindex, random_nonzero_base_elem
from .sampling import random_sparse_poly, random_variety_with_point
from .series import render_series, twist_expand, twist_inverse, twist_psi, TruncatedElement

P, J = DerivationMode.PROLONGATION, DerivationMode.JET

_Q_S = FieldDescriptor(0, ("s",), 1)
_Q_S12 = FieldDescriptor(0, ("s1", "s2"), 2)
_F5_S = FieldDescriptor(5, ("s",), 1)
_ROTATION = (_Q_S, _Q_S12, _F5_S)


class _Loop(NamedTuple):
    """``trials`` calls of ``trial(t, field)``, with field t rotating through ``fields``."""

    check: str
    params: str
    trials: int
    trial: Callable[[int, FieldDescriptor], Iterable[tuple]]
    fields: Sequence[FieldDescriptor] = (_Q_S,)


def _run(loops: Sequence[_Loop]) -> list[str]:
    """Run the loops in order: one OK line per loop, or one FAIL line that ends the report."""
    lines: list[str] = []
    for check, params, trials, trial, fields in loops:
        for t in range(trials):
            for label, witness, lhs, rhs in trial(t, fields[t % len(fields)]):
                if lhs != rhs:
                    lines.append(f"FAIL {label} at={witness()} lhs={lhs} rhs={rhs}")
                    return lines
        lines.append(f"OK {check} params={params} trials={trials}")
    return lines


def report_passed(lines: Sequence[str]) -> bool:
    return all(not line.startswith("FAIL") for line in lines)


def check_oracle(seed: int, trials: int, **_) -> list[str]:
    """apply_d against the Taylor substitution oracle, both modes."""
    rng = random.Random(seed)

    def trial(t, field):
        f = random_diffpoly(rng, field, var_count=3, max_terms=3, max_factors=3, max_order=1)
        alpha = random_multiindex(rng, field.derivation_count, 4)
        for mode in (P, J):
            witness = lambda: f"trial{t},alpha={alpha},mode={mode.value},f={f}"
            yield "oracle", witness, apply_d(alpha, f, mode), taylor_oracle(alpha, f, mode)

    return _run([_Loop("oracle", "modes=2,orders<=4", trials, trial, _ROTATION)])


def _random_truncated(rng: random.Random, field: FieldDescriptor, m: int) -> TruncatedElement:
    n = field.derivation_count
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        coeffs[random_multiindex(rng, n, m)] = random_base_elem(rng, field)
    return TruncatedElement(coeffs, m, n)


def check_twist(seed: int, trials: int, *, order: int, **_) -> list[str]:
    """Twist isomorphism: psi round-trips and the twisted scalar action."""
    rng = random.Random(seed)

    def trial(t, field):
        c = _random_truncated(rng, field, order)
        b = _random_truncated(rng, field, order)
        psi_c = twist_psi(c)
        yield "twist", lambda: f"trial{t},dir=inv.psi", twist_inverse(psi_c), c
        yield "twist", lambda: f"trial{t},dir=psi.inv", twist_psi(twist_inverse(b)), b
        r = random_base_elem(rng, field)
        yield "twist", lambda: f"trial{t},scalar={r}", twist_psi(c.scale(r)), twist_expand(r, order) * psi_c
        a1 = random_base_elem(rng, field)
        a2 = random_base_elem(rng, field)
        lhs = twist_expand(a1 * a2, order)
        yield "twist", lambda: f"trial{t},hom={a1},{a2}", lhs, twist_expand(a1, order) * twist_expand(a2, order)

    return _run([_Loop("twist", f"m<={order},n<=2", trials, trial, (_Q_S12, _F5_S))])


def check_iterative(seed: int, trials: int, **_) -> list[str]:
    """Iterativity and commutativity, on the base field and on symbols; on
    symbols, apply_d twice against derive_upto, the all-orders route of the CLI.
    In characteristic p, D_p on the base field against twist_expand, at the
    order where D_p differs from d^p/p!."""
    rng = random.Random(seed)

    def trial(t, field):
        n = field.derivation_count
        a = random_base_elem(rng, field)
        alpha = random_multiindex(rng, n, 2)
        beta = random_multiindex(rng, n, 2)
        alpha_beta = index_add(alpha, beta)
        mu = comp_coeff(alpha, beta, field)
        lhs = hasse_derive(alpha, hasse_derive(beta, a))
        yield "iterative", lambda: f"trial{t},a={a},alpha={alpha},beta={beta}", lhs, hasse_derive(alpha_beta, a) * mu
        if n >= 2:
            e1, e2 = (1, 0), (0, 1)
            lhs = hasse_derive(e1, hasse_derive(e2, a))
            yield "commute", lambda: f"trial{t},a={a}", lhs, hasse_derive(e2, hasse_derive(e1, a))
        f = random_diffpoly(rng, field, var_count=2, max_terms=2, max_factors=2)
        for mode in (P, J):
            lhs = apply_d(alpha, apply_d(beta, f, mode), mode)
            rhs = derive_upto(f, index_size(alpha_beta), mode)[alpha_beta].scale(mu)
            yield "iterative-symbols", lambda: f"trial{t},mode={mode.value},f={f}", lhs, rhs
        p = field.characteristic
        if p:
            # c = (s*num(a) + 1)*s^(2p) is nonzero, and its degree of at least 2p
            # reaches past the last base-p digit of C(deg, p)
            s = ParamPoly.var(field, 0)
            c = BaseElem((s * a.num + ParamPoly.const(field, 1)) * s ** (2 * p))
            order_p = (p,) + (0,) * (n - 1)
            rhs = twist_expand(c, p).coeff_or(order_p, BaseElem.zero(field))
            yield "iterative-char-p", lambda: f"trial{t},c={c}", hasse_derive(order_p, c), rhs

    return _run([_Loop("iterative", "|alpha|+|beta|<=4", trials, trial, _ROTATION)])


def check_leibniz(seed: int, trials: int, **_) -> list[str]:
    """Generalized Leibniz rule and the membership-witness identity, whose
    sum of apply_d terms is compared with derive_upto, the CLI's route."""
    rng = random.Random(seed)

    def trial(t, field):
        a = random_base_elem(rng, field)
        b = random_base_elem(rng, field)
        alpha = random_multiindex(rng, field.derivation_count, 3)
        rhs = BaseElem.zero(field)
        for be, ga in splittings(alpha):
            rhs = rhs + hasse_derive(be, a) * hasse_derive(ga, b)
        yield "leibniz", lambda: f"trial{t},a={a},b={b},alpha={alpha}", hasse_derive(alpha, a * b), rhs
        h = random_diffpoly(rng, field, var_count=2, max_terms=2, max_factors=2, order_zero_only=True)
        f = random_diffpoly(rng, field, var_count=2, max_terms=2, max_factors=2, order_zero_only=True)
        mode = P if t % 2 else J
        total = DiffPoly.zero(field)
        for cof, gamma in ideal_membership_witness(alpha, h, f, mode):
            total = total + cof * apply_d(gamma, f, mode)
        rhs = derive_upto(h * f, index_size(alpha), mode)[alpha]
        yield "witness", lambda: f"trial{t},alpha={alpha},h={h},f={f}", total, rhs

    return _run([_Loop("leibniz", "|alpha|<=3", trials, trial, _ROTATION)])


def _theta_loop(m: int, q: int, varieties: Sequence, params: str, prefix: str) -> _Loop:
    """theta(d_i del_j f) = del_j d_i f for i <= m, j <= q and every generator f.

    One trial per (variety, i, j) case, comparing every generator of the
    variety; a FAIL witness opens with ``prefix.format(v=<variety index>)``.
    A variety's first trial expands each generator on each side once, for
    every (i, j) at once, and its later trials read those tables.
    """
    per = (m + 1) * (q + 1)
    tops = [(i, j) for i in range(m + 1) for j in range(q + 1)]
    swapped = [(j, i) for i, j in tops]
    tables: list = []  # (d_i del_j f, del_j d_i f) for each generator f of the current variety

    def trial(t, _):
        v, ij = divmod(t, per)
        i, j = divmod(ij, q + 1)
        if not ij:
            tables[:] = [
                (layered_expand_each(tops, f, outer=J, inner=P), layered_expand_each(swapped, f, outer=P, inner=J))
                for f in varieties[v].generators
            ]
        for gi, (left, right) in enumerate(tables):
            yield "theta", lambda: f"({prefix.format(v=v)}i={i},j={j},gen={gi})", theta(left[i, j]), right[j, i]

    return _Loop("theta", params, len(varieties) * per, trial)


def check_theta_relations(m: int, q: int, variety) -> list[str]:
    """theta(d_i del_j f) = del_j d_i f for every generator and i <= m, j <= q."""
    return _run([_theta_loop(m, q, [variety], f"m={m},q={q},gens={len(variety.generators)}", "")])


def check_theta(seed: int, trials: int, *, order: int, inner: int, **_) -> list[str]:
    """Layer commutation on randomly constructed small varieties.

    The pinned ``trials=`` counts (variety, i, j) cases, not generators:
    ``check all --seed 42`` reports trials=90 for the 180 relations that it
    compares, on 10 two-generator varieties at i, j <= 2.
    """
    rng = random.Random(seed)
    varieties = [random_variety_with_point(rng, _Q_S, var_count=2)[0] for _ in range(max(1, trials // 10))]
    params = f"m={order},q={inner},varieties={len(varieties)}"
    return _run([_theta_loop(order, inner, varieties, params, "variety{v},")])


def _random_layered(
    rng: random.Random, field: FieldDescriptor, max_outer: int, max_inner: int, kind: DerivationMode
) -> LayeredPoly:
    def symbol():
        return LayeredSymbol(rng.randrange(2), rng.randint(0, max_outer), rng.randint(0, max_inner), kind)

    return random_sparse_poly(rng, field, LayeredPoly, 3, 2, symbol)


def _phi_psi_loops(bound: int, m: int, trials: int, seed: int, field: FieldDescriptor) -> list[_Loop]:
    """The generator sweep, the random round trips and Claims 1-2 over one field."""
    rng = random.Random(seed)
    params = f"N={bound},m={m}"

    def sweep(t, field):
        i, j = divmod(t, m + 1)
        for kind, there, back, way in ((P, phi, psi, "psi.phi"), (J, psi, phi, "phi.psi")):
            g = LayeredPoly.generator(field, 0, i, j, kind)
            yield "phi-psi-sweep", lambda: f"(i={i},j={j},dir={way})", back(there(g, bound), bound), g

    def roundtrip(t, field):
        p = _random_layered(rng, field, bound - m, m, P)
        q = _random_layered(rng, field, bound - m, m, P)
        phi_p = phi(p, bound)
        yield "phi-psi-roundtrip", lambda: f"trial{t}", psi(phi_p, bound), p
        yield "phi-multiplicative", lambda: f"trial{t}", phi(p * q, bound), phi_p * phi(q, bound)

    def claims(t, field):
        h = random_diffpoly(rng, field, var_count=2, max_terms=2, max_factors=2, order_zero_only=True)
        i = rng.randint(0, max(0, bound - m))
        j = rng.randint(0, m)
        # d_i X_j h and every d_k X_(j-k) h, for both inner kinds X, from one fold per kind
        tops = [(i, j)] + [(k, j - k) for k in range(j + 1)]
        expanded = {kind: layered_expand_each(tops, h, P, kind) for kind in (P, J)}
        # claim, map, inner kind of the mapped symbol, inner kind of the sum, sign
        for label, there, kind, other, sign in (("claim1", phi, P, J, 1), ("claim2", psi, J, P, -1)):
            lhs = there(expanded[kind][i, j], bound)
            rhs = LayeredPoly.zero(field)
            for k in range(j + 1):
                rhs = rhs + expanded[other][k, j - k].scale(sign**k)
            yield label, lambda: f"trial{t},i={i},j={j},h={h}", lhs, outer_derive(i, rhs, bound)

    return [
        _Loop("phi-psi-sweep", params, (bound - m + 1) * (m + 1), sweep, (field,)),
        _Loop("phi-psi-random", params, trials, roundtrip, (field,)),
        _Loop("phi-psi-claims", params, trials, claims, (field,)),
    ]


def check_phi_psi_inverse(bound: int, m: int, trials: int, seed: int, field: FieldDescriptor = _Q_S) -> list[str]:
    """Generator sweep and randomized verification that phi and psi invert.

    Sweeps every layered generator with outer order <= bound - m and inner
    order <= m, round-trips random layered polynomials, checks that phi is
    multiplicative, and verifies Claims 1-2 on random order-0 polynomials.
    """
    return _run(_phi_psi_loops(bound, m, trials, seed, field))


def check_phi_psi(seed: int, trials: int, *, outer: int, inner: int, **_) -> list[str]:
    return _run(
        _phi_psi_loops(outer, inner, trials, seed, _Q_S) + _phi_psi_loops(outer, inner, trials, seed + 1, _F5_S)
    )


class _TensorForm(dict):
    """A tensor normal form {(i, j): b}, written as the sum of b*t^i*u^j in graded order."""

    def __str__(self) -> str:
        return render_series(self, "tu")


def _tensor_loops(m: int, q: int, samples: int, seed: int, field: FieldDescriptor) -> list[_Loop]:
    """K-linearity and surjectivity of the tensor swap, on random normal forms.

    In normal form the swap b (x) u^j (x) t^i -> b (x) t^i (x) u^j is the
    identity on (t, u) keys, so linearity compares the quotient-rule left
    action with the series right action directly.
    """
    if field.derivation_count != 1:
        raise ValueError("the tensor check runs over a single-derivation field")
    rng = random.Random(seed)
    params = f"m={m},q={q}"

    def linearity(t, field):
        v = {
            (rng.randint(0, m), rng.randint(0, q)): random_base_elem(rng, field)
            for _ in range(rng.randint(1, 3))
        }
        v = {k: b for k, b in v.items() if b}
        c = random_base_elem(rng, field)
        c2 = random_base_elem(rng, field)
        witness = lambda: f"trial{t}"
        lhs, rhs = tensor_left_action(c, v, q), tensor_right_action(c, v, q)
        yield "tensor-linearity", witness, _TensorForm(lhs), _TensorForm(rhs)
        lhs = tensor_left_action(c * c2, v, q)
        rhs = tensor_left_action(c, tensor_left_action(c2, v, q), q)
        yield "tensor-associative", witness, _TensorForm(lhs), _TensorForm(rhs)

    def surjectivity(t, field):
        c = random_nonzero_base_elem(rng, field)
        one = BaseElem.one(field)
        got: dict = {}
        for (g,), cg in twist_inverse(TruncatedElement.constant(c, q, 1)).coeffs.items():
            got = termdict.add(got, tensor_left_action(cg, {(0, g): one}, q).items())
        yield "tensor-surjectivity", lambda: f"trial{t},c={c}", _TensorForm(got), _TensorForm({(0, 0): c})

    return [
        _Loop("tensor-linearity", params, samples, linearity, (field,)),
        _Loop("tensor-surjectivity", params, samples, surjectivity, (field,)),
    ]


def twisted_tensor_check(m: int, q: int, samples: int, seed: int, field: FieldDescriptor = _Q_S) -> list[str]:
    return _run(_tensor_loops(m, q, samples, seed, field))


def check_tensor(seed: int, trials: int, *, order: int, inner: int, **_) -> list[str]:
    return _run(_tensor_loops(order, inner, trials, seed, _Q_S) + _tensor_loops(order, inner, trials, seed + 1, _F5_S))


def ordered_partitions(k: int) -> list[tuple[int, ...]]:
    """All compositions of k into positive parts, in lexicographic order;
    |P[k]| = 2^(k-1).

    Built by doubling: P[j] is (1,) before each composition of P[j-1], then
    P[j-1] again with its first part raised by one, both halves in order.
    The second half overwrites P[j-1] in place, so at most one list of the
    final size is alive.
    """
    if k < 1:
        raise ValueError("ordered partitions need k >= 1")
    out: list[tuple[int, ...]] = [(1,)]
    for _ in range(k - 1):
        head = [(1,) + pi for pi in out]
        for i, pi in enumerate(out):
            out[i] = (pi[0] + 1,) + pi[1:]
        head += out
        out = head
    return out


# the longest list the composition stream holds is ordered_partitions(_BLOCK)
_BLOCK = 10


def _composition_blocks(k: int) -> Iterator[list[tuple[int, ...]]]:
    """ordered_partitions(k) in its order, as consecutive lists of at most
    2^(_BLOCK-1) compositions, so that no list of all of them is held.

    Composition i of k reads the k - 1 bits of i, the highest first: bit 1
    joins two neighbouring units into one part and bit 0 cuts between them.
    Split i into its low b bits lo and the rest hi: composition
    hi * 2^b + lo of k glues composition hi of k - b to composition lo of
    b + 1.  The last unit of the first is the first unit of the second, so
    their meeting parts merge into one part, one less than their sum.
    """
    if k <= _BLOCK:
        yield ordered_partitions(k)
        return
    # b + 1 = _BLOCK, so each head gives one block
    tails = [(t[0] - 1, t[1:]) for t in ordered_partitions(_BLOCK)]
    for heads in _composition_blocks(k - _BLOCK + 1):
        for head in heads:
            stem, last = head[:-1], head[-1]
            yield [stem + (last + first,) + rest for first, rest in tails]


def _composition(k: int, i: int) -> tuple[int, ...]:
    """ordered_partitions(k)[i], read off the bits of i as in _composition_blocks."""
    parts = []
    part = 1
    for bit in range(k - 2, -1, -1):
        if i >> bit & 1:
            part += 1
        else:
            parts.append(part)
            part = 1
    parts.append(part)
    return tuple(parts)


def _factorials(k: int) -> list[int]:
    """[0!, 1!, ..., k!]."""
    fact = [1]
    for i in range(1, k + 1):
        fact.append(fact[-1] * i)
    return fact


def _signed_multinomial_sum(k: int, parts: Iterable[tuple[int, ...]]) -> int:
    """sum over pi in parts of (-1)^len(pi) * k!/(a_1!...a_r!), off one factorial table."""
    fact = _factorials(k)
    top = fact[k]
    total = 0
    for pi in parts:
        den = 1
        for a in pi:
            den *= fact[a]
        total += -(top // den) if len(pi) % 2 else top // den
    return total


def _multinomial_comparisons(k: int, field: FieldDescriptor, rng: random.Random, trials: int) -> Iterator[tuple]:
    """The comparisons of the multinomial lemma at k, as a trial yields them."""
    count = total = 0
    for block in _composition_blocks(k):
        count += len(block)
        total += _signed_multinomial_sum(k, block)
    yield "multinomial", lambda: f"k={k},count", count, 2 ** (k - 1)
    yield "multinomial", lambda: f"k={k},signed-sum", total, (-1) ** k
    if field.derivation_count != 1:
        raise ValueError("the operator identity check runs over a single derivation")
    for _ in range(trials):
        a = random_base_elem(rng, field)
        # the draw ordered_partitions(k)[i] without the list
        pi = _composition(k, rng.choice(range(2 ** (k - 1))))
        lhs = a
        for part in reversed(pi):
            lhs = hasse_derive((part,), lhs)
        rhs = hasse_derive((k,), a) * multinomial(pi)
        yield "multinomial", lambda: f"k={k},a={a},pi={pi}", lhs, rhs


def multinomial_identity_check(k: int, field: FieldDescriptor, rng: random.Random, trials: int) -> bool:
    """Signed multinomial sum over compositions of k equals (-1)^k.

    The sum runs over the compositions of k, streamed in blocks in the order
    of ``ordered_partitions(k)``, each composition's multinomial
    k!/(a_1!...a_r!) read off one factorial table per block.  Also
    cross-checks |P[k]| = 2^(k-1), counted over the same stream, and the
    operator identity D_pi = mu(pi) D_k on random elements of the field, with
    mu(pi) from ``fields.multinomial``.
    """
    return all(lhs == rhs for _, _, lhs, rhs in _multinomial_comparisons(k, field, rng, trials))


def check_multinomial(seed: int, trials: int, *, max_k: int, **_) -> list[str]:
    rng = random.Random(seed)

    def trial(t, field):
        return _multinomial_comparisons(t + 1, field, rng, trials=3)

    return _run([_Loop("multinomial", f"k<=({max_k})", max_k, trial)])


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
CHECK_NAMES = tuple(_SUITES)


def run_checks(
    names: Sequence[str], *, seed: int, trials: int, order: int, outer: int, inner: int, max_k: int
) -> tuple[bool, list[str]]:
    """Run the named suites; returns (all_passed, report_lines).

    Each suite's report ends at its own first FAIL; later suites still run.
    """
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
