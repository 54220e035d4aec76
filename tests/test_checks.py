"""The one trial loop behind every suite of the `check` command.

Each suite is run with a defect planted at a name that ``checks`` calls.  The
suite must fail, and its report must end at the first FAIL: that line is the
last one, and no OK line of a later sub-check or a later field follows it.
"""

import pytest

from hsprolong import checks
from hsprolong.checks import CHECK_NAMES, check_theta_relations, run_checks
from hsprolong.diffpoly import DiffPoly
from hsprolong.fields import FieldDescriptor, multinomial
from hsprolong.presentations import VarietyPresentation

ARGS = dict(seed=42, trials=100, order=2, outer=4, inner=2, max_k=12)


def _hasse_doubling_order_one(real):
    return lambda alpha, a: real(alpha, a) * 2 if sum(alpha) == 1 else real(alpha, a)


# suite -> (name in checks, planted version of it, label of the expected FAIL)
PLANTED = {
    "oracle": ("taylor_oracle", lambda real: lambda alpha, f, mode: real(alpha, f, mode) + DiffPoly.const(f.field, 1),
               "oracle"),
    "twist": ("twist_psi", lambda real: lambda c: c, "twist"),
    "iterative": ("hasse_derive", _hasse_doubling_order_one, "iterative"),
    "leibniz": ("hasse_derive", _hasse_doubling_order_one, "leibniz"),
    "theta": ("theta", lambda real: lambda p: p, "theta"),
    "phi-psi": ("psi", lambda real: lambda p, bound: real(p, bound).scale(2), "phi-psi-sweep"),
    "tensor": ("tensor_right_action", lambda real: lambda c, v, q: {k: b * 2 for k, b in real(c, v, q).items()},
               "tensor-linearity"),
    "multinomial": ("multinomial", lambda real: lambda pi: real(pi) + 1, "multinomial"),
}


def test_every_suite_has_a_planted_defect():
    assert set(PLANTED) == set(CHECK_NAMES)


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_suite_passes_unplanted(name):
    ok, lines = run_checks([name], **ARGS)
    assert ok and lines and all(line.startswith(f"OK {name}") for line in lines)


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_planted_defect_ends_the_report_at_its_fail(name, monkeypatch):
    attr, plant, label = PLANTED[name]
    monkeypatch.setattr(checks, attr, plant(getattr(checks, attr)))
    ok, lines = run_checks([name], **ARGS)
    assert not ok
    assert [line for line in lines if line.startswith("FAIL")] == [lines[-1]]
    assert lines[-1].startswith(f"FAIL {label} at=")
    assert " lhs=" in lines[-1] and " rhs=" in lines[-1]


def test_later_suites_still_run_after_a_fail(monkeypatch):
    monkeypatch.setattr(checks, "theta", lambda p: p)
    ok, lines = run_checks(["theta", "multinomial"], **ARGS)
    assert not ok
    assert lines[0].startswith("FAIL theta at=(variety0,")
    assert lines[1].startswith("OK multinomial ")


def test_theta_witness_prefix(monkeypatch):
    field = FieldDescriptor(0, ("s",), 1)
    x = DiffPoly.variable(field, 0)
    variety = VarietyPresentation(field, 1, [x * x - DiffPoly.const(field, 2)])
    assert check_theta_relations(1, 1, variety) == ["OK theta params=m=1,q=1,gens=1 trials=4"]
    monkeypatch.setattr(checks, "theta", lambda p: p)
    [line] = check_theta_relations(1, 1, variety)
    assert line.startswith("FAIL theta at=(i=0,j=0,gen=0) lhs=")


def _plant_d_table_zero_from_order_three(monkeypatch):
    # the layered base derivatives D_k(c) read 0 for every k >= 3
    from hsprolong import layered
    from hsprolong.basefield import BaseElem

    real = layered._d_table
    monkeypatch.setattr(
        layered, "_d_table", lambda l, c: [d if k < 3 else BaseElem.zero(c.field) for k, d in enumerate(real(l, c))]
    )


def test_tensor_suite_kills_the_order_three_d_table_mutant(monkeypatch, capsys):
    # theta and the phi-psi claims read _d_table on both sides; only the
    # tensor suite's series right action sees this mutant
    from hsprolong import cli

    _plant_d_table_zero_from_order_three(monkeypatch)
    assert cli.main(["check", "tensor", "--order", "3", "--inner", "3", "--seed", "42"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL tensor-"), fails


def test_tensor_fail_line_writes_canonical_normal_forms(monkeypatch, capsys):
    from hsprolong import cli

    _plant_d_table_zero_from_order_three(monkeypatch)
    assert cli.main(["check", "tensor", "--order", "3", "--inner", "3", "--seed", "42"]) == 1
    [line] = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert "BaseElem(" not in line and "{" not in line, line
    assert line.startswith("FAIL tensor-associative at=trial1 lhs=32*s^6*u^2 + (10*s^6 + 8*s^4)*t^3 + ")


def test_tensor_normal_form_text_does_not_depend_on_insertion_order():
    from hsprolong.basefield import BaseElem

    field = FieldDescriptor(0, ("s",), 1)
    s = BaseElem.param(field, "s")
    terms = [((0, 0), BaseElem.one(field)), ((2, 1), -s / (s + BaseElem.one(field))), ((0, 1), s * 5)]
    a, b = checks._TensorForm(terms), checks._TensorForm(reversed(terms))
    assert a == b == dict(terms)
    assert str(a) == str(b) == "1 + 5*s*u - s/(s + 1)*t^2*u"


def test_loop_rotates_fields_and_stops_at_the_first_failure():
    seen = []

    def unwritten():
        pytest.fail("wrote the witness of a passing comparison")

    def passing(t, field):
        yield "demo-a", unwritten, t, t

    def trial(t, field):
        seen.append((t, field))
        yield "demo-b", unwritten, 0, 0
        if t == 4:
            yield "demo-b", lambda: f"trial{t}", 1, 2
            yield "demo-b", unwritten, pytest.fail("computed a comparison after a FAIL"), 0

    fields = ("A", "B", "C")
    lines = checks._run([
        checks._Loop("demo-a", "p=1", 3, passing),
        checks._Loop("demo-b", "p=2", 10, trial, fields),
        checks._Loop("demo-c", "p=3", 3, lambda t, field: pytest.fail("ran after a FAIL")),
    ])
    assert lines == ["OK demo-a params=p=1 trials=3", "FAIL demo-b at=trial4 lhs=1 rhs=2"]
    assert seen == [(t, fields[t % 3]) for t in range(5)]


def test_layered_holds_only_the_maps():
    from hsprolong import layered

    names = vars(layered)
    assert "random" not in names and not any(name.startswith("random_") for name in names)
    assert not any(name.startswith("check") or name.endswith("_check") for name in names)
    assert "report_passed" not in names and "ordered_partitions" not in names


def _plant_doubled_order_two(monkeypatch):
    # doubles the |alpha| = 2 values of the D_alpha recursion on non-polynomial elements
    from hsprolong import basefield

    real = basefield._hasse_values

    def planted(a, wanted):
        out = real(a, wanted)
        if a.den.is_const():
            return out
        return {alpha: d * 2 if sum(alpha) == 2 else d for alpha, d in out.items()}

    monkeypatch.setattr(basefield, "_hasse_values", planted)


def test_multinomial_reads_the_table_that_prolong_runs(monkeypatch, capsys):
    # the D_alpha routine behind prolong, nabla and the layered maps: a defect
    # there must fail the suite that checks the multinomial lemma
    from hsprolong import cli

    _plant_doubled_order_two(monkeypatch)
    assert cli.main(["check", "multinomial", "--seed", "42"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL multinomial at=") for line in lines), lines


def test_multinomial_fail_line_names_the_operator_comparison(monkeypatch, capsys):
    # the signed sum holds here; the FAIL line carries the element, the
    # composition and both rendered derivatives D_pi(a) and mu(pi)*D_k(a)
    from hsprolong import cli

    _plant_doubled_order_two(monkeypatch)
    assert cli.main(["check", "multinomial", "--seed", "42"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL multinomial at=k=4,a=-3/s,pi=(1, 2, 1) lhs=-72/s^5 rhs=-36/s^5"]


def test_multinomial_fail_line_names_the_composition_count(monkeypatch):
    real = checks.ordered_partitions
    monkeypatch.setattr(checks, "ordered_partitions", lambda k: real(k)[:-1] if k >= 3 else real(k))
    ok, lines = run_checks(["multinomial"], **ARGS)
    assert not ok
    assert lines[-1] == "FAIL multinomial at=k=3,count lhs=3 rhs=4"


@pytest.mark.parametrize("k", range(1, 15))
def test_signed_sum_matches_the_multinomial_reference(k):
    parts = checks.ordered_partitions(k)
    reference = sum((-1) ** len(pi) * multinomial(pi) for pi in parts)
    assert checks._signed_multinomial_sum(k, parts) == reference == (-1) ** k


@pytest.mark.parametrize("entry", range(1, 13))
def test_one_wrong_factorial_fails_the_suite(entry, monkeypatch, capsys):
    from hsprolong import cli

    real = checks._factorials

    def planted(k):
        fact = real(k)
        if entry <= k:
            fact[entry] += 1
        return fact

    monkeypatch.setattr(checks, "_factorials", planted)
    assert cli.main(["check", "multinomial", "--seed", "42"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL multinomial at=k=")
    assert ",signed-sum lhs=" in fails[0]


def test_sweep_fail_line_carries_the_compared_polynomials(monkeypatch):
    # the round-trip value and the generator, rendered, not two fixed words
    real = checks.psi
    monkeypatch.setattr(checks, "psi", lambda p, bound: real(p, bound).scale(2))
    ok, lines = run_checks(["phi-psi"], **ARGS)
    assert not ok
    assert lines[-1] == "FAIL phi-psi-sweep at=(i=0,j=0,dir=psi.phi) lhs=2*d0del0x0 rhs=d0del0x0"


def _compositions_by_recursion(k):
    """The compositions of k, first part smallest first, by one call per tree node."""
    out = []

    def rec(remaining, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for first in range(1, remaining + 1):
            rec(remaining - first, prefix + (first,))

    rec(k, ())
    return out


@pytest.mark.parametrize("k", range(1, 15))
def test_ordered_partitions_match_the_recursive_reference(k):
    # the same list in the same order, so every rng.choice draw picks the same composition
    parts = checks.ordered_partitions(k)
    assert type(parts) is list
    assert parts == _compositions_by_recursion(k)


@pytest.mark.parametrize("k", range(1, 11))
def test_unranking_reads_the_same_composition_as_the_list(k):
    parts = checks.ordered_partitions(k)
    assert [checks._composition(k, i) for i in range(2 ** (k - 1))] == parts


@pytest.mark.parametrize("seed", range(10))
def test_a_drawn_index_gives_the_composition_a_drawn_element_gave(seed):
    # rng.choice makes one draw below the length for a list and for a range alike
    import random

    k = 9
    assert random.Random(seed).choice(checks.ordered_partitions(k)) == checks._composition(
        k, random.Random(seed).choice(range(2 ** (k - 1)))
    )


@pytest.mark.parametrize("block", [2, 3, 10])
@pytest.mark.parametrize("k", range(1, 13))
def test_composition_blocks_stream_the_list_in_order(k, block, monkeypatch):
    monkeypatch.setattr(checks, "_BLOCK", block)
    blocks = list(checks._composition_blocks(k))
    assert all(len(b) <= 2 ** (block - 1) for b in blocks)
    assert [pi for b in blocks for pi in b] == _compositions_by_recursion(k)


def test_multinomial_suite_holds_no_list_of_all_compositions():
    # ordered_partitions(18) alone holds 2^17 tuples, about 17 MB
    import tracemalloc

    tracemalloc.start()
    try:
        lines = checks.check_multinomial(seed=1, trials=100, max_k=18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lines == ["OK multinomial params=k<=(18) trials=18"]
    assert peak < 4_000_000, peak


def test_symbol_suites_kill_a_hasse_table_that_drops_orders_from_two(monkeypatch, capsys):
    # derive_upto, the all-orders route behind prolong, jet and lift, reads its
    # base derivatives from hasse_table; apply_d reads the box below alpha
    from hsprolong import cli, diffpoly

    real = diffpoly.hasse_table
    monkeypatch.setattr(diffpoly, "hasse_table", lambda a, m: {g: d for g, d in real(a, m).items() if sum(g) < 2})
    assert cli.main(["check", "all", "--seed", "42"]) == 1
    fails = [line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == ["iterative-symbols", "witness"]


@pytest.mark.parametrize(
    "argv, ok_lines",
    [
        (["twist", "--order", "5"], ["OK twist params=m<=5,n<=2 trials=100"]),
        (["theta", "--order", "5", "--inner", "5"], ["OK theta params=m=5,q=5,varieties=10 trials=360"]),
        (["tensor", "--order", "5", "--inner", "5"],
         ["OK tensor-linearity params=m=5,q=5 trials=100", "OK tensor-surjectivity params=m=5,q=5 trials=100"] * 2),
    ],
    ids=["twist", "theta", "tensor"],
)
def test_suites_run_the_orders_they_are_given(argv, ok_lines, capsys):
    # order 5 is p for the F5 rotation of twist and tensor: the regime where
    # Hasse derivatives differ from D^k/k!
    from hsprolong import cli

    assert cli.main(["check", *argv, "--seed", "42"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == [*ok_lines, "RESULT: pass"]
