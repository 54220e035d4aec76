"""Command-line behavior: outputs, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

WITT = "char 0; params s; derivations 1;\nvars x;\ngens x^2 - s;\n"
HYPERBOLA = "char 0; params s; derivations 1;\nvars x y;\ngens x*y - 1;\npoint x = s, y = 1/s;\n"


def run_cli(*args, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "hsprolong", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
        timeout=300,
    )


@pytest.fixture()
def witt_file(tmp_path):
    path = tmp_path / "witt.txt"
    path.write_text(WITT, encoding="utf-8")
    return str(path)


@pytest.fixture()
def hyperbola_file(tmp_path):
    path = tmp_path / "hyp.txt"
    path.write_text(HYPERBOLA, encoding="utf-8")
    return str(path)


def test_prolong_output(witt_file):
    r = run_cli("prolong", "--order", "1", witt_file)
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "P_m mode=prolong vars=1 derivations=1 order=1",
        "symbol x",
        "symbol d1x",
        "generator x^2 - s",
        "generator 2*x*d1x - 1",
    ]


def test_jet_alias(witt_file):
    r = run_cli("jet", "--order", "1", witt_file)
    assert r.returncode == 0
    assert "generator 2*x*d1x" in r.stdout
    assert "2*x*d1x - 1" not in r.stdout


def test_stdin_input():
    r = run_cli("prolong", "--order", "0", "-", stdin_text=WITT)
    assert r.returncode == 0
    assert "generator x^2 - s" in r.stdout


def test_prolong_json(witt_file):
    r = run_cli("prolong", "--order", "1", "--json", witt_file)
    payload = json.loads(r.stdout)
    assert payload["generators"] == ["x^2 - s", "2*x*d1x - 1"]
    assert payload["symbols"] == ["x", "d1x"]


def test_nabla_with_flag_point(hyperbola_file):
    r = run_cli("nabla", "--order", "2", "--point", "x=s, y=1/s", hyperbola_file)
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert "d1y = -1/s^2" in lines
    assert "d2y = 1/s^3" in lines
    assert lines[-1] == "ON-VARIETY: yes"


def test_nabla_uses_document_point(hyperbola_file):
    r = run_cli("nabla", "--order", "1", hyperbola_file)
    assert r.returncode == 0
    assert "ON-VARIETY: yes" in r.stdout


def test_nabla_off_variety_exits_2(hyperbola_file):
    r = run_cli("nabla", "--order", "1", "--point", "x=s, y=s", hyperbola_file)
    assert r.returncode == 2
    assert "ON-VARIETY: no" in r.stderr


def test_lift(witt_file):
    r = run_cli("lift", "--order", "1", "--map", "y = x^2 - s", witt_file)
    assert r.returncode == 0
    assert "d1y -> 2*x*d1x - 1" in r.stdout


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("char 0; params s; derivations 1; vars x; gens 1/x;", encoding="utf-8")
    r = run_cli("prolong", "--order", "1", str(bad))
    assert r.returncode == 2
    assert "denominator" in r.stderr


def test_check_single_suite():
    r = run_cli("check", "multinomial", "--seed", "7")
    assert r.returncode == 0
    assert r.stdout.startswith("check suite=multinomial seed=7")
    assert "RESULT: pass" in r.stdout


def test_check_seed_in_header_and_deterministic():
    r1 = run_cli("check", "twist", "--seed", "5", "--trials", "10")
    r2 = run_cli("check", "twist", "--seed", "5", "--trials", "10")
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert "seed=5" in r1.stdout


def test_check_json():
    r = run_cli("check", "multinomial", "--json", "--seed", "1")
    payload = json.loads(r.stdout)
    assert payload["passed"] is True
    assert payload["seed"] == 1


def test_check_failure_exits_1(monkeypatch, capsys):
    from hsprolong import cli

    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: (False, ["FAIL demo at=x lhs=0 rhs=1"]))
    rc = cli.main(["check", "oracle", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "RESULT: fail" in out


def test_missing_file_exits_2():
    r = run_cli("prolong", "--order", "1", "/nonexistent/path.txt")
    assert r.returncode == 2


def test_negative_order_exits_2(witt_file):
    r = run_cli("prolong", "--order", "-1", witt_file)
    assert r.returncode == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "twist", "--trials", "0"], "--trials"),
        (["check", "theta", "--trials", "-5"], "--trials"),
        (["check", "multinomial", "--max", "0"], "--max"),
        (["check", "phi-psi", "--outer", "1", "--inner", "3"], "--inner"),
    ],
)
def test_vacuous_check_arguments_exit_2(argv, flag, capsys):
    from hsprolong import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert "RESULT" not in captured.out
