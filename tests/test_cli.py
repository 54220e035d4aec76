"""Command-line behavior: outputs, exit codes, determinism."""

import hashlib
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


@pytest.mark.parametrize(
    "argv",
    [
        ["prolong", "doc.txt"],
        ["jet", "doc.txt"],
        ["nabla", "doc.txt"],
        ["lift", "--map", "y = x", "doc.txt"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_order_names_the_flag(argv, capsys):
    from hsprolong import cli

    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--order", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --order: must be at least 0, got -1" in err


# Fixed documents whose presentation outputs are pinned by digest: any change
# to the expansion route must leave every byte of stdout as it is.
PINNED_DOCS = {
    "Q(s1,s2)": (
        "char 0; params s1 s2; derivations 2;\nvars x y;\n"
        "gens x*y - s1, (x - s2)*(s1*y + 2);\npoint x = s2, y = s1/s2;\n",
        "u = x^2 - s1*y, v = x*y/s2 + s1",
    ),
    "F5(s)": (
        "char 5; params s; derivations 1;\nvars x y;\n"
        "gens x*y - 1, (x - s)*(2*x + 3*s*y);\npoint x = s, y = 1/s;\n",
        "u = x^2*y - s, v = 3*x + y/(s + 1)",
    ),
}
PINNED_DIGESTS = {
    ("Q(s1,s2)", "prolong", 2): "f2161ca961fe6e28fab0f494ad1a37264c83d694927bc43257b9869f6448f42c",
    ("Q(s1,s2)", "prolong", 4): "95abd5443d74efa12106f5eda4dbfb9d3d004ca5245e635e78a25f6cc467b454",
    ("Q(s1,s2)", "jet", 2): "2949ab47a3c4ad77ef4b6262e0321b686152cbf6046a90ac202f5756a11e3e79",
    ("Q(s1,s2)", "jet", 4): "9bc4cf3bb6dd07aa79a5f38238267023bf7254aa3055ac455174e88efd4a35c5",
    ("Q(s1,s2)", "nabla", 2): "483f89a30acd6739cfc17349c865c70293fbf513856026fcfa61750b715f1783",
    ("Q(s1,s2)", "nabla", 4): "5b3cc5997a8ec2456d193435d9079044d7ad07dae494d44c4301ccc0b519cbdb",
    ("Q(s1,s2)", "lift", 2): "153c97558d18ff39523a74a7cbb2a8a5dfbcd97e9703081cae907381a07b0665",
    ("Q(s1,s2)", "lift", 4): "2a8010bcb0d87b79f8a2a50e01c9194056294238ba3b7ea9fb5665195d7bcb9c",
    ("F5(s)", "prolong", 2): "befd6b2a05153957fc493c9691f1dab161c6e83196fbbf7001cff4e987f377f4",
    ("F5(s)", "prolong", 4): "8a2bdce000f03bd8cb2abebeb89fd193c6de781bb2a7ae6712094686c923861a",
    ("F5(s)", "jet", 2): "84ce35464634b22c2bb7e23ffa8b655ef85ccb0c8d005c4770d08da8f22c6f41",
    ("F5(s)", "jet", 4): "16d70d0691d59b3c6eb5c179ab5cf74e70eec442e8c99f5b64e0e9693a12acc3",
    ("F5(s)", "nabla", 2): "29ee82e9f77d2db06185b72d2b53310e9caee532bc7d707c722a972eeaa93790",
    ("F5(s)", "nabla", 4): "80d9e623ff8d83b1d83cf5fab1e740954bed8a92fc50e3ab29a305da19a84983",
    ("F5(s)", "lift", 2): "80ec88e969e0a499e3ed5545d3734af1ea5858721fbdad36ba114cd44a44d32f",
    ("F5(s)", "lift", 4): "9b243f0f2b2cf6f7c646f9e8359e419e6345fe438c33451c834bcc34546eb95f",
}


@pytest.mark.parametrize("field, command, order", sorted(PINNED_DIGESTS))
def test_presentation_output_is_pinned(field, command, order, tmp_path, capsys):
    from hsprolong import cli

    text, lift_map = PINNED_DOCS[field]
    path = tmp_path / "doc.txt"
    path.write_text(text, encoding="utf-8")
    extra = ["--mode", "jet", "--map", lift_map] if command == "lift" else []
    assert cli.main([command, *extra, "--order", str(order), str(path)]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_DIGESTS[field, command, order]
