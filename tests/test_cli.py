"""Command-line behavior: outputs, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

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
        # 2^(k-1) ordered partitions per k: a bound, not a vacuous run
        pytest.param(["check", "multinomial", "--max", "21"], "argument --max: must be at most 20, got 21",
                     id="max-above-20"),
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


# The --json output of the same commands on the same documents; CI compares the
# installed console script with these lines too, under two hash seeds, so a
# table ordered by identity or hash that reached the output would move a digest.
PINNED_JSON_DIGESTS = {
    ("F5(s)", "lift", 2): "3650e525448dc9258ef2e4a8dc8b38ca823b94c199759cb653ec5c1eb5bcb693",
    ("F5(s)", "lift", 4): "73b3f1a42c38af1297049b08eef9e9d103d68e8b0377a0d7fbac34cdc63a9e7b",
    ("F5(s)", "nabla", 2): "b930b45efe82c3dbc1f244c076e1211b2aa3e689014d0574d2876eb5d431c169",
    ("F5(s)", "nabla", 4): "e362f19d4296751f56a5c0c82fd694fe37a3df12c8712c6fb886991e9f8743bf",
    ("F5(s)", "prolong", 2): "54ecacecb92e27af66982839a787f486b7b209a8ba66698af0a9aafddb2ca77d",
    ("F5(s)", "prolong", 4): "a2df127c9e852c921f5ceaf287e147924488d9946557bec642c11553f501a8dd",
    ("Q(s1,s2)", "lift", 2): "1e4fe57dd44251fafd93f47971005813e7ac7add1368354df8779064acf4c684",
    ("Q(s1,s2)", "lift", 4): "94263c5a89e28ee7746bc48530120c1a0f452200031f13f1a2207f92188c2475",
    ("Q(s1,s2)", "nabla", 2): "0a60e841167e0df496a497b944c6382435631d647bc72efa287f8f83757295e9",
    ("Q(s1,s2)", "nabla", 4): "5f478e10c9a4fa059b83617022788e4fd4dae9c418707b253e5acf6aa5339d28",
    ("Q(s1,s2)", "prolong", 2): "3a82c8dd79137b22aca08aea43b3c8752e4c1b302e6085a1f4674a4dd6c51643",
    ("Q(s1,s2)", "prolong", 4): "fe5288f0cc864766dca808f7d941492f8b31e2842bfa7f9bd789bfd4ea52699d",
}


def pinned_json_argv(field: str, command: str, order: int, path: str) -> list[str]:
    """The arguments of one JSON pin; lift runs in jet mode, as the text pins do."""
    extra = ["--mode", "jet", "--map", PINNED_DOCS[field][1]] if command == "lift" else []
    return [command, *extra, "--json", "--order", str(order), path]


@pytest.mark.parametrize("field, command, order", sorted(PINNED_JSON_DIGESTS))
def test_json_output_is_pinned(field, command, order, tmp_path, capsys):
    from hsprolong import cli

    path = tmp_path / "doc.txt"
    path.write_text(PINNED_DOCS[field][0], encoding="utf-8")
    assert cli.main(pinned_json_argv(field, command, order, str(path))) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_JSON_DIGESTS[field, command, order]


# Two derivations and point coordinates whose denominators are not monomials,
# so each mixed D_alpha of the point runs the quotient recursion across both
# families; CI compares the installed console script with these lines too.
RATIONAL_N2_DOC = (
    "char 0; params s1 s2; derivations 2;\nvars x y z;\n"
    "gens x*y - s1, (s1 + 2*s2)*z/(s1*s2 + 1) - (s2 + 1)/(s1*s2 + 1);\n"
    "point x = (s1*s2 + 1)/(s1 - s2 + 3), y = s1*(s1 - s2 + 3)/(s1*s2 + 1), z = (s2 + 1)/(s1 + 2*s2);\n"
)
RATIONAL_N2_SHA256 = {
    "prolong --order 5": "32fe23112db94f3fe97461999f439757bd540812453ec951e1bb7b57f15b5f12",
    "nabla --order 5": "7f9a7efc28d7e8a7d39c179abfe3ce1dc89cb9a5bdfaa42777ac8ea381826e26",
}


@pytest.mark.parametrize("command", sorted(RATIONAL_N2_SHA256))
def test_rational_n2_output_is_pinned(command, tmp_path, capsys):
    from hsprolong import cli

    path = tmp_path / "doc.txt"
    path.write_text(RATIONAL_N2_DOC, encoding="utf-8")
    assert cli.main([*command.split(), str(path)]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == RATIONAL_N2_SHA256[command]


# Symbols at large ranks: jet at order 10 and a two-image jet lift at order 6
# on the n = 2 document, and jet at order 6 and prolong at order 4 on a
# document with three derivations; and prolong at order 3 on a generator
# with three rational coefficients over three denominators, whose base
# coefficients take many-factor gcds; and prolong at order 6 and jet at order 3
# on a document over F5 whose coefficients are quotients of numbers, each of
# which enters the field as a residue (1/2 = 3, 1/3 = 2, 1/4 = 4, 1/7 = 3).
# CI replays them through the console script.
N3_DOC = (
    "char 0; params s1 s2 s3; derivations 3;\nvars x y z;\n"
    "gens x*y - s1/(s2*s3 + 1), (s1 + 2*s2)*z^2/(s1*s2 + s3) - x*(s3 + 1)/(s1 - s3 + 2);\n"
)
THREE_DEN_DOC = (
    "char 0; params s1 s2 s3; derivations 3;\nvars x y;\n"
    "gens x*y - (s1 + 2*s2)*s3^2/(s1*s2 + s3) + s1*(s3 + 1)/(s1 - s3 + 2) - s1^3*s2/(s2*s3 + 1);\n"
)
F5_QUOTIENT_DOC = "char 5; params s; derivations 1; vars x y; gens x*y/3 - (s + 1/2)/(s/4 - 2/3), 2*x/7 - s^6/(s + 4);\n"
PIN_DOCS = {"rational-n2": RATIONAL_N2_DOC, "n3": N3_DOC, "three-den": THREE_DEN_DOC, "f5-quotient": F5_QUOTIENT_DOC}
LARGE_RANK_SHA256 = {
    ("rational-n2", "jet --order 10"): "e31f343f437616b628b0e6290a699d6cdc71cdd1b3a3088712f338c789962623",
    ("rational-n2", "lift --mode jet --order 6 --map u=x^2-y,v=y^3+z"): "96c2fc43d46f2cdfdfa5d44a59d1bfd35cb6798be11684c4d76886413632a6a4",
    ("n3", "jet --order 6"): "1230010573dd630d849d1fb317d87d92e9241611c2599efe7e9e2590f0f71049",
    ("n3", "prolong --order 4"): "c9ab18466ff0074a844ab56ea2d3ae82bb5270023419c515af3a385e6e3fc9d9",
    ("three-den", "prolong --order 3"): "7c3e74b80d63fc8726d01a3d7b3cf589892ebb6ff616613d77f435b66435270b",
    ("f5-quotient", "prolong --order 6"): "60499912e6146e4cbd813292666abe11dde37c5da126ecef92287774351799c1",
    ("f5-quotient", "jet --order 3"): "f8d708ea9fa3316e1691ae2191d5d0b1973be8449ba38e431cc8bbbbc3a32492",
}


@pytest.mark.parametrize("doc, command", sorted(LARGE_RANK_SHA256))
def test_large_rank_output_is_pinned(doc, command, tmp_path, capsys):
    from hsprolong import cli

    path = tmp_path / "doc.txt"
    path.write_text(PIN_DOCS[doc], encoding="utf-8")
    assert cli.main([*command.split(), str(path)]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == LARGE_RANK_SHA256[doc, command]


@pytest.mark.parametrize("gen", ["x - s/5", "x - s/(10)"])
def test_a_divisor_that_is_zero_in_f5_is_an_input_error(gen, tmp_path, capsys):
    from hsprolong import cli

    path = tmp_path / "doc.txt"
    path.write_text(f"char 5; params s; derivations 1; vars x; gens {gen};\n", encoding="utf-8")
    assert cli.main(["prolong", "--order", "1", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "division by zero" in err


# Check reports that reach order-3 derivative tables, which `check all` does
# not; CI compares the installed console script with these lines too.
CHECK_ORDER_3_SEED_42_SHA256 = {
    "check phi-psi --outer 6 --inner 3": "0c408786bb8fb383d06a67c3f7f418a4e39da7b96fe72bfb59ab9c509f278804",
    "check theta --order 3 --inner 3": "09c2ec75bc876fa2a5e66dbbbd5432aeb3d33bf5d223d72d8a81a3ab79592611",
    "check twist --order 3": "c1f7e81337aaad75a738768182e58667b6d1054e8cc1e60647fa864302bd5e57",
    "check tensor --order 3 --inner 3": "dfd484c222b0e046d531a0f4cd0a7b645e176c2c5ddd140440c0f0a3fc7b25c7",
}


@pytest.mark.parametrize("command", sorted(CHECK_ORDER_3_SEED_42_SHA256))
def test_order_3_check_output_is_pinned(command, capsys):
    from hsprolong import cli

    assert cli.main([*command.split(), "--seed", "42"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == CHECK_ORDER_3_SEED_42_SHA256[command]


def test_directory_file_is_an_input_error(tmp_path, capsys):
    from hsprolong import cli

    assert cli.main(["prolong", "--order", "1", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot read") and "Traceback" not in err


def test_unreadable_file_is_an_input_error(tmp_path, monkeypatch, capsys):
    from hsprolong import cli

    binary = tmp_path / "doc.bin"
    binary.write_bytes(b"\xff\xfe char 0;")
    assert cli.main(["prolong", "--order", "1", str(binary)]) == 2
    assert capsys.readouterr().err.startswith("input error: cannot read")

    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    # the reader opens a document file with the builtin open
    monkeypatch.setattr(cli, "open", denied, raising=False)
    assert cli.main(["jet", "--order", "1", str(binary)]) == 2
    assert "Permission denied" in capsys.readouterr().err


WITT_BYTES = WITT.encode()
# (document bytes, exit code, stderr with the file's path as PATH): line ends
# read as universal newlines do, a BOM is text, and a byte that is not UTF-8
# names its offset in the file
DOCUMENT_BYTES = {
    "crlf": (WITT_BYTES.replace(b"\n", b"\r\n"), 0, ""),
    "cr": (WITT_BYTES.replace(b"\n", b"\r"), 0, ""),
    "mixed": (b"char 0; params s;\r\nderivations 1;\rvars x;\n\r\ngens x^2 -\r s;\r", 0, ""),
    "nel": ("char 0; params s; derivations 1;\u0085vars x; gens x^2 - s;\n".encode(), 0, ""),
    "bom": (b"\xef\xbb\xbf" + WITT_BYTES, 2, "input error: unexpected character '\\ufeff' (line 1, column 1)\n"),
    "invalid": (
        WITT_BYTES[:20] + b"\xff" + WITT_BYTES[20:],
        2,
        "input error: cannot read PATH: 'utf-8' codec can't decode byte 0xff in position 20: invalid start byte\n",
    ),
    "crlf-invalid": (
        b"char 0;\r\n\xc3(",
        2,
        "input error: cannot read PATH: 'utf-8' codec can't decode byte 0xc3 in position 9: invalid continuation byte\n",
    ),
    "crlf-error": (
        b"char 0; params s;\r\nderivations 1;\r\nvars x;\r\ngens x^2 - $;\r\n",
        2,
        "input error: unexpected character '$' (line 4, column 12)\n",
    ),
    "cr-error": (
        b"char 0; params s;\rderivations 1;\rvars x;\rgens x^2 - q;\r",
        2,
        "input error: undeclared identifier 'q' (line 4, column 12)\n",
    ),
}


@pytest.mark.parametrize("name", DOCUMENT_BYTES)
def test_document_bytes_read_as_text(name, tmp_path, capsys):
    from hsprolong import cli

    data, code, err = DOCUMENT_BYTES[name]
    path = tmp_path / name
    path.write_bytes(data)
    assert cli.main(["prolong", "--order", "1", str(path)]) == code
    out = capsys.readouterr()
    assert out.err.replace(str(path), "PATH") == err
    if code == 0:
        lf = tmp_path / "lf"
        lf.write_bytes(WITT_BYTES)
        assert cli.main(["prolong", "--order", "1", str(lf)]) == 0
        assert out.out == capsys.readouterr().out


def test_point_flag_names_the_missing_variable(hyperbola_file, capsys):
    from hsprolong import cli

    assert cli.main(["nabla", "--order", "1", "--point", "x=s", hyperbola_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: --point is missing 'y'")


def test_internal_error_exits_3(witt_file, monkeypatch, capsys):
    from hsprolong import cli

    def broken(*args, **kwargs):
        raise ValueError("planted fault")

    monkeypatch.setattr(cli, "prolong_presentation", broken)
    assert cli.main(["prolong", "--order", "1", witt_file]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ValueError: planted fault")
    assert "input error" not in err


def test_any_exception_in_a_command_is_an_internal_error():
    # an exception other than ValueError and ZeroDivisionError, in its own process
    code = (
        "import sys\n"
        "from hsprolong import cli\n"
        "def broken(*args, **kwargs):\n"
        "    raise AttributeError('planted fault')\n"
        "cli.run_checks = broken\n"
        "sys.exit(cli.main(['check', 'theta']))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert (r.returncode, r.stdout, r.stderr) == (3, "", "internal error: AttributeError: planted fault\n")


def test_keyboard_interrupt_is_not_an_internal_error(monkeypatch):
    from hsprolong import cli

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_checks", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["check", "theta"])


@pytest.mark.parametrize(
    "argv", [["check", "theta", "--trials", "10"], ["check", "theta", "--trials", "10", "--json"]], ids=["text", "json"]
)
def test_closed_stdout_exits_141_quietly(argv):
    # stdout is a pipe whose reader has already gone, as in `hsprolong ... | head -1`
    # once head has exited: 128 + SIGPIPE, no traceback and no second error at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(
            [sys.executable, "-m", "hsprolong", *argv], stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300
        )
    finally:
        os.close(write_end)
    assert (r.returncode, r.stderr) == (141, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lift", "--map", "u=x, =y"], "expected a name before '=', got ''"),
        (["lift", "--map", "1u v=x"], "expected a name before '=', got '1u v'"),
        (["lift", "--map", "point=x"], "expected a name before '=', got 'point'"),
        (["lift", "--map", "u=x, u=y"], "'u' is assigned twice"),
        (["nabla", "--point", "x=s, y=1/s, x=2"], "'x' is assigned twice"),
    ],
    ids=["empty", "not-an-identifier", "keyword", "repeated-map", "repeated-point"],
)
def test_bad_assignment_names_exit_2(argv, message, hyperbola_file, capsys):
    from hsprolong import cli

    assert cli.main([*argv, "--order", "1", hyperbola_file]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: {message}")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nabla", "--point", "x=s, y=1/s +"], "expected a value, found 'end of input' (line 1, column 13)"),
        (["nabla", "--point", "x=s, z=1"], "undeclared variable 'z' in --point (line 1, column 6)"),
        (["lift", "--map", "u=x, v=y +"], "expected a value, found 'end of input' (line 1, column 11)"),
    ],
    ids=["point-expression", "point-undeclared", "map-expression"],
)
def test_flag_errors_count_columns_in_the_flag_value(argv, message, hyperbola_file, capsys):
    from hsprolong import cli

    assert cli.main([*argv, "--order", "1", hyperbola_file]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_empty_point_flag_is_an_input_error(hyperbola_file, capsys):
    # an empty --point is a bad value, not an absent flag: no fallback to the point block
    from hsprolong import cli

    for value in ("", " "):
        assert cli.main(["nabla", "--order", "1", "--point", value, hyperbola_file]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: expected a name before '=', got ''")
        assert captured.out == ""


# Help, usage and argument errors as the parser printed them when it built every
# subcommand on every call; argparse wraps them at $COLUMNS, pinned here to 80.
USAGE_CASES = json.loads((Path(__file__).parent / "data" / "cli_usage.json").read_text(encoding="utf-8"))


# Argument shapes that a named command's own parser handles, captured when a
# call built the top-level parser and that command's subparser: arguments the
# command does not know, a missing --map, an abbreviated and a repeated option,
# help before the command, a missing suite, and --point taking FILE as its
# value.  No FILE named here exists in the working directory.
ROUTE_CASES = json.loads((Path(__file__).parent / "data" / "cli_routes.json").read_text(encoding="utf-8"))


def run_main(argv, via_sys_argv, monkeypatch, capsys) -> dict:
    """argv, exit code, stdout and stderr of one cli.main call, with COLUMNS=80."""
    from hsprolong import cli

    monkeypatch.setenv("COLUMNS", "80")
    if via_sys_argv:
        monkeypatch.setattr(sys, "argv", ["hsprolong", *argv])
    try:
        code = cli.main(None if via_sys_argv else list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return {"argv": argv, "code": code, "stdout": captured.out, "stderr": captured.err}


@pytest.mark.parametrize("via_sys_argv", [False, True], ids=["argv", "sys.argv"])
@pytest.mark.parametrize("case", USAGE_CASES, ids=lambda case: " ".join(case["argv"]) or "no-arguments")
def test_usage_and_argument_errors_are_pinned(case, via_sys_argv, monkeypatch, capsys):
    assert run_main(case["argv"], via_sys_argv, monkeypatch, capsys) == case


@pytest.mark.parametrize("via_sys_argv", [False, True], ids=["argv", "sys.argv"])
@pytest.mark.parametrize("case", ROUTE_CASES, ids=lambda case: " ".join(case["argv"]))
def test_argument_routes_are_pinned(case, via_sys_argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_main(case["argv"], via_sys_argv, monkeypatch, capsys) == case


def test_main_builds_only_the_named_subparser(witt_file, hyperbola_file, monkeypatch, capsys):
    import argparse

    from hsprolong import cli

    built, parsed = [], []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counting(method):
        def parse(self, *args, **kwargs):
            parsed.append(method.__name__)
            return method(self, *args, **kwargs)

        return parse

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(argparse.ArgumentParser, name, counting(getattr(argparse.ArgumentParser, name)))
    # well-formed calls: the reader's namespace, and no parser built or run
    outputs = []
    for argv in (
        ["prolong", "--order", "1", witt_file],
        ["jet", witt_file, "--order", "2", "--json"],
        ["nabla", "--order", "1", hyperbola_file],
        ["lift", "--mode", "jet", "--order", "1", "--map", "u = x*s", witt_file],
        ["check", "multinomial", "--max", "3", "--seed", "1"],
    ):
        assert cli.main(argv) == 0
        assert (built, parsed) == ([], []), argv
        outputs.append(capsys.readouterr().out)
    for _ in range(2):
        # an abbreviated option goes to argparse, and each such call builds
        # its own parser: nothing is cached across calls
        built.clear()
        assert cli.main(["prolong", "--ord", "1", witt_file]) == 0
        assert built == ["hsprolong prolong"]
        assert capsys.readouterr().out == outputs[0]
    built.clear()
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert len(built) == 1 + len(cli.COMMANDS)
    capsys.readouterr()


# -- numbers past the digit bound, and large prime characteristics ---------------

DIGITS = "7" * 5000
Q_HEAD = "char 0; params s; derivations 1; vars x y; "
P19 = "char 1000000000000000003; params s; derivations 1; vars x y; gens x*y - 1; point x = s, y = 1/s;"


@pytest.mark.parametrize(
    "document, argv, at, message",
    [
        (Q_HEAD + f"gens {DIGITS}*x - s;", [], DIGITS, "number has 5000 digits, more than 4300"),
        (f"char {DIGITS}; params s; derivations 1; vars x; gens x - s;", [], DIGITS,
         "number has 5000 digits, more than 4300"),
        (f"char 0; params s; derivations {DIGITS}; vars x; gens x - s;", [], DIGITS,
         "number has 5000 digits, more than 4300"),
        (Q_HEAD + f"gens x^{DIGITS} - s;", [], DIGITS, "number has 5000 digits, more than 4300"),
        (Q_HEAD + "gens x - 2^20000;", [], "2^", "power has more than 4300 digits"),
        (Q_HEAD + "gens x - 7^100000000;", [], "7^", "power has more than 4300 digits"),
        (Q_HEAD + "gens x*y - 1;", ["--point", f"x = {DIGITS}, y = 1"], DIGITS,
         "number has 5000 digits, more than 4300"),
        (Q_HEAD + "gens x*y - 1;", ["--map", f"u = {DIGITS}*x"], DIGITS, "number has 5000 digits, more than 4300"),
        ("char 3317044064679887385961981; params s; derivations 1; vars x; gens x - s;", [], "char",
         "characteristic must be below 3317044064679887385961981"),
    ],
    ids=["coefficient", "char", "derivations", "exponent", "power", "power-of-a-huge-exponent", "point-flag",
         "map-flag", "characteristic-bound"],
)
def test_large_numbers_are_input_errors_at_their_token(document, argv, at, message, tmp_path, capsys):
    # not an internal error from int-string conversion, and no hang on a huge power
    from hsprolong import cli

    path = tmp_path / "doc.txt"
    path.write_text(document, encoding="utf-8")
    command = "lift" if "--map" in argv else "nabla" if "--point" in argv else "prolong"
    where = argv[1] if argv else document
    start = time.perf_counter()
    assert cli.main([command, "--order", "1", *argv, str(path)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == f"input error: {message} (line 1, column {where.index(at) + 1})\n"
    assert captured.out == ""


def test_a_power_of_fewer_than_4300_digits_still_parses(tmp_path, capsys):
    from hsprolong import cli

    path = tmp_path / "doc.txt"
    path.write_text(Q_HEAD + "gens x - 2^14000;", encoding="utf-8")
    assert cli.main(["prolong", "--order", "1", str(path)]) == 0
    assert f"generator x - {2**14000}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("command", ["prolong", "nabla", "jet"])
def test_a_19_digit_prime_characteristic_runs(command, tmp_path, capsys):
    # primality by Miller-Rabin: trial division up to the square root would make 5*10^8 divisions
    from hsprolong import cli

    path = tmp_path / "doc.txt"
    path.write_text(P19, encoding="utf-8")
    start = time.perf_counter()
    assert cli.main([command, "--order", "2", str(path)]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == ""


# -- the interpreter's int-string limit decides nothing --------------------------

NINES = "9" * 4300
NINES_DOC = f"char 0; params s; derivations 1; vars x; gens x - {NINES}*s^2;\n"
SEVENS = "7" * 2000
SEVENS_DOC = f"char 0; params s; derivations 1; vars x; gens {SEVENS}*x - s;\n"


def test_an_output_number_past_4300_digits_is_written(tmp_path):
    # the derivative 2*N = 2*10^4300 - 2 of the 4300-digit N has 4301 digits
    path = tmp_path / "doc.txt"
    path.write_text(NINES_DOC, encoding="utf-8")
    r = run_cli("prolong", "--order", "1", str(path))
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.splitlines()[3:] == [f"generator x - {NINES}*s^2", f"generator d1x - 1{NINES[1:]}8*s"]


def test_a_lower_interpreter_limit_changes_no_output(tmp_path):
    # the digest of this output at the parent commit, read with the default limit
    path = tmp_path / "doc.txt"
    path.write_text(SEVENS_DOC, encoding="utf-8")
    r = subprocess.run(
        [sys.executable, "-m", "hsprolong", "prolong", "--order", "1", str(path)],
        capture_output=True, env=dict(os.environ, PYTHONINTMAXSTRDIGITS="1000"), timeout=300,
    )
    assert (r.returncode, r.stderr) == (0, b"")
    assert hashlib.sha256(r.stdout).hexdigest() == "c7e6c2b4a66cecb09720b475b65409ba174198a7cb2cea45a53d213273a7804f"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="the interpreter has no int-string limit")
def test_main_restores_the_int_string_limit(tmp_path, capsys):
    from hsprolong import cli

    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text(SEVENS_DOC, encoding="utf-8")
    bad.write_text(SEVENS_DOC.replace("- s", "- w"), encoding="utf-8")
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(1000)
        assert cli.main(["prolong", "--order", "1", str(good)]) == 0
        assert sys.get_int_max_str_digits() == 1000
        assert cli.main(["prolong", "--order", "1", str(bad)]) == 2
        assert sys.get_int_max_str_digits() == 1000
    finally:
        sys.set_int_max_str_digits(old)
    assert capsys.readouterr().err == f"input error: undeclared identifier 'w' (line 1, column {SEVENS_DOC.index('- s') + 3})\n"


if __name__ == "__main__":
    # writes the document of RATIONAL_N2_SHA256 to the path given; with a
    # directory as well, writes N3_DOC, THREE_DEN_DOC and F5_QUOTIENT_DOC into
    # it as n3-doc.txt, three-den-doc.txt and f5-quotient-doc.txt, and each
    # PINNED_DOCS document, and prints one line per JSON pin: the digest, then
    # the arguments, separated by tabs
    Path(sys.argv[1]).write_text(RATIONAL_N2_DOC, encoding="utf-8")
    if len(sys.argv) > 2:
        for name in ("n3", "three-den", "f5-quotient"):
            (Path(sys.argv[2]) / f"{name}-doc.txt").write_text(PIN_DOCS[name], encoding="utf-8")
        docs = {}
        for k, (field, (text, _)) in enumerate(sorted(PINNED_DOCS.items())):
            docs[field] = Path(sys.argv[2]) / f"pinned-doc-{k}.txt"
            docs[field].write_text(text, encoding="utf-8")
        for key, digest in sorted(PINNED_JSON_DIGESTS.items()):
            print("\t".join([digest, *pinned_json_argv(*key, str(docs[key[0]]))]))
