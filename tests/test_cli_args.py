"""The CLI's argv reader against argparse, its oracle.

``cli._read_argv`` reads well-formed argv without building a parser.  On
every argv it accepts, argparse must read the same namespace and report no
leftover argument; every option token it accepts must be an exact long
option of the command, given once.  Any other argv is argparse's to read.
"""

import ast
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hsprolong import cli

DATA = Path(__file__).parent / "data"
PINNED_ARGV = [case["argv"] for name in ("cli_usage.json", "cli_routes.json")
               for case in json.loads((DATA / name).read_text(encoding="utf-8"))]
ROWS = {name: arguments for name, _, arguments, _ in cli.COMMANDS}


def argparse_reading(argv):
    """vars() of what the command's parser reads from argv, or None if it exits or leaves extras."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extras = cli.build_parser(argv[0]).parse_known_args(argv[1:])
        except SystemExit:
            return None
    return None if extras else vars(args)


def check_reader(reader, argv):
    """Assert that reader either refuses argv or reads it as argparse does."""
    args = reader(argv)
    if args is None:
        return False
    assert argv[0] in ROWS, argv
    options = [flag for flag, _ in ROWS[argv[0]] if flag.startswith("-")]
    option_tokens = [token for token in argv[1:] if token.startswith("-")]
    assert all(token in options for token in option_tokens), argv
    assert len(set(option_tokens)) == len(option_tokens), argv
    assert vars(args) == argparse_reading(argv), argv
    return True


def _planted_prefix_reader(argv):
    # reads the abbreviation --ord as --order
    return cli._read_argv(["--order" if token == "--ord" else token for token in argv])


def _planted_first_value_reader(argv):
    # keeps the first of two --order values
    if argv.count("--order") == 2:
        second = len(argv) - 1 - argv[::-1].index("--order")
        argv = argv[:second] + argv[second + 2:]
    return cli._read_argv(argv)


# Tokens from the rows of every command, so one command meets another's
# options, plus the shapes only argparse reads: abbreviations, --flag=value,
# help, "-", "--", negative numbers, empty and junk values.
OPTIONS = sorted({flag for arguments in ROWS.values() for flag, _ in arguments if flag.startswith("-")})
CHOICES = sorted({choice for arguments in ROWS.values() for _, row in arguments for choice in row.get("choices", ())})
TOKENS = sorted(
    set(OPTIONS)
    | {flag[:k] for flag in OPTIONS for k in range(3, len(flag))}
    | {f"{flag}=3" for flag in OPTIONS}
    | set(CHOICES)
    | {"-h", "--help", "-", "--", "-5", "-1", "0", "1", "3", "20", "21", "x", "", " ", "doc.txt",
       "x=s, y=1/s", "y = x^2 - s", "bogus", "--bogus"}
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(ROWS) + ["bogus", "-h", "--order"]), st.lists(st.sampled_from(TOKENS), max_size=9))
@example("prolong", ["--ord", "1", "doc.txt"])
@example("prolong", ["--order", "1", "--order", "2", "doc.txt"])
@example("check", ["all", "--seed", "--outer"])
def test_reader_accepts_only_what_argparse_reads_alike(command, tokens):
    check_reader(cli._read_argv, [command, *tokens])


def _value_strategy(row):
    if "choices" in row:
        return st.sampled_from(row["choices"])
    if "type" in row:
        return st.integers(1, cli.MAX_MULTINOMIAL_K).map(str)
    return st.text(max_size=12).filter(lambda text: not text.startswith("-"))


@st.composite
def well_formed_argv(draw):
    """argv inside the reader's contract: exact options once each, in any order among the positionals."""
    command = draw(st.sampled_from(sorted(ROWS)))
    groups = []
    for flag, row in ROWS[command]:
        if not flag.startswith("-"):
            groups.append([draw(_value_strategy(row))])
        elif row.get("required") or draw(st.booleans()):
            groups.append([flag] if row.get("action") == "store_true" else [flag, draw(_value_strategy(row))])
    return [command] + [token for group in draw(st.permutations(groups)) for token in group]


@settings(max_examples=300, deadline=None)
@given(well_formed_argv())
def test_reader_accepts_every_well_formed_argv(argv):
    assert check_reader(cli._read_argv, argv), argv


@pytest.mark.parametrize("argv", PINNED_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_pinned_argv_is_refused_or_read_alike(argv):
    check_reader(cli._read_argv, argv)


def test_pins_hold_thirteen_usage_and_nine_route_cases():
    assert len(PINNED_ARGV) == 13 + 9


@pytest.mark.parametrize("reader", [_planted_prefix_reader, _planted_first_value_reader])
def test_planted_readers_fail_on_the_pinned_argv(reader):
    with pytest.raises(AssertionError):
        for argv in PINNED_ARGV:
            check_reader(reader, argv)


def test_well_formed_calls_import_neither_argparse_nor_json(tmp_path):
    witt = tmp_path / "witt.txt"
    witt.write_text("char 0; params s; derivations 1;\nvars x;\ngens x^2 - s;\n", encoding="utf-8")
    hyperbola = tmp_path / "hyp.txt"
    hyperbola.write_text("char 0; params s; derivations 1;\nvars x y;\ngens x*y - 1;\npoint x = s, y = 1/s;\n",
                         encoding="utf-8")
    calls = [
        ["prolong", "--order", "2", str(witt)],
        ["jet", "--order", "2", str(witt)],
        ["nabla", "--order", "2", str(hyperbola)],
        ["lift", "--mode", "jet", "--order", "1", "--map", "u = x*s", str(witt)],
        ["check", "multinomial", "--max", "3"],
    ]
    # each call in a fresh interpreter; the last stdout line is (exit code, modules loaded)
    script = ("import sys\nfrom hsprolong import cli\ncode = cli.main(sys.argv[1:])\n"
              "print((code, sorted({'argparse', 'json'} & set(sys.modules))))")
    for argv in calls:
        r = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        assert ast.literal_eval(r.stdout.splitlines()[-1]) == (0, []), argv


def test_main_runs_the_command_function_the_module_holds_at_call_time(monkeypatch, capsys):
    # a wrapper put on cmd_* after import, such as a tracer's span, runs on both routes
    calls = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: calls.append(args.suite) or 0)
    assert cli.main(["check", "twist"]) == 0
    assert cli.main(["check", "twist", "--se", "1"]) == 0
    assert calls == ["twist", "twist"]
    assert capsys.readouterr().out == ""
