"""Command-line front end.

Commands construct prolongation/jet presentations, evaluate the nabla
section, lift morphisms, and run the verification suites.  Output is
deterministic: identical inputs and seeds produce byte-identical text.
Exit codes: 0 success / all checks pass, 1 check failure, 2 input error
(bad arguments, an unreadable FILE, a document or assignment that does not
parse), 3 internal error (any other exception: a fault of the program, not
of the input), 141 stdout closed before the output was written (128 +
SIGPIPE, as a shell reports a command that a closed pipe ended, as in
``hsprolong check all | head -1``).

COMMANDS is the one table of commands, and each command's arguments are
declared there once, as rows that build_parser passes to add_argument.
main first reads argv with _read_argv, which builds no parser and accepts
only well-formed argv: argv[0] names a command, and every other token is an
exact long option of that command, given at most once, or a token that does
not start with "-".  An option that takes a value is followed by such a
token, and the value passes the option's type and choices.  The remaining
tokens are exactly the command's positionals, and every required option is
given.  The reader then returns the namespace argparse would build.

Any other argv goes to argparse, which prints every help, usage and error
text.  A call that names a command builds one parser, that command's, with
prog "hsprolong <name>"; it prints the same usage and errors as the
command's subparser would.  The full parser, with every command as a
subparser, is built only for help, for a missing or unknown command, and to
report the two errors that belong to the top level: arguments the command
does not recognize, and --inner above --outer.  argparse is imported only
on that route, and json only for --json.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable

from .checks import CHECK_NAMES, run_checks
from .diffpoly import DerivationMode
from .docparse import InputDocument, ParseError, parse_assignments, parse_document, parse_point
from .presentations import (
    PointNotOnVariety,
    nabla,
    lift_morphism,
    presentation_to_json,
    prolong_presentation,
    render_presentation,
)
from .sparsepoly import render_polys

if TYPE_CHECKING:
    import argparse

    Arguments = argparse.Namespace | SimpleNamespace

OK, CHECK_FAILED, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3
CLOSED_STDOUT = 128 + 13  # 128 + SIGPIPE


class _UnreadableInput(Exception):
    """FILE could not be read as UTF-8 text."""


def _read_document(path: str) -> InputDocument:
    """The document at path, or on stdin for "-".  A file is read as bytes and
    decoded once, with no text wrapper; its line ends are then read as
    universal newlines read them: "\\r\\n" and a lone "\\r" are "\\n"."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "rb") as f:
                text = f.read().decode("utf-8")
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UnreadableInput(f"cannot read {path}: {exc}") from None
    return parse_document(text)


def _write(args: Arguments, payload: dict, lines: Iterable[str]) -> None:
    """The command's payload as indented JSON under --json, else its text lines."""
    if args.json:
        import json

        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


def cmd_prolong(args: Arguments) -> int:
    doc = _read_document(args.file)
    pres = prolong_presentation(doc.variety, args.order, DerivationMode(args.mode))
    if args.json:
        _write(args, presentation_to_json(pres, doc.var_names), ())
    else:
        print(render_presentation(pres, doc.var_names))
    return OK


def cmd_nabla(args: Arguments) -> int:
    doc = _read_document(args.file)
    if args.point is not None:
        point = parse_point(doc.field, doc.var_names, args.point)
    elif doc.point is not None:
        point = doc.point
    else:
        print("nabla needs a point: pass --point or add a point block", file=sys.stderr)
        return INPUT_ERROR
    try:
        values = nabla(doc.variety, args.order, point)
    except PointNotOnVariety as exc:
        print(f"ON-VARIETY: no (generator {exc.generator.render(doc.var_names)} "
              f"evaluates to {exc.value.render()})", file=sys.stderr)
        return INPUT_ERROR
    rows = [(s.render(doc.var_names), v.render()) for s, v in values.items()]
    _write(args, {"order": args.order, "values": dict(rows), "on_variety": True},
           [f"nabla order={args.order}", *(f"{name} = {text}" for name, text in rows), "ON-VARIETY: yes"])
    return OK


def cmd_lift(args: Arguments) -> int:
    doc = _read_document(args.file)
    images = parse_assignments(doc.field, doc.var_names, args.map)
    target_names = list(images)
    image_map = {i: images[name] for i, name in enumerate(target_names)}
    lift = lift_morphism(image_map, args.order, DerivationMode(args.mode))
    symbols = sorted(lift, key=lambda s: s.sort_key)
    texts = render_polys([lift[s] for s in symbols], doc.var_names)
    rows = [(s.render(target_names), text) for s, text in zip(symbols, texts)]
    _write(args, {"order": args.order, "mode": args.mode, "map": dict(rows)},
           [f"lift order={args.order} mode={args.mode}", *(f"{name} -> {text}" for name, text in rows)])
    return OK


def cmd_check(args: Arguments) -> int:
    names = list(CHECK_NAMES) if args.suite == "all" else [args.suite]
    ok, lines = run_checks(
        names,
        seed=args.seed,
        trials=args.trials,
        order=args.order,
        outer=args.outer,
        inner=args.inner,
        max_k=args.max,
    )
    _write(args, {"suite": args.suite, "seed": args.seed, "trials": args.trials, "passed": ok, "lines": lines},
           [f"check suite={args.suite} seed={args.seed} trials={args.trials}", *lines,
            "RESULT: pass" if ok else "RESULT: fail"])
    return OK if ok else CHECK_FAILED


def _type_error(message: str) -> Exception:
    import argparse

    return argparse.ArgumentTypeError(message)


def _at_least(least: int, most: int | None = None):
    """argparse type: an int no smaller than least and, if given, no larger than most."""

    def value(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise _type_error(f"invalid int value: {text!r}") from None
        if n < least:
            raise _type_error(f"must be at least {least}, got {n}")
        if most is not None and n > most:
            raise _type_error(f"must be at most {most}, got {n}")
        return n

    return value


# The multinomial suite streams all 2^(k-1) ordered partitions of each k up to
# --max, so its time doubles with each further k.
MAX_MULTINOMIAL_K = 20

# An argument row is (flag, keyword arguments of add_argument).  A flag that
# starts with "-" is an option, any other a positional.  The keywords are
# those _read_argv knows: type, choices, required, default and
# action="store_true", and help, which only argparse reads.
_FILE = ("file", {})
_ORDER = ("--order", {"type": _at_least(0), "required": True})
_MODE = ("--mode", {"choices": ["prolong", "jet"], "default": "prolong"})
_JSON = ("--json", {"action": "store_true"})

# (name, help, argument rows in add_argument order, set_defaults), in --help
# order.  fn names the function that runs the command: main looks it up when
# it calls it, so a wrapper put on cmd_* after import is the one that runs.
COMMANDS = (
    ("prolong", "print the order-m prolongation presentation",
     (("file", {"help": "input document path, or - for stdin"}), _ORDER, _MODE, _JSON),
     {"fn": "cmd_prolong"}),
    ("jet", "print the order-m jet presentation",
     (_FILE, _ORDER, _JSON),
     {"fn": "cmd_prolong", "mode": "jet"}),
    ("nabla", "evaluate the nabla section at a point",
     (_FILE, _ORDER, ("--point", {"help": 'e.g. "x=s, y=1/s" (overrides the document point block)'}), _JSON),
     {"fn": "cmd_nabla"}),
    ("lift", "lift a polynomial morphism to prolongations",
     (_FILE, _ORDER, _MODE, ("--map", {"required": True, "help": 'e.g. "y=x^2 - s"'}), _JSON),
     {"fn": "cmd_lift"}),
    ("check", "run verification suites",
     (("suite", {"choices": list(CHECK_NAMES) + ["all"]}),
      ("--seed", {"type": int, "default": 0}),
      ("--trials", {"type": _at_least(1), "default": 100}),
      ("--order", {"type": _at_least(0), "default": 2, "help": "truncation order for twist/theta/tensor"}),
      ("--outer", {"type": int, "default": 4, "help": "outer bound N for phi/psi"}),
      ("--inner", {"type": _at_least(0), "default": 2, "help": "inner order m for phi/psi, at most --outer"}),
      ("--max", {"type": _at_least(1, MAX_MULTINOMIAL_K), "default": 12,
                 "help": "largest k for the multinomial identity"}),
      _JSON),
     {"fn": "cmd_check"}),
)


def _add_arguments(parser: argparse.ArgumentParser, arguments: tuple, defaults: dict) -> None:
    for flag, row in arguments:
        parser.add_argument(flag, **row)
    parser.set_defaults(**defaults)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone if COMMANDS names it, else the full parser.

    The one-command parser is what the full parser would build as that
    command's subparser: same prog, arguments and defaults, and ``command``
    set to its name.  The full parser has every command as a subparser, so
    help and choice errors list them all.
    """
    import argparse

    for name, _, arguments, defaults in COMMANDS:
        if name == command:
            ap = argparse.ArgumentParser(prog=f"hsprolong {name}")
            _add_arguments(ap, arguments, defaults)
            ap.set_defaults(command=name)
            return ap
    ap = argparse.ArgumentParser(
        prog="hsprolong",
        description="Prolongations and jet spaces over fields with Hasse derivations",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, defaults in COMMANDS:
        _add_arguments(sub.add_parser(name, help=help_text), arguments, defaults)
    return ap


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would build from a well-formed argv, else None.

    Well formed is what the module docstring says.  Every other argv gets
    None, however argparse would read it, and main hands it to argparse.
    """
    for name, _, arguments, defaults in COMMANDS:
        if argv and argv[0] == name:
            break
    else:
        return None
    options = {flag: row for flag, row in arguments if flag.startswith("-")}
    given, positionals = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
        elif token not in options or token in given:
            return None
        elif options[token].get("action") == "store_true":
            given[token] = True
        else:
            text = next(tokens, "-")  # a missing value reads as "-", and is refused
            if text.startswith("-"):
                return None
            given[token] = text
    if len(positionals) != len(arguments) - len(options):
        return None
    given.update(zip((flag for flag, _ in arguments if flag not in options), positionals))
    namespace = dict(defaults, command=name)
    for flag, row in arguments:
        dest = flag.lstrip("-")
        if flag not in given:
            if row.get("required"):
                return None
            namespace[dest] = row.get("default", False if row.get("action") == "store_true" else None)
            continue
        value = given[flag]
        if "type" in row:
            try:
                value = row["type"](value)
            except Exception:  # argparse reads the same text again, and reports or raises
                return None
        if "choices" in row and value not in row["choices"]:
            return None
        namespace[dest] = value
    return SimpleNamespace(**namespace)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace argparse reads from argv; help and argument errors print and exit."""
    if argv and argv[0] in (name for name, *_ in COMMANDS):
        # the command's parser gets what its subparser would: every argument after the name
        args, extras = build_parser(argv[0]).parse_known_args(argv[1:])
        if extras:
            build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
        return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv) or _parse_args(argv)
    if args.command == "check" and args.suite in ("phi-psi", "all") and args.inner > args.outer:
        build_parser().error(f"argument --inner: must not exceed --outer ({args.outer}) for phi-psi, got {args.inner}")
    # no int-string limit while the command runs (int stands in where there is none): MAX_DIGITS bounds input
    limit, set_limit = getattr(sys, "get_int_max_str_digits", int)(), getattr(sys, "set_int_max_str_digits", int)
    set_limit(0)
    try:
        code = globals()[args.fn](args)
        # a closed stdout raises here, inside the try, and not at exit
        sys.stdout.flush()
        return code
    except (ParseError, _UnreadableInput) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except BrokenPipeError:
        # the reader has gone; write what is left to devnull, so that the
        # flush at exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
