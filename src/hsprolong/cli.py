"""Command-line front end.

Commands construct prolongation/jet presentations, evaluate the nabla
section, lift morphisms, and run the verification suites.  Output is
deterministic: identical inputs and seeds produce byte-identical text.
Exit codes: 0 success / all checks pass, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checks import CHECK_NAMES, run_checks
from .diffpoly import DerivationMode
from .docparse import InputDocument, ParseError, parse_assignments, parse_document
from .presentations import (
    PointNotOnVariety,
    nabla,
    lift_morphism,
    presentation_to_json,
    prolong_presentation,
    render_presentation,
)

OK, CHECK_FAILED, INPUT_ERROR = 0, 1, 2


def _read_document(path: str) -> InputDocument:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_document(text)


def _mode(value: str) -> DerivationMode:
    return DerivationMode.JET if value == "jet" else DerivationMode.PROLONGATION


def cmd_prolong(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    pres = prolong_presentation(doc.variety, args.order, _mode(args.mode))
    if args.json:
        print(json.dumps(presentation_to_json(pres, doc.var_names), indent=2))
    else:
        print(render_presentation(pres, doc.var_names))
    return OK


def cmd_nabla(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    if args.point:
        point_polys = parse_assignments(doc.field, doc.var_names, args.point)
        point = {}
        for name, poly in point_polys.items():
            if name not in doc.var_names:
                raise ParseError(f"undeclared variable {name!r} in --point", 1, 1)
            if poly.symbols():
                raise ParseError("point coordinates must not involve variety variables", 1, 1)
            point[doc.var_names.index(name)] = poly.constant_term()
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
    symbols = sorted(values, key=lambda s: s.sort_key)
    if args.json:
        payload = {
            "order": args.order,
            "values": {s.render(doc.var_names): values[s].render() for s in symbols},
            "on_variety": True,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"nabla order={args.order}")
        for s in symbols:
            print(f"{s.render(doc.var_names)} = {values[s].render()}")
        print("ON-VARIETY: yes")
    return OK


def cmd_lift(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    images = parse_assignments(doc.field, doc.var_names, args.map)
    target_names = list(images)
    image_map = {i: images[name] for i, name in enumerate(target_names)}
    lift = lift_morphism(image_map, args.order, _mode(args.mode))
    symbols = sorted(lift, key=lambda s: s.sort_key)
    if args.json:
        payload = {
            "order": args.order,
            "mode": args.mode,
            "map": {s.render(target_names): lift[s].render(doc.var_names) for s in symbols},
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"lift order={args.order} mode={args.mode}")
        for s in symbols:
            print(f"{s.render(target_names)} -> {lift[s].render(doc.var_names)}")
    return OK


def cmd_check(args: argparse.Namespace) -> int:
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
    if args.json:
        print(json.dumps({"suite": args.suite, "seed": args.seed, "trials": args.trials,
                          "passed": ok, "lines": lines}, indent=2))
    else:
        print(f"check suite={args.suite} seed={args.seed} trials={args.trials}")
        for line in lines:
            print(line)
        print("RESULT: pass" if ok else "RESULT: fail")
    return OK if ok else CHECK_FAILED


def _at_least(least: int):
    """argparse type: an int no smaller than least."""

    def value(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hsprolong",
        description="Prolongations and jet spaces over fields with Hasse derivations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prolong", help="print the order-m prolongation presentation")
    p.add_argument("file", help="input document path, or - for stdin")
    p.add_argument("--order", type=_at_least(0), required=True)
    p.add_argument("--mode", choices=["prolong", "jet"], default="prolong")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_prolong)

    p = sub.add_parser("jet", help="print the order-m jet presentation")
    p.add_argument("file")
    p.add_argument("--order", type=_at_least(0), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_prolong, mode="jet")

    p = sub.add_parser("nabla", help="evaluate the nabla section at a point")
    p.add_argument("file")
    p.add_argument("--order", type=_at_least(0), required=True)
    p.add_argument("--point", help='e.g. "x=s, y=1/s" (overrides the document point block)')
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_nabla)

    p = sub.add_parser("lift", help="lift a polynomial morphism to prolongations")
    p.add_argument("file")
    p.add_argument("--order", type=_at_least(0), required=True)
    p.add_argument("--mode", choices=["prolong", "jet"], default="prolong")
    p.add_argument("--map", required=True, help='e.g. "y=x^2 - s"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("check", help="run verification suites")
    p.add_argument("suite", choices=list(CHECK_NAMES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_at_least(1), default=100)
    p.add_argument("--order", type=_at_least(0), default=2, help="truncation order for twist/theta/tensor")
    p.add_argument("--outer", type=int, default=4, help="outer bound N for phi/psi")
    p.add_argument("--inner", type=_at_least(0), default=2, help="inner order m for phi/psi, at most --outer")
    p.add_argument("--max", type=_at_least(1), default=12, help="largest k for the multinomial identity")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "check" and args.suite in ("phi-psi", "all") and args.inner > args.outer:
        ap.error(f"argument --inner: must not exceed --outer ({args.outer}) for phi-psi, got {args.inner}")
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except (ValueError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
