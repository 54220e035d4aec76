"""Untimed correctness gate.

Each job's captured (exit code, stdout) is compared with what an independent
route predicts for the *intended* input, i.e. the objects the generator built,
not the text the CLI reparsed:

* ``prolong``/``jet``/``lift``: every generator or image d_alpha f is
  recomputed with ``taylor_oracle`` (truncated-series substitution), not with
  the ``apply_d`` Leibniz fold the CLI uses.
* ``nabla``: each value D_alpha(a_i) is read off ``twist_expand(a_i, m)``, not
  computed with ``hasse_derive``.
* ``check``: exit code 0 and every report line ``OK`` with ``trials=`` > 0.

A rejected job is then diagnosed.  If its input does not survive
``render_document``/``parse_document`` and the output equals the oracle's
prediction for the reparsed input, the cause is the known render/parse defect
(``BaseElem.render`` prints a monomial denominator such as ``s1*s2`` without
parentheses).  Any other rejection is a wrong output.
"""

from __future__ import annotations

import hashlib
import re

RENDER_PARSE = "render-parse"
WRONG_OUTPUT = "wrong-output"

_TRIALS = re.compile(r"\btrials=(\d+)\b")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_report(rc, text: str) -> str | None:
    """Reason a ``check`` job is rejected, or None."""
    if rc != 0:
        return f"exit {rc}"
    lines = text.splitlines()[1:-1]
    if not lines:
        return "no report lines"
    for line in lines:
        got = _TRIALS.search(line)
        if not line.startswith("OK ") or got is None or int(got.group(1)) == 0:
            return f"report line {line!r}"
    return None


def expected(hs, job, variety, point, images) -> tuple[int, str]:
    """(exit code, stdout) the CLI should produce for these input objects."""
    diffpoly = hs.diffpoly
    m, names = job.order, job.doc.var_names
    n = variety.field.derivation_count
    alphas = hs.multiindex.enumerate_multiindices(n, m)
    if job.kind in ("prolong", "jet"):
        mode = diffpoly.DerivationMode.JET if job.kind == "jet" else diffpoly.DerivationMode.PROLONGATION
        symbols = [diffpoly.DiffSymbol(i, a) for i in range(variety.var_count) for a in alphas]
        gens = [diffpoly.taylor_oracle(a, g, mode) for a in alphas for g in variety.generators]
        pres = hs.presentations.ProlongationPresentation(variety, m, mode, symbols, gens)
        return 0, hs.presentations.render_presentation(pres, names) + "\n"
    if job.kind == "nabla":
        assignment = {diffpoly.DiffSymbol(i, (0,) * n): a for i, a in point.items()}
        if any(g.evaluate(assignment) for g in variety.generators):
            return 2, ""
        lines = [f"nabla order={m}"]
        for i in range(variety.var_count):
            series = hs.series.twist_expand(point[i], m)
            for a in sorted(alphas, key=hs.multiindex.graded_lex_key):
                value = series.coeff_or(a, hs.basefield.BaseElem.zero(variety.field))
                lines.append(f"{diffpoly.DiffSymbol(i, a).render(names)} = {value.render()}")
        lines.append("ON-VARIETY: yes")
        return 0, "\n".join(lines) + "\n"
    if job.kind == "lift":
        targets = list(images)
        lines = [f"lift order={m} mode=jet"]
        for j, image in enumerate(images.values()):
            for a in sorted(alphas, key=hs.multiindex.graded_lex_key):
                value = diffpoly.taylor_oracle(a, image, diffpoly.DerivationMode.JET)
                lines.append(f"{diffpoly.DiffSymbol(j, a).render(targets)} -> {value.render(names)}")
        return 0, "\n".join(lines) + "\n"
    raise ValueError(f"no oracle for job kind {job.kind!r}")


def reparsed(hs, job):
    """The input objects the CLI actually sees after reading the job's text."""
    doc = hs.docparse.parse_document(job.doc.text)
    images = {}
    if job.kind == "lift":
        images = hs.docparse.parse_assignments(doc.field, doc.var_names, job.argv[job.argv.index("--map") + 1])
    return doc.variety, doc.point, images


def diagnose(hs, job, rc, text: str) -> tuple[str, str]:
    """(cause, one-line reason) for a job whose output the gate rejected."""
    if job.kind == "check":
        return WRONG_OUTPUT, check_report(rc, text) or "rejected"
    intended = (job.doc.variety, job.doc.point, job.images)
    try:
        seen = reparsed(hs, job)
    except hs.docparse.ParseError as exc:
        if rc == 2 and not text:
            return RENDER_PARSE, f"rendered input does not parse: {exc}"
        seen = intended
    if seen != intended and (rc, text) == expected(hs, job, *seen):
        what = "exit 2 (point off the reparsed variety)" if rc == 2 else "output is right for the reparsed input"
        return RENDER_PARSE, f"input does not survive render/parse; {what}"
    want_rc, want = expected(hs, job, *intended)
    if rc != want_rc:
        return WRONG_OUTPUT, f"exit {rc}, expected {want_rc}"
    got_lines, want_lines = text.splitlines(), want.splitlines()
    for k, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if g != w:
            return WRONG_OUTPUT, f"line {k}: got {g!r}, oracle {w!r}"
    return WRONG_OUTPUT, f"{len(got_lines)} lines, oracle has {len(want_lines)}"
