"""Seeded job lists for the three workloads.

Every input comes from ``random.Random(seed)``; the same seed gives the same
jobs.  The program modules arrive as a namespace ``hs`` (see ``run.load_program``)
so that a fresh import of the program can be swapped in between set-up rounds.

* ``verify``:  ``check <suite> --seed <k> --trials 10``, round-robin over the
  eight suites, one fresh sub-seed per job.
* ``prolong``: ``prolong --order m FILE`` and ``nabla --order m FILE`` on seeded
  documents over Q(s), Q(s1,s2) and F5(s) with q in {2, 3} variables.
* ``jet``:     ``jet --order m FILE`` and ``lift --mode jet --order m --map ..``
  on the same document generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path

VERIFY_TRIALS = 10

# (name, characteristic, parameters, derivation count)
FIELDS = (
    ("Q(s)", 0, ("s",), 1),
    ("Q(s1,s2)", 0, ("s1", "s2"), 2),
    ("F5(s)", 5, ("s",), 1),
)
VAR_NAMES = ("x", "y", "z")
LIFT_TARGETS = ("u", "v")

# Orders m per derivation count n: higher m when n = 1.  With n = 2 a single
# prolong job at m = 3 can take half a second and dominate the list's cost.
PROLONG_ORDERS = {1: (2, 3, 4, 5), 2: (1, 2)}
JET_ORDERS = {1: (3, 4, 5, 6, 7), 2: (1, 2, 3)}

# Jobs run once in each set-up round before timing.  They come from a fixed
# seed, not the workload seed, so that the warm-up costs the same in every run;
# verify's run at --trials 1.
WARMUP_JOBS = {"verify": 32, "prolong": 12, "jet": 12}


@dataclass
class Document:
    """A seeded variety with a point on it, and the text the CLI reads."""

    label: str
    var_names: tuple
    variety: object  # the intended VarietyPresentation
    point: dict  # the intended point, variable index -> BaseElem
    path: str
    text: str


@dataclass
class Job:
    argv: list
    kind: str  # check | prolong | jet | nabla | lift
    label: str
    order: int = 0
    doc: Document | None = None
    images: dict = dc_field(default_factory=dict)  # intended lift images by target name


def _scalar(rng: random.Random, char: int):
    if char:
        return rng.randrange(char)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _param_poly(rng, hs, field, max_deg: int, max_terms: int):
    out = hs.basefield.ParamPoly.zero(field)
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(field.param_count))
        out = out + hs.basefield.ParamPoly.monomial(field, exps, _scalar(rng, field.characteristic))
    return out


def _base_elem(rng, hs, field, max_deg: int = 2, max_terms: int = 2):
    num = _param_poly(rng, hs, field, max_deg, max_terms)
    if rng.random() < 0.5:
        den = _param_poly(rng, hs, field, max(1, max_deg - 1), 2)
        if den:
            return hs.basefield.BaseElem(num, den)
    return hs.basefield.BaseElem(num)


def _order0_poly(rng, hs, field, q: int, max_terms: int, max_factors: int):
    DiffPoly = hs.diffpoly.DiffPoly
    out = DiffPoly.zero(field)
    for _ in range(rng.randint(1, max_terms)):
        term = DiffPoly.const(field, _base_elem(rng, hs, field, max_deg=1))
        for _ in range(rng.randint(0, max_factors)):
            term = term * DiffPoly.variable(field, rng.randrange(q))
        out = out + term
    return out


def _document(rng, hs, index: int, workdir: Path) -> Document:
    """Generators (x_i - a_i) * g vanish at the point a by construction."""
    name, char, params, n = FIELDS[index % len(FIELDS)]
    field = hs.fields.FieldDescriptor(char, params, n)
    q = 2 + (index // len(FIELDS)) % 2
    DiffPoly = hs.diffpoly.DiffPoly
    point = {i: _base_elem(rng, hs, field) for i in range(q)}
    gens = []
    for _ in range(2):
        i = rng.randrange(q)
        linear = DiffPoly.variable(field, i) - DiffPoly.const(field, point[i])
        g = _order0_poly(rng, hs, field, q, max_terms=2, max_factors=1)
        gens.append(linear * g if rng.random() < 0.5 else linear)
    variety = hs.presentations.VarietyPresentation(field, q, gens)
    names = VAR_NAMES[:q]
    text = hs.docparse.render_document(hs.docparse.InputDocument(field, names, variety, point))
    path = workdir / f"doc{index}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return Document(f"doc{index}[{name},q={q}]", names, variety, point, str(path), text)


def _verify_jobs(rng, hs, count: int, workdir: Path) -> list:
    suites = hs.checks.CHECK_NAMES
    jobs = []
    for i in range(count):
        suite = suites[i % len(suites)]
        sub = rng.randrange(2**31)
        argv = ["check", suite, "--seed", str(sub), "--trials", str(VERIFY_TRIALS)]
        jobs.append(Job(argv, "check", f"check {suite} --seed {sub}"))
    return jobs


def _prolong_jobs(rng, hs, count: int, workdir: Path) -> list:
    # Two prolong jobs per nabla job: nabla is the cheapest kind, and a 1:1 mix
    # would put the latency median on the gap between the two kinds.
    jobs = []
    for d in range(count // 3):
        doc = _document(rng, hs, d, workdir)
        grid = PROLONG_ORDERS[doc.variety.field.derivation_count]
        orders = rng.sample(grid, 2) + [rng.choice(grid)]
        for kind, m in zip(("prolong", "prolong", "nabla"), orders):
            argv = [kind, "--order", str(m), doc.path]
            jobs.append(Job(argv, kind, f"{kind} m={m} {doc.label}", m, doc))
    return jobs


def _jet_jobs(rng, hs, count: int, workdir: Path) -> list:
    jobs = []
    for d in range(count // 2):
        doc = _document(rng, hs, d, workdir)
        field = doc.variety.field
        grid = JET_ORDERS[field.derivation_count]
        m = rng.choice(grid)
        jobs.append(Job(["jet", "--order", str(m), doc.path], "jet", f"jet m={m} {doc.label}", m, doc))
        q = doc.variety.var_count
        images = {t: _order0_poly(rng, hs, field, q, max_terms=3, max_factors=2) for t in LIFT_TARGETS}
        map_text = ", ".join(f"{t} = {img.render(doc.var_names)}" for t, img in images.items())
        m = rng.choice(grid)
        argv = ["lift", "--mode", "jet", "--order", str(m), "--map", map_text, doc.path]
        jobs.append(Job(argv, "lift", f"lift m={m} {doc.label}", m, doc, images))
    return jobs


_MAKERS = {"verify": _verify_jobs, "prolong": _prolong_jobs, "jet": _jet_jobs}
WORKLOADS = tuple(_MAKERS)


def make_jobs(hs, workload: str, seed: int, count: int, workdir: Path) -> list:
    """About ``count`` jobs; document files are written under ``workdir``.

    A shorter list for the same seed is a prefix of a longer one.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng, hs, count, workdir)


def warmup_jobs(hs, workload: str, workdir: Path) -> list:
    """Jobs to run before timing, the same for every workload seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:warmup")
    jobs = _MAKERS[workload](rng, hs, WARMUP_JOBS[workload], workdir)
    if workload == "verify":
        return [Job(job.argv[:-1] + ["1"], job.kind, job.label) for job in jobs]
    return jobs
