"""The seeded samplers draw a pinned stream.

Every check suite reads its inputs from these samplers, so the stdout of
``check`` depends on each draw and on the order of the generator calls that
make it.  The digest below covers the rendered draws of every sampler, in the
shapes the suites use, followed by the generator's next ``random()``, for a
few seeds over each field the suites rotate through; a sampler that draws a
different value or consumes the generator differently moves it.
"""

import hashlib
import random

from hsprolong import checks
from hsprolong.diffpoly import DerivationMode
from hsprolong.fields import FieldDescriptor
from hsprolong.sampling import (
    random_base_elem,
    random_diffpoly,
    random_nonzero_base_elem,
    random_param_poly,
    random_variety_with_point,
)

FIELDS = (
    FieldDescriptor(0, ("s",), 1),
    FieldDescriptor(0, ("s1", "s2"), 2),
    FieldDescriptor(5, ("s",), 1),
)
SEEDS = range(8)

SAMPLER_STREAM_SHA256 = "996dc31d5adeb3d8b1d7c97144debb995bc149a4fcd69486f2a91bd45e72a631"


def _stream(seed: int, field: FieldDescriptor) -> list[str]:
    rng = random.Random(seed)
    out = [
        random_param_poly(rng, field).render(),
        random_param_poly(rng, field, max_deg=1, max_terms=2, nonzero=True).render(),
        str(random_base_elem(rng, field)),
        str(random_base_elem(rng, field, max_deg=1, max_terms=2)),
        str(random_nonzero_base_elem(rng, field)),
        # the oracle suite's shape, and the order-0 shape of leibniz and the claims
        str(random_diffpoly(rng, field, var_count=3, max_terms=3, max_factors=3, max_order=1)),
        str(random_diffpoly(rng, field, var_count=2, max_terms=2, max_factors=2, order_zero_only=True)),
    ]
    variety, point = random_variety_with_point(rng, field, var_count=2)
    out += [str(g) for g in variety.generators] + [str(point[i]) for i in sorted(point)]
    for kind in DerivationMode:
        out.append(str(checks._random_layered(rng, field, 2, 2, kind)))
    out.append(str(checks._random_truncated(rng, field, 2)))
    out.append(repr(rng.random()))
    return out


def _digest() -> str:
    h = hashlib.sha256()
    for field in FIELDS:
        for seed in SEEDS:
            for line in _stream(seed, field):
                h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_sampler_stream_is_pinned():
    assert _digest() == SAMPLER_STREAM_SHA256


def test_stream_draws_every_shape():
    # the pin means something only if the draws are not all zero
    lines = [line for field in FIELDS for seed in SEEDS for line in _stream(seed, field)]
    assert sum(line != "0" for line in lines) > len(lines) // 2


class _Scripted:
    """A generator stub that returns the scripted values in turn, each within the asked bounds."""

    def __init__(self, values):
        self._values = iter(values)

    def randint(self, a, b):
        v = next(self._values)
        assert a <= v <= b
        return v

    def randrange(self, n):
        v = next(self._values)
        assert 0 <= v < n
        return v


def test_nonzero_draw_whose_terms_cancel_mod_p_is_nonzero():
    # two terms, 3*s and 2*s, which sum to 5*s = 0 over F5
    rng = _Scripted([2, 1, 3, 1, 2])
    assert random_param_poly(rng, FieldDescriptor(5, ("s",), 1), nonzero=True)
