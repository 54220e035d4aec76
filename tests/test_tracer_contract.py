"""The ring methods that the benchmark's tracer times stay where it looks.

perfbench's tracer wraps only the functions in a class's own ``__dict__``, so
a ring operator moved into a shared base class would leave its span at zero
calls with no error.  This reads the span names from ``perfbench/run.py``
with ``ast``, without importing or running the harness, and checks that
every ``<module>.<Class>.<method>`` span names a method of that class's own:
``mul`` is ``__mul__``, as the tracer reads a dunder name.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def timed_spans() -> tuple:
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TIMED_SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TIMED_SPANS in {RUN_PY}")


METHOD_SPANS = [span for span in timed_spans() if span.count(".") == 2]


def test_the_span_list_names_ring_methods():
    assert {"basefield.ParamPoly.mul", "series.TruncatedElement.mul", "sparsepoly.SparsePoly.add"} <= set(
        METHOD_SPANS
    )


@pytest.mark.parametrize("span", METHOD_SPANS)
def test_each_timed_method_is_in_its_own_class_dict(span):
    module, cls_name, method = span.split(".")
    cls = getattr(importlib.import_module(f"hsprolong.{module}"), cls_name)
    own = vars(cls)
    assert method in own or f"__{method}__" in own, f"{span}: not in {cls_name}.__dict__"
