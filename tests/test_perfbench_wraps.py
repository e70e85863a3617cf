"""The benchmark tracer patches named package functions; every one must exist.

``perfbench/spans.py`` raises at start-up when a wrap target is gone, but
only a traced benchmark run gets that far.  This guard fails as soon as a
rename or deletion in the package would break the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


WRAPS = load_wraps()


@pytest.mark.parametrize(
    "module_name,attr,counter",
    [(m, a, c) for m, a, _, c in WRAPS],
    ids=[f"{m}.{a}" for m, a, _, _ in WRAPS],
)
def test_wrap_target_resolves(module_name, attr, counter):
    target = getattr(importlib.import_module(module_name), attr, None)
    assert callable(target), f"{module_name}.{attr} no longer exists"
    if counter is not None:
        counter(target)  # reads the parameters its counter needs, by name
