"""The benchmark's span targets must resolve against the package.

bench/spans.py wraps isopar functions and methods by name; a target that no
longer exists makes every traced benchmark run fail. Module-level names must
be attributes of their module; dotted names must be defined in the class body
itself, because the recorder reads them from the class __dict__.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name,attr", [(mod, attr) for _, mod, attr in load_targets()]
)
def test_span_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
