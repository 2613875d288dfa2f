"""The benchmark's tracer (perfbench/spans.py) wraps library functions by
name.  A rename would make it fail, or leave a metric at zero, only when
the benchmark itself runs; this test fails on it here first."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets() -> tuple:
    """perfbench/spans.py's TARGETS, loaded by path: perfbench is no package."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("metric, modname, path",
                         [pytest.param(*t, id=t[0]) for t in _targets()])
def test_every_traced_name_resolves_to_a_callable(metric, modname, path):
    owner = importlib.import_module(modname)
    if "." in path:
        # read as Tracer.install reads it: through the class __dict__
        cls_name, attr = path.split(".")
        raw = getattr(owner, cls_name).__dict__.get(attr)
        target = raw.__func__ if isinstance(raw, classmethod) else raw
    else:
        target = getattr(owner, path, None)
    assert callable(target), f"{metric}: {modname}.{path} is not a callable"
