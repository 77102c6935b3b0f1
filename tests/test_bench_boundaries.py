"""The benchmark's trace boundaries name functions that exist.

``perfbench/spans.py`` wraps each ``(module, attribute)`` of ``BOUNDARIES``
when a benchmark runs with ``--trace 1``.  Removing or renaming one of those
functions breaks the traced run; this test reports it in the ordinary suite.
"""

import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _boundaries():
    # Executed from source, so nothing is written next to the benchmark.
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return [(module, attr) for module, attr, *_ in namespace["BOUNDARIES"]]


@pytest.mark.parametrize("module, attr", _boundaries())
def test_boundary_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
