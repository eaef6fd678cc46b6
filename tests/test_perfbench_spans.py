"""perfbench/spans.py names its span targets by module and attribute, and a
traced run fails at ``Tracer.install`` when one of them no longer exists.
The tracer is read here, not run: every named target must resolve."""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_targets_resolve(spans):
    missing = [(modname, attr) for _, modname, attr in spans.FUNCTIONS
               if not callable(getattr(importlib.import_module(modname), attr, None))]
    assert not missing, missing


def test_method_targets_resolve(spans):
    missing = []
    for _, modname, clsname, attr in spans.METHODS:
        cls = getattr(importlib.import_module(modname), clsname, None)
        if cls is None or not callable(vars(cls).get(attr)):
            missing.append((modname, clsname, attr))
    assert not missing, missing
