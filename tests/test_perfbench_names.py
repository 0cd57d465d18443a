"""The benchmark's span tracer (perfbench/tracer.py) patches nrmlab functions
and policy methods by name; every name it lists must still exist."""

import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracer):
    for module, name, *_ in tracer.FUNCTIONS + tracer.COUNTED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_traced_policy_methods_exist(tracer):
    for cls, _ in tracer.POLICY_CLASSES:
        for method in tracer.POLICY_METHODS:
            assert callable(getattr(cls, method, None)), f"{cls.__name__}.{method}"
