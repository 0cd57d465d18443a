"""The benchmark (perfbench/) calls nrmlab's public API by name, and its span
tracer (perfbench/tracer.py) patches nrmlab functions and policy methods by
name; every name it uses must still exist."""

import ast
import glob
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
TRACER = os.path.join(PERFBENCH, "tracer.py")


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


def nrmlab_names(path):
    """Dotted names a source file reaches through nrmlab: ``nrmlab.a.b``
    attribute chains and ``from nrmlab[.module] import a``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nrmlab":
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "nrmlab":
                names.add(".".join(["nrmlab"] + chain[::-1]))
    return names


def test_benchmark_names_resolve():
    used = {}
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        for name in nrmlab_names(path):
            used.setdefault(name, os.path.basename(path))
    # the parser must see the benchmark's entry points, or it checks nothing
    assert {"nrmlab.run_episode", "nrmlab.run_bench", "nrmlab.solve_fluid",
            "nrmlab.DemandOracle", "nrmlab.Instance"} <= set(used)
    missing = []
    for name, where in sorted(used.items()):
        obj = importlib.import_module("nrmlab")
        for attr in name.split(".")[1:]:
            obj = getattr(obj, attr, missing)
        if obj is missing:
            missing.append(f"{name} ({where})")
    assert not missing, f"perfbench uses names nrmlab no longer has: {missing}"
