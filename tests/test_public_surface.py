"""The public surface: every exported name resolves, and what the benchmark uses exists.

The benchmark harness under perfbench/ imports library names directly; a name
it needs that the library drops breaks the harness without failing any other
test, so its imports and module attribute reads are checked here.
"""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = [
    "bayescfar",
    "bayescfar.cli",
    "bayescfar.clutter_models",
    "bayescfar.detectors",
    "bayescfar.numerics",
    "bayescfar.predictive",
    "bayescfar.simulate",
]

HARNESS = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _harness_references():
    # (module, name) for every `from bayescfar.x import name` and every
    # `alias.name` read through an `import bayescfar.x as alias`
    refs = set()
    for path in sorted(HARNESS.rglob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bayescfar"):
                refs.update((node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                aliases.update((a.asname, a.name) for a in node.names
                               if a.asname and a.name.startswith("bayescfar"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                refs.add((aliases[node.value.id], node.attr))
    return sorted(refs)


@pytest.mark.skipif(not HARNESS.is_dir(), reason="no benchmark harness in this checkout")
def test_names_the_benchmark_harness_uses_exist():
    refs = _harness_references()
    assert ("bayescfar.detectors", "bayes_os_threshold") in refs
    missing = [f"{m}.{n}" for m, n in refs if not hasattr(importlib.import_module(m), n)]
    assert missing == []


@pytest.mark.parametrize("name", ["scan_profile", "ScanResult", "WindowLayout",
                                  "ConfigurationError"])
def test_the_scan_is_one_object_under_every_path(name):
    # the scan lives in detectors; simulate and the package export the same
    # objects, so an `except simulate.ConfigurationError` still catches
    # what scan_profile raises
    import bayescfar
    from bayescfar import detectors, simulate

    assert getattr(simulate, name) is getattr(detectors, name)
    assert getattr(bayescfar, name) is getattr(detectors, name)
    assert name in simulate.__all__ and name in detectors.__all__ and name in bayescfar.__all__


SOURCE = Path(__file__).resolve().parent.parent / "src" / "bayescfar"


def _numerics_private_names():
    # the private names numerics defines at module level and on FirstPassRule,
    # with the QAGP entry points that other modules once reached into
    names = {"_integrate_rows", "_qk21", "_edges", "_qagp"}
    tree = ast.parse((SOURCE / "numerics.py").read_text())
    rule = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "FirstPassRule")
    for node in (*tree.body, *ast.walk(rule)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_numerics_is_reached_only_through_its_public_entries():
    # the θ integrals reach QAGP through FirstPassRule.integrate_rows and
    # integrate_semi_infinite alone, never through numerics' private parts
    private = _numerics_private_names()
    seams = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("numerics"):
                seams += [f"{path.name}: imports {a.name}" for a in node.names
                          if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr in private:
                seams.append(f"{path.name}:{node.lineno}: reads {node.attr}")
    assert seams == []
