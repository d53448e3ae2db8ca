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
