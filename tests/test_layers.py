"""The package modules import each other in one direction only.

Every ``src/relaxwave/*.py`` is parsed with :mod:`ast`; imports inside
functions and under ``TYPE_CHECKING`` count as much as top-level ones.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relaxwave"

# Lowest layer first; a module may import only modules of lower layers.
LAYERS = (("errors",), ("output",), ("medium",), ("dispersion",), ("hirota",),
          ("soliton",), ("sim", "verify"), ("cli",))
RANK = {name: i for i, layer in enumerate(LAYERS) for name in layer}


def package_imports(path: Path) -> set[str]:
    """Names of the package modules that the module at ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(a.name for a in node.names)
            elif node.module and node.module.split(".")[0] == "relaxwave":
                parts = node.module.split(".")
                found.update([parts[1]] if len(parts) > 1 else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("relaxwave."))
    return found


def import_graph() -> dict[str, set[str]]:
    return {p.stem: package_imports(p) for p in sorted(PACKAGE.glob("*.py"))
            if p.stem != "__init__"}


def test_the_import_scanner_sees_nested_and_absolute_imports(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from .a import x\nimport relaxwave.b\nimport numpy\n"
                    "def f():\n    from .c import y\n    from relaxwave.d import z\n"
                    "    from relaxwave import e\n    from . import g\n")
    assert package_imports(path) == {"a", "b", "c", "d", "e", "g"}


def test_every_module_has_a_layer():
    assert set(import_graph()) == set(RANK)


def test_imports_point_to_lower_layers_only():
    wrong = {(mod, dep) for mod, deps in import_graph().items() for dep in deps
             if RANK[dep] >= RANK[mod]}
    assert wrong == set()


def test_sim_and_verify_do_not_import_each_other():
    graph = import_graph()
    assert "verify" not in graph["sim"]
    assert "sim" not in graph["verify"]


def test_import_graph_has_no_cycle():
    graph = import_graph()
    done: set[str] = set()

    def visit(mod: str, path: tuple[str, ...]) -> None:
        assert mod not in path, f"import cycle {' -> '.join(path + (mod,))}"
        if mod in done:
            return
        for dep in sorted(graph[mod]):
            visit(dep, path + (mod,))
        done.add(mod)

    for mod in graph:
        visit(mod, ())
