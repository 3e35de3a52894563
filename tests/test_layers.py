"""The package modules import each other in one direction only, and none
imports scipy.

Every ``src/relaxwave/*.py`` is parsed with :mod:`ast`; imports inside
functions and under ``TYPE_CHECKING`` count as much as top-level ones.  No
module imports ``scipy`` in any form, so the package runs on numpy alone.
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


def scipy_imports(path: Path) -> list[tuple[str, bool, bool]]:
    """``(module, in_function, under_type_checking)`` per scipy import at ``path``.

    ``module`` is the full dotted name imported: ``from scipy import
    integrate`` gives ``"scipy.integrate"``.
    """
    found = []

    def visit(node: ast.AST, in_function: bool, typing_only: bool) -> None:
        if isinstance(node, ast.Import):
            found.extend((a.name, in_function, typing_only) for a in node.names
                         if a.name.split(".")[0] == "scipy")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
              and node.module.split(".")[0] == "scipy"):
            names = ([node.module] if node.module != "scipy"
                     else [f"scipy.{a.name}" for a in node.names])
            found.extend((name, in_function, typing_only) for name in names)
        in_function = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            for child in node.body:
                visit(child, in_function, True)
            for child in node.orelse:
                visit(child, in_function, typing_only)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, in_function, typing_only)

    visit(ast.parse(path.read_text(encoding="utf-8")), False, False)
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


def test_the_scipy_scanner_sees_nested_aliased_and_typing_imports(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import numpy\nimport scipy.linalg as la\n"
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n    from scipy.sparse import csr_matrix\n"
                    "else:\n    import scipy\n"
                    "def f():\n    from scipy import integrate, sparse\n"
                    "    class C:\n        import scipy.special\n")
    assert scipy_imports(path) == [
        ("scipy.linalg", False, False), ("scipy.sparse", False, True),
        ("scipy", False, False), ("scipy.integrate", True, False),
        ("scipy.sparse", True, False), ("scipy.special", True, False)]


def test_no_package_module_imports_scipy():
    found = {p.stem: scipy_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert "sim" in found  # the scan saw the package
    assert {mod: names for mod, names in found.items() if names} == {}


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
