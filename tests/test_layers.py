"""The package modules import each other in one direction only, none
imports scipy, none keeps code that only the tests call, each public name
is declared once, and ``verify`` keeps no state between calls.

Every ``src/relaxwave/*.py`` is parsed with :mod:`ast`; imports inside
functions and under ``TYPE_CHECKING`` count as much as top-level ones.  No
module imports ``scipy`` in any form, so the package runs on numpy alone.
Every module-level function and class is referenced somewhere in the
package or exported by ``relaxwave``, and every public method is read as an
attribute somewhere in the package; test oracles live in
``tests/helpers.py``.  Every name that the top level of
``relaxwave.verify`` binds holds a value no call can change, so its grid
reports are reentrant by construction.

``relaxwave.__all__`` is the one list of the public API, and the import
rule is:

1. no ``src/relaxwave/*.py`` but ``__init__.py`` binds ``__all__``, and no
   module of the package and no test star-imports;
2. every name in ``relaxwave.__all__`` but ``__version__`` is the same
   object as a non-underscore top-level definition (``def``, ``class`` or
   assignment) in exactly one module of the package;
3. a module of the package, a test or a helper imports a name from
   ``relaxwave.<mod>`` only if ``<mod>`` defines it at top level, so a name
   that ``<mod>`` only re-binds by its own import (such as
   ``relaxwave.verify.FieldBundle``) is refused; ``from relaxwave import``
   takes only names in ``relaxwave.__all__`` and module names.

The coupled characteristic system (system 19) is written once, as
``soliton.coupled_system`` with the parts of its equation ``u`` in
``soliton.coupled_u_parts``.  Patching either, wherever the package binds
it, must change a ``residuals_from_bundles`` value, a
``real_residual_reports`` norm, one ``evolve_system19`` step and an
``exactness_forcing`` value; patching the parts must also change a
factored-frame report, which reads them.  A module that spelled the
equations out again would keep its old numbers and fail the check.
"""

import ast
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relaxwave"
TESTS = Path(__file__).resolve().parent

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


def unreferenced(paths, exported: set[str]) -> list[str]:
    """Functions, classes and public methods of the modules at ``paths`` that
    no module there references.

    A module-level function or class counts as referenced by an
    ``ast.Name`` or ``ast.Attribute`` of its name in any of the modules, or
    by being in ``exported``.  A public method counts as referenced by an
    ``ast.Attribute`` only, so that a local variable of the same name does
    not hide it.  Results read ``module.name`` and ``module.Class.method``.
    """
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*defs, ast.ClassDef)) and node.name not in (
                    names | attrs | exported):
                found.append(f"{mod}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found.extend(f"{mod}.{node.name}.{item.name}" for item in node.body
                             if isinstance(item, defs) and not item.name.startswith("_")
                             and item.name not in attrs)
    return sorted(found)


def test_the_reference_scanner_sees_names_attributes_and_exports(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import math\n"
                    "def used():\n    return math.pi\n"
                    "def unused():\n    length = used()\n    return length\n"
                    "def exported():\n    pass\n"
                    "def _private():\n    pass\n"
                    "class Kept:\n"
                    "    def called(self):\n        return self.helper\n"
                    "    @property\n    def helper(self):\n        pass\n"
                    "    @property\n    def length(self):\n        pass\n"
                    "    def _inner(self):\n        pass\n"
                    "    def __call__(self):\n        pass\n"
                    "class Orphan:\n    pass\n"
                    "x = Kept().called() + _private()\n")
    assert unreferenced([path], {"exported"}) == [
        "probe.Kept.length", "probe.Orphan", "probe.unused"]


def test_every_function_class_and_public_method_has_a_caller_in_the_package():
    import relaxwave

    assert unreferenced(sorted(PACKAGE.glob("*.py")), set(relaxwave.__all__)) == []


def top_level_definitions(path: Path) -> set[str]:
    """Names that the top level of the module at ``path`` binds by ``def``,
    ``class`` or assignment; an import defines no name."""
    bound = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return bound


def test_only_the_package_binds_all_and_nothing_star_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names):
                found.append(f"{path.parent.name}/{path.name}: import *")
            elif (isinstance(node, ast.Name) and node.id == "__all__"
                  and isinstance(node.ctx, ast.Store) and path.parent == PACKAGE
                  and path.stem != "__init__"):
                found.append(f"{path.parent.name}/{path.name}: __all__")
    assert found == []


def test_every_export_is_defined_in_exactly_one_module():
    import relaxwave

    modules = {p.stem: (top_level_definitions(p), importlib.import_module(f"relaxwave.{p.stem}"))
               for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}
    owners = {name: [mod for mod, (defined, module) in modules.items()
                     if name in defined and getattr(module, name) is getattr(relaxwave, name)]
              for name in relaxwave.__all__ if name != "__version__"}
    assert len(set(relaxwave.__all__)) == len(relaxwave.__all__)
    assert {name: mods for name, mods in owners.items() if len(mods) != 1} == {}


def misplaced_imports(paths, exported) -> list[str]:
    """Imports at ``paths`` of a name that the named package module does not
    define at top level, or ``from relaxwave import`` of a name that is
    neither in ``exported`` nor a package module.  Results read
    ``file: module.name``."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1 and path.parent == PACKAGE:
                mod = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "relaxwave":
                mod = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if mod is None:
                    ok = alias.name in exported or (PACKAGE / f"{alias.name}.py").exists()
                else:
                    ok = alias.name in top_level_definitions(PACKAGE / f"{mod}.py")
                if not ok:
                    found.append(f"{path.name}: {mod or 'relaxwave'}.{alias.name}")
    return found


def test_the_import_rule_scanner_refuses_re_bound_and_unexported_names(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from relaxwave.verify import FieldBundle, GridSpec\n"
                    "from relaxwave.soliton import FieldBundle as FB\n"
                    "from relaxwave import solve_real, soliton, real_bundles\n"
                    "def f():\n    from relaxwave.sim import eval_uZ\n")
    assert misplaced_imports([path], {"solve_real"}) == [
        "probe.py: verify.FieldBundle", "probe.py: relaxwave.real_bundles",
        "probe.py: sim.eval_uZ"]


def test_every_import_names_the_module_that_defines_the_name():
    import relaxwave

    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert misplaced_imports(paths, set(relaxwave.__all__)) == []


def frozen(value) -> bool:
    """Whether ``value`` is a number, string, function or class, or a tuple,
    frozenset or read-only mapping of those."""
    if isinstance(value, (tuple, frozenset)):
        return all(map(frozen, value))
    if isinstance(value, types.MappingProxyType):
        return all(map(frozen, value.values()))
    return isinstance(value, (bool, int, float, complex, str, bytes, type(None), type,
                              types.FunctionType))


def module_state(path: Path, module) -> list[str]:
    """Names bound by the top level of the module at ``path`` (assignments,
    ``def`` and ``class``) whose value in ``module`` is not :func:`frozen`.

    Dunder names such as ``__all__`` are module metadata and are skipped.
    """
    return sorted(name for name in top_level_definitions(path)
                  if not name.startswith("__") and not frozen(getattr(module, name)))


def test_the_state_scanner_sees_locals_caches_arrays_and_containers(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import functools, threading\nfrom types import MappingProxyType\n"
                    "import numpy as np\n"
                    "LIMIT, NAMES = 3, ('a', 1.0)\n"
                    "ORDERS = MappingProxyType({'x': 2})\n"
                    "_LOCAL = threading.local()\n_BUF: object = np.zeros(3)\n"
                    "_SEEN = {}\nPAIRS = ((1, []),)\n"
                    "@functools.lru_cache\ndef cached(x):\n    return x\n"
                    "def plain():\n    pass\n"
                    "class Kept:\n    pass\n"
                    "__all__ = ['plain']\n")
    spec = importlib.util.spec_from_file_location("probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module_state(path, module) == ["PAIRS", "_BUF", "_LOCAL", "_SEEN", "cached"]


def test_verify_holds_no_module_level_mutable_state():
    import relaxwave.verify

    assert module_state(PACKAGE / "verify.py", relaxwave.verify) == []


def system19_probes() -> dict[str, np.ndarray]:
    """A value of every path that evaluates system 19, on one small wave."""
    from relaxwave import evolve_system19, real_residual_reports, solve_real, soliton_state19
    from relaxwave.soliton import real_bundles
    from relaxwave.verify import GridSpec, exactness_forcing, residuals_from_bundles

    w = solve_real(0.24, 0.8)
    sigma = np.linspace(-15.0, 15.0, 41)
    grid = GridSpec(n_sigma=21, n_tau=21)
    step = evolve_system19(soliton_state19(w, sigma), w.alpha, 0.1, 0.1, n_snapshots=2)
    reports = {system: [(e.linf, e.l2, e.normalization) for r in
                        real_residual_reports(w, grid, ("analytic", "fd4"), (system,))
                        for e in r.equations]
               for system in ("coupled", "factored")}
    return {
        "residuals_from_bundles": np.array(residuals_from_bundles(*real_bundles(w, sigma, 0.3),
                                                                  w.alpha)),
        "coupled report": np.array(reports["coupled"]),
        "factored report": np.array(reports["factored"]),
        "evolve_system19 step": np.array([step.u[-1], step.ut[-1], step.Z[-1], step.zt[-1]]),
        "exactness_forcing": np.array(exactness_forcing(w)(sigma, np.array([[0.0], [0.5]]))),
    }


@pytest.mark.parametrize("name", ["coupled_system", "coupled_u_parts"])
def test_every_system19_path_evaluates_the_one_copy_in_soliton(monkeypatch, name):
    import relaxwave.soliton

    original = getattr(relaxwave.soliton, name)

    # each flips the sign of alpha*pi
    if name == "coupled_system":
        def flipped(u, pi, phi, uss, zss, alpha, *rest, **options):
            return original(u, pi, phi, uss, zss, -alpha, *rest, **options)
    else:
        def flipped(u, pi, phi, uss, alpha, *rest, **options):
            return original(u, pi, phi, uss, -alpha, *rest, **options)

    before = system19_probes()
    bound = [mod for key, mod in list(sys.modules.items())
             if (key == "relaxwave" or key.startswith("relaxwave."))
             and getattr(mod, name, None) is original]
    assert relaxwave.soliton in bound
    for mod in bound:
        monkeypatch.setattr(mod, name, flipped)
    after = system19_probes()
    moved = {probe for probe in before if not np.array_equal(before[probe], after[probe])}
    expected = set(before) - ({"factored report"} if name == "coupled_system" else set())
    assert moved == expected
