"""Every name a package module imports is used in that module, every name
it exports is bound in it, and every private function is used.

An ast scan of src/hankelschmidt/*.py (the package __init__, which imports
to re-export, excluded): a name bound by `import` or `from ... import` must
appear as a name in the module's code or in its `__all__`.  Future imports
are exempt.  Since an `__all__` entry counts as a use, each entry of every
module's `__all__`, the package __init__ included, must be bound at module
level by a def, class, assignment or import; a stale entry would otherwise
pass unnoticed.  A module-level `def _name` is private to the package, so
some module of src/hankelschmidt must refer to it, by name or as an
attribute, outside its own definition; importing it is not a use.  The
same holds for every public name a module exports in `__all__`: some code
must refer to it, by name or as an attribute, in src/hankelschmidt outside
its own definition and the package __init__, or in bench/*.py, or README
must name it in backticks.  extraction imports no name that evaluates on
the boundary grid.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hankelschmidt"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, at any depth."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def exported_names(tree: ast.Module) -> list[str]:
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.extend(ast.literal_eval(node.value))
    return out


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | set(exported_names(tree))


def bound_names(tree: ast.Module) -> set[str]:
    """Names bound at module level by def, class, assignment or import."""
    out = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]


def unbound_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = bound_names(tree)
    return [name for name in exported_names(tree) if name not in bound]


def test_scan_flags_an_unused_import():
    source = "import math\nfrom os import path, sep\n__all__ = ['sep']\nx = math.pi\n"
    assert unused_imports(source) == ["path (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


# names that evaluate on the boundary grid; extraction works on coefficients
# and at interior points (_horner at the base points) only
GRID_NAMES = {"grid_points", "default_grid_size", "blaschke_eval"}


def test_extraction_imports_no_boundary_grid_name():
    tree = ast.parse((PACKAGE / "extraction.py").read_text())
    assert sorted(GRID_NAMES & set(imported_names(tree))) == []
    assert "_horner" in imported_names(tree)


def test_scan_flags_a_stale_export():
    source = "from os import sep\nX = 1\nclass C: pass\ndef f(): pass\n__all__ = ['sep', 'X', 'C', 'f', 'gone']\n"
    assert unbound_exports(source) == ["gone"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_module_binds_every_export(path):
    assert unbound_exports(path.read_text()) == []


def references(trees) -> list[tuple[str, int]]:
    """(name, node id) of every name and attribute in the trees."""
    return [
        (node.id if isinstance(node, ast.Name) else node.attr, id(node))
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Module-level `def _name` (dunders aside) that no module refers to
    outside the definition itself, as "module._name (line L)"."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = references(trees.values())
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and ref not in own for name, ref in refs):
                out.append(f"{module}.{node.name} (line {node.lineno})")
    return out


def test_scan_flags_an_unreferenced_private_def():
    sources = {
        "a": "def _used(): pass\ndef _dead(n): return _dead(n - 1)\ndef __dunder__(): pass\n",
        "b": "from a import _dead, _used\nimport a\ndef f(): return a._used()\n",
    }
    assert unreferenced_private_defs(sources) == ["a._dead (line 2)"]


def test_every_private_function_is_used():
    sources = {path.stem: path.read_text() for path in ALL_MODULES}
    assert unreferenced_private_defs(sources) == []


def unreferenced_exports(sources: dict[str, str], others: list[str], readme: str) -> list[str]:
    """Entries of a module's `__all__` (the package __init__ aside) that no
    code refers to outside the name's own module-level definition, neither
    in the modules of sources nor in the sources of others, and that README
    never names in backticks, as "module.name"."""
    trees = {module: ast.parse(source) for module, source in sources.items() if module != "__init__"}
    refs = references([*trees.values(), *(ast.parse(source) for source in others)])
    # inline code spans on one line; a fence's backticks start no span
    spans = re.findall(r"`([^`\n]+)`", readme)
    quoted = {word for span in spans for word in re.findall(r"\w+", span)}
    out = []
    for module, tree in trees.items():
        defs = {
            node.name: {id(n) for n in ast.walk(node)}
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        for name in exported_names(tree):
            own = defs.get(name, set())
            if name not in quoted and not any(r == name and ref not in own for r, ref in refs):
                out.append(f"{module}.{name}")
    return out


def test_scan_flags_an_unreferenced_export():
    sources = {
        "a": "__all__ = ['used', 'dead', 'quoted', 'benched']\n"
             "def used(): pass\ndef dead(n): return dead(n - 1)\n"
             "def quoted(): pass\ndef benched(): pass\n",
        "b": "from a import used\nx = used()\n",
        "__init__": "from a import dead\n__all__ = ['dead']\nx = dead\n",
    }
    bench = ["import a\na.benched()\n"]
    readme = "Call `a.quoted(x)` first."
    assert unreferenced_exports(sources, bench, readme) == ["a.dead"]


def test_every_export_is_referenced():
    sources = {path.stem: path.read_text() for path in ALL_MODULES}
    bench = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    assert unreferenced_exports(sources, bench, readme) == []
