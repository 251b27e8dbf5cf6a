"""Module boundaries inside the package, read from the source with ``ast``.

No module imports another module's private ``_`` names, and ``metrics`` sees
the domain kinds only through the oracle protocol of ``Domain`` (plus the
``AffineImage`` pull-back of ``distance_ball_sample``).  Outside ``domains``
no code asks which kind a domain is, but for that pull-back and the input
guard of the corner pipeline.  Importing the package
and its command line loads no scipy: its one user, the vertex bodies of
``convexbox``, imports it lazily.  Every public name has a reader in the
package or in the README, and no module imports a name it never reads.
"""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import invmet

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "invmet"
MODULES = sorted(PACKAGE.glob("*.py"))
README = PACKAGE.parents[1] / "README.md"


def _package_imports(path):
    """(module, name) for every ``from .module import name`` in the file."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_names_cross_modules(path):
    private = [f"{module}.{name}" for module, name in _package_imports(path)
               if name.startswith("_")]
    assert not private, f"{path.name} imports private names {private}"


def test_metrics_sees_domains_only_through_the_protocol():
    names = {name for module, name in _package_imports(PACKAGE / "metrics.py")
             if module == "domains"}
    assert names <= {"Domain", "AffineImage"}, sorted(names)


def test_importing_the_package_and_cli_loads_no_scipy():
    probe = ("import sys, invmet, invmet.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]", out


def _domain_kinds():
    """``Domain`` and every class of ``domains`` derived from it."""
    tree = ast.parse((PACKAGE / "domains.py").read_text())
    kinds, grew = {"Domain"}, True
    while grew:
        found = {node.name for node in tree.body if isinstance(node, ast.ClassDef)
                 and any(isinstance(b, ast.Name) and b.id in kinds for b in node.bases)}
        grew = not found <= kinds
        kinds |= found
    return kinds


def _kind_tests(path, kinds):
    """(innermost enclosing function, kind) for each ``isinstance(_, kind)``
    in the file."""
    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            arg = node.args[1]
            for name in (arg.elts if isinstance(arg, ast.Tuple) else [arg]):
                if isinstance(name, ast.Name) and name.id in kinds:
                    yield fn, name.id
        for child in ast.iter_child_nodes(node):
            yield from visit(child, fn)

    yield from visit(ast.parse(path.read_text(), str(path)), "<module>")


def test_only_domains_asks_a_domain_its_kind():
    kinds = _domain_kinds()
    assert {"UnitBall", "ConvexPolyhedron", "AffineImage", "BalancedConvex"} <= kinds
    sites = {(path.stem, fn, kind) for path in MODULES if path.stem != "domains"
             for fn, kind in _kind_tests(path, kinds)}
    assert sites == {("metrics", "distance_ball_sample", "AffineImage"),
                     ("circularity", "polyhedral_pipeline", "ConvexPolyhedron")}, sorted(sites)


def test_star_import_binds_no_module():
    namespace = {}
    exec("from invmet import *", namespace)
    modules = [name for name, value in namespace.items()
               if not name.startswith("__") and isinstance(value, types.ModuleType)]
    assert not modules, modules


def test_every_public_name_has_a_reader():
    """Each name of ``__all__`` is read, as a ``Name`` or an ``Attribute``, by
    a module other than ``__init__``, or is named in the README."""
    read = set()
    for path in MODULES:
        if path.stem != "__init__":
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    readme = README.read_text()
    unread = [name for name in invmet.__all__
              if name not in read and not re.search(rf"\b{name}\b", readme)]
    assert not unread, f"public names nothing reads: {unread}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"],
                         ids=[p.stem for p in MODULES if p.stem != "__init__"])
def test_no_unread_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    unread = sorted(imported - {node.id for node in ast.walk(tree)
                                if isinstance(node, ast.Name)})
    assert not unread, f"{path.name} imports names it never reads: {unread}"
