"""Module boundaries inside the package, read from the source with ``ast``.

No module imports another module's private ``_`` names, and ``metrics`` sees
the domain kinds only through the oracle protocol of ``Domain`` (plus the
``AffineImage`` pull-back of ``distance_ball_sample``).  Outside ``domains``
no code asks which kind a domain is, but for that pull-back and the input
guard of the corner pipeline.  Importing the package
and its command line loads no scipy: its one user, the vertex bodies of
``convexbox``, imports it lazily, as ``verify_all`` does its thread pool.
Every public name, function and method has a reader in the package or in the
README, so has every field of a dataclass, and no module imports a name it
never reads.
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
TESTS = Path(__file__).resolve().parent


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
    """Nor concurrent.futures, with the logging it imports: only the thread
    pool of ``verify_all(workers > 1)`` uses it, and imports it there."""
    probe = ("import sys, invmet, invmet.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'concurrent', 'logging')))")
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


def _public_definitions():
    """``module.name`` of every public module-level function and every public
    method of a module-level class, but the ``cli.cmd_*`` handlers, which
    ``main`` looks up by name."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in MODULES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, functions):
                names = [node.name]
            elif isinstance(node, ast.ClassDef):
                names = [n.name for n in node.body if isinstance(n, functions)]
            else:
                continue
            for name in names:
                if not (name.startswith("_") or path.stem == "cli" and name.startswith("cmd_")):
                    yield path.stem, name


def test_every_public_name_has_a_reader():
    """Each name of ``__all__``, public module-level function and public class
    method is read, as a ``Name`` or an ``Attribute``, by a module other than
    ``__init__``, or is named in the README."""
    read = set()
    for path in MODULES:
        if path.stem != "__init__":
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    readme = README.read_text()
    names = [(None, name) for name in invmet.__all__] + list(_public_definitions())
    unread = sorted({name if module is None else f"{module}.{name}" for module, name in names
                     if name not in read and not re.search(rf"\b{name}\b", readme)})
    assert not unread, f"public names nothing reads: {unread}"


def _dataclass_fields():
    """(``module.Class``, field) for every field of a module-level class
    decorated ``@dataclass`` or ``@dataclass(...)``."""
    for path in MODULES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef) and any(
                    getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                    for d in node.decorator_list):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{path.stem}.{node.name}", item.target.id


def test_every_dataclass_field_has_a_reader():
    """Each dataclass field is read as an attribute, ``.field``, somewhere in
    the package, or is read so in the README.  The check goes by name: a
    field shares its readers with every attribute of the same name."""
    read = {node.attr for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    readme = README.read_text()
    fields = list(_dataclass_fields())
    assert len(fields) > 50, fields
    unread = [f"{cls}.{name}" for cls, name in fields
              if name not in read and not re.search(rf"\.{name}\b", readme)]
    assert not unread, f"dataclass fields nothing reads: {unread}"


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


def test_every_third_party_import_is_a_declared_dependency():
    """Each top-level module imported under ``src`` or ``tests`` is in the
    standard library, is ``invmet`` or a test module, or is named by
    ``dependencies`` or the ``test`` extra of ``pyproject.toml`` (each of
    which is imported under its distribution name)."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    local = {"invmet"} | {path.stem for path in TESTS.glob("*.py")}
    imported = set()
    for path in MODULES + sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    undeclared = sorted(imported - set(sys.stdlib_module_names) - local - declared)
    assert not undeclared, f"imported but not declared in pyproject.toml: {undeclared}"
