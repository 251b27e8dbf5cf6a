"""Module boundaries inside the package, read from the source with ``ast``.

No module imports another module's private ``_`` names, and ``metrics`` sees
the domain kinds only through the oracle protocol of ``Domain`` (plus the
``AffineImage`` pull-back of ``distance_ball_sample``).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "invmet"
MODULES = sorted(PACKAGE.glob("*.py"))


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
