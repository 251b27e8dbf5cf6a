"""Bundled example domains for suites, CLI demos, and regression baselines.

Every entry is built once per process, on first use, and read-only: each
name gives one shared instance, whose arrays raise ValueError on a write.  The
polyhedron and balanced-body entries are the small hand-checkable bodies used
throughout the test batteries; the affine twins exercise the delegation paths
with fixed, deterministic maps, and ``model_twins`` rebuilds each model as a
kind without a closed form.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import AffineMap, CLinearMap
from .domains import (
    AffineImage,
    BalancedConvex,
    ConvexPolyhedron,
    Domain,
    UnitBall,
    balanced_polyhedron,
    halfplane_product,
    load_domain,
    polydisc,
)
from .errors import SpecLoadError


def three_face_polyhedron() -> ConvexPolyhedron:
    """|z_1| < 1, |z_2| < 1, |z_1 + z_2| < 1.5 -- a wedge of the bidisc."""
    return ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], np.zeros(3), [1.0, 1.0, 1.5],
                            3, np.sqrt(2.0), name="three-face")


# the polydisc through its modulus faces, the table the corner sweep runs on
polydisc_as_polyhedron = polydisc


def balanced_two_face() -> ConvexPolyhedron:
    """Balanced body max(|z_1|, |z_1 + z_2| / 1.2) < 1."""
    return balanced_polyhedron([[1.0, 0.0], [1.0, 1.0]], [1.0, 1.2], 2,
                               name="balanced")


def twin_map(dim: int) -> AffineMap:
    """Fixed invertible affine map per dimension, for affine-image twins."""
    M = np.eye(dim, dtype=complex)
    M[0, 0] = 1.0 + 0.2j
    for k in range(dim - 1):
        M[k, k + 1] = 0.25 + 0.1j
    if dim > 1:
        M[dim - 1, dim - 1] = 0.9
    t = (0.1 - 0.05j) * np.ones(dim, dtype=complex)
    return AffineMap(CLinearMap(M), t)


def affine_twin(d: Domain) -> AffineImage:
    """The domain pushed through the fixed map of its dimension."""
    return AffineImage(d, twin_map(d.dim))


_BUILDERS = {
    "disc": lambda: polydisc([1.0]),
    "polydisc2": lambda: polydisc([1.0, 1.0]),
    "ball2": lambda: UnitBall(2),
    "halfplane": lambda: halfplane_product(1, "upper"),
    "three_face": three_face_polyhedron,
    "balanced": balanced_two_face,
    "sheared_polydisc": lambda: affine_twin(polydisc([1.0, 1.0])),
    "turned_ball": lambda: affine_twin(UnitBall(2)),
}


def model_twins() -> dict:
    """Each zoo body with a closed form rebuilt as a kind without one, by
    name: modulus faces, real faces, a gauge body and an affine image of
    each.  A table whose other faces are strictly redundant on the product of
    n of its faces is that product, with a closed form, so each table twin
    adds one tangent face: its supremum on the body is its bound."""
    polydisc2 = ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], np.zeros(3),
                                 [1.0, 1.0, 2.0], 3, np.sqrt(2.0))
    ball2 = BalancedConvex(UnitBall(2).gauge, 2, 1.0, 1.0)
    return {
        "disc": ConvexPolyhedron([[1.0], [1.0]], np.zeros(2), [1.0, 1.0], 2, 1.0),
        "polydisc2": polydisc2,
        "ball2": ball2,
        "halfplane": ConvexPolyhedron([[1j], [1j]], np.zeros(2), [0.0, 1.0], 0, np.inf,
                                      basepoint=[1j]),
        # |z_2| <= |z_1 + z_2| + |z_1| < 2.2, equal at (-1, 2.2), where |z| = 2.42
        "balanced": ConvexPolyhedron([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], np.zeros(3),
                                     [1.0, 1.2, 2.2], 3, 2.5),
        "sheared_polydisc": affine_twin(polydisc2),
        "turned_ball": affine_twin(ball2),
    }


def zoo_names() -> list[str]:
    return sorted(_BUILDERS)


@functools.cache
def zoo_domain(name: str) -> Domain:
    """The named zoo domain, built on first use and shared after (threads that
    ask for a new name at once may each build it: equal, read-only values)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise SpecLoadError(f"unknown zoo domain {name!r}; "
                            f"known: {', '.join(zoo_names())}")
    return builder()


def resolve_domain(arg: str) -> Domain:
    """A zoo name, a JSON file path, or an inline JSON object."""
    if arg in _BUILDERS:
        return zoo_domain(arg)
    return load_domain(arg)
