"""Rotated-box containment for centrally symmetric convex bodies in R^n.

The cascade result: if r_1 is the minimum distance from the origin to the
boundary, rotate the minimizing direction onto e_1; then the body is contained
in [-r_1, r_1] x 2*B', where B' is the box obtained by repeating the procedure
on the slice {x_1 = 0}.  Unwinding gives box radii (r_1, 2 r_2, 4 r_3, ...,
2^{n-1} r_n), where r_k is the minimum boundary distance of the (k-1)-fold
slice.  Every box carries the worst slack of its containment check.

A body is the convex hull of its points and their mirror images through 0.
``box_lemma_bounds`` runs each level once over a stack of bodies of one
dimension, on their facet tables: unit normals and plane offsets.  Tables are
padded to the stack's most rows with normal 0 and offset +inf, which no argmin
picks; a slice masks the rows it loses the same way, and the containment check
pads each vertex set with its first vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import DegenerateInputError, LemmaViolationError, NotInteriorError
from .sampling import SampleStream, vector_norms


class SymmetricBody:
    """Centrally symmetric bounded convex body: the convex hull of the points
    P and -P, so symmetric by construction.  ``vertices`` holds P then -P;
    the facets come from scipy's convex hull."""

    def __init__(self, vertices):
        P = np.asarray(vertices, dtype=float)
        if P.ndim != 2 or P.shape[0] == 0:
            raise DegenerateInputError("vertex list must be a 2d point array")
        self.dim = P.shape[1]
        # row norms as np.linalg.norm rounds them, without its call overhead
        scale = float(np.sqrt((P ** 2).sum(axis=1).max()))
        self.vertices = np.concatenate([P, -P])
        from scipy.spatial import ConvexHull, QhullError
        try:
            hull = ConvexHull(self.vertices)
        except QhullError as exc:
            raise DegenerateInputError(f"degenerate vertex body: {exc}")
        norms = np.sqrt((hull.equations[:, :-1] ** 2).sum(axis=1))
        self._normals = hull.equations[:, :-1] / norms[:, None]
        self._offsets = -hull.equations[:, -1] / norms
        if self._offsets.min() <= 1e-12 * scale:
            raise NotInteriorError("origin is not interior to the body")


def _stack(arrays, fill=None):
    """(k, rows, ...) stack of arrays, each padded to the most rows with
    ``fill``, or with copies of its first row."""
    rows = max(len(a) for a in arrays)
    out = np.empty((len(arrays), rows) + arrays[0].shape[1:])
    for j, a in enumerate(arrays):
        out[j, :len(a)] = a
        out[j, len(a):] = a[0] if fill is None else fill
    return out


def _nearest(b):
    """Per body: the row of its least offset, and that offset."""
    i = np.argmin(b, axis=1)
    r = b[np.arange(len(b)), i]
    if np.any(np.isinf(r)):
        raise DegenerateInputError("ran out of constraints while slicing")
    if np.any(r <= 0):
        raise DegenerateInputError("slice lost the origin; degenerate body")
    return i, r


def _rotate_and_slice(A, b, i):
    """Householder Q taking each body's row i to e_1, the rows A Q^T, and their
    slice {x_1 = 0}, with the rows left without a normal masked."""
    W = A[np.arange(len(i)), i]
    W[:, 0] -= 1.0
    nw = vector_norms(W)
    far = nw >= 1e-14
    W /= np.where(far, nw, 1.0)[:, None]
    Q = np.eye(W.shape[1]) - 2.0 * (W[:, :, None] * W[:, None, :])
    Q[~far] = np.eye(W.shape[1])
    A = A @ Q.transpose(0, 2, 1)
    norms = np.linalg.norm(A[..., 1:], axis=-1)
    keep = norms > 1e-12
    if np.any(b[~keep] < -1e-12):
        raise DegenerateInputError("inconsistent slice constraints")
    norms[~keep] = 1.0
    A2 = np.where(keep[..., None], A[..., 1:] / norms[..., None], 0.0)
    return Q, A, A2, np.where(keep, b / norms, np.inf)


@dataclass(frozen=True)
class BoxBound:
    """Box radii with the aligning rotation: |(rotation @ x)_a| <= radii_a."""

    radii: np.ndarray
    rotation: np.ndarray
    base_distances: np.ndarray   # per-level minimum boundary distances r_k
    slack: float                 # worst slack of the containment check

    @property
    def dim(self) -> int:
        return self.radii.size

    @property
    def contained(self) -> bool:
        return self.slack >= -config.CONTAINMENT_SLACK


def box_lemma_bounds(bodies) -> list[BoxBound]:
    """The cascaded box of each body of a stack of one dimension, with the
    worst slack of its containment check over its vertices (``contained`` is
    false if it fails).  r_1 is the least facet-plane distance, which is
    exact."""
    if not bodies:
        return []
    A = _stack([body._normals for body in bodies], 0.0)
    b = _stack([body._offsets for body in bodies], np.inf)
    norms = np.linalg.norm(A, axis=2)
    norms[np.isinf(b)] = 1.0
    A, b = A / norms[..., None], b / norms
    k, n = len(bodies), bodies[0].dim
    base = np.empty((k, n))
    rotation = np.tile(np.eye(n), (k, 1, 1))
    for level in range(n):
        i, base[:, level] = _nearest(b)
        if level == n - 1:
            break
        Q, _, A, b = _rotate_and_slice(A, b, i)
        full = np.tile(np.eye(n), (k, 1, 1))
        full[:, level:, level:] = Q
        rotation = full @ rotation
    radii = base * 2.0 ** np.arange(n)
    slack, _ = _worst_slack(bodies, radii, rotation)
    return [BoxBound(radii[j], rotation[j], base[j], float(slack[j]))
            for j in range(k)]


def box_lemma_bound(body: SymmetricBody) -> BoxBound:
    """``box_lemma_bounds`` of one body; raises LemmaViolationError, with the
    worst vertex as witness, when the containment check fails."""
    bound = box_lemma_bounds([body])[0]
    if not bound.contained:
        _, worst, witness = brute_force_containment(body, bound.radii, bound.rotation)
        raise LemmaViolationError(f"box containment failed by {-worst:.3e}", witness=witness)
    return bound


def _worst_slack(bodies, radii, rotation):
    """Per body of a stack: the least box slack over its vertices, and the
    vertex that has it."""
    pts = _stack([body.vertices for body in bodies])
    per_point = (radii[:, None, :] - np.abs(pts @ rotation.transpose(0, 2, 1))).min(axis=2)
    i = np.argmin(per_point, axis=1)
    return per_point[np.arange(len(i)), i], pts[np.arange(len(i)), i]


def brute_force_containment(body: SymmetricBody, radii, rotation):
    """(contained, worst slack, witness): the exact check over the vertices."""
    worst, pts = _worst_slack([body], np.asarray(radii, dtype=float)[None],
                              np.asarray(rotation, dtype=float)[None])
    worst = float(worst[0])
    ok = worst >= -config.CONTAINMENT_SLACK
    return ok, worst, None if ok else pts[0]


def slope_checks(bodies):
    """For n = 2, per body of a stack: the supporting-line slope bound at the
    slice-extreme point, on the raw facet tables.

    After rotating the minimizing direction onto e_1, the slice {x_1 = 0} is
    the segment [-r_2, r_2] e_2, and any supporting line x_2 = a_1 x_1 + r_2 at
    (0, r_2) must satisfy |a_1| <= sqrt((r_2/r_1)^2 - 1).  Returns
    (max |slope| over facets through the point, bound) per body.
    """
    if any(body.dim != 2 for body in bodies):
        raise DegenerateInputError("slope check is a planar statement")
    if not bodies:
        return []
    A = _stack([body._normals for body in bodies], 0.0)
    b = _stack([body._offsets for body in bodies], np.inf)
    i, r1 = _nearest(b)
    _, A, _, b2 = _rotate_and_slice(A, b, i)
    r2 = np.min(b2, axis=1)
    # A @ (0, r_2) is A[:, 1] r_2, rounded once; the +inf pad is never active
    active = np.abs(A[..., 1] * r2[:, None] - b) <= 1e-9 * np.maximum(1.0, r2)[:, None]
    if not np.all(np.any(active, axis=1)):
        raise DegenerateInputError("no supporting facet at the slice extreme")
    slopes = np.where(active, np.abs(A[..., 0] / np.where(active, A[..., 1], 1.0)), -np.inf)
    return [(float(s), float(np.sqrt(max((float(q) / float(p)) ** 2 - 1.0, 0.0))))
            for s, p, q in zip(slopes.max(axis=1), r1, r2)]


def slope_check(body: SymmetricBody):
    """``slope_checks`` of one planar body: (max |slope|, bound)."""
    return slope_checks([body])[0]


def random_symmetric_polytope(dim: int, pairs: int,
                              stream: SampleStream) -> SymmetricBody:
    """Hull of `pairs` random points and their exact negatives, anisotropic."""
    for _ in range(50):
        scales = np.exp(stream.uniform(dim, -0.7, 0.7))
        P = stream.normal((pairs, dim)) * scales[None, :]
        try:
            body = SymmetricBody(vertices=P)
        except (DegenerateInputError, NotInteriorError):
            continue
        return body
    raise DegenerateInputError("could not draw a nondegenerate polytope")
