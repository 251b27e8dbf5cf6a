"""Rotated-box containment for centrally symmetric convex bodies in R^n.

The cascade result: if r_1 is the minimum distance from the origin to the
boundary, rotate the minimizing direction onto e_1; then the body is contained
in [-r_1, r_1] x 2*B', where B' is the box obtained by repeating the procedure
on the slice {x_1 = 0}.  Unwinding gives box radii (r_1, 2 r_2, 4 r_3, ...,
2^{n-1} r_n), where r_k is the minimum boundary distance of the (k-1)-fold
slice.  Every computed box is checked by ``brute_force_containment`` before it
is returned, and carries the worst slack of that check.

Every level reads the body's half-space table (``halfspace_data``).  Vertex
bodies answer every query exactly from their facets, so there r_1 is the least
facet-plane distance.  Support-oracle bodies keep a mirrored cloud of sampled
outer half-spaces, whose least offset is at least the support minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import DegenerateInputError, LemmaViolationError, NotInteriorError
from .sampling import SampleStream


class SymmetricBody:
    """Centrally symmetric bounded convex body, as vertices or a support oracle.

    Vertex bodies are convex hulls of an exactly symmetric point list; oracle
    bodies expose the support function h(u) = sup{x . u : x in body}, checked
    for symmetry on samples.
    """

    def __init__(self, vertices=None, support=None, dim: int | None = None,
                 seed: int = 0):
        if (vertices is None) == (support is None):
            raise DegenerateInputError("provide exactly one of vertices, support")
        if vertices is not None:
            V = np.asarray(vertices, dtype=float)
            if V.ndim != 2 or V.shape[0] < 2:
                raise DegenerateInputError("vertex list must be a 2d point array")
            self.dim = V.shape[1]
            scale = float(np.max(np.linalg.norm(V, axis=1)))
            if scale == 0:
                raise DegenerateInputError("degenerate (zero) body")
            # central symmetry: every vertex must have its exact negative
            gaps = np.linalg.norm(V[:, None, :] + V[None, :, :], axis=2)
            if np.max(np.min(gaps, axis=1)) > 1e-9 * scale:
                raise DegenerateInputError("vertex list is not symmetric")
            from scipy.spatial import ConvexHull, QhullError
            try:
                hull = ConvexHull(V)
            except QhullError as exc:
                raise DegenerateInputError(f"degenerate vertex body: {exc}")
            self.vertices = V
            self._facet_normals = hull.equations[:, :-1]
            self._facet_offsets = -hull.equations[:, -1]
            norms = np.linalg.norm(self._facet_normals, axis=1)
            self._facet_normals /= norms[:, None]
            self._facet_offsets /= norms
            if np.min(self._facet_offsets) <= 1e-12 * scale:
                raise NotInteriorError("origin is not interior to the body")
            self._support = None
        else:
            if dim is None or dim < 1:
                raise DegenerateInputError("support-oracle bodies need dim")
            self.dim = int(dim)
            self.vertices = None
            self._support = support
            stream = SampleStream(seed)
            U = stream.unit_directions(128, self.dim, field="real")
            h = np.array([float(support(u)) for u in U])
            hm = np.array([float(support(-u)) for u in U])
            if np.any(~np.isfinite(h)) or np.any(h <= 0):
                raise DegenerateInputError("support values must be finite positive")
            if np.max(np.abs(h - hm)) > 1e-9 * np.max(h):
                raise DegenerateInputError("support function is not symmetric")
            # cached outer half-space cloud for radial evaluations; mirrored
            # so the induced polyhedron is exactly centrally symmetric (the
            # cascade's projection-vs-section step needs symmetry)
            W = stream.unit_directions(2048, self.dim, field="real")
            hw = np.array([0.5 * (float(support(u)) + float(support(-u)))
                           for u in W])
            self._cloud_dirs = np.vstack([W, -W])
            self._cloud_h = np.concatenate([hw, hw])

    # -- oracles ------------------------------------------------------------
    @property
    def is_vertex_body(self) -> bool:
        return self.vertices is not None

    def support_value(self, U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if self.is_vertex_body:
            return np.max(U @ self.vertices.T, axis=1)
        return np.array([float(self._support(u)) for u in U])

    def halfspace_data(self):
        """(normals, offsets) with unit rows; exact facets or a sampled cloud."""
        if self.is_vertex_body:
            return self._facet_normals.copy(), self._facet_offsets.copy()
        return self._cloud_dirs.copy(), self._cloud_h.copy()

    def radial(self, U):
        """Boundary distance from the origin along unit directions (rows)."""
        A, b = self.halfspace_data()
        U = np.atleast_2d(np.asarray(U, dtype=float))
        proj = U @ A.T
        with np.errstate(divide="ignore"):
            t = np.where(proj > 1e-15, b[None, :] / np.where(proj > 1e-15, proj, 1.0),
                         np.inf)
        return t.min(axis=1)


def _householder_to_e1(u: np.ndarray) -> np.ndarray:
    """Orthogonal (reflection) matrix Q with Q @ u = e_1, for unit u."""
    m = u.size
    e1 = np.zeros(m)
    e1[0] = 1.0
    w = u - e1
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(m)
    w /= nw
    return np.eye(m) - 2.0 * np.outer(w, w)


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


def _slice_halfspaces(A, b):
    """H-representation of the slice {x_1 = 0}: drop the first column."""
    A2 = A[:, 1:]
    norms = np.linalg.norm(A2, axis=1)
    keep = norms > 1e-12
    if np.any(b[~keep] < -1e-12):
        raise DegenerateInputError("inconsistent slice constraints")
    A2 = A2[keep] / norms[keep][:, None]
    return A2, b[keep] / norms[keep]


def box_lemma_bound(body: SymmetricBody, *, seed: int = 0) -> BoxBound:
    """Compute the cascaded box and verify containment by brute force.

    Every level slices ``halfspace_data``: on vertex bodies r_1 is the least
    facet-plane distance, which is exact, and on oracle bodies it is the least
    offset of the half-space cloud.  Raises LemmaViolationError when the check
    fails; otherwise ``slack`` is its worst slack.
    """
    n = body.dim
    A, b = body.halfspace_data()
    norms = np.linalg.norm(A, axis=1)
    A, b = A / norms[:, None], b / norms

    base = []
    rotation = np.eye(n)
    for level in range(n):
        m = n - level
        if A.shape[0] == 0:
            raise DegenerateInputError("ran out of constraints while slicing")
        i = int(np.argmin(b))
        r = float(b[i])
        if r <= 0:
            raise DegenerateInputError("slice lost the origin; degenerate body")
        base.append(r)
        if m == 1:
            break
        Q = _householder_to_e1(A[i])
        A = A @ Q.T
        full = np.eye(n)
        full[level:, level:] = Q
        rotation = full @ rotation
        A, b = _slice_halfspaces(A, b)
    base = np.array(base)
    radii = base * 2.0 ** np.arange(n)
    ok, worst, witness = brute_force_containment(body, radii, rotation, seed=seed)
    if not ok:
        raise LemmaViolationError(
            f"box containment failed by {-worst:.3e}", witness=witness)
    return BoxBound(radii, rotation, base, worst)


def brute_force_containment(body: SymmetricBody, radii, rotation, *,
                            samples: int = 10_000, seed: int = 0):
    """(contained, worst slack, witness): exact vertex check or sampled boundary."""
    radii = np.asarray(radii, dtype=float)
    rotation = np.asarray(rotation, dtype=float)
    if body.is_vertex_body:
        pts = body.vertices
    else:
        U = SampleStream(seed).unit_directions(samples, body.dim, field="real")
        pts = body.radial(U)[:, None] * U
    W = pts @ rotation.T
    slacks = radii[None, :] - np.abs(W)
    per_point = slacks.min(axis=1)
    i = int(np.argmin(per_point))
    worst = float(per_point[i])
    ok = worst >= -config.CONTAINMENT_SLACK
    witness = None if ok else pts[i]
    return ok, worst, witness


def slope_check(body: SymmetricBody):
    """For n = 2: the supporting-line slope bound at the slice-extreme point.

    After rotating the minimizing direction onto e_1, the slice {x_1 = 0} is
    the segment [-r_2, r_2] e_2, and any supporting line x_2 = a_1 x_1 + r_2 at
    (0, r_2) must satisfy |a_1| <= sqrt((r_2/r_1)^2 - 1).  Returns
    (max |slope| over facets through the point, bound).

    Like ``box_lemma_bound``, the check runs on ``halfspace_data``: r_1, its
    direction, the slice and the facets all come from one polytope, the
    facets of a vertex body or the half-space cloud of an oracle body.
    """
    if body.dim != 2:
        raise DegenerateInputError("slope check is a planar statement")
    A, b = body.halfspace_data()
    i = int(np.argmin(b))
    r1, u = float(b[i]), A[i]
    Q = _householder_to_e1(u)
    A = A @ Q.T
    A2, b2 = _slice_halfspaces(A, b)
    r2 = float(np.min(b2))
    top = np.array([0.0, r2])
    active = np.abs(A @ top - b) <= 1e-9 * max(1.0, r2)
    if not np.any(active):
        raise DegenerateInputError("no supporting facet at the slice extreme")
    slopes = -A[active, 0] / A[active, 1]
    bound = float(np.sqrt(max((r2 / r1) ** 2 - 1.0, 0.0)))
    return float(np.max(np.abs(slopes))), bound


def random_symmetric_polytope(dim: int, pairs: int,
                              stream: SampleStream) -> SymmetricBody:
    """Hull of `pairs` random points and their exact negatives, anisotropic."""
    for _ in range(50):
        scales = np.exp(stream.uniform(dim, -0.7, 0.7))
        P = stream.normal((pairs, dim)) * scales[None, :]
        V = np.vstack([P, -P])
        try:
            body = SymmetricBody(vertices=V)
        except (DegenerateInputError, NotInteriorError):
            continue
        return body
    raise DegenerateInputError("could not draw a nondegenerate polytope")
