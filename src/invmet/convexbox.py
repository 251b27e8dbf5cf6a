"""Rotated-box containment for centrally symmetric convex bodies in R^n.

The cascade result: if r_1 is the minimum distance from the origin to the
boundary, rotate the minimizing direction onto e_1; then the body is contained
in [-r_1, r_1] x 2*B', where B' is the box obtained by repeating the procedure
on the slice {x_1 = 0}.  Unwinding gives box radii (r_1, 2 r_2, 4 r_3, ...,
2^{n-1} r_n), where r_k is the minimum boundary distance of the (k-1)-fold
slice.  Every box carries the worst slack of its containment check.

``box_lemma_bounds`` runs each level once over a stack of bodies of one
dimension, on their half-space tables (``halfspace_data``): the facets of a
vertex body, whose ``vertices`` are the given points mirrored through 0, or
the mirrored cloud of sampled outer half-spaces of a support-oracle body.
Tables are padded to the stack's most rows with normal 0 and offset +inf, which
no argmin picks; a slice masks the rows it loses the same way, and the
containment check pads each point set with its first point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import DegenerateInputError, LemmaViolationError, NotInteriorError
from .sampling import SampleStream


class SymmetricBody:
    """Centrally symmetric bounded convex body, as vertices or a support oracle.

    ``SymmetricBody(vertices=P)`` is the convex hull of P and -P, so it is
    symmetric by construction; oracle bodies expose the support function
    h(u) = sup{x . u : x in body}, checked for symmetry on samples.
    """

    def __init__(self, vertices=None, support=None, dim: int | None = None,
                 seed: int = 0):
        if (vertices is None) == (support is None):
            raise DegenerateInputError("provide exactly one of vertices, support")
        if vertices is not None:
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
            self._normals = np.vstack([W, -W])
            self._offsets = np.concatenate([hw, hw])

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
        return self._normals.copy(), self._offsets.copy()

    def radial(self, U):
        """Boundary distance from the origin along unit directions (rows).
        A row whose normal makes a product below 1e-15 with u counts at 1e-15:
        b / 1e-15 is past the circumradius when every offset b is above 1e-15
        of it, as the constructor ensures on vertex bodies.  Blocks of 256 to
        511 directions bound the product's memory; only a one-row U makes a
        one-row block, which BLAS would round apart as matrix-vector."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        out = []
        for block in np.array_split(U, max(1, len(U) // 256)):
            t = block @ self._normals.T
            np.maximum(t, 1e-15, out=t)
            out.append(np.divide(self._offsets, t, out=t).min(axis=1))
        return np.concatenate(out)


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
    # |w| as a dot product per row, which rounds as the 1-D np.linalg.norm
    nw = np.sqrt((W[:, None, :] @ W[:, :, None])[:, 0, 0])
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


def box_lemma_bounds(bodies, *, seed: int = 0) -> list[BoxBound]:
    """The cascaded box of each body of a stack of one dimension, with the
    worst slack of its containment check (``contained`` is false if it fails).
    r_1 is the least facet-plane distance of a vertex body, which is exact,
    and the least offset of an oracle body's half-space cloud."""
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
    slack, _ = _worst_slack(bodies, radii, rotation, seed=seed)
    return [BoxBound(radii[j], rotation[j], base[j], float(slack[j]))
            for j in range(k)]


def box_lemma_bound(body: SymmetricBody, *, seed: int = 0) -> BoxBound:
    """``box_lemma_bounds`` of one body; raises LemmaViolationError, with the
    worst point as witness, when the containment check fails."""
    bound = box_lemma_bounds([body], seed=seed)[0]
    if not bound.contained:
        _, worst, witness = brute_force_containment(body, bound.radii,
                                                    bound.rotation, seed=seed)
        raise LemmaViolationError(f"box containment failed by {-worst:.3e}", witness=witness)
    return bound


def _worst_slack(bodies, radii, rotation, samples=10_000, seed=0):
    """Per body of a stack: the least box slack over its vertices, or over its
    boundary points along sampled directions, and the point that has it."""
    pts = []
    for body in bodies:
        if body.is_vertex_body:
            pts.append(body.vertices)
        else:
            U = SampleStream(seed).unit_directions(samples, body.dim, field="real")
            pts.append(body.radial(U)[:, None] * U)
    pts = _stack(pts)
    per_point = (radii[:, None, :] - np.abs(pts @ rotation.transpose(0, 2, 1))).min(axis=2)
    i = np.argmin(per_point, axis=1)
    return per_point[np.arange(len(i)), i], pts[np.arange(len(i)), i]


def brute_force_containment(body: SymmetricBody, radii, rotation, *,
                            samples: int = 10_000, seed: int = 0):
    """(contained, worst slack, witness): exact vertex check or sampled boundary."""
    worst, pts = _worst_slack([body], np.asarray(radii, dtype=float)[None],
                              np.asarray(rotation, dtype=float)[None], samples, seed)
    worst = float(worst[0])
    ok = worst >= -config.CONTAINMENT_SLACK
    return ok, worst, None if ok else pts[0]


def slope_checks(bodies):
    """For n = 2, per body of a stack: the supporting-line slope bound at the
    slice-extreme point, on the raw ``halfspace_data`` tables.

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
