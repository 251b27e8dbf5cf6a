"""Independent references for checking the benchmark's outputs.

Every benchmark domain is described by a plain spec dict, and this module
answers from the spec alone, with no call into ``invmet``:

- ``exact_metric`` and ``exact_distance`` give the closed forms on the model
  kinds (polydisc, ball, upper half-plane product), on their affine images and
  on ellipsoids ``{|Cz| < 1}``; other kinds return None.
- ``inside`` is vectorized membership for every kind.
- ``ray_exit`` is the distance from 0 to the boundary along a unit ray, for
  the kinds that contain 0; the input generators place points with it.

Spec kinds: ``polydisc`` (radii), ``ball`` (dim), ``halfplane`` (dim),
``affine`` (inner, matrix, translation; the image ``matrix @ z + translation``),
``polyhedron`` (the ``load_domain`` JSON layout), ``balanced`` (the
``load_domain`` funcs layout) and ``ellipsoid`` (matrix C).
"""

from __future__ import annotations

import numpy as np


def cplx(obj):
    """Complex array from nested ``[re, im]`` pairs (the JSON layout)."""
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def pairs(z):
    """Nested ``[re, im]`` lists of a complex array, exact under ``repr``."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).tolist()


def _faces(spec):
    W, wd, wc, A, ab = [], [], [], [], []
    for f in spec["faces"]:
        if f["type"] == "modulus":
            W.append(cplx(f["coeffs"]))
            wd.append(complex(*f.get("const", [0.0, 0.0])))
            wc.append(f["bound"])
        else:
            A.append(cplx(f["normal"]))
            ab.append(f["offset"])
    n = spec["dim"]
    return (np.array(W).reshape(-1, n), np.array(wd, dtype=complex),
            np.array(wc, dtype=float), np.array(A).reshape(-1, n),
            np.array(ab, dtype=float))


def _funcs(spec):
    C = np.array([cplx(f["coeffs"]) for f in spec["funcs"]])
    s = np.array([f["scale"] for f in spec["funcs"]], dtype=float)
    return C, s


def _affine(spec):
    M = cplx(spec["matrix"])
    t = cplx(spec["translation"])
    return M, t, np.linalg.inv(M)


def inside(spec, Z):
    """Boolean membership for rows of Z (strict interior)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    kind = spec["kind"]
    if kind == "polydisc":
        return np.all(np.abs(Z) < np.asarray(spec["radii"])[None, :], axis=1)
    if kind == "ball":
        return np.sum(np.abs(Z) ** 2, axis=1) < 1.0
    if kind == "halfplane":
        return np.all(Z.imag > 0, axis=1)
    if kind == "affine":
        M, t, Minv = _affine(spec)
        return inside(spec["inner"], (Z - t[None, :]) @ Minv.T)
    if kind == "polyhedron":
        W, wd, wc, A, ab = _faces(spec)
        ok = np.all(np.abs(Z @ W.T + wd[None, :]) < wc[None, :], axis=1)
        return ok & np.all(np.real(Z @ A.conj().T) < ab[None, :], axis=1)
    if kind == "balanced":
        C, s = _funcs(spec)
        return np.max(np.abs(Z @ C.T) / s[None, :], axis=1) < 1.0
    if kind == "ellipsoid":
        return np.linalg.norm(Z @ cplx(spec["matrix"]).T, axis=1) < 1.0
    raise ValueError(f"no membership for kind {kind!r}")


def ray_exit(spec, u):
    """Largest t with t*u in the closure, for unit u; the domain contains 0."""
    u = np.asarray(u, dtype=complex)
    kind = spec["kind"]
    if kind == "polydisc":
        r = np.asarray(spec["radii"])
        au = np.abs(u)
        return float(np.min(np.where(au > 0, r / np.where(au > 0, au, 1.0), np.inf)))
    if kind == "ball":
        return 1.0
    if kind == "polyhedron":
        W, wd, wc, A, ab = _faces(spec)
        t = np.inf
        for a, d, b in zip(W @ u, wd, wc):
            # |t a + d| = b, the positive root (|d| < b keeps 0 inside)
            aa = abs(a) ** 2
            if aa > 0:
                p = np.real(a * np.conj(d))
                t = min(t, (-p + np.sqrt(p * p - aa * (abs(d) ** 2 - b * b))) / aa)
        for s, b in zip(np.real(A.conj() @ u), ab):
            if s > 0:
                t = min(t, b / s)
        return float(t)
    if kind == "balanced":
        C, s = _funcs(spec)
        return float(1.0 / np.max(np.abs(C @ u) / s))
    if kind == "ellipsoid":
        return float(1.0 / np.linalg.norm(cplx(spec["matrix"]) @ u))
    raise ValueError(f"no ray exit for kind {kind!r}")


def _ball_metric(P, V):
    s2 = 1.0 - np.sum(np.abs(P) ** 2, axis=1)
    nv2 = np.sum(np.abs(V) ** 2, axis=1)
    c2 = np.abs(np.sum(V * P.conj(), axis=1)) ** 2
    return np.sqrt(s2 * nv2 + c2) / s2


def exact_metric(spec, P, V):
    """Closed-form metric K(P_i; V_i) for row-paired stacks, or None."""
    P = np.atleast_2d(np.asarray(P, dtype=complex))
    V = np.atleast_2d(np.asarray(V, dtype=complex))
    kind = spec["kind"]
    if kind == "polydisc":
        r = np.asarray(spec["radii"])[None, :]
        return np.max(r * np.abs(V) / (r ** 2 - np.abs(P) ** 2), axis=1)
    if kind == "ball":
        return _ball_metric(P, V)
    if kind == "halfplane":
        return np.max(np.abs(V) / (2.0 * P.imag), axis=1)
    if kind == "affine":
        M, t, Minv = _affine(spec)
        return exact_metric(spec["inner"], (P - t[None, :]) @ Minv.T, V @ Minv.T)
    if kind == "ellipsoid":
        C = cplx(spec["matrix"])
        return _ball_metric(P @ C.T, V @ C.T)
    return None


def _atanh_ball(x, Y):
    # tanh^2 d = 1 - (1 - |x|^2)(1 - |y|^2) / |1 - <x, y>|^2, with the
    # numerator rewritten as |x - y|^2 - (|x|^2 |y|^2 - |<x, y>|^2) and the
    # bracket as the Lagrange sum, so that it stays accurate as y -> x
    wedge = x[None, :, None] * Y[:, None, :] - x[None, None, :] * Y[:, :, None]
    num = (np.sum(np.abs(Y - x[None, :]) ** 2, axis=1)
           - 0.5 * np.sum(np.abs(wedge) ** 2, axis=(1, 2)))
    den = np.abs(1.0 - Y.conj() @ x) ** 2
    return np.arctanh(np.sqrt(np.maximum(0.0, num / den)))


def exact_distance(spec, x, Y):
    """Closed-form distances from x to each row of Y (standard atanh
    convention), or None."""
    x = np.asarray(x, dtype=complex)
    Y = np.atleast_2d(np.asarray(Y, dtype=complex))
    kind = spec["kind"]
    if kind == "polydisc":
        r = np.asarray(spec["radii"])[None, :]
        a, B = x[None, :] / r, Y / r
        return np.max(np.arctanh(np.abs((a - B) / (1.0 - np.conj(a) * B))), axis=1)
    if kind == "ball":
        return _atanh_ball(x, Y)
    if kind == "halfplane":
        return np.max(np.arctanh(np.abs((x[None, :] - Y) / (x[None, :] - np.conj(Y)))),
                      axis=1)
    if kind == "affine":
        M, t, Minv = _affine(spec)
        return exact_distance(spec["inner"], Minv @ (x - t), (Y - t[None, :]) @ Minv.T)
    if kind == "ellipsoid":
        C = cplx(spec["matrix"])
        return _atanh_ball(C @ x, Y @ C.T)
    return None
