"""The gauge-body section search as ``invmet.domains`` wrote it before its
ring tables were cached and its starting brackets took one gauge call: an
oracle that the faster search must match bit for bit.

``_edge_feet`` and ``_polygon_search`` are the module functions and
``_hit_brackets`` is the ``BalancedConvex`` method, copied verbatim; a test
swaps them in with ``monkeypatch``.  A change to the search's algorithm, which
moves its bits, deletes this module and the tests that read it.
"""

import math

import numpy as np

from invmet.errors import DegenerateInputError
from invmet.sampling import row_norms


def _edge_feet(a, b):
    """The foot of 0 on each segment [a, b] of the complex plane."""
    seg = b - a
    L2 = np.abs(seg) ** 2
    ts = np.clip(-np.real(a * np.conj(seg)) / np.where(L2 > 0, L2, 1.0), 0.0, 1.0)
    return a + ts * seg


def _polygon_search(margin, X, D, phase, lo, f_lo, hi, f_hi, width):
    """The polygon inscribed in each row's section, searched on its rays.

    Row r has the rays t -> X[k] + t D[k], k = r * rays + j, D[k] = vhat
    phase[j], with ``phase`` the rays' equally spaced directions: in section
    coordinates around X[k] ray j runs along phase[j], and edge j joins its
    vertex to that of ray j + 1.  ``margin`` maps a stack of points to values
    > 0 exactly inside; on entry f_lo = margin > 0 at lo and f_hi = margin
    <= 0 at hi.  Each ray takes a secant step through its two latest
    iterates, kept about the points' rounding resolution away from both
    ends, and takes the bracket's midpoint instead when the secant leaves
    [lo, hi] or the bracket has not halved in three steps.

    A ray stops once hi is the next double above lo or hi - lo <= width, or
    once neither edge at its vertex can be the nearest.  An edge's distance
    from X lies between cos(pi / rays) times its nearer vertex's distance
    (its points' projection on the edge's bisecting ray) and that distance.
    Inside ends only move out, so cos(pi / rays) min(lo) over a ray and its
    two neighbours bounds both its edges' final distances below, and the
    row's least hi bounds the final minimum above.  A ray whose lower bound
    passes that minimum by more than 1e-12 of the row's farthest outside end
    (the edge distances round within a few eps of it) keeps its edges
    farther than the nearest one.  So every ray that can carry the nearest
    edge runs to the end, and as each ray's iterates depend on its own
    margins alone, the nearest edge, its distance and its foot are those of
    searching every ray to the end, bit for bit, if ``margin`` rounds a
    point alike in every stack.

    Returns (lo, hi, k): per row and ray (rows, rays) the last evaluated
    parameter inside and the first evaluated parameter outside, and per row
    the nearest edge of the polygon of the inside ends.
    """
    eps, rays = np.finfo(float).eps, phase.size
    rows = lo.size // rays
    ring = np.arange(lo.size).reshape(rows, rays)
    LO, HI = lo.copy(), hi.copy()
    slack = 1e-12 * HI.reshape(rows, rays).max(axis=1)
    # per live ray: its index, row and neighbours' indices, the parameter
    # step that moves a point by about one rounding unit, the two latest
    # iterates and their margins, and the bracket's half-widths three, two
    # and one steps ago
    idx, row, Xl, Dl = ring.ravel(), np.repeat(np.arange(rows), rays), X, D
    prv, nxt = np.roll(ring, 1, axis=1).ravel(), np.roll(ring, -1, axis=1).ravel()
    res = eps * row_norms(X) / row_norms(D)
    a, fa, b, fb = lo, f_lo, hi, f_hi
    h3 = h2 = h1 = np.full(lo.size, np.inf)
    cos = math.cos(math.pi / rays)
    while True:
        least = (HI.reshape(rows, rays).min(axis=1) + slack)[row]
        reach = cos * np.minimum(np.minimum(LO[prv], lo), LO[nxt]) <= least
        live = reach & (hi > np.nextafter(lo, np.inf)) & (hi - lo > width)
        if not live.all():
            keep = np.flatnonzero(live)
            idx, row, prv, nxt, Xl, Dl, lo, hi, res, a, fa, b, fb, h3, h2, h1 = (
                v[keep] for v in (idx, row, prv, nxt, Xl, Dl, lo, hi, res,
                                  a, fa, b, fb, h3, h2, h1))
            if not idx.size:
                break
        half = 0.5 * (hi - lo)
        # equal margins give no secant: nan, and so the midpoint
        s = b - fb * (b - a) / np.where(fb != fa, fb - fa, np.nan)
        s = np.where((s >= lo) & (s <= hi) & (half <= 0.5 * h3), s, lo + half)
        # at least one double in from each end (the midpoint once the bracket
        # is that narrow), so each evaluation shrinks the bracket
        nudge = np.minimum(res + 2.0 * eps * hi, half)
        s = np.maximum(np.minimum(s, hi - nudge), lo + nudge)
        Z = Dl * s[:, None]
        Z += Xl
        f = margin(Z)
        inside = f > 0
        lo, hi = np.where(inside, s, lo), np.where(inside, hi, s)
        LO[idx], HI[idx] = lo, hi
        a, fa, b, fb = b, fb, s, f
        h3, h2, h1 = h2, h1, half
    LO, HI = LO.reshape(rows, rays), HI.reshape(rows, rays)
    a = LO * phase
    return LO, HI, np.abs(_edge_feet(a, np.roll(a, -1, axis=1))).argmin(axis=1)


def _hit_brackets(self, X, D, gx, gv):
    """Evaluated brackets (lo, f_lo, hi, f_hi) of the boundary hits of the
    rays X[k] + t D[k], for unit D[k] = vhat e^{i theta}, g(X[k]) = gx[k]
    and g(vhat) = gv[k]; f is the margin 1 - g.

    The gauge is subadditive and g(vhat e^{i theta}) = g(vhat), so each
    hit lies in [t0, t1] = [(1 - g(x)) / g(vhat), (1 + g(x)) / g(vhat)].
    Both ends are evaluated, one call each to halve the peak memory, and
    a ray whose end rounding puts on the wrong side falls back on t = 0
    (inside, as g(x) < 1) or on t = 2R.
    """
    t0, t1 = (1.0 - gx) / gv, (1.0 + gx) / gv
    f0, f1 = (1.0 - self.gauge(X + t[:, None] * D) for t in (t0, t1))
    inner = f0 > 0
    lo, f_lo = np.where(inner, t0, 0.0), np.where(inner, f0, 1.0 - gx)
    hi, f_hi = np.where(inner, t1, t0), np.where(inner, f1, f0)
    short = f_hi > 0
    if np.any(short):
        lo[short], f_lo[short] = hi[short], f_hi[short]
        hi[short] = 2.0 * self.bounding_radius
        f_hi[short] = 1.0 - self.gauge(X[short] + hi[short, None] * D[short])
        if np.any(f_hi > 0):
            raise DegenerateInputError(
                "declared bounding radius does not contain the body")
    return lo, f_lo, hi, f_hi
