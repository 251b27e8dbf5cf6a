"""The benchmark's workloads: seeded inputs, one pass of operations, checks.

``WORKLOADS[name](seed, out_dir)`` builds a workload in three steps:

- The inputs are plain data (specs, points, directions): a fixed template
  population, moved by a symmetry drawn from ``numpy.random.default_rng(seed)``
  (see MASTER_SEED). The parent commit and a change see byte-identical inputs;
  ``Workload.digest`` hashes them.
- ``Workload.setup()`` builds the program-side domains, warms every code path
  once and returns the fixed list of ``Op`` that makes one pass, interleaved
  (see ``interleave``).
- ``run_pass(ops, clock)`` runs every op once and records when each started
  and ended; ``check(op, out, err)`` compares each output with ``reference``
  afterwards, outside the timed region.

Every call goes through an attribute of ``invmet`` (or ``invmet.cli``) at call
time, so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import invmet
import invmet.cli
import reference as ref

# Kinds whose brackets must collapse to the closed form.
CLOSED_KINDS = ("model", "affine")
# Relative slack for "the bracket encloses the reference value": the bracket
# ends and the reference are computed in different floating-point orders.
ENCLOSE_RTOL = 1e-9

THREE_FACE = {"kind": "polyhedron", "dim": 2, "bounding_radius": 2 ** 0.5, "faces": [
    {"type": "modulus", "coeffs": [[1.0, 0.0], [0.0, 0.0]], "bound": 1.0},
    {"type": "modulus", "coeffs": [[0.0, 0.0], [1.0, 0.0]], "bound": 1.0},
    {"type": "modulus", "coeffs": [[1.0, 0.0], [1.0, 0.0]], "bound": 1.5}]}
POLYDISC2 = {"kind": "polydisc", "radii": [1.0, 1.0]}
BALL2 = {"kind": "ball", "dim": 2}
# zoo "balanced": gauge max(|z_1|, |z_1 + z_2| / 1.2)
BALANCED_ZOO = {"kind": "balanced", "dim": 2, "funcs": [
    {"coeffs": [[1.0, 0.0], [0.0, 0.0]], "scale": 1.0},
    {"coeffs": [[1.0, 0.0], [1.0, 0.0]], "scale": 1.2}]}


def _twin(inner):
    T = invmet.zoo.twin_map(2)
    return {"kind": "affine", "inner": inner,
            "matrix": ref.pairs(T.linear.matrix), "translation": ref.pairs(T.translation)}


# Every seed does the same work: the bodies, points and directions are a fixed
# template population drawn from MASTER_SEED, and ``--seed`` draws a symmetry
# of each body that moves its template inputs. Spec-built bodies get a random
# unitary change of coordinates; zoo bodies get a symmetry of their own
# (coordinate phases, a common phase, a unitary map of the ball, a real shift
# of the half-plane), conjugated through the map of an affine twin. So the
# inputs differ from seed to seed while the cost of each operation, which for
# quadrature and bisection depends on the geometry, does not.
MASTER_SEED = 20230620

# zoo name -> (kind, reference spec of the same set, symmetry)
ZOO = {
    "disc": ("model", {"kind": "polydisc", "radii": [1.0]}, "phases"),
    "polydisc2": ("model", POLYDISC2, "phases"),
    "ball2": ("model", BALL2, "unitary"),
    "halfplane": ("model", {"kind": "halfplane", "dim": 1}, "shift"),
    "sheared_polydisc": ("affine", _twin(POLYDISC2), "phases"),
    "turned_ball": ("affine", _twin(BALL2), "unitary"),
    "three_face": ("polyhedron", THREE_FACE, "phase"),
    "balanced": ("balanced_spec", BALANCED_ZOO, "phase"),
}


class CheckFailed(Exception):
    pass


def unitary(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))[None, :]


@dataclass
class Symmetry:
    """z -> L z + c on points and v -> L v on directions."""

    L: np.ndarray
    c: np.ndarray

    def points(self, Z):
        return np.asarray(Z) @ self.L.T + self.c[None, :]

    def directions(self, V):
        return np.asarray(V) @ self.L.T


def rotate_spec(spec, U):
    """Spec of {U z : z in the body} for a unitary U."""
    spec = json.loads(json.dumps(spec))
    if spec["kind"] == "polyhedron":
        for f in spec["faces"]:
            if f["type"] == "modulus":
                f["coeffs"] = ref.pairs(np.conj(U) @ ref.cplx(f["coeffs"]))
            else:
                f["normal"] = ref.pairs(U @ ref.cplx(f["normal"]))
    elif spec["kind"] == "balanced":
        for f in spec["funcs"]:
            f["coeffs"] = ref.pairs(np.conj(U) @ ref.cplx(f["coeffs"]))
    else:
        spec["matrix"] = ref.pairs(ref.cplx(spec["matrix"]) @ U.conj().T)
    return spec


@dataclass
class Body:
    """One input domain: how to construct it in the program, plus what the checks need."""

    label: str
    kind: str                 # benchmark kind; names the per-layer metrics
    spec: dict                # reference spec of the set (membership)
    build: Callable[[], object]
    exact: dict | None = None     # spec whose closed form is the true value
    collapse: bool = False        # bracket must collapse onto ``exact``
    symmetry: str = "rotate"      # see MASTER_SEED

    def true_metric(self, P, V):
        return None if self.exact is None else ref.exact_metric(self.exact, P, V)

    def true_distance(self, x, Y):
        return None if self.exact is None else ref.exact_distance(self.exact, x, Y)

    def place(self, rng):
        """This seed's instance of the body and the symmetry for its inputs."""
        n = _dim(self.spec)
        if self.symmetry == "rotate":
            U = unitary(rng, n)
            return spec_body(self.label, self.kind, rotate_spec(self.spec, U)), \
                Symmetry(U, np.zeros(n))
        c = np.zeros(n, dtype=complex)
        if self.symmetry == "phases":
            L = np.diag(np.exp(2j * np.pi * rng.uniform(size=n)))
        elif self.symmetry == "phase":
            L = np.exp(2j * np.pi * rng.uniform()) * np.eye(n)
        elif self.symmetry == "unitary":
            L = unitary(rng, n)
        else:  # shift along the real axis
            L, c = np.eye(n, dtype=complex), rng.uniform(-1.0, 1.0, n) + 0j
        if self.spec["kind"] == "affine":
            M, t = ref.cplx(self.spec["matrix"]), ref.cplx(self.spec["translation"])
            L = M @ L @ np.linalg.inv(M)
            c = M @ c + t - L @ t
        return self, Symmetry(L, c)


def zoo_body(name: str) -> Body:
    kind, spec, symmetry = ZOO[name]
    exact = spec if kind in CLOSED_KINDS else None
    return Body(name, kind, spec, lambda: invmet.zoo_domain(name), exact,
                collapse=exact is not None, symmetry=symmetry)


def spec_body(label: str, kind: str, spec: dict) -> Body:
    """A body built from its spec: ``load_domain`` JSON, or an ellipsoid
    ``BalancedConvex`` over a gauge callable."""
    if spec["kind"] != "ellipsoid":
        return Body(label, kind, spec, lambda: invmet.load_domain(spec))
    C = ref.cplx(spec["matrix"])
    sv = np.linalg.svd(C, compute_uv=False)
    return Body(label, kind, spec,
                lambda: invmet.BalancedConvex(ellipsoid_gauge(C), C.shape[0],
                                              float(1.0 / sv[-1]), float(1.0 / sv[0])),
                exact=spec)


@dataclass
class Op:
    """One timed call. ``cat`` files its latency; ``rows`` counts the
    directions it brackets (batch ops) and 0 otherwise."""

    cat: str                      # query | distance | batch | ball | run
    call: Callable[[], object]
    check: Callable[[object], np.ndarray]   # raises CheckFailed; returns widths
    rows: int = 0


@dataclass
class Workload:
    name: str
    digest: str
    setup: Callable[[], list]
    # id(program domain) -> (domain, benchmark kind), filled by setup; the
    # traced run labels spans with it
    kinds: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Template inputs
# ---------------------------------------------------------------------------

def template_rng(workload: str, k: int):
    return np.random.default_rng([MASTER_SEED, WORKLOAD_IDS[workload], k])


def directions(rng, m, n):
    z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def points(spec, rng, m, lo=0.0, hi=0.85):
    """m interior points; star-shaped kinds get s * exit * u with s in [lo, hi)."""
    kind = spec["kind"]
    if kind == "halfplane":
        n = spec["dim"]
        return rng.uniform(-1.5, 1.5, (m, n)) + 1j * rng.uniform(0.15, 2.0, (m, n))
    if kind == "affine":
        Z = points(spec["inner"], rng, m, lo, hi)
        return Z @ ref.cplx(spec["matrix"]).T + ref.cplx(spec["translation"])[None, :]
    U = directions(rng, m, _dim(spec))
    s = rng.uniform(lo, hi, m)
    return np.array([s[i] * ref.ray_exit(spec, U[i]) * U[i] for i in range(m)])


def scaled_directions(rng, m, n):
    return directions(rng, m, n) * rng.uniform(0.5, 2.0, m)[:, None]


def _dim(spec):
    if spec["kind"] == "affine":
        return _dim(spec["inner"])
    if "dim" in spec:
        return spec["dim"]
    if "radii" in spec:
        return len(spec["radii"])
    return ref.cplx(spec["matrix"]).shape[0]


def random_polyhedron(rng, n: int, total: int, label: str) -> dict:
    """Bounded polyhedron in C^n with ``total`` faces: n spanning balanced
    modulus faces, then modulus faces with constants alternating with real
    faces."""
    M = np.eye(n) + 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    b = rng.uniform(0.8, 1.5, n)
    faces = [{"type": "modulus", "coeffs": ref.pairs(M[k]), "bound": float(b[k])}
             for k in range(n)]
    for k in range(total - n):
        c = 0.7 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if k % 2 == 0:
            bound = float(rng.uniform(0.8, 2.0))
            const = 0.3 * bound * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            faces.append({"type": "modulus", "coeffs": ref.pairs(c),
                          "const": [const.real, const.imag], "bound": bound})
        else:
            faces.append({"type": "real", "normal": ref.pairs(c),
                          "offset": float(rng.uniform(0.5, 1.5) * np.linalg.norm(c))})
    # |M z|_inf < max b forces ||z|| < ||b|| / sigma_min(M)
    radius = float(np.linalg.norm(b) / np.linalg.svd(M, compute_uv=False)[-1])
    return {"kind": "polyhedron", "dim": n, "faces": faces,
            "bounding_radius": 1.01 * radius, "name": label}


def random_balanced(rng, m: int, label: str) -> dict:
    """Balanced body max_k |c_k . z| / s_k < 1 in C^2 with m >= 2 functionals."""
    C = 0.7 * (rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2)))
    C[:2] = np.eye(2) + 0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return {"kind": "balanced", "dim": 2, "name": label,
            "funcs": [{"coeffs": ref.pairs(C[k]), "scale": float(rng.uniform(0.8, 1.5))}
                      for k in range(m)]}


def random_ellipsoid(rng) -> dict:
    C = np.eye(2) + 0.35 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return {"kind": "ellipsoid", "matrix": ref.pairs(C)}


def ellipsoid_gauge(C):
    """The gauge |C v| of the ellipsoid {|C z| < 1}, rows or a single vector."""
    def gauge(v):
        return np.linalg.norm(np.asarray(v, dtype=complex) @ C.T, axis=-1)
    return gauge


class Digest:
    """Short sha256 of a run's inputs, so two commits can show they ran the same."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, obj):
        if isinstance(obj, np.ndarray):
            self._h.update(np.ascontiguousarray(obj, dtype=complex).tobytes())
        else:
            self._h.update(json.dumps(obj, sort_keys=True).encode())
        return obj

    def hexdigest(self):
        return self._h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _require(ok, what):
    if not np.all(ok):
        raise CheckFailed(what)


def _bracket_rows(body: Body, lower, upper, true):
    """Shared row checks; returns relative widths of rows with no closed form."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    _require((lower >= 0) & (lower <= upper), f"{body.label}: bracket not 0 <= lower <= upper")
    if true is not None:
        scale = np.maximum(1.0, np.abs(true))
        if body.collapse:
            tol = invmet.config.MODEL_BRACKET_TOL * scale
            _require((np.abs(lower - true) <= tol) & (np.abs(upper - true) <= tol),
                     f"{body.label}: bracket does not collapse to the closed form")
        else:
            tol = ENCLOSE_RTOL * scale
            _require((lower <= true + tol) & (upper >= true - tol),
                     f"{body.label}: bracket misses the reference value")
    if body.collapse:
        return np.zeros(0)
    return (upper - lower) / upper


def check_metric(body, x, v):
    return lambda b: _bracket_rows(body, b.lower, b.upper, body.true_metric(x, v))


def check_distance(body, x, y):
    def check(b):
        true = body.true_distance(x, y)
        _bracket_rows(body, b.lower, b.upper, None if true is None else true[0])
        return np.zeros(0)
    return check


def check_indicatrix(body, x):
    def check(s):
        U = s.directions
        return _bracket_rows(body, s.gauge_lower, s.gauge_upper,
                             body.true_metric(np.broadcast_to(x, U.shape), U))
    return check


def check_volume(body):
    def check(est):
        _require(np.isfinite(est.value) and 0 < est.lower <= est.value <= est.upper,
                 f"{body.label}: volume not inside its bracket")
        if body.collapse:
            _require(est.upper - est.lower <= ENCLOSE_RTOL * est.value,
                     f"{body.label}: volume bracket does not collapse")
        return np.zeros(0)
    return check


def check_ball(body, x, r, count):
    def check(s):
        _require(len(s) == count, f"{body.label}: ball sample returned {len(s)}/{count}")
        _require(s.distance_upper < r, f"{body.label}: ball point not certified inside")
        _require(ref.inside(body.spec, s.points), f"{body.label}: ball point outside domain")
        true = body.true_distance(x, s.points)
        if true is not None:
            _require(true <= s.distance_upper + ENCLOSE_RTOL * np.maximum(1.0, true),
                     f"{body.label}: ball distance upper bound below the true distance")
        return np.zeros(0)
    return check


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def _call(op):
    try:
        return op.call(), None
    except Exception as exc:  # a failed op is counted, never fatal
        return None, f"{type(exc).__name__}: {exc}"


def run_pass(ops, clock):
    """Run every op once; returns [(start, end, output, error)] in ``clock``
    seconds. The clock is CPU time of the main thread (see speed.Sampler): the
    program is single-threaded and CPU-bound, and wall time on a shared machine
    also counts the spells in which the CPU is taken away."""
    results = []
    for op in ops:
        s = clock()
        out, err = _call(op)
        results.append((s, clock(), out, err))
    return results


def check(op: Op, out, err):
    """Relative widths of the op's rows with no closed form, or raises."""
    if err is not None:
        raise CheckFailed(err)
    return op.check(out)


def warm_up(ops):
    for op in ops:
        check(op, *_call(op))


def interleave(groups):
    """Merge the lists, each spread evenly over the result in its own order.

    A pass runs its ops interleaved, not body by body: the machine's speed
    swings over seconds, and a block of one body's ops would sample one
    stretch of it, so a percentile would depend on which body drew a slow one.
    """
    keyed = [((k + 0.5) / len(g), j, op) for j, g in enumerate(groups)
             for k, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


# ---------------------------------------------------------------------------
# vectorized: models, affine images and polyhedra
# ---------------------------------------------------------------------------

V_INDICATRIX_AT, V_DIRECTIONS = 3, 256
V_VOLUME_SAMPLES, V_DISTANCES, V_BALL = 100_000, 10, 2000
RANDOM_POLYHEDRA = ((2, 4), (3, 8), (4, 12), (4, 16))    # (dimension, faces)


def v_queries(body: Body) -> int:
    """Queries per body. The bodies' query costs form clusters; with 25 on the
    closed-form bodies, 50 on three_face and the polydisc as faces and 150 on
    the others (three quarters of the 1000), the 50th, 90th and 99th
    percentiles fall inside the slowest cluster, away from the low-density
    edge where a percentile jumps between clusters as the machine's speed
    swings."""
    if body.collapse:
        return 25
    return 50 if body.label in ("three_face", "polydisc_faces") else 150


def vectorized(seed: int, out_dir: Path) -> Workload:
    bodies = [zoo_body(n) for n in ("disc", "polydisc2", "ball2", "halfplane",
                                    "sheared_polydisc", "turned_ball", "three_face")]
    bodies.append(Body("three_face_twin", "affine", _twin(THREE_FACE),
                       lambda: invmet.zoo.affine_twin(invmet.zoo.three_face_polyhedron()),
                       symmetry="phase"))
    faces = {"kind": "polyhedron", "dim": 2, "bounding_radius": 2 ** 0.5, "faces": [
        {"type": "modulus", "coeffs": [[1.0, 0.0], [0.0, 0.0]], "bound": 1.0},
        {"type": "modulus", "coeffs": [[0.0, 0.0], [1.0, 0.0]], "bound": 1.0}]}
    bodies.append(Body("polydisc_faces", "polyhedron", faces,
                       lambda: invmet.zoo.polydisc_as_polyhedron([1.0, 1.0]), POLYDISC2,
                       symmetry="phases"))
    tpl = template_rng("vectorized", 0)
    for k, (n, total) in enumerate(RANDOM_POLYHEDRA):
        bodies.append(spec_body(f"random{k}-C{n}", "polyhedron",
                                random_polyhedron(tpl, n, total, f"random{k}")))

    rng, dig, plan, kinds = np.random.default_rng(seed), Digest(), [], {}
    for k, template in enumerate(bodies):
        tpl = template_rng("vectorized", k + 1)
        spec, n = template.spec, _dim(template.spec)
        m = v_queries(template)
        X = points(spec, tpl, m)
        V = scaled_directions(tpl, m, n)
        XI = points(spec, tpl, V_INDICATRIX_AT)
        xv = points(spec, tpl, 1)
        PA = points(spec, tpl, V_DISTANCES, 0.0, 0.8)
        PB = points(spec, tpl, V_DISTANCES, 0.0, 0.8)
        xb = points(spec, tpl, 1, 0.0, 0.5)
        r = float(tpl.uniform(0.3, 1.0))
        b, g = template.place(rng)
        dig.add(b.spec)
        X, XI, xv, PA, PB, xb = (dig.add(g.points(Z)) for Z in (X, XI, xv, PA, PB, xb))
        plan.append((b, X, dig.add(g.directions(V)), XI, xv[0], PA, PB, xb[0], r))

    def setup():
        groups, warm = ([], [], [], [], []), []
        for b, X, V, XI, xv, PA, PB, xb, r in plan:
            d = b.build()
            kinds[id(d)] = (d, b.kind)
            q = [Op("query", lambda d=d, x=x, v=v: invmet.kobayashi_metric(d, x, v),
                    check_metric(b, x, v)) for x, v in zip(X, V)]
            ind = [Op("batch", lambda d=d, x=x: invmet.indicatrix(d, x, V_DIRECTIONS),
                      check_indicatrix(b, x), V_DIRECTIONS) for x in XI]
            vol = Op("batch", lambda d=d, x=xv: invmet.indicatrix_volume(
                         d, x, V_VOLUME_SAMPLES), check_volume(b), V_VOLUME_SAMPLES)
            dist = [Op("distance", lambda d=d, x=x, y=y: invmet.kobayashi_distance(d, x, y),
                       check_distance(b, x, y)) for x, y in zip(PA, PB)]
            ball = Op("ball", lambda d=d, x=xb, r=r: invmet.distance_ball_sample(
                          d, x, r, V_BALL), check_ball(b, xb, r, V_BALL))
            for group, body_ops in zip(groups, (q, ind, [vol], dist, [ball])):
                group.append(body_ops)
            warm += [q[0], dist[0],
                     Op("batch", lambda d=d, x=XI[0]: invmet.indicatrix(d, x, 8),
                        check_indicatrix(b, XI[0]), 8),
                     Op("batch", lambda d=d, x=xv: invmet.indicatrix_volume(d, x, 1000),
                        check_volume(b), 1000),
                     Op("ball", lambda d=d, x=xb, r=r: invmet.distance_ball_sample(d, x, r, 8),
                        check_ball(b, xb, r, 8))]
        warm_up(warm)
        return interleave([interleave(g) for g in groups])

    return Workload("vectorized", dig.hexdigest(), setup, kinds)


# ---------------------------------------------------------------------------
# gauge-bodies: bodies known only through a gauge
# ---------------------------------------------------------------------------

# 25 of each body's 250 queries sit at the centre, where they are cheapest; more
# would bring the 50th percentile near the edge of the off-centre cluster. The
# 1000 queries of a pass leave ten beyond the 99th percentile.
G_QUERIES, G_CENTRE_QUERIES, G_DIRECTIONS, G_BALL = 250, 25, 64, 8
BALANCED_FUNCS = (3, 4)      # functionals of each seeded balanced spec
# At the default quadrature tolerance one distance on these bodies runs for
# minutes without converging; 1e-4 keeps the per-node oracle cost in the
# measurement while bounding the node count.
G_DISTANCE_TOL = 1e-4


def gauge_bodies(seed: int, out_dir: Path) -> Workload:
    tpl = template_rng("gauge-bodies", 0)
    bodies = [zoo_body("balanced")]
    bodies += [spec_body(f"spec{k}", "balanced_spec", random_balanced(tpl, m, f"spec{k}"))
               for k, m in enumerate(BALANCED_FUNCS)]
    bodies.append(spec_body("ellipsoid", "gauge_callable", random_ellipsoid(tpl)))

    rng, dig, plan, kinds = np.random.default_rng(seed), Digest(), [], {}
    for k, template in enumerate(bodies):
        tpl = template_rng("gauge-bodies", k + 1)
        spec = template.spec
        X = np.vstack([np.zeros((G_CENTRE_QUERIES, 2), dtype=complex),
                       points(spec, tpl, G_QUERIES - G_CENTRE_QUERIES, 0.1, 0.8)])
        V = scaled_directions(tpl, G_QUERIES, 2)
        xi = points(spec, tpl, 1, 0.4, 0.4)
        P = np.vstack([np.zeros((1, 2), dtype=complex), points(spec, tpl, 3, 0.2, 0.6)])
        xb = points(spec, tpl, 1, 0.3, 0.3)
        r = float(tpl.uniform(0.3, 0.8))
        b, g = template.place(rng)
        dig.add(b.spec)
        X, xi, P, xb = (dig.add(g.points(Z)) for Z in (X, xi, P, xb))
        pairs = [(P[0], P[1]), (P[2], P[3])]     # from the centre, and off-centre
        plan.append((b, X, dig.add(g.directions(V)), xi[0], pairs, xb[0], r))

    def setup():
        groups, warm = ([], [], [], []), []
        for b, X, V, xi, pairs, xb, r in plan:
            d = b.build()
            kinds[id(d)] = (d, b.kind)
            q = [Op("query", lambda d=d, x=x, v=v: invmet.kobayashi_metric(d, x, v),
                    check_metric(b, x, v)) for x, v in zip(X, V)]
            ind = Op("batch", lambda d=d, x=xi: invmet.indicatrix(d, x, G_DIRECTIONS),
                     check_indicatrix(b, xi), G_DIRECTIONS)
            dist = [Op("distance", lambda d=d, x=x, y=y: invmet.kobayashi_distance(
                        d, x, y, tol=G_DISTANCE_TOL), check_distance(b, x, y))
                    for x, y in pairs]
            ball = Op("ball", lambda d=d, x=xb, r=r: invmet.distance_ball_sample(
                          d, x, r, G_BALL), check_ball(b, xb, r, G_BALL))
            for group, body_ops in zip(groups, (q, [ind], dist, [ball])):
                group.append(body_ops)
            warm += [q[0], q[-1]]
            if len(warm) == 2:  # the first body warms every other op too
                warm += [ind] + dist + [Op("ball", lambda d=d, x=xb, r=r:
                                           invmet.distance_ball_sample(d, x, r, 1),
                                           check_ball(b, xb, r, 1))]
        warm_up(warm)
        return interleave([interleave(g) for g in groups])

    return Workload("gauge-bodies", dig.hexdigest(), setup, kinds)


# ---------------------------------------------------------------------------
# verify-all: the command line, in-process
# ---------------------------------------------------------------------------

# The subcommands are pure-Python heavy and the most sensitive to the machine's
# speed swings; 1400 metric calls per pass spread them over seconds.
C_METRICS, C_DISTANCES_PER, C_INDICATRIX_PER, C_DIRECTIONS = 1400, 10, 4, 256
# The suite seed is fixed: verify-all's own work then stays the same for every
# --seed, which moves only the subcommands' inputs.
SUITE_SEED = "7"
_BRACKET = "# bracket ["


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = invmet.cli.main(argv)
    return rc, buf.getvalue()


def _cli_bracket(body, true, what):
    def check(res):
        rc, text = res
        _require(rc == 0, f"{what} {body.label}: exit code {rc}")
        line = next((l for l in text.splitlines() if l.startswith(_BRACKET)), None)
        _require(line is not None, f"{what} {body.label}: no bracket line")
        lo, hi = (float(t) for t in line[len(_BRACKET):].split("]")[0].split(","))
        return _bracket_rows(body, lo, hi, true)
    return check


def _cli_indicatrix(body, x):
    def check(res):
        rc, text = res
        _require(rc == 0, f"indicatrix {body.label}: exit code {rc}")
        rows = [l.split(",") for l in text.splitlines()
                if l and not l.startswith("#") and not l.startswith("dir")]
        A = np.array(rows, dtype=float)
        n = (A.shape[1] - 2) // 2
        U = A[:, 0:2 * n:2] + 1j * A[:, 1:2 * n:2]
        r_lo, r_hi = A[:, 2 * n], A[:, 2 * n + 1]
        # radii are 1/upper and 1/lower of the gauge bracket
        with np.errstate(divide="ignore"):
            lower = np.where(np.isinf(r_hi), 0.0, 1.0 / r_hi)
        return _bracket_rows(body, lower, 1.0 / r_lo,
                             body.true_metric(np.broadcast_to(x, U.shape), U))
    return check


def _cli_verify_all(out: Path):
    def check(res):
        rc, _ = res
        try:
            _require(rc == 0, f"verify-all: exit code {rc}")
            manifest = json.loads((out / "manifest.json").read_text())
            suites = manifest["suites"]
            _require(len(suites) == 8, f"verify-all: {len(suites)} suites, expected 8")
            bad = sorted(n for n, s in suites.items() if not s["passed"])
            _require(not bad, f"verify-all: suites failed: {bad}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return np.zeros(0)
    return check


def _vec(z):
    return json.dumps(ref.pairs(z))


def verify_all(seed: int, out_dir: Path) -> Workload:
    rng, dig = np.random.default_rng(seed), Digest()
    # balanced stays out of the subcommands: its queries cost twice the others
    # and would put the 90th percentile on the edge between two clusters; the
    # gauge-bodies workload measures it
    names = [name for name in ZOO if name != "balanced"]
    placed = {name: zoo_body(name).place(rng) for name in names}
    tpl = template_rng("verify-all", 0)
    metric_args = []
    for i in range(C_METRICS):
        b, g = placed[names[i % len(names)]]
        x = dig.add(g.points(points(b.spec, tpl, 1)))[0]
        v = dig.add(g.directions(scaled_directions(tpl, 1, _dim(b.spec))))[0]
        metric_args.append((b, x, v))
    distance_args = []
    for name in names:
        b, g = placed[name]
        for _ in range(C_DISTANCES_PER):
            P = dig.add(g.points(points(b.spec, tpl, 2, 0.0, 0.8)))
            distance_args.append((b, P[0], P[1:2]))
    indicatrix_args = []
    for name in names:
        b, g = placed[name]
        indicatrix_args += [(b, x) for x in
                            dig.add(g.points(points(b.spec, tpl, C_INDICATRIX_PER)))]
    out = out_dir / "verify-all"

    def setup():
        metric = [Op("query", lambda b=b, x=x, v=v: run_cli(
            ["metric", "--domain", b.label, "--at", _vec(x), "--dir", _vec(v),
             "--seed", SUITE_SEED]), _cli_bracket(b, b.true_metric(x, v), "metric"))
            for b, x, v in metric_args]
        distance = []
        for b, x, Y in distance_args:
            true = b.true_distance(x, Y)
            distance.append(Op("distance", lambda b=b, x=x, y=Y[0]: run_cli(
                ["distance", "--domain", b.label, "--from", _vec(x), "--to", _vec(y),
                 "--seed", SUITE_SEED]),
                _cli_bracket(b, None if true is None else true[0], "distance")))
        indicatrix = [Op("batch", lambda b=b, x=x: run_cli(
            ["indicatrix", "--domain", b.label, "--at", _vec(x),
             "--directions", str(C_DIRECTIONS), "--seed", SUITE_SEED]),
            _cli_indicatrix(b, x), C_DIRECTIONS) for b, x in indicatrix_args]
        # one metric call per zoo domain, one distance and one indicatrix
        warm_up(metric[:len(names)] + distance[:1] + indicatrix[:1])
        # one worker: the benchmark times the main thread (see speed)
        return [Op("run", lambda: run_cli(["verify-all", "--seed", SUITE_SEED, "--workers",
                                           "1", "--out", str(out)]),
                   _cli_verify_all(out))] + \
            interleave([metric, distance, indicatrix])

    return Workload("verify-all", dig.hexdigest(), setup)


WORKLOADS = {"vectorized": vectorized, "gauge-bodies": gauge_bodies,
             "verify-all": verify_all}
WORKLOAD_IDS = {name: k for k, name in enumerate(WORKLOADS)}
