"""Batch verification suites with deterministic CSV artifacts.

Each suite runs one family of certified checks over the bundled domains and
returns a ``SuiteResult`` whose rows serialize to CSV byte-identically for a
fixed seed: floats are written with ``repr`` and no timestamps enter the rows.
Wall-clock time appears only in the ``verify_all`` manifest.

Sample counts default to desk scale so ``verify-all`` stays interactive; the
heavyweight batteries pass their own counts.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import config
from .circularity import (
    barth_check,
    circularity_lower_bound,
    polyhedral_pipeline,
    asymptotics_sweep,
    squeeze_lower_bound,
)
from .convexbox import (
    box_lemma_bounds,
    random_symmetric_polytope,
    slope_checks,
)
from .core import cvector
from .domains import AutomorphismFamily, model_automorphism, polydisc
from .domination import HALFPLANE_HEIGHTS, verify_convex_domination, verify_halfplane_domination
from .metrics import CONVENTIONS, indicatrix_volume, kobayashi_metric
from .sampling import SampleStream
from .scaling import (
    JacobianVolumeReport,
    default_schedule,
    equivalence_audit,
    volume_jacobian_check,
)
from .zoo import (
    affine_twin,
    model_twins,
    polydisc_as_polyhedron,
    twin_map,
    zoo_domain,
    zoo_names,
)

NAN = float("nan")


def _status(ok: bool) -> str:
    return "ok" if ok else "FAIL"


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "True" if v else "False"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


@dataclass
class SuiteResult:
    name: str
    columns: list[str]
    rows: list[list]
    failures: list[dict]
    summary: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_csv(self, fh):
        fh.write(",".join(self.columns) + "\n")
        for row in self.rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Metric sandwich
# ---------------------------------------------------------------------------

def run_metric_suite(seed: int = 0, triples: int = 10_000, *,
                     generic_rows: int = 96) -> SuiteResult:
    """Bracket soundness on random (domain, x, v) triples across the zoo.

    For every triple the certified lower bound must not exceed the certified
    upper bound.  Where a closed form exists the bracket must collapse to it,
    and on the first ``generic_rows`` triples the model's twin from
    ``zoo.model_twins`` -- the same set as a polyhedron or a gauge body, which
    has no closed form -- must bracket the closed form from the correct
    sides: ``generic_cross`` is the largest amount by which the twin's
    ``bracket_paired`` misses it.
    """
    names = zoo_names()
    per = max(1, triples // len(names))
    counts = dict.fromkeys(names, per)
    counts[names[0]] += max(0, triples - per * len(names))

    columns = ["case", "triples", "worst_cross", "model_gap", "closed_dev",
               "generic_cross", "methods", "status"]
    rows, failures = [], []
    twins = model_twins()
    for i, name in enumerate(names):
        d = zoo_domain(name)
        stream = SampleStream(seed).fork(100 + i)
        n = counts[name]
        X = d.interior_samples(n, stream.fork(0))
        V = stream.fork(1).unit_directions(n, d.dim)
        V = V * stream.fork(2).uniform(n, 0.1, 3.0)[:, None]

        lower, upper = d.bracket_paired(X, V, stream.fork(3))
        scale = max(1.0, float(np.max(upper)))
        worst_cross = float(np.max(lower - upper))
        ok = worst_cross <= 1e-12 * scale

        m = min(generic_rows, n)
        closed_all = d.metric_paired(X[:m], V[:m])
        if closed_all is not None:
            model_gap = float(np.max(np.abs(upper - lower)))
            closed_dev = float(np.max(np.abs(0.5 * (upper + lower)[:m] - closed_all)))
            # the twin's bracket, with no closed form, must enclose it
            gen_lower, gen_upper = twins[name].bracket_paired(X[:m], V[:m], stream.fork(4))
            generic_cross = float(max(np.max(closed_all - gen_upper),
                                      np.max(gen_lower - closed_all)))
            ok = (ok and model_gap <= config.MODEL_BRACKET_TOL
                  and closed_dev <= config.MODEL_BRACKET_TOL
                  and generic_cross <= 1e-9 * scale)
        else:
            model_gap = closed_dev = generic_cross = NAN

        probe = kobayashi_metric(d, X[0], V[0], seed=seed)
        methods = f"{probe.lower_method}|{probe.upper_method}"
        rows.append([name, n, worst_cross, model_gap, closed_dev,
                     generic_cross, methods, _status(ok)])
        if not ok:
            failures.append({"case": name, "worst_cross": worst_cross,
                             "model_gap": model_gap, "closed_dev": closed_dev,
                             "generic_cross": generic_cross})

    hp = zoo_domain("halfplane")
    pin = kobayashi_metric(hp, [1j], [1.0 + 0j], seed=seed)
    pin_dev = abs(pin.value - 0.5)
    pin_ok = pin_dev <= 1e-15 and pin.width <= 1e-15
    rows.append(["halfplane-pin", 1, 0.0, pin.width, pin_dev, NAN,
                 f"{pin.lower_method}|{pin.upper_method}", _status(pin_ok)])
    if not pin_ok:
        failures.append({"case": "halfplane-pin", "value": pin.value})

    return SuiteResult("metric", columns, rows, failures, summary={"triples": triples})


# ---------------------------------------------------------------------------
# Scaling / equivalence audits
# ---------------------------------------------------------------------------

# Frozen regression baselines: max over a 20-step schedule of |det A_j| and of
# the frame distortion C2/C1, recorded from a reference run at seed 0.  Audits
# must stay within TREND_GUARD_FACTOR of these.
SCALING_BASELINES = {
    "ball2": {"det_abs": 1.000000000000001, "distortion": 1.0000000283706825},
    "polydisc2": {"det_abs": 1.0000000000000009, "distortion": 1.0000000000000002},
}

_SCALING_TARGETS = {
    "ball2": (1.0 + 0j, 0.0 + 0j),
    "polydisc2": (1.0 + 0j, 1.0 + 0j),
}


def run_scaling_suite(seed: int = 0, steps: int = 20, grid_size: int = 100) -> SuiteResult:
    """Rescaled-automorphism audit: tau_j vs A_j^{-1} sigma_j on a grid."""
    columns = ["family", "step", "parameter", "margin", "det_abs", "c1", "c2",
               "distortion", "sup_diff", "status"]
    rows, failures = [], []
    summary = {}
    for name, target in _SCALING_TARGETS.items():
        d = zoo_domain(name)
        fam = AutomorphismFamily(d, target)
        report = equivalence_audit(d, fam, d.basepoint, default_schedule(steps),
                                   seed=seed, grid_size=grid_size)
        base = SCALING_BASELINES[name]
        for rec in report.records:
            distortion = rec.c2 / rec.c1
            ok = (math.isfinite(rec.det_abs) and math.isfinite(distortion)
                  and rec.det_abs <= config.TREND_GUARD_FACTOR * base["det_abs"]
                  and distortion <= config.TREND_GUARD_FACTOR * base["distortion"]
                  and rec.sup_grid_diff <= config.GRID_EQUIVALENCE_TOL)
            rows.append([name, rec.index, rec.parameter, rec.boundary_margin,
                         rec.det_abs, rec.c1, rec.c2, distortion,
                         rec.sup_grid_diff, _status(ok)])
            if not ok:
                failures.append({"case": name, "step": rec.index,
                                 "det_abs": rec.det_abs,
                                 "distortion": distortion,
                                 "sup_diff": rec.sup_grid_diff})
        summary[name] = {"max_det_abs": report.max_det_abs,
                         "max_distortion": report.max_distortion_ratio,
                         "max_sup_diff": report.max_sup_diff}
    return SuiteResult("scaling", columns, rows, failures, summary=summary)


# ---------------------------------------------------------------------------
# Box lemma stress
# ---------------------------------------------------------------------------

def box_stress_rows(dim: int, instances: int, seed: int = 0):
    """(instance, r_1, slack) triples plus slope stats for the plane case."""
    stream = SampleStream(seed).fork(dim)
    bodies = []
    for i in range(instances):
        st = stream.fork(i)
        pairs = int(st.integers(dim + 2, 4 * dim + 4))
        bodies.append(random_symmetric_polytope(dim, pairs, st.fork(0)))
    bounds = box_lemma_bounds(bodies)
    held = [bodies[i] for i, bound in enumerate(bounds) if bound.contained]
    slopes = iter(slope_checks(held) if dim == 2 else [])
    rows, failures = [], []
    slope_excess = -math.inf
    for i, bound in enumerate(bounds):
        if not bound.contained:
            rows.append([i, NAN, NAN])
            failures.append({"dim": dim, "instance": i,
                             "error": f"box containment failed by {-bound.slack:.3e}"})
            continue
        rows.append([i, float(bound.base_distances[0]), bound.slack])
        if dim == 2:
            slope, sbound = next(slopes)
            slope_excess = max(slope_excess, slope - sbound)
            if slope - sbound > config.SLOPE_BOUND_TOL:
                failures.append({"dim": 2, "instance": i, "slope": slope,
                                 "slope_bound": sbound})
    return rows, failures, slope_excess


def run_box_suite(seed: int = 0, dims=(2, 3, 4), instances: int = 500) -> SuiteResult:
    columns = ["dim", "instance", "r_1", "slack", "status"]
    rows, failures = [], []
    summary = {}
    for dim in dims:
        sub, fails, slope_excess = box_stress_rows(dim, instances, seed)
        bad = {f["instance"] for f in fails}
        for inst, r1, slack in sub:
            ok = inst not in bad
            rows.append([dim, inst, r1, slack, _status(ok)])
        failures.extend(fails)
        summary[f"dim{dim}"] = {
            "instances": instances,
            "violations": len(bad),
            "slope_excess": slope_excess if dim == 2 else None,
        }
    return SuiteResult("boxlemma", columns, rows, failures, summary=summary)


# ---------------------------------------------------------------------------
# Domination profiles
# ---------------------------------------------------------------------------

_DOM_POINTS = {
    "polydisc2": ((0j, 0j), (0.3 + 0.1j, -0.2 + 0j)),
    "ball2": ((0j, 0j), (0.25 + 0.1j, 0.2j)),
    "three_face": ((0j, 0j), (0.2 + 0j, -0.3j)),
}

_DOM_RADII = (0.25, 0.5, 1.0)


def run_domination_suite(seed: int = 0, *, convention: str = "standard",
                         sharp_radii=(0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0),
                         sharp_samples: int = 2048,
                         domains=("polydisc2", "ball2", "three_face"),
                         samples: int = 2000) -> SuiteResult:
    """Half-plane sharpness at heights 0.1, 1 and 10 in both conventions,
    plus factor-2 convex domination on each zoo domain and its affine twin."""
    columns = ["case", "convention", "point", "radius", "lambda", "claimed",
               "worst_gauge", "ratio", "samples", "status"]
    rows, failures = [], []
    sharp_dev_max = 0.0
    for conv in CONVENTIONS:
        prof = verify_halfplane_domination(HALFPLANE_HEIGHTS, sharp_radii,
                                           sharp_samples, seed=seed,
                                           convention=conv)
        for cell in prof.cells:
            b = float(np.atleast_1d(cell.base_point)[0].imag)
            dev = abs(cell.worst_gauge - cell.lambda_value) / cell.lambda_value
            sharp_dev_max = max(sharp_dev_max, dev)
            ok = dev <= config.DOMINATION_TOL and prof.holds(cell)
            rows.append(["halfplane-sharp", conv, f"b={b!r}", cell.radius,
                         cell.lambda_value, cell.claimed_bound,
                         cell.worst_gauge, cell.ratio, cell.samples,
                         _status(ok)])
            if not ok:
                failures.append({"case": "halfplane-sharp", "convention": conv,
                                 "b": b, "r": cell.radius, "dev": dev})
        for w in prof.warnings:
            failures.append({"case": "halfplane-sharp", "warning": w})

    affine_match_max = 0.0
    for name in domains:
        d = zoo_domain(name)
        xs = [cvector(x) for x in _DOM_POINTS[name]]
        prof = verify_convex_domination(d, xs, _DOM_RADII, samples, seed=seed,
                                        convention=convention)
        T = twin_map(d.dim)
        tprof = verify_convex_domination(affine_twin(d), [T(x) for x in xs],
                                         _DOM_RADII, samples, seed=seed,
                                         convention=convention)
        for idx, (cell, tcell) in enumerate(zip(prof.cells, tprof.cells)):
            i = idx // len(_DOM_RADII)
            ok = prof.holds(cell)
            rows.append([name, convention, f"x{i}", cell.radius,
                         cell.lambda_value, cell.claimed_bound,
                         cell.worst_gauge, cell.ratio, cell.samples,
                         _status(ok)])
            if not ok:
                failures.append({"case": name, "point": i, "r": cell.radius,
                                 "worst_gauge": cell.worst_gauge,
                                 "claimed": cell.claimed_bound})
            dev = abs(tcell.ratio - cell.ratio)
            affine_match_max = max(affine_match_max, dev)
            ok = tprof.holds(tcell) and dev <= config.AFFINE_MATCH_TOL
            rows.append([f"{name}-affine", convention, f"x{i}",
                         tcell.radius, tcell.lambda_value,
                         tcell.claimed_bound, tcell.worst_gauge,
                         tcell.ratio, tcell.samples, _status(ok)])
            if not ok:
                failures.append({"case": f"{name}-affine", "point": i,
                                 "r": tcell.radius, "match_dev": dev})
    summary = {"sharp_dev_max": sharp_dev_max,
               "affine_match_max": affine_match_max,
               "convention": convention}
    return SuiteResult("domination", columns, rows, failures, summary=summary)


# ---------------------------------------------------------------------------
# Jacobian--volume consistency
# ---------------------------------------------------------------------------

def run_volume_suite(seed: int = 0, samples: int = 50_000) -> SuiteResult:
    """|det dphi(0)|^2 against the indicatrix volume ratio: exact on the disc
    and the ball, whose volumes are closed forms, and within 3 standard errors
    on ``three_face`` against its affine twin, a Monte Carlo ratio of
    ``samples`` directions a side that must be |det T|^2."""
    sigma = 3.0
    columns = ["case", "det_sq", "volume_ratio", "rel_error", "se",
               "sigma_within", "status"]
    rows, failures = [], []

    def record(case, rep, exact):
        ok = rep.rel_error <= config.MODEL_BRACKET_TOL if exact else rep.within <= sigma
        rows.append([case, rep.det_sq, rep.volume_ratio, rep.rel_error,
                     rep.se_ratio, rep.within, _status(ok)])
        if not ok:
            failures.append({"case": case, "rel_error": rep.rel_error, "within": rep.within})

    for case, name, to in (("disc-a0.5", "disc", [0.5 + 0j]),
                           ("ball2-a0.5", "ball2", [0.5 + 0j, 0j])):
        d = zoo_domain(name)
        zero = np.zeros(d.dim, dtype=complex)
        record(case, volume_jacobian_check(d, model_automorphism(d, zero, cvector(to)), zero),
               True)

    three, T = zoo_domain("three_face"), twin_map(2)
    x = three.basepoint
    record("three_face-twin", JacobianVolumeReport.from_volumes(
        abs(T.linear.det) ** 2, indicatrix_volume(three, x, samples, seed=seed),
        indicatrix_volume(affine_twin(three), T(x), samples, seed=seed + 1)), False)
    return SuiteResult("volume", columns, rows, failures, summary={"sigma": sigma})


# ---------------------------------------------------------------------------
# Circular-representative checks
# ---------------------------------------------------------------------------

def run_barth_suite(seed: int = 0, samples: int = 512) -> SuiteResult:
    """Gauge vs metric bracket at the center, where by Barth they agree on
    every balanced convex body; each zoo row is held to BARTH_MODEL_TOL."""
    columns = ["case", "samples", "discrepancy", "tol", "status"]
    rows, failures = [], []
    tol = config.BARTH_MODEL_TOL
    for name in ("disc", "polydisc2", "ball2", "three_face", "balanced"):
        disc = barth_check(zoo_domain(name), samples, seed=seed)
        ok = disc <= tol
        rows.append([name, samples, disc, tol, _status(ok)])
        if not ok:
            failures.append({"case": name, "discrepancy": disc})
    return SuiteResult("barth", columns, rows, failures)


def run_squeeze_suite(seed: int = 0,
                      validate_samples: int = 10_000) -> SuiteResult:
    """Squeeze certificates with re-validation and the implied c bounds."""
    columns = ["case", "embedding", "r", "R", "ratio", "c_bound",
               "worst_outer", "worst_inner", "validated", "status"]
    rows, failures = [], []

    def add(case, d, x, model, embedding, extra_ok=None):
        x = cvector(x)
        cert = squeeze_lower_bound(d, x, model, embedding=embedding, seed=seed)
        chk = cert.validate(validate_samples, seed=seed + 1)
        cb = circularity_lower_bound(d, x, [cert])
        ok = chk.passed and cb.bound >= cert.ratio ** 2 * (1 - 1e-12)
        if extra_ok is not None:
            ok = ok and extra_ok(cert, cb)
        rows.append([case, cert.description, cert.inner_r, cert.outer_R,
                     cert.ratio, cb.bound, chk.worst_outer_gauge,
                     chk.worst_inner_margin, chk.passed, _status(ok)])
        if not ok:
            failures.append({"case": case, "r": cert.inner_r,
                             "R": cert.outer_R, "validated": chk.passed,
                             "c_bound": cb.bound})

    model2 = polydisc([1.0, 1.0])
    add("three_face", zoo_domain("three_face"), [0j, 0j], model2, None,
        extra_ok=lambda c, b: (abs(c.inner_r - 0.75) <= config.SHARPNESS_TOL
                               and abs(c.outer_R - 1.0) <= config.SHARPNESS_TOL))
    add("polydisc2", zoo_domain("polydisc2"), [0j, 0j], model2, None,
        extra_ok=lambda c, b: abs(c.ratio - 1.0) <= config.SHARPNESS_TOL)
    add("ball2-auto", zoo_domain("ball2"), [0.3 + 0j, 0.1j],
        zoo_domain("ball2"), "automorphism",
        extra_ok=lambda c, b: b.bound >= 1.0 - config.DOMINATION_TOL)
    add("balanced", zoo_domain("balanced"), [0j, 0j], model2, None)

    return SuiteResult("squeeze", columns, rows, failures)


# Frozen final-ratio thresholds for the corner sweeps (12 steps, seed 0).
SWEEP_THRESHOLDS = {"three-face": 0.9, "polydisc-faces": 0.99}

_SWEEP_CASES = {
    "three-face": (lambda: zoo_domain("three_face"), (1.0 + 0j, -1.0 + 0j)),
    "polydisc-faces": (lambda: polydisc_as_polyhedron([1.0, 1.0]),
                       (1.0 + 0j, 1.0 + 0j)),
}


def run_sweep_suite(seed: int = 0, steps: int = 12,
                    validate_samples: int = 2048) -> SuiteResult:
    """Corner asymptotics: certified squeeze ratios along a pinching schedule."""
    columns = ["case", "k", "dist_to_q", "r", "R", "ratio", "c_bound", "status"]
    rows, failures = [], []
    for name, (builder, corner) in _SWEEP_CASES.items():
        d = builder()
        threshold = SWEEP_THRESHOLDS[name]
        report = asymptotics_sweep(d, corner, steps, threshold=threshold)
        for row in report.rows:
            ok = row.c_bound >= row.ratio ** 2 - 1e-12
            if row.k == steps:
                ok = ok and bool(report.threshold_met)
            rows.append([name, row.k, row.dist_to_q, row.r, row.R, row.ratio,
                         row.c_bound, _status(ok)])
            if not ok:
                failures.append({"case": name, "k": row.k, "ratio": row.ratio,
                                 "threshold": threshold})
        # re-validate the tightest certificate by sampling
        q = cvector(corner)
        xk = (1.0 - 2.0 ** (-steps)) * q
        cert = polyhedral_pipeline(d, q, xk)
        chk = cert.validate(validate_samples, seed=seed + 2)
        if not chk.passed:
            failures.append({"case": name, "k": steps,
                             "worst_outer": chk.worst_outer_gauge,
                             "worst_inner": chk.worst_inner_margin})
    return SuiteResult("sweep", columns, rows, failures,
                       summary={"thresholds": dict(SWEEP_THRESHOLDS)})


# ---------------------------------------------------------------------------
# verify-all orchestration
# ---------------------------------------------------------------------------

@dataclass
class VerifyAllReport:
    results: dict
    manifest: dict
    out_dir: Path

    @property
    def passed(self) -> bool:
        return self.manifest["passed"]


def verify_all(seed: int = 7, out_dir=".", workers: int = 1, *,
               convention: str = "standard") -> VerifyAllReport:
    """Run every suite at desk scale and write CSVs plus a manifest.

    CSV bodies are deterministic functions of the seed; wall time lives only
    in the manifest.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    specs = [
        ("metric", lambda: run_metric_suite(seed, triples=2000,
                                            generic_rows=48)),
        ("scaling", lambda: run_scaling_suite(seed, steps=10, grid_size=60)),
        ("boxlemma", lambda: run_box_suite(seed, instances=120)),
        ("domination", lambda: run_domination_suite(
            seed, convention=convention, sharp_samples=1024, samples=600)),
        ("volume", lambda: run_volume_suite(seed, samples=20_000)),
        ("barth", lambda: run_barth_suite(seed, samples=256)),
        ("squeeze", lambda: run_squeeze_suite(seed, validate_samples=2048)),
        ("sweep", lambda: run_sweep_suite(seed, steps=12,
                                          validate_samples=1024)),
    ]
    start = time.monotonic()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [(name, pool.submit(fn)) for name, fn in specs]
            results = {name: fut.result() for name, fut in futures}
    else:
        results = {name: fn() for name, fn in specs}
    wall = time.monotonic() - start

    manifest = {
        "version": config.VERSION,
        "seed": seed,
        "convention": convention,
        "wall_time": wall,
        "passed": all(r.passed for r in results.values()),
        "suites": {},
    }
    for name, res in results.items():
        csv_name = f"{name}.csv"
        with open(out / csv_name, "w") as fh:
            # every artifact records its seed; no timestamps in CSV bodies
            fh.write(f"# seed={seed} convention={convention}"
                     f" version={config.VERSION} suite={name}\n")
            res.to_csv(fh)
        manifest["suites"][name] = {"passed": res.passed, "csv": csv_name,
                                    "rows": len(res.rows)}
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return VerifyAllReport(results, manifest, out)
