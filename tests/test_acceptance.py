"""Acceptance battery: every stated property at full scale, one line each.

Each test prints ``criterion N: PASS/FAIL`` (visible with ``pytest -s`` or in
the captured output) and enforces its runtime budget.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from invmet import (
    AutomorphismFamily,
    HalfPlaneProduct,
    asymptotics_sweep,
    barth_check,
    kobayashi_metric,
    lambda_halfplane,
    model_automorphism,
    verify_halfplane_domination,
    volume_jacobian_check,
    zoo_domain,
)
from invmet.suites import (
    run_box_suite,
    run_domination_suite,
    run_metric_suite,
    run_scaling_suite,
    run_squeeze_suite,
)


def _report(n: int, ok: bool, wall: float, budget: float, detail: str):
    status = "PASS" if ok and wall < budget else "FAIL"
    print(f"criterion {n}: {status} — {detail} (wall {wall:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {n} property failed: {detail}"
    assert wall < budget, f"criterion {n} exceeded budget: {wall:.1f}s >= {budget}s"


def test_criterion_1_metric_sandwich():
    t0 = time.monotonic()
    res = run_metric_suite(seed=0, triples=10_000)
    pin = kobayashi_metric(HalfPlaneProduct(1), [1j], [1])
    wall = time.monotonic() - t0
    ok = res.passed and pin.value == 0.5 and pin.width == 0.0
    _report(1, ok, wall, 60,
            "10^4 sandwich triples, model gap <= 1e-9, K(i;1) = 0.5 exactly")


def test_criterion_2_scaling_schedules():
    t0 = time.monotonic()
    res = run_scaling_suite(seed=0, steps=20, grid_size=100)
    wall = time.monotonic() - t0
    ball2 = zoo_domain("ball2")
    fam = AutomorphismFamily(ball2, np.array([1.0 + 0j, 0j]))
    margin = float(ball2.contains(fam.point_at(20.0)))
    ok = (res.passed and len(res.rows) == 40
          and margin == pytest.approx(2.0 ** -20, rel=1e-9))
    _report(2, ok, wall, 120,
            "20-step schedules to 2^-20: det/distortion within 10x baseline, "
            "grid diff <= 1e-8")


def test_criterion_3_box_stress():
    t0 = time.monotonic()
    res = run_box_suite(seed=0, dims=(2, 3, 4), instances=500)
    wall = time.monotonic() - t0
    ok = (res.passed
          and all(res.summary[f"dim{n}"]["violations"] == 0 for n in (2, 3, 4))
          and res.summary["dim2"]["slope_excess"] <= 1e-9)
    _report(3, ok, wall, 90,
            "500 symmetric polytopes per n in {2,3,4}: zero violations, "
            "slope bound to 1e-9")


def test_criterion_4_halfplane_sharpness():
    t0 = time.monotonic()
    radii = (0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0)
    worst_dev = 0.0
    ok = True
    for conv in ("standard", "paper"):
        prof = verify_halfplane_domination((0.1, 1.0, 10.0), radii,
                                           samples=2048, seed=0,
                                           convention=conv)
        ok = ok and prof.passed and not prof.warnings
        for cell in prof.cells:
            lam = lambda_halfplane(cell.radius, conv)
            dev = abs(cell.worst_gauge - lam) / lam
            worst_dev = max(worst_dev, dev)
    wall = time.monotonic() - t0
    ok = ok and worst_dev <= 1e-6
    _report(4, ok, wall, 30,
            f"b in {{0.1,1,10}} x 8 radii x both conventions: worst gauge "
            f"matches lambda(r) (max dev {worst_dev:.2e})")


def test_criterion_5_convex_domination():
    t0 = time.monotonic()
    res = run_domination_suite(seed=0, sharp_samples=512, samples=10_000,
                               domains=("polydisc2", "ball2", "three_face"))
    wall = time.monotonic() - t0
    convex_rows = [r for r in res.rows if r[0] != "halfplane-sharp"]
    ok = (res.passed
          and len(convex_rows) == 36            # 3 domains x 6 cells, plus twins
          and all(r[8] == 10_000 for r in convex_rows)
          and res.summary["affine_match_max"] <= 1e-6)
    _report(5, ok, wall, 180,
            "10^4 certified ball points per cell within 2 lambda(r)(1+1e-6); "
            f"affine twins match ratios (max dev {res.summary['affine_match_max']:.2e})")


def test_criterion_6_jacobian_volume():
    t0 = time.monotonic()
    disc = zoo_domain("disc")
    phi = model_automorphism(disc, [0.5], [0.0])
    disc_rep = volume_jacobian_check(disc, phi, [0.5], samples=100_000, seed=0)
    psi = model_automorphism(disc, [0.0], [0.5])
    dpsi = complex(np.asarray(psi.derivative(np.zeros(1, complex))).ravel()[0])
    forward_err = abs(abs(dpsi) ** 2 - (1 - 0.25) ** 2)
    ball2 = zoo_domain("ball2")
    x = np.array([0.4 + 0.1j, 0.2j])
    chi = model_automorphism(ball2, x, np.zeros(2, complex))
    ball_rep = volume_jacobian_check(ball2, chi, x, samples=1_000_000, seed=1)
    wall = time.monotonic() - t0
    ok = (disc_rep.rel_error <= 1e-9 and forward_err <= 1e-9
          and ball_rep.within <= 3.0)
    _report(6, ok, wall, 120,
            f"disc identity exact (rel err {disc_rep.rel_error:.1e}); ball n=2 "
            f"Monte Carlo within {ball_rep.within:.2f} se at 10^6 samples")


def test_criterion_7_circularity_suite():
    t0 = time.monotonic()
    barth_worst = max(barth_check(zoo_domain(name), 512)
                      for name in ("disc", "polydisc2", "ball2"))
    squeeze = run_squeeze_suite(seed=0, validate_samples=10_000)
    sweep = asymptotics_sweep(zoo_domain("three_face"), [1.0, -1.0], steps=12,
                              threshold=0.9)
    wall = time.monotonic() - t0
    monotone_ok = all(row.c_bound >= row.ratio ** 2 - 1e-12 for row in sweep.rows)
    ok = (barth_worst <= 1e-9 and squeeze.passed and monotone_ok
          and bool(sweep.threshold_met) and sweep.rows[-1].k == 12
          and sweep.final_ratio >= 0.9)
    _report(7, ok, wall, 180,
            f"Barth <= 1e-9 on models (worst {barth_worst:.1e}); c-bound >= ratio^2; "
            f"three-face sweep hits {sweep.final_ratio:.4f} >= 0.9 at step 12")


def test_criterion_8_reproducibility(tmp_path):
    t0 = time.monotonic()
    outs = []
    for k in (1, 2):
        out = tmp_path / f"run{k}"
        proc = subprocess.run(
            [sys.executable, "-m", "invmet.cli", "verify-all", "--seed", "7",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    assert len(names) == 8
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in names)
    manifests = [json.loads((o / "manifest.json").read_text()) for o in outs]
    for m in manifests:
        m.pop("wall_time")
    wall = time.monotonic() - t0
    ok = identical and manifests[0] == manifests[1]
    _report(8, ok, wall, 300,
            "verify-all --seed 7 twice: byte-identical CSV bodies, "
            "manifests equal up to wall time")
