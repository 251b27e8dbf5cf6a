"""Suite orchestration: row integrity, determinism, and the manifest."""

import io
import json

from invmet import config, verify_all
from invmet.cli import main
from invmet.suites import (
    SuiteResult,
    run_barth_suite,
    run_box_suite,
    run_domination_suite,
    run_metric_suite,
    run_scaling_suite,
    run_volume_suite,
)


def test_metric_suite_small():
    res = run_metric_suite(seed=1, triples=240, generic_rows=16)
    assert res.passed
    assert res.columns[0] == "case"
    assert all(row[-1] == "ok" for row in res.rows)
    assert sum(row[1] for row in res.rows if row[0] != "halfplane-pin") == 240


def test_metric_suite_csv_deterministic():
    a, b = io.StringIO(), io.StringIO()
    run_metric_suite(seed=2, triples=160, generic_rows=8).to_csv(a)
    run_metric_suite(seed=2, triples=160, generic_rows=8).to_csv(b)
    assert a.getvalue() == b.getvalue()
    assert a.getvalue().splitlines()[0].startswith("case,")


def test_scaling_suite_small():
    res = run_scaling_suite(seed=0, steps=6, grid_size=30)
    assert res.passed
    assert len(res.rows) == 12  # two families, one row per step


def test_box_suite_small():
    res = run_box_suite(seed=0, dims=(2, 3), instances=12)
    assert res.passed
    # a row reads ok when its box holds and, in the plane, its slope is
    # within SLOPE_BOUND_TOL = 1e-9 of the bound
    assert [row[:2] for row in res.rows] == [[dim, i] for dim in (2, 3) for i in range(12)]
    assert all(row[-1] == "ok" for row in res.rows)


def test_domination_suite_small():
    res = run_domination_suite(seed=0, sharp_samples=128, samples=150,
                               sharp_radii=(0.25, 1.0),
                               domains=("polydisc2",))
    assert res.passed
    # rows read ok within DOMINATION_TOL = 1e-6 of lambda(r) on the half-plane
    # and within AFFINE_MATCH_TOL = 1e-6 of the twin's ratio
    assert all(row[-1] == "ok" for row in res.rows)
    convex_rows = [row for row in res.rows if row[0] != "halfplane-sharp"]
    assert max(abs(t[7] - r[7]) for r, t in zip(convex_rows[::2], convex_rows[1::2])) <= 1e-6
    cases = {row[0] for row in res.rows}
    assert cases == {"halfplane-sharp", "polydisc2", "polydisc2-affine"}


def test_volume_suite_small():
    res = run_volume_suite(seed=0, samples=4000)
    assert res.passed
    assert [row[0] for row in res.rows] == ["disc-a0.5", "ball2-a0.5", "three_face-twin"]
    # the models' volumes are closed forms; the twin's ratio is Monte Carlo
    assert [row[4] > 0 for row in res.rows] == [False, False, True]


def test_barth_suite_enforces_every_row():
    """The balanced polyhedra are held to the models' tolerance: at the
    centre their face-disc brackets meet the gauge."""
    res = run_barth_suite(seed=0, samples=128)
    assert res.passed
    assert {row[0]: (row[-2], row[-1]) for row in res.rows} == {
        name: (config.BARTH_MODEL_TOL, "ok")
        for name in ("disc", "polydisc2", "ball2", "three_face", "balanced")}


def test_verify_all_writes_manifest_and_artifacts(tmp_path):
    rep = verify_all(seed=3, out_dir=tmp_path, workers=2)
    assert rep.passed
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["seed"] == 3
    assert man["convention"] == "standard"
    assert set(man["suites"]) == {"metric", "scaling", "boxlemma", "domination",
                                  "volume", "barth", "squeeze", "sweep"}
    for name, entry in man["suites"].items():
        assert entry["passed"] is True
        csv_path = tmp_path / entry["csv"]
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# seed=3 convention=standard")
        assert len(lines) == entry["rows"] + 2  # meta comment + header + rows
        assert not any("FAIL" in ln for ln in lines)


def test_a_failing_suite_fails_the_manifest_and_the_command(tmp_path, monkeypatch, capsys):
    """A suite that reports a failure reads passed: false in the manifest,
    for itself and overall, and verify-all exits 1 with a witness naming
    it.  Every suite is replaced by a one-row stand-in."""
    def stand_in(failures):
        return lambda seed, **kwargs: SuiteResult(["case", "status"],
                                                  [["probe", "ok"]], failures)

    for name in ("metric", "scaling", "box", "domination", "volume", "squeeze", "sweep"):
        monkeypatch.setattr(f"invmet.suites.run_{name}_suite", stand_in([]))
    failure = {"case": "disc", "discrepancy": 1.0}
    monkeypatch.setattr("invmet.suites.run_barth_suite", stand_in([failure]))
    rep = verify_all(seed=3, out_dir=tmp_path / "api")
    man = json.loads((tmp_path / "api" / "manifest.json").read_text())
    assert not rep.passed and man["passed"] is False
    assert {name for name, entry in man["suites"].items() if not entry["passed"]} == {"barth"}
    code = main(["verify-all", "--seed", "3", "--out", str(tmp_path / "cli")])
    out, err = capsys.readouterr()
    assert code == 1
    assert "barth: FAIL (1 rows)" in out and "metric: PASS (1 rows)" in out
    assert json.loads(err) == {"error": "verification suite failed",
                               "witness": {"barth": [failure]}}
