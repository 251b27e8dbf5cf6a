"""Suite orchestration: row integrity, determinism, and the manifest."""

import io
import json

from invmet import verify_all
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
    assert res.summary["triples"] >= 240


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
    res = run_box_suite(seed=0, dims=(2, 3), instances=12, check_samples=500)
    assert res.passed
    assert res.summary["dim2"]["violations"] == 0
    assert res.summary["dim2"]["slope_excess"] <= 1e-9
    assert res.summary["dim3"]["slope_excess"] is None


def test_domination_suite_small():
    res = run_domination_suite(seed=0, sharp_samples=128, samples=150,
                               sharp_radii=(0.25, 1.0),
                               domains=("polydisc2",))
    assert res.passed
    assert res.summary["sharp_dev_max"] <= 1e-6
    assert res.summary["affine_match_max"] <= 1e-6
    cases = {row[0] for row in res.rows}
    assert cases == {"halfplane-sharp", "polydisc2", "polydisc2-affine"}


def test_volume_suite_small():
    res = run_volume_suite(seed=0, disc_samples=2000, ball_samples=4000)
    assert res.passed
    assert len(res.rows) == 2


def test_barth_suite_flags_info_rows():
    res = run_barth_suite(seed=0, samples=128)
    assert res.passed
    status = {row[0]: row[-1] for row in res.rows}
    assert status["disc"] == "ok" and status["ball2"] == "ok"
    assert status["three_face"] == "info" and status["balanced"] == "info"


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
    def stand_in(name, failures):
        return lambda seed, **kwargs: SuiteResult(name, ["case", "status"],
                                                  [["probe", "ok"]], failures)

    for name in ("metric", "scaling", "box", "domination", "volume", "squeeze", "sweep"):
        monkeypatch.setattr(f"invmet.suites.run_{name}_suite", stand_in(name, []))
    failure = {"case": "disc", "discrepancy": 1.0}
    monkeypatch.setattr("invmet.suites.run_barth_suite", stand_in("barth", [failure]))
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
