"""End-to-end command-line behavior: outputs, artifacts, exit codes."""

import json
import math

import pytest

from invmet.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_metric_pinned_example(capsys, polydisc2_file):
    code, out, _ = run(capsys, "metric", "--domain", str(polydisc2_file),
                       "--at", "[0,0]", "--dir", "[1,1]")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1.0"
    assert "closed-form|closed-form" in lines[1]
    assert "seed 0" in lines[1]


def test_metric_accepts_zoo_names(capsys):
    code, out, _ = run(capsys, "metric", "--domain", "polydisc2",
                       "--at", "[0,0]", "--dir", "[1,1]")
    assert code == 0 and out.splitlines()[0] == "1.0"


def test_metric_malformed_vector_is_exit_2(capsys, polydisc2_file):
    code, _, err = run(capsys, "metric", "--domain", str(polydisc2_file),
                       "--at", "[0,0", "--dir", "[1,1]")
    assert code == 2
    assert err.startswith("error: --at offset")
    assert "invalid JSON" in err


def test_metric_accepts_inline_json_domain(capsys):
    code, out, _ = run(capsys, "metric", "--domain", '{"kind":"ball","dim":2}',
                       "--at", "[0,0]", "--dir", "[1,0]")
    assert code == 0 and out.splitlines()[0] == "1.0"


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "metric", "--domain", "/nope/missing.json",
                       "--at", "[0]", "--dir", "[1]")
    assert code == 2
    assert "no such file" in err


def test_malformed_spec_names_location(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "polyhedron", "dim": 2,
                               "faces": [{"type": "modulus", "coeffs": [1, 0]}],
                               "bounding_radius": 2.0}))
    code, _, err = run(capsys, "metric", "--domain", str(bad),
                       "--at", "[0,0]", "--dir", "[1,0]")
    assert code == 2
    assert "faces[0].bound" in err


def test_distance_conventions(capsys, polydisc2_file):
    code, out, _ = run(capsys, "distance", "--domain", str(polydisc2_file),
                       "--from", "[0,0]", "--to", "[0.3333333333333333,0]")
    assert code == 0
    assert float(out.splitlines()[0]) == pytest.approx(math.atanh(1 / 3), abs=1e-12)
    code, out, _ = run(capsys, "distance", "--domain", str(polydisc2_file),
                       "--from", "[0,0]", "--to", "[0.3333333333333333,0]",
                       "--convention", "paper")
    assert code == 0
    assert float(out.splitlines()[0]) == pytest.approx(2 * math.atanh(1 / 3), abs=1e-12)


def test_distance_prints_its_quadrature_work(capsys):
    # a polyhedron's upper side is its closed-form length: no nodes
    code, out, _ = run(capsys, "distance", "--domain", "three_face",
                       "--from", "[0,0]", "--to", "[0.9,0]")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("# bracket [")
    assert "|affine-disc-length " in lines[1]
    assert lines[2].startswith("# nodes 0 converged True final_delta ")


def test_distance_has_no_tol_flag(capsys):
    # every body the command line loads has a closed-form distance upper
    with pytest.raises(SystemExit) as ei:
        main(["distance", "--domain", "three_face", "--from", "[0,0]", "--to", "[0.9,0]",
              "--tol", "1e-4"])
    assert ei.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_indicatrix_csv_artifact(capsys, tmp_path, polydisc2_file):
    out_file = tmp_path / "ind.csv"
    code, out, _ = run(capsys, "indicatrix", "--domain", str(polydisc2_file),
                       "--at", "[0,0]", "--directions", "16",
                       "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# seed=0 convention=standard version=")
    assert lines[1] == "dir0_re,dir0_im,dir1_re,dir1_im,radius_lo,radius_hi"
    assert len(lines) == 2 + 16


def test_indicatrix_base_point_of_the_wrong_size_is_exit_2(capsys):
    code, _, err = run(capsys, "indicatrix", "--domain", "ball2", "--at", "[0.3]",
                       "--directions", "16")
    assert code == 2
    assert "expected vectors of length 2, got 1" in err


def test_scale_audit_pass_and_no_automorphisms(capsys, tmp_path):
    """The domain decides its automorphisms: the ball, a polydisc and an
    affine image of it pass, a target outside or inside the domain and a
    table that is not a product are bad input."""
    out_file = tmp_path / "audit.json"
    code, out, _ = run(capsys, "scale", "audit", "--domain", "ball2",
                       "--target", "[1,0]",
                       "--steps", "4", "--grid", "20", "--out", str(out_file))
    assert code == 0
    assert "PASS" in out
    assert json.loads(out_file.read_text())["summary"]["bounded"] is True
    code, out, _ = run(capsys, "scale", "audit", "--domain", "polydisc2",
                       "--target", "[1,1]", "--steps", "4", "--grid", "20",
                       "--out", str(out_file))
    assert code == 0 and "PASS" in out
    assert json.loads(out_file.read_text())["domain"] == "polydisc"
    # the polydisc's corner (1, 1) is (1.35 + 0.25i, 1 - 0.05i) in sheared_polydisc
    code, out, _ = run(capsys, "scale", "audit", "--domain", "sheared_polydisc",
                       "--target", "[[1.35,0.25],[1.0,-0.05]]", "--steps", "4", "--grid", "20")
    assert code == 0 and "PASS" in out
    code, _, err = run(capsys, "scale", "audit", "--domain", "sheared_polydisc",
                       "--target", "[1,1]")
    assert code == 2
    assert err == "error: target point is not in the domain interior\n"
    code, _, err = run(capsys, "scale", "audit", "--domain", "turned_ball", "--target", "[1,0]")
    assert code == 2
    assert err == "error: target point is inside the domain, not on its boundary\n"
    code, _, err = run(capsys, "scale", "audit", "--domain", "three_face",
                       "--target", "[1,0]")
    assert code == 2
    assert err == "error: no automorphism model for three-face\n"


def test_boxlemma_stress_csv(capsys, tmp_path):
    out_file = tmp_path / "box.csv"
    code, out, _ = run(capsys, "boxlemma", "stress", "--dim", "2",
                       "--instances", "10", "--out", str(out_file))
    assert code == 0
    assert "zero violations" in out
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# seed=0")
    assert lines[1] == "instance,r_1,slack"
    assert len(lines) == 2 + 10
    assert all(float(line.split(",")[2]) >= -1e-9 for line in lines[2:])


def test_boxlemma_stress_lists_each_slope_failure_once(capsys, monkeypatch):
    monkeypatch.setattr("invmet.suites.slope_checks",
                        lambda bodies: [(1.0, 0.5)] * len(bodies))
    code, _, err = run(capsys, "boxlemma", "stress", "--dim", "2",
                       "--instances", "3")
    assert code == 1
    witness = json.loads(err)["witness"]
    assert [f["instance"] for f in witness] == [0, 1, 2]
    assert all(f["slope"] - f["slope_bound"] == 0.5 for f in witness)


def test_dominate_halfplane_profile(capsys, tmp_path):
    out_file = tmp_path / "profile.json"
    code, out, _ = run(capsys, "dominate", "--domain", "halfplane",
                       "--radii", "0.25,1", "--samples", "256",
                       "--out", str(out_file))
    assert code == 0
    assert "PASS" in out
    payload = json.loads(out_file.read_text())
    assert payload["method"] == "apollonius-exact"
    assert payload["seed"] == 0
    assert payload["profile"]["passed"] is True
    assert len(payload["profile"]["cells"]) == 6
    # any product of half-planes alone takes the half-plane check
    code, out, _ = run(capsys, "dominate", "--radii", "0.25", "--samples", "64",
                       "--domain", '{"kind": "halfplane", "dim": 2, "orientation": "left"}')
    assert code == 0
    assert json.loads(out[:out.rindex("}") + 1])["method"] == "apollonius-exact"


def test_dominate_convex_inline_points(capsys):
    code, out, _ = run(capsys, "dominate", "--domain", "polydisc2",
                       "--radii", "0.5", "--samples", "200",
                       "--points", "[[0,0],[[0.3,0.1],[-0.2,0]]]")
    assert code == 0
    payload = json.loads(out[:out.rindex("}") + 1])
    assert payload["method"] == "certified-sampling"
    assert payload["profile"]["passed"] is True
    assert payload["profile"]["domain"] == "polydisc"


def test_dominate_rejects_bad_radii(capsys):
    code, _, err = run(capsys, "dominate", "--domain", "polydisc2",
                       "--radii", "0.5,-1")
    assert code == 2
    assert "radii must be positive" in err


def test_squeeze_cert_three_face(capsys):
    code, out, _ = run(capsys, "squeeze", "cert", "--domain", "three_face",
                       "--at", "[0,0]", "--samples", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] == pytest.approx(0.75, abs=1e-12)
    assert payload["R"] == pytest.approx(1.0, abs=1e-12)
    assert payload["c_bound"] == 1.0
    assert payload["validated"] is True
    assert "circular center" in payload["c_provenance"]


def test_squeeze_sweep_csv_and_threshold_failure(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "squeeze", "sweep", "--domain", "three_face",
                       "--corner", "[1,-1]", "--steps", "6",
                       "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# seed=0")
    assert lines[1] == "k,dist_to_q,r,R,ratio,c_bound"
    assert len(lines) == 2 + 6
    code, _, err = run(capsys, "squeeze", "sweep", "--domain", "three_face",
                       "--corner", "[1,-1]", "--steps", "3",
                       "--threshold", "0.999999")
    assert code == 1
    witness = json.loads(err)
    assert witness["error"] == "sweep final ratio below threshold"


def test_squeeze_sweep_requires_polyhedron(capsys):
    code, _, err = run(capsys, "squeeze", "sweep", "--domain", "ball2",
                       "--corner", "[1,0]")
    assert code == 2
    assert "polyhedral" in err


def test_env_defaults_are_honored(capsys, monkeypatch, polydisc2_file):
    monkeypatch.setenv("INVMET_SEED", "9")
    monkeypatch.setenv("INVMET_DOMAIN", str(polydisc2_file))
    code, out, _ = run(capsys, "metric", "--at", "[0,0]", "--dir", "[1,1]")
    assert code == 0
    assert "seed 9" in out
    # explicit flag beats the environment
    code, out, _ = run(capsys, "metric", "--seed", "4",
                       "--at", "[0,0]", "--dir", "[1,1]")
    assert code == 0
    assert "seed 4" in out


def test_workers_is_a_verify_all_flag(capsys):
    assert build_parser().parse_args(["verify-all", "--workers", "1"]).workers == 1
    with pytest.raises(SystemExit) as ei:
        main(["metric", "--domain", "polydisc2", "--at", "[0,0]", "--dir", "[1,1]",
              "--workers", "2"])
    assert ei.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_bad_input_is_exit_2_and_a_program_fault_exit_3(capsys, monkeypatch):
    # argparse does not check an environment default against its choices, so
    # the convention reaches distance_scale, which rejects it as bad input
    monkeypatch.setenv("INVMET_CONVENTION", "bogus")
    code, _, err = run(capsys, "distance", "--domain", "disc",
                       "--from", "[0]", "--to", "[0.5]")
    assert code == 2
    assert err.startswith("error: unknown convention 'bogus'")
    monkeypatch.delenv("INVMET_CONVENTION")

    def broken(args):
        raise ValueError("invalid bound [1.0, 0.5]")

    monkeypatch.setattr("invmet.cli.cmd_metric", broken)
    code, _, err = run(capsys, "metric", "--domain", "disc", "--at", "[0]", "--dir", "[1]")
    assert code == 3
    assert err.startswith("internal error:")
    assert "ValueError: invalid bound" in err


@pytest.mark.parametrize("argv", [
    ["indicatrix", "--domain", "three_face", "--at", "[0,0]", "--directions", "0"],
    ["indicatrix", "--domain", "three_face", "--at", "[0,0]", "--directions", "-5"],
    ["dominate", "--domain", "three_face", "--radii", "0.5", "--samples", "0"],
    ["dominate", "--domain", "three_face", "--radii", "0.5", "--samples", "-3"],
    ["squeeze", "cert", "--domain", "three_face", "--at", "[0,0]", "--samples", "0"],
    ["squeeze", "sweep", "--domain", "three_face", "--corner", "[1,-1]", "--steps", "0"],
    ["boxlemma", "stress", "--dim", "1"],
    ["boxlemma", "stress", "--dim", "0"],
    ["boxlemma", "stress", "--dim", "2", "--instances", "0"],
    ["scale", "audit", "--domain", "disc", "--target", "[1]", "--steps", "0"],
    ["scale", "audit", "--domain", "disc", "--target", "[1]", "--grid", "0"],
    ["verify-all", "--out", "unused", "--workers", "0"],
    ["verify-all", "--out", "unused", "--workers", "-1"],
    ["indicatrix", "--domain", "three_face", "--at", "[0,0]", "--seed", "-3"],
    ["metric", "--domain", "ball2", "--at", "[0,0]", "--dir", "[1,0]", "--seed", "-3"],
    ["verify-all", "--out", "unused", "--seed", "-1"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_a_count_below_its_least_value_is_exit_2_naming_the_flag(capsys, argv):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be at least" in err


def test_a_count_that_is_no_integer_keeps_argparses_message(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["boxlemma", "stress", "--dim", "two"])
    assert ei.value.code == 2
    assert "argument --dim: invalid int value: 'two'" in capsys.readouterr().err


@pytest.mark.parametrize("var, value, message, argv", [
    ("INVMET_SEED", "x", "invalid int value 'x'",
     ["metric", "--domain", "disc", "--at", "[0]", "--dir", "[1]"]),
    ("INVMET_TOL", "x", "invalid float value 'x'",
     ["metric", "--domain", "disc", "--at", "[0]", "--dir", "[1]"]),
    ("INVMET_WORKERS", "x", "invalid int value 'x'", ["verify-all", "--out", "unused"]),
    ("INVMET_WORKERS", "0", "must be at least 1, got 0", ["verify-all", "--out", "unused"]),
    ("INVMET_WORKERS", "-1", "must be at least 1, got -1", ["verify-all", "--out", "unused"]),
    ("INVMET_SEED", "-2", "must be at least 0, got -2",
     ["indicatrix", "--domain", "three_face", "--at", "[0,0]"]),
], ids=["seed-metric", "tol-metric", "workers-verify-all", "workers-0-verify-all",
        "workers-minus-1-verify-all", "seed-minus-2-indicatrix"])
def test_malformed_env_value_is_exit_2_naming_the_variable(capsys, monkeypatch,
                                                           var, value, message, argv):
    monkeypatch.setenv(var, value)
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    assert f"error: {var}: {message}" in capsys.readouterr().err


def test_env_value_for_a_flag_the_subcommand_lacks_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("INVMET_WORKERS", "abc")
    code, out, _ = run(capsys, "metric", "--domain", "disc", "--at", "[0]", "--dir", "[1]")
    assert code == 0 and out.splitlines()[0] == "1.0"


def test_cached_parser_reads_the_environment_on_each_call(capsys, monkeypatch):
    assert build_parser() is build_parser()
    monkeypatch.delenv("INVMET_SEED", raising=False)
    argv = ("metric", "--domain", "polydisc2", "--at", "[0,0]", "--dir", "[1,1]")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "seed 0" in out
    monkeypatch.setenv("INVMET_SEED", "9")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "seed 9" in out


def test_domain_is_required_without_the_environment(capsys, monkeypatch):
    monkeypatch.delenv("INVMET_DOMAIN", raising=False)
    with pytest.raises(SystemExit) as ei:
        main(["metric", "--at", "[0]", "--dir", "[1]"])
    assert ei.value.code == 2
    assert "the following arguments are required: --domain" in capsys.readouterr().err
