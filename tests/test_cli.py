"""End-to-end command-line behavior: outputs, artifacts, exit codes."""

import argparse
import ast
import json
import math
from pathlib import Path

import pytest

from invmet import cli, config
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


@pytest.mark.parametrize("flag, value, message", [
    ("--at", "[false, [true, false]]", "error: --at[0]: expected a number"),
    ("--at", "[0, [true, false]]", "error: --at[1]: expected a number"),
    ("--dir", "[1, [0, true]]", "error: --dir[1]: expected a number"),
    ("--domain", '{"kind": "ball", "dim": true}', "error: dim: key 'dim' has the wrong type"),
    ("--domain", '{"kind": "polydisc", "radii": [true, 1.0]}',
     "error: radii: radii must be a list of positive numbers"),
], ids=["at", "at-pair", "dir-pair", "ball-dim", "polydisc-radii"])
def test_json_true_and_false_are_not_numbers_exit_2(capsys, flag, value, message):
    argv = {"--domain": "ball2", "--at": "[0,0]", "--dir": "[1,0]"}
    argv[flag] = value
    code, out, err = run(capsys, "metric", *(tok for kv in argv.items() for tok in kv))
    assert code == 2 and out == ""
    assert err.startswith(message)


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
    assert lines[0] == f"# seed=0 version={config.VERSION} directions=16 method=bracket-radial"
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


@pytest.mark.parametrize("flag", [["--tol", "0"], ["--tol", "1e9"], ["--points", "[[1]]"],
                                  ["--points", "auto"]])
def test_dominate_flags_the_half_plane_check_does_not_read_are_exit_2(capsys, flag):
    """The half-plane check reads neither --tol nor --points: given either,
    dominate exits 2 naming it."""
    with pytest.raises(SystemExit) as ei:
        main(["dominate", "--domain", "halfplane", "--radii", "0.5", "--samples", "64"] + flag)
    assert ei.value.code == 2
    assert f"{flag[0]} " in capsys.readouterr().err


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
    for radii in ("0.5,-1", "nan", "inf", "0.25,-inf"):
        code, _, err = run(capsys, "dominate", "--domain", "polydisc2",
                           "--radii", radii)
        assert code == 2
        assert err == "error: --radii: radii must be positive and finite\n"


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
    assert lines[0] == f"# version={config.VERSION} steps=6 method=pipeline-bisection"
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


@pytest.mark.parametrize("argv", [
    ["indicatrix", "--domain", "three_face", "--at", "[0,0]", "--convention", "paper"],
    ["boxlemma", "stress", "--dim", "2", "--convention", "paper"],
    ["squeeze", "sweep", "--domain", "three_face", "--corner", "[1,-1]",
     "--convention", "paper"],
    ["squeeze", "sweep", "--domain", "three_face", "--corner", "[1,-1]", "--seed", "3"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_a_setting_the_command_does_not_read_is_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_every_common_flag_a_subcommand_takes_is_read_by_its_handler():
    """Each common flag named in a ``_command(sub, name, handler, help,
    flags)`` call is read as ``args.<flag>`` in the body of ``handler``."""
    tree = ast.parse(Path(cli.__file__).read_text())
    handlers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands, unread = [], []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_command"):
            name, handler, flags = (node.args[i].value for i in (1, 2, 4))
            read = {n.attr for n in ast.walk(handlers[handler])
                    if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id == "args"}
            commands.append(name)
            unread += [f"{name} --{flag}" for flag in flags.split() if flag not in read]
    assert len(commands) == 9, commands
    assert not unread, f"flags their handlers never read: {unread}"


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
    ["metric", "--domain", "ball2", "--at", "[0,0]", "--dir", "[1,0]", "--tol", "nan"],
    ["metric", "--domain", "ball2", "--at", "[0,0]", "--dir", "[1,0]", "--tol", "-1"],
    ["metric", "--domain", "ball2", "--at", "[0,0]", "--dir", "[1,0]", "--tol", "inf"],
    ["scale", "audit", "--domain", "ball2", "--target", "[1,0]", "--tol", "nan"],
    ["dominate", "--domain", "three_face", "--radii", "0.5", "--tol", "-1"],
    ["squeeze", "sweep", "--domain", "three_face", "--corner", "[1,-1]", "--threshold", "nan"],
    ["squeeze", "sweep", "--domain", "three_face", "--corner", "[1,-1]", "--threshold", "1.5"],
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
    ("INVMET_TOL", "nan", "must be at least 0 and finite, got nan",
     ["metric", "--domain", "disc", "--at", "[0]", "--dir", "[1]"]),
    ("INVMET_TOL", "-1", "must be at least 0 and finite, got -1.0",
     ["dominate", "--domain", "three_face", "--radii", "0.5"]),
], ids=["seed-metric", "tol-metric", "workers-verify-all", "workers-0-verify-all",
        "workers-minus-1-verify-all", "seed-minus-2-indicatrix", "tol-nan-metric",
        "tol-minus-1-dominate"])
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
    monkeypatch.setenv("INVMET_SEED", "abc")
    monkeypatch.setenv("INVMET_CONVENTION", "bogus")
    code, out, _ = run(capsys, "squeeze", "sweep", "--domain", "three_face",
                       "--corner", "[1,-1]", "--steps", "2")
    assert code == 0
    assert out.splitlines()[0] == f"# version={config.VERSION} steps=2 method=pipeline-bisection"


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


# a representative argv after each command's words, setting each of its flags
_COMMAND_ARGV = {
    ("metric",): ["--domain", "ball2", "--at", "[0,0]", "--dir", "[1,0]", "--seed", "3",
                  "--tol", "0.5"],
    ("distance",): ["--domain", "disc", "--from", "[0]", "--to", "[0.5]", "--seed", "1",
                    "--convention", "paper"],
    ("indicatrix",): ["--domain", "three_face", "--at", "[0,0]", "--directions", "8",
                      "--seed", "2", "--out", "unused.csv"],
    ("scale", "audit"): ["--domain", "ball2", "--target", "[1,0]", "--steps", "3",
                         "--grid", "5", "--seed", "4", "--tol", "1e-6", "--out", "unused"],
    ("boxlemma", "stress"): ["--dim", "2", "--instances", "3", "--seed", "5",
                             "--out", "unused.csv"],
    ("dominate",): ["--domain", "three_face", "--radii", "0.5", "--points", "auto",
                    "--samples", "10", "--seed", "6", "--tol", "0.1",
                    "--convention", "standard", "--out", "unused"],
    ("squeeze", "cert"): ["--domain", "three_face", "--at", "[0,0]", "--model", "ball",
                          "--samples", "10", "--seed", "7", "--out", "unused"],
    ("squeeze", "sweep"): ["--domain", "three_face", "--corner", "[1,-1]", "--steps", "2",
                           "--threshold", "0.5", "--out", "unused.csv"],
    ("verify-all",): ["--seed", "8", "--convention", "paper", "--workers", "2",
                      "--out", "unused"],
}


def _leaf_commands(parser, words=()):
    """(words, parser) of each command of the tree under ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield words, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_commands(sub, words + (name,))


def _refuse(*args, **kwargs):
    raise AssertionError("the top-level parser was consulted")


class _Parsed(Exception):
    pass


def test_main_parses_each_command_once_with_its_own_parser(monkeypatch):
    """For every command of the parser tree, main's namespace is the
    top-level parser's less ``command`` and ``subcommand``, and it comes
    from the command's own parser: the top-level one is never consulted."""
    parser = build_parser()
    leaves = dict(_leaf_commands(parser))
    assert sorted(leaves) == sorted(_COMMAND_ARGV)
    expected = {}
    for words, tail in _COMMAND_ARGV.items():
        ns = vars(parser.parse_args([*words, *tail]))
        assert (ns.pop("command"), ns.pop("subcommand", None)) == (words + (None,))[:2]
        expected[words] = ns
    for method in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(parser, method, _refuse)
    seen = []

    def parsed(args):
        seen.append(args)
        raise _Parsed

    monkeypatch.setattr(cli, "_fill_from_env", parsed)
    for words, tail in _COMMAND_ARGV.items():
        with pytest.raises(_Parsed):
            main([*words, *tail])
        assert vars(seen[-1]) == expected[words], words
        assert seen[-1].parser is leaves[words]


def test_a_valid_command_runs_without_the_top_level_parser(capsys, monkeypatch):
    monkeypatch.delenv("INVMET_SEED", raising=False)
    parser = build_parser()
    for method in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(parser, method, _refuse)
    code, out, _ = run(capsys, "metric", "--domain", "ball2", "--at", "[0,0]", "--dir", "[1,0]")
    assert (code, out) == (0, "1.0\n# bracket [1.0, 1.0] methods closed-form|closed-form seed 0\n")
    monkeypatch.setattr("sys.argv", ["invmet", "squeeze", "sweep", "--domain", "three_face",
                                     "--corner", "[1,-1]", "--steps", "2"])
    assert main() == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"# version={config.VERSION} steps=2 method=pipeline-bisection"


_CHOICES = "'metric', 'distance', 'indicatrix', 'scale', 'boxlemma', 'dominate', " \
           "'squeeze', 'verify-all'"


@pytest.mark.parametrize("argv, usage, message", [
    ([], "usage: invmet [-h]\n",
     "invmet: error: the following arguments are required: command"),
    (["nosuch"], "usage: invmet [-h]\n",
     f"invmet: error: argument command: invalid choice: 'nosuch' (choose from {_CHOICES})"),
    (["--domain", "ball2", "metric"], "usage: invmet [-h]\n",
     f"invmet: error: argument command: invalid choice: 'ball2' (choose from {_CHOICES})"),
    (["scale"], "usage: invmet scale [-h] {audit} ...\n",
     "invmet scale: error: the following arguments are required: subcommand"),
    (["scale", "nosuch"], "usage: invmet scale [-h] {audit} ...\n",
     "invmet scale: error: argument subcommand: invalid choice: 'nosuch' (choose from 'audit')"),
    (["metric", "--domain", "ball2", "--at", "[0,0]", "--dir", "[1,0]", "--bogus", "1"],
     "usage: invmet metric [-h]", "invmet metric: error: unrecognized arguments: --bogus 1"),
    (["scale", "audit", "--domain", "ball2"], "usage: invmet scale audit [-h]",
     "invmet scale audit: error: the following arguments are required: --target"),
], ids=["none", "nosuch", "flag-first", "scale", "scale-nosuch", "unrecognized", "required"])
def test_an_argv_no_command_takes_is_exit_2_with_its_parsers_usage(capsys, argv, usage,
                                                                   message):
    """No command, an unknown one or ``scale`` alone are the top-level
    parser's (or ``scale``'s) to report, as before; an unrecognized argument
    is reported with the command's own usage line."""
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(usage) and err.endswith(f"\n{message}\n"), err


@pytest.mark.parametrize("argv, usage", [
    (["-h"], "usage: invmet [-h]"),
    (["scale", "-h"], "usage: invmet scale [-h] {audit} ..."),
    (["squeeze", "sweep", "-h"], "usage: invmet squeeze sweep [-h]"),
])
def test_help_exits_0_with_its_parsers_usage(capsys, argv, usage):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 0
    assert capsys.readouterr().out.startswith(usage)
