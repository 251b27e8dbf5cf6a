"""Command-line interface.

Subcommands: metric, distance, indicatrix, scale audit, boxlemma stress,
dominate, squeeze {cert,sweep}, verify-all.  Each subcommand takes only the
common flags its handler reads, each also supplied through an
``INVMET_``-prefixed environment variable (``INVMET_SEED``, ``INVMET_TOL``,
``INVMET_CONVENTION``, ``INVMET_OUT``, ``INVMET_WORKERS``,
``INVMET_DOMAIN``); an explicit flag always wins over the environment.  The
parser is built once per process and reads no environment: each ``main``
call reads the variables for the flags its subcommand has, ignores the rest
(an empty variable counts as unset), and exits 2 naming the variable when a
value does not convert or, for a count, is below its least value.

Exit codes: 0 on success, 1 when a verified property fails (a witness is
dumped to stderr as JSON), 2 on malformed input (the message names the
offending location), 3 on an internal error, a fault in the program itself
(the traceback goes to stderr).  Artifacts record the seed; CSV bodies
contain no timestamps, so reruns with the same seed are byte-identical.
Wall-clock time appears only in the ``verify-all`` manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import config
from .circularity import asymptotics_sweep, circularity_lower_bound, squeeze_lower_bound
from .domains import AutomorphismFamily, UnitBall, load_cvector, polydisc
from .errors import (
    CertificateError,
    EvaluationError,
    InvmetError,
    LemmaViolationError,
    ScheduleError,
    SpecLoadError,
)
from .metrics import indicatrix, kobayashi_distance, kobayashi_metric, write_indicatrix_csv
from .metrics import CONVENTIONS
from .sampling import SampleStream
from .scaling import default_schedule, equivalence_audit
from .domination import HALFPLANE_HEIGHTS, verify_convex_domination, verify_halfplane_domination
from .suites import box_stress_rows, verify_all
from .zoo import resolve_domain, zoo_names


def _count(least: int):
    """An argparse type for a count flag: an integer of at least ``least``,
    so that a smaller one is bad input, exit 2 naming the flag."""
    def count(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    count.__name__ = "int"   # argparse's message for text that is no integer
    return count


_ENV_PREFIX = "INVMET_"
# Flags that fall back to INVMET_<FLAG>: dest -> (type, value when neither the
# flag nor the variable is given).
_ENV_FLAGS = {"domain": (str, None), "seed": (_count(0), 0), "tol": (float, None),
              "convention": (str, "standard"), "out": (str, None),
              "workers": (_count(1), 1)}


def _load_json(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecLoadError(f"invalid JSON ({exc.msg})",
                            f"{flag} offset {exc.pos}")


def _parse_vector(text: str, flag: str):
    return load_cvector(_load_json(text, flag), flag)


def _parse_points(text: str, flag: str):
    obj = _load_json(text, flag)
    if not isinstance(obj, list) or not obj:
        raise SpecLoadError("expected a list of points", flag)
    return [load_cvector(p, f"{flag}[{i}]") for i, p in enumerate(obj)]


def _radii_list(text: str, flag: str):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise SpecLoadError("expected comma-separated numbers", flag)
    if not vals or any(r <= 0 for r in vals):
        raise SpecLoadError("radii must be positive", flag)
    return vals


def _meta_line(args, **extra) -> str:
    fields = {"seed": args.seed, "convention": args.convention,
              "version": config.VERSION, **extra}
    return "# " + " ".join(f"{k}={v}" for k, v in fields.items()) + "\n"


def _output(path):
    """The file at ``path`` to write, closed on leaving, or stdout, left open."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _write_json(path, payload):
    """``payload`` as indented JSON to the file at ``path``, or stdout."""
    with _output(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _witness(message: str, payload) -> int:
    json.dump({"error": message, "witness": payload}, sys.stderr,
              default=str, sort_keys=True)
    sys.stderr.write("\n")
    return 1


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_metric(args) -> int:
    d = resolve_domain(args.domain)
    x = _parse_vector(args.at, "--at")
    v = _parse_vector(args.dir, "--dir")
    bound = kobayashi_metric(d, x, v, seed=args.seed)
    print(repr(bound.value))
    print(f"# bracket [{bound.lower!r}, {bound.upper!r}]"
          f" methods {bound.lower_method}|{bound.upper_method}"
          f" seed {args.seed}")
    tol = args.tol if args.tol is not None else config.MODEL_BRACKET_TOL
    if bound.width > tol and not bound.is_exact:
        print(f"# bracket width {bound.width!r} exceeds tol {tol!r}")
    return 0


def cmd_distance(args) -> int:
    d = resolve_domain(args.domain)
    x = _parse_vector(args.frm, "--from")
    y = _parse_vector(args.to, "--to")
    bound = kobayashi_distance(d, x, y, convention=args.convention, seed=args.seed)
    print(repr(bound.value))
    print(f"# bracket [{bound.lower!r}, {bound.upper!r}]"
          f" methods {bound.lower_method}|{bound.upper_method}"
          f" convention {args.convention} seed {args.seed}")
    print(f"# nodes {bound.nodes} converged {bound.converged}"
          f" final_delta {bound.final_delta!r}")
    return 0


def cmd_indicatrix(args) -> int:
    d = resolve_domain(args.domain)
    x = _parse_vector(args.at, "--at")
    sample = indicatrix(d, x, directions=args.directions, seed=args.seed)
    with _output(args.out) as fh:
        fh.write(_meta_line(args, directions=args.directions,
                            method="bracket-radial"))
        write_indicatrix_csv(sample, fh)
    lo = float(np.min(sample.radius_lower))
    hi = float(np.max(sample.radius_upper))
    print(f"# {args.directions} directions, radius range"
          f" [{lo!r}, {hi!r}] seed {args.seed}")
    return 0


def cmd_scale_audit(args) -> int:
    d = resolve_domain(args.domain)
    target = _parse_vector(args.target, "--target")
    fam = AutomorphismFamily(d, target)
    report = equivalence_audit(d, fam, d.basepoint,
                               default_schedule(args.steps), seed=args.seed,
                               grid_size=args.grid)
    tol = args.tol if args.tol is not None else config.GRID_EQUIVALENCE_TOL
    for rec in report.records:
        print(f"step {rec.index}: parameter={rec.parameter!r}"
              f" margin={rec.boundary_margin!r} det={rec.det_abs!r}"
              f" c2/c1={(rec.c2 / rec.c1)!r} sup_diff={rec.sup_grid_diff!r}"
              f" [frame|svd]")
    if args.out:
        Path(args.out).write_text(report.to_json(indent=2) + "\n")
    ok = report.bounded and report.max_sup_diff <= tol
    print(f"max det={report.max_det_abs!r}"
          f" max distortion={report.max_distortion_ratio!r}"
          f" max sup_diff={report.max_sup_diff!r} -> "
          + ("PASS" if ok else "FAIL"))
    if not ok:
        worst = max(report.records, key=lambda r: r.sup_grid_diff)
        return _witness("scaling equivalence audit failed",
                        {"step": worst.index, "sup_diff": worst.sup_grid_diff,
                         "det_abs": worst.det_abs})
    return 0


def cmd_boxlemma_stress(args) -> int:
    rows, failures, _ = box_stress_rows(args.dim, args.instances, args.seed)
    with _output(args.out) as fh:
        fh.write(_meta_line(args, dim=args.dim, instances=args.instances,
                            method="cascade-exact-vertices"))
        fh.write("instance,r_1,slack\n")
        for inst, r1, slack in rows:
            fh.write(f"{inst},{r1!r},{slack!r}\n")
    if failures:
        return _witness("box containment violated", failures)
    print(f"# {args.instances} instances in dimension {args.dim}: "
          f"zero violations (seed {args.seed})")
    return 0


def cmd_dominate(args) -> int:
    d = resolve_domain(args.domain)
    radii = _radii_list(args.radii, "--radii")
    if d.is_product and not d.modulus_count:
        profile = verify_halfplane_domination(HALFPLANE_HEIGHTS, radii,
                                              args.samples, seed=args.seed,
                                              convention=args.convention)
        method = "apollonius-exact"
    else:
        if args.points == "auto":
            stream = SampleStream(args.seed).fork(555)
            xs = [d.basepoint] + list(d.interior_samples(2, stream))
        else:
            xs = _parse_points(args.points, "--points")
        tol = args.tol if args.tol is not None else config.DOMINATION_TOL
        profile = verify_convex_domination(d, xs, radii, args.samples,
                                           seed=args.seed,
                                           convention=args.convention, tol=tol)
        method = "certified-sampling"
    payload = {"seed": args.seed, "version": config.VERSION, "method": method,
               "profile": profile.to_dict()}
    _write_json(args.out, payload)
    print(f"# worst gauge/claimed ratio {profile.worst_ratio!r} -> "
          + ("PASS" if profile.passed else "FAIL"))
    if not profile.passed:
        bad = [c for c in profile.cells if not profile.holds(c)]
        return _witness("domination bound violated", [
            {"radius": c.radius, "worst_gauge": c.worst_gauge,
             "claimed": c.claimed_bound} for c in bad])
    return 0


def cmd_squeeze_cert(args) -> int:
    d = resolve_domain(args.domain)
    x = _parse_vector(args.at, "--at")
    model = UnitBall(d.dim) if args.model == "ball" else polydisc(np.ones(d.dim))
    cert = squeeze_lower_bound(d, x, model, seed=args.seed)
    check = cert.validate(args.samples, seed=args.seed + 1)
    cb = circularity_lower_bound(d, x, [cert])
    payload = {"seed": args.seed, "version": config.VERSION,
               "embedding": cert.description, "r": cert.inner_r,
               "R": cert.outer_R, "ratio": cert.ratio, "c_bound": cb.bound,
               "c_provenance": cb.provenance, "validated": check.passed,
               "worst_outer_gauge": check.worst_outer_gauge,
               "worst_inner_margin": check.worst_inner_margin,
               "notes": {k: str(v) for k, v in cert.notes.items()}}
    _write_json(args.out, payload)
    if not check.passed:
        return _witness("squeeze certificate failed validation", payload)
    return 0


def cmd_squeeze_sweep(args) -> int:
    d = resolve_domain(args.domain)
    corner = _parse_vector(args.corner, "--corner")
    report = asymptotics_sweep(d, corner, args.steps,
                               threshold=args.threshold)
    with _output(args.out) as fh:
        fh.write(_meta_line(args, steps=args.steps,
                            method="pipeline-bisection"))
        report.to_csv(fh)
    print(f"# final ratio {report.final_ratio!r} after {args.steps} steps"
          f" (c >= {report.rows[-1].c_bound!r})")
    if args.threshold is not None and not report.threshold_met:
        return _witness("sweep final ratio below threshold",
                        {"final_ratio": report.final_ratio,
                         "threshold": args.threshold})
    return 0


def cmd_verify_all(args) -> int:
    out_dir = args.out if args.out else "invmet-verify"
    rep = verify_all(args.seed, out_dir, args.workers,
                     convention=args.convention)
    for name, res in rep.results.items():
        print(f"{name}: {'PASS' if res.passed else 'FAIL'}"
              f" ({len(res.rows)} rows)")
    print(f"manifest: {rep.out_dir / 'manifest.json'}"
          f" (wall {rep.manifest['wall_time']:.2f}s, seed {args.seed})")
    if not rep.passed:
        fails = {name: res.failures for name, res in rep.results.items()
                 if not res.passed}
        return _witness("verification suite failed", fails)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _command(sub, name: str, handler: str, help: str,
             flags: str) -> argparse.ArgumentParser:
    """A subcommand with the common flags its handler reads, named in
    ``flags``; ``handler`` names its ``cmd_`` function, looked up when the
    command runs."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler, parser=p)
    for dest in flags.split():
        kw = {}
        if dest == "domain":
            kw["help"] = ("zoo name, JSON file path, or inline JSON;"
                          " required unless INVMET_DOMAIN is set")
        elif dest == "convention":
            kw["choices"] = list(CONVENTIONS)
        p.add_argument("--" + dest, type=_ENV_FLAGS[dest][0], **kw)
    return p


def _fill_from_env(args):
    """Fill each unset flag of the chosen subcommand from INVMET_<FLAG>,
    converted with the flag's type, or else from its fallback."""
    for dest, (kind, fallback) in _ENV_FLAGS.items():
        if not hasattr(args, dest) or getattr(args, dest) is not None:
            continue
        var = _ENV_PREFIX + dest.upper()
        text = os.environ.get(var)
        if not text:
            setattr(args, dest, fallback)
            continue
        try:
            setattr(args, dest, kind(text))
        except argparse.ArgumentTypeError as exc:
            args.parser.error(f"{var}: {exc}")
        except ValueError:
            args.parser.error(f"{var}: invalid {kind.__name__} value {text!r}")
    if hasattr(args, "domain") and args.domain is None:
        args.parser.error("the following arguments are required: --domain")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invmet",
        description="Certified invariant-metric computations on convex domains.",
        epilog="Environment defaults: INVMET_SEED, INVMET_TOL, "
               "INVMET_CONVENTION, INVMET_OUT, INVMET_WORKERS, INVMET_DOMAIN "
               "(explicit flags win; read on each call).  Bundled domains: "
               + ", ".join(zoo_names()) + ".")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "metric", "cmd_metric",
                 "metric bracket at a point/direction", "domain seed tol")
    p.add_argument("--at", required=True)
    p.add_argument("--dir", required=True)

    p = _command(sub, "distance", "cmd_distance",
                 "distance bracket between two points", "domain seed convention")
    p.add_argument("--from", dest="frm", required=True)
    p.add_argument("--to", required=True)

    p = _command(sub, "indicatrix", "cmd_indicatrix",
                 "radial indicatrix profile as CSV", "domain seed convention out")
    p.add_argument("--at", required=True)
    p.add_argument("--directions", type=_count(1), default=256)

    p = sub.add_parser("scale", help="rescaling audits")
    scale_sub = p.add_subparsers(dest="subcommand", required=True)
    pa = _command(scale_sub, "audit", "cmd_scale_audit",
                  "tau vs A^-1 sigma along a schedule", "domain seed tol out")
    pa.add_argument("--target", required=True)
    pa.add_argument("--steps", type=_count(1), default=20)
    pa.add_argument("--grid", type=_count(1), default=100)

    p = sub.add_parser("boxlemma", help="symmetric box bounds")
    box_sub = p.add_subparsers(dest="subcommand", required=True)
    pb = _command(box_sub, "stress", "cmd_boxlemma_stress",
                  "random polytope stress battery", "seed convention out")
    pb.add_argument("--dim", type=_count(2), required=True)
    pb.add_argument("--instances", type=_count(1), default=500)

    p = _command(sub, "dominate", "cmd_dominate",
                 "distance-ball domination profile", "domain seed tol convention out")
    p.add_argument("--radii", required=True,
                   help="comma-separated list, e.g. 0.25,0.5,1")
    p.add_argument("--points", default="auto",
                   help="'auto' or JSON list of points")
    p.add_argument("--samples", type=_count(1), default=2000)

    p = sub.add_parser("squeeze", help="squeeze certificates")
    sq_sub = p.add_subparsers(dest="subcommand", required=True)
    pc = _command(sq_sub, "cert", "cmd_squeeze_cert",
                  "identity-translate certificate", "domain seed out")
    pc.add_argument("--at", required=True)
    pc.add_argument("--model", choices=("polydisc", "ball"),
                    default="polydisc")
    pc.add_argument("--samples", type=_count(1), default=10_000)
    ps = _command(sq_sub, "sweep", "cmd_squeeze_sweep",
                  "corner asymptotics sweep", "domain seed convention out")
    ps.add_argument("--corner", required=True)
    ps.add_argument("--steps", type=_count(1), default=12)
    ps.add_argument("--threshold", type=float, default=None)

    _command(sub, "verify-all", "cmd_verify_all",
             "run every suite, write CSVs + manifest", "seed convention out workers")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _fill_from_env(args)
    try:
        return globals()[args.handler](args)
    except (LemmaViolationError, ScheduleError, CertificateError,
            EvaluationError) as exc:
        payload = getattr(exc, "witness", None)
        if payload is None:
            payload = {"index": getattr(exc, "index", None)}
        return _witness(str(exc), payload)
    except (InvmetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
