"""Benchmark for invmet: one workload, end to end or traced layer by layer.

Run from the repository root:

    python3 bench/run.py --workload vectorized --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout, in this one process,
single-threaded (BLAS pinned to one thread). ``BENCHMARK.json`` declares the
workloads, the metrics with their units and bounds, and why each was chosen;
``bench/layer_map.json`` says which end-to-end metric each per-layer metric
should move. Every time is CPU time of this process, less the time spent
sampling the machine's speed (see speed.py); the end-to-end times are then
corrected for the machine's speed swings, in reference seconds, and the
per-layer span times are not.

``--trace 0`` sets up the workload three times (``setup_s`` is the import
time plus the median set-up), then repeats passes of its fixed operation list
until ``--seconds`` of passes are measured, at least two. Every output is
checked after its pass. It prints every end-to-end metric. A latency
percentile is taken over the pass's queries (or distances), each timed by its
median over the passes: one timing of a 3 ms query strays by 10 to 25% on a
shared machine, which made a 99th percentile over single timings swing by a
tenth from run to run.

``--trace 1`` alternates untraced and traced passes of the workload for
``--seconds`` (``trace.overhead_frac`` compares their medians), then runs one
traced pass of each other workload, so that every per-layer metric is
measured from the workload it belongs to. Spans go to
``.bench_out/spans-<workload>-seed<seed>.jsonl``. It prints every per-layer
metric.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path

# The matrices are 2x2 to 4x4; a second BLAS thread only adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS pin)

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("vectorized", "gauge-bodies", "verify-all")
SETUP_REPEATS = 3
MIN_PASSES = 2   # wall_s is a median of passes
# The clock is the main thread's (see speed); CPU time on other threads beyond
# this share of the process's fails the run.
MAX_OTHER_THREADS = 0.02
# Benchmark kind -> the workload whose spans give its per-layer metrics.
KIND_WORKLOAD = {"model": "vectorized", "affine": "vectorized", "polyhedron": "vectorized",
                 "balanced_spec": "gauge-bodies", "gauge_callable": "gauge-bodies"}
SUITES = ("metric", "scaling", "boxlemma", "domination", "volume", "barth", "squeeze",
          "sweep")
SUITE_FUNCTION = {"boxlemma": "run_box_suite"}
AUDIT_CALLS = ("scaling.stretching_frame", "core.maximize_on_unit_sphere",
               "convexbox.box_lemma_bound", "domination.verify_convex_domination",
               "circularity.barth_check", "circularity.squeeze_lower_bound",
               "circularity.polyhedral_pipeline", "cli.main")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Op categories, intervals and rows, bracket widths and failures over a run."""

    def __init__(self):
        self.cat, self.start, self.end, self.rows = [], [], [], []
        self.widths = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, ops, outs, check):
        for op, (start, end, out, err) in zip(ops, outs):
            self.attempted += 1
            self.cat.append(op.cat)
            self.start.append(start)
            self.end.append(end)
            self.rows.append(op.rows)
            try:
                self.widths.append(check(op, out, err))
            except Exception as exc:  # a failed check is counted, never fatal
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(str(exc))


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def end_to_end(tally, sampler, imported, setups, passes):
    """End-to-end metrics, in reference seconds; call once the sampler has
    stopped. ``imported``, ``setups`` and ``passes`` are intervals of its clock."""
    sec = sampler.scale(tally.start, tally.end)
    rows = np.array(tally.rows)
    n = len(sec) // len(passes)            # every pass runs the same ops in order
    per_op = np.median(sec.reshape(len(passes), n), axis=0)
    cat = np.array(tally.cat[:n])
    q = per_op[cat == "query"]
    if len(q) < 1000:
        print(f"warning: {len(q)} queries; query_p99_ms needs 1000", file=sys.stderr)
    widths = np.concatenate(tally.widths)
    (import_s,) = sampler.scale(*zip(imported))
    return {
        "setup_s": import_s + statistics.median(sampler.scale(*zip(*setups))),
        "wall_s": statistics.median(sampler.scale(*zip(*passes))),
        "query_p50_ms": 1e3 * percentile(q, 50),
        "query_p90_ms": 1e3 * percentile(q, 90),
        "query_p99_ms": 1e3 * percentile(q, 99),
        "distance_p50_ms": 1e3 * percentile(per_op[cat == "distance"], 50),
        "batch_rows_per_s": rows.sum() / sec[rows > 0].sum(),
        "width_rel_mean": float(np.mean(widths)),
        "width_rel_max": float(np.max(widths)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(groups, traced_passes, overhead_frac):
    """Per-layer metrics, each from the spans of the workload it belongs to."""
    def agg(name, workloads, kind=None, phase="pass"):
        calls = rows = total = own = 0
        for (n, k, w, ph), (c, r, t, s) in groups.items():
            if n == name and w in workloads and ph == phase and kind in (None, k):
                calls, rows, total, own = calls + c, rows + r, total + t, own + s
        if calls == 0:
            print(f"warning: no {name} spans ({kind or 'any kind'}) in {workloads}",
                  file=sys.stderr)
        return calls, rows, total, own

    def ms_per_call(name, workloads, kind=None, phase="pass"):
        calls, _, _, own = agg(name, workloads, kind, phase)
        return 1e3 * own / calls if calls else 0.0

    def rows_per_s(name, workloads, kind):
        _, rows, _, own = agg(name, workloads, kind)
        return rows / own if own else 0.0

    m = {}
    for kind, wl in KIND_WORKLOAD.items():
        m[f"metrics.kobayashi_metric.{kind}_ms"] = ms_per_call(
            "metrics.kobayashi_metric", {wl}, kind)
        m[f"metrics.indicatrix.{kind}_rows_per_s"] = rows_per_s(
            "metrics.indicatrix", {wl}, kind)
        if wl == "vectorized":
            m[f"metrics.indicatrix_volume.{kind}_rows_per_s"] = rows_per_s(
                "metrics.indicatrix_volume", {wl}, kind)
        m[f"metrics.kobayashi_distance.{kind}_ms"] = ms_per_call(
            "metrics.kobayashi_distance", {wl}, kind)
        m[f"metrics.distance_ball_sample.{kind}_points_per_s"] = rows_per_s(
            "metrics.distance_ball_sample", {wl}, kind)
    m["domains.load_domain_ms"] = ms_per_call(
        "domains.load_domain", {"vectorized", "gauge-bodies"}, phase="setup")
    n = max(1, traced_passes["verify-all"])
    for suite in SUITES:
        fn = SUITE_FUNCTION.get(suite, f"run_{suite}_suite")
        m[f"suites.{suite}_s"] = agg(f"suites.{fn}", {"verify-all"})[2] / n
    for name in AUDIT_CALLS:
        m[f"{name}_ms"] = ms_per_call(name, {"verify-all"})
    m["trace.overhead_frac"] = overhead_frac
    return m


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine()}


def timed_setups(wl, repeats, clock, before=None):
    """Set-up intervals of ``clock``, and the last set-up's ops."""
    times, ops = [], None
    for k in range(repeats):
        if before:
            before(k)
        t = clock()
        ops = wl.setup()
        times.append((t, clock()))
    return times, ops


def timed_pass(workloads, ops, clock):
    """One pass: its interval of ``clock``, and each op's (start, end, out, err)."""
    t = clock()
    outs = workloads.run_pass(ops, clock)
    return (t, clock()), outs


def measure(args, workloads, sampler, work):
    """Set-ups and passes of the workload; (tally, set-up and pass intervals, info)."""
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    setups, ops = timed_setups(wl, SETUP_REPEATS, sampler.now)
    tally, passes, t0 = Tally(), [], speed.CLOCK()
    while len(passes) < MIN_PASSES or speed.CLOCK() - t0 < args.seconds:
        interval, outs = timed_pass(workloads, ops, sampler.now)
        passes.append(interval)
        tally.add(ops, outs, workloads.check)
    info = {"inputs": wl.digest, "passes": len(passes),
            "queries_per_pass": tally.cat.count("query") // len(passes)}
    return tally, setups, passes, info


def trace(args, workloads, spans, sampler, work):
    tables = []   # each workload's id(domain) -> (domain, kind)

    def kind_of(obj):
        for table in tables:
            entry = table.get(id(obj))
            if entry is not None and entry[0] is obj:
                return entry[1]
        return ""

    tracer = spans.Tracer(kind_of, sampler.now)
    tally, traced_passes = Tally(), defaultdict(int)
    passes, t0 = {True: [], False: []}, None
    digests = {}
    order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    for name in order:
        wl = workloads.WORKLOADS[name](args.seed, work)
        tables.append(wl.kinds)
        digests[name] = wl.digest

        def at_setup(k, name=name):
            tracer.run_id = f"{name}/setup{k}"
        tracer.install()
        repeats = SETUP_REPEATS if name == args.workload else 1
        _, ops = timed_setups(wl, repeats, sampler.now, at_setup)
        tracer.uninstall()
        traced = True
        while True:
            if name == args.workload:
                # alternate, so both sides see the same drift
                traced = not traced
            if traced:
                traced_passes[name] += 1
                tracer.run_id = f"{name}/pass{traced_passes[name]}"
                tracer.install()
            t0 = speed.CLOCK() if t0 is None else t0
            try:
                interval, outs = timed_pass(workloads, ops, sampler.now)
            finally:
                tracer.uninstall()
            tally.add(ops, outs, workloads.check)
            if name != args.workload:
                break
            passes[traced].append(interval)
            if (passes[True] and passes[False]
                    and speed.CLOCK() - t0 >= args.seconds):
                break
    # the passes of the other workloads came after, so every pass here has a
    # calibration on either side
    walls = {k: statistics.median(sampler.scale(*zip(*v))) for k, v in passes.items()}
    overhead = walls[True] / walls[False] - 1.0

    def workload_phase(run):
        wl, _, phase = run.partition("/")
        return wl, "setup" if phase.startswith("setup") else "pass"
    groups = {(n, k) + by: g for (n, k, by), g in tracer.groups(workload_phase).items()}
    path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(path)
    info = {"inputs": digests, "traced_passes": dict(traced_passes),
            "untraced_passes": len(passes[False]), "spans": len(tracer.spans),
            "span_file": str(path.relative_to(ROOT))}
    return tally, per_layer(groups, traced_passes, overhead), info


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "invmet" / "__init__.py").is_file():
        print("error: the invmet sources (src/invmet) are not in this checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    work = ROOT / ".bench_out" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with speed.Sampler() as sampler:
            t0 = sampler.now()
            sys.path.insert(0, str(src))
            import invmet
            import invmet.cli  # noqa: F401  (the verify-all workload's entry point)
            imported = (t0, sampler.now())
            if Path(invmet.__file__).resolve().parent != (src / "invmet").resolve():
                print(f"error: imported invmet from {invmet.__file__}", file=sys.stderr)
                return 2
            import spans
            import workloads
            if args.trace:
                tally, metrics, info = trace(args, workloads, spans, sampler, work)
            else:
                tally, setups, passes, info = measure(args, workloads, sampler, work)
        if sampler.other_threads > MAX_OTHER_THREADS:
            print(f"error: {sampler.other_threads:.1%} of the CPU time was spent off the "
                  "main thread, which the benchmark does not time", file=sys.stderr)
            return 2
        if not args.trace:
            metrics = end_to_end(tally, sampler, imported, setups, passes)
            info["wall_cpu_s"] = round(statistics.median(b - a for a, b in passes), 4)
        info["calibration_ms"] = round(1e3 * sampler.median_calibration(), 4)
        info["other_threads"] = round(sampler.other_threads, 4)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("run " + json.dumps(info, sort_keys=True))
    for name in units:
        print(f"  {name:48s} {metrics[name]:>16.6g} {units[name]}")
    print(f"  {'fail_share':48s} {tally.failed / tally.attempted:>16.6g} "
          f"({tally.failed}/{tally.attempted} operations)")
    for err in tally.errors:
        print(f"  failure: {err}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
