"""Span recorder for the benchmark's traced run.

``Tracer.install()`` swaps each public function listed in ``TRACED`` for a
wrapper in every loaded ``invmet`` module that binds it, so calls made through
an imported name are seen too; ``uninstall()`` puts the originals back. No
file under ``src/`` changes. A wrapper records one span per call: name, kind
of the domain argument, rows, start, end, parent span and run id. A call of a
function from inside its own span (the affine-image recursion of
``distance_ball_sample``) is folded into the outer span.

Spans stay in memory; ``write_jsonl`` writes them out, followed by one line
per layer group with its self time: the span's duration minus the part of it
its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
from collections import defaultdict

# (module, function, rows): rows is a constant or the argument that holds the
# number of directions or points the call brackets.
TRACED = [
    ("invmet.metrics", "kobayashi_metric", 1),
    ("invmet.metrics", "kobayashi_distance", 1),
    ("invmet.metrics", "indicatrix", "directions"),
    ("invmet.metrics", "indicatrix_volume", "samples"),
    ("invmet.metrics", "distance_ball_sample", "count"),
    ("invmet.domains", "load_domain", 1),
    ("invmet.cli", "main", 1),
    ("invmet.suites", "verify_all", 0),
    ("invmet.suites", "run_metric_suite", 0),
    ("invmet.suites", "run_scaling_suite", 0),
    ("invmet.suites", "run_box_suite", 0),
    ("invmet.suites", "run_domination_suite", 0),
    ("invmet.suites", "run_volume_suite", 0),
    ("invmet.suites", "run_barth_suite", 0),
    ("invmet.suites", "run_squeeze_suite", 0),
    ("invmet.suites", "run_sweep_suite", 0),
    ("invmet.scaling", "stretching_frame", 1),
    ("invmet.core", "maximize_on_unit_sphere", 1),
    ("invmet.convexbox", "box_lemma_bound", 1),
    ("invmet.domination", "verify_convex_domination", 1),
    ("invmet.circularity", "barth_check", "samples"),
    ("invmet.circularity", "squeeze_lower_bound", 1),
    ("invmet.circularity", "polyhedral_pipeline", 1),
]

_current = contextvars.ContextVar("bench_span", default=None)

# span fields, kept as a list per span for speed
ID, PARENT, NAME, KIND, ROWS, START, END, RUN = range(8)


class Tracer:
    def __init__(self, kind_of, clock):
        self.kind_of = kind_of      # domain object -> label
        self.clock = clock          # seconds, as the benchmark times everything
        self.spans = []
        self.run_id = ""
        self._patches = []

    def _wrap(self, name, orig, rows):
        if isinstance(rows, str):
            params = inspect.signature(orig).parameters
            pos, default = list(params).index(rows), params[rows].default
        spans, perf = self.spans, self.clock

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = _current.get()
            if parent is not None and parent[NAME] == name:
                return orig(*args, **kwargs)
            if isinstance(rows, str):
                n = kwargs.get(rows, args[pos] if len(args) > pos else default)
            else:
                n = rows
            kind = self.kind_of(args[0]) if args else ""
            span = [len(spans), None if parent is None else parent[ID], name, kind,
                    int(n), perf(), None, self.run_id]
            spans.append(span)
            token = _current.set(span)
            try:
                return orig(*args, **kwargs)
            finally:
                span[END] = perf()
                _current.reset(token)
        return wrapper

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "invmet" or k.startswith("invmet."))]
        for mod_name, fn, rows in TRACED:
            orig = getattr(sys.modules[mod_name], fn)
            wrapper = self._wrap(f"{mod_name.split('.')[-1]}.{fn}", orig, rows)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - child[s[ID]] for s in self.spans]

    def groups(self, by=lambda run: run.split("/")[0]):
        """(name, kind, by(run id)) -> [calls, rows, total_s, self_s]; ``by``
        defaults to the workload part of the run id."""
        out = defaultdict(lambda: [0, 0, 0.0, 0.0])
        for s, own in zip(self.spans, self.self_times()):
            g = out[(s[NAME], s[KIND], by(s[RUN]))]
            g[0] += 1
            g[1] += s[ROWS]
            g[2] += s[END] - s[START]
            g[3] += own
        return dict(out)

    def write_jsonl(self, path):
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[ID], "parent": s[PARENT], "name": s[NAME],
                                     "kind": s[KIND], "rows": s[ROWS],
                                     "start": s[START] - t0, "end": s[END] - t0,
                                     "run": s[RUN]}) + "\n")
            for (name, kind, wl), (calls, rows, total, own) in sorted(self.groups().items()):
                fh.write(json.dumps({"layer": name, "kind": kind, "workload": wl,
                                     "calls": calls, "rows": rows, "total_s": total,
                                     "self_s": own}) + "\n")
