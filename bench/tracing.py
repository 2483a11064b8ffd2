"""Spans recorded from the benchmark's side of the API.

A span has a name, a start, an end, the index of the span that caused it
(its parent) and the run id.  Spans stay in memory and are written as JSON
when the run ends.  Library entry points are traced by swapping the module
attribute for a wrapper for the length of one traced pass; untraced passes
run the library exactly as imported.
"""

import contextlib
import functools
import json
import statistics
from time import perf_counter

LAYERS = ("lattice", "ctmc", "sde", "correlations", "specfun", "cli")


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": perf_counter(), "end": None,
                           "parent": parent, "run_id": self.run_id})
        self._stack.append(idx)
        return idx

    def end(self, idx, **attrs):
        span = self.spans[idx]
        span["end"] = perf_counter()
        if attrs:
            span["attrs"] = attrs
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Context manager recording one span."""
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name, fn, count=None):
        """fn traced as span `name`; count(result) is stored as attrs['n']."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(idx, **({"n": count(result)} if count and result is not None else {}))
        return traced

    @contextlib.contextmanager
    def instrumented(self, ak, targets):
        """Trace the entry points in `targets` while the block runs.

        Each target is (module, attribute, span name[, count]); the module
        is looked up in the namespace `ak`, and the attribute may be a
        dotted class member such as 'FourierModeSet.field_transform'.
        """
        saved = []
        try:
            for module, attr, name, *count in targets:
                owner = getattr(ak, module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
                saved.append((owner, leaf, fn))
                setattr(owner, leaf, self.wrap(name, fn, *count))
            yield
        finally:
            for owner, leaf, fn in reversed(saved):
                setattr(owner, leaf, fn)

    def dump(self, path, extra):
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(dict(extra, run_id=self.run_id, spans=spans), fh)


class SpanView:
    """Queries over the spans of the traced passes of one run."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        self.self_time = [s["end"] - s["start"] - c for s, c in zip(spans, child)]
        self.pass_of = []
        for i, s in enumerate(spans):
            self.pass_of.append(i if s["parent"] is None else self.pass_of[s["parent"]])
        self.passes = [i for i, s in enumerate(spans) if s["parent"] is None]

    def _under(self, i, task):
        p = self.spans[i]["parent"]
        while p is not None:
            if self.spans[p]["name"] == task:
                return True
            p = self.spans[p]["parent"]
        return False

    def select(self, name, task=None):
        return [i for i, s in enumerate(self.spans)
                if s["name"] == name and (task is None or self._under(i, task))]

    def durations(self, name, task=None):
        return [self.spans[i]["end"] - self.spans[i]["start"] for i in self.select(name, task)]

    def per_pass(self, idx, value):
        """Sum value(i) over the spans idx within each traced pass."""
        sums = {p: 0.0 for p in self.passes}
        for i in idx:
            sums[self.pass_of[i]] += value(i)
        return [sums[p] for p in self.passes]

    def pass_total(self, name, task=None):
        """Per-pass total seconds spent in spans called name."""
        return self.per_pass(self.select(name, task),
                             lambda i: self.spans[i]["end"] - self.spans[i]["start"])

    def pass_count(self, name, task=None):
        """Per-pass sum of the counts recorded in attrs['n']."""
        return self.per_pass(self.select(name, task),
                             lambda i: self.spans[i].get("attrs", {}).get("n", 0))

    def layer_self(self, layer):
        """Per-pass self time of every span of one module."""
        idx = [i for i, s in enumerate(self.spans) if s["name"].startswith(layer + ".")]
        return self.per_pass(idx, lambda i: self.self_time[i])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Linear-interpolated percentile q in [0, 100]; 0.0 for no samples."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ratio(num, den):
    return num / den if den > 0 else 0.0
