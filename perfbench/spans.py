"""Span tracing around isocert's layer functions, installed from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
`isocert` module namespace that binds it (`from .entropy import log_Phi`
binds the name in the importer, so patching only the defining module would
miss those calls) and each traced method on its class.  `uninstall()` puts
the originals back.  A span records its name, start, end, parent, request id,
thread, whether the call raised, and a layer-specific count.  Spans stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True, slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    thread: int
    raised: bool
    info: object = None


def _points(name):
    def count(args, kwargs, result):
        return int(np.size(args[1] if len(args) > 1 else kwargs[name]))

    return count


def _measure_key(args, kwargs, result):
    return (kwargs.get("name"), kwargs.get("n"), str(kwargs.get("support")), kwargs.get("grid_kind"), str(kwargs.get("params")))


def _length(args, kwargs, result):
    return None if result is None else len(result)


def _rows(args, kwargs, result):
    return None if result is None else len(result.rows)


# (layer, module, attribute, count); a module attribute "Class.method" is a method
FUNCTIONALS = ("entropy_functional", "cost_energy", "modified_energy", "variance", "median_of", "median_energy")
TARGETS = (
    ("entropy.log_Phi", "isocert.entropy", "log_Phi", _points("x")),
    ("entropy.check_assumptions", "isocert.entropy", "check_assumptions", None),
    ("checker.check_condition", "isocert.checker", "check_condition", None),
    ("measure1d.build_measure", "isocert.measure1d", "build_measure", _measure_key),
    ("measure1d.tilde_profile", "isocert.measure1d", "tilde_profile", _points("t_grid")),
    ("measure1d.I_F_profile", "isocert.measure1d", "I_F_profile", None),
    ("expr.eval", "isocert.expr", "PotentialExpr.__call__", None),
    ("convex.legendre_transform", "isocert.convex", "legendre_transform", None),
    ("convex.eval_cost", "isocert.convex", "eval_cost", None),
    ("tester.members", "isocert.tester", "TestFamily.members", _length),
    *(("tester.functionals", "isocert.tester", fn, None) for fn in FUNCTIONALS),
    *(("tester.verify", "isocert.tester", f"verify_theorem_{t}", _rows) for t in ("2_1", "1_1", "4_4")),
)
ROOT = "cli"
LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS)) + (ROOT,)
LOG_PHI = "entropy.log_Phi"


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = -1
        self.root = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []  # (owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, count, args, kwargs):
        stack = self._stack()
        parent = stack[-1][0] if stack else self.root
        frame = [next(self._ids), name, 0]
        stack.append(frame)
        result = None
        raised = True
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = perf_counter()
            stack.pop()
            info = count(args, kwargs, result) if count is not None else None
            if name == LOG_PHI:
                info = (info, frame[2])
            self.spans.append(Span(frame[0], name, start, end, parent, self.request, threading.get_ident(), raised, info))

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, count, args, kwargs)

        return traced

    def _count_at_log(self, fn):
        """EntropyFunction.at_log counted against the enclosing log_Phi span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == LOG_PHI:
                stack[-1][2] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "isocert" or n.startswith("isocert."))]
        for layer, module, attr, count in TARGETS:
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(sys.modules[module], cls)
                self._patch(owner, meth, self._wrap(layer, getattr(owner, meth), count))
                continue
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(layer, original, count)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)
        entropy_fn = sys.modules["isocert.entropy"].EntropyFunction
        self._patch(entropy_fn, "at_log", self._count_at_log(entropy_fn.at_log))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def installed(self):
        """(owner, attribute, original) for every patch currently in place."""
        return list(self._saved)

    def run_request(self, request_id, fn):
        """Call fn() as request `request_id` under a root span."""
        stack = self._stack()
        self.request = request_id
        self.root = next(self._ids)
        stack.append([self.root, ROOT, 0])
        raised = True
        start = perf_counter()
        try:
            result = fn()
            raised = False
            return result
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(self.root, ROOT, start, end, None, request_id, threading.get_ident(), raised))
            self.root = None


# -- aggregation ------------------------------------------------------------------------


def _union(intervals, lo, hi):
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{sid: seconds of the span not covered by its child spans}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _union(children[s.sid], s.start, s.end) for s in spans}


def request_self_sums(spans):
    """For each single-threaded request: (root span wall, sum of the self
    times of all its spans).  For a well-formed span tree the two agree to
    float rounding; the request's latency as the client measured it is the
    independent figure to hold the sum against."""
    by_request = defaultdict(list)
    for s in spans:
        by_request[s.request].append(s)
    out = {}
    for rid, group in by_request.items():
        if len({s.thread for s in group}) != 1:
            continue
        root = next(s for s in group if s.name == ROOT)
        out[rid] = (root.end - root.start, math.fsum(self_times(group).values()))
    return out


def layer_metrics(spans, time_requests, count_requests):
    """Per-request layer metrics: times over `time_requests`, counts and
    ratios over `count_requests` (a fixed window, so that counts repeat
    exactly from run to run)."""
    selfs = self_times(spans)
    t_req, c_req = set(time_requests), set(count_requests)
    n_t, n_c = max(len(t_req), 1), max(len(c_req), 1)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    points = defaultdict(int)
    f_calls = log_phi_calls = members = rows = 0
    keys = []
    children = defaultdict(list)
    for s in spans:
        if s.request in t_req:
            self_s[s.name] += selfs[s.sid]
            errors[s.name] += s.raised
            if s.parent is not None:
                children[s.parent].append(s)
        if s.request not in c_req:
            continue
        calls[s.name] += 1
        if s.name == LOG_PHI:
            points[s.name] += s.info[0]
            f_calls += s.info[1]
            log_phi_calls += 1
        elif s.name == "measure1d.tilde_profile":
            points[s.name] += s.info
        elif s.name == "measure1d.build_measure":
            keys.append((s.start, s.info))
        elif s.name == "tester.members":
            members += s.info or 0
        elif s.name == "tester.verify":
            rows += s.info or 0

    seen, repeats = set(), 0
    for _, key in sorted(keys, key=lambda k: k[0]):
        repeats += key in seen
        seen.add(key)

    # pool overlap: child span time of each root / the time those children cover
    child_time = child_cover = 0.0
    for s in spans:
        if s.name == ROOT and s.request in t_req:
            kids = [(c.start, c.end) for c in children[s.sid]]
            child_time += sum(b - a for a, b in kids)
            child_cover += _union(kids, s.start, s.end)

    m = {}
    for layer in LAYERS:
        if layer != ROOT:
            m[f"{layer}.calls"] = calls[layer] / n_c
        m[f"{layer}.self_ms"] = 1e3 * self_s[layer] / n_t
        m[f"{layer}.errors"] = errors[layer] / n_t
    m[f"{LOG_PHI}.points"] = points[LOG_PHI] / n_c
    m[f"{LOG_PHI}.F_calls_per_call"] = f_calls / log_phi_calls if log_phi_calls else 0.0
    m["measure1d.tilde_profile.points"] = points["measure1d.tilde_profile"] / n_c
    m["measure1d.build_measure.repeat_share"] = repeats / len(keys) if keys else 0.0
    m["tester.members.evaluated_per_row"] = members / rows if rows else 0.0
    m["cli.pool_overlap"] = child_time / child_cover if child_cover else 1.0
    return m
