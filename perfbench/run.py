"""Closed-loop benchmark of the isocert command line, one client, in process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each request calls
`isocert.cli.main(argv)` in this warm interpreter, so it covers the parser,
configuration, builders, compute, serialisation and the `--out` file write,
but not interpreter start and `import numpy`; those are measured apart as
`setup_s`, the median over fresh interpreters, started between cycles all
through the run, of the time from spawn until `import isocert.cli` returns.

The seeded mix (see mix.py) is generated once; one full cycle warms up lazy
imports and first-call costs, then whole cycles run until `--seconds` have
passed.  Every request's exit code, verdicts and headline numbers are
compared with reference.json.

The host's speed drifts by up to 2x within seconds, so a fixed calibration
kernel (`calibrate()`, numpy and interpreter work that does not touch
isocert) runs after every request and around every cold start, and the
end-to-end timings are scaled to a host on which it takes
REFERENCE_SPEED_S; the raw figures are printed beside them.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` cycles alternate between traced and untraced, and it holds the
per-layer metrics (see spans.py); the tracing overhead measured between the
two kinds of cycle is printed above it.  BLAS threads are pinned to 1 and
ISOCERT_THREADS is unset, so the only threads besides the client are the
ones the program starts itself.
"""

import os
import sys

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy is imported anywhere
os.environ.pop("ISOCERT_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
from mix import Mix  # noqa: E402
from spans import Tracer, layer_metrics, request_self_sums  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")

COLD_STARTS = 20
COUNT_WINDOW = 2  # traced cycles whose counts are reported
MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
REFERENCE_SPEED_S = 0.005  # calibrate() on the reference host that timings are scaled to
SPEED_WINDOW = 2  # calibration samples on each side of a request that give its host speed
SETUP_CODE = "import time, isocert.cli; print(repr(time.monotonic()))"


class _Sink:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


# -- requests -------------------------------------------------------------------------


class Runner:
    """Sends requests to the CLI one at a time and checks every outcome."""

    def __init__(self, cli_main, expected, rundir):
        self._main = cli_main
        self._expected = expected
        self._rundir = rundir
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def _fail(self, argv, text):
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(f"{' '.join(argv)}: {text}")

    def call(self, argv, tracer=None, request_id=None):
        """Run one request; returns (latency in seconds, exit code, error
        text or None, output path)."""
        path = reference.output_path(self._rundir, argv)
        for stale in ("req.json", "req.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self._rundir, stale))
        full = list(argv) + ["--out", path]
        rc = error = None
        with contextlib.redirect_stderr(_Sink()):
            start = perf_counter()
            try:
                if tracer is None:
                    rc = self._main(full)
                else:
                    rc = tracer.run_request(request_id, lambda: self._main(full))
            except (Exception, SystemExit):
                error = traceback.format_exc(limit=3)
            latency = perf_counter() - start
        return latency, rc, error, path

    def request(self, argv, tracer=None, request_id=None):
        """Run one request and check its outcome; returns its latency."""
        latency, rc, error, path = self.call(argv, tracer, request_id)
        self.attempted += 1
        expected = self._expected.get(reference.request_key(argv))
        if error is not None:
            self._fail(argv, error)
        elif expected is None:
            self._fail(argv, "not in reference.json")
        else:
            bad = reference.mismatches(expected, reference.outcome(argv, rc, path))
            if bad:
                self._fail(argv, "; ".join(bad))
        return latency


@dataclass
class Cycle:
    traced: bool
    latencies: list = field(default_factory=list)  # seconds, one per request, in mix order
    speed: list = field(default_factory=list)  # calibrate() seconds, taken after each request
    ids: list = field(default_factory=list)  # request ids, as the tracer saw them


@dataclass
class Loop:
    cycles: list  # the timed cycles
    setup: list  # seconds of each cold start
    setup_speed: list  # calibrate() seconds around each cold start
    paused: float  # seconds spent on cold starts, outside the request loop


def run_cycles(mix, runner, seconds, tracer=None, cold=0):
    """Warm up with cycle 0, then run whole cycles until `seconds` have
    passed, not counting cold starts.  With a tracer, even timed cycles are
    traced and odd ones are not.  `cold` fresh-interpreter starts are spread
    evenly over the run, between cycles, so that they sample the host's
    speed across the whole run; their own time does not count towards
    `seconds`."""
    for argv in mix.cycle(0):
        runner.request(argv)
        calibrate()
    cycles, setup, setup_speed = [], [], []
    rid = 0
    paused = 0.0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start - paused
        while len(setup) < cold and elapsed >= len(setup) * seconds / cold:
            t0 = perf_counter()
            before = calibrate()
            setup.append(cold_start())
            setup_speed.append((before + calibrate()) / 2)
            paused += perf_counter() - t0
        n_traced = sum(c.traced for c in cycles)
        enough = tracer is None or (n_traced >= COUNT_WINDOW and len(cycles) > n_traced)
        if elapsed >= seconds and enough:
            return Loop(cycles, setup, setup_speed, paused)
        cycle = Cycle(traced=tracer is not None and len(cycles) % 2 == 0)
        if cycle.traced:
            tracer.install()
        try:
            for argv in mix.cycle(len(cycles) + 1):
                cycle.latencies.append(runner.request(argv, tracer if cycle.traced else None, rid))
                cycle.speed.append(calibrate())
                cycle.ids.append(rid)
                rid += 1
        finally:
            if cycle.traced:
                tracer.uninstall()
        cycles.append(cycle)


# -- measurements ---------------------------------------------------------------------

_CAL_X = np.linspace(0.01, 10.0, 20000)
_CAL_SMALL = np.arange(16.0)


def calibrate():
    """Seconds for a fixed piece of vector numpy, interpreter and small-array
    numpy work that does not touch isocert: a sample of the host's speed."""
    start = perf_counter()
    acc = 0.0
    for i in range(12):
        acc += float(np.sum(np.exp(-_CAL_X * _CAL_X / (i + 1)) * np.log1p(_CAL_X)))
    for i in range(30000):
        acc += (i % 7) * 0.5
    for i in range(600):
        acc += float(np.dot(_CAL_SMALL, _CAL_SMALL + i))
    return perf_counter() - start


def scaled_latencies(cycles):
    """Each request's latency scaled to the reference host speed: times
    REFERENCE_SPEED_S over the mean of the calibrations within SPEED_WINDOW
    of it, in the order the requests ran."""
    lat = [x for c in cycles for x in c.latencies]
    cal = [x for c in cycles for x in c.speed]
    out = []
    for i, x in enumerate(lat):
        near = cal[max(0, i - SPEED_WINDOW) : i + SPEED_WINDOW + 1]
        out.append(x * REFERENCE_SPEED_S * len(near) / math.fsum(near))
    return out


def percentile(sorted_values, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    idx = max(0, -(-p * n // 100) - 1)
    return sorted_values[idx], n - 1 - idx


def cold_start():
    """Seconds from spawning a fresh interpreter until `import isocert.cli` returns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def _read(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.readline()


def _cpu_stat():
    """(total jiffies, steal jiffies) of the host's aggregate cpu line."""
    fields = [int(v) for v in _read("/proc/stat").split()[1:9]]
    return sum(fields), fields[7]


def health(wall, cpu, stat0, stat1, speed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # informational only; numpy < 1.26 has no dict mode
        blas = "unknown"
    total, steal = stat1[0] - stat0[0], stat1[1] - stat0[1]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in (*THREAD_ENV, "ISOCERT_THREADS")},
        "process_cpu_per_wall": cpu / wall if wall > 0 else None,
        "host_steal_share": steal / total if total > 0 else None,
        "calibrate_ms": {"median": 1e3 * statistics.median(speed), "min": 1e3 * min(speed), "max": 1e3 * max(speed),
                         "reference": 1e3 * REFERENCE_SPEED_S},
        "loadavg": _read("/proc/loadavg").split()[:3],
    }


def end_to_end(loop):
    """The end-to-end metrics, scaled to the reference host speed, and the
    raw figures beside them."""
    lat = sorted(scaled_latencies(loop.cycles))
    raw = sorted(x for c in loop.cycles for x in c.latencies)
    setup = [x * REFERENCE_SPEED_S / k for x, k in zip(loop.setup, loop.setup_speed)]
    p50, _ = percentile(lat, 50)
    p75, beyond75 = percentile(lat, 75)
    n = f"n={len(lat)}"
    metrics = {
        "requests_per_s": (len(lat) / math.fsum(lat), "1/s", f"{len(lat)} requests in {len(loop.cycles)} whole cycles; "
                           f"raw {len(raw) / math.fsum(raw):.4g}"),
        "latency_p50_ms": (1e3 * p50, "ms", f"{n}; raw {1e3 * percentile(raw, 50)[0]:.4g}"),
        "latency_p75_ms": (1e3 * p75, "ms", f"{n}, {beyond75} beyond; raw {1e3 * percentile(raw, 75)[0]:.4g}"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} cold starts; raw {statistics.median(loop.setup):.4g}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss, not scaled"),
    }
    extra = []
    for p in range(99, 50, -1):
        value, beyond = percentile(lat, p)
        if beyond >= MIN_BEYOND:
            extra.append((f"latency_p{p}_ms", 1e3 * value, "ms", f"{n}, {beyond} beyond; highest percentile with >= {MIN_BEYOND} beyond"))
            break
    p90, beyond90 = percentile(lat, 90)
    if beyond90 < MIN_BEYOND:
        extra.append(("latency_p90_ms", None, "ms", f"not reported: {beyond90} samples beyond it (< {MIN_BEYOND})"))
    return metrics, extra


def tracing(cycles, tracer):
    """Per-layer metrics, the tracing overhead, and how closely the spans
    account for each traced request's latency as the client measured it."""
    traced = [c for c in cycles if c.traced]
    untraced = [c for c in cycles if not c.traced]
    time_ids = [i for c in traced for i in c.ids]
    count_ids = [i for c in traced[:COUNT_WINDOW] for i in c.ids]
    m = layer_metrics(tracer.spans, time_ids, count_ids)
    # each request's median (scaled to the reference host speed) over traced
    # and over untraced cycles, averaged over the mix
    scaled = iter(scaled_latencies(cycles))
    by_kind = {True: [], False: []}
    for c in cycles:
        by_kind[c.traced].append([next(scaled) for _ in c.latencies])
    per_req_t, per_req_u = (statistics.fmean(statistics.median(s) for s in zip(*by_kind[k])) for k in (True, False))
    latency = {i: x for c in traced for i, x in zip(c.ids, c.latencies)}
    sums = request_self_sums(tracer.spans)
    check = {
        "overhead_ms": 1e3 * (per_req_t - per_req_u),
        "overhead_share": (per_req_t - per_req_u) / per_req_u,
        "tree_residual_ms": 1e3 * max((abs(total - wall) for wall, total in sums.values()), default=0.0),
        "outside_spans_ms": 1e3 * max((latency[rid] - total for rid, (_, total) in sums.items()), default=0.0),
        "single_threaded_requests": len(sums),
    }
    return m, check


# -- entry point ----------------------------------------------------------------------


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "isocert", "cli.py")):
        sys.stderr.write(f"error: no isocert source at {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, SRC)
    import isocert.cli

    if not os.path.abspath(isocert.cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: imported isocert from {isocert.cli.__file__}, not from {SRC}\n")
        return 2
    try:
        mix = Mix(args.workload, args.seed)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    expected = reference.load()

    os.makedirs(WORKDIR, exist_ok=True)
    rundir = os.path.join(WORKDIR, f"requests-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        runner = Runner(isocert.cli.main, expected, rundir)
        tracer = Tracer() if args.trace else None
        stat0, cpu0, wall0 = _cpu_stat(), time.process_time(), perf_counter()
        loop = run_cycles(mix, runner, args.seconds, tracer, cold=0 if args.trace else COLD_STARTS)
        wall, cpu = perf_counter() - wall0 - loop.paused, time.process_time() - cpu0
        run_health = health(wall, cpu, stat0, _cpu_stat(), [x for c in loop.cycles for x in c.speed])
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    timed = sum(len(c.latencies) for c in loop.cycles)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: {len(mix)} requests/cycle, "
          f"1 warm-up cycle + {len(loop.cycles)} timed cycles ({timed} requests) in {wall:.2f} s"
          + (f" plus {len(loop.setup)} cold starts in {loop.paused:.2f} s" if loop.setup else ""))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "health": run_health}
    if args.trace == 0:
        metrics, extra = end_to_end(loop)
        for name, (value, unit, note) in metrics.items():
            print(f"  {name:<22} {value:12.6g} {unit:<4} ({note})")
        for name, value, unit, note in extra:
            print(f"  {name:<22} {'-' if value is None else format(value, '12.6g'):>12} {unit:<4} ({note})")
        record["setup_samples_s"] = loop.setup
        record["setup_speed_s"] = loop.setup_speed
    else:
        layer, check = tracing(loop.cycles, tracer)
        metrics = {name: (value, _unit(name), "") for name, value in layer.items()}
        for name, (value, unit, _) in metrics.items():
            print(f"  {name:<42} {value:14.6g} {unit}")
        print(f"  tracing overhead {check['overhead_ms']:.4g} ms per request ({100 * check['overhead_share']:.3g}% of the "
              "untraced latency; median of each request over traced vs untraced cycles)")
        print(f"  span self times sum to the root span within {check['tree_residual_ms']:.3g} ms and to the client's "
              f"latency within {check['outside_spans_ms']:.3g} ms ({check['single_threaded_requests']} single-threaded requests)")
        record["trace_check"] = check
        spans_path = os.path.join(WORKDIR, f"spans-{tag}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.request, s.thread, s.raised]) + "\n")
    share = runner.failed / runner.attempted
    print(f"  {'failed_share':<22} {share:12.6g} fraction ({runner.failed}/{runner.attempted} requests differ from reference.json)")
    for message in runner.messages:
        print(f"  FAILED {message}")
    print("  health " + json.dumps(run_health, sort_keys=True))
    record["failed"], record["attempted"] = runner.failed, runner.attempted
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}
    _write_json(os.path.join(WORKDIR, f"run-{tag}.json"), record)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".calls", ".points", ".errors")):
        return "count"
    return "fraction" if name.endswith("share") else "ratio"


if __name__ == "__main__":
    sys.exit(main())
