"""Self-check of the benchmark itself (not of isocert).

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  Checks that
  1. the same seed gives a byte-identical request list, and other seeds
     another one (except for the fixed paper-examples command);
  2. every request any mix can produce has a stored reference outcome, and
     the comparison flags a headline number moved beyond its tolerance;
  3. the span wrappers replace every traced function and method and
     uninstall() restores the originals;
  4. tracing adds at most MAX_OVERHEAD to the latency of a sample of
     requests (each request's median over interleaved untraced and traced
     rounds); on every single-threaded traced request the self times of its
     spans sum to its root span's wall time within 1 ns (the span tree is
     consistent) and to the latency the client measured, never above it and
     at most MAX_GAP_S below it (the spans miss no time); and on the
     threaded paper-examples request every span lies inside its parent.
Exits 1 with a message on the first failed check.
"""

import math
import os
import shutil
import statistics
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, run.SRC)

import isocert.cli  # noqa: E402

import mix  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

REPEATS = 3  # interleaved untraced/traced rounds of the sample
MAX_OVERHEAD = 0.10  # the most tracing may add to a request's latency
MAX_GAP_S = 0.001  # the most of a traced request's latency its spans may miss


def check(condition, message):
    if not condition:
        sys.stderr.write(f"selfcheck FAILED: {message}\n")
        sys.exit(1)


def request_lists():
    for workload in mix.WORKLOADS:
        for seed in (0, 1, 12345):
            a, b = mix.Mix(workload, seed).dump(4), mix.Mix(workload, seed).dump(4)
            check(a == b, f"{workload} seed {seed}: request list differs between two generations")
        if workload != "paper-examples":
            check(mix.Mix(workload, 1).dump(4) != mix.Mix(workload, 2).dump(4), f"{workload}: seeds 1 and 2 give the same list")


def references(expected):
    for workload in mix.WORKLOADS:
        for argv in mix.catalogue(workload):
            check(reference.request_key(argv) in expected, f"no reference for {' '.join(argv)}")
    key, outcome = next((k, v) for k, v in expected.items() if isinstance(v.get("C_hat"), float))
    moved = dict(outcome, C_hat=outcome["C_hat"] * (1 + 1e-5))
    check(reference.mismatches(outcome, moved), f"C_hat moved by 1e-5 passed for {key}")
    close = dict(outcome, C_hat=outcome["C_hat"] * (1 + 1e-8))
    check(not reference.mismatches(outcome, close), f"C_hat moved by 1e-8 failed for {key}")


def _bindings():
    """Every (owner, attribute) -> object that a tracer may patch."""
    out = {}
    modules = [m for n, m in sys.modules.items() if m is not None and (n == "isocert" or n.startswith("isocert."))]
    for layer, module, attr, _ in spans.TARGETS:
        if "." in attr:
            cls, meth = attr.split(".")
            owner = getattr(sys.modules[module], cls)
            out[(owner, meth)] = owner.__dict__[meth]
        else:
            for mod in modules:
                if attr in mod.__dict__:
                    out[(mod, attr)] = mod.__dict__[attr]
    entropy_fn = sys.modules["isocert.entropy"].EntropyFunction
    out[(entropy_fn, "at_log")] = entropy_fn.__dict__["at_log"]
    return out


def wrappers():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {(owner, attr) for owner, attr, _ in tracer.installed()}
        check(patched == set(before), f"patched {len(patched)} bindings, expected {len(before)}")
        for (owner, attr), original in before.items():
            check(getattr(owner, attr) is not original, f"{attr} on {owner.__name__} not wrapped")
    finally:
        tracer.uninstall()
    after = _bindings()
    for key, original in before.items():
        check(after[key] is original, f"{key[1]} on {key[0].__name__} not restored")


def _interleaved(runner, tracer, sample):
    """Each request's median latency untraced and traced, and its traced
    latencies by request id, from REPEATS interleaved rounds (so that a change
    in the host's speed hits both kinds alike)."""
    plain, traced, by_id = [[] for _ in sample], [[] for _ in sample], {}
    for r in range(REPEATS):
        for i, argv in enumerate(sample):
            plain[i].append(runner.request(argv))
            rid = r * len(sample) + i
            tracer.install()
            try:
                by_id[rid] = runner.request(argv, tracer, rid)
            finally:
                tracer.uninstall()
            traced[i].append(by_id[rid])
    return [statistics.median(x) for x in plain], [statistics.median(x) for x in traced], by_id


def self_times(rundir, expected):
    runner = run.Runner(isocert.cli.main, expected, rundir)
    sample = mix.Mix("certify", 0).cycle(0)[:9]
    for argv in sample:  # warm-up
        runner.request(argv)
    tracer = spans.Tracer()
    plain, traced, latency = _interleaved(runner, tracer, sample)
    pool_id = len(latency)
    tracer.install()
    try:
        runner.request(("paper-examples",), tracer, pool_id)
    finally:
        tracer.uninstall()
    check(runner.failed == 0, f"requests failed: {runner.messages}")

    overhead = math.fsum(traced) / math.fsum(plain) - 1
    check(overhead <= MAX_OVERHEAD, f"tracing adds {100 * overhead:.3g}% to request latency (limit {100 * MAX_OVERHEAD:g}%)")
    sums = spans.request_self_sums(tracer.spans)
    check(set(sums) == set(latency), f"{len(sums)} single-threaded traced requests, expected {len(latency)}")
    for rid, (wall, total) in sums.items():
        check(abs(total - wall) <= 1e-9, f"request {rid}: self times sum to {total:.9f} s, root span lasts {wall:.9f} s")
        gap = latency[rid] - total
        check(0 <= gap <= MAX_GAP_S,
              f"request {rid}: self times sum to {total:.6f} s, the client measured {latency[rid]:.6f} s")

    by_id = {s.sid: s for s in tracer.spans}
    pool = [s for s in tracer.spans if s.request == pool_id]
    check(len({s.thread for s in pool}) > 1 or (os.cpu_count() or 1) == 1, "paper-examples ran on one thread")
    for s in pool:
        if s.parent is not None:
            p = by_id[s.parent]
            check(p.request == s.request and p.start <= s.start and s.end <= p.end, f"span {s.name} escapes its parent {p.name}")
    return overhead


def main():
    expected = reference.load()
    request_lists()
    references(expected)
    wrappers()
    rundir = os.path.join(run.WORKDIR, f"selfcheck-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        overhead = self_times(rundir, expected)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(f"selfcheck ok (tracing adds {100 * overhead:.3g}% to the sample's latency)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
