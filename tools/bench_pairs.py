"""Alternated-pairs benchmark of the working tree against a git revision.

    python tools/bench_pairs.py --rev HEAD --workload certify --pairs 10 --seconds 10 \\
        --seed-base 3001 --out BENCH_30.json

Exports revision REV with `git archive` into one temporary directory and
copies the working tree's tracked files (as they are on disk) into another
(or, with --change-rev C, exports C the same way: any tree-ish, such as
`$(git write-tree)` for the index), then runs `python3 perfbench/run.py
--workload W --seed S --seconds S --trace 0` in each, in alternation: pair
i uses seed B + i and runs the parent first when i is even, the change
first when it is odd.  Each run's last stdout line (perfbench's JSON
summary) gives its end-to-end metrics and failed count, and its `health`
line the machine and the host's steal share.

It prints, per workload and end-to-end metric, the parent's and the
change's medians, the parent's interquartile range (inclusive quartiles)
and the change's wins (a pair in which the change is better; ties count for
neither).  A metric's better direction and its bound come from
BENCHMARK.json.  With --out it writes that summary as a `BENCH_*.json`
record: the parent, the method, the machine, the largest steal share, one
entry per workload with every run's value, the no-regression statement and,
with --claim WORKLOAD:METRIC, whether that gain is met (the change better in
at least 9 of 10 pairs and its median ahead by more than the parent's
interquartile range).  An existing --out file with the same parent keeps its
other workloads, so workloads run with different pair counts share one
record.  --trace-seconds T adds one `--trace 1` run of T seconds per side on
the claimed workload, with the per-layer means it reports.

perfbench/ is run as a program and never imported or changed; the copies
are removed when the tool exits.  A bench of N pairs of S seconds takes
about 2 N (S + 12) seconds on a 2-vCPU VM, since each run also warms up
and times 20 cold starts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9  # the share of pairs a claimed gain must win


def _git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export_rev(rev: str, dest: Path) -> None:
    """The tree of git revision rev, written into dest."""
    with tempfile.TemporaryFile() as fh:
        fh.write(_git("archive", "--format=tar", rev))
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")


def copy_tracked(dest: Path) -> None:
    """The working tree's tracked files, as they are on disk, copied into dest."""
    for name in _git("ls-files", "-z").decode("utf-8").split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def parse_run(stdout: str) -> dict:
    """A perfbench run's outcome: the end-to-end metrics and failed count of
    its last line, and the machine its `health` line describes."""
    lines = stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    health = next((json.loads(line.strip()[len("health "):]) for line in lines if line.strip().startswith("health ")), {})
    return {
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
        "failed": summary["failed"],
        "attempted": summary["attempted"],
        "health": health,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree.name} exited {done.returncode}: {done.stderr.strip()}")
    return parse_run(done.stdout)


def quartiles(values):
    """(first quartile, third quartile), inclusive method; both the value for one run."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(seeds, parent_runs, change_runs, directions) -> dict:
    """One workload's entry: per end-to-end metric (directions: name ->
    "higher" or "lower" is better) the medians, the relative change, how much
    worse the change is (relative, negative when better), the parent's
    interquartile range, the change's wins and every run's value."""
    entry = {
        "pairs": len(seeds),
        "seeds": list(seeds),
        "failed": {"parent": sum(r["failed"] for r in parent_runs), "change": sum(r["failed"] for r in change_runs)},
    }
    for name, better in directions.items():
        parent = [r["metrics"][name] for r in parent_runs]
        change = [r["metrics"][name] for r in change_runs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        relative = c_med / p_med - 1.0 if p_med else 0.0
        sign = 1.0 if better == "higher" else -1.0
        entry[name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "relative_change": relative,
            "worse_by": -sign * relative,
            "parent_iqr": q3 - q1,
            "change_wins": sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0),
            "parent_runs": parent,
            "change_runs": change,
        }
    return entry


def claimed_gain(workloads: dict, workload: str, metric: str) -> dict:
    """Whether the gain claimed on workload's metric is met: the change wins at
    least WIN_SHARE of the pairs and its median is ahead of the parent's by
    more than the parent's interquartile range."""
    entry, m = workloads[workload], workloads[workload][metric]
    difference = abs(m["change_median"] - m["parent_median"])
    ahead = m["worse_by"] < 0
    return {
        "workload": workload,
        "metric": metric,
        "pairs": entry["pairs"],
        "change_wins": m["change_wins"],
        "parent_median": m["parent_median"],
        "change_median": m["change_median"],
        "median_difference": difference,
        "parent_iqr": m["parent_iqr"],
        "met": bool(ahead and m["change_wins"] >= WIN_SHARE * entry["pairs"] and difference > m["parent_iqr"]),
    }


def no_regression(workloads: dict, bounds: dict) -> str:
    """The no-regression statement: whether any median is worse than the
    parent's by more than its bound, the largest worsening, and the failures."""
    worst = max(((m["worse_by"], w, name) for w, e in workloads.items() for name, m in e.items() if name in bounds),
                default=(0.0, "-", "-"))
    over = [f"{w} {name}" for w, e in workloads.items() for name, m in e.items() if name in bounds and m["worse_by"] > bounds[name]]
    runs = 2 * sum(e["pairs"] for e in workloads.values())
    failed = sum(e["failed"]["parent"] + e["failed"]["change"] for e in workloads.values())
    head = ("no end-to-end metric's median is worse than the parent's by more than its bound on any workload"
            if not over else "worse than its bound: " + ", ".join(over))
    return f"{head}; the largest worsening is {worst[1]} {worst[2]} {100 * worst[0]:+.1f}%; failed is {failed} on all {runs} runs"


def machine_of(runs: list):
    """(machine, largest host steal share) from the parsed runs' health lines."""
    health = runs[0]["health"] if runs else {}
    steal = [r["health"].get("host_steal_share") for r in runs]
    machine = {k: health.get(k) for k in ("nproc", "affinity", "python", "numpy", "blas", "thread_env")}
    return machine, max((s for s in steal if s is not None), default=None)


def record(parent: str, workloads: dict, machine: dict, steal, bounds: dict, seconds: float, claim=None, trace=None,
           change_tree="a copy of the working tree's tracked files") -> dict:
    """The BENCH_*.json record of the workloads (name -> summarize entry)."""
    seeds = "; ".join(f"{w} {e['seeds'][0]}-{e['seeds'][-1]} ({e['pairs']} pairs)" for w, e in workloads.items())
    return {
        "parent": parent,
        "change": "this commit",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": ("alternated parent/change pairs made by tools/bench_pairs.py (the parent runs first in even-numbered "
                   f"pairs, the change in odd ones), each side in its own copy of its tree (the parent a `git archive` of "
                   f"{parent}, the change {change_tree}); seeds {seeds}; medians and quartiles "
                   "(inclusive method) over the runs; a win is a pair in which the change is better, ties count for neither; "
                   "timings scaled by perfbench's calibration kernel to a 5 ms reference host."),
        "claimed_gain": None if claim is None else claimed_gain(workloads, *claim),
        "no_regression": no_regression(workloads, bounds),
        "machine": machine,
        "host_steal_share_max": steal,
        "trace": trace,
        "workloads": workloads,
    }


def merged(path: Path, parent: str, workloads: dict, steal, claim, trace):
    """(workloads, steal, claim, trace) with those of an existing record at
    path added when it has the same parent: its other workloads, the larger
    steal share, and its claim and trace unless new ones are given."""
    if not path.is_file():
        return workloads, steal, claim, trace
    old = json.loads(path.read_text(encoding="utf-8"))
    if old.get("parent") != parent:
        return workloads, steal, claim, trace
    gain = old.get("claimed_gain")
    old_claim = None if gain is None else (gain["workload"], gain["metric"])
    steals = [s for s in (steal, old.get("host_steal_share_max")) if s is not None]
    return ({**old["workloads"], **workloads}, max(steals, default=None), claim or old_claim,
            trace if trace is not None else old.get("trace"))


def _report(workload: str, entry: dict) -> str:
    lines = [f"{workload}: {entry['pairs']} pairs, failed {entry['failed']['parent']} / {entry['failed']['change']}"]
    for name, m in entry.items():
        if isinstance(m, dict) and "parent_median" in m:
            (p1, p3), (c1, c3) = quartiles(m["parent_runs"]), quartiles(m["change_runs"])
            lines.append(f"  {name:<16} median {m['parent_median']:.6g} -> {m['change_median']:.6g} "
                         f"({100 * m['relative_change']:+.1f}%), quartiles {p1:.6g}..{p3:.6g} -> {c1:.6g}..{c3:.6g}, "
                         f"change wins {m['change_wins']}/{entry['pairs']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Alternated-pairs benchmark of the working tree against a git revision.")
    parser.add_argument("--rev", required=True, help="the parent revision (git archive of it)")
    parser.add_argument("--workload", action="append", required=True, help="a perfbench workload (repeat for several)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="--seconds of each perfbench run")
    parser.add_argument("--seed-base", type=int, required=True, help="pair i runs seed B + i, workload after workload")
    parser.add_argument("--out", help="write (or add the workloads to) this BENCH_*.json record")
    parser.add_argument("--claim", help="WORKLOAD:METRIC, the gain the record checks")
    parser.add_argument("--change-rev", help="export the change side from this revision too, not the working tree")
    parser.add_argument("--trace-seconds", type=float, default=0.0, help="one --trace 1 run per side on the claimed workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    claim = None if args.claim is None else tuple(args.claim.split(":", 1))
    if claim is not None and (len(claim) != 2 or claim[0] not in args.workload):
        parser.error("--claim must be WORKLOAD:METRIC with a workload given by --workload")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent = _git("rev-parse", "--short", args.rev).decode().strip()
    change_tree = ("a copy of the working tree's tracked files" if args.change_rev is None
                   else f"a `git archive` of {_git('rev-parse', '--short', args.change_rev).decode().strip()}")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        export_rev(args.rev, trees["parent"])
        if args.change_rev is None:
            copy_tracked(trees["change"])
        else:
            export_rev(args.change_rev, trees["change"])
        workloads, runs, seed = {}, [], args.seed_base
        for workload in args.workload:
            sides = {"parent": [], "change": []}
            seeds = range(seed, seed + args.pairs)
            for i, s in enumerate(seeds):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    sides[side].append(run_once(trees[side], workload, s, args.seconds))
            seed += args.pairs
            runs += sides["parent"] + sides["change"]
            workloads[workload] = summarize(seeds, sides["parent"], sides["change"], directions)
            print(_report(workload, workloads[workload]), flush=True)
        trace = None
        if claim is not None and args.trace_seconds > 0:
            command = f"python3 perfbench/run.py --workload {claim[0]} --seed {seed} --seconds {args.trace_seconds:g} --trace 1"
            trace = {"command": command, "note": "one run per side, raw per-request means"}
            for side, tree in trees.items():
                trace[side] = run_once(tree, claim[0], seed, args.trace_seconds, trace=1)["metrics"]

    machine, steal = machine_of(runs)
    if args.out is not None:
        workloads, steal, claim, trace = merged(Path(args.out), parent, workloads, steal, claim, trace)
    out = record(parent, workloads, machine, steal, bounds, args.seconds, claim, trace, change_tree)
    if args.out is not None:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    if out["claimed_gain"] is not None:
        print(f"claimed gain met: {out['claimed_gain']['met']}")
    print(out["no_regression"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
