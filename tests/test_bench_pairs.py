"""tools/bench_pairs.py's summary and record writer, on canned perfbench
output; no benchmark is run.  The tool is loaded by path."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tools_bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

DIRECTIONS = {"requests_per_s": "higher", "latency_p50_ms": "lower"}
BOUNDS = {"requests_per_s": 0.25, "latency_p50_ms": 0.25}
HEALTH = {"nproc": 2, "affinity": 2, "python": "3.11.7", "numpy": "2.4.6", "blas": "openblas",
          "thread_env": {"OMP_NUM_THREADS": "1"}, "host_steal_share": 0.01, "loadavg": ["0.1", "0.1", "0.1"]}


def _stdout(rps, p50, failed=0, steal=0.01):
    """What perfbench/run.py prints with --trace 0, cut down to the lines the tool reads."""
    health = {**HEALTH, "host_steal_share": steal}
    summary = {"correct": failed == 0, "attempted": 100, "failed": failed,
               "metrics": {"requests_per_s": {"value": rps, "unit": "1/s"}, "latency_p50_ms": {"value": p50, "unit": "ms"}}}
    return "\n".join([
        "workload certify  seed 1  trace 0: 54 requests/cycle, 1 warm-up cycle + 3 timed cycles",
        f"  requests_per_s {rps} 1/s (note)",
        "  health " + json.dumps(health, sort_keys=True),
        json.dumps(summary),
    ]) + "\n"


def _runs(values, **kw):
    return [bench.parse_run(_stdout(rps, p50, **kw)) for rps, p50 in values]


def test_parse_run_reads_the_last_line_and_the_health_line():
    run = bench.parse_run(_stdout(300.0, 2.0, failed=1, steal=0.2))
    assert run["metrics"] == {"requests_per_s": 300.0, "latency_p50_ms": 2.0}
    assert (run["failed"], run["attempted"]) == (1, 100)
    assert run["health"]["host_steal_share"] == 0.2 and run["health"]["nproc"] == 2


def test_summary_medians_quartiles_and_wins():
    parent = _runs([(100.0, 2.0), (110.0, 2.2), (90.0, 1.8), (105.0, 2.0)])
    change = _runs([(120.0, 1.9), (110.0, 2.2), (100.0, 1.7), (130.0, 2.1)])
    entry = bench.summarize(range(7, 11), parent, change, DIRECTIONS)
    assert (entry["pairs"], entry["seeds"], entry["failed"]) == (4, [7, 8, 9, 10], {"parent": 0, "change": 0})
    rps = entry["requests_per_s"]
    assert (rps["parent_median"], rps["change_median"]) == (102.5, 115.0)
    assert rps["parent_iqr"] == pytest.approx(106.25 - 97.5)  # inclusive quartiles of 90, 100, 105, 110
    assert rps["change_wins"] == 3  # the tie at 110 counts for neither side
    assert rps["relative_change"] == pytest.approx(115.0 / 102.5 - 1.0) and rps["worse_by"] < 0
    lat = entry["latency_p50_ms"]
    assert lat["change_wins"] == 2 and lat["worse_by"] == pytest.approx(-(lat["change_median"] / lat["parent_median"] - 1.0))
    assert lat["parent_runs"] == [2.0, 2.2, 1.8, 2.0] and lat["change_runs"] == [1.9, 2.2, 1.7, 2.1]


def test_claimed_gain_needs_nine_wins_in_ten_and_a_lead_past_the_iqr():
    parent = _runs([(100.0 + i, 2.0) for i in range(10)])
    entry = bench.summarize(range(10), parent, _runs([(120.0 + i, 2.0) for i in range(10)]), DIRECTIONS)
    gain = bench.claimed_gain({"certify": entry}, "certify", "requests_per_s")
    assert gain["met"] and gain["change_wins"] == 10 and gain["median_difference"] == pytest.approx(20.0)
    # eight wins in ten: not met, however large the lead
    change = _runs([(120.0 + i, 2.0) for i in range(8)] + [(90.0, 2.0), (95.0, 2.0)])
    gain = bench.claimed_gain({"certify": bench.summarize(range(10), parent, change, DIRECTIONS)}, "certify", "requests_per_s")
    assert gain["change_wins"] == 8 and not gain["met"]
    # every pair won, by less than the parent's spread: not met
    spread = _runs([(100.0, 2.0), (200.0, 2.0)] * 5)
    ahead = _runs([(101.0, 2.0), (201.0, 2.0)] * 5)
    gain = bench.claimed_gain({"certify": bench.summarize(range(10), spread, ahead, DIRECTIONS)}, "certify", "requests_per_s")
    assert gain["change_wins"] == 10 and not gain["met"]


def test_record_has_the_keys_of_the_committed_records(tmp_path):
    parent, change = _runs([(100.0, 2.0), (104.0, 2.1)]), _runs([(110.0, 1.9), (112.0, 1.8)], steal=0.05)
    workloads = {"certify": bench.summarize(range(3, 5), parent, change, DIRECTIONS)}
    machine, steal = bench.machine_of(parent + change)
    out = bench.record("abc1234", workloads, machine, steal, BOUNDS, 10.0, claim=("certify", "requests_per_s"))
    committed = json.loads((ROOT / "BENCH_27.json").read_text(encoding="utf-8"))
    assert set(out) == set(committed)
    assert set(out["claimed_gain"]) == set(committed["claimed_gain"])
    assert set(out["machine"]) == set(committed["machine"]) and steal == 0.05
    want = committed["workloads"]["certify"]
    assert set(workloads["certify"]) <= set(want)
    assert set(workloads["certify"]["requests_per_s"]) == set(want["requests_per_s"])
    assert "certify 3-4 (2 pairs)" in out["method"] and "--seconds 10 " in out["command"]
    assert out["no_regression"].startswith("no end-to-end metric") and "failed is 0 on all 4 runs" in out["no_regression"]
    json.dumps(out)  # a plain JSON document


def test_record_names_how_the_change_tree_was_made():
    runs = _runs([(100.0, 2.0), (101.0, 2.0)])
    workloads = {"certify": bench.summarize(range(2), runs, runs, DIRECTIONS)}
    copied = bench.record("abc1234", workloads, {}, None, BOUNDS, 10.0)
    archived = bench.record("abc1234", workloads, {}, None, BOUNDS, 10.0, change_tree="a `git archive` of 1234abc")
    assert "the change a copy of the working tree's tracked files" in copied["method"]
    assert "the parent a `git archive` of abc1234, the change a `git archive` of 1234abc" in archived["method"]


def test_a_median_past_its_bound_is_named():
    parent, change = _runs([(100.0, 2.0)] * 3), _runs([(70.0, 2.0)] * 3)
    text = bench.no_regression({"tables": bench.summarize(range(3), parent, change, DIRECTIONS)}, BOUNDS)
    assert text.startswith("worse than its bound: tables requests_per_s") and "+30.0%" in text


def test_an_existing_record_keeps_its_other_workloads(tmp_path):
    runs = _runs([(100.0, 2.0), (101.0, 2.0)])
    certify = bench.summarize(range(2), runs, runs, DIRECTIONS)
    tables = bench.summarize(range(5, 7), runs, runs, DIRECTIONS)
    path = tmp_path / "BENCH.json"
    first = bench.record("abc1234", {"certify": certify}, {}, 0.3, BOUNDS, 10.0, claim=("certify", "requests_per_s"))
    path.write_text(json.dumps(first))
    workloads, steal, claim, trace = bench.merged(path, "abc1234", {"tables": tables}, 0.1, None, None)
    assert list(workloads) == ["certify", "tables"] and steal == 0.3 and claim == ("certify", "requests_per_s")
    # another parent's record is replaced, not merged
    assert bench.merged(path, "def5678", {"tables": tables}, 0.1, None, None) == ({"tables": tables}, 0.1, None, None)
