"""The benchmark's correctness gate, in Tier-1.

perfbench/reference.json holds the expected outcome (exit code, verdicts,
headline numbers) of every request a benchmark mix can produce.  This runs
every `certify`, `tables` and `paper-examples` catalogue request and every
8th `empirical` one in process, as perfbench/run.py does, and compares each
outcome with the reference; the `certify` and `paper-examples` requests and
the `empirical` ones outside its pooled slots also run twice in one process,
the second pass writing the first pass's bytes.
perfbench/mix.py and perfbench/reference.py are loaded by path and only
read, as is tools/catalogue_digest.py, whose digest line is checked on one
request, its --rev export on the `tables` workload, its --leaves line on
two requests and its --compare mode on small synthetic leaf files.

Every leaf of what those requests write (every JSON number, string and
flag, and per CSV column its count, sum, extremes and ends) is compared,
by --compare's tolerances, with the snapshot tests/data/catalogue_leaves.jsonl.
A change that moves a number on purpose rewrites the snapshot with

    PYTHONPATH=src python tests/test_catalogue.py

and lists the moves that `tools/catalogue_digest.py --compare` prints."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

import isocert.cli as cli
from isocert.cli import main

ROOT = Path(__file__).resolve().parent.parent
STRIDE = {"certify": 1, "tables": 1, "paper-examples": 1, "empirical": 8}
LEAVES = ROOT / "tests" / "data" / "catalogue_leaves.jsonl"


def _load(directory, name):
    spec = importlib.util.spec_from_file_location(f"{directory}_{name}", ROOT / directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mix = _load("perfbench", "mix")
reference = _load("perfbench", "reference")


def _requests(workload):
    return mix.catalogue(workload)[:: STRIDE[workload]]


def _leaves():
    """The --leaves lines of every request this module runs, in STRIDE order."""
    digest = _load("tools", "catalogue_digest")
    return "".join(digest.leaves_line(argv) + "\n" for workload in STRIDE for argv in _requests(workload))


@pytest.mark.parametrize("workload", list(STRIDE))
def test_catalogue_requests_match_the_reference(workload, tmp_path):
    expected = reference.load()
    bad = []
    for i, argv in enumerate(_requests(workload)):
        rundir = tmp_path / str(i)
        rundir.mkdir()
        path = reference.output_path(str(rundir), argv)
        rc = main(list(argv) + ["--out", path])
        key = reference.request_key(argv)
        if key not in expected:
            bad.append(f"{key}: not in reference.json")
            continue
        for mismatch in reference.mismatches(expected[key], reference.outcome(argv, rc, path)):
            bad.append(f"{key}: {mismatch}")
    assert not bad, "\n".join(bad)


def _repeating(workload):
    """The workload's catalogue requests that a benchmark loop repeats: all
    but those of its pooled slots, whose `expr:` potentials never repeat."""
    pooled = {argv for slot in mix._SLOTS[workload]() if isinstance(slot, mix.Pool) for argv in slot}
    return [argv for argv in mix.catalogue(workload) if argv not in pooled]


def test_warm_pass_writes_the_bytes_of_the_cold_pass(tmp_path):
    """Each workload's repeating requests run twice in one process that
    starts the workload with no measure kept, as a benchmark run does.  The
    second pass takes every cache-hit path (kept measures, profiles, node
    profiles, members' columns) that the benchmark's warm loop takes, and
    writes the first pass's bytes."""
    for workload in ("certify", "paper-examples", "empirical"):
        argvs = _repeating(workload)
        cli._MEASURES.clear()
        passes = []
        for p in range(2):
            outcomes = []
            for i, argv in enumerate(argvs):
                rundir = tmp_path / f"{workload}-{p}-{i}"
                rundir.mkdir()
                rc = main(list(argv) + ["--out", reference.output_path(str(rundir), argv)])
                outcomes.append((rc, {f.name: f.read_bytes() for f in sorted(rundir.iterdir())}))
            passes.append(outcomes)
        cold, warm = passes
        assert all(files for _, files in cold)
        for argv, a, b in zip(argvs, cold, warm):
            assert a == b, " ".join(argv)


def test_every_leaf_matches_the_snapshot(tmp_path, capsys):
    digest = _load("tools", "catalogue_digest")
    now = tmp_path / "leaves.jsonl"
    now.write_text(_leaves(), encoding="utf-8")
    failed = digest.compare(str(LEAVES), str(now))
    out = capsys.readouterr().out
    assert failed == 0, "\n".join(line for line in out.splitlines() if line.startswith("FAIL"))
    assert out.splitlines()[-1].startswith("179 and 179 requests, 0 failing differences")


def test_digest_line_names_the_outcome_of_one_request():
    digest = _load("tools", "catalogue_digest")
    argv = mix.catalogue("tables")[0]
    line = digest.digest_line(argv)
    assert line == digest.digest_line(argv)
    rc, files, stderr, rest = line.split(" ", 3)
    assert rc == "0" and len(files) == len(stderr) == 64 and rest == " ".join(argv)


def test_digest_runs_the_named_workloads_in_order(monkeypatch, capsys):
    digest = _load("tools", "catalogue_digest")
    monkeypatch.setattr(digest, "digest_line", lambda argv: " ".join(argv))

    def lines(names):
        assert digest.main(names) == 0
        return capsys.readouterr().out.splitlines()

    def want(workloads):
        return [" ".join(argv) for w in workloads for argv in mix.catalogue(w)]

    assert lines(["tables", "certify"]) == want(["tables", "certify"])
    assert lines([]) == want(mix.WORKLOADS)
    with pytest.raises(SystemExit) as exc:
        digest.main(["tables", "bogus"])
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)


def test_rev_digests_against_an_export_of_that_revision(capsys):
    if shutil.which("git") is None or _git("rev-parse", "--verify", "HEAD").returncode != 0:
        pytest.skip("not a git checkout")
    digest = _load("tools", "catalogue_digest")
    argvs = mix.catalogue("tables")
    assert digest.main(["--rev", "HEAD", "tables"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 3)[3] for line in lines] == [" ".join(argv) for argv in argvs]
    if _git("diff", "--quiet", "HEAD", "--", "src").returncode == 0:
        # src/ is as committed, so the export is this code and digests alike
        assert lines == [digest.digest_line(argv) for argv in argvs]
    assert digest.main(["--rev", "no-such-revision", "tables"]) == 2
    assert capsys.readouterr().out == ""


def test_leaves_line_flattens_json_and_summarises_csv_columns():
    digest = _load("tools", "catalogue_digest")
    conjugate = next(argv for argv in mix.catalogue("tables") if argv[0] == "conjugate")
    obj = json.loads(digest.leaves_line(conjugate))
    assert obj["argv"] == " ".join(conjugate) and obj["exit"] == 0 and len(obj["stderr"]) == 64
    leaves = obj["leaves"]
    assert leaves["req.json:x.count"] == leaves["req.json:c_star.count"] > 0
    assert leaves["req.json:x.first"] == leaves["req.json:x.min"] and leaves["req.json:x.last"] == leaves["req.json:x.max"]
    check = next(argv for argv in mix.catalogue("certify") if argv[0] == "check")
    leaves = json.loads(digest.leaves_line(check))["leaves"]
    assert leaves["req.json:verdict"] in ("FINITE", "DIVERGENT_LIKELY", "INCONCLUSIVE")
    assert "req.json:decades[0].partial_sum" in leaves and "req.json:tail_p" in leaves


def _leaf_file(path, requests):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in requests), encoding="utf-8")
    return str(path)


def _request(argv, verdict="FINITE", tail_p=0.5, sums=(1.0, 2.0), rc=0):
    leaves = {"req.json:verdict": verdict, "req.json:tail_p": tail_p, "req.json:flags[0]": "x"}
    leaves.update({f"req.json:decades[{i}].partial_sum": s for i, s in enumerate(sums)})
    return {"argv": argv, "exit": rc, "stderr": "e3", "leaves": leaves}


def test_compare_reports_the_largest_move_per_leaf_name(tmp_path, capsys):
    digest = _load("tools", "catalogue_digest")
    before = _leaf_file(tmp_path / "a.jsonl", [_request("check a"), _request("check b", sums=(3.0, 4.0))])
    same = _leaf_file(tmp_path / "b.jsonl", [_request("check b", sums=(3.0, 4.0)), _request("check a")])
    assert digest.main(["--compare", before, same]) == 0
    out = capsys.readouterr().out
    assert "req.json:decades[].partial_sum       4             0  -" in out
    assert "0 failing differences (rtol 1e-09)" in out

    moved = _leaf_file(tmp_path / "c.jsonl", [_request("check a", sums=(1.0, 2.0 * (1 + 1e-12))),
                                              _request("check b", sums=(3.0 * (1 + 3e-12), 4.0))])
    assert digest.main(["--compare", before, moved]) == 0
    line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("req.json:decades[]"))
    assert line.split()[1:3] == ["4", "3e-12"] and line.endswith("check b :: req.json:decades[0].partial_sum")
    beyond = _leaf_file(tmp_path / "d.jsonl", [_request("check a"), _request("check b", sums=(3.0 * (1 + 3e-9), 4.0))])
    assert digest.main(["--compare", before, beyond]) == 1
    assert "FAIL moved 3e-09: check b :: req.json:decades[0].partial_sum: 3.0 -> 3.000000009" in capsys.readouterr().out


@pytest.mark.parametrize("change", [
    dict(verdict="DIVERGENT_LIKELY"),  # a non-numeric leaf
    dict(rc=3),  # the exit code
    dict(tail_p=0.5 * (1 + 1e-8)),  # a number beyond 1e-9
    dict(tail_p=None),  # a number that became null
    dict(sums=(1.0,)),  # a leaf gone
])
def test_compare_fails_on_a_changed_outcome(change, tmp_path, capsys):
    digest = _load("tools", "catalogue_digest")
    before = _leaf_file(tmp_path / "a.jsonl", [_request("check a"), _request("check b")])
    after = _leaf_file(tmp_path / "b.jsonl", [_request("check a", **change), _request("check b")])
    assert digest.main(["--compare", before, after]) == 1
    fails = [x for x in capsys.readouterr().out.splitlines() if x.startswith("FAIL")]
    assert len(fails) == 1 and "check a ::" in fails[0]


def test_compare_holds_empirical_constants_to_1e_6(tmp_path, capsys):
    digest = _load("tools", "catalogue_digest")

    def leaf_file(name, c_hat):
        request = {"argv": "test a", "exit": 0, "stderr": "e3", "leaves": {"req.json:C_hat": c_hat, "req.json:fixtures.x.B_hat": 2.0}}
        return _leaf_file(tmp_path / name, [request])

    before = leaf_file("a.jsonl", 4.0)
    assert digest.main(["--compare", before, leaf_file("b.jsonl", 4.0 * (1 + 5e-7))]) == 0
    assert "0 failing differences (rtol 1e-09), C_hat and B_hat at 1e-06" in capsys.readouterr().out
    assert digest.main(["--compare", before, leaf_file("c.jsonl", 4.0 * (1 + 2e-6))]) == 1
    assert "FAIL moved 2e-06: test a :: req.json:C_hat" in capsys.readouterr().out


def test_compare_fails_on_a_request_only_on_one_side(tmp_path, capsys):
    digest = _load("tools", "catalogue_digest")
    before = _leaf_file(tmp_path / "a.jsonl", [_request("check a"), _request("check b")])
    after = _leaf_file(tmp_path / "b.jsonl", [_request("check a")])
    assert digest.main(["--compare", before, after]) == 1
    assert f"FAIL only in {before}: check b" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        digest.main(["--compare", before, after, "tables"])


if __name__ == "__main__":
    LEAVES.write_text(_leaves(), encoding="utf-8")
