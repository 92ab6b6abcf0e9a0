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
request and whose --rev export is checked on the `tables` workload."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

import isocert.cli as cli
from isocert.cli import main

ROOT = Path(__file__).resolve().parent.parent
STRIDE = {"certify": 1, "tables": 1, "paper-examples": 1, "empirical": 8}


def _load(directory, name):
    spec = importlib.util.spec_from_file_location(f"{directory}_{name}", ROOT / directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mix = _load("perfbench", "mix")
reference = _load("perfbench", "reference")


@pytest.mark.parametrize("workload", list(STRIDE))
def test_catalogue_requests_match_the_reference(workload, tmp_path):
    expected = reference.load()
    bad = []
    for i, argv in enumerate(mix.catalogue(workload)[:: STRIDE[workload]]):
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
        cli._measure.cache_clear()
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
