"""The benchmark's correctness gate, in Tier-1.

perfbench/reference.json holds the expected outcome (exit code, verdicts,
headline numbers) of every request a benchmark mix can produce.  This runs
every `certify`, `tables` and `paper-examples` catalogue request and every
8th `empirical` one in process, as perfbench/run.py does, and compares each
outcome with the reference; the `certify` and `paper-examples` requests also
run twice in one process, the second pass writing the first pass's bytes.
perfbench/mix.py and perfbench/reference.py are loaded by path and only
read, as is tools/catalogue_digest.py, whose digest line is checked on one
request."""

import importlib.util
from pathlib import Path

import pytest

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


def test_warm_pass_writes_the_bytes_of_the_cold_pass(tmp_path):
    """The second pass over the catalogues takes every cache-hit path (kept
    measures, profiles, node profiles) that the benchmark's warm loop takes."""
    argvs = mix.catalogue("certify") + mix.catalogue("paper-examples")
    passes = []
    for p in range(2):
        outcomes = []
        for i, argv in enumerate(argvs):
            rundir = tmp_path / f"{p}-{i}"
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
