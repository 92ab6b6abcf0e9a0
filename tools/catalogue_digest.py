"""Digest of the outcome of every benchmark catalogue request.

Runs each argv of `perfbench/mix.py`'s `catalogue(w)`, for the four
workloads in `mix.WORKLOADS` order (or the ones named), in process through
`isocert.cli.main`, each with `--out` into a fresh directory, and prints one
line per request:

    <exit code> <SHA-256 of the output files> <SHA-256 of stderr> <argv>

The output digest covers every file the request wrote, by name and bytes.
Two checkouts produce byte-identical outcomes on the whole catalogue exactly
when their digests do not differ:

    python tools/catalogue_digest.py > before.txt   # in one checkout
    python tools/catalogue_digest.py > after.txt    # in the other
    diff before.txt after.txt

`--rev REV` digests this checkout's catalogue with the isocert of git
revision REV instead: it exports `src/` at REV with `git archive` into a
temporary directory (the repository and its worktrees are not touched) and
digests against that export in a subprocess.  So a change is checked
against its parent commit in one command:

    diff <(python tools/catalogue_digest.py --rev HEAD) <(python tools/catalogue_digest.py)

Naming workloads digests only those, in the order given:

    python tools/catalogue_digest.py empirical certify

`--leaves` prints, instead of the digest line, one JSON object per request:
its argv, exit code, stderr digest and every leaf of what it wrote, keyed
`<file>:<path>` (`req.json:check.decades[3].partial_sum`).  A CSV file gives,
per column, its count, `fsum`, min, max, first and last values
(`req.json:c_star.fsum`).  `--compare BEFORE AFTER` reads two such files and
prints, per leaf name (the path with list indices dropped), the count of
leaves compared, the largest relative move and the request behind it; it
exits 1 when a request, a leaf or a non-numeric value (exit code, stderr,
verdict, flag) differs, or a number moves by more than its tolerance
(`perfbench/reference.py`'s: RTOL_CONSTANT, 1e-6, for the empirical
constants `C_hat` and `B_hat`, RTOL_DEFAULT, 1e-9, for every other number):

    python tools/catalogue_digest.py --leaves --rev HEAD > before.jsonl
    python tools/catalogue_digest.py --leaves > after.jsonl
    python tools/catalogue_digest.py --compare before.jsonl after.jsonl

Without --rev, the isocert imported is the one under this checkout's `src/`.
`perfbench/mix.py` and `perfbench/reference.py` are loaded by path and only read.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run in a subprocess by --rev: import isocert from the export, then run main(args) on the other arguments
_AT_EXPORT = (
    "import runpy, sys; _, tool, src, *args = sys.argv; sys.path.insert(0, src); "
    "sys.exit(runpy.run_path(tool)['main'](args))"
)


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _run(argv, read):
    """(exit code, SHA-256 of stderr, read(directory)) of one request whose
    --out went into a fresh directory."""
    from isocert.cli import main as isocert_main

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stderr(err):
            rc = isocert_main(list(argv) + ["--out", str(Path(tmp) / "req.json")])
        files = read(Path(tmp))
    return rc, hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(), files


def digest_line(argv) -> str:
    """The digest line of one request."""
    rc, stderr, files = _run(argv, _files_digest)
    return f"{rc} {files} {stderr} {' '.join(argv)}"


def _json_leaves(value, path, out):
    if isinstance(value, dict):
        for key, item in value.items():
            _json_leaves(item, path + key if path.endswith(":") else f"{path}.{key}", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _json_leaves(item, f"{path}[{i}]", out)
    else:
        out[path] = value


def _csv_leaves(text, prefix, out):
    """Per column: count, fsum, min, max, first and last of its numbers, or
    the SHA-256 of its cells where one is not a number."""
    header, *rows = list(csv.reader(io.StringIO(text)))
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        key = f"{prefix}{name}."
        try:
            values = [float(c) for c in cells]
        except ValueError:
            out[key + "sha256"] = hashlib.sha256("\n".join(cells).encode("utf-8")).hexdigest()
            continue
        try:
            total = math.fsum(values)
        except ValueError:  # inf and -inf in one column
            total = math.nan
        out[key + "count"] = len(values)
        out[key + "fsum"] = total
        if values:
            out.update({key + "min": min(values), key + "max": max(values), key + "first": values[0], key + "last": values[-1]})


def _files_leaves(directory: Path) -> dict:
    out = {}
    for path in sorted(directory.iterdir()):
        text = path.read_text(encoding="utf-8")
        try:
            obj = json.loads(text)
        except ValueError:
            _csv_leaves(text, f"{path.name}:", out)
        else:
            _json_leaves(obj, f"{path.name}:", out)
    return out


def leaves_line(argv) -> str:
    """The --leaves line of one request: a JSON object of its argv, exit
    code, stderr digest and output leaves."""
    rc, stderr, leaves = _run(argv, _files_leaves)
    return json.dumps({"argv": " ".join(argv), "exit": rc, "stderr": stderr, "leaves": leaves})


def _read_leaves(path):
    with open(path, "r", encoding="utf-8") as fh:
        return {obj["argv"]: obj for obj in map(json.loads, filter(str.strip, fh))}


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _relative_move(a, b):
    """|a - b| / max(|a|, |b|), 0 for equal values (NaN equals NaN) and inf
    where only one side is finite or NaN."""
    if a == b or (a != a and b != b):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


_INDEX = re.compile(r"\[\d+\]")
_KEYS = re.compile(r"[.:]")  # the separators of the keys in a leaf path


def compare(before_path, after_path) -> int:
    """Compare two --leaves files: one line per leaf name (count, largest
    relative move, the request and leaf behind it), then one line per
    difference that fails; 1 if any fails, else 0."""
    reference = _load_perfbench("reference")
    rtol, rtol_constant = reference.RTOL_DEFAULT, reference.RTOL_CONSTANT
    before, after = _read_leaves(before_path), _read_leaves(after_path)
    worst = {}  # leaf name -> [count, move, request, path]
    failures = [f"only in {before_path}: {k}" for k in before if k not in after]
    failures += [f"only in {after_path}: {k}" for k in after if k not in before]
    for key, old in before.items():
        new = after.get(key)
        if new is None:
            continue
        pairs = [("exit", old["exit"], new["exit"]), ("stderr", old["stderr"], new["stderr"])]
        pairs += [(p, old["leaves"].get(p, "<missing>"), new["leaves"].get(p, "<missing>"))
                  for p in dict.fromkeys([*old["leaves"], *new["leaves"]])]
        for path, a, b in pairs:
            entry = worst.setdefault(_INDEX.sub("[]", path), [0, 0.0, "-", "-"])
            entry[0] += 1
            if _is_number(a) and _is_number(b):
                move = _relative_move(a, b)
                if move > entry[1]:
                    entry[1:] = [move, key, path]
                if move > (rtol_constant if _KEYS.split(path)[-1] in ("C_hat", "B_hat") else rtol):
                    failures.append(f"moved {move:.3g}: {key} :: {path}: {a!r} -> {b!r}")
            elif a != b:
                entry[1:] = [math.inf, key, path]
                failures.append(f"differs: {key} :: {path}: {a!r} -> {b!r}")
    width = max((len(name) for name in worst), default=4)
    print(f"{'leaf':<{width}}  {'count':>6}  {'max_rel_move':>12}  request :: leaf")
    for name in sorted(worst):
        count, move, key, path = worst[name]
        where = f"{key} :: {path}" if move else "-"
        print(f"{name:<{width}}  {count:>6}  {move:>12.3g}  {where}")
    for line in failures:
        print(f"FAIL {line}")
    print(f"{len(before)} and {len(after)} requests, {len(failures)} failing differences (rtol {rtol:g}), "
          f"C_hat and B_hat at {rtol_constant:g}")
    return 1 if failures else 0


def digest_at_rev(rev: str, args) -> int:
    """Run main(args) in a subprocess whose isocert is `src/` at git
    revision rev, exported into a temporary directory; its exit code."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"], capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode("utf-8", "replace"))
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        run = subprocess.run(
            [sys.executable, "-c", _AT_EXPORT, __file__, str(Path(tmp) / "src"), *args], stdout=subprocess.PIPE, text=True
        )
    sys.stdout.write(run.stdout)
    return run.returncode


def main(argv=None) -> int:
    mix = _load_perfbench("mix")
    parser = argparse.ArgumentParser(description="Digest the outcome of every benchmark catalogue request.")
    parser.add_argument("workloads", nargs="*", metavar="workload",
                        help=f"workloads to digest, in order (default: all of {', '.join(mix.WORKLOADS)})")
    parser.add_argument("--rev", help="digest with the isocert of this git revision (an export of its src/)")
    parser.add_argument("--leaves", action="store_true", help="print each request's output leaves as a JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"), help="compare two --leaves files")
    args = parser.parse_args(argv)
    names = args.workloads
    if args.compare is not None:
        if names or args.rev is not None or args.leaves:
            parser.error("--compare takes no workload, --rev or --leaves")
        return compare(*args.compare)
    unknown = [w for w in names if w not in mix.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; expected some of {', '.join(mix.WORKLOADS)}")
    if args.rev is not None:
        return digest_at_rev(args.rev, names + ["--leaves"] * args.leaves)
    line = leaves_line if args.leaves else digest_line
    for workload in names or mix.WORKLOADS:
        for argv in mix.catalogue(workload):
            print(line(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
