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

Without --rev, the isocert imported is the one under this checkout's `src/`.
`perfbench/mix.py` is loaded by path and only read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run in a subprocess by --rev: import isocert from the export, then digest as main(workloads) does
_AT_EXPORT = (
    "import runpy, sys; _, tool, src, *names = sys.argv; sys.path.insert(0, src); "
    "sys.exit(runpy.run_path(tool)['main'](names))"
)


def _load_mix():
    spec = importlib.util.spec_from_file_location("perfbench_mix", ROOT / "perfbench" / "mix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def digest_line(argv) -> str:
    """The digest line of one request."""
    from isocert.cli import main as isocert_main

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stderr(err):
            rc = isocert_main(list(argv) + ["--out", str(Path(tmp) / "req.json")])
        files = _files_digest(Path(tmp))
    stderr = hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest()
    return f"{rc} {files} {stderr} {' '.join(argv)}"


def digest_at_rev(rev: str, names) -> int:
    """Digest the named workloads in a subprocess whose isocert is `src/` at
    git revision rev, exported into a temporary directory; its exit code."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"], capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode("utf-8", "replace"))
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        run = subprocess.run(
            [sys.executable, "-c", _AT_EXPORT, __file__, str(Path(tmp) / "src"), *names], stdout=subprocess.PIPE, text=True
        )
    sys.stdout.write(run.stdout)
    return run.returncode


def main(argv=None) -> int:
    mix = _load_mix()
    parser = argparse.ArgumentParser(description="Digest the outcome of every benchmark catalogue request.")
    parser.add_argument("workloads", nargs="*", metavar="workload",
                        help=f"workloads to digest, in order (default: all of {', '.join(mix.WORKLOADS)})")
    parser.add_argument("--rev", help="digest with the isocert of this git revision (an export of its src/)")
    args = parser.parse_args(argv)
    names = args.workloads
    unknown = [w for w in names if w not in mix.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; expected some of {', '.join(mix.WORKLOADS)}")
    if args.rev is not None:
        return digest_at_rev(args.rev, names)
    for workload in names or mix.WORKLOADS:
        for argv in mix.catalogue(workload):
            print(digest_line(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
