"""Record the expected outcome of every request any benchmark mix can produce.

    python3 perfbench/record_reference.py

Run from the root of a source checkout, at the commit whose outputs become
the reference.  Every catalogue request (mix.catalogue) runs once in process
and its outcome (reference.outcome) goes to perfbench/reference.json.  A
request that exits 2 or raises stops the recording: the benchmark's
workloads must consist of requests that succeed.
"""

import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, run.SRC)

import isocert.cli  # noqa: E402

import mix  # noqa: E402
import reference  # noqa: E402


def main():
    rundir = os.path.join(run.WORKDIR, f"record-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    runner = run.Runner(isocert.cli.main, {}, rundir)
    recorded, broken = {}, []
    try:
        for workload in mix.WORKLOADS:
            for argv in mix.catalogue(workload):
                key = reference.request_key(argv)
                if key in recorded:
                    continue
                _, rc, error, path = runner.call(argv)
                if error is not None or rc not in (0, 3, 4):
                    broken.append(f"{key}: {error or f'exit {rc}'}")
                    continue
                recorded[key] = reference.outcome(argv, rc, path)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if broken:
        sys.stderr.write("requests that do not succeed:\n  " + "\n  ".join(broken) + "\n")
        return 1
    with open(reference.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} requests to {reference.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
