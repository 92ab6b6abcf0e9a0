"""Expected outcomes of benchmark requests and their comparison.

An outcome is the exit code plus the headline fields of the request's
output: verdicts, the `certified` flag and the headline numbers
(`integral_estimate`, `log10_integral_estimate`, `tail_p`, `C_hat`,
`B_hat`) wherever they occur in the JSON report, or the row count, column
sum and last value of a CSV table.  Labels (measure, entropy and cost names)
are deliberately not compared.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

EXACT_KEYS = ("verdict", "certified")
FLOAT_KEYS = ("integral_estimate", "log10_integral_estimate", "tail_p", "C_hat", "B_hat")
# relative tolerances: integrals and verdict inputs to 1e-9, empirical constants to 1e-6
RTOL_CONSTANT = 1e-6
RTOL_DEFAULT = 1e-9

CSV_COMMANDS = ("conjugate", "profile")


def request_key(argv):
    for token in argv:
        if not token or any(ch.isspace() for ch in token):
            raise ValueError(f"request token {token!r} is empty or holds whitespace")
    return " ".join(argv)


def output_path(rundir, argv):
    return os.path.join(rundir, "req.csv" if argv[0] in CSV_COMMANDS else "req.json")


def _headline(obj, prefix, out):
    for key, value in obj.items():
        if isinstance(value, dict):
            _headline(value, f"{prefix}{key}.", out)
        elif key in EXACT_KEYS or key in FLOAT_KEYS:
            out[prefix + key] = value


def _csv_summary(text):
    lines = text.rstrip("\n").split("\n")[1:]
    last = [float(line.rsplit(",", 1)[1]) for line in lines]
    return {"rows": len(last), "sum": math.fsum(last), "last": last[-1] if last else None}


def outcome(argv, rc, path):
    """Outcome of a finished request whose output went to `path`."""
    result = {"rc": rc}
    if rc not in (0, 3, 4):
        return result
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if argv[0] in CSV_COMMANDS:
        result.update(_csv_summary(text))
    else:
        _headline(json.loads(text), "", result)
    return result


def _float_equal(ref, got, rtol):
    if ref is None or got is None:
        return ref is got
    if isinstance(ref, str) or isinstance(got, str):  # "inf" / "-inf" in the JSON output
        return ref == got
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    if math.isinf(ref) or math.isinf(got):
        return ref == got
    return abs(ref - got) <= rtol * max(abs(ref), abs(got))


def mismatches(expected, got):
    """Fields where `got` differs from `expected`; empty when they agree."""
    bad = []
    for key in sorted(set(expected) | set(got)):
        ref, val = expected.get(key, "<missing>"), got.get(key, "<missing>")
        leaf = key.rsplit(".", 1)[-1]
        if leaf in FLOAT_KEYS or leaf in ("sum", "last"):
            rtol = RTOL_CONSTANT if leaf in ("C_hat", "B_hat") else RTOL_DEFAULT
            ok = "<missing>" not in (ref, val) and _float_equal(ref, val, rtol)
        else:
            ok = ref == val
        if not ok:
            bad.append(f"{key}: expected {ref!r}, got {val!r}")
    return bad


def load():
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)
