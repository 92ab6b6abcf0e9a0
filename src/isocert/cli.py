"""Command-line front end: configure a measure, an entropy profile, and a
cost, then run conjugation tables, isoperimetric profiles, integrability
checks, empirical inequality tests, or the combined certification flow.

Each input is checked once, where it enters: the CLI parses its own strings
(specs, ranges, config lines, choices) and the library validates the values
it is given.  A flag is taken only by the subcommand, mode (`test
--display`, `profile --profile-kind`) or family kind (`--family`) that
reads it (RunConfig's table); any other exits 2, naming the mode.  Either
refusal is a ValueError, which main prints as `error: <message>`.  Exit
codes: 0 success (for `check`, any decisive verdict), 2 refused input, 3
inconclusive verdict, 4 certification failure (divergent verdict or a
violated margin).  Output is deterministic: floats are printed with 17
significant digits, a report's JSON keys are its dataclass fields in
declaration order, and CSV uses LF line endings.  Everything runs on one
thread, and no environment variable changes what a subcommand does.

A process keeps the measures, `expr:` entropies and `expr:` costs it
builds, each keyed by its resolved settings or parsed expression, so a
repeated measure is built once, a repeated profile is built and checked
(A1-A4) once, and a repeated cost is sampled and checked for convexity
once, keeping its chord slopes for every Legendre table; `log` and `ftau:t`
profiles are shared by the entropy module itself.  A kept measure keeps
what the checker and the tester compute from it alone (node profiles,
family members' scalars, display 4.4's eps).  README's "Performance"
section lists each kept table with its key, bound and eviction rule.  A
kept member's tables are built, and checked finite, only when a display
reads them, so a warm display 4.4 request builds no member table and runs
no eps sweep; displays 2.1 and 1.1 build the tables on every request.
Reports are never kept: every request computes its own, and a one-request
process or a one-off `expr:` measure gains nothing from what is kept.  The
argument parser is built once per subcommand.  JSON and CSV are each
written by one writer; the JSON writer, in one pass, writes each exact type
with the writer one isinstance chain picked for it once per process, and a
CSV body is one %-format over the cells flattened in row order.

An `expr:` measure or entropy is named in reports `expr:` plus its text as
given.  A flag value may start with `-` (`--support -5:5`,
`--support -inf:0`), in either the spaced or the `=` form.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

import numpy as np

from .checker import ConditionSpec, check_condition, check_exp_power, exp_power_range
from .convex import CostFunction, dual_cost, eval_cost, legendre_transform
from .entropy import EntropyFunction, F_tau, log_entropy
from .expr import PotentialExpr, parse_potential
from .measure1d import I_F_profile, Kept, build_measure, builtin_measure, tilde_profile
from .tester import _MEMBERS, TestFamily, TestRow, verify_theorem_1_1, verify_theorem_2_1, verify_theorem_4_4

__all__ = ["RunConfig", "main", "run"]


class ConfigError(ValueError):
    """The command line's own parsing failed: an unknown name, a malformed
    spec, range or config line, or a setting outside its choices.  Values
    are checked once, by the library they go to, whose ValueErrors reach
    main unchanged."""


# -- deterministic serialization ---------------------------------------------------


def _format_float(x: float) -> str:
    if x != x:
        return "null"
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return "%.17g" % x


_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]')
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", **{chr(c): "\\u%04x" % c for c in range(0x20) if c != 0x0A}}


def _json_string(text: str) -> str:
    if _NEEDS_ESCAPE.search(text) is None:
        return '"' + text + '"'
    return '"' + _NEEDS_ESCAPE.sub(lambda m: _ESCAPES[m.group()], text) + '"'


def _dump_json(obj) -> str:
    """Deterministic JSON text of a report, written in one pass into one list."""
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out) -> None:
    kind = type(obj)
    handler = _HANDLERS.get(kind)
    if handler is None:
        handler = _HANDLERS[kind] = _handler(kind)
    handler(obj, out)


def _handler(kind):
    """The writer of values of exact type kind, picked once per type by one
    isinstance chain in its order (so bool comes before int)."""
    if issubclass(kind, float):  # numpy's float64 is a float
        return lambda x, out: out.append(_format_float(x))
    if issubclass(kind, str):
        return lambda text, out: out.append(_json_string(text))
    if issubclass(kind, dict):
        return _emit_dict
    if issubclass(kind, (list, tuple, np.ndarray)):
        return _emit_sequence
    if kind is type(None):
        return lambda _, out: out.append("null")
    if issubclass(kind, bool):
        return lambda b, out: out.append("true" if b else "false")
    if issubclass(kind, (int, np.integer)):
        return lambda i, out: out.append(str(int(i)))
    if issubclass(kind, np.floating):
        return lambda x, out: out.append(_format_float(float(x)))
    if is_dataclass(kind) and not issubclass(kind, type):  # a report: its fields, in declaration order
        keys = tuple((f.name, '"' + f.name + '":') for f in fields(kind))
        return lambda obj, out: _emit_fields(obj, keys, out)

    def refuse(obj, out):
        raise TypeError(f"cannot serialize {kind.__name__}")

    return refuse


_HANDLERS = {}  # exact type -> its writer (_handler)
_KEYS = {}  # str dict key -> its quoted form and colon, for the first _KEPT_KEYS keys written
_KEPT_KEYS = 256


def _emit_fields(obj, keys, out) -> None:
    sep = "{"
    for name, key in keys:
        out.append(sep + key)
        _emit(getattr(obj, name), out)
        sep = ","
    out.append("}" if sep == "," else "{}")


def _emit_dict(obj, out) -> None:
    sep = "{"
    for k, value in obj.items():
        key = _KEYS.get(k) if type(k) is str else None
        if key is None:
            key = _json_string(str(k)) + ":"
            if type(k) is str and len(_KEYS) < _KEPT_KEYS:
                _KEYS[k] = key
        out.append(sep + key)
        _emit(value, out)
        sep = ","
    out.append("}" if sep == "," else "{}")


def _emit_sequence(values, out) -> None:
    sep = "["
    for value in values:
        out.append(sep)
        _emit(value, out)
        sep = ","
    out.append("]" if sep == "," else "[]")


def _csv_column(values):
    """The %-format and cells of one CSV column: text as it is, a bool as
    true or false, a number to 17 significant digits.  The first cell's type
    stands for the column's."""
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if values and isinstance(values[0], bool):
        return "%s", ["true" if v else "false" for v in values]
    return ("%s" if values and isinstance(values[0], str) else "%.17g"), values


def _table(names, *columns) -> str:
    """CSV text: a header of names, then row i of every column (see
    _csv_column), as many rows as the shortest column has cells.  The body
    is one %-format, the row format repeated once per row, applied to the
    cells flattened in row order."""
    formats, cells = zip(*map(_csv_column, columns))
    flat = tuple(itertools.chain.from_iterable(zip(*cells)))
    return ",".join(names) + "\n" + (",".join(formats) + "\n") * (len(flat) // len(columns)) % flat


def _report_table(report) -> str:
    """A TestReport's rows as CSV, one column per TestRow field."""
    names = [f.name for f in fields(TestRow)]
    return _table(names, *([getattr(row, name) for row in report.rows] for name in names))


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))


# -- configuration ------------------------------------------------------------------

_MEASURED = ("profile", "check", "test", "certify")  # the subcommands that build a measure from the settings
_CHECKED = ("check", "certify")
_TESTED = ("test", "certify")  # the subcommands that build a family
_RESTRICTED, _EXP_POWER, _POWER_BETA = (f"test --display {d}" for d in ("restricted", "exp-power", "power-beta"))


def _kinds_reading(name):
    """`--family <kind>` for each kind whose _MEMBERS row reads the TestFamily setting name."""
    return tuple(f"--family {kind}" for kind, row in _MEMBERS.items() if name in row[3])


def _run_readers(command, cfg):
    """What a run of command reads settings as: the subcommand, its mode
    (`test --display exp-power`, `profile --profile-kind if`) and the family
    kind it builds (`--family bump`)."""
    mode = {"test": "display", "profile": "profile_kind"}.get(command)
    readers = [command] + ([f"{command} --{mode.replace('_', '-')} {getattr(cfg, mode)}"] if mode else [])
    return readers + ([f"--family {cfg.family}"] if command in _TESTED else [])


def _subcommands(readers):
    """The subcommands that take a flag read by readers: a kind's are those that build a family."""
    return {c for r in readers for c in (_TESTED if r.startswith("--family ") else (r.split()[0],))}


def _setting(default, commands, convert=str, help=None, choices=None):
    """A RunConfig field with how its value converts and its readers: subcommands
    (`check`), their modes (`test --display restricted`) or family kinds (`--family bump`)."""
    return field(default=default, metadata={"commands": commands, "convert": convert, "help": help, "choices": choices})


@dataclass
class RunConfig:
    """Flat run configuration: the settings table of the command line.

    Each field declares its default, converter, choices, help and readers
    (_setting).  A run takes a flag (`--t-min` for t_min) only for the fields
    it reads, so any other flag is an error.  A config file (one `key =
    value` per line, `#` comments) may set any field, for every run: one
    file can describe a problem that `check`, `test` and `certify` share.
    Flags win over the file."""

    measure: str = _setting("gauss", _MEASURED, help="gauss | exp | exp_power:a | loglog | expr:V(x)")
    entropy: str = _setting("log", ("profile --profile-kind if", _RESTRICTED) + _CHECKED, help="log | ftau:t | expr:F(x)")
    cost: str = _setting("quadratic", ("conjugate", _RESTRICTED) + _CHECKED, help="quadratic[:delta] | c:A:alpha | expr:c(x)")
    delta: Optional[float] = _setting(None, _CHECKED, float)
    K: float = _setting(2.0, (_RESTRICTED,) + _CHECKED, float)
    t_min: float = _setting(1e-12, _CHECKED, float)
    n_per_decade: int = _setting(256, _CHECKED + ("paper-examples",), int)
    family: str = _setting("exponential", _TESTED, choices=tuple(_MEMBERS))
    params: str = _setting("0.25,0.5,1", _TESTED, help="comma-separated family parameters")
    floor: float = _setting(1e-6, _kinds_reading("floor"), float)
    seed: int = _setting(0, _kinds_reading("seed"), int)
    scale: float = _setting(0.5, _kinds_reading("scale"), float)
    exponent: float = _setting(0.7, _kinds_reading("exponent"), float)
    smoothing: float = _setting(0.05, _kinds_reading("smoothing"), float)
    display: str = _setting("restricted", ("test",), choices=("restricted", "exp-power", "power-beta"))
    alpha: float = _setting(1.5, (_EXP_POWER, _POWER_BETA), float)
    tau: float = _setting(1.0, (_EXP_POWER,), float)
    A: float = _setting(1.0, (_EXP_POWER,), float)
    n: int = _setting(16384, _MEASURED + ("paper-examples",), int)
    support: Optional[str] = _setting(None, _MEASURED, help="lo:hi")
    grid: Optional[str] = _setting(None, ("conjugate", "profile --profile-kind if"), help="lo:hi:n")
    t_grid: Optional[str] = _setting(None, ("profile --profile-kind tilde",), help="lo:hi:n in (0, 1/2]")
    profile_kind: str = _setting("tilde", ("profile",), choices=("tilde", "if"))
    out: Optional[str] = _setting(
        None, ("conjugate", "profile", "check", "test", "certify", "paper-examples"), help="output path (default stdout)"
    )

    @classmethod
    def from_sources(cls, config_path: Optional[str], ns: argparse.Namespace) -> "RunConfig":
        """Defaults, overridden by the config file, overridden by the flags
        set in ns (argparse has already converted those).  A flag that the
        run of ns.command (if set) does not read is refused; a config line is not."""
        cfg = cls()
        settings = {f.name: f.metadata for f in fields(cls)}
        if config_path is not None:
            try:
                with open(config_path, "r", encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}")
            for lineno, raw in enumerate(lines, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" in line:
                    key, _, val = line.partition("=")
                else:
                    parts = line.split(None, 1)
                    if len(parts) != 2:
                        raise ConfigError(f"config line {lineno}: expected 'key = value'")
                    key, val = parts
                key, val = key.strip().replace("-", "_"), val.strip()
                meta = settings.get(key)
                if meta is None:
                    raise ConfigError(f"config line {lineno}: unknown key {key!r}")
                try:
                    val = meta["convert"](val)
                except ValueError:
                    raise ConfigError(f"config line {lineno}: bad value for {key}: {val!r}")
                if meta["choices"] is not None and val not in meta["choices"]:
                    raise ConfigError(f"config line {lineno}: {key} must be one of {meta['choices']}")
                setattr(cfg, key, val)
        for name in settings:
            flag = getattr(ns, name, None)
            if flag is not None:
                setattr(cfg, name, flag)
            value = getattr(cfg, name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        readers = _run_readers(ns.command, cfg) if getattr(ns, "command", None) else None
        for name, meta in settings.items() if readers else ():
            if getattr(ns, name, None) is not None and set(readers).isdisjoint(meta["commands"]):
                # the flag's subcommand takes it, so its readers are this run's other modes or kinds
                mode = readers[-1] if meta["commands"][0].startswith("--family ") else readers[1]
                raise ConfigError(f"--{name.replace('_', '-')} is not read by {mode}")
        return cfg


def _parse_range(text: str, what: str, n_required: bool = True):
    parts = text.split(":")
    if n_required:
        if len(parts) != 3:
            raise ConfigError(f"{what} must look like lo:hi:n, got {text!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"bad {what}: {text!r}")
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ConfigError(f"--{what.replace('_', '-')} needs finite lo and hi, got {text!r}")
        if n < 2 or not hi > lo:
            raise ConfigError(f"{what} needs hi > lo and n >= 2")
        return lo, hi, n
    if len(parts) != 2:
        raise ConfigError(f"{what} must look like lo:hi, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"bad {what}: {text!r}")


_MEASURES = Kept(8, second_request=True)  # about 0.8 MB a measure at the default n


def _measure(kind, arg, support, n):
    """The measure a request resolves to, built once per process per key
    while it is kept in _MEASURES.

    kind is a builtin name or "expr"; arg is the exp_power alpha (a float) or
    the parsed PotentialExpr, else None; support is the parsed --support, or
    None for the whole line; n is --n.  Every measure is built on the hybrid
    grid.  So `exp_power:1.5` and the exp-power display's `--alpha 1.5`
    share an entry.  A refused measure raises and is not kept, so it is
    refused again on every request.  The measure's tables are read-only, so
    requests can share it."""

    def build():
        line = (-np.inf, np.inf) if support is None else support
        if kind == "expr":
            return build_measure(arg, support=line, n=n, name=f"expr:{arg.text}")
        return builtin_measure(kind, alpha=arg, n=n, support=line)

    return _MEASURES.get((kind, arg, support, n), build)


def _spec_float(text: str, what: str, spec: str) -> float:
    """float(text), a finite number in the --<what> spec; refused naming the spec."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad {what} {spec!r}: {exc}") from None
    if not np.isfinite(value):
        raise ConfigError(f"bad {what} {spec!r}: {value} is not a finite number")
    return value


def _build_measure(cfg: RunConfig):
    spec = cfg.measure.strip()
    support = None if cfg.support is None else _parse_range(cfg.support, "support", n_required=False)
    name, colon, arg = spec.partition(":")
    if spec in ("gauss", "exp", "loglog"):
        return _measure(spec, None, support, cfg.n)
    if name == "exp_power" and colon:
        return _measure("exp_power", _spec_float(arg, "measure", spec), support, cfg.n)
    if name == "expr" and colon:
        return _measure("expr", parse_potential(arg), support, cfg.n)
    raise ConfigError(f"unknown measure {spec!r}")


def _build_entropy(cfg: RunConfig) -> EntropyFunction:
    spec = cfg.entropy.strip()
    if spec == "log":
        return log_entropy()
    if spec.startswith("ftau:"):
        return F_tau(_spec_float(spec[5:], "entropy", spec))
    if spec.startswith("expr:"):
        return _expr_entropy(parse_potential(spec[5:]))
    raise ConfigError(f"unknown entropy {spec!r}")


@functools.lru_cache(maxsize=8)
def _expr_entropy(expr: PotentialExpr) -> EntropyFunction:
    """The profile of a parsed `expr:` entropy, one per process per
    expression (as _measure keeps measures), so that its A1-A4 report is
    sampled once.  A malformed expression is refused before the lookup."""
    return EntropyFunction(fn=expr, name=f"expr:{expr.text}")


@functools.lru_cache(maxsize=8)
def _expr_cost(expr: PotentialExpr) -> CostFunction:
    """The cost of a parsed `expr:` cost, sampled at 4,097 points of [0, 100]
    and checked once per process per expression (as _expr_entropy keeps
    profiles); its grid, values and chord slopes are read-only.  A refused
    cost raises and is not kept."""
    grid = np.linspace(0.0, 100.0, 4097)
    cost = CostFunction.from_samples(grid, expr(grid))
    for table in (cost.grid, cost.values, cost.slopes):
        table.flags.writeable = False
    return cost


def _build_cost(cfg: RunConfig):
    """(cost, check_cost, delta) for --cost: the cost of conjugate tables and
    tester energies, the checker's cost, and the delta that quadratic:delta
    names, else None (the checker then reads --delta, else 1; a --delta that
    differs from a named one is refused).

    quadratic:delta is the one place that names c_{1,2}(x) = x^2/2: conjugate
    tables and tester energies use that cost, while its checker cost is None,
    the quadratic condition Phi(delta r^2).  Any other cost is also the
    checker's, which evaluates Phi(delta c(r))."""
    spec = cfg.cost.strip()
    name, colon, arg = spec.partition(":")
    if name == "quadratic":
        delta = _spec_float(arg, "cost", spec) if colon else None
        if delta is not None and delta <= 0:
            raise ConfigError("quadratic delta must be positive")
        return CostFunction.closed_form(1.0, 2.0), None, delta
    if name == "c" and colon:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError("cost must look like c:A:alpha")
        cost = CostFunction.closed_form(_spec_float(parts[1], "cost", spec), _spec_float(parts[2], "cost", spec))
    elif name == "expr" and colon:
        cost = _expr_cost(parse_potential(arg))
    else:
        raise ConfigError(f"unknown cost {spec!r}")
    return cost, cost, None


def _build_family(cfg: RunConfig) -> TestFamily:
    """The --family kind with --params, given the settings its _MEMBERS row reads."""
    try:
        params = tuple(float(p) for p in cfg.params.split(",") if p.strip() != "")
    except ValueError:
        raise ConfigError(f"bad family params {cfg.params!r}")
    return TestFamily(kind=cfg.family, params=params, **{name: getattr(cfg, name) for name in _MEMBERS[cfg.family][3]})


# -- subcommands --------------------------------------------------------------------


def _cmd_conjugate(cfg: RunConfig) -> int:
    cost = _build_cost(cfg)[0]
    grid_spec = cfg.grid if cfg.grid is not None else "0:10:2000"
    lo, hi, n = _parse_range(grid_spec, "grid")
    if lo < 0:
        raise ConfigError(f"--grid must be nonnegative: the dual cost is tabulated on x >= 0, got {grid_spec!r}")
    xs = np.linspace(lo, hi, n)
    if cost.is_closed_form:
        values = np.asarray(eval_cost(dual_cost(cost), xs), dtype=float)
    else:
        table = legendre_transform(cost, xs)
        values = np.asarray(table.values, dtype=float)
        if bool(np.any(table.truncated)):
            sys.stderr.write("warning: dual grid extends past the recoverable slope range\n")
    _write_text(cfg.out, _table(("x", "c_star"), xs, values))
    return 0


def _cmd_profile(cfg: RunConfig) -> int:
    mu = _build_measure(cfg)
    if cfg.profile_kind == "tilde":
        t_range = _parse_range(cfg.t_grid if cfg.t_grid is not None else "0.000001:0.5:500", "t_grid")
        prof = tilde_profile(mu, np.linspace(*t_range))
        text = _table(("t", "u", "v", "tilde_I"), prof.t_grid, prof.u_t, prof.v_t, prof.tilde_I)
    else:  # profile_kind "if"
        F, r_range = _build_entropy(cfg), _parse_range(cfg.grid if cfg.grid is not None else "0:8:400", "grid")
        prof = I_F_profile(mu, F, np.linspace(*r_range))
        text = _table(("r", "s", "I_F"), prof.r_grid, prof.s_values, prof.values)
    _write_text(cfg.out, text)
    return 0


def _make_condition_spec(cfg: RunConfig):
    """(spec, cost): the checker's ConditionSpec and the tester's cost."""
    mu = _build_measure(cfg)
    F = _build_entropy(cfg)
    cost, check_cost, named = _build_cost(cfg)
    delta = cfg.delta if cfg.delta is not None else named
    if named is not None and delta != named:
        raise ConfigError(f"delta {delta:g} conflicts with the delta {named:g} of the cost {cfg.cost.strip()!r}")
    spec = ConditionSpec(measure=mu, F=F, cost=check_cost, delta=1.0 if delta is None else delta, K=cfg.K, t_min=cfg.t_min)
    return spec, cost


def _cmd_check(cfg: RunConfig) -> int:
    spec, _ = _make_condition_spec(cfg)
    report = check_condition(spec, n_per_decade=cfg.n_per_decade)
    _write_text(cfg.out, _dump_json(report) + "\n")
    return 3 if report.verdict == "INCONCLUSIVE" else 0


def _run_test_report(cfg: RunConfig):
    family = _build_family(cfg)
    if cfg.display == "exp-power":
        exp_power_range(cfg.alpha, cfg.tau)
    # --measure gauss (the default) still means exp_power(alpha) on the exp-power
    # display: perfbench/reference.json pins it (see its FOUND line in CHANGES.md)
    if cfg.display == "exp-power" and cfg.measure.strip() == "gauss" and cfg.support is None:
        mu = _measure("exp_power", float(cfg.alpha), None, cfg.n)
    else:
        mu = _build_measure(cfg)
    if cfg.display == "restricted":
        return verify_theorem_2_1(mu, _build_entropy(cfg), _build_cost(cfg)[0], cfg.K, family)
    if cfg.display == "exp-power":
        return verify_theorem_1_1(mu, cfg.alpha, cfg.tau, cfg.A, family)
    # display "power-beta"
    return verify_theorem_4_4(mu, cfg.alpha, family)


def _cmd_test(cfg: RunConfig) -> int:
    report = _run_test_report(cfg)
    json_text = _dump_json(report) + "\n"
    if cfg.out is None:
        sys.stdout.write(json_text)
    else:
        base = cfg.out[:-5] if cfg.out.endswith(".json") else cfg.out
        _write_text(base + ".json", json_text)
        _write_text(base + ".csv", _report_table(report))
    return 0


def _cmd_certify(cfg: RunConfig) -> int:
    spec, cost = _make_condition_spec(cfg)
    check_report = check_condition(spec, n_per_decade=cfg.n_per_decade)
    family = _build_family(cfg)
    test_report = verify_theorem_2_1(spec.measure, spec.F, cost, cfg.K, family)

    margins_ok = all(row["ok"] for row in test_report.details["step1"])
    b_finite = test_report.B_hat is not None and np.isfinite(test_report.B_hat)
    entropy_ok = all(r.entropy_F >= -1e-9 * max(1.0, abs(r.classical_entropy)) for r in test_report.rows)
    certified = check_report.verdict == "FINITE" and margins_ok and b_finite and entropy_ok

    _write_text(cfg.out, _dump_json({"certified": bool(certified), "check": check_report, "test": test_report}) + "\n")
    return 3 if check_report.verdict == "INCONCLUSIVE" else (0 if certified else 4)


def _cmd_paper_examples(cfg: RunConfig) -> int:
    exp_power = _measure("exp_power", 1.5, None, cfg.n)  # shared by three fixtures
    loglog = ConditionSpec(measure=_measure("loglog", None, None, cfg.n), F=log_entropy(), delta=0.5, K=2.0)
    family = TestFamily(kind="stretched_exp", params=(0.25, 0.5, 1.0), exponent=0.7, smoothing=0.05)
    loglog_report = check_condition(loglog, n_per_decade=cfg.n_per_decade)
    upper, lower = check_exp_power(exp_power, 1.5, (1.0, 2.0 / 3.0), cfg.n_per_decade)  # one shared endpoint run
    fixtures = {
        "loglog_quadratic": loglog_report,
        "exp_power_tau_upper": upper,
        "exp_power_tau_lower": lower,
        "power_entropy": verify_theorem_4_4(exp_power, 1.5, family),
    }
    _write_text(cfg.out, _dump_json({"fixtures": fixtures}) + "\n")
    return 0


# -- argument parsing ---------------------------------------------------------------


_COMMANDS = {
    "conjugate": _cmd_conjugate,
    "profile": _cmd_profile,
    "check": _cmd_check,
    "test": _cmd_test,
    "certify": _cmd_certify,
    "paper-examples": _cmd_paper_examples,
}


def run(config: RunConfig, command: str) -> int:
    """Run one subcommand against an assembled configuration, once each
    setting it reads that has choices holds one of them (or None)."""
    handler = _COMMANDS.get(command)
    if handler is None:
        raise ConfigError(f"unknown command {command!r}")
    for f in fields(RunConfig):  # the class: config may be any object with the settings
        choices = f.metadata["choices"] if command in f.metadata["commands"] else None
        if choices is not None and getattr(config, f.name) not in choices + (None,):
            raise ConfigError(f"{f.name} must be one of {choices}")
    return handler(config)


@functools.lru_cache(maxsize=len(_COMMANDS) + 1)
def _parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The isocert parser, built once per process for each subcommand name
    (or None).  Only the subparser for `command` gets flags: the RunConfig
    fields that subcommand or one of its modes or kinds reads, plus
    --config.  The others stay empty and are there so that `isocert -h`
    lists them."""
    parser = argparse.ArgumentParser(
        prog="isocert",
        description="certify and test entropy--energy inequalities for 1-D measures",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subs.add_parser(name, allow_abbrev=False)
        if name != command:
            continue
        sub.add_argument("--config", help="flat key = value file; it may set any setting, also one this run ignores; flags win")
        for f in fields(RunConfig):
            meta = f.metadata
            if name in _subcommands(meta["commands"]):
                sub.add_argument("--" + f.name.replace("_", "-"), type=meta["convert"], choices=meta["choices"], help=meta["help"])
    return parser


_DASH_VALUE = re.compile(r"-([\d.]|inf|nan)", re.IGNORECASE)


def _join_dash_values(argv):
    """argv with `--flag -5:5` written `--flag=-5:5`.  argparse reads a word
    that starts with `-` as an option unless it is a plain negative number;
    no isocert option starts with a digit, a dot, `inf` or `nan`, so such a
    word after a flag is that flag's value (every flag but --help takes one)."""
    out = []
    for word in argv:
        prev = out[-1] if out else ""
        if _DASH_VALUE.match(word) and prev.startswith("--") and "=" not in prev and prev not in ("--", "--help"):
            out[-1] = f"{prev}={word}"
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    argv = _join_dash_values(sys.argv[1:] if argv is None else argv)
    # the top-level parser has no options but -h, so the command is the first word
    command = next((a for a in argv if not a.startswith("-")), None)
    ns = _parser(command if command in _COMMANDS else None).parse_args(argv)
    try:
        cfg = RunConfig.from_sources(ns.config, ns)
        return run(cfg, ns.command)
    except ValueError as exc:  # ConfigError and ExprError are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
