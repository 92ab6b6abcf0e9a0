"""Command-line front end: configure a measure, an entropy profile, and a
cost, then run conjugation tables, isoperimetric profiles, integrability
checks, empirical inequality tests, or the combined certification flow.

Exit codes: 0 success (for `check`, any decisive verdict), 2 configuration
error, 3 inconclusive verdict, 4 certification failure (divergent verdict or
a violated margin).  Output is deterministic: floats are printed with 17
significant digits, a report's JSON keys are its dataclass fields in
declaration order, and CSV uses LF line endings.  Everything runs on one
thread, and no environment variable changes what a subcommand does.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

import numpy as np

from .checker import ConditionSpec, check_condition, check_exp_power
from .convex import CostFunction, dual_cost, eval_cost, legendre_transform
from .entropy import EntropyFunction, F_tau, log_entropy
from .expr import PotentialExpr, parse_potential
from .measure1d import I_F_profile, build_measure, builtin_measure, tilde_profile
from .tester import _MEMBERS, TestFamily, verify_theorem_1_1, verify_theorem_2_1, verify_theorem_4_4

__all__ = ["RunConfig", "PotentialExpr", "parse_potential", "main", "run"]


class ConfigError(ValueError):
    """Invalid configuration: unknown names or out-of-range parameters."""


# -- deterministic serialization ---------------------------------------------------


def _format_float(x: float) -> str:
    if x != x:
        return "null"
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    text = "%.17g" % x
    return text


def _dump_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        out = ['"']
        for ch in obj:
            if ch == '"':
                out.append('\\"')
            elif ch == "\\":
                out.append("\\\\")
            elif ch == "\n":
                out.append("\\n")
            elif ord(ch) < 0x20:
                out.append("\\u%04x" % ord(ch))
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_dump_json(str(k))}:{_dump_json(v)}" for k, v in obj.items()) + "}"
    if is_dataclass(obj) and not isinstance(obj, type):  # a report: its fields, in declaration order
        return "{" + ",".join(f'"{f.name}":{_dump_json(getattr(obj, f.name))}' for f in fields(obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dump_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _dump_json(list(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _table(names, *columns) -> str:
    """CSV text: a header of names, then row i of every column, 17 significant digits a cell."""
    row = ",".join(["%.17g"] * len(columns))
    return "\n".join([",".join(names), *(row % cells for cells in zip(*columns))]) + "\n"


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))


# -- configuration ------------------------------------------------------------------

_MEASURED = ("profile", "check", "test", "certify")  # the subcommands that build a measure from the settings
_CHECKED = ("check", "certify")
_TESTED = ("test", "certify")


def _setting(default, commands, convert=str, help=None, choices=None):
    """A RunConfig field with how its value converts and which subcommands
    read it; each of those takes the field as a flag."""
    return field(default=default, metadata={"commands": commands, "convert": convert, "help": help, "choices": choices})


@dataclass
class RunConfig:
    """Flat run configuration: the settings table of the command line.

    Each field declares its default, converter, choices, help and the
    subcommands that read it.  A subcommand takes a flag (`--t-min` for
    t_min) only for the fields it reads, so any other flag is an error.  A
    config file (one `key = value` per line, `#` comments) may set any
    field, for every subcommand: one file can describe a problem that
    `check`, `test` and `certify` share.  Flags win over the file."""

    measure: str = _setting("gauss", _MEASURED, help="gauss | exp | exp_power:a | loglog | expr:V(x)")
    entropy: str = _setting("log", _MEASURED, help="log | ftau:t | expr:F(x)")
    cost: str = _setting("quadratic:1", ("conjugate", "check", "test", "certify"), help="quadratic:delta | c:A:alpha | expr:c(x)")
    delta: Optional[float] = _setting(None, _CHECKED, float)
    K: float = _setting(2.0, ("check", "test", "certify"), float)
    t_min: float = _setting(1e-12, _CHECKED, float)
    form: Optional[str] = _setting(None, _CHECKED, choices=("quadratic", "general", "one_d_quadratic"))
    profile_choice: str = _setting("tilde", _CHECKED, choices=("tilde", "lower_bound_model"))
    n_per_decade: int = _setting(256, _CHECKED + ("paper-examples",), int)
    family: str = _setting("exponential", _TESTED, choices=tuple(_MEMBERS))
    params: str = _setting("0.25,0.5,1", _TESTED, help="comma-separated family parameters")
    floor: float = _setting(1e-6, _TESTED, float)
    seed: int = _setting(0, _TESTED, int)
    scale: float = _setting(0.5, _TESTED, float)
    exponent: float = _setting(0.7, _TESTED, float)
    smoothing: float = _setting(0.05, _TESTED, float)
    display: str = _setting("restricted", ("test",), choices=("restricted", "exp-power", "power-beta"))
    alpha: float = _setting(1.5, _MEASURED, float)
    tau: float = _setting(1.0, ("test",), float)
    A: float = _setting(1.0, ("test",), float)
    n: int = _setting(16384, _MEASURED + ("paper-examples",), int)
    grid_kind: str = _setting("hybrid", _MEASURED, choices=("hybrid", "uniform"))
    support: Optional[str] = _setting(None, _MEASURED, help="lo:hi")
    grid: Optional[str] = _setting(None, ("conjugate", "profile"), help="lo:hi:n")
    t_grid: Optional[str] = _setting(None, ("profile",), help="lo:hi:n in (0, 1/2]")
    profile_kind: str = _setting("tilde", ("profile",), choices=("tilde", "if"))
    out: Optional[str] = _setting(
        None, ("conjugate", "profile", "check", "test", "certify", "paper-examples"), help="output path (default stdout)"
    )

    @classmethod
    def from_sources(cls, config_path: Optional[str], ns: argparse.Namespace) -> "RunConfig":
        """Defaults, overridden by the config file, overridden by the flags
        set in ns (argparse has already converted those)."""
        cfg = cls()
        settings = {f.name: f.metadata for f in fields(cls)}
        if config_path is not None:
            try:
                lines = open(config_path, "r", encoding="utf-8").read().splitlines()
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
        if n < 2 or not hi > lo:
            raise ConfigError(f"{what} needs hi > lo and n >= 2")
        return lo, hi, n
    if len(parts) != 2:
        raise ConfigError(f"{what} must look like lo:hi, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"bad {what}: {text!r}")


def _build_measure(cfg: RunConfig):
    spec = cfg.measure.strip()
    support = (-np.inf, np.inf)
    if cfg.support is not None:
        support = _parse_range(cfg.support, "support", n_required=False)
    try:
        if spec in ("gauss", "exp", "loglog"):
            return builtin_measure(spec, n=cfg.n, support=support, grid_kind=cfg.grid_kind)
        if spec.startswith("exp_power"):
            alpha = cfg.alpha
            if ":" in spec:
                alpha = float(spec.split(":", 1)[1])
            return builtin_measure("exp_power", alpha=alpha, n=cfg.n, support=support, grid_kind=cfg.grid_kind)
        if spec.startswith("expr:"):
            expr = parse_potential(spec[5:])
            return build_measure(
                lambda x: np.asarray(expr(x), dtype=float),
                support=support,
                n=cfg.n,
                grid_kind=cfg.grid_kind,
                name=f"expr:{expr.to_text()}",
            )
    except ValueError as exc:
        raise ConfigError(str(exc))
    raise ConfigError(f"unknown measure {spec!r}")


def _build_entropy(cfg: RunConfig) -> EntropyFunction:
    spec = cfg.entropy.strip()
    try:
        if spec == "log":
            return log_entropy()
        if spec.startswith("ftau:"):
            return F_tau(float(spec.split(":", 1)[1]))
        if spec.startswith("expr:"):
            expr = parse_potential(spec[5:])
            return EntropyFunction(fn=lambda y: np.asarray(expr(y), dtype=float), name=f"expr:{expr.to_text()}")
    except ValueError as exc:
        raise ConfigError(str(exc))
    raise ConfigError(f"unknown entropy {spec!r}")


def _build_cost(cfg: RunConfig):
    """(cost, form, delta) for --cost: the cost, the checker form it selects,
    and the checker's delta (the one quadratic:delta names, else 1).

    quadratic:delta is the one place that names c_{1,2}(x) = x^2/2: conjugate
    tables and tester energies use that cost, while the checker evaluates its
    own 'quadratic' form Phi(delta r^2)."""
    spec = cfg.cost.strip()
    try:
        if spec.startswith("quadratic"):
            delta = 1.0
            if ":" in spec:
                delta = float(spec.split(":", 1)[1])
            if delta <= 0:
                raise ConfigError("quadratic delta must be positive")
            return CostFunction.closed_form(1.0, 2.0), "quadratic", delta
        if spec.startswith("c:"):
            parts = spec.split(":")
            if len(parts) != 3:
                raise ConfigError("cost must look like c:A:alpha")
            A, alpha = float(parts[1]), float(parts[2])
            return CostFunction.closed_form(A, alpha), "general", 1.0
        if spec.startswith("expr:"):
            expr = parse_potential(spec[5:])
            grid = np.linspace(0.0, 100.0, 4097)
            return CostFunction.from_samples(grid, np.asarray(expr(grid), dtype=float)), "general", 1.0
    except ValueError as exc:
        raise ConfigError(str(exc))
    raise ConfigError(f"unknown cost {spec!r}")


def _build_family(cfg: RunConfig) -> TestFamily:
    try:
        params = tuple(float(p) for p in cfg.params.split(",") if p.strip() != "")
    except ValueError:
        raise ConfigError(f"bad family params {cfg.params!r}")
    try:
        return TestFamily(
            kind=cfg.family,
            params=params,
            floor=cfg.floor,
            seed=cfg.seed,
            scale=cfg.scale,
            exponent=cfg.exponent,
            smoothing=cfg.smoothing,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


# -- subcommands --------------------------------------------------------------------


def _cmd_conjugate(cfg: RunConfig) -> int:
    cost, _, _ = _build_cost(cfg)
    grid_spec = cfg.grid if cfg.grid is not None else "0:10:2000"
    lo, hi, n = _parse_range(grid_spec, "grid")
    if lo < 0:
        raise ConfigError("conjugate grid must be nonnegative")
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
        t_spec = cfg.t_grid if cfg.t_grid is not None else "0.000001:0.5:500"
        lo, hi, n = _parse_range(t_spec, "t_grid")
        if not (0.0 < lo < hi <= 0.5):
            raise ConfigError("t_grid must lie inside (0, 1/2]")
        t = np.linspace(lo, hi, n)
        prof = tilde_profile(mu, t)
        text = _table(("t", "u", "v", "tilde_I"), prof.t_grid, prof.u_t, prof.v_t, prof.tilde_I)
    elif cfg.profile_kind == "if":
        F = _build_entropy(cfg)
        r_spec = cfg.grid if cfg.grid is not None else "0:8:400"
        lo, hi, n = _parse_range(r_spec, "grid")
        if lo < 0:
            raise ConfigError("radii must be nonnegative")
        r = np.linspace(lo, hi, n)
        prof = I_F_profile(mu, F, r)
        text = _table(("r", "s", "I_F"), prof.r_grid, prof.s_values, prof.values)
    else:
        raise ConfigError(f"unknown profile kind {cfg.profile_kind!r}")
    _write_text(cfg.out, text)
    return 0


def _make_condition_spec(cfg: RunConfig):
    mu = _build_measure(cfg)
    F = _build_entropy(cfg)
    cost, form, delta = _build_cost(cfg)
    if cfg.form is not None and cfg.form != form:
        if cfg.form == "general":
            raise ConfigError("form 'general' needs a c:A:alpha or expr: cost")
        if form == "general":
            raise ConfigError(f"form {cfg.form!r} evaluates Phi(delta r^2) and cannot use the cost {cfg.cost.strip()!r}")
        form = cfg.form
    try:
        return ConditionSpec(
            measure=mu,
            F=F,
            cost=cost,
            delta=cfg.delta if cfg.delta is not None else delta,
            K=cfg.K,
            form=form,
            profile_choice=cfg.profile_choice,
            t_min=cfg.t_min,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _cmd_check(cfg: RunConfig) -> int:
    spec = _make_condition_spec(cfg)
    report = check_condition(spec, n_per_decade=cfg.n_per_decade)
    _write_text(cfg.out, _dump_json(report) + "\n")
    return 3 if report.verdict == "INCONCLUSIVE" else 0


def _run_test_report(cfg: RunConfig):
    family = _build_family(cfg)
    if cfg.display == "restricted":
        mu = _build_measure(cfg)
        F = _build_entropy(cfg)
        cost, _, _ = _build_cost(cfg)
        return verify_theorem_2_1(mu, F, cost, cfg.K, family)
    if cfg.display == "exp-power":
        # --measure gauss (the default) still means exp_power(alpha) on this
        # display: perfbench/reference.json pins it (see its FOUND line in CHANGES.md)
        if cfg.measure.strip() == "gauss" and cfg.support is None:
            mu = builtin_measure("exp_power", alpha=cfg.alpha, n=cfg.n)
        else:
            mu = _build_measure(cfg)
        return verify_theorem_1_1(mu, cfg.alpha, cfg.tau, cfg.A, family)
    if cfg.display == "power-beta":
        mu = _build_measure(cfg)
        return verify_theorem_4_4(mu, cfg.alpha, family)
    raise ConfigError(f"unknown display {cfg.display!r}")


def _cmd_test(cfg: RunConfig) -> int:
    try:
        report = _run_test_report(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc))
    json_text = _dump_json(report) + "\n"
    if cfg.out is None:
        sys.stdout.write(json_text)
    else:
        base = cfg.out[:-5] if cfg.out.endswith(".json") else cfg.out
        _write_text(base + ".json", json_text)
        _write_text(base + ".csv", report.to_csv_text())
    return 0


def _cmd_certify(cfg: RunConfig) -> int:
    spec = _make_condition_spec(cfg)
    check_report = check_condition(spec, n_per_decade=cfg.n_per_decade)
    family = _build_family(cfg)
    test_report = verify_theorem_2_1(spec.measure, spec.F, spec.cost, cfg.K, family)

    margins_ok = all(row["ok"] for row in test_report.details["step1"])
    b_finite = test_report.B_hat is not None and np.isfinite(test_report.B_hat)
    entropy_ok = all(r.entropy_F >= -1e-9 * max(1.0, abs(r.classical_entropy)) for r in test_report.rows)
    certified = check_report.verdict == "FINITE" and margins_ok and b_finite and entropy_ok

    payload = {
        "certified": bool(certified),
        "check": check_report,
        "test": test_report,
    }
    _write_text(cfg.out, _dump_json(payload) + "\n")
    if check_report.verdict == "INCONCLUSIVE":
        return 3
    if not certified:
        return 4
    return 0


def _cmd_paper_examples(cfg: RunConfig) -> int:
    exp_power = builtin_measure("exp_power", alpha=1.5, n=cfg.n)  # shared by three fixtures
    loglog = ConditionSpec(measure=builtin_measure("loglog", n=cfg.n), F=log_entropy(), delta=0.5, K=2.0, form="quadratic")
    family = TestFamily(kind="stretched_exp", params=(0.25, 0.5, 1.0), exponent=0.7, smoothing=0.05)
    fixtures = {
        "loglog_quadratic": check_condition(loglog, n_per_decade=cfg.n_per_decade),
        "exp_power_tau_upper": check_exp_power(exp_power, 1.5, 1.0),
        "exp_power_tau_lower": check_exp_power(exp_power, 1.5, 2.0 / 3.0),
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
    """Run one subcommand against an assembled configuration."""
    handler = _COMMANDS.get(command)
    if handler is None:
        raise ConfigError(f"unknown command {command!r}")
    return handler(config)


def _parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The isocert parser.  Only the subparser for `command` gets flags: the
    RunConfig fields that subcommand reads, plus --config.  The others stay
    empty and are there so that `isocert -h` lists them."""
    parser = argparse.ArgumentParser(
        prog="isocert",
        description="certify and test entropy--energy inequalities for 1-D measures",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subs.add_parser(name, allow_abbrev=False)
        if name != command:
            continue
        sub.add_argument("--config", help="flat key = value file; it may set any setting, also one this subcommand ignores; flags win")
        for f in fields(RunConfig):
            meta = f.metadata
            if name in meta["commands"]:
                sub.add_argument("--" + f.name.replace("_", "-"), type=meta["convert"], choices=meta["choices"], help=meta["help"])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has no options but -h, so the command is the first word
    command = next((a for a in argv if not a.startswith("-")), None)
    ns = _parser(command).parse_args(argv)
    try:
        cfg = RunConfig.from_sources(ns.config, ns)
        return run(cfg, ns.command)
    except ValueError as exc:  # ConfigError and ExprError are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
