"""Command-line interface: subcommands, config handling, exit codes, output
formats, and determinism."""

import argparse
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import threading
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isocert.checker as checker
import isocert.cli as cli
import isocert.entropy as entropy
from isocert.checker import ConditionSpec, check_condition
from isocert.cli import ConfigError, RunConfig, _dump_json, _parse_range, main
from isocert.convex import CostFunction
from isocert.entropy import log_entropy
from isocert.measure1d import Kept, builtin_measure
from isocert.tester import TestFamily, _integrability_eps, verify_theorem_4_4

from conftest import module_caches


def read_text(path):
    return path.read_bytes().decode("utf-8")


@dataclass
class _Row:
    x: int
    y: tuple


# values and the exact text the JSON writer gives them
_WRITER_TABLE = [
    ('"', '"\\""'),
    ("\\", '"\\\\"'),
    ("\n", '"\\n"'),
    ("\t", '"\\u0009"'),
    ("\r", '"\\u000d"'),
    ("\x1f", '"\\u001f"'),
    ("\x7f", '"\x7f"'),
    ("é☃ α", '"é☃ α"'),
    ("", '""'),
    ("plain text", '"plain text"'),
    (float("nan"), "null"),
    (float("inf"), '"inf"'),
    (float("-inf"), '"-inf"'),
    (-0.0, "-0"),
    (1e-310, "9.9999999999999694e-311"),
    (np.float32(0.1), "0.10000000149011612"),
    (np.float64(np.inf), '"inf"'),
    (np.int32(-3), "-3"),
    (np.int64(7), "7"),
    (False, "false"),
    (None, "null"),
    (12345678901234567890, "12345678901234567890"),
    ({}, "{}"),
    ([], "[]"),
    ((), "[]"),
    (np.array([]), "[]"),
    (np.array([[1.0, 2.5], [3.0, np.nan]]), "[[1,2.5],[3,null]]"),
    ({1: "a", None: 2, 1.5: [], "k\n": {}}, '{"1":"a","None":2,"1.5":[],"k\\n":{}}'),
    (({"r": _Row(1, (2.5, None))},), '[{"r":{"x":1,"y":[2.5,null]}}]'),
    (_Row(np.int32(1), ()), '{"x":1,"y":[]}'),
]


class TestJsonDump:
    def test_non_finite_floats(self):
        out = _dump_json({"a": float("nan"), "b": float("inf"), "c": float("-inf")})
        assert out == '{"a":null,"b":"inf","c":"-inf"}'

    def test_seventeen_significant_digits(self):
        assert _dump_json(0.1) == "0.10000000000000001"
        assert _dump_json(1.0) == "1"

    def test_key_order_is_insertion_order(self):
        assert _dump_json({"zeta": 1, "alpha": 2}) == '{"zeta":1,"alpha":2}'

    def test_scalars_and_containers(self):
        assert _dump_json(True) == "true"
        assert _dump_json(None) == "null"
        assert _dump_json(np.int64(3)) == "3"
        assert _dump_json([1, (2.5, "x")]) == '[1,[2.5,"x"]]'
        assert _dump_json(np.array([1.0, 2.0])) == "[1,2]"

    def test_string_escaping(self):
        assert _dump_json('a"b\n\t') == '"a\\"b\\n\\u0009"'

    def test_unserializable_type_raises(self):
        with pytest.raises(TypeError):
            _dump_json(object())

    def test_output_is_standard_json(self):
        text = _dump_json({"x": [1.5, None, True], "y": "s"})
        assert json.loads(text) == {"x": [1.5, None, True], "y": "s"}

    @pytest.mark.parametrize("value, text", _WRITER_TABLE, ids=[repr(v) for v, _ in _WRITER_TABLE])
    def test_writer_table(self, value, text):
        assert _dump_json(value) == text

    @pytest.mark.parametrize("value", [object(), np.bool_(True), np.array([True]), _Row, {1: {2}}])
    def test_writer_refuses_what_it_cannot_write(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            _dump_json(value)

    def test_strings_round_trip_through_a_json_reader(self):
        text = "".join(map(chr, range(0x80))) + "é☃\u2028"
        assert json.loads(_dump_json({text: text})) == {text: text}


def _per_row_table(names, *columns):
    """The CSV formula _table replaced, one %-format per row: the reference."""
    formats, cells = zip(*map(cli._csv_column, columns))
    row = ",".join(formats)
    return "\n".join([",".join(names), *(row % r for r in zip(*cells))]) + "\n"


_CSV_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 2.5e-310, np.inf, -np.inf, np.nan, 1e300, -1e-300])
_CSV_COLUMNS = st.one_of(
    st.lists(st.text() | st.just("50% of 100%")),
    st.lists(st.booleans()),
    st.lists(_CSV_FLOATS),
    st.lists(_CSV_FLOATS.map(np.float64)),
    st.lists(_CSV_FLOATS).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.integers(-(10**20), 10**20)),
)
# float arrays of one length, the columns conjugate and profile write
_CSV_FLOAT_ARRAYS = st.integers(0, 30).flatmap(
    lambda n: st.lists(st.lists(_CSV_FLOATS, min_size=n, max_size=n).map(np.array), min_size=1, max_size=4)
)


class TestCsvTable:
    @settings(max_examples=200, deadline=None)
    @given(columns=st.lists(_CSV_COLUMNS, min_size=1, max_size=5) | _CSV_FLOAT_ARRAYS)
    def test_matches_the_per_row_formula(self, columns):
        names = [f"c{i}" for i in range(len(columns))]
        assert cli._table(names, *columns) == _per_row_table(names, *columns)

    def test_one_cell_rule_for_every_column_type(self):
        got = cli._table(("a", "b", "c", "d"), ["x", "y"], [True, False], np.array([0.1, 2.0]), [float("nan"), -np.inf])
        assert got == "a,b,c,d\nx,true,0.10000000000000001,nan\ny,false,2,-inf\n"

    def test_no_rows_is_the_header(self):
        assert cli._table(("a", "b"), [], np.array([])) == "a,b\n"


class TestParseRange:
    def test_three_part_range(self):
        assert _parse_range("0:10:2000", "grid") == (0.0, 10.0, 2000)

    def test_two_part_range(self):
        assert _parse_range("-3:4.5", "support", n_required=False) == (-3.0, 4.5)

    @pytest.mark.parametrize("bad", ["0:10", "a:b:c", "5:1:10", "0:1:1", "1:2:3:4"])
    def test_bad_three_part(self, bad):
        with pytest.raises(ConfigError):
            _parse_range(bad, "grid")

    @pytest.mark.parametrize("bad", ["1", "1:2:3", "x:y"])
    def test_bad_two_part(self, bad):
        with pytest.raises(ConfigError):
            _parse_range(bad, "support", n_required=False)


class TestConfigFile:
    def test_both_line_forms_and_comments(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# a comment\n"
            "measure exp\n"
            "K = 3.5\n"
            "n 4096  # trailing comment\n"
            "\n"
            "t-min = 1e-10\n"
        )
        cfg = RunConfig.from_sources(str(cfg_file), argparse.Namespace())
        assert cfg.measure == "exp"
        assert cfg.K == 3.5
        assert cfg.n == 4096
        assert cfg.t_min == 1e-10

    def test_flags_override_config(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("K = 3.5\nmeasure exp\n")
        ns = argparse.Namespace(K=5.0)
        cfg = RunConfig.from_sources(str(cfg_file), ns)
        assert cfg.K == 5.0
        assert cfg.measure == "exp"

    def test_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("frobnicate = 1\n")
        with pytest.raises(ConfigError):
            RunConfig.from_sources(str(cfg_file), argparse.Namespace())

    def test_bad_numeric_value(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("K = banana\n")
        with pytest.raises(ConfigError):
            RunConfig.from_sources(str(cfg_file), argparse.Namespace())

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            RunConfig.from_sources("/nonexistent/run.cfg", argparse.Namespace())

    @pytest.mark.parametrize("line", ["form = quadratic", "profile_choice = tilde", "grid_kind = uniform"])
    def test_removed_setting_is_an_unknown_key(self, tmp_path, line):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n")
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.from_sources(str(cfg_file), argparse.Namespace())

    @pytest.mark.parametrize("line", ["delta = inf", "K = nan", "smoothing = -inf"])
    def test_non_finite_number_is_refused_naming_the_setting(self, tmp_path, line):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n")
        key, _, value = line.partition(" = ")
        with pytest.raises(ConfigError, match=f"^{key} must be finite, got {value}$"):
            RunConfig.from_sources(str(cfg_file), argparse.Namespace())
        # a finite flag overrides the file's value, so nothing is refused
        assert getattr(RunConfig.from_sources(str(cfg_file), argparse.Namespace(**{key: 2.0})), key) == 2.0

    def test_config_error_exit_code_through_main(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("frobnicate = 1\n")
        assert main(["check", "--config", str(cfg_file)]) == 2
        assert "error:" in capsys.readouterr().err


class TestConjugateCommand:
    def test_closed_form_dual_csv(self, tmp_path):
        out = tmp_path / "dual.csv"
        rc = main(["conjugate", "--cost", "c:1:3", "--grid", "0:10:2000", "--out", str(out)])
        assert rc == 0
        lines = read_text(out).strip().split("\n")
        assert lines[0] == "x,c_star"
        assert len(lines) == 2001
        xs = np.array([float(l.split(",")[0]) for l in lines[1:]])
        got = np.array([float(l.split(",")[1]) for l in lines[1:]])
        # the dual of c_{1,3} has exponent beta = 3/2
        beta = 1.5
        want = np.where(xs <= 1.0, xs * xs / 2.0, xs ** beta / beta + (beta - 2.0) / (2.0 * beta))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_sampled_cost_dual(self, tmp_path):
        out = tmp_path / "dual.csv"
        rc = main(["conjugate", "--cost", "expr:x^2/2", "--grid", "0:5:500", "--out", str(out)])
        assert rc == 0
        lines = read_text(out).strip().split("\n")
        ys = np.array([float(l.split(",")[0]) for l in lines[1:]])
        got = np.array([float(l.split(",")[1]) for l in lines[1:]])
        # x^2/2 is self-dual up to sampling error on the slope grid
        assert np.allclose(got, ys * ys / 2.0, atol=2e-3, rtol=1e-3)

    def test_sampled_cost_past_its_slope_range_warns(self, tmp_path, capsys):
        # x^2/2 is sampled on [0, 100], so its last chord slope is about 100: the dual points 500 and 1000 lie past it
        out = tmp_path / "dual.csv"
        assert main(["conjugate", "--cost", "expr:x^2/2", "--grid", "0:1000:3", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "warning: dual grid extends past the recoverable slope range\n"
        assert read_text(out).startswith("x,c_star\n") and len(read_text(out).splitlines()) == 4

    def test_stdout_default(self, capsys):
        assert main(["conjugate", "--grid", "0:1:5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("x,c_star\n")

    def test_negative_grid_rejected(self, capsys):
        # equals form: a leading '-' in a separate token looks like a flag
        assert main(["conjugate", "--grid=-1:1:5"]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_huge_grid_points_write_nothing_to_stderr(self, capsys):
        # the quadratic branch of c_{1,1.5} overflows at 1e200, where the
        # power branch takes over
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["conjugate", "--cost", "c:1:1.5", "--grid", "0:1e200:3"]) == 0
        assert capsys.readouterr().err == ""


class TestProfileCommand:
    def test_two_sided_profile_csv(self, tmp_path):
        out = tmp_path / "prof.csv"
        rc = main(["profile", "--measure", "gauss", "--n", "4096",
                   "--t-grid", "0.1:0.5:3", "--out", str(out)])
        assert rc == 0
        lines = read_text(out).strip().split("\n")
        assert lines[0] == "t,u,v,tilde_I"
        assert len(lines) == 4
        t, u, v, ii = (np.array(col) for col in zip(*(map(float, l.split(",")) for l in lines[1:])))
        assert u[0] == pytest.approx(-1.2815515655446004, abs=1e-4)
        assert v[0] == pytest.approx(+1.2815515655446004, abs=1e-4)
        assert ii[-1] == pytest.approx(0.3989422804014327, abs=1e-4)  # peak density

    def test_ball_profile_csv_starts_at_zero(self, tmp_path):
        out = tmp_path / "prof.csv"
        rc = main(["profile", "--profile-kind", "if", "--measure", "gauss", "--n", "4096",
                   "--entropy", "log", "--grid", "0:8:40", "--out", str(out)])
        assert rc == 0
        lines = read_text(out).strip().split("\n")
        assert lines[0] == "r,s,I_F"
        first = [float(p) for p in lines[1].split(",")]
        assert first == [0.0, 1.0, 0.0]

    def test_support_keeps_an_infinite_end(self, tmp_path):
        # exp on the half-line [0, inf): t-quantiles -log(1 - t) and -log t, and tilde_I(t) = t
        out = tmp_path / "prof.csv"
        rc = main(["profile", "--measure", "exp", "--support", "0:inf", "--n", "4096",
                   "--t-grid", "0.01:0.5:3", "--out", str(out)])
        assert rc == 0
        rows = [[float(p) for p in line.split(",")] for line in read_text(out).strip().split("\n")[1:]]
        t, u, v, ii = (np.array(col) for col in zip(*rows))
        assert u == pytest.approx(-np.log1p(-t), abs=1e-4)
        assert v == pytest.approx(-np.log(t), abs=1e-4)
        assert ii == pytest.approx(t, abs=1e-4)

    def test_bad_t_grid_rejected(self, capsys):
        assert main(["profile", "--t-grid", "0.1:0.9:5"]) == 2
        assert "t_grid" in capsys.readouterr().err


def _inconclusive_report():
    mu = builtin_measure("gauss", n=4096)
    grid = np.linspace(0.0, 2.0, 257)
    cost = CostFunction.from_samples(grid, grid * grid / 2.0)
    report = check_condition(ConditionSpec(measure=mu, F=log_entropy(), cost=cost, delta=0.5, K=2.0))
    assert report.verdict == "INCONCLUSIVE"  # cost grid too short to trust
    return report


class TestCheckCommand:
    def test_finite_verdict_exits_zero(self, tmp_path):
        out = tmp_path / "check.json"
        rc = main(["check", "--measure", "gauss", "--entropy", "log",
                   "--cost", "quadratic:0.5", "--K", "2", "--n", "8192", "--out", str(out)])
        assert rc == 0
        payload = json.loads(read_text(out))
        assert payload["verdict"] == "FINITE"
        assert payload["delta"] == 0.5

    def test_divergent_verdict_also_exits_zero(self, tmp_path):
        out = tmp_path / "check.json"
        rc = main(["check", "--measure", "exp", "--entropy", "log",
                   "--cost", "quadratic:1", "--n", "8192", "--out", str(out)])
        assert rc == 0
        assert json.loads(read_text(out))["verdict"] == "DIVERGENT_LIKELY"

    def test_inconclusive_verdict_exits_three(self, tmp_path, monkeypatch, capsys):
        report = _inconclusive_report()
        monkeypatch.setattr(cli, "check_condition", lambda s, n_per_decade=256: report)
        rc = main(["check", "--measure", "gauss"])
        assert rc == 3
        assert json.loads(capsys.readouterr().out)["verdict"] == "INCONCLUSIVE"

    @pytest.mark.parametrize("cost, form, name, delta", [
        ("quadratic", "quadratic", "quadratic", 1),
        ("quadratic:0.5", "quadratic", "quadratic", 0.5),
        ("c:1:3", "general", "c_{1,3}", 1),
        ("expr:x^2/2", "general", "sampled", 1),
    ])
    def test_cost_picks_the_checked_form(self, cost, form, name, delta, capsys):
        assert main(["check", "--measure", "gauss", "--cost", cost, "--n", "4096"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["form"], payload["cost"], payload["delta"]) == (form, name, delta)

    def test_exp_power_alpha_is_named_in_the_measure(self, capsys):
        assert main(["check", "--measure", "exp_power", "--n", "4096"]) == 2
        assert capsys.readouterr() == ("", "error: unknown measure 'exp_power'\n")
        with pytest.raises(SystemExit) as exc:
            main(["check", "--measure", "exp_power:1.5", "--alpha", "1.5", "--n", "4096"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha 1.5" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["4096", "16384"])
    def test_natural_inconclusive_verdict_exits_three(self, n, capsys):
        # tail_p < 1 but the last partial sums do not fall geometrically, and no flag is raised
        assert main(["check", "--measure", "gauss", "--cost", "c:1:3", "--delta", "1.08", "--n", n]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert (payload["verdict"], payload["flags"]) == ("INCONCLUSIVE", [])
        assert payload["tail_p"] == pytest.approx(0.901, abs=1e-3)  # measured 0.90132 and 0.90091

    def test_unknown_measure_exits_two(self, capsys):
        assert main(["check", "--measure", "banana"]) == 2
        assert "unknown measure" in capsys.readouterr().err

    def test_unparsable_expression_exits_two(self, capsys):
        assert main(["check", "--measure", "expr:abs(x"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_argparse_rejects_unknown_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--display", "pentagonal"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n", ["0", "3"])
    def test_bad_panel_count_exits_two(self, n, capsys):
        rc = main(["check", "--measure", "gauss", "--entropy", "log", "--cost", "quadratic:0.5",
                   "--K", "2", "--n-per-decade", n])
        assert rc == 2
        captured = capsys.readouterr()
        assert "n_per_decade" in captured.err
        assert captured.out == ""

    def test_entropy_without_log_form_beyond_e700_exits_two(self, capsys):
        rc = main(["check", "--measure", "exp", "--entropy", "expr:log(x)", "--cost", "c:1:3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "log-form" in err


class TestTestCommand:
    def test_out_writes_json_and_csv(self, tmp_path):
        base = tmp_path / "rep.json"
        rc = main(["test", "--measure", "gauss", "--entropy", "log", "--cost", "quadratic:1",
                   "--K", "2", "--params", "0.25,0.5", "--n", "8192", "--out", str(base)])
        assert rc == 0
        payload = json.loads(read_text(tmp_path / "rep.json"))
        assert set(payload) == {"family", "C_hat", "B_hat", "rows", "details"}
        assert payload["C_hat"] == pytest.approx(4.0, rel=1e-3)
        csv_lines = read_text(tmp_path / "rep.csv").strip().split("\n")
        assert csv_lines[0] == ("name,parameter,entropy_F,classical_entropy,variance,"
                                "grad_energy,modified_energy,median_energy,ratio,saturation")
        assert len(csv_lines) == 3

    def test_exp_power_display(self, capsys):
        rc = main(["test", "--display", "exp-power", "--alpha", "2", "--tau", "1",
                   "--A", "1", "--params", "0.25,0.5", "--n", "8192"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["C_hat"] == pytest.approx(2.0, rel=1e-3)

    def test_power_beta_display(self, capsys):
        rc = main(["test", "--display", "power-beta", "--measure", "exp_power:1.5",
                   "--alpha", "1.5", "--family", "stretched_exp", "--params", "0.5",
                   "--n", "8192"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert np.isfinite(payload["C_hat"]) and payload["C_hat"] > 0
        assert payload["details"]["beta"] == 3

    def test_power_beta_level_underflow_is_finite_without_numpy_warnings(self, capsys):
        # |f|^3 / int |f|^3 dmu of f = e^{15x} underflows to 0 at the left nodes,
        # where |f|^3 is still positive: read as log 0 there, it made entropy_F
        # -inf and C_hat 0
        argv = ["test", "--display", "power-beta", "--measure", "exp_power:1.5", "--alpha", "1.5",
                "--family", "exponential", "--params", "30", "--n", "4096"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["rows"][0]
        assert np.isfinite(row["entropy_F"]) and row["entropy_F"] > 0
        assert payload["C_hat"] == row["ratio"] > 0

    def test_bad_params_exit_two(self, capsys):
        assert main(["test", "--params", "abc"]) == 2
        assert "params" in capsys.readouterr().err

    def test_exp_power_display_names_the_alpha_range(self, capsys):
        # the display's own range, stated before the default measure exp_power(alpha) is built
        assert main(["test", "--display", "exp-power", "--measure", "gauss", "--alpha", "2.5"]) == 2
        assert capsys.readouterr().err == "error: alpha must lie in (1, 2]\n"

    def test_invalid_display_parameters_exit_two(self, capsys):
        rc = main(["test", "--display", "exp-power", "--alpha", "3", "--tau", "1", "--A", "1"])
        assert rc == 2


class TestCertifyCommand:
    def test_certified_run_exits_zero(self, tmp_path):
        out = tmp_path / "cert.json"
        rc = main(["certify", "--measure", "gauss", "--entropy", "log",
                   "--cost", "quadratic:0.5", "--K", "2", "--params", "0.25,0.5",
                   "--n", "8192", "--out", str(out)])
        assert rc == 0
        payload = json.loads(read_text(out))
        assert payload["certified"] is True
        assert payload["check"]["verdict"] == "FINITE"
        assert payload["test"]["C_hat"] > 0

    def test_inconclusive_check_exits_three_uncertified(self, monkeypatch, capsys):
        report = _inconclusive_report()
        monkeypatch.setattr(cli, "check_condition", lambda s, n_per_decade=256: report)
        assert main(["certify", "--measure", "gauss", "--n", "4096"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["certified"] is False and payload["check"]["verdict"] == "INCONCLUSIVE"

    def test_divergent_certification_exits_four(self, tmp_path):
        out = tmp_path / "cert.json"
        rc = main(["certify", "--measure", "exp", "--entropy", "log",
                   "--cost", "quadratic:1", "--K", "2", "--params", "0.25,0.5",
                   "--n", "8192", "--out", str(out)])
        assert rc == 4
        assert json.loads(read_text(out))["certified"] is False

    def test_expr_cost_is_sampled_once(self, tmp_path, monkeypatch):
        calls = []
        from_samples = CostFunction.from_samples

        def counted(cls, *args, **kwargs):
            calls.append(1)
            return from_samples(*args, **kwargs)

        monkeypatch.setattr(CostFunction, "from_samples", classmethod(counted))
        rc = main(["certify", "--measure", "gauss", "--cost", "expr:x^2/2+x^4/4",
                   "--params", "0.25,0.5", "--n", "8192", "--out", str(tmp_path / "cert.json")])
        assert rc == 4
        assert len(calls) == 1

    def test_an_expr_cost_and_its_slopes_are_built_once_per_expression(self, tmp_path, monkeypatch, capsys):
        import isocert.convex as convex

        built, sloped = [], []
        from_samples, convex_slopes = CostFunction.from_samples, convex._convex_slopes
        monkeypatch.setattr(CostFunction, "from_samples", classmethod(lambda cls, *a: built.append(1) or from_samples(*a)))
        monkeypatch.setattr(convex, "_convex_slopes", lambda *a: sloped.append(1) or convex_slopes(*a))

        def certify(cost, name):
            argv = ["certify", "--measure", "gauss", "--cost", cost, "--params", "0.25,0.5", "--n", "4096"]
            return main(argv + ["--out", str(tmp_path / name)])

        texts = []
        for i in range(2):
            assert certify("expr:x^2/2+x^4/4", f"same{i}.json") == 4
            texts.append((tmp_path / f"same{i}.json").read_bytes())
        assert texts[0] == texts[1]
        assert (len(built), len(sloped)) == (1, 1)  # the tester's conjugate tables read the kept slopes
        cost = cli._expr_cost.cache_info()
        assert (cost.hits, cost.misses, cost.maxsize) == (1, 1, 8)
        kept = cli._build_cost(RunConfig(cost="expr:x^2/2+x^4/4"))[0]
        assert not any(table.flags.writeable for table in (kept.grid, kept.values, kept.slopes))

        built.clear(), sloped.clear(), cli._expr_cost.cache_clear()
        assert certify("expr:x^2/2+x^4/4", "a.json") == 4 and certify("expr:x^2/2+x^3/3", "b.json") in (0, 3, 4)
        assert (len(built), len(sloped)) == (2, 2)

        for _ in range(2):  # concave samples: refused, and not kept, on every request
            capsys.readouterr()
            assert certify("expr:sqrt(x)", "bad.json") == 2
            assert capsys.readouterr().err == "error: cost values must be convex on the grid\n"
        assert cli._expr_cost.cache_info().currsize == 2


class TestPaperExamplesCommand:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["paper-examples", "--out", str(a)]) == 0
        assert main(["paper-examples", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(read_text(a))
        fixtures = payload["fixtures"]
        assert set(fixtures) == {"loglog_quadratic", "exp_power_tau_upper",
                                 "exp_power_tau_lower", "power_entropy"}
        assert fixtures["loglog_quadratic"]["verdict"] == "FINITE"
        for name in ("exp_power_tau_upper", "exp_power_tau_lower"):
            assert fixtures[name]["run_cost"]["verdict"] == "FINITE"
            assert fixtures[name]["run_quadratic"]["verdict"] == "FINITE"
        assert fixtures["exp_power_tau_upper"]["q_star"] == 1.5
        assert np.isfinite(fixtures["power_entropy"]["C_hat"])

    def test_each_distinct_condition_runs_once(self, tmp_path, monkeypatch):
        # loglog, the two cost runs, and one endpoint run shared by both taus
        passes = []
        report = checker.check_condition

        def counted(spec, n_per_decade):
            passes.append((spec.F.name, "quadratic" if spec.cost is None else "general"))
            return report(spec, n_per_decade)

        monkeypatch.setattr(checker, "check_condition", counted)
        monkeypatch.setattr(cli, "check_condition", counted)
        assert main(["paper-examples", "--n", "4096", "--n-per-decade", "16", "--out", str(tmp_path / "p.json")]) == 0
        assert sorted(passes) == sorted([
            ("log", "quadratic"),
            ("F_tau(log,1)", "general"),
            ("F_tau(log,0.666667)", "general"),
            ("F_tau(log,0.666667)", "quadratic"),
        ])

    def test_bytes_equal_the_five_separate_checks(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["paper-examples", "--n", "4096", "--n-per-decade", "16", "--out", str(out)]) == 0
        exp_power = builtin_measure("exp_power", alpha=1.5, n=4096)
        loglog = ConditionSpec(builtin_measure("loglog", n=4096), log_entropy(), delta=0.5, K=2.0)
        family = TestFamily(kind="stretched_exp", params=(0.25, 0.5, 1.0), exponent=0.7, smoothing=0.05)
        fixtures = {
            "loglog_quadratic": check_condition(loglog, n_per_decade=16),
            # each tau alone, so its endpoint condition runs again
            "exp_power_tau_upper": checker.check_exp_power(exp_power, 1.5, (1.0,), 16)[0],
            "exp_power_tau_lower": checker.check_exp_power(exp_power, 1.5, (2.0 / 3.0,), 16)[0],
            "power_entropy": verify_theorem_4_4(exp_power, 1.5, family),
        }
        assert out.read_bytes() == (_dump_json({"fixtures": fixtures}) + "\n").encode("utf-8")

    def test_n_per_decade_reaches_every_condition(self, tmp_path):
        reports = []
        for extra in ([], ["--n-per-decade", "16"]):
            out = tmp_path / f"p{len(reports)}.json"
            assert main(["paper-examples", "--n", "4096", *extra, "--out", str(out)]) == 0
            fixtures = json.loads(read_text(out))["fixtures"]
            reports.append([fixtures["loglog_quadratic"]] + [
                fixtures[key][run] for key in ("exp_power_tau_upper", "exp_power_tau_lower") for run in ("run_cost", "run_quadratic")
            ])
        for default, coarse in zip(*reports):
            assert [d["t_lo"] for d in default["decades"]] == [d["t_lo"] for d in coarse["decades"]]
            assert default["log10_integral_estimate"] != coarse["log10_integral_estimate"]

    def test_thread_env_is_not_read(self, tmp_path, monkeypatch):
        # like every other subcommand, paper-examples ignores ISOCERT_THREADS
        monkeypatch.setenv("ISOCERT_THREADS", "lots")
        assert main(["paper-examples", "--n", "4096", "--n-per-decade", "16", "--out", str(tmp_path / "p.json")]) == 0

    def test_runs_without_starting_a_thread(self, tmp_path, monkeypatch):
        def refuse(self):
            raise RuntimeError("paper-examples started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main(["paper-examples", "--n", "4096", "--n-per-decade", "16", "--out", str(tmp_path / "p.json")]) == 0


class TestMeasureCache:
    def test_every_test_starts_with_empty_caches(self, gauss):
        caches = module_caches()
        assert set(caches) >= {
            "cli._parser", "cli._expr_entropy", "cli._expr_cost",
            "checker._layout", "entropy.log_entropy", "entropy._F_tau_over_log",
        }
        assert len(cli._MEASURES) == 0
        assert all(cache.cache_info().currsize == 0 for cache in caches.values())
        assert len(gauss.kept) == 0
        verify_theorem_4_4(gauss, 2.0, TestFamily("exponential", (1.0,)))  # emptied again before the next test
        (eps_key, _), (member_key, _) = gauss.kept.items()
        assert eps_key == (_integrability_eps, 2.0) and member_key[-1] == 1.0

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []

        def counted(build):
            def wrapper(*args, **kwargs):
                builds.append((args, kwargs))
                return build(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "builtin_measure", counted(cli.builtin_measure))
        monkeypatch.setattr(cli, "build_measure", counted(cli.build_measure))
        return builds

    @staticmethod
    def _profile(tmp_path, *flags):
        return main(["profile", "--t-grid", "0.1:0.5:3", "--out", str(tmp_path / "p.csv"), *flags])

    @pytest.mark.parametrize("argv, measures", [
        (["check", "--measure", "exp_power:1.5"], 1),
        (["paper-examples"], 2),  # exp_power(1.5) and loglog
    ])
    def test_repeated_request_builds_once_and_writes_the_same_bytes(self, tmp_path, monkeypatch, argv, measures):
        builds = self._count_builds(monkeypatch)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = argv + ["--n", "4096", "--n-per-decade", "16"]
        assert main(argv + ["--out", str(a)]) == 0
        assert len(builds) == measures
        assert main(argv + ["--out", str(b)]) == 0
        assert len(builds) == measures
        assert a.read_bytes() == b.read_bytes()

    def test_each_setting_of_the_measure_is_part_of_the_key(self, tmp_path, monkeypatch):
        builds = self._count_builds(monkeypatch)
        requests = (
            ("--measure", "exp_power:1.5", "--n", "4096"),
            ("--measure", "exp_power:1.50", "--n", "4096"),  # the same alpha: same entry
            ("--measure", "exp_power:1.5", "--n", "2048"),
            ("--measure", "exp_power:1.5", "--n", "4096", "--support=-5:5"),
            ("--measure", "exp_power:1.6", "--n", "4096"),
            ("--measure", "expr:x^2/2", "--n", "4096"),
            ("--measure", "expr:x^2/3", "--n", "4096"),
            ("--measure", "expr:x^2/2", "--n", "4096"),
        )
        counts = []
        for flags in requests:
            assert self._profile(tmp_path, *flags) == 0
            counts.append(len(builds))
        assert counts == [1, 1, 2, 3, 4, 5, 6, 6]

    def test_exp_power_display_shares_the_measure_entry(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        argv = ["test", "--display", "exp-power", "--params", "0.5", "--n", "4096"]
        assert main(argv) == 0
        assert main(argv + ["--measure", "exp_power:1.5"]) == 0
        assert len(builds) == 1

    def test_refused_measure_is_refused_on_every_repeat(self, tmp_path, capsys):
        for _ in range(3):
            assert self._profile(tmp_path, "--measure", "expr:x") == 2
            assert "decays too slowly" in capsys.readouterr().err
        for _ in range(2):
            assert self._profile(tmp_path, "--measure", "expr:x^") == 2
            assert capsys.readouterr().err.startswith("error: ")
        assert len(cli._MEASURES) == 0

    def test_cache_holds_at_most_eight_measures(self, tmp_path, monkeypatch):
        builds = self._count_builds(monkeypatch)
        for n in range(64, 73):
            assert self._profile(tmp_path, "--n", str(n)) == 0
        assert len(builds) == 9
        assert len(cli._MEASURES) <= 8

    def test_one_off_measures_do_not_evict_repeating_ones(self, tmp_path, monkeypatch):
        builds = self._count_builds(monkeypatch)
        gauss = ("--measure", "gauss", "--n", "4096")
        assert self._profile(tmp_path, *gauss) == 0
        for k in range(2, 12):  # ten never-repeating potentials
            assert self._profile(tmp_path, "--measure", f"expr:x^2/{k}", "--n", "4096") == 0
        assert self._profile(tmp_path, *gauss) == 0
        assert [args for args, _ in builds].count(("gauss",)) == 1
        assert len(builds) == 11
        assert len(cli._MEASURES) <= 8

    def test_a_full_cache_keeps_a_measure_on_its_second_request(self, tmp_path, monkeypatch):
        builds = self._count_builds(monkeypatch)
        for n in range(64, 72):
            assert self._profile(tmp_path, "--n", str(n)) == 0
        for _ in range(3):
            assert self._profile(tmp_path, "--n", "72") == 0
        assert len(builds) == 10  # 8 kept as they come, then n = 72 twice: kept on its second build
        assert len(cli._MEASURES) == 8
        assert self._profile(tmp_path, "--n", "64") == 0  # the least recently used, evicted by n = 72
        assert len(builds) == 11

    def test_threads_sharing_the_cache_keep_its_bounds(self):
        # a cache over a cheap build, so that threads mostly evict and admit
        cache = Kept(cli._MEASURES.bound, second_request=True)
        bad = []

        def work(k):
            try:
                for i in range(3000):  # every third call repeats the thread's own key, the rest cycle over 41
                    key = ("expr", (k * 3000 + i) % 41 if i % 3 else k, None, 64)
                    if cache.get(key, lambda: key) != key:
                        bad.append(key)
            except Exception as exc:  # a lost eviction raises here
                bad.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert bad == []
        assert len(cache) == 8 and len(cache._asked_once) <= 32

    def test_expr_entropy_is_built_and_checked_once(self, tmp_path, monkeypatch):
        samples = []
        sample = entropy._sample_assumptions
        monkeypatch.setattr(entropy, "_sample_assumptions", lambda F, n: samples.append(F.name) or sample(F, n))
        argv = ["check", "--entropy", "expr:2*(x^0.5-1)", "--n", "4096", "--n-per-decade", "16"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert samples == ["expr:2*(x^0.5-1)"]
        assert main(["check", "--entropy", "expr:2*(x^0.5 - 1)", "--n", "4096", "--n-per-decade", "16", "--out", str(a)]) == 0
        assert samples == ["expr:2*(x^0.5-1)", "expr:2*(x^0.5 - 1)"]  # another text is another key, named by its text
        assert cli._expr_entropy.cache_info().currsize == 2

    def test_expr_inputs_are_named_by_their_text(self, capsys):
        main(["check", "--measure", "expr:x^2/2+0.1*x^4", "--entropy", "expr:2*(x^0.5 - 1)", "--n", "4096", "--n-per-decade", "16"])
        out = capsys.readouterr().out
        assert '"measure":"expr:x^2/2+0.1*x^4"' in out and '"entropy":"expr:2*(x^0.5 - 1)"' in out

    def test_refused_entropy_is_refused_on_every_repeat(self, capsys):
        for _ in range(2):
            assert main(["check", "--entropy", "expr:x^", "--n", "4096"]) == 2
            assert capsys.readouterr().err.startswith("error: ")
        for _ in range(2):
            assert main(["check", "--entropy", "expr:x^2", "--n", "4096"]) == 2
            assert "(A1-A2)" in capsys.readouterr().err
        assert cli._expr_entropy.cache_info().currsize == 1  # the parsed x^2, refused by its kept report

    def test_cached_tables_are_read_only(self):
        # one measure serves every request with its key, so no caller may write to it
        mu = cli._measure("gauss", None, None, 256)
        with pytest.raises(ValueError):
            mu.density[0] = 0
        for table in (mu.grid, mu.potential_values, mu.cdf, mu.tail, mu.node_mass):
            with pytest.raises(ValueError):
                table[0] = 0.0


def _declared(command, cfg=None):
    """The settings that command takes as flags or, given a resolved cfg,
    those its run reads (its subcommand, mode and family kind)."""
    if cfg is None:
        return {f.name for f in fields(RunConfig) if command in cli._subcommands(f.metadata["commands"])}
    readers = set(cli._run_readers(command, cfg))
    return {f.name for f in fields(RunConfig) if not readers.isdisjoint(f.metadata["commands"])}


class _ReadRecorder:
    """Forwards attribute reads to a RunConfig and records their names."""

    def __init__(self, cfg):
        self.cfg, self.read = cfg, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.cfg, name)


# representative requests: every subcommand, every --display, --profile-kind and --family kind
_REQUESTS = [
    ["conjugate", "--cost", "c:1:3", "--grid", "0:1:5"],
    ["conjugate", "--cost", "expr:x^2/2"],
    ["profile", "--measure", "exp_power:1.5", "--n", "4096", "--t-grid", "0.1:0.5:3"],
    ["profile", "--profile-kind", "if", "--measure", "gauss", "--support=-9:9", "--n", "4096", "--grid", "0:4:5"],
    ["check", "--measure", "exp_power:1.5", "--n", "4096", "--cost", "c:1:3", "--delta", "0.5", "--t-min", "1e-10",
     "--n-per-decade", "16"],
    ["test", "--measure", "gauss", "--n", "4096", "--cost", "quadratic:0.5", "--family", "random_smooth",
     "--params", "0,1", "--seed", "1", "--scale", "0.4"],
    ["test", "--display", "exp-power", "--alpha", "2", "--tau", "1", "--A", "1", "--params", "0.5", "--n", "4096"],
    ["test", "--display", "exp-power", "--measure", "exp_power:2", "--alpha", "2", "--params", "0.5", "--n", "4096"],
    ["test", "--display", "power-beta", "--measure", "exp_power:1.5", "--alpha", "1.5", "--family", "stretched_exp",
     "--params", "0.5", "--exponent", "0.7", "--smoothing", "0.05", "--n", "4096"],
    ["test", "--display", "power-beta", "--measure", "exp_power:1.5", "--family", "bump", "--params", "1",
     "--floor", "1e-5", "--n", "4096"],
    ["certify", "--measure", "exp_power:2", "--n", "4096", "--cost", "quadratic:0.5", "--params", "0.5"],
    ["certify", "--measure", "exp_power:2", "--n", "4096", "--family", "random_smooth", "--params", "0,1", "--seed", "2",
     "--scale", "0.3", "--n-per-decade", "16"],
    ["certify", "--measure", "exp_power:2", "--n", "4096", "--family", "stretched_exp", "--params", "0.5",
     "--exponent", "1.2", "--smoothing", "0.1", "--n-per-decade", "16"],
    ["certify", "--measure", "exp_power:2", "--n", "4096", "--family", "shifted_linear", "--params", "0.1",
     "--floor", "1e-3", "--n-per-decade", "16"],
    ["paper-examples", "--n", "4096", "--n-per-decade", "16"],
]


# well-formed flags that the run's display, profile kind or family kind does not read, and the refusal
_UNREAD = [
    (["test", "--display", "restricted", "--tau", "-3"], "--tau is not read by test --display restricted"),
    (["test", "--family", "exponential", "--seed", "5"], "--seed is not read by --family exponential"),
    (["test", "--display", "exp-power", "--K", "7"], "--K is not read by test --display exp-power"),
    (["test", "--display", "exp-power", "--cost", "c:1:3", "--entropy", "ftau:0.5"],
     "--entropy is not read by test --display exp-power"),
    (["test", "--display", "power-beta", "--A", "9", "--tau", "0.1"], "--tau is not read by test --display power-beta"),
    (["test", "--family", "bump", "--scale", "3", "--exponent", "9"], "--scale is not read by --family bump"),
    (["test", "--display", "restricted", "--alpha", "1.9", "--A", "3"], "--alpha is not read by test --display restricted"),
    (["certify", "--smoothing", "2", "--floor", "0.3"], "--floor is not read by --family exponential"),
    (["profile", "--profile-kind", "tilde", "--entropy", "ftau:0.5", "--grid", "0:1:3"],
     "--entropy is not read by profile --profile-kind tilde"),
    (["profile", "--profile-kind", "if", "--t-grid", "0.1:0.5:3"], "--t-grid is not read by profile --profile-kind if"),
]


class TestPerSubcommandFlags:
    @pytest.mark.parametrize("argv", [
        ["conjugate", "--measure", "gauss", "--family", "bump", "--grid", "0:1:3"],
        ["paper-examples", "--cost", "c:1:3"],
        ["check", "--grid", "0:1:3"],
        ["check", "--form", "quadratic"],
        ["certify", "--profile-choice", "tilde"],
        ["profile", "--grid-kind", "uniform"],
        ["check", "--profile-choice", "tilde"],
        ["check", "--grid-kind", "uniform"],
        ["certify", "--form", "general"],
        ["certify", "--grid-kind", "uniform"],
        ["test", "--grid-kind", "uniform"],
        ["check", "--measure", "gauss", "--alpha", "1.7"],
        ["certify", "--alpha", "2"],
        ["profile", "--measure", "exp_power:1.5", "--alpha", "1.5"],
    ])
    def test_unread_flag_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in cli._COMMANDS)

    def test_config_may_hold_keys_the_subcommand_does_not_read(self, tmp_path, capsys):
        cfg_file = tmp_path / "problem.cfg"
        cfg_file.write_text("measure = exp\nfamily = bump\ndisplay = power-beta\ncost = c:1:3\n")
        assert main(["conjugate", "--config", str(cfg_file), "--grid", "0:1:3"]) == 0
        assert capsys.readouterr().out.startswith("x,c_star\n")

    def test_config_may_hold_a_setting_the_mode_does_not_read(self, tmp_path, capsys):
        # neither is read by display 2.1 with the exponential family, so neither is checked
        cfg_file = tmp_path / "problem.cfg"
        cfg_file.write_text("tau = 0.5\nfloor = -1\n")
        assert main(["test", "--config", str(cfg_file), "--display", "restricted", "--params", "0.5", *_N]) == 0
        assert json.loads(capsys.readouterr().out)["family"] == "exponential"

    @pytest.mark.parametrize("argv, message", _UNREAD, ids=[" ".join(argv) for argv, _ in _UNREAD])
    def test_flag_its_mode_does_not_read_exits_two(self, argv, message, capsys):
        assert main(argv + _N) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_refused_flag_builds_no_measure(self, tmp_path, monkeypatch, capsys):
        # the mode comes from the config file; the flag is checked against it before any work
        cfg_file = tmp_path / "problem.cfg"
        cfg_file.write_text("display = exp-power\n")
        calls = []
        monkeypatch.setattr(cli, "_measure", lambda *key: calls.append(key))
        assert main(["test", "--config", str(cfg_file), "--cost", "c:1:3", *_N]) == 2
        assert capsys.readouterr().err == "error: --cost is not read by test --display exp-power\n"
        assert calls == []

    def test_config_file_is_closed(self, tmp_path):
        # -X dev shows an unclosed file as a ResourceWarning on stderr
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("cost = c:1:3\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-X", "dev", "-m", "isocert.cli", "conjugate", "--config", str(cfg_file),
                               "--grid", "0:1:3"], capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("x,c_star\n")

    def test_config_value_outside_the_choices_is_refused(self, tmp_path, capsys):
        cfg_file = tmp_path / "problem.cfg"
        cfg_file.write_text("display = pentagonal\n")
        assert main(["test", "--config", str(cfg_file)]) == 2
        assert "display must be one of" in capsys.readouterr().err

    def test_fields_read_are_the_declared_flags(self, tmp_path):
        read, readers = {name: set() for name in cli._COMMANDS}, set()
        for argv in _REQUESTS:
            command = argv[0]
            ns = cli._parser(command).parse_args(argv + ["--out", str(tmp_path / "out")])
            cfg = RunConfig.from_sources(None, ns)
            recorder = _ReadRecorder(cfg)
            assert cli.run(recorder, command) in (0, 3, 4)
            assert recorder.read == _declared(command, cfg), argv
            read[command] |= recorder.read
            readers.update(cli._run_readers(command, cfg))
        assert read == {name: _declared(name) for name in cli._COMMANDS}
        # the requests run every reader the settings name, and every family kind
        named = {r for f in fields(RunConfig) for r in f.metadata["commands"]}
        assert named | {f"--family {kind}" for kind in cli._MEMBERS} <= readers

    @pytest.mark.parametrize("argv", _REQUESTS, ids=" ".join)
    def test_each_request_reads_every_flag_of_its_subcommand(self, argv, tmp_path):
        # every setting that the request's subcommand, mode and family kind read, and no other
        ns = cli._parser(argv[0]).parse_args(argv + ["--out", str(tmp_path / "out")])
        cfg = RunConfig.from_sources(None, ns)
        recorder = _ReadRecorder(cfg)
        assert cli.run(recorder, argv[0]) in (0, 3, 4)
        assert recorder.read == _declared(argv[0], cfg)

    def test_check_request_builds_only_its_own_flags(self, monkeypatch):
        calls = []
        add_argument = argparse._ActionsContainer.add_argument

        def counted(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
        assert main(["check", "--measure", "banana"]) == 2
        # -h on the top parser and on each subparser, --config, and check's settings
        assert len(calls) <= 1 + len(cli._COMMANDS) + 1 + len(_declared("check"))

    def test_parser_is_built_once_per_subcommand(self, tmp_path, capsys):
        for _ in range(2):
            assert main(["conjugate", "--grid", "0:1:3", "--out", str(tmp_path / "c.csv")]) == 0
            for word in ("frobnicate", "banana"):  # any other first word shares the None entry
                with pytest.raises(SystemExit):
                    main([word])
        info = cli._parser.cache_info()
        assert (info.misses, info.currsize) == (2, 2)

    @pytest.mark.parametrize("argv, flag, value", [
        (["profile", "--t-grid", "0.1:0.5:3", "--n", "4096"], "--support", "-5:5"),
        (["profile", "--t-grid", "0.1:0.5:3", "--n", "4096"], "--support", "-.5:.5"),
        (["test", "--n", "4096"], "--params", "-0.5,0.5"),
        (["conjugate"], "--grid", "-0:1:5"),
        (["profile", "--t-grid", "0.1:0.5:3", "--n", "4096"], "--support", "-inf:0"),
        (["profile", "--t-grid", "0.1:0.5:3", "--n", "4096"], "--support", "-INF:0"),
    ])
    def test_a_value_starting_with_a_dash_may_be_a_separate_word(self, tmp_path, argv, flag, value):
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        assert main(argv + [flag, value, "--out", str(spaced)]) == 0
        assert main(argv + [f"{flag}={value}", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()



class TestReadmeCommands:
    README = Path(__file__).resolve().parent.parent / "README.md"

    def test_every_documented_command_line_parses(self):
        section = self.README.read_text(encoding="utf-8").split("## Command line", 1)[1]
        block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
        lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("isocert ")]
        assert {argv[0] for argv in lines} == set(cli._COMMANDS)
        for argv in lines:
            ns = cli._parser(argv[0]).parse_args(argv)
            assert ns.command == argv[0]

    def test_flag_table_matches_the_settings(self):
        text = self.README.read_text(encoding="utf-8")
        rows = dict(re.findall(r"^\| `([a-z-]+)` \| (`--.*`) \|$", text, re.M))
        want = {name: ["--" + f.replace("_", "-") for f in _declared(name)] for name in cli._COMMANDS}
        assert {name: sorted(re.findall(r"--[\w-]+", flags)) for name, flags in rows.items()} == \
            {name: sorted(flags) for name, flags in want.items()}

    def test_mode_table_matches_the_settings(self):
        text = self.README.read_text(encoding="utf-8")
        rows = dict(re.findall(r"^\| `((?:test|profile) --[a-z-]+ [a-z-]+|--family [a-z_]+)` \| (.*) \|$", text, re.M))
        choices = {f.name: f.metadata["choices"] for f in fields(RunConfig)}
        modes = [f"test --display {d}" for d in choices["display"]] + \
            [f"profile --profile-kind {k}" for k in choices["profile_kind"]] + [f"--family {k}" for k in choices["family"]]
        want = {m: sorted("--" + f.name.replace("_", "-") for f in fields(RunConfig) if m in f.metadata["commands"])
                for m in modes}
        assert {m: sorted(re.findall(r"--[\w-]+", flags)) for m, flags in rows.items()} == want


_N = ["--n", "4096"]
# invalid command lines, each with a fragment of the message it must be refused with
_REFUSALS = [
    (["check", "--measure", "banana"], "unknown measure 'banana'"),
    (["check", "--entropy", "banana"], "unknown entropy 'banana'"),
    (["check", "--cost", "banana"], "unknown cost 'banana'"),
    (["check", "--cost", "quadraticXYZ"], "unknown cost 'quadraticXYZ'"),
    (["check", "--measure", "exp_powerX"], "unknown measure 'exp_powerX'"),
    (["certify", "--cost", "quadraticXYZ"], "unknown cost 'quadraticXYZ'"),
    (["conjugate", "--cost", "quadratic2"], "unknown cost 'quadratic2'"),
    (["profile", "--measure", "exp_power2"], "unknown measure 'exp_power2'"),
    (["check", "--measure", "expr:abs(x"], "expected ')'"),
    (["check", "--measure", "expr:x^2/2+y"], "unknown identifier 'y'"),
    (["check", "--entropy", "ftau:abc"], "could not convert string to float"),
    (["check", "--cost", "quadratic:"], "bad cost 'quadratic:'"),
    (["check", "--measure", "exp_power:"], "bad measure 'exp_power:'"),
    (["check", "--entropy", "ftau:"], "bad entropy 'ftau:'"),
    (["check", "--cost", "c:1"], "cost must look like c:A:alpha"),
    (["check", "--cost", "c:1:x"], "could not convert string to float"),
    (["check", "--cost", "quadratic:0"], "quadratic delta must be positive"),
    (["test", "--cost", "quadratic:-1"], "quadratic delta must be positive"),
    (["check", "--measure", "exp_power:abc"], "could not convert string to float"),
    (["check", "--measure", "exp_power:2.5"], "exp_power requires alpha in [1, 2]"),
    (["profile", "--measure", "exp_power:0.5"], "exp_power requires alpha in [1, 2]"),
    (["profile", "--measure", "exp_power"], "unknown measure 'exp_power'"),  # alpha is named in the spec only
    (["profile", "--entropy", "nonsense!", "--t-grid", "0.1:0.5:2", *_N], "--entropy is not read by profile --profile-kind tilde"),
    (["profile", "--entropy", "ftau:2", "--t-grid", "0.1:0.5:2", *_N], "--entropy is not read by profile --profile-kind tilde"),
    (["profile", "--profile-kind", "if", "--entropy", "ftau:2", *_N], "tau must lie in (0, 1]"),
    (["check", "--cost", "c:-1:3"], "A must be positive"),
    (["check", "--cost", "c:1:1"], "alpha must exceed 1"),
    (["certify", "--cost", "c:1:1"], "alpha must exceed 1"),
    (["check", "--cost", "expr:-x"], "cost values must be nonnegative"),
    (["check", "--cost", "expr:abs(x)^0.5"], "convex"),
    (["test", "--cost", "expr:abs(x)^0.5", *_N], "convex"),
    (["check", "--cost", "expr:x", *_N], "superlinear"),
    (["check", "--entropy", "ftau:0"], "tau must lie in (0, 1]"),
    (["check", "--entropy", "ftau:1.5"], "tau must lie in (0, 1]"),
    (["check", "--entropy", "expr:x^2", *_N], "(A1-A2)"),
    (["profile", "--profile-kind", "if", "--measure", "gauss", "--entropy", "expr:log(x)+5e-10", "--grid", "0:4:5"],
     "entropy profile must satisfy F(1) = 0"),
    (["check", "--measure", "exp", "--entropy", "expr:log(x)", "--cost", "c:1:3", *_N], "log-form"),
    (["check", "--measure", "expr:log(x)", *_N], "log of a nonpositive value"),
    (["check", "--K", "1", *_N], "K must exceed 1"),
    (["test", "--K", "1", *_N], "K must exceed 1"),
    # overflows of a Python-float power, refused by name instead of an OverflowError traceback
    (["test", "--display", "restricted", "--K", "1e200", *_N], "K = 1e+200 makes the step-1 constant"),
    (["test", "--family", "stretched_exp", "--params", "1", "--smoothing", "1e300", *_N],
     "family member stretched_exp(1) overflows on the measure grid"),
    (["test", "--cost", "c:1e-300:1.0000001", *_N], "cost c_{1e-300,1e+07} has A^(2-alpha) = inf"),
    (["conjugate", "--cost", "c:1e-300:1.0000001", "--grid", "0:1:3"], "cost c_{1e-300,1e+07} has A^(2-alpha) = inf"),
    (["check", "--delta", "0", *_N], "delta must be positive"),
    (["check", "--measure", "gauss", "--cost", "quadratic:0.25", "--delta", "0.5", *_N],
     "delta 0.5 conflicts with the delta 0.25 of the cost 'quadratic:0.25'"),
    (["check", "--t-min", "0.9", *_N], "t_min must lie in"),
    (["check", "--n", "10"], "grid size too small"),
    (["check", "--support", "1:1"], "empty support interval"),
    (["check", "--support", "a:b"], "bad support"),
    (["check", "--support", "1"], "support must look like lo:hi"),
    (["check", "--n-per-decade", "3", *_N], "n_per_decade"),
    (["profile", "--measure", "expr:42*abs(x)/(1+abs(x))"], "not integrable"),
    (["conjugate", "--grid=-1:1:5"], "--grid must be nonnegative"),
    (["conjugate", "--cost", "expr:x^2/2", "--grid=-1:1:5"], "--grid must be nonnegative"),
    (["conjugate", "--grid", "-1:1:5"], "--grid must be nonnegative"),  # the spaced form names the flag too
    (["conjugate", "--grid", "0:1"], "grid must look like lo:hi:n"),
    (["conjugate", "--grid", "1:0:5"], "hi > lo"),
    (["conjugate", "--grid", "0:1:1"], "n >= 2"),
    (["conjugate", "--grid", "0:inf:5"], "--grid needs finite lo and hi, got '0:inf:5'"),
    (["profile", "--t-grid", "0.1:1e400:3", *_N], "--t-grid needs finite lo and hi, got '0.1:1e400:3'"),
    (["profile", "--t-grid", "0.1:0.9:5", *_N], "t_grid must lie in (0, 1/2]"),
    (["profile", "--t-grid=-0.1:0.5:5", *_N], "t_grid must lie in (0, 1/2]"),
    (["profile", "--t-grid", "0:0.5:5", *_N], "t_grid must lie in (0, 1/2]"),
    (["profile", "--profile-kind", "if", "--grid=-1:1:5", *_N], "radius must be nonnegative"),
    (["profile", "--profile-kind", "if", "--entropy", "expr:x^2", *_N], "F(1) = 0"),
    (["test", "--params", "abc"], "bad family params"),
    (["test", "--params", ","], "family has no members"),
    (["test", "--family", "bump", "--params", "0", *_N], "bump width must be positive"),
    (["test", "--floor", "-1"], "--floor is not read by --family exponential"),
    (["test", "--family", "bump", "--floor", "-1", *_N], "floor must be nonnegative"),
    (["test", "--measure", "expr:abs(x)^0.5", "--params", "0.5", *_N], "not in L^2"),
    (["test", "--display", "exp-power", "--alpha", "3", *_N], "alpha must lie in (1, 2]"),
    (["test", "--display", "exp-power", "--alpha", "1", *_N], "alpha must lie in (1, 2]"),
    (["test", "--display", "exp-power", "--measure", "exp_power:1.5", "--alpha", "2.5", *_N], "alpha must lie in (1, 2]"),
    (["test", "--display", "exp-power", "--alpha", "1.5", "--tau", "0.5", *_N], "tau must lie in [0.666667, 1]"),
    (["test", "--display", "exp-power", "--alpha", "1.5", "--tau", "1.2", *_N], "tau must lie in [0.666667, 1]"),
    (["test", "--display", "exp-power", "--A", "0", *_N], "A must be positive"),
    (["test", "--display", "power-beta", "--measure", "exp_power:1.5", "--alpha", "1", *_N], "alpha must exceed 1"),
    (["test", "--display", "power-beta", "--measure", "expr:x^4-4*x^2", *_N], "not log-concave"),
    (["test", "--display", "power-beta", "--measure", "exp", "--alpha", "1.5", *_N], "dmu finite on the grid and past its cuts"),
    # a family setting outside what its kind reads
    (["test", "--family", "random_smooth", "--params", "0.7", *_N], "random_smooth label 0.7 is not a non-negative integer"),
    (["test", "--family", "random_smooth", "--params", "-1", *_N], "random_smooth label -1.0 is not a non-negative integer"),
    (["test", "--family", "random_smooth", "--seed", "-3", *_N], "seed must be nonnegative, got -3"),
    (["test", "--family", "stretched_exp", "--params", "nan", *_N], "stretched_exp label nan is not finite"),
    (["test", "--family", "exponential", "--params", "inf", *_N], "exponential label inf is not finite"),
    (["test", "--family", "stretched_exp", "--smoothing", "0", *_N], "smoothing must be positive and finite, got 0.0"),
    (["test", "--floor", "nan", *_N], "floor must be finite, got nan"),
    (["test", "--scale", "inf", *_N], "scale must be finite, got inf"),
    (["test", "--exponent=-inf", *_N], "exponent must be finite, got -inf"),
    (["test", "--exponent", "-inf", *_N], "exponent must be finite, got -inf"),  # refused by value, not by argparse
    # a non-finite number in a float setting or inside a spec
    (["check", "--delta", "inf", *_N], "delta must be finite, got inf"),
    (["test", "--K", "inf", *_N], "K must be finite, got inf"),
    (["certify", "--t-min", "nan", *_N], "t_min must be finite, got nan"),
    (["check", "--cost", "quadratic:inf", *_N], "bad cost 'quadratic:inf': inf is not a finite number"),
    (["test", "--cost", "c:inf:3", *_N], "bad cost 'c:inf:3': inf is not a finite number"),
    (["check", "--cost", "c:1:inf", *_N], "bad cost 'c:1:inf': inf is not a finite number"),
    (["check", "--measure", "exp_power:nan", *_N], "bad measure 'exp_power:nan': nan is not a finite number"),
    (["check", "--entropy", "ftau:-inf", *_N], "bad entropy 'ftau:-inf': -inf is not a finite number"),
    # a spec or range is parsed where the mode reads it; a mode refuses a flag it does not read
    (["test", "--display", "power-beta", "--entropy", "garbage!", *_N], "--entropy is not read by test --display power-beta"),
    (["test", "--display", "exp-power", "--cost", "zzz", *_N], "--cost is not read by test --display exp-power"),
    (["profile", "--profile-kind", "tilde", "--grid", "garbage", *_N], "--grid is not read by profile --profile-kind tilde"),
    (["profile", "--profile-kind", "if", "--t-grid", "garbage", "--grid", "0:1:3", *_N],
     "--t-grid is not read by profile --profile-kind if"),
    (["profile", "--profile-kind", "if", "--entropy", "nonsense!", *_N], "unknown entropy 'nonsense!'"),
    (["profile", "--profile-kind", "tilde", "--t-grid", "garbage", *_N], "t_grid must look like lo:hi:n"),
    (["profile", "--profile-kind", "if", "--grid", "garbage", *_N], "grid must look like lo:hi:n"),
    (["test", "--display", "restricted", "--entropy", "garbage!", *_N], "unknown entropy 'garbage!'"),
]


# expressions too deep to parse, evaluate or hash by recursion, and the byte where each is refused
_DEEP = {
    "parentheses": ("(" * 200 + "x" + ")" * 200, 100),
    "sum": ("+".join(["x"] * 500), 203),
    "minus": ("-" * 500 + "x", 100),
}


class TestRefusals:
    @pytest.mark.parametrize("argv, fragment", _REFUSALS, ids=[" ".join(argv) for argv, _ in _REFUSALS])
    def test_invalid_command_line_exits_two_with_a_message(self, argv, fragment, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and fragment in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--measure", "--entropy", "--cost"])
    @pytest.mark.parametrize("shape", sorted(_DEEP))
    def test_deep_expression_exits_two(self, flag, shape, capsys):
        text, pos = _DEEP[shape]
        assert main(["check", flag, "expr:" + text, *_N]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: expression nested deeper than 100 levels (at byte {pos})\n"
        assert captured.out == ""

    @pytest.mark.parametrize("name, command", [
        (f.name, command) for f in fields(RunConfig) if f.metadata["choices"] for command in f.metadata["commands"]
    ])
    def test_run_refuses_a_setting_outside_its_choices(self, name, command):
        cfg = RunConfig()
        setattr(cfg, name, "pentagonal")
        with pytest.raises(ConfigError, match=f"^{name} must be one of"):
            cli.run(cfg, command)

    def test_bounded_potential_exits_two(self, capsys):
        assert main(["profile", "--measure", "expr:42*abs(x)/(1+abs(x))"]) == 2
        assert "not integrable" in capsys.readouterr().err

    def test_member_outside_L2_exits_two_without_numpy_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["test", "--measure", "expr:abs(x)^0.5", "--params", "0.5"]) == 2
        captured = capsys.readouterr()
        assert "exponential(0.5) is not in L^2" in captured.err and captured.out == ""

    def test_a_bump_whose_width_squared_overflows_is_the_constant_member(self, capsys):
        # w^2 = inf, so the member is floor + 1 with a zero derivative: no evidence, C_hat 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["test", "--family", "bump", "--params", "1e300", *_N]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        (row,) = report["rows"]
        assert captured.err == "" and report["C_hat"] == 0 and row["name"] == "bump(1e+300)"
        assert row["grad_energy"] == 0 and row["ratio"] is None

    def test_member_past_the_largest_double_exits_two_without_numpy_warnings(self, capsys):
        # f = e^{20x} and f' are in L^2 on this grid, but |f'|^3 (beta = 3)
        # reaches e^727.6 at the last node, past the largest double
        argv = ["test", "--display", "power-beta", "--measure", "exp_power:1.5", "--alpha", "1.5",
                "--family", "exponential", "--params", "40", "--n", "4096"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert "exponential(40) is not in L^3(mu) on the grid" in captured.err and captured.out == ""


class TestEntryPoints:
    def test_console_script_on_path(self, tmp_path):
        exe = shutil.which("isocert")
        assert exe is not None
        out = tmp_path / "dual.csv"
        proc = subprocess.run([exe, "conjugate", "--grid", "0:1:5", "--out", str(out)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert read_text(out).startswith("x,c_star\n")

    def test_run_rejects_unknown_command(self):
        with pytest.raises(ConfigError):
            cli.run(RunConfig(), "frobnicate")
