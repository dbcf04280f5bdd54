"""Command-line interface: outputs, determinism, config echo, exit codes."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from stable_stein import cli
from stable_stein.cli import main
from stable_stein.errors import ConvergenceError

CLI = [sys.executable, "-m", "stable_stein.cli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def parse_csv_block(text):
    rows = [line.split(",") for line in text.strip().splitlines() if line]
    return rows


class TestConstantsCommand:
    def test_table1_values(self):
        r = run_cli("constants", "--table", "1")
        assert r.returncode == 0
        rows = parse_csv_block(r.stdout)
        alphas = [float(v) for v in rows[0][1:]]
        vals = [float(v) for v in rows[1][1:]]
        assert alphas == [1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
        assert abs(vals[4] - 5.51) <= 0.01

    def test_table2_single_cell(self):
        r = run_cli("constants", "--table", "2", "--alpha-grid", "1.5",
                    "--gamma-grid", "0.5")
        rows = parse_csv_block(r.stdout)
        assert abs(float(rows[1][1]) - 18.12) <= 0.02

    def test_both_blocks(self):
        r = run_cli("constants")
        blocks = r.stdout.strip().split("\n\n")
        assert len(blocks) == 2
        t2 = parse_csv_block(blocks[1])
        assert len(t2) == 10 and len(t2[1]) == 10

    def test_empty_grid_usage_error(self):
        r = run_cli("constants", "--alpha-grid", "")
        assert r.returncode == 2


class TestTable3Command:
    def test_anchor_cells(self):
        r = run_cli("table3", "--n", "1000000")
        rows = parse_csv_block(r.stdout)
        grid = {(float(row[0]), j): float(v)
                for row in rows[1:] for j, v in enumerate(row[1:])}
        assert abs(grid[(0.1, 0)] - 9.906) <= 0.005
        assert abs(grid[(0.2, 1)] - 2.213) <= 0.005

    def test_layout(self):
        r = run_cli("table3")
        rows = parse_csv_block(r.stdout)
        assert rows[0][0] == "gamma"
        assert len(rows) == 10 and all(len(row) == 10 for row in rows)


class TestFigure1Command:
    def test_grid_shape(self):
        r = run_cli("figure1", "--n", "1000")
        rows = parse_csv_block(r.stdout)
        assert rows[0] == ["alpha", "gamma_star_case1", "gamma_star_case2",
                           "gamma_star_case3", "gamma_star_case4"]
        assert len(rows) == 100  # header + 99 alphas
        assert float(rows[1][0]) == 1.01 and float(rows[-1][0]) == 1.99


class TestBoundCommand:
    def test_json_report(self):
        r = run_cli("bound", "--spec", "pareto", "--alpha", "1.5",
                    "--gamma", "0.9", "--n", "1000000")
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["N"] == "inf"
        assert set(obj["terms"]) == {"discrepancy", "truncation", "N_term", "gamma_term"}
        # total for the plain power law at gamma = 0.9, n = 1e6
        from highprec import hp_pareto_bound_total

        assert obj["total"] == pytest.approx(float(hp_pareto_bound_total(1.5, 0.9, 10 ** 6)))

    def test_numeric_failure_exit_code(self):
        # beta < 2 with N = inf is a domain failure -> exit 1 + JSON error
        r = run_cli("bound", "--spec", "modified-pareto", "--alpha", "1.5",
                    "--beta", "1.8", "--N", "inf")
        assert r.returncode == 1
        obj = json.loads(r.stdout)
        assert obj["error"] == "DomainError"

    def test_invalid_flag_usage_error(self):
        r = run_cli("bound", "--nonsense", "1")
        assert r.returncode == 2


class TestSimulateCommand:
    def test_deterministic_bytes(self):
        args = ("simulate", "--spec", "pareto", "--alpha", "1.5", "--n", "500",
                "--m", "1000", "--seed", "42")
        r1, r2 = run_cli(*args), run_cli(*args)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout

    def test_header_and_seed_column(self):
        r = run_cli("simulate", "--spec", "pareto", "--n", "200", "--m", "300",
                    "--seed", "9")
        rows = parse_csv_block(r.stdout)
        assert rows[0] == ["n", "m", "estimator", "w1", "std_error",
                           "bias_floor", "bound_total", "seed"]
        assert rows[1][-1] == "9"

    def test_stdout_machine_clean(self):
        r = run_cli("simulate", "--spec", "pareto", "--n", "200", "--m", "300")
        for line in r.stdout.splitlines():
            assert not line.startswith("CONFIG")
        assert "CONFIG" in r.stderr

    @pytest.mark.parametrize("spec", [("--spec", "pareto"),
                                      ("--spec", "modified-pareto", "--beta", "4")])
    def test_row_equals_rate_fit_row(self, spec, capsys):
        # one row writer serves both commands: simulate at n is rate-fit's row for n
        common = list(spec) + ["--m", "300", "--seed", "5", "--estimator", "one_sample_quantile"]
        assert main(["rate-fit", "--n-grid", "100,200,400,800", "--format", "csv"] + common) == 0
        fit_rows = capsys.readouterr().out.splitlines()
        for k, row in zip((100, 200, 400, 800), fit_rows[1:]):
            assert main(["simulate", "--n", str(k)] + common) == 0
            assert capsys.readouterr().out.splitlines() == [fit_rows[0], row]


class TestConfigEcho:
    def test_round_trip_bytes(self, tmp_path):
        args = ("simulate", "--spec", "pareto", "--alpha", "1.5", "--n", "400",
                "--m", "500", "--seed", "11")
        r1 = run_cli(*args)
        cfg_line = [l for l in r1.stderr.splitlines() if l.startswith("CONFIG ")][0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(cfg_line[len("CONFIG "):])
        r2 = run_cli("--config", str(cfg))
        assert r2.returncode == 0
        assert r2.stdout == r1.stdout

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "density", "alpha": 1.0,
                                   "xmax": 2.0, "step": 1.0}))
        r = run_cli("density", "--config", str(cfg), "--xmax", "1.0")
        rows = parse_csv_block(r.stdout)
        assert [row[0] for row in rows[1:]] == ["-1", "0", "1"]


class TestDensityCommand:
    def test_cauchy_values(self):
        r = run_cli("density", "--alpha", "1", "--xmax", "5", "--step", "1")
        rows = parse_csv_block(r.stdout)
        assert rows[0] == ["x", "p", "cdf"]
        for row in rows[1:]:
            x, p = float(row[0]), float(row[1])
            assert p == pytest.approx(1.0 / (math.pi * (1.0 + x * x)), rel=1e-9)

    def test_far_grid_is_cheap_and_exact(self):
        # rows beyond |x| = 2000 come from the tail series, not from a
        # quadrature whose panel count grows with |x|
        r = run_cli("density", "--alpha", "1", "--xmax", "1e6", "--step", "1e5")
        assert r.returncode == 0, r.stderr
        rows = parse_csv_block(r.stdout)
        assert len(rows) == 22
        for row in rows[1:]:
            x, p = float(row[0]), float(row[1])
            assert p == pytest.approx(1.0 / (math.pi * (1.0 + x * x)), rel=1e-9)

    def test_origin_prints_without_sign(self):
        r = run_cli("density", "--xmax", "0", "--step", "1")
        assert r.returncode == 0
        assert parse_csv_block(r.stdout)[1][0] == "0"

    def test_csv_round_trip_idempotent(self):
        r = run_cli("density", "--alpha", "1.5", "--xmax", "2", "--step", "0.5")
        rows = parse_csv_block(r.stdout)
        rewritten = "\n".join(
            ",".join(f"{float(v):.10g}" if i_r > 0 else v for v in row)
            for i_r, row in enumerate(rows)
        ) + "\n"
        assert rewritten == r.stdout


class TestOtherCommands:
    def test_rate_order_json(self):
        r = run_cli("rate-order", "--spec", "hall", "--alpha", "1.5",
                    "--A", "0.6", "--c", "0.2")
        obj = json.loads(r.stdout)
        assert obj["exponent"] == pytest.approx(-0.1 / 0.7)
        assert obj["classified"] is True

    def test_an_solver(self):
        r = run_cli("an-solver", "--K0", "2", "--x0", "3", "--alpha", "1.5",
                    "--beta", "0", "--n", "1000000")
        obj = json.loads(r.stdout)
        assert obj["A_n"] == pytest.approx((2.0 * 10 ** 6) ** (1 / 1.5))
        assert obj["residual"] <= 1e-10

    @pytest.mark.parametrize("flag,value", [
        ("--K0", "nan"), ("--K0", "inf"), ("--x0", "nan"), ("--x0", "inf"),
        ("--beta", "nan"), ("--beta", "inf"),
    ])
    def test_an_solver_non_finite_input_is_numeric_failure(self, flag, value, capsys):
        flags = {"--K0": "2", "--x0": "3", "--beta": "1", flag: value}
        rc = main(["an-solver"] + [tok for pair in flags.items() for tok in pair])
        assert rc == 1

        def reject(name):
            raise AssertionError(f"non-strict JSON constant {name}")

        obj = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert obj["error"] == "DomainError" and "finite" in obj["message"]

    def test_out_file(self, tmp_path):
        out = tmp_path / "t1.csv"
        r = run_cli("constants", "--table", "1", "--out", str(out))
        assert r.returncode == 0 and r.stdout == ""
        assert out.read_text().startswith("alpha,")

    def test_rate_fit_json_smoke(self):
        r = run_cli("rate-fit", "--spec", "pareto", "--alpha", "1.5",
                    "--n-grid", "100,200,400,800", "--m", "300", "--seed", "1")
        obj = json.loads(r.stdout)
        assert "slope" in obj and len(obj["points"]) == 4
        assert obj["target_exponent"] == pytest.approx(-1.0 / 3.0)


class TestUsageErrors:
    """Usage errors exit 2 with a JSON error object on stdout."""

    def assert_usage_error(self, r, flag):
        assert r.returncode == 2
        obj = json.loads(r.stdout)
        assert obj["error"] == "UsageError" and flag in obj["message"]
        assert "Traceback" not in r.stderr

    def test_config_without_path(self):
        self.assert_usage_error(run_cli("simulate", "--config"), "--config")
        self.assert_usage_error(run_cli("--config"), "--config")

    def test_config_unreadable(self, tmp_path):
        self.assert_usage_error(run_cli("--config", str(tmp_path / "missing.json")),
                                "--config")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        self.assert_usage_error(run_cli("--config", str(bad)), "--config")

    @pytest.mark.parametrize("flag,value", [
        ("--n", "1.5"), ("--m", "300.5"), ("--n", "inf"), ("--n", "ten"),
    ])
    def test_non_integral_counts(self, flag, value):
        args = {"--n": "200", "--m": "300"}
        args[flag] = value
        r = run_cli("simulate", "--n", args["--n"], "--m", args["--m"])
        self.assert_usage_error(r, flag)

    def test_non_integral_grid_point(self):
        r = run_cli("rate-fit", "--n-grid", "100,200.5,400,800", "--m", "300")
        self.assert_usage_error(r, "--n-grid")

    def test_integral_spellings_accepted(self):
        a = run_cli("simulate", "--n", "2e2", "--m", "300", "--seed", "4")
        b = run_cli("simulate", "--n", "200", "--m", "300.0", "--seed", "4")
        assert a.returncode == 0 and a.stdout == b.stdout
        assert a.stdout.splitlines()[1].startswith("200,300,")

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "1.5"])
    def test_seed_out_of_range(self, seed):
        r = run_cli("simulate", "--n", "200", "--m", "300", "--seed", seed)
        self.assert_usage_error(r, "--seed")

    def test_unknown_flag(self):
        self.assert_usage_error(run_cli("bound", "--nonsense", "1"), "--nonsense")

    @pytest.mark.parametrize("argv,unread", [
        (("bound", "--spec", "pareto", "--beta", "3", "--K0", "7", "--c", "0.1"),
         ("--beta", "--K0", "--c")),
        (("rate-order", "--spec", "hall", "--A", "0.6", "--c", "0.2", "--x0", "9",
          "--beta", "5"), ("--x0", "--beta")),
        (("bound", "--spec", "log-pareto", "--x0", "5", "--A", "0.3"), ("--A",)),
        (("simulate", "--spec", "modified-pareto", "--beta", "4", "--c", "1"), ("--c",)),
    ])
    def test_spec_flag_the_spec_does_not_read(self, argv, unread):
        r = run_cli(*argv)
        for flag in unread:
            self.assert_usage_error(r, flag)
        assert "CONFIG {" not in r.stderr

    @pytest.mark.parametrize("argv,missing", [
        (("bound", "--spec", "modified-pareto", "--alpha", "1.5", "--n", "1000"), ("--beta",)),
        (("bound", "--spec", "hall", "--A", "0.6", "--n", "1000"), ("--c",)),
        (("rate-order", "--spec", "hall", "--c", "0.2"), ("--A", "--B")),
        (("bound", "--spec", "log-pareto", "--beta", "1", "--n", "1000"), ("--K0", "--x0")),
    ])
    def test_spec_flag_the_spec_needs(self, argv, missing):
        r = run_cli(*argv)
        for flag in missing:
            self.assert_usage_error(r, flag)
        assert "CONFIG {" not in r.stderr

    @pytest.mark.parametrize("argv,missing", [
        (("an-solver", "--K0", "2"), "--x0"),
        (("an-solver", "--x0", "3", "--beta", "1"), "--K0"),
    ])
    def test_an_solver_flag_it_needs(self, argv, missing):
        r = run_cli(*argv)
        self.assert_usage_error(r, missing)
        assert "CONFIG {" not in r.stderr

    @pytest.mark.parametrize("argv", [
        ("--spec", "pareto"),
        ("--spec", "modified-pareto", "--beta", "4", "--A", "0.75", "--B", "2"),
        ("--spec", "hall", "--A", "0.6", "--B", "0.4", "--c", "0.2"),
        ("--spec", "log-pareto", "--beta", "1", "--x0", "5",
         "--K0", repr(5.0 ** 1.5 / math.log(5.0))),
    ])
    def test_every_flag_a_spec_reads_is_accepted(self, argv, capsys):
        assert main(["rate-order", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["classified"] is True

    @pytest.mark.parametrize("flag,value", [
        ("--step", "0"), ("--step", "-0.1"), ("--step", "nan"), ("--step", "inf"),
        ("--xmax", "-1"), ("--xmax", "inf"),
    ])
    def test_density_grid_out_of_range(self, flag, value):
        r = run_cli("density", flag, value)
        self.assert_usage_error(r, flag)
        assert "CONFIG {" not in r.stderr

    @pytest.mark.parametrize("xmax,step", [
        ("1e9", "1e-9"), ("1e4", "1e-4"), ("5e5", "1"), ("1e308", "1e-300"),
    ])
    def test_density_grid_too_many_rows(self, xmax, step):
        # rejected before the grid is allocated
        r = run_cli("density", "--xmax", xmax, "--step", step)
        self.assert_usage_error(r, "more than 1000000 rows")
        assert "CONFIG {" not in r.stderr

    @pytest.mark.parametrize("value", ["abc", "1.5", "2 threads"])
    def test_bad_thread_cap(self, value):
        r = subprocess.run(CLI + ["simulate", "--n", "10", "--m", "200"],
                           capture_output=True, text=True,
                           env=dict(os.environ, STABLE_STEIN_THREADS=value))
        self.assert_usage_error(r, "STABLE_STEIN_THREADS")
        # rejected before any work starts: no config echo, no simulation
        assert "CONFIG" not in r.stderr and "simulating" not in r.stderr

    @pytest.fixture(scope="class")
    def simulate_baseline(self):
        # the run every thread cap below must reproduce, made once
        return run_cli("simulate", "--n", "10", "--m", "200", "--seed", "3")

    @pytest.mark.parametrize("value", ["0", " 2 ", "-3", ""])
    def test_integral_thread_caps_accepted(self, value, simulate_baseline):
        r = subprocess.run(CLI + ["simulate", "--n", "10", "--m", "200", "--seed", "3"],
                           capture_output=True, text=True,
                           env=dict(os.environ, STABLE_STEIN_THREADS=value))
        assert r.returncode == 0 and r.stdout == simulate_baseline.stdout


class TestOutPath:
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_is_usage_error(self, tmp_path, where):
        out = tmp_path / "no" / "such" / "x.csv" if where == "missing_dir" else tmp_path
        r = run_cli("constants", "--out", str(out))
        assert r.returncode == 2
        obj = json.loads(r.stdout)
        assert obj["error"] == "UsageError" and "--out" in obj["message"]
        assert "Traceback" not in r.stderr
        # rejected before any work: no config echo, nothing created
        assert "CONFIG {" not in r.stderr
        assert not (tmp_path / "no").exists()


class TestFormat:
    """Each subcommand accepts only the --format it emits; no subcommand
    takes --precision."""

    @pytest.mark.parametrize("argv", [
        ("density", "--format", "json"),
        ("constants", "--format", "json"),
        ("figure1", "--format", "json"),
        ("simulate", "--format", "json"),
        ("bound", "--format", "csv"),
        ("rate-order", "--format", "csv"),
        ("an-solver", "--format", "csv", "--K0", "2", "--x0", "3"),
        ("bound", "--precision", "extended"),
        ("density", "--precision", "extended"),
        ("rate-fit", "--precision", "extended"),
        ("constants", "--precision", "extended"),
        ("table3", "--precision", "double"),
        ("figure1", "--precision", "double"),
        ("simulate", "--precision", "double"),
        ("rate-order", "--precision", "double"),
        ("an-solver", "--precision", "double", "--K0", "2", "--x0", "3"),
    ])
    def test_ignored_value_is_usage_error(self, argv):
        r = run_cli(*argv)
        assert r.returncode == 2
        obj = json.loads(r.stdout)
        assert obj["error"] == "UsageError" and argv[1] in obj["message"]
        assert "CONFIG {" not in r.stderr

    def test_honoured_values_accepted(self, capsys):
        assert main(["density", "--format", "csv", "--xmax", "1", "--step", "1"]) == 0
        assert capsys.readouterr().out.startswith("x,p,cdf\n")
        assert main(["bound", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["N"] == "inf"
        fit = ["rate-fit", "--n-grid", "100,200,400,800", "--m", "300", "--seed", "1"]
        assert main(fit + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("n,m,estimator,")
        assert main(fit + ["--format", "json"]) == 0
        assert "slope" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("argv", [
        ("constants", "--alpha-grid", "1.5", "--gamma-grid", "0.5"),
        ("table3", "--n", "1000", "--alpha-grid", "1.5", "--gamma-grid", "0.5"),
        ("figure1", "--n", "1000"),
        ("bound", "--n", "1000"),
        ("rate-order",),
        ("simulate", "--n", "50", "--m", "200"),
        ("rate-fit", "--n-grid", "100,200,400,800", "--m", "300", "--seed", "1"),
        ("density", "--xmax", "1", "--step", "1"),
        ("an-solver", "--K0", "2", "--x0", "3", "--beta", "1"),
    ])
    def test_config_echo_replays_every_command(self, argv, tmp_path, capsys):
        assert main(list(argv)) == 0
        first = capsys.readouterr()
        cfg_line = [l for l in first.err.splitlines() if l.startswith("CONFIG ")][0]
        cfg = json.loads(cfg_line[len("CONFIG "):])
        assert "precision" not in cfg and cfg["format"] is None
        path = tmp_path / "cfg.json"
        path.write_text(cfg_line[len("CONFIG "):])
        assert main(["--config", str(path)]) == 0
        assert capsys.readouterr().out == first.out


class TestConvergenceErrorReport:
    def test_details_in_strict_json(self, monkeypatch, capsys):
        def failing(args):
            raise ConvergenceError("stalled", partial=math.inf, achieved_tol=math.nan,
                                   trace=[1.5, -math.inf, 2.0])

        monkeypatch.setitem(cli._DISPATCH, "rate-order", failing)
        assert main(["rate-order"]) == 1

        def reject(name):
            raise AssertionError(f"non-strict JSON constant {name}")

        obj = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert obj == {"error": "ConvergenceError", "message": "stalled",
                       "partial": "inf", "achieved_tol": "nan",
                       "trace": [1.5, "-inf", 2.0]}

    def test_missing_details_are_null(self, monkeypatch, capsys):
        def failing(args):
            raise ConvergenceError("no estimate")

        monkeypatch.setitem(cli._DISPATCH, "rate-order", failing)
        assert main(["rate-order"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["partial"] is None and obj["achieved_tol"] is None
        assert obj["trace"] == []


class TestNoRawTraceback:
    """Non-finite law parameters, and arithmetic that overflows or divides by
    zero, end in one strict-JSON error object, never in a traceback."""

    # (argv, exit code): 1 for a numeric failure, 2 for a usage error
    ARGVS = [
        (["bound", "--spec", "modified-pareto", "--beta", "4", "--A", "nan", "--B", "1"], 1),
        (["bound", "--spec", "hall", "--c", "5", "--A", "1e-300", "--B", "nan", "--n", "1"], 1),
        (["bound", "--spec", "modified-pareto", "--beta", "inf"], 1),
        (["bound", "--spec", "log-pareto", "--alpha", "1.99", "--K0", "-1", "--beta", "5",
          "--n", "1000", "--N", "1.99"], 1),
        (["rate-order", "--spec", "log-pareto", "--K0", "1e300", "--x0", "nan", "--beta",
          "1e6"], 1),
        (["density", "--alpha", "1e-300", "--xmax", "0", "--step", "1"], 1),
        (["rate-order", "--spec", "modified-pareto", "--alpha", "1e6", "--beta", "0",
          "--B", "4"], 1),
        (["bound", "--spec", "modified-pareto", "--beta", "3", "--A", "1e-300", "--N",
          "1.01"], 1),
        (["an-solver", "--alpha", "1.5", "--K0", "1e300", "--x0", "1.99", "--n", "1000",
          "--beta", "4"], 1),
        (["bound", "--spec", "nosuch"], 2),
        (["bound", "--n", "abc"], 2),
        (["density", "--alpha", "1.5", "--xmax", "5", "--step", "0"], 2),
        (["simulate", "--seed", "-1"], 2),
        # table arguments outside the constants' domain
        (["table3", "--alpha-grid", "2.5,1.5", "--gamma-grid", "0.5"], 1),
        (["table3", "--alpha-grid", "1.0"], 1),
        (["table3", "--gamma-grid", "1.5"], 1),
        (["constants", "--alpha-grid", "2.5"], 1),
        # a CONFIG echo saved by an older version, which still names
        # --precision
        (["--config", "config_with_precision.json"], 2),
    ]

    @pytest.mark.parametrize("argv, expected", [
        pytest.param(argv, code, id=" ".join(argv)) for argv, code in ARGVS])
    def test_json_error_object(self, argv, expected, capsys, monkeypatch):
        monkeypatch.chdir(Path(__file__).parent)    # where the --config file is
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == expected

        def reject(name):
            raise AssertionError(f"non-strict JSON constant {name}")

        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert "error" in json.loads(lines[0], parse_constant=reject)

    def test_memory_error_is_json_error(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError("cannot allocate the replicate block")

        monkeypatch.setitem(cli._DISPATCH, "rate-order", exhausted)
        assert main(["rate-order"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line) for line in lines] == [
            {"error": "MemoryError", "message": "cannot allocate the replicate block"}]


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports the package from src."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=600)


class TestScipyFreeStartup:
    """No command loads scipy: the package runs on its own ports."""

    # the commands that integrate, root-find, minimize or interpolate nothing
    LIGHT_COMMANDS = [
        ["constants"],
        ["table3", "--n", "1000000"],
        ["bound", "--spec", "pareto", "--alpha", "1.5", "--gamma", "0.5", "--n", "1000000"],
        ["bound", "--spec", "modified-pareto", "--beta", "4", "--alpha", "1.5",
         "--gamma", "0.5", "--n", "1000000"],
        ["rate-order", "--spec", "hall", "--A", "0.6", "--c", "0.2", "--alpha", "1.5"],
        ["an-solver", "--K0", "2", "--x0", "3", "--alpha", "1.5", "--beta", "1",
         "--n", "1000000"],
        ["density", "--alpha", "1.5", "--xmax", "5", "--step", "0.1"],
    ]

    def test_import_and_light_commands_load_no_scipy(self):
        r = run_fresh(f"""
            import contextlib, io, json, sys

            def scipy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            import stable_stein
            report = {{"import stable_stein": [0, scipy_modules()]}}
            import stable_stein.cli
            report["import stable_stein.cli"] = [0, scipy_modules()]
            for argv in {self.LIGHT_COMMANDS!r}:
                with contextlib.redirect_stdout(io.StringIO()), \\
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = stable_stein.cli.main(argv)
                report[" ".join(argv)] = [rc, scipy_modules()]
            print(json.dumps(report))
        """)
        assert r.returncode == 0, r.stderr
        report = json.loads(r.stdout)
        assert len(report) == 2 + len(self.LIGHT_COMMANDS)
        assert report == {step: [0, []] for step in report}

    # the Monte-Carlo commands: a quantile table and, for the csv rows, a
    # bounded minimization over gamma; each alpha builds a fresh table
    MONTE_CARLO_COMMANDS = [
        ["simulate", "--spec", "pareto", "--alpha", "1.3", "--n", "1000", "--m", "2000",
         "--seed", "1"],
        ["rate-fit", "--spec", "pareto", "--alpha", "1.7", "--n-grid", "100,200,400,800",
         "--m", "300", "--estimator", "one_sample_quantile", "--format", "csv"],
    ]

    def test_quantile_table_and_monte_carlo_commands_load_no_scipy(self):
        r = run_fresh(f"""
            import contextlib, io, json, sys

            def scipy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            import stable_stein
            stable_stein.quantile_table(1.5)
            report = {{"quantile_table(1.5)": [0, scipy_modules()]}}
            import stable_stein.cli
            for argv in {self.MONTE_CARLO_COMMANDS!r}:
                with contextlib.redirect_stdout(io.StringIO()), \\
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = stable_stein.cli.main(argv)
                report[" ".join(argv)] = [rc, scipy_modules()]
            print(json.dumps(report))
        """)
        assert r.returncode == 0, r.stderr
        report = json.loads(r.stdout)
        assert len(report) == 1 + len(self.MONTE_CARLO_COMMANDS)
        assert report == {step: [0, []] for step in report}

    # the commands that integrate or root-find: bounds at a finite truncation
    # level, the optimal-gamma figure and a Hall rate fit
    QUADRATURE_COMMANDS = [
        ["bound", "--spec", "hall", "--A", "0.6", "--c", "0.2", "--alpha", "1.5",
         "--gamma", "0.5", "--n", "1000000"],
        ["bound", "--spec", "log-pareto", "--beta", "1", "--x0", "5", "--alpha", "1.5",
         "--gamma", "0.5", "--n", "1000000"],
        ["bound", "--spec", "modified-pareto", "--beta", "1.8", "--alpha", "1.5",
         "--gamma", "0.5", "--n", "1000000"],
        ["bound", "--spec", "pareto", "--alpha", "1.5", "--gamma", "0.5", "--n", "1000000",
         "--N", "1000"],
        ["figure1", "--n", "1000"],
        ["rate-fit", "--spec", "hall", "--A", "0.6", "--c", "0.2", "--alpha", "1.5",
         "--n-grid", "100,200,400,800", "--m", "300", "--format", "csv"],
    ]

    def test_every_command_loads_no_scipy(self):
        commands = self.LIGHT_COMMANDS + self.MONTE_CARLO_COMMANDS + self.QUADRATURE_COMMANDS
        r = run_fresh(f"""
            import contextlib, io, json, sys

            def scipy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            import stable_stein
            import stable_stein.cli
            report = {{}}
            for argv in {commands!r}:
                with contextlib.redirect_stdout(io.StringIO()), \\
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = stable_stein.cli.main(argv)
                report[" ".join(argv)] = [rc, scipy_modules()]
            law = stable_stein.StableLaw(1.5)
            stable_stein.quantile(law, 0.3), stable_stein.quantile(law, 0.999)
            report["quantile"] = [0, scipy_modules()]
            print(json.dumps(report))
        """)
        assert r.returncode == 0, r.stderr
        report = json.loads(r.stdout)
        assert {argv.split()[0] for argv in report} == {
            "constants", "table3", "figure1", "bound", "rate-order", "simulate",
            "rate-fit", "density", "an-solver", "quantile"}
        assert len(report) == len(commands) + 1
        assert report == {step: [0, []] for step in report}


class TestNumpyOnFirstUse:
    """The commands that need no array start and run without loading numpy."""

    SCALAR_COMMANDS = [
        ["constants"],
        ["table3", "--n", "1000000"],
        ["bound", "--spec", "pareto", "--alpha", "1.5", "--gamma", "0.5", "--n", "1000000"],
        ["bound", "--spec", "modified-pareto", "--beta", "4", "--alpha", "1.5",
         "--gamma", "0.5", "--n", "1000000"],
        ["bound", "--spec", "hall", "--A", "0.6", "--c", "0.2", "--alpha", "1.5",
         "--gamma", "0.5", "--n", "1000000"],
        ["rate-order", "--spec", "hall", "--A", "0.6", "--c", "0.2", "--alpha", "1.5"],
        ["an-solver", "--K0", "2", "--x0", "3", "--alpha", "1.5", "--beta", "1",
         "--n", "1000000"],
        ["figure1", "--n", "1000000"],
    ]
    # the log-perturbed tail keeps np.log, the density grid is an array and
    # simulate draws arrays: these load numpy on their first call
    ARRAY_COMMANDS = [
        ["density", "--alpha", "1.5", "--xmax", "5", "--step", "0.1"],
        ["simulate", "--spec", "pareto", "--alpha", "1.5", "--n", "1000", "--m", "2000",
         "--seed", "1"],
        ["bound", "--spec", "log-pareto", "--beta", "1", "--x0", "5", "--alpha", "1.5",
         "--gamma", "0.5", "--n", "1000000"],
    ]

    def test_scalar_commands_load_no_numpy(self):
        r = run_fresh(f"""
            import contextlib, io, json, sys

            def numpy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "numpy")

            import stable_stein
            report = {{"import stable_stein": [0, numpy_modules()]}}
            import stable_stein.cli
            report["import stable_stein.cli"] = [0, numpy_modules()]
            for argv in {self.SCALAR_COMMANDS!r}:
                with contextlib.redirect_stdout(io.StringIO()), \\
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = stable_stein.cli.main(argv)
                report[" ".join(argv)] = [rc, numpy_modules()]
            threads = "concurrent.futures" in sys.modules
            arrays = []
            for argv in {self.ARRAY_COMMANDS!r}:
                with contextlib.redirect_stdout(io.StringIO()), \\
                        contextlib.redirect_stderr(io.StringIO()):
                    arrays.append(stable_stein.cli.main(argv))
            print(json.dumps({{"report": report, "threads": threads, "arrays": arrays,
                              "numpy": "numpy" in sys.modules}}))
        """)
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout)
        report = out["report"]
        assert len(report) == 2 + len(self.SCALAR_COMMANDS)
        assert report == {step: [0, []] for step in report}
        # figure1 included: no scalar command imports a thread pool
        assert out["threads"] is False
        assert out["arrays"] == [0] * len(self.ARRAY_COMMANDS) and out["numpy"] is True

    def test_start_loads_neither_dataclasses_nor_inspect(self):
        # the records are plain ``Record`` classes: dataclasses would load
        # inspect (with ast, dis and tokenize) and exec methods per class
        r = run_fresh("""
            import json, sys
            report = {}
            for step in ("stable_stein", "stable_stein.cli"):
                __import__(step)
                report[step] = sorted({"dataclasses", "inspect"} & set(sys.modules))
            print(json.dumps(report))
        """)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout) == {"stable_stein": [], "stable_stein.cli": []}

    def test_log_pareto_bound_loads_no_polynomial_module(self):
        # its discrepancy quadrature writes out its 3-point Gauss rule
        # instead of calling gl_rule, which loads numpy.polynomial
        argv = self.ARRAY_COMMANDS[-1]
        r = run_fresh(f"""
            import contextlib, io, json, sys
            import stable_stein.cli
            with contextlib.redirect_stdout(io.StringIO()):
                rc = stable_stein.cli.main({argv!r})
            print(json.dumps([rc, sorted(m for m in sys.modules
                                         if m.startswith("numpy.polynomial"))]))
        """)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout) == [0, []]


class TestInProcessMain:
    def test_main_returns_zero(self, capsys):
        rc = main(["constants", "--table", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("alpha,")

    def test_thread_cap_parsing(self, monkeypatch, capsys):
        from stable_stein.sampling import resolve_threads

        for value, want in (("0", 1), (" 3 ", 3), ("-2", 1), ("", 1)):
            monkeypatch.setenv("STABLE_STEIN_THREADS", value)
            assert resolve_threads() == want
        monkeypatch.setenv("STABLE_STEIN_THREADS", "many")
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--table", "1"])
        assert exc.value.code == 2
        obj = json.loads(capsys.readouterr().out)
        assert obj["error"] == "UsageError"
        assert "STABLE_STEIN_THREADS" in obj["message"] and "'many'" in obj["message"]
