import argparse
import csv
import gc
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_algebra import perturb_band
from qsu2 import algebra, cli, dirac, gns_oracle, peterweyl, spectral
from qsu2.gns_oracle import oracle_haar
from qsu2.algebra import GeneratorTable, NCPolynomial, ValidationError, haar_state
from qsu2.peterweyl import Truncation
from qsu2.qarith import HalfInteger, QArithError, _cg_doubled
from qsu2.spectral import haar_via_heat
from qsu2.cli import (EXPERIMENTS, RunConfig, build_config, main, parse_t_grid,
                      read_config_file)


@pytest.fixture(autouse=True)
def no_kept_table():
    """Each test starts and ends with no generator table kept by cli.generator_table."""
    cli.generator_table.cache_clear()
    yield
    cli.generator_table.cache_clear()


class TestParsing:
    def test_t_grid_linear(self):
        assert parse_t_grid("1:3:3") == pytest.approx([1.0, 2.0, 3.0])

    def test_t_grid_log(self):
        g = parse_t_grid("0.1:10:3", log_spaced=True)
        assert g == pytest.approx([0.1, 1.0, 10.0])

    def test_t_grid_single(self):
        assert parse_t_grid("2:9:1") == [2.0]

    def test_t_grid_errors(self):
        for bad in ("1:2", "a:b:c", "0:1:3", "1:2:0"):
            with pytest.raises(QArithError):
                parse_t_grid(bad)

    def test_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nq = 1.5\nlmax = 10\nformat = json\n")
        assert read_config_file(str(p)) == {"q": "1.5", "lmax": "10", "format": "json"}

    def test_config_file_bad_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("q 1.5\n")
        with pytest.raises(QArithError):
            read_config_file(str(p))


def subcommand_parser():
    """Reference: the parser of one subcommand per experiment, each declaring every option."""
    parser = argparse.ArgumentParser(prog="qsu2")
    parser.add_argument("--version", action="version", version=cli.__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(EXPERIMENTS) + ["all"]:
        p = sub.add_parser(name)
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--lmax", type=int, default=None)
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--t-grid", dest="t_grid", type=str, default=None)
        p.add_argument("--t-log", dest="t_log", action="store_true", default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--precision-bits", dest="precision_bits", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", type=str, choices=("csv", "json"), default=None)
        p.add_argument("--config", type=str, default=None)
    return parser


class TestArgv:
    """One parser, with the command as a positional: the namespaces of the subcommand tree."""

    # the forms of the README's command-line section and of the tests' main() calls
    FORMS = [
        ["validate", "--q", "1.2", "--lmax", "24"],
        ["haar", "--lmax", "32", "--t-grid", "0.5:2:4", "--out", "haar.csv"],
        ["commutators", "--lmax", "40", "--seed", "1234", "--out", "comm.csv"],
        ["heat", "--t-grid", "0.05:0.5:12", "--t-log", "--lmax", "62", "--out", "heat.csv"],
        ["modular", "--lmax", "16", "--format", "json", "--out", "modular.json"],
        ["all", "--lmax", "24", "--out", "run.csv"],
        ["heat", "--q", "1.0"], ["haar", "--q", "nan"], ["haar", "--tol", "nan"],
        ["heat", "--t", "1e9", "--lmax", "24", "--out", "heat.csv"],
        ["heat", "--q", "5", "--lmax", "2000", "--t", "0.005"],
        ["commutators", "--q", "1e-10", "--lmax", "62"],
        ["all", "--lmax", "16", "--seed", "1234", "--out", "all.csv"],
        ["modular", "--lmax", "8", "--out", "m.json", "--format", "json"],
        ["heat", "--lmax", "400", "--t-grid", "0.01:0.5:24", "--t-log",
         "--precision-bits", "113"],
        ["validate", "--lmax", "24", "--q", "0.7", "--out", "v.csv"],
        ["heat", "--precision-bits", "52"], ["haar", "--lmax", "16"],
    ]

    @pytest.mark.parametrize("argv", FORMS, ids=" ".join)
    def test_same_namespace_and_config_as_the_subcommand_tree(self, argv):
        new, old = cli.parse_args(argv), subcommand_parser().parse_args(argv)
        assert repr(sorted(vars(new).items())) == repr(sorted(vars(old).items()))  # nan too
        try:
            assert build_config(new) == build_config(old)
        except QArithError:
            with pytest.raises(QArithError):
                build_config(old)

    def test_config_file_form(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("q = 1.5\nlmax = 10\nt_grid = 0.5:2:4\nt_log = true\n")
        argv = ["heat", "--config", str(path), "--q", "2"]
        new, old = cli.parse_args(argv), subcommand_parser().parse_args(argv)
        assert build_config(new) == build_config(old) == RunConfig(
            q=2.0, lmax_doubled=10, t_grid=parse_t_grid("0.5:2:4", True))

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["heat", "--bogus", "1"], ["heat", "--q", "abc"], ["heat", "extra"],
        ["heat", "--format", "xml"], ["haar", "--lmax", "1.5"], ["haar", "validate"],
    ])
    def test_bad_command_or_option_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.q == 1.2 and cfg.lmax_doubled == 24
        assert cfg.trunc.lmax.doubled == 24
        prov = cfg.provenance()
        assert prov["seed"] == 1234 and "version" in prov

    @pytest.mark.parametrize("kwargs", [
        {"q": 1.0}, {"q": -2.0}, {"lmax_doubled": -1},
        {"t_grid": [0.0]}, {"tolerance": 0.0}, {"format": "xml"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(QArithError):
            RunConfig(**kwargs)


class TestPrecedence:
    class _Args:
        config = None
        q = None
        lmax = None
        tol = None
        seed = None
        precision_bits = None
        out = None
        format = None
        t = None
        t_grid = None
        t_log = None

    def test_flag_overrides_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("q = 1.5\nlmax = 10\n")
        args = self._Args()
        args.config = str(p)
        args.q = 2.0
        cfg = build_config(args)
        assert cfg.q == 2.0
        assert cfg.lmax_doubled == 10

    def test_t_single_value(self):
        args = self._Args()
        args.t = 0.7
        assert build_config(args).t_grid == [0.7]

    def test_no_flags_give_the_dataclass_defaults(self, monkeypatch):
        # no environment variable is read: QSU2_PRECISION_BITS overrode every flag
        monkeypatch.setenv("QSU2_PRECISION_BITS", "96")
        assert build_config(self._Args()) == RunConfig()


class TestExperiments:
    def test_registry(self):
        assert set(EXPERIMENTS) == {"validate", "haar", "commutators", "heat", "modular"}

    def test_every_experiment_passes_at_small_scale(self):
        cfg = RunConfig(lmax_doubled=16)
        for name, fn in EXPERIMENTS.items():
            rows, cols = fn(cfg)
            assert rows, name
            assert all(len(r) == len(cols) for r in rows), name
            assert all(r[-1] == "PASS" for r in rows), name


class TestMain:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    def test_config_error_exit_code(self):
        assert main(["heat", "--q", "1.0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["haar", "--q", "nan"], ["haar", "--q", "inf"], ["heat", "--t", "nan"],
        ["haar", "--tol", "nan"], ["validate", "--q", "nan"],
    ])
    def test_non_finite_values_are_configuration_errors(self, argv, capsys):
        # each exited 1: "tail bound at q = nan exceeds float64", 24 FAIL rows
        # at tol nan, "cannot convert float NaN to integer" in validate
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("config, argv", [
        ("q = abc\n", []), ("lmax = abc\n", []), ("precision_bits = 40\n", []),
        ("", ["--precision-bits", "0"]), ("", ["--precision-bits", "-3"]),
        ("", ["--precision-bits", "52"]), ("bogus = 1\n", []),
    ])
    def test_bad_values_are_configuration_errors(self, config, argv, tmp_path, capsys):
        # a config value that does not cast ended in a ValueError traceback (exit 1);
        # a precision below float64's ran in float64 and wrote the value into every row
        path = tmp_path / "run.cfg"
        path.write_text(config)
        assert main(["heat", "--config", str(path)] + argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        if config.startswith("bogus"):
            assert "configuration error: unknown config key 'bogus'" in err

    @pytest.mark.parametrize("q", ["1.000001", "0.999999"])
    @pytest.mark.parametrize("command", ["haar", "commutators", "modular"])
    def test_passes_next_to_q_one(self, command, q, capsys):
        # the fitted scalars lost 1.6e-10 in the battery at 1 + 1e-6; the closed forms do not
        assert main([command, "--q", q, "--lmax", "24"]) == 0

    @pytest.mark.parametrize("lmax", ["6", "8"])
    def test_commutators_without_shells_report_the_empty_list(self, lmax, capsys):
        # the shells 4 .. min(20, lmax - 1) are empty below lmax_doubled 10
        assert main(["commutators", "--lmax", lmax]) == 1
        assert "commutators: ERROR no shells given" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["heat", "--q", "5", "--lmax", "24", "--t", "0.001"],
         "heat: ERROR heat trace tail bound at q = 5, t = 0.001 exceeds float64"),
        (["heat", "--q", "5", "--lmax", "2000", "--t", "0.005"],
         "heat: ERROR heat trace at q = 5, t = 0.005 exceeds float64"),
        (["validate", "--q", "1e10", "--lmax", "24"],
         "validate: ERROR q-number [31] at base 1e+10 exceeds float64"),
        (["haar", "--q", "1e10", "--lmax", "62"],
         "haar: ERROR q-number [31] at base 1e+10 exceeds float64"),
        (["commutators", "--q", "1e-10", "--lmax", "62"],
         "commutators: ERROR q-number [31] at base 1e-10 exceeds float64"),
        (["modular", "--q", "1e15", "--lmax", "24"],
         "modular: ERROR q-number [21] at base 1e+15 exceeds float64"),
        (["haar", "--lmax", "1"], "haar: ERROR need lmax >= 1 for the relation battery's"),
    ])
    def test_legal_inputs_fail_with_a_typed_message(self, argv, message, capsys):
        # was a bare "math range error" / "(34, 'Numerical result out of range')"
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_heat_without_a_positive_band_value_fails_its_rows(self, tmp_path, capsys):
        # every s(t) underflows to 0 at t = 1e9: was "heat: ERROR float division by zero"
        out = tmp_path / "heat.csv"
        assert main(["heat", "--t", "1e9", "--lmax", "24", "--out", str(out)]) == 1
        assert "heat band: 1 points, max/min s = n/a" in capsys.readouterr().out
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 1 and ",FAIL," in rows[0]

    def test_haar_with_an_underflowing_trace_is_a_typed_error(self, capsys):
        # Tr(R e^{-tD^2}) is 0 in float64 at t = 1e6: was "haar: ERROR complex division by zero"
        assert main(["haar", "--t", "1e6", "--lmax", "24"]) == 1
        assert ("haar: ERROR Tr(R e^{-tD^2}) at q = 1.2, t = 1e+06 underflows to 0 in float64"
                in capsys.readouterr().err)

    def test_validate_below_one_writes_every_row(self, tmp_path, capsys):
        # the two-path Haar check reaches q < 1 through SU_q(2) = SU_{1/q}(2);
        # it was "validate: ERROR the ladder oracle needs q > 1" and no CSV
        out = tmp_path / "validate.csv"
        assert main(["validate", "--q", "0.7", "--lmax", "24", "--out", str(out)]) == 0
        assert "validate: PASS (10 rows, 0 failures)" in capsys.readouterr().out
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 10 and all(",PASS," in r for r in rows)

    @pytest.mark.parametrize("q", ["0.5", "0.7", "0.99"])
    def test_commutators_below_one_pass_every_row(self, q, tmp_path, capsys):
        # the witness follows q: alpha* on v^{l,+}_{-l,l+1/2}; with the q > 1
        # witness, q 0.7 and 0.5 FAILed 15 of 31 rows (slopes -5.4e-4 and -1.5e-5)
        out = tmp_path / "commutators.csv"
        assert main(["commutators", "--q", q, "--lmax", "40", "--out", str(out)]) == 0
        assert "commutators: PASS (31 rows, 0 failures)" in capsys.readouterr().out

    @pytest.mark.parametrize("q", ["0.9", "1.01", "1.1111111111111112", "1.0001", "0.9999"])
    def test_validate_near_one_passes_every_row(self, q, tmp_path, capsys):
        # the ladder cut follows q: with K = 80 the two-path row was 3.9e-8 at q 0.9
        # and 0.199 at q 1.01, both FAIL; at q 1.0001 the cut is K = 141 628 levels,
        # which the passes over all levels run in well under a second (was 10 s)
        out = tmp_path / "validate.csv"
        assert main(["validate", "--q", q, "--lmax", "24", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 10 and all(",PASS," in r for r in rows)

    @pytest.mark.parametrize("q", [0.05, 0.7, 1.2, 2.0, 3.0, 25.0])
    def test_validate_cg_rows_match_the_scalar_loop_bitwise(self, q):
        # the rows read the CG tables; the reference calls _cg_doubled per entry
        worst_n = worst_o = 0.0
        for ld in range(0, 21):
            for jd in range(-ld - 1, ld + 2, 2):
                pairs = {}
                for br in (1, -1):
                    up = _cg_doubled(1, br, ld, jd - 1, q)
                    dn = _cg_doubled(-1, br, ld, jd + 1, q)
                    pairs[br] = (up, dn)
                    if abs(jd) <= ld + br:
                        worst_n = max(worst_n, abs(up * up + dn * dn - 1.0))
                if abs(jd) <= ld - 1:
                    dot = pairs[1][0] * pairs[-1][0] + pairs[1][1] * pairs[-1][1]
                    worst_o = max(worst_o, abs(dot))
        rows, _ = cli.run_validate(RunConfig(q=q, lmax_doubled=4))
        got = {r[0]: r[1] for r in rows}
        assert type(got["qarith.cg_normalization"]) is float
        assert np.float64(got["qarith.cg_normalization"]).tobytes() \
            == np.float64(worst_n).tobytes()
        assert np.float64(got["qarith.cg_orthogonality"]).tobytes() \
            == np.float64(worst_o).tobytes()

    def test_heat_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "heat.csv"
        rc = main(["heat", "--lmax", "16", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert "t" in header and "lmax_doubled" in header and "version" in header
        assert len(lines) == 4  # header + default three t values
        assert capsys.readouterr().out.count("PASS") >= 1

    def test_json_format(self, tmp_path):
        out = tmp_path / "modular.json"
        rc = main(["modular", "--lmax", "8", "--out", str(out), "--format", "json"])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert rows and all(r["status"] == "PASS" for r in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_complex_cell_keeps_both_parts(self, fmt, tmp_path):
        # every float part at 17 significant digits, the imaginary part signed
        out = tmp_path / ("rows." + fmt)
        cli.write_rows(str(out), fmt, ["value"], [[0.1 - 2.5e-300j], [-1.0 + 0.0j]], {"q": 1.2})
        cells = ["0.10000000000000001-2.5e-300j", "-1+0j"]
        if fmt == "csv":
            assert out.read_text().splitlines() == ["value,q"] + [c + ",1.2" for c in cells]
        else:
            assert json.loads(out.read_text()) == [{"value": c, "q": "1.2"} for c in cells]

    def test_all_suffixes_outputs(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(["all", "--lmax", "16", "--out", str(out)])
        assert rc == 0
        for name in EXPERIMENTS:
            assert (tmp_path / ("run_%s.csv" % name)).exists()

    def test_all_builds_one_generator_table(self, monkeypatch, capsys):
        # one table on the run's truncation, shared by the experiments; its
        # vacuum memo serves every Haar state of the run on the spins 2n <= 4:
        # was a view table per spin 2n <= 2, 3, 4, then one view at 4
        builds = []
        init = GeneratorTable.__init__

        def counting_init(self, q, trunc):
            builds.append(trunc.lmax.doubled)
            init(self, q, trunc)

        monkeypatch.setattr(GeneratorTable, "__init__", counting_init)
        assert main(["all", "--lmax", "16"]) == 0
        assert builds == [16]
        assert cli.generator_table.cache_info().currsize == 0  # nothing outlives the invocation
        assert main(["all", "--lmax", "16"]) == 0
        assert builds == [16] * 2

    def test_validate_runs_the_battery_once_per_table(self, monkeypatch):
        built, validated = [], []
        init, validate = GeneratorTable.__init__, GeneratorTable.validate

        def counting_init(self, q, trunc):
            built.append(self)
            init(self, q, trunc)

        def counting_validate(self):
            validated.append(self)
            validate(self)

        monkeypatch.setattr(GeneratorTable, "__init__", counting_init)
        monkeypatch.setattr(GeneratorTable, "validate", counting_validate)
        rows, _ = cli.run_validate(RunConfig(lmax_doubled=8))
        assert [t.trunc.lmax.doubled for t in built] == [8]  # was 8, 2, 3, 4, then 8, 4
        assert validated == built  # tables compare by identity
        relation_rows = {r[0]: r[1] for r in rows if r[0].startswith("algebra.relation")}
        assert relation_rows == {"algebra.relation[%s]" % name: residual
                                 for name, residual in built[0].residuals.items()}

    @staticmethod
    def _failed_battery_row(monkeypatch, residual):
        def failing_validate(self):
            raise ValidationError("G g = g G", residual)

        monkeypatch.setattr(GeneratorTable, "validate", failing_validate)
        rows, _ = cli.run_validate(RunConfig(lmax_doubled=8))
        assert cli.generator_table.cache_info().currsize == 0
        return rows[-1]

    def test_validation_failure_is_a_fail_row(self, monkeypatch):
        assert self._failed_battery_row(monkeypatch, 1.0) \
            == ["algebra.relation[G g = g G]", 1.0, GeneratorTable.RELATION_TOL, "FAIL"]

    def test_nan_battery_residual_is_a_fail_row(self, monkeypatch):
        # a NaN residual passed the battery, and its relation row read nan, FAIL
        validate = GeneratorTable.validate

        def poisoned(self):
            # a NaN in the column 3 of g's first band, in every band g and g* form
            key = next(iter(self.ops["g"].bands))
            perturb_band(monkeypatch, self, "g", key, 3, lambda v: np.nan)
            validate(self)

        monkeypatch.setattr(GeneratorTable, "validate", poisoned)
        rows, _ = cli.run_validate(RunConfig(lmax_doubled=8))
        name, residual, *rest = rows[-1]
        assert name.startswith("algebra.relation[") and math.isnan(residual)
        assert rest == [GeneratorTable.RELATION_TOL, "FAIL"]

    def test_residual_at_the_tolerance_is_a_pass_row(self, monkeypatch, tmp_path):
        # the table passes a residual <= RELATION_TOL, which haar accepted, but its
        # relation row read FAIL at residual == threshold, and validate exited 1
        largest = max(GeneratorTable(1.2, Truncation(HalfInteger(8))).residuals.values())
        monkeypatch.setattr(GeneratorTable, "RELATION_TOL", largest)
        rc, rows = _run(["validate", "--q", "1.2", "--lmax", "8"], tmp_path)
        relations = [r for r in rows if r["battery"].startswith("algebra.relation[")]
        assert rc == 0 and len(relations) == 5
        assert all(r["status"] == "PASS" for r in relations)
        assert any(float(r["residual"]) == largest == float(r["threshold"]) for r in relations)

    def test_validation_failure_shows_the_enforced_threshold(self, monkeypatch):
        # the row read threshold 1e-9, so a residual of 5e-10 was below it and FAIL
        assert GeneratorTable.RELATION_TOL == 1e-10
        assert self._failed_battery_row(monkeypatch, 5e-10) \
            == ["algebra.relation[G g = g G]", 5e-10, 1e-10, "FAIL"]

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["commutators", "--lmax", "16", "--seed", "7",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("seed", [2, 17, 26, 41])
    def test_commutators_do_not_depend_on_the_seed(self, tmp_path, seed, capsys):
        # these seeds once made an iterative norm fail to converge at shell 4
        tables = []
        for s in (1234, seed):
            out = tmp_path / ("seed%d.csv" % s)
            assert main(["commutators", "--lmax", "16", "--seed", str(s),
                         "--out", str(out)]) == 0
            tables.append([line.split(",") for line in out.read_text().splitlines()])
        base, other = tables
        col = base[0].index("seed")
        assert {row[col] for row in other[1:]} == {str(seed)}
        for row in base + other:
            del row[col]
        assert other == base  # every other byte identical

    def test_runs_load_no_scipy_module(self, tmp_path):
        # a float64 run is numpy-only: scipy is a test dependency, and mpmath
        # is imported only for --precision-bits above 53
        code = ("import sys, qsu2.cli\n"
                "for argv in (['all', '--lmax', '16'], ['haar', '--lmax', '16']):\n"
                "    assert qsu2.cli.main(argv + ['--out', %r]) == 0\n"
                "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')])"
                % str(tmp_path / "run.csv"))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_all_leaves_numpy_ma_unloaded(self, tmp_path):
        # numpy.ma costs about 9 ms to import in a fresh process, and np.unique
        # imports it on its first call: no path of a run may reach it
        code = ("import sys, qsu2.cli\n"
                "assert qsu2.cli.main(['all', '--lmax', '24', '--out', %r]) == 0\n"
                "print('numpy.ma' in sys.modules)" % str(tmp_path / "run.csv"))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
        assert proc.stdout.strip().splitlines()[-1] == "False"


class TestWorkCounts:
    """Guards on work, not time: how large the operators are that each experiment builds."""

    @pytest.fixture
    def builds(self, monkeypatch):
        dims = []
        orig = algebra.mult_operator

        def counted(p, table):
            dims.append(table.basis.dim)
            return orig(p, table)

        monkeypatch.setattr(algebra, "mult_operator", counted)
        monkeypatch.setattr(cli, "mult_operator", counted)
        return dims

    def test_haar_builds_no_full_operator(self, builds):
        # the trace functionals read only the diagonal band: was 31, then 6
        cfg = RunConfig(lmax_doubled=24, t_grid=[0.5, 1.0, 1.5, 2.0])
        cli.run_haar(cfg)
        assert cli.generator_table(cfg.q, cfg.lmax_doubled).basis.dim not in builds

    def test_modular_builds_no_full_operator(self, builds):
        cfg = RunConfig(lmax_doubled=24)
        # psi(b Psi(a)) reads the vacuum vectors: was one operator per word and view
        cli.run_modular(cfg)
        assert builds == []

    @pytest.fixture
    def matvecs(self, monkeypatch):
        """Count of BandMatrix @ ndarray products."""
        count = [0]
        orig = peterweyl.BandMatrix.__matmul__

        def counted(self, other):
            count[0] += isinstance(other, np.ndarray)
            return orig(self, other)

        monkeypatch.setattr(peterweyl.BandMatrix, "__matmul__", counted)
        return count

    def test_validate_applies_each_suffix_once(self, matvecs, monkeypatch):
        # the words of one length and first letter in one matvec, on the vacuum
        # basis of spins 2n <= 4: was 1 252, then 444 (one per suffix on three views);
        # only the 41 balanced words run the ladder, all in one run over the levels
        ladders = []
        ladder_sums = gns_oracle._ladder_sums

        def recording(words, K, q):
            ladders.append(ladder_sums(words, K, q))
            return ladders[-1]

        monkeypatch.setattr(gns_oracle, "_ladder_sums", recording)
        cfg = RunConfig(lmax_doubled=24)
        cli.run_validate(cfg)
        assert matvecs[0] <= 16
        assert len(ladders) == 1 and len(ladders[0]) == 41
        table = cli.generator_table(cfg.q, cfg.lmax_doubled)
        assert table.vacuum_basis.dim <= 55

    def test_modular_applies_each_operator_once_per_pair(self, matvecs):
        # w e0 for the words of a, b* and ab on one basis, a word length and first
        # letter per matvec: was 1 008, then 458, then 230
        cli.run_modular(RunConfig(lmax_doubled=24))
        assert matvecs[0] <= 16

    def test_commutators_make_no_matvec_and_no_spinor_picture(self, matvecs, monkeypatch):
        # each witness reads its column of a and D's 2x2 blocks at a few labels:
        # was 42 matvecs at spinor dimension, then 21 (one per witness and component)
        def refuse(*args):
            raise AssertionError("commutators built a DiracContext")

        monkeypatch.setattr(dirac.DiracContext, "__init__", refuse)
        cli.run_commutators(RunConfig(lmax_doubled=24))
        assert matvecs[0] == 0

    def test_commutators_build_one_witness_operator(self, builds):
        # run_commutators passes one operator of a to the |D| series and the
        # true-D growth, and the cap is a closed form: was 3
        cli.run_commutators(RunConfig(lmax_doubled=24))
        assert len(builds) == 1

    def test_commutators_take_shell_norms_only_for_the_series(self, monkeypatch):
        # the cap is a closed form: it took a shell norm over every safe shell,
        # up to lmax_doubled - 1 = 61 here
        calls = []
        orig = spectral.shell_norms

        def counted(op, shells):
            calls.append(shells)
            return orig(op, shells)

        monkeypatch.setattr(spectral, "shell_norms", counted)
        cli.run_commutators(RunConfig(lmax_doubled=62))
        assert len(calls) == 1
        assert max(calls[0]) <= 40

    def test_commutators_form_no_band_beyond_the_view_of_their_spins(self, monkeypatch):
        # the witness operator is formed on the table of spins 2n <= 62, which
        # holds every spin the series and the witnesses read: it was formed over
        # the table's 597 861 labels at lmax_doubled 120
        lengths = []
        bands = algebra.Generator.bands

        def counted(op):
            formed = bands.fget(op)
            lengths.extend(len(v) for v in formed.values())
            return formed

        monkeypatch.setattr(algebra.Generator, "bands", property(counted))
        cli.run_commutators(RunConfig(lmax_doubled=120))
        assert lengths and max(lengths) <= 85344

    @pytest.fixture
    def tables(self, monkeypatch):
        """lmax_doubled of each GeneratorTable built."""
        built = []
        init = GeneratorTable.__init__

        def counted(self, q, trunc):
            built.append(trunc.lmax.doubled)
            init(self, q, trunc)

        monkeypatch.setattr(GeneratorTable, "__init__", counted)
        return built

    def test_commutators_build_only_the_table_of_their_spins(self, tables):
        # the table of spins 2n <= 62 is built and its battery run, and no other:
        # was the run's table at 120, then its leading view at 62
        assert main(["commutators", "--lmax", "120"]) == 0
        assert tables == [62]

    def test_all_builds_each_table_once(self, tables):
        # validate, haar and modular share the run's table and its vacuum memo;
        # commutators takes the table at 62, and the two tables kept by
        # cli.generator_table spare modular a second build at 120: was 120, 4, 62
        assert main(["all", "--lmax", "120"]) == 0
        assert tables == [120, 62]

    def test_haar_builds_one_table_and_runs_one_battery(self, tables, monkeypatch):
        # the Haar states read the vacuum memo of the run's table: was 62, 2,
        # the second a view table with a relation battery of its own
        validated = []
        validate = GeneratorTable.validate
        monkeypatch.setattr(GeneratorTable, "validate",
                            lambda self: validated.append(self) or validate(self))
        assert main(["haar", "--lmax", "62"]) == 0
        assert tables == [62] and len(validated) == 1

    @pytest.fixture
    def row_builds(self, monkeypatch):
        """(space, key) of each row index a space computes: a call whose key it does not hold."""
        calls = []
        orig = peterweyl.LabelSpace._rows_of

        def counted(self, key):
            if key not in vars(self).get("_rows", {}):
                calls.append((self, key))
            return orig(self, key)

        monkeypatch.setattr(peterweyl.LabelSpace, "_rows_of", counted)
        return calls

    def test_one_block_bases_compute_each_row_index_once(self, row_builds, tmp_path, capsys):
        # each space keeps the rows it computes, one index per (space, key): 19
        # over the vacuum basis and the leading shells of the |D| series (35 when the
        # relation battery read rows too); block rows computed beside a
        # whole-space memo made 53 + 38
        assert main(["all", "--lmax", "24", "--out", str(tmp_path / "run.csv")]) == 0
        pairs = [(id(space), key) for space, key in row_builds]
        assert pairs and len(pairs) == len(set(pairs))

    def test_large_bases_compute_no_row_index(self, row_builds, monkeypatch, tmp_path, capsys):
        # at dim 85 344 the battery and the modular scaling read shifted slices
        # of their shell grid, the trace diagonals and the Haar states read
        # per-shell factors or the small vacuum basis, and the |D| series reads
        # the 25 585 labels of its leading shells: no row index of that basis is
        # computed.  commutators and modular computed them over column blocks
        dims = []
        init = peterweyl.Basis.__init__

        def recording(self, trunc):
            init(self, trunc)
            dims.append(self.dim)

        monkeypatch.setattr(peterweyl.Basis, "__init__", recording)
        for command in ("haar", "commutators", "modular"):
            dims.clear()
            row_builds.clear()
            assert main([command, "--lmax", "62", "--out", str(tmp_path / "run.csv")]) == 0
            assert 85344 in dims, command
            assert [key for space, key in row_builds if space.dim == 85344] == [], command
            if command == "commutators":
                assert {space.dim for space, _ in row_builds} == {25585}

    @pytest.mark.parametrize("argv", [["all", "--lmax", "24"], ["haar", "--lmax", "62"],
                                      ["commutators", "--q", "0.7", "--lmax", "62"],
                                      ["all", "--lmax", "120"], ["modular", "--lmax", "40"]])
    def test_no_table_basis_derives_its_labels(self, argv, monkeypatch, tmp_path, capsys):
        # a Basis keeps its labels once read: the tables' bases are never read
        # label by label, as the rows are formed on the small vacuum and leading
        # shell bases only
        built = []
        init = GeneratorTable.__init__
        monkeypatch.setattr(GeneratorTable, "__init__",
                            lambda self, q, trunc: built.append(self) or init(self, q, trunc))
        main(argv + ["--out", str(tmp_path / "run.csv")])
        assert built and [t.basis.dim for t in built if "labels" in vars(t.basis)] == []

    def test_memo_released_with_the_table(self, monkeypatch):
        tables = []
        init = algebra.GeneratorTable.__init__

        def recording(self, q, trunc):
            tables.append(weakref.ref(self))
            init(self, q, trunc)

        monkeypatch.setattr(algebra.GeneratorTable, "__init__", recording)
        assert main(["haar", "--lmax", "16"]) == 0
        assert tables and cli.generator_table.cache_info().currsize == 0
        gc.collect()
        assert all(ref() is None for ref in tables)

    def test_heat_computes_each_trace_once(self, monkeypatch, capsys):
        calls = []
        orig = spectral.heat_trace

        def counted(t, *args, **kwargs):
            calls.append(t)
            return orig(t, *args, **kwargs)

        monkeypatch.setattr(spectral, "heat_trace", counted)
        rows, _ = cli.run_heat(RunConfig(lmax_doubled=16, t_grid=[2.0, 0.5, 1.0]))
        assert calls == [0.5, 1.0, 2.0]
        assert [r[0] for r in rows] == calls


def _run(argv, tmp_path) -> tuple:
    """(exit code, rows of the written CSV as dicts) of main(argv)."""
    out = tmp_path / "run.csv"
    rc = main(argv + ["--out", str(out)])
    with open(out) as fh:
        return rc, list(csv.DictReader(fh))


class TestVerdictsFail:
    """Each PASS predicate of the CLI, driven to its wrong side by the spectral result it reads.

    The neighbouring rows of the same run keep PASS, so each test reads
    one predicate.
    """

    @pytest.fixture
    def absd_series(self, monkeypatch):
        """Record the |D| series of a commutators run; the last one is kept in a list."""
        seen = []
        series = spectral.absD_commutator_series

        def recording(*args):
            seen.append(series(*args))
            return seen[-1]

        monkeypatch.setattr(spectral, "absD_commutator_series", recording)
        return seen

    @pytest.mark.parametrize("factor, status", [(1.0, "PASS"), (1.0 - 1e-9, "FAIL")])
    def test_commutators_cap(self, factor, status, absd_series, monkeypatch, tmp_path, capsys):
        # the largest |D| norm equal to the cap passes (values <= cap); just above it fails
        monkeypatch.setattr(spectral, "absD_commutator_cap",
                            lambda a: float(absd_series[-1].values.max()) * factor)
        rc, rows = _run(["commutators", "--lmax", "24"], tmp_path)
        assert rc == (1 if status == "FAIL" else 0)
        assert {r["status"] for r in rows if r["norm_absD"]} == {status}
        assert {r["status"] for r in rows if r["norm_trueD"]} == {"PASS"}

    def test_commutators_plateau(self, monkeypatch, tmp_path, capsys):
        # the last norm 3% below the one before it: no plateau, still below the cap
        series = spectral.absD_commutator_series

        def no_plateau(*args):
            s = series(*args)
            return spectral.GrowthSeries.fit(s.params, np.append(s.values[:-1],
                                                                 0.97 * s.values[-2]))

        monkeypatch.setattr(spectral, "absD_commutator_series", no_plateau)
        rc, rows = _run(["commutators", "--lmax", "24"], tmp_path)
        assert rc == 1
        assert {r["status"] for r in rows if r["norm_absD"]} == {"FAIL"}
        assert {r["status"] for r in rows if r["norm_trueD"]} == {"PASS"}

    def test_commutators_slope(self, monkeypatch, tmp_path, capsys):
        # the true-D norms in reverse: a decreasing series, slope < 0
        growth = spectral.trueD_growth

        def decreasing(*args):
            s = growth(*args)
            return spectral.GrowthSeries.fit(s.params, s.values[::-1])

        monkeypatch.setattr(spectral, "trueD_growth", decreasing)
        rc, rows = _run(["commutators", "--lmax", "24"], tmp_path)
        assert rc == 1
        assert {r["status"] for r in rows if r["norm_trueD"]} == {"FAIL"}
        assert {r["status"] for r in rows if r["norm_absD"]} == {"PASS"}

    @pytest.mark.parametrize("name, value, failing", [
        ("modular_defects", 1e-9, "defect"),  # defect < 1e-9, every pair
        ("modular_generator_scaling", 1e-12, "scaling"),  # residual < 1e-12
    ])
    def test_modular(self, name, value, failing, monkeypatch, tmp_path, capsys):
        # the scaling rows' first cell, Psi(t[r,s]), holds a comma and is quoted
        fake = (lambda a, b, table: [[value] * len(b)] * len(a)) if name == "modular_defects" \
            else (lambda table: dict.fromkeys([(1, 1), (1, -1), (-1, 1), (-1, -1)], value))
        monkeypatch.setattr(spectral, name, fake)
        rc, rows = _run(["modular", "--lmax", "16"], tmp_path)
        assert rc == 1
        assert sum(r["a"].startswith("Psi(t[") for r in rows) == 4
        for r in rows:
            kind = "scaling" if r["b"] == "scaling" else "defect"
            assert r["status"] == ("FAIL" if kind == failing else "PASS"), r
            assert r["version"] == cli.__version__, r

    @pytest.mark.parametrize("shift, status", [(0.0, "PASS"), (2e-9, "FAIL")])
    def test_validate_two_path_agreement(self, shift, status, monkeypatch, tmp_path, capsys):
        # the ladder route moved off the GNS route by twice the threshold (1e-9)
        ladder = cli.oracle_haar_words
        monkeypatch.setattr(cli, "oracle_haar_words",
                            lambda words, K, q: [x + shift for x in ladder(words, K, q)])
        rc, rows = _run(["validate", "--lmax", "8"], tmp_path)
        assert rc == (1 if status == "FAIL" else 0)
        for r in rows:
            assert r["status"] == (status if r["battery"] == "oracle.two_path_agreement"
                                   else "PASS"), r

    def test_haar_abs_error(self, monkeypatch, tmp_path, capsys):
        # each heat ratio moved by twice the tolerance (1e-8)
        via_heat = spectral.haar_via_heat

        def moved(p, t, table):
            ratio, tail = via_heat(p, t, table)
            return [r + 2e-8 for r in ratio], tail

        monkeypatch.setattr(spectral, "haar_via_heat", moved)
        rc, rows = _run(["haar", "--lmax", "24"], tmp_path)
        assert rc == 1
        for r in rows:
            assert r["status"] == ("FAIL" if r["method"] == "heat" else "PASS"), r

    def test_heat_spread(self, monkeypatch, tmp_path, capsys):
        # s(t) of 1, 2 and 5 over the default grid: max/min = 5 is not below 5
        s_band = {0.5: 1.0, 1.0: 2.0, 2.0: 5.0}
        monkeypatch.setattr(spectral, "band_value", lambda q, t, trunc, trace: s_band[t])
        rc, rows = _run(["heat", "--lmax", "24"], tmp_path)
        assert rc == 1
        assert [r["status"] for r in rows] == ["FAIL"] * 3
        assert "max/min s = 5.0000" in capsys.readouterr().out


class TestQInversion:
    """SU_q(2) = SU_{1/q}(2): the CLI at q and at 1/q, compared cell by cell.

    The Peter-Weyl route computes q < 1 directly, so each comparison checks
    it against the route at q > 1.
    """

    @pytest.mark.parametrize("q", [1.25, 3.0])
    def test_heat_values_are_byte_identical(self, q, tmp_path, capsys):
        cells = []
        for x in (q, 1 / q):
            rc, rows = _run(["heat", "--q", repr(x), "--lmax", "62"], tmp_path)
            assert rc == 0
            cells.append([[r[k] for k in ("t", "operator_trace", "closed_sum", "tail_bound",
                                          "k_exponent", "s_band", "status")] for r in rows])
        assert cells[0] == cells[1]

    @pytest.mark.parametrize("q", [1.25, 3.0])
    def test_haar_swaps_alpha_and_gamma(self, q, tmp_path, capsys):
        # psi(a* a) at q is psi(g* g) at 1/q, and the reverse
        psi = []
        for x in (q, 1 / q):
            rc, rows = _run(["haar", "--q", repr(x), "--lmax", "62"], tmp_path)
            assert rc == 0
            psi.append({r["observable"]: float(r["psi_reference"]) for r in rows})
        assert abs(psi[0]["Aa"] - psi[1]["Gg"]) <= 1e-15
        assert abs(psi[0]["Gg"] - psi[1]["Aa"]) <= 1e-15

    @pytest.mark.parametrize("q", [1.25, 3.0])
    def test_commutator_norms_scale_by_q(self, q, tmp_path, capsys):
        # the witness at 1/q is alpha* / alpha_scalar(1/q), q times the one at q
        runs = []
        for x in (q, 1 / q):
            rc, rows = _run(["commutators", "--q", repr(x), "--lmax", "40"], tmp_path)
            assert rc == 0
            runs.append(rows)
        assert len(runs[0]) == len(runs[1]) > 0
        for r, r_inv in zip(*runs):
            for k in ("norm_trueD", "norm_absD", "cap"):
                assert bool(r[k]) == bool(r_inv[k])
                if r[k]:
                    assert float(r_inv[k]) == pytest.approx(q * float(r[k]), rel=1e-14, abs=0)


@pytest.mark.parametrize("q", ["0.05", "17", "50"])
def test_modular_scaling_passes_far_from_q_1(q, tmp_path, capsys):
    # Psi(t[r,s]) = c t[r,s] with c = q^{-2r-2s} up to 2500: the residual is
    # relative to c, as its rounding scales with c (absolute, these failed).
    # The scaling rows' first cell holds a comma: the status is the sixth
    # cell from the end
    out = tmp_path / "modular.csv"
    assert main(["modular", "--q", q, "--lmax", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    assert sum(",scaling," in line for line in lines) == 4
    assert {line.split(",")[-6] for line in lines} == {"PASS"}


def _mirrored(p: NCPolynomial, q: float) -> NCPolynomial:
    """oracle_haar's map of p at 1/q to q: a and A swapped, each g or G scaled by q."""
    swap = str.maketrans("aA", "Aa")
    return NCPolynomial({w.translate(swap): c * q ** (w.count("g") + w.count("G"))
                         for w, c in p.terms.items()})


Q_INVERSION_POLYNOMIALS = (
    [NCPolynomial.word(w) for w in cli.OBSERVABLES + ["aAgG", "GgAa", "AAaa"]]
    + [NCPolynomial({"Gg": 0.5, "aA": -1.0j, "": 2.0, "aGAg": 0.25})])


@settings(max_examples=5, deadline=None)
@given(q=st.floats(1.05, 5.0), ld=st.sampled_from([8, 16, 24, 40]))
def test_q_inversion_property(q, ld):
    # SU_q(2) = SU_{1/q}(2), experiment by experiment; the Peter-Weyl route at
    # 1/q < 1 is checked against the one at q > 1.  q is taken as 1 / (1 / q),
    # so that 1 / (1/q) is q in float64 as well
    q = 1 / (1 / q)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        runs = {}
        cmds = ("heat", "commutators", "modular", "validate") if ld >= 16 else (
            "heat", "modular", "validate")
        for cmd in cmds:
            for x in (q, 1 / q):
                runs[cmd, x] = _run([cmd, "--q", repr(x), "--lmax", str(ld)], tmp)
        # every defect and scaling row below its threshold at both, and every validate row
        assert runs["modular", q][0] == runs["modular", 1 / q][0] == 0
        assert runs["validate", q][0] == runs["validate", 1 / q][0] == 0
        assert {r["status"] for x in (q, 1 / q) for r in runs["validate", x][1]} == {"PASS"}
        # heat reads q through max(q, 1/q), the same float at both: equal value cells
        keys = ("t", "operator_trace", "closed_sum", "tail_bound", "k_exponent", "s_band")
        heat = [[[r[k] for k in keys] for r in runs["heat", x][1]] for x in (q, 1 / q)]
        assert heat[0] == heat[1]
        # commutators: the witness at 1/q is q times the one at q
        if ld >= 16:
            (rc, rows), (rc_inv, rows_inv) = runs["commutators", q], runs["commutators", 1 / q]
            assert rc == rc_inv and len(rows) == len(rows_inv) > 0
            for r, r_inv in zip(rows, rows_inv):
                for k in ("norm_trueD", "norm_absD", "cap"):
                    assert bool(r[k]) == bool(r_inv[k])
                    if r[k]:
                        assert float(r_inv[k]) == pytest.approx(q * float(r[k]), rel=1e-14, abs=0)
    # the Haar state and the heat ratio of p at 1/q are those of its mirror at q
    table, table_inv = (GeneratorTable(x, Truncation(HalfInteger(ld))) for x in (q, 1 / q))
    # validate's two paths across the symmetry: the ladder at 1/q of each word's
    # mirror against the Peter-Weyl route at q, with a cut whose error
    # q^{-2(K+1)} is below 1e-16
    K = math.ceil(math.log(1e16) / (2 * math.log(q)))
    for w in ("".join(t) for n in range(5) for t in itertools.product("aAgG", repeat=n)):
        p = NCPolynomial.word(w)
        assert abs(oracle_haar(_mirrored(p, 1 / q), K, 1 / q) - haar_state(p, table)) <= 1e-14, w
    for p in Q_INVERSION_POLYNOMIALS:
        values = [(haar_state(p, table_inv), haar_state(_mirrored(p, q), table))]
        values += [(haar_via_heat(p, t, table_inv)[0], haar_via_heat(_mirrored(p, q), t, table)[0])
                   for t in (0.5, 1.0, 2.0)]
        for x_inv, x in values:
            assert abs(x_inv - x) <= 1e-13 * max(1.0, abs(x)), (p, x_inv, x)


def test_perfbench_trace_reads_a_table_of_two_blocks(tmp_path):
    # perfbench/worker.py trace counts the generators' nnz through op.mat.nnz;
    # at ld 40 (dim 23 821) the table holds them as per-shell factors
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = tmp_path / "trace.json"
    subprocess.run([sys.executable, os.path.join(root, "perfbench", "worker.py"), "trace",
                    str(result), "haar", "--q", "1.2", "--lmax", "40", "--t-grid", "0.5:2:4",
                    "--out", str(tmp_path / "haar.csv")],
                   cwd=root, check=True, capture_output=True)
    out = json.loads(result.read_text())
    assert out["rc"] == 0
    assert out["facts"]["algebra.gen_nnz"] == 177120
