import argparse
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cowqkd.cli as cli
from cowqkd import ParameterError, SystemParams, evaluate_point
from cowqkd.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    main,
    parse_config_file,
    parse_distance_range,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text):
    values = {}
    for line in text.strip().splitlines():
        key, _, raw = line.partition("=")
        values[key] = raw
    return values


# ---------------------------------------------------------------------------
# argument and config handling
# ---------------------------------------------------------------------------

def test_distance_range_inclusive_when_step_divides():
    assert parse_distance_range("0:150:50") == (0.0, 50.0, 100.0, 150.0)
    assert parse_distance_range("0:10:3") == (0.0, 3.0, 6.0, 9.0)
    assert parse_distance_range("0:0:1") == (0.0,)
    assert parse_distance_range("42") == (42.0,)


def test_distance_range_rejects_bad_input():
    for text in ("10:0:5", "0:10:0", "0:10:-1", "a:b:c", "1:2:3:4",
                 "0:inf:5", "0:nan:5", "0:10:inf", "nan:10:5", "-inf:0:5"):
        with pytest.raises(ConfigError):
            parse_distance_range(text)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "pd = 1e-7\n"
        "eta-d = 0.9   # trailing comment\n"
        "variant = active\n"
        "\n"
        "L = 0:10:5\n"
    )
    entries = parse_config_file(str(path))
    assert entries == {"pd": "1e-7", "eta_d": "0.9", "variant": "active", "L": "0:10:5"}


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("wavelength = 1550\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(path))


@pytest.mark.parametrize("text, key, first, second", [
    ("mu = 0.1\ntb = 0.5\nmu = 0.2\n", "mu", 1, 3),
    ("# the same key, spelled both ways\neta-d = 0.9\n\neta_d = 0.8\n", "eta_d", 2, 4),
], ids=["mu", "eta_d"])
def test_repeated_config_key_exits_one(tmp_path, capsys, text, key, first, second):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    message = f"{path}:{second}: key '{key}' repeats line {first}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_file(str(path))
    code, out, err = run_cli(capsys, "point", "--L", "10", "--config", str(path))
    assert code == EXIT_CONFIG and out == ""
    assert f"'{key}' repeats line {first}" in err, err


def test_flags_override_config_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("mu = 0.111\ntb = 0.25\npd = 0\nea = 0\n")
    code, out, _ = run_cli(capsys, "point", "--config", str(path), "--L", "10",
                           "--mu", "0.333")
    assert code == EXIT_OK
    report = parse_report(out)
    assert report["mu"] == repr(0.333)  # flag wins
    assert report["t_B"] == repr(0.25)  # config survives


def test_unknown_config_key_exits_one(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("bogus = 1\n")
    code, _, err = run_cli(capsys, "point", "--config", str(path),
                           "--L", "10", "--mu", "0.1", "--tb", "0.5")
    assert code == EXIT_CONFIG
    assert "bogus" in err


def test_missing_config_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "scan", "--config", "/nonexistent/x.cfg", "--L", "0:0:1")
    assert code == EXIT_CONFIG


# (subcommand, its other flags, config text, the key to name, keys it must not name)
FOREIGN_KEYS = [
    ("verify", ["--samples", "2e4"], "mu = -5\npd = 0.9\n", "mu", ["pd"]),
    ("verify", ["--samples", "2e4"], "L = 50\n", "L", []),
    ("point", ["--L", "10", "--mu", "0.1", "--tb", "0.5"], "protocol = nonclassical\n",
     "protocol", []),
    ("scan", ["--L", "0:0:1"], "seed = 3\nsamples = 5\n", "seed", ["samples"]),
]


@pytest.mark.parametrize("cmd, argv, text, key, others", FOREIGN_KEYS,
                         ids=[f"{case[0]}-{case[3]}" for case in FOREIGN_KEYS])
def test_config_key_of_another_subcommand_exits_one(tmp_path, capsys, cmd, argv, text, key,
                                                     others):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    code, out, err = run_cli(capsys, cmd, "--config", str(path), *argv)
    assert code == EXIT_CONFIG and out == ""
    message = err.replace(str(path), "")  # the path must not supply the names
    assert f"'{key}'" in message and cmd in message, err
    assert not [other for other in others if f"'{other}'" in message], err  # first in file order


def _subparsers():
    parser = cli._build_parser()
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_each_subcommand_takes_the_config_keys_of_its_flags():
    commands = _subparsers()
    assert sorted(commands) == sorted(cli._COMMANDS)
    for cmd, parser in commands.items():
        dests = {action.dest for action in parser._actions
                 if action.option_strings and action.dest not in ("help", "config")}
        assert dests == set(cli._config_keys(cmd)), cmd
    assert "config" not in {action.dest for action in commands["finite-size"]._actions}


def test_whole_number_options_reject_fractions(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1.9\n")
    for argv, key in ((["verify", "--samples", "2e4", "--config", str(path)], "seed"),
                      (["verify", "--samples", "20000.5"], "samples")):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == "", argv
        assert f"'{key}'" in err.replace(str(path), ""), err


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_degenerate_range_single_row(capsys):
    code, out, _ = run_cli(capsys, "scan", "--L", "0:0:1")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("0,1,0.8,")


def test_scan_requires_distance_range(capsys):
    code, _, err = run_cli(capsys, "scan")
    assert code == EXIT_CONFIG
    assert "--L" in err


def test_scan_writes_identical_bytes_across_runs(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["scan", "--pd", "1e-8", "--eta-d", "0.8", "--f", "1.1", "--ea", "0.0",
            "--variant", "passive", "--L", "0:60:30"]
    assert main(argv + ["--out", str(out_a)]) == EXIT_OK
    assert main(argv + ["--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_scan_unwritable_output_exits_two(capsys):
    code, _, err = run_cli(capsys, "scan", "--L", "0:0:1",
                           "--out", "/nonexistent-dir/out.csv")
    assert code == EXIT_IO


def test_scan_with_fixed_intensity_pins_mu_column(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--L", "0:40:20", "--mu", "0.005", "--out", str(out)]) == EXIT_OK
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        assert row.split(",")[3] == "0.005"


def test_scan_row_values_serialized_at_nine_digits(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--L", "50", "--mu", "0.0037", "--tb", "0.48",
                 "--out", str(out)]) == EXIT_OK
    header, row = out.read_text().strip().splitlines()
    assert header == CSV_HEADER
    fields = row.split(",")
    assert len(fields) == 12
    point = evaluate_point(SystemParams(L_km=50.0, p_d=1e-8, eta_d=0.8, e_a=0.0,
                                        f_ec=1.1, mu=0.0037, t_B=0.48))
    assert fields[5] == format(point.Q_z, ".9g")
    assert fields[8] == format(point.R, ".9g")


# Reference CSVs written by these argv; the scan output must not change by a
# byte.  The rows are converged optima, so both SIMD dispatch levels of numpy
# print the same bytes (test_points_reference reruns this test with AVX-512 off).
GOLDEN_SCANS = {
    "scan_passive_cow.csv": ["--variant", "passive", "--protocol", "cow", "--L", "0:150:5"],
    "scan_passive_nonclassical.csv": ["--variant", "passive", "--protocol", "nonclassical",
                                      "--L", "0:150:5"],
    "scan_active_cow.csv": ["--variant", "active", "--protocol", "cow", "--L", "0:150:5"],
    "scan_active_nonclassical.csv": ["--variant", "active", "--protocol", "nonclassical",
                                     "--L", "0:150:5"],
    "scan_criterion9.csv": ["--pd", "1e-8", "--eta-d", "0.8", "--f", "1.1", "--ea", "0.02",
                            "--variant", "passive", "--L", "0:100:20"],
    "scan_active_high_dark.csv": ["--pd", "1e-7", "--eta-d", "0.99", "--ea", "0.01",
                                  "--variant", "active", "--L", "0:120:1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCANS))
def test_scan_matches_reference_csv_bytes(name, tmp_path):
    out = tmp_path / name
    assert main(["scan", *GOLDEN_SCANS[name], "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


# ---------------------------------------------------------------------------
# point and optimize
# ---------------------------------------------------------------------------

def test_point_reports_error_free_line(capsys):
    code, out, _ = run_cli(capsys, "point", "--L", "25", "--mu", "0.1",
                           "--tb", "0.5", "--pd", "0", "--ea", "0")
    assert code == EXIT_OK
    report = parse_report(out)
    assert report["Eb"] == "0.0"


def test_point_values_round_trip_to_library_results(capsys):
    code, out, _ = run_cli(capsys, "point", "--L", "50", "--mu", "0.0037",
                           "--tb", "0.48")
    assert code == EXIT_OK
    report = parse_report(out)
    params = SystemParams(L_km=50.0, p_d=1e-8, eta_d=0.8, e_a=0.0, f_ec=1.1,
                          mu=0.0037, t_B=0.48)
    point = evaluate_point(params)
    assert float(report["Qz"]) == point.Q_z
    assert float(report["Eb"]) == point.E_b
    assert float(report["Ep_u"]) == point.E_p_u
    assert float(report["Ex"]) == point.E_x
    assert float(report["R"]) == point.R
    assert float(report["R_tilde"]) == point.R_tilde
    assert report["bound_trivial"] == "false"


def test_point_rejects_zero_mu(capsys):
    code, _, err = run_cli(capsys, "point", "--L", "50", "--mu", "0", "--tb", "0.5")
    assert code == EXIT_CONFIG
    assert "mu" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mu_that_overflows_the_bound_is_a_config_error(capsys):
    # the Cauchy bound overflows, then (scan at 1000, point at 1e4) the gain kernels
    for argv in (["point", "--L", "50", "--mu", "800", "--tb", "0.5"],
                 ["scan", "--L", "50", "--mu", "1000"],
                 ["point", "--L", "50", "--mu", "1e4", "--tb", "0.01"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG, argv
        assert "mu=" in err and "nan" not in err.lower() and "inf" not in err.lower(), err
    # where the bound stays finite, a huge mu is a zero rate, not an error
    code, out, _ = run_cli(capsys, "point", "--L", "50", "--mu", "720", "--tb", "0.5")
    assert code == EXIT_OK
    assert parse_report(out)["R"] == "0.0"


@pytest.mark.parametrize("argv", [
    ["scan", "--L", "0:100:50", "--mu", "1e4"],
    ["point", "--L", "50", "--mu", "1e4", "--tb", "0.01"],
    ["point", "--L", "50", "--mu", "800", "--tb", "0.5"],
])
def test_overflow_prints_only_the_error_line(capsys, argv):
    # The CLI ignores numpy's floating-point warnings: the error line says it all.
    before = np.geterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith("error: mu=") and err.count("\n") == 1, err
    assert np.geterr() == before


def test_library_calls_keep_numpy_warnings():
    with pytest.warns(RuntimeWarning), pytest.raises(ParameterError):
        evaluate_point(SystemParams(L_km=50.0, p_d=1e-8, eta_d=0.8, e_a=0.0, f_ec=1.1,
                                    mu=800.0, t_B=0.5))


@pytest.mark.parametrize("argv", [
    ["scan", "--L", "0:inf:5"],
    ["scan", "--L", "0:nan:5"],
    ["scan", "--L", "0:10:inf"],
    ["scan", "--L", "nan"],
    ["verify", "--samples", "inf"],
    ["verify", "--samples", "1e400"],
    ["finite-size", "--K", "inf", "--fail-prob", "0.1"],
])
def test_non_finite_input_is_a_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == "" and err.startswith("error: ") and "Traceback" not in err, err
    assert "integer" not in err and "got nan" not in err, err


def test_point_requires_mu_and_tb(capsys):
    code, _, err = run_cli(capsys, "point", "--L", "50")
    assert code == EXIT_CONFIG


def test_point_requires_single_distance(capsys):
    code, _, _ = run_cli(capsys, "point", "--L", "0:50:10", "--mu", "0.1", "--tb", "0.5")
    assert code == EXIT_CONFIG


def test_optimize_reports_optimum(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--L", "50")
    assert code == EXIT_OK
    report = parse_report(out)
    from cowqkd import ScanConfig, optimize_point
    expected = optimize_point(
        SystemParams(L_km=50.0, p_d=1e-8, eta_d=0.8, e_a=0.0, f_ec=1.1,
                     mu=0.1, t_B=0.5),
        ScanConfig(L_values=(50.0,)),
    )
    assert float(report["mu_opt"]) == expected.mu_opt
    assert float(report["tB_opt"]) == expected.tB_opt
    assert float(report["R"]) == expected.R


# ---------------------------------------------------------------------------
# verify and finite-size
# ---------------------------------------------------------------------------

def test_verify_insufficient_samples_warns_and_exits_one(capsys):
    code, _, err = run_cli(capsys, "verify", "--samples", "100")
    assert code == EXIT_CONFIG
    assert "insufficient samples" in err


def test_verify_rejects_negative_seed(capsys):
    code, _, err = run_cli(capsys, "verify", "--seed", "-5", "--samples", "20000")
    assert code == EXIT_CONFIG
    assert "seed" in err


def test_verify_rejects_link_flags(capsys):
    # the oracle runs its own fixed cases, so a link flag would be ignored
    code, out, err = run_cli(capsys, "verify", "--samples", "2e4", "--mu", "0.1")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "--mu" in err


def test_verify_passes_mapping(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "1", "--samples", "20000")
    assert code == EXIT_OK
    assert "result: PASS" in out
    assert "closed-form gain ratios" in out


# The stdout of `cowqkd verify --seed 1 --samples 2e5`: the check order, the
# estimates, z scores and verdicts, the ratio report and its format.  The
# oracle's counts are integers and both SIMD dispatch levels of numpy print
# the same bytes (test_points_reference reruns this test with AVX-512 off).
VERIFY_ARGV = ("verify", "--seed", "1", "--samples", "2e5")


def test_verify_matches_reference_bytes(capsys):
    code, out, err = run_cli(capsys, *VERIFY_ARGV)
    assert (code, err) == (EXIT_OK, "")
    assert out == (Path(__file__).parent / "data" / "verify_seed1_2e5.txt").read_text(encoding="utf-8")


def test_verify_failure_maps_to_exit_three(monkeypatch, capsys):
    from cowqkd.oracle import CaseReport, GainCheck, VerificationReport

    def fake_verification(n_samples, seed):
        check = GainCheck(name="Q_0z_T0", estimate=0.5, expected=0.1,
                          n_samples=n_samples, z_score=99.0, passed=False)
        case = CaseReport(label="fake", params=SystemParams(
            L_km=10.0, p_d=0.0, eta_d=1.0, e_a=0.0, f_ec=1.1, mu=0.1, t_B=0.5),
            checks=(check,), ratios=())
        return VerificationReport(n_samples=n_samples, seed=seed, cases=(case,))

    monkeypatch.setattr(cli, "run_verification", fake_verification)
    code, out, err = run_cli(capsys, "verify", "--samples", "20000")
    assert code == EXIT_VERIFY
    assert "result: FAIL" in out
    assert "Q_0z_T0" in err


def test_finite_size_reference_value(capsys):
    code, out, _ = run_cli(capsys, "finite-size", "--K", "1e10", "--fail-prob", "1e-10")
    assert code == EXIT_OK
    report = parse_report(out)
    assert float(report["epsilon"]) == pytest.approx(6.888e-5, abs=1e-8)


def test_finite_size_inversion_identity(capsys):
    code, out, _ = run_cli(capsys, "finite-size", "--K", "1",
                           "--fail-prob", str(2 * math.exp(-0.5)))
    assert code == EXIT_OK
    assert float(parse_report(out)["epsilon"]) == pytest.approx(1.0, abs=1e-15)


def test_finite_size_rejects_zero_rounds(capsys):
    code, _, err = run_cli(capsys, "finite-size", "--K", "0", "--fail-prob", "1e-10")
    assert code == EXIT_CONFIG
    assert err == "error: K must be a finite number >= 1, got 0.0\n"


def test_finite_size_requires_flags(capsys):
    code, _, _ = run_cli(capsys, "finite-size")
    assert code == EXIT_CONFIG


def test_unknown_subcommand_exits_one(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == EXIT_CONFIG


def test_module_entry_point_exit_codes():
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTEST_")}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    ok = subprocess.run([sys.executable, "-m", "cowqkd", "finite-size", "--K", "1e10",
                         "--fail-prob", "1e-10"], env=env, capture_output=True, text=True)
    assert ok.returncode == EXIT_OK, ok.stderr
    assert "epsilon=" in ok.stdout
    missing = subprocess.run([sys.executable, "-m", "cowqkd", "point", "--L", "50"],
                             env=env, capture_output=True, text=True)
    assert missing.returncode == EXIT_CONFIG  # --mu and --tb are required
    assert missing.stderr.startswith("error: ") and "--mu" in missing.stderr, missing.stderr
