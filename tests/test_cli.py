import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from beatty_kfree import beatty, cfrac, cli, discrepancy, smoothing


def test_help_lists_the_experiment_subcommands(capsys):
    assert cli.main(["--help"]) == cli.EXIT_OK
    listed = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1)
    assert listed.split(",") == ["count", "fit-exponent", "expsum-sweep", "discrepancy",
                                 "smoothing-check"]


def test_selftest_is_a_usage_error(capsys):
    assert cli.main(["selftest"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "invalid choice" in err and "selftest" in err


@pytest.mark.parametrize("flag, value, says", [
    ("alpha", "quad:1,5", cfrac.ALPHA_FORMS),
    ("alpha", "dec:3.14", cfrac.ALPHA_FORMS),
    ("alpha", "cf:", cfrac.ALPHA_FORMS),
    ("alpha", "quad:1,4,1", "d = 4 is not a positive non-square"),
    ("alpha", "cf:0,1", "is not certified > 1"),
    ("alpha", "dec:1/0:40", "are not a decimal number"),
    ("beta", "abc", "is not an exact rational"),
    ("beta", "1/0", "is not an exact rational"),
])
def test_a_malformed_alpha_or_beta_names_the_flag_and_the_input(flag, value, says, capsys):
    assert cli.main(["count", "--grid", "100:100:10", f"--{flag}={value}"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{flag} {value!r}" in err and says in err


def test_a_window_over_the_memory_budget_names_the_flag_and_the_mib(capsys):
    # the naive double sum of seed 1's first trial sieves n <= 1,419,671
    argv = ["expsum-sweep", "--trials", "1", "--x-max", "3000000", "--seed", "1",
            "--memory-budget", "1"]
    assert cli.main(argv) == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert "window [1,1419671] needs 1420863 bytes" in err and "(budget 1048576)" in err
    assert "--memory-budget 2 (MiB) or more" in err


def test_count_refuses_an_uncertified_alpha(capsys):
    argv = ["count", "--alpha", "cf:1,1,1,1,1,1,1,1", "--grid", "1000:1000:10"]
    assert cli.main(argv) == cli.EXIT_BUDGET
    assert "x=1000" in capsys.readouterr().err


def run_cli(tmp_path, capsys, *argv):
    """(exit code, CSV rows, stderr) of one CLI run writing its CSV to a file."""
    out = tmp_path / "out.csv"
    code = cli.main([*argv, "--out", str(out)])
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    return code, rows, capsys.readouterr().err


def verdict_code(err: str) -> int:
    return cli.EXIT_OK if err.rstrip().endswith("PASS") else cli.EXIT_CHECK


COUNT_HEADER = [
    "experiment", "alpha", "beta", "k", "eps", "seed", "tau_hat", "x", "count",
    "main_term", "error", "bound", "ratio", "wall_ms",
]


def test_count_smoke(tmp_path, capsys):
    code, rows, _ = run_cli(tmp_path, capsys, "count", "--grid", "100:1000:10")
    assert code == cli.EXIT_OK
    assert rows[0] == COUNT_HEADER
    assert [r[7] for r in rows[1:]] == ["100", "1000"]


def test_fit_exponent_slope_is_the_fit_of_the_csv(tmp_path, capsys):
    code, rows, err = run_cli(tmp_path, capsys, "fit-exponent", "--grid", "1000:1000000:10")
    assert code == verdict_code(err)
    assert rows[0] == COUNT_HEADER
    table = [dict(zip(rows[0], r)) for r in rows[1:]]
    xs = [int(r["x"]) for r in table]
    assert xs == [1000, 10000, 100000, 1000000]
    slope, _, _ = cli.fit_loglog(xs, [float(r["error"]) for r in table])
    assert re.search(r"slope=(\S+)", err).group(1) == repr(slope)


def test_fit_exponent_defaults_give_four_points(tmp_path, capsys):
    code, rows, err = run_cli(tmp_path, capsys, "fit-exponent")
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK)
    assert code == verdict_code(err)
    assert [r[7] for r in rows[1:]] == ["1000", "10000", "100000", "1000000"]


def test_expsum_sweep_smoke(tmp_path, capsys):
    code, rows, _ = run_cli(
        tmp_path, capsys, "expsum-sweep", "--trials", "3", "--x-max", "2000", "--h-max", "3"
    )
    assert code == cli.EXIT_OK
    assert rows[0] == [
        "experiment", "k", "eps", "seed", "trial", "kind", "x", "H", "a", "q",
        "lhs", "rhs", "ratio", "hyperbola_gap", "wall_ms",
    ]
    assert len(rows) == 4


def test_discrepancy_smoke(tmp_path, capsys):
    code, rows, err = run_cli(tmp_path, capsys, "discrepancy", "--grid", "1000:4000:2")
    assert code == verdict_code(err)
    assert rows[0] == [
        "experiment", "alpha", "beta", "seed", "tau_hat", "M", "extreme", "star", "bound",
    ]
    assert [r[5] for r in rows[1:]] == ["1000", "2000", "4000"]


@pytest.mark.parametrize("grid, Ms", [("5000:5000:10", ["5000"]), ("5000:10:10", [])])
def test_discrepancy_below_two_points_has_no_slope(grid, Ms, tmp_path, capsys):
    code, rows, err = run_cli(tmp_path, capsys, "discrepancy", "--grid", grid)
    assert code == cli.EXIT_OK
    assert [r[5] for r in rows[1:]] == Ms
    assert "slope=nan" in err


def test_smoothing_check_smoke(tmp_path, capsys):
    code, rows, _ = run_cli(tmp_path, capsys, "smoothing-check", "--x", "1000")
    assert code == cli.EXIT_OK
    assert rows[0] == [
        "experiment", "alpha", "beta", "k", "x", "delta", "J", "check", "value",
        "bound", "status",
    ]
    assert [r[-1] for r in rows[1:]] == ["PASS"] * 5


@pytest.mark.parametrize("beta", ["0", "1/2", "3", "4"])
def test_smoothing_check_exact_equals_count(tmp_path, capsys, beta):
    # for phi, beta = 3 and 4 put members t_0, t_-1 below t_1 that the count
    # over n in [1, x] leaves out; the smoothed sum starts at t_1 too
    code, rows, _ = run_cli(tmp_path, capsys, "smoothing-check", f"--beta={beta}")
    assert code == cli.EXIT_OK
    row = next(r for r in rows if r[7] == "exact_vs_direct_count")
    assert row[8:] == ["0.0", "0.0", "PASS"]


@pytest.mark.parametrize("multiplier, says", [
    ("1e-4", "Delta=1e-05 (--delta-multiplier) needs J=1.013e+06 Fourier coefficients, "
             "1.459e+08 bytes (budget 16777216); that needs --memory-budget 140 (MiB)"),
    ("1e-30", "J=1.013e+32 Fourier coefficients, 1.459e+34 bytes (budget 16777216); "
              "that needs --memory-budget 1.391e+28 (MiB)"),
    ("1e-300", "J=1.013e+302 Fourier coefficients, 1.459e+304 bytes (budget 16777216); "
               "that needs --memory-budget 1.391e+298 (MiB)"),
    # a subnormal Delta: 1/(pi^2*Delta*0.01) overflows to inf before any ceil
    ("1e-320", "J=inf Fourier coefficients, inf bytes (budget 16777216); "
               "that needs --memory-budget inf (MiB)"),
])
def test_smoothing_check_charges_its_coefficients_to_the_budget(multiplier, says, capsys,
                                                                monkeypatch):
    def unbuilt(*args):
        raise AssertionError("coefficients built over the budget")

    monkeypatch.setattr(smoothing, "build_smoothed", unbuilt)
    argv = ["smoothing-check", "--x", "1000", "--delta-multiplier", multiplier]
    assert cli.main([*argv, "--memory-budget", "16"]) == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert "(--delta-multiplier)" in err and says in err
    assert len(err) < 250 and "Traceback" not in err


def multiplier_for_j(j: float, x: int = 1000, k: int = 2) -> str:
    """--delta-multiplier whose Delta gives default_truncation's j before its ceil."""
    delta = 1.0 / (np.pi**2 * 0.01 * j)
    return repr(delta / smoothing.default_delta(x, k))


def test_smoothing_check_fits_a_J_at_the_budget(tmp_path, capsys, monkeypatch):
    # J = ceil(j) coefficients fit 16 MiB up to j = at_budget; j = at_budget + 1/4
    # costs J = at_budget + 1 coefficients, though j itself would fit in bytes
    at_budget = (16 << 20) // smoothing.COEFF_BYTES
    assert (at_budget + 0.25) * smoothing.COEFF_BYTES < 16 << 20
    argv = ["smoothing-check", "--x", "1000", "--memory-budget", "16", "--delta-multiplier"]
    code, rows, _ = run_cli(tmp_path, capsys, *argv, multiplier_for_j(at_budget - 0.25))
    assert code == cli.EXIT_OK and {r[6] for r in rows[1:]} == {str(at_budget)}

    def unbuilt(*args):
        raise AssertionError("coefficients built over the budget")

    monkeypatch.setattr(smoothing, "build_smoothed", unbuilt)
    assert cli.main([*argv, multiplier_for_j(at_budget + 0.25)]) == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert f"needs J={at_budget + 1:.4g} Fourier coefficients" in err
    assert "that needs --memory-budget 17 (MiB)" in err


def test_smoothing_check_evaluates_the_series_in_one_call(tmp_path, capsys, monkeypatch):
    calls = []
    real = smoothing.eval_truncated_series

    def counting(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(smoothing, "eval_truncated_series", counting)
    code, rows, _ = run_cli(tmp_path, capsys, "smoothing-check", "--x", "1000")
    assert code == cli.EXIT_OK
    assert calls == [(2000, 0.5 / 2000)]


@pytest.mark.parametrize("argv", [["smoothing-check", "--x", "1000"],
                                  ["count", "--grid", "1000:1000:10"]])
def test_nonpositive_first_term_names_beta_and_t_1(argv, capsys):
    # for phi, beta = -7/10 gives t_1 = floor(phi - 0.7) = 0
    assert cli.main([*argv, "--beta=-7/10"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "alpha=quad:1,5,2, beta=-7/10" in err and "t_1 = floor(alpha + beta) = 0" in err
    assert "t_1 >= 1" in err


def simpson_by_direct_phases(gamma_f: float, delta: float, n: int,
                             panels: int = 1 << 14) -> np.ndarray:
    """The same composite Simpson rule, every phase e(-j x) from its own exp."""
    js = np.arange(1, n + 1)
    breaks = np.unique(
        np.clip([0.0, delta, gamma_f - delta, gamma_f + delta, 1.0 - delta, 1.0], 0.0, 1.0)
    )
    total = np.zeros(n, dtype=np.complex128)
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b - a < 1e-15:
            continue
        xs = np.linspace(a, b, 2 * panels + 1)
        weights = np.ones_like(xs)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        fx = smoothing._psi_values(np.mod(xs, 1.0), gamma_f, delta)
        phase = np.exp(-2j * np.pi * np.outer(js, xs))
        total += (b - a) / (6 * panels) * (phase @ (weights * fx))
    return total


@pytest.mark.parametrize("alpha, beta, k", [("quad:1,5,2", "0", 2), ("quad:0,2,1", "1/2", 3)])
def test_simpson_oracle_by_powers_matches_direct_phases(alpha, beta, k):
    # gamma and delta as smoothing-check forms them at x = 2**22
    spec, b = cfrac.parse_irrational(alpha), beatty.parse_beta(beta)
    gf = beatty.BeattyParams(spec, b, 192).gamma.to_float()
    delta = smoothing.admissible_delta(smoothing.default_delta(1 << 22, k), gf)
    by_powers = cli._simpson_coefficient(gf, delta, 48)
    assert np.max(np.abs(by_powers - simpson_by_direct_phases(gf, delta, 48))) <= 1e-13


def test_threads_is_a_usage_error(capsys):
    assert cli.main(["count", "--grid", "100:100:10", "--threads", "2"]) == cli.EXIT_USAGE
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["expsum-sweep", "--trials", "1", "--alpha", "quad:0,2,1"],
    ["discrepancy", "--grid", "100:100:10", "--k", "3"],
    ["smoothing-check", "--x", "100", "--grid", "100:100:10"],
    ["fit-exponent", "--grid", "100:100000:10", "--x", "100"],
    ["count", "--grid", "100:100:10", "--delta-multiplier", "2"],
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--k", "1"), ("--eps", "0")])
def test_out_of_range_value_names_its_flag(flag, value, capsys):
    assert cli.main(["count", "--grid", "100:100:10", flag, value]) == cli.EXIT_USAGE
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, limit", [
    (["smoothing-check", "--x", "0"], "--x", ">= 1"),
    (["expsum-sweep", "--x-max", "100"], "--x-max", ">= 200"),
    (["expsum-sweep", "--h-max", "0"], "--h-max", ">= 1"),
    (["expsum-sweep", "--trials", "-3"], "--trials", ">= 1"),
    (["smoothing-check", "--x", "1000", "--delta-multiplier", "0"], "--delta-multiplier", "> 0"),
    # the sieve keeps its values in int64 up to 2**62
    (["expsum-sweep", "--x-max", str(2**62 + 1)], "--x-max", f"<= {2**62}"),
    (["expsum-sweep", "--x-max", str(2**63)], "--x-max", f"<= {2**62}"),
])
def test_a_size_below_its_limit_names_the_flag_and_the_limit(argv, flag, limit, capsys):
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"argument {flag}: must be {limit}" in capsys.readouterr().err


def test_x_max_at_the_sieve_limit_reaches_the_budget(capsys):
    argv = ["expsum-sweep", "--trials", "1", "--x-max", str(2**62), "--out", os.devnull]
    assert cli.main(argv) == cli.EXIT_BUDGET
    assert "--memory-budget" in capsys.readouterr().err


def test_fit_exponent_below_four_points_names_the_grid_and_the_count(capsys):
    argv = ["fit-exponent", "--grid", "1000:10000:10", "--out", os.devnull]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "needs at least 4 --grid points, got 2 from '1000:10000:10'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count", "fit-exponent", "expsum-sweep", "discrepancy",
                                     "smoothing-check"])
@pytest.mark.parametrize("given_as", ["flag", "config key"])
def test_precision_bits_is_no_flag_and_no_config_key(command, given_as, tmp_path, capsys):
    # the bits follow the input: each certified decision escalates on its own
    argv = [command, "--precision-bits", "192"]
    says = "unrecognized arguments: --precision-bits 192"
    if given_as == "config key":
        config = tmp_path / "run.cfg"
        config.write_text("precision_bits = 192\n")
        argv = [command, "--config", str(config)]
        says = f"{config}: key 'precision_bits' (--precision-bits) is not an option of {command}"
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert says in err and (given_as == "flag") == ("unrecognized" in err)


def test_out_of_memory_is_exhausted_and_names_the_subcommand(monkeypatch, capsys):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(discrepancy, "decay_fit", no_memory)
    argv = ["discrepancy", "--grid", "1e12:1e12:10", "--out", os.devnull]
    assert cli.main(argv) == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert err == ("budget/precision exhausted: discrepancy ran out of memory: "
                   "Unable to allocate 7.28 TiB for an array\n")


@pytest.mark.parametrize("command", ["count", "fit-exponent", "expsum-sweep", "smoothing-check"])
@pytest.mark.parametrize("mib", ["0", "-1"])
def test_a_budget_below_one_mib_names_the_flag_and_the_limit(command, mib, capsys):
    assert cli.main([command, f"--memory-budget={mib}"]) == cli.EXIT_USAGE
    assert f"argument --memory-budget: must be >= 1 (MiB), got {mib}" in capsys.readouterr().err


def test_discrepancy_of_a_coarse_alpha_is_exhausted(tmp_path, capsys):
    # alpha = 3.14159 +- 2**-20 puts no point within the kernel's 2**-54
    out = tmp_path / "d.csv"
    argv = ["discrepancy", "--alpha", "dec:3.14159:20", "--grid", "1000:1000000:10"]
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "M=1000000 for alpha=dec:3.14159:20" in err and "certified within 0.954" in err
    assert not out.exists()


def run_module(*argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, under a timeout, so that a loop that
    never ends fails the test instead of hanging the suite."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "beatty_kfree.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)


@pytest.mark.parametrize("command", ["count", "discrepancy"])
@pytest.mark.parametrize("grid, says", [
    ("0:10:2", "start must be finite and >= 1, got 0"),
    ("-5:10:2", "start must be finite and >= 1, got -5"),
    ("inf:1e9:2", "start must be finite and >= 1, got inf"),
    ("1:inf:2", "stop must be finite, got inf"),
])
def test_a_grid_start_below_one_or_an_infinite_limit_is_a_usage_error(command, grid, says):
    proc = run_module(command, f"--grid={grid}")
    assert proc.returncode == cli.EXIT_USAGE
    assert f"--grid {grid!r}: {says}" in proc.stderr


@pytest.mark.parametrize("form", ["--config PATH", "--config=PATH"])
def test_config_file_values_apply_and_flags_override_them(form, tmp_path, capsys):
    config = tmp_path / "count.cfg"
    config.write_text("# count config\nalpha = quad:0,2,1\ngrid=100:1000:10\nk=3\n")
    flags = form.replace("PATH", str(config)).split()
    code, rows, _ = run_cli(tmp_path, capsys, "count", *flags, "--k", "2")
    assert code == cli.EXIT_OK
    table = [dict(zip(rows[0], r)) for r in rows[1:]]
    assert [(r["alpha"], r["k"], r["x"]) for r in table] == [
        ("quad:0,2,1", "2", "100"), ("quad:0,2,1", "2", "1000"),
    ]


def test_config_key_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "discrepancy.cfg"
    config.write_text("grid=100:100:10\nk=3\n")
    assert cli.main(["discrepancy", "--config", str(config)]) == cli.EXIT_USAGE
    assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["count", "--config"], ["count", "--config", "missing.cfg"]])
def test_config_without_a_readable_file_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("value, filled", [("1", True), ("0", False)])
def test_config_file_sets_a_store_true_flag_by_1_or_0(value, filled, tmp_path, capsys):
    config = tmp_path / "count.cfg"
    config.write_text(f"grid=100:100:10\ntimings={value}\n")
    code, rows, _ = run_cli(tmp_path, capsys, "count", "--config", str(config))
    assert code == cli.EXIT_OK
    assert (rows[1][-1] != "") == filled


def test_config_file_store_true_flag_rejects_other_values(tmp_path, capsys):
    config = tmp_path / "count.cfg"
    config.write_text("grid=100:100:10\ntimings=yes\n")
    assert cli.main(["count", "--config", str(config)]) == cli.EXIT_USAGE
    assert "'timings'" in capsys.readouterr().err
