"""Golden CSVs: the experiment subcommands at fixed configs, byte for byte.

Each case runs cli.main in-process and compares its CSV with
tests/golden/<name>.csv and its exit code with the table below. A deliberate
CSV change rewrites the goldens with

    PYTHONPATH=src python tests/test_golden_csv.py

and is named in CHANGES.md.
"""
import sys
from pathlib import Path

import pytest

from beatty_kfree import cli

GOLDEN = Path(__file__).parent / "golden"
PI = "dec:3.1415926535897932384626433832795028841971693993751058209749445923:180"

CASES = {
    "count": (["count"], cli.EXIT_OK),
    "fit_exponent": (["fit-exponent"], cli.EXIT_CHECK),
    "discrepancy": (["discrepancy"], cli.EXIT_OK),
    "smoothing_check": (["smoothing-check"], cli.EXIT_OK),
    "expsum_sweep": (["expsum-sweep", "--trials", "10", "--x-max", "30000", "--seed", "1"],
                     cli.EXIT_OK),
    "count_sqrt2_k3": (["count", "--alpha", "quad:0,2,1", "--beta=1/2", "--k", "3"], cli.EXIT_OK),
    "count_dec_pi": (["count", "--alpha", PI, "--beta=-7/10", "--grid", "1000:1000000:10"],
                     cli.EXIT_OK),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_and_exit_code_match_golden(name, tmp_path, capsys):
    argv, code = CASES[name]
    out = tmp_path / f"{name}.csv"
    assert cli.main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, code) in CASES.items():
        got = cli.main([*argv, "--out", str(GOLDEN / f"{name}.csv")])
        if got != code:
            print(f"{name}: exit code {got}, table says {code}", file=sys.stderr)
