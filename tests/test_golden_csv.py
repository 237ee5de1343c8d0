"""Golden CSVs: the experiment subcommands at fixed configs, byte for byte.

Each case runs cli.main in-process and compares its CSV with
tests/golden/<name>.csv and its exit code with the table below. A deliberate
CSV change rewrites the goldens with

    PYTHONPATH=src python tests/test_golden_csv.py

which prints, per golden, "unchanged" or the dropped and added columns and
each changed column with its largest absolute and relative change, for the
CHANGES.md entry that names it.
"""
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
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
    "count_reach_phi": (["count", "--grid", "1e9:1e11:10"], cli.EXIT_OK),
    "count_reach_dec_pi": (["count", "--alpha", PI, "--beta=-7/10", "--grid", "1e9:1e11:10"],
                           cli.EXIT_OK),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_and_exit_code_match_golden(name, tmp_path, capsys):
    argv, code = CASES[name]
    out = tmp_path / f"{name}.csv"
    assert cli.main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()



@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("threads", ["1", None])
def test_expsum_golden_does_not_depend_on_blas_threads(threads, name, tmp_path):
    # a BLAS product may order its sums by thread count (the naive double sum
    # is one); perfbench pins the threads to 1, the goldens are written unset
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if threads is not None:
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    argv, code = CASES[name]
    out = tmp_path / f"{name}.csv"
    proc = subprocess.run([sys.executable, "-m", "beatty_kfree.cli", *argv, "--out", str(out)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == code, proc.stderr
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def column_changes(old: str, new: str) -> list[str]:
    """What differs between two CSV texts with the same row count, columns
    matched by name: a line for the dropped and one for the added columns,
    then one per shared column that differs, with the cells changed and, for
    numbers, the largest absolute and relative change."""
    old_rows, new_rows = (list(csv.reader(io.StringIO(t))) for t in (old, new))
    if len(old_rows) != len(new_rows):
        return [f"row count changed: {len(old_rows)} -> {len(new_rows)} lines"]
    old_cols, new_cols = old_rows[0], new_rows[0]
    lines = []
    for what, cols, others in (("dropped", old_cols, new_cols), ("added", new_cols, old_cols)):
        if gone := [c for c in cols if c not in others]:
            lines.append(f"{what} columns: {', '.join(gone)}")
    shared = [c for c in new_cols if c in old_cols]
    if shared != [c for c in old_cols if c in new_cols]:
        lines.append("shared columns reordered")
    for col in shared:
        i, j = old_cols.index(col), new_cols.index(col)
        pairs = [(a[i], b[j]) for a, b in zip(old_rows[1:], new_rows[1:]) if a[i] != b[j]]
        if not pairs:
            continue
        try:
            nums = [(float(a), float(b)) for a, b in pairs]
        except ValueError:
            lines.append(f"{col}: {len(pairs)} cells changed")
            continue
        max_abs = max(abs(b - a) for a, b in nums)
        max_rel = max(abs(b - a) / abs(a) if a else math.inf for a, b in nums)
        lines.append(f"{col}: {len(pairs)} cells, max abs change {max_abs:.3g}, "
                     f"max rel change {max_rel:.3g}")
    return lines


def test_column_changes_names_each_changed_column():
    old = "x,lhs,kind\n1,2.0,a\n2,4.0,b\n"
    assert column_changes(old, old) == []
    assert column_changes(old, "x,lhs,kind\n1,2.0,a\n2,5.0,c\n") == [
        "lhs: 1 cells, max abs change 1, max rel change 0.25", "kind: 1 cells changed"]
    assert column_changes(old, "x,kind\n1,a\n2,b\n") == ["dropped columns: lhs"]
    assert column_changes(old, "q,x,kind\n7,1,a\n8,2,c\n") == [
        "dropped columns: lhs", "added columns: q", "kind: 1 cells changed"]
    assert column_changes(old, "kind,x,lhs\na,1,2.0\nb,2,4.0\n") == ["shared columns reordered"]
    assert column_changes(old, "x,lhs\n1,2.0\n") == ["row count changed: 3 -> 2 lines"]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, code) in CASES.items():
            new_path, path = Path(tmp) / f"{name}.csv", GOLDEN / f"{name}.csv"
            got = cli.main([*argv, "--out", str(new_path)])
            if got != code:
                print(f"{name}: exit code {got}, table says {code}", file=sys.stderr)
            new = new_path.read_bytes()
            old = path.read_bytes() if path.exists() else None
            if old is None:
                print(f"{name}.csv: new")
            elif old == new:
                print(f"{name}.csv: unchanged")
            else:
                print(f"{name}.csv: changed")
                for line in column_changes(old.decode(), new.decode()):
                    print(f"  {line}")
            path.write_bytes(new)
