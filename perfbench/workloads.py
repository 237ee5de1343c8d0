"""The benchmark's workloads: fixed op lists over beatty_kfree's public API.

An op is one CLI invocation (cli.main with --out set) or one direct library
call or batch of calls. Its run() does the timed work and returns the raw
output; its check() compares that output with an independent reference
from reference.py and returns None, or the reason the op failed. Every
call goes through a module attribute (cli.main, beatty.beatty_term, ...)
so that the tracer's patches see it.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import reference
from beatty_kfree import beatty, cfrac, cli, discrepancy, kfree

COUNT_CONFIGS = (
    ("quad:1,5,2", "0", 2),
    ("quad:0,2,1", "1/2", 3),
    (f"dec:{reference.PI_64}:180", "-7/10", 2),
)
SMOOTHING_CONFIGS = (("quad:1,5,2", "0", 2), ("quad:0,2,1", "1/2", 3))
DISCREPANCY_CONFIGS = (("quad:1,5,2", "0"), ("quad:0,2,1", "1/2"))
BLOCK_CONFIGS = (("quad:1,5,2", "0"), ("quad:0,2,1", "1/2"))
BIG_ALPHA = "quad:0,200000000000000,1"
SCALAR_SPECS = (
    "quad:1,5,2",
    "quad:0,2,1",
    BIG_ALPHA,
    "cf:1," + ",".join(["1", "2"] * 40),
    f"dec:{reference.E_64}:200",
)
SCALAR_BETAS = ("0", "1/2", "-7/10", "3", "-2")

SETUP_CONFIGS = {
    "count": COUNT_CONFIGS,
    "expsum": (("quad:1,5,2", "0", 2),),  # the CLI defaults
    "membership": SMOOTHING_CONFIGS,
}

# "full" is what the benchmark measures; "small" is the shrunken list the
# self-tests run. Grids are (start exponent, stop exponent) of powers of 2.
SIZES = {
    "full": {
        "count_grid": (20, 24),
        "count_kfree": ((10**12, 2), (10**15, 3)),
        "expsum": (40, 300000, 30),
        "smoothing_x": 1 << 22,
        "disc_grid": (18, 22),
        "block": 1 << 20,
        "big_alpha_n": 1 << 30,
        "scalar_queries": 20000,
        "sample": 4096,
    },
    "small": {
        "count_grid": (10, 12),
        "count_kfree": ((10**6, 2), (10**6, 3)),
        "expsum": (4, 3000, 5),
        "smoothing_x": 1 << 12,
        "disc_grid": (10, 12),
        "block": 1 << 12,
        "big_alpha_n": 1 << 30,
        "scalar_queries": 150,
        "sample": 64,
    },
}
BLOCK_STARTS = (1 << 32, 1 << 36, 1 << 40)
BORDER_TOL = 1e-5  # block entries this close to a border are re-checked one by one
ORACLE_PREFIX = 2000
REL_TOL = 1e-9  # count float columns: main_term, error, bound, ratio
EXPSUM_REL_TOL = 1e-6  # expsum ratio and lhs against the independent sum


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


@dataclass(frozen=True)
class CliOutput:
    code: int
    csv: str
    stderr: str


def grid(lo_exp: int, hi_exp: int) -> list[int]:
    return [1 << e for e in range(lo_exp, hi_exp + 1)]


def setup(workload: str) -> None:
    """What every CLI invocation pays before its first grid point."""
    for spec, beta, k in SETUP_CONFIGS[workload]:
        alpha = cfrac.parse_irrational(spec)
        beatty.BeattyParams(alpha, beatty.parse_beta(beta))
        kfree.zeta(k)
        cfrac.estimate_type(alpha, 10**6)


def digest(out: Any) -> str:
    """A stable fingerprint of an op's output, for traced/untraced comparison."""
    h = hashlib.sha256()
    if isinstance(out, np.ndarray):
        h.update(str(out.dtype).encode())
        h.update(out.tobytes())
    else:
        h.update(repr(out).encode())
    return h.hexdigest()[:16]


def build(workload: str, seed: int, size: str, tmp_dir: str) -> list[Op]:
    """The workload's op list for this seed, with references ready."""
    make_ops = {"count": _count_ops, "expsum": _expsum_ops, "membership": _membership_ops}
    return make_ops[workload](SIZES[size], size, seed, tmp_dir)


def known_defects(workload: str, seed: int, size: str) -> list[Op]:
    """Ops that fail at this commit, kept out of the timed, checked list.

    Each is run and checked once per run and its failure is reported apart,
    so the defect stays visible while the workload's own ops all pass.
    """
    if workload != "membership":
        return []
    sz = SIZES[size]
    rng = np.random.default_rng([seed, 1])
    # The float64 integer part is wrong for about half of the entries at
    # this size (see README.md).
    return [_terms_block_op(BIG_ALPHA, "0", sz["big_alpha_n"], sz["block"], rng, sz["sample"])]


def _run_cli(argv: list[str], path: str) -> CliOutput:
    if os.path.exists(path):
        os.remove(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out", path])
    text = ""
    if os.path.exists(path):
        with open(path) as f:
            text = f.read()
    return CliOutput(code, text, err.getvalue())


def _exit_problem(out: CliOutput, expected: int = 0) -> "str | None":
    if out.code == expected:
        return None
    tail = out.stderr.strip().splitlines()[-1:] or [""]
    return f"exit {out.code} (reference verdict exit {expected}): {tail[0][:200]}"


def _close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want) + abs_tol


# --- count -----------------------------------------------------------------

def _count_ops(sz, size, seed, tmp_dir) -> list[Op]:
    xs = grid(*sz["count_grid"])
    refs = reference.load_refs() if size == "full" else None
    ops = []
    for i, (spec, beta, k) in enumerate(COUNT_CONFIGS):
        if refs is not None:
            counts = refs["count"][f"{spec}|{beta}|{k}"]
        else:
            counts = reference.beatty_kfree_counts(spec, beta, k, xs)
        argv = ["count", "--alpha", spec, f"--beta={beta}", "--k", str(k),
                "--grid", f"{xs[0]}:{xs[-1]}:2", "--seed", str(seed)]
        path = os.path.join(tmp_dir, f"count{i}.csv")
        tau = reference.tau_hat(spec)
        ops.append(Op(
            f"cli count {spec[:16]} beta={beta} k={k}",
            lambda argv=argv, path=path: _run_cli(argv, path),
            lambda out, spec=spec, k=k, counts=counts, tau=tau: _check_count(out, spec, k, xs, counts, tau),
        ))
    for x, k in sz["count_kfree"]:
        want = refs["count_kfree"][f"{x}|{k}"] if refs is not None else reference.count_kfree(x, k)
        ops.append(Op(
            f"kfree.count_kfree({x}, {k})",
            lambda x=x, k=k: kfree.count_kfree(x, k),
            lambda out, x=x, k=k, want=want: _check_kfree_count(out, x, k, want),
        ))
    return ops


def _check_count(out: CliOutput, spec, k, xs, counts, tau) -> "str | None":
    problem = _exit_problem(out)
    if problem:
        return problem
    rows = list(csv.DictReader(io.StringIO(out.csv)))
    if [int(r["x"]) for r in rows] != xs:
        return f"grid {[r['x'] for r in rows]} != {xs}"
    eps = 0.05
    for r, want in zip(rows, counts):
        x = int(r["x"])
        if r["alpha"] != spec or int(r["k"]) != k:
            return f"row echoes alpha={r['alpha']} k={r['k']}"
        if int(r["count"]) != want:
            return f"count at x={x} is {r['count']}, reference {want}"
        main = x / reference.ZETA[k]
        err = want - main
        bound = x ** (k / (2.0 * k - 1.0) + eps) + x ** (1.0 - 1.0 / (tau + 1.0) + eps)
        for col, ref in (("tau_hat", tau), ("main_term", main), ("bound", bound),
                         ("ratio", abs(err) / bound)):
            if not _close(float(r[col]), ref, REL_TOL):
                return f"{col} at x={x} is {r[col]}, reference {ref!r}"
        if not _close(float(r["error"]), err, 0.0, REL_TOL * main):
            return f"error at x={x} is {r['error']}, reference {err!r}"
    return None


def _check_kfree_count(out, x, k, want) -> "str | None":
    count, main, err = out
    if count != want:
        return f"count {count}, reference {want}"
    if not _close(main, x / reference.ZETA[k], REL_TOL):
        return f"main term {main!r}, reference {x / reference.ZETA[k]!r}"
    if not _close(err, count - main, 0.0, 1e-6 * max(1.0, abs(err))):
        return f"error {err!r} != count - main"
    return None


# --- expsum ----------------------------------------------------------------

def _expsum_ops(sz, size, seed, tmp_dir) -> list[Op]:
    trials, x_max, h_max = sz["expsum"]
    if size == "full":
        refs = reference.load_refs()
        cli_seed = refs["expsum_seeds"][seed % len(refs["expsum_seeds"])]
        want = refs["expsum"][str(cli_seed)]
    else:
        cli_seed = seed
        want = reference.expsum_trials(cli_seed, trials, x_max, h_max)
    argv = ["expsum-sweep", "--trials", str(trials), "--x-max", str(x_max),
            "--h-max", str(h_max), "--seed", str(cli_seed)]
    path = os.path.join(tmp_dir, "expsum.csv")
    return [Op(
        f"cli expsum-sweep seed={cli_seed}",
        lambda: _run_cli(argv, path),
        lambda out: _check_expsum(out, want),
    )]


def _check_expsum(out: CliOutput, want: list[dict]) -> "str | None":
    problem = _exit_problem(out)  # the reference verdict is PASS: every ratio is finite
    if problem:
        return problem
    rows = list(csv.DictReader(io.StringIO(out.csv)))
    if len(rows) != len(want):
        return f"{len(rows)} trials, reference {len(want)}"
    for r, w in zip(rows, want):
        t = r["trial"]
        if (r["kind"], int(r["x"]), int(r["H"]), int(r["a"]), int(r["q"])) != (
                w["kind"], w["x"], w["H"], w["a"], w["q"]):
            return f"trial {t} inputs {r['kind']},{r['x']},{r['H']},{r['a']},{r['q']} differ from the replay"
        gap = float(r["hyperbola_gap"])
        if not (math.isfinite(gap) and gap <= 1e-6):
            return f"trial {t}: naive and hyperbola sums differ by {gap!r}"
        if not _close(float(r["lhs"]), w["lhs"], EXPSUM_REL_TOL, 1e-9):
            return f"trial {t}: lhs {r['lhs']}, reference {w['lhs']!r}"
        if not _close(float(r["ratio"]), w["ratio"], EXPSUM_REL_TOL, 1e-15):
            return f"trial {t}: ratio {r['ratio']}, reference {w['ratio']!r}"
    return None


# --- membership --------------------------------------------------------------

def _membership_ops(sz, size, seed, tmp_dir) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for i, (spec, beta, k) in enumerate(SMOOTHING_CONFIGS):
        argv = ["smoothing-check", "--alpha", spec, f"--beta={beta}", "--k", str(k),
                "--x", str(sz["smoothing_x"])]
        path = os.path.join(tmp_dir, f"smoothing{i}.csv")
        ops.append(Op(f"cli smoothing-check {spec} beta={beta} k={k}",
                      lambda argv=argv, path=path: _run_cli(argv, path), _check_smoothing))

    Ms = grid(*sz["disc_grid"])
    stored = reference.load_refs()["discrepancy"] if size == "full" else None
    for i, (spec, beta) in enumerate(DISCREPANCY_CONFIGS):
        if stored is not None:
            want = stored[f"{spec}|{beta}"]
        else:
            want = reference.discrepancy_rows(spec, beta, Ms)
        argv = ["discrepancy", "--alpha", spec, f"--beta={beta}",
                "--grid", f"{Ms[0]}:{Ms[-1]}:2", "--seed", str(seed)]
        path = os.path.join(tmp_dir, f"discrepancy{i}.csv")
        ops.append(Op(
            f"cli discrepancy {spec} beta={beta}",
            lambda argv=argv, path=path: _run_cli(argv, path),
            lambda out, spec=spec, beta=beta, want=want: _check_discrepancy(out, spec, beta, want),
        ))

    length = sz["block"]
    for spec, beta in BLOCK_CONFIGS:
        for start in BLOCK_STARTS:
            ops.append(_member_block_op(spec, beta, start, length, rng, sz["sample"]))
            ops.append(_terms_block_op(spec, beta, start, length, rng, sz["sample"]))

    per_fn = sz["scalar_queries"] // 3
    for fn in ("beatty_term", "is_member", "member_witness"):
        ops.append(_scalar_op(fn, per_fn, rng))
    return ops


def _check_smoothing(out: CliOutput) -> "str | None":
    problem = _exit_problem(out)
    if problem:
        return problem
    rows = list(csv.DictReader(io.StringIO(out.csv)))
    names = [r["check"] for r in rows]
    if names != ["coefficient_quadrature", "coefficient_bound", "series_tail",
                 "smoothing_error_vs_exceptional", "exact_vs_direct_count"]:
        return f"checks {names}"
    failing = [r["check"] for r in rows if r["status"] != "PASS"]
    return f"rows not PASS: {failing}" if failing else None


def _check_discrepancy(out: CliOutput, spec, beta, want) -> "str | None":
    tau = reference.tau_hat(spec)
    slope = float(np.polyfit(np.log(want["M"]), np.log(want["extreme"]), 1)[0])
    problem = _exit_problem(out, 0 if slope <= -1.0 / tau + 0.15 else 1)
    if problem:
        return problem
    rows = list(csv.DictReader(io.StringIO(out.csv)))
    if [int(r["M"]) for r in rows] != want["M"]:
        return f"M column {[r['M'] for r in rows]} != {want['M']}"
    for r, ext, star in zip(rows, want["extreme"], want["star"]):
        if not _close(float(r["tau_hat"]), tau, 1e-12):
            return f"tau_hat {r['tau_hat']}, reference {tau!r}"
        for col, ref in (("extreme", ext), ("star", star)):
            if not _close(float(r[col]), ref, 1e-6, 1e-15):
                return f"{col} at M={r['M']} is {r[col]}, reference {ref!r}"
    ps = discrepancy.build_pointset(cfrac.parse_irrational(spec), beatty.parse_beta(beta), ORACLE_PREFIX)
    fast = discrepancy.extreme_discrepancy(ps).extreme
    oracle = discrepancy.extreme_discrepancy_oracle(ps.points)
    if abs(fast - oracle) > 1e-12:
        return f"fast scan {fast!r} != oracle {oracle!r} on {ORACLE_PREFIX} points"
    return None


def _params(spec: str, beta: str) -> beatty.BeattyParams:
    return beatty.BeattyParams(cfrac.parse_irrational(spec), beatty.parse_beta(beta))


def _sample(rng, length, size) -> np.ndarray:
    return np.sort(rng.choice(length, size=min(size, length), replace=False))


def _terms_block_op(spec, beta, n0, length, rng, sample) -> Op:
    alpha, b = reference.Alpha(spec), Fraction(beta)
    want = reference.terms_block(alpha, b, n0, length)
    idx = np.union1d(reference.terms_near_border(alpha, b, n0, length, BORDER_TOL),
                     _sample(rng, length, sample))
    checker = _params(spec, beta)

    def check(out):
        return _compare_block(out, want, idx, lambda i: beatty.beatty_term(checker, n0 + i),
                              "terms", "beatty_term")

    return Op(f"beatty_terms_block {spec} beta={beta} n=2^{n0.bit_length() - 1}",
              lambda: beatty.beatty_terms_block(_params(spec, beta), n0, n0 + length - 1), check)


def _member_block_op(spec, beta, m0, length, rng, sample) -> Op:
    alpha, b = reference.Alpha(spec), Fraction(beta)
    want = reference.member_flags_block(alpha, b, m0, length)
    idx = np.union1d(reference.members_near_border(alpha, b, m0, length, BORDER_TOL),
                     _sample(rng, length, sample))
    checker = _params(spec, beta)

    def check(out):
        return _compare_block(out, want, idx, lambda i: beatty.is_member(checker, m0 + i),
                              "flags", "is_member")

    return Op(f"member_flags_block {spec} beta={beta} m=2^{m0.bit_length() - 1}",
              lambda: beatty.member_flags_block(_params(spec, beta), m0, m0 + length - 1), check)


def _compare_block(out, want, idx, scalar, what, scalar_name) -> "str | None":
    if out.shape != want.shape:
        return f"shape {out.shape}, reference {want.shape}"
    wrong = int(np.count_nonzero(out != want))
    scalar_wrong = sum(1 for i in idx.tolist() if scalar(i) != out[i])
    if wrong or scalar_wrong:
        return (f"{wrong} of {len(want)} {what} differ from the exact reference; "
                f"{scalar_wrong} of {len(idx)} checked entries differ from {scalar_name}")
    return None


def _scalar_op(fn_name: str, count: int, rng) -> Op:
    """A seeded batch over quad, cf: and dec: alpha, integer beta included."""
    alphas = [reference.Alpha(spec) for spec in SCALAR_SPECS]
    queries, want = [], []
    for _ in range(count):
        s = int(rng.integers(len(SCALAR_SPECS)))
        j = int(rng.integers(len(SCALAR_BETAS)))
        b = Fraction(SCALAR_BETAS[j])
        if fn_name == "beatty_term":
            v = int(2.0 ** rng.uniform(0.0, 40.0)) - 1
        elif b.denominator == 1 and b >= 2 and rng.random() < 0.125:
            v = int(b) - int(rng.integers(2))  # the exact collisions m = beta, m = beta - 1
        else:
            v = int(2.0 ** rng.uniform(0.0, 40.0))
        alpha = alphas[s]
        if fn_name == "beatty_term":
            want.append(alpha.term(v, b))
        else:
            w = alpha.witness(v, b)
            want.append(w is not None if fn_name == "is_member" else w)
        queries.append((s, j, v))

    def run():
        fn = getattr(beatty, fn_name)
        params = {}
        out = []
        for s, j, v in queries:
            p = params.get((s, j))
            if p is None:
                p = params[(s, j)] = _params(SCALAR_SPECS[s], SCALAR_BETAS[j])
            out.append(fn(p, v))
        return out

    def check(out):
        wrong = [q for q, got, ref in zip(queries, out, want) if got != ref]
        if wrong:
            s, j, v = wrong[0]
            return (f"{len(wrong)} of {len(queries)} differ, first {SCALAR_SPECS[s][:16]} "
                    f"beta={SCALAR_BETAS[j]} at {v}")
        return None

    return Op(f"{fn_name} x{count}", run, check)
