"""Command-line driver wiring the modules into reproducible experiments.

Subcommands: count | fit-exponent | expsum-sweep | discrepancy |
smoothing-check. Every CSV row echoes the parameters needed to
reproduce it; identical config + seed give byte-identical output.
No option sets the working precision: every certified decision starts at
fixed.DEFAULT_BITS and doubles its bits until it is certified, and the
discrepancy points refuse an alpha whose own certified error is too coarse
for M (discrepancy.build_pointset).
Exit codes: 0 success, 1 check failure, 2 usage error, 3 budget/precision
exhaustion.
"""
from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import time
from contextlib import nullcontext
from fractions import Fraction

import numpy as np

from . import beatty, cfrac, discrepancy, expsums, kfree, smoothing
from .errors import DegenerateFit, MemoryBudgetExceeded, PrecisionExhausted
from .fixed import DEFAULT_BITS, FixedReal

EXIT_OK, EXIT_CHECK, EXIT_USAGE, EXIT_BUDGET = 0, 1, 2, 3


def parse_grid(spec: str) -> list[int]:
    """Geometric integer grid from --grid 'start:stop:ratio' (empty when
    start > stop). A start below 1 gives points below 1 or never reaches the
    stop, and an infinite limit ends in rounding infinity, so both are
    rejected."""
    try:
        start_s, stop_s, ratio_s = spec.split(":")
        start, stop, ratio = float(start_s), float(stop_s), float(ratio_s)
    except ValueError as e:
        raise ValueError(f"bad --grid {spec!r}; expected start:stop:ratio") from e
    if not (math.isfinite(start) and start >= 1.0):
        raise ValueError(f"bad --grid {spec!r}: start must be finite and >= 1, got {start_s}")
    if not math.isfinite(stop):
        raise ValueError(f"bad --grid {spec!r}: stop must be finite, got {stop_s}")
    if not ratio > 1.0:
        raise ValueError(f"bad --grid {spec!r}: ratio must exceed 1, got {ratio_s}")
    out: list[int] = []
    v = start
    while v <= stop * (1.0 + 1e-12):
        n = round(v)
        if not out or n > out[-1]:
            out.append(int(n))
        v *= ratio
    return out


def fit_loglog(xs, errors) -> tuple[float, float, bool]:
    """OLS slope/intercept of log|error| vs log x on the nonzero errors.

    Raises DegenerateFit when no nonzero errors remain; flags (third value)
    when at least half of the errors were zero and the fit used a subset.
    """
    xs = np.asarray(xs, dtype=np.float64)
    errs = np.abs(np.asarray(errors, dtype=np.float64))
    nz = errs > 0
    if not np.any(nz):
        raise DegenerateFit("all errors are zero")
    degenerate = np.count_nonzero(~nz) * 2 >= len(errs)
    slope, intercept = np.polyfit(np.log(xs[nz]), np.log(errs[nz]), 1)
    return float(slope), float(intercept), bool(degenerate)


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    """The header and rows as CSV to path, or to stdout for None or '-'."""
    to_stdout = path is None or path == "-"
    with nullcontext(sys.stdout) if to_stdout else open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _int_in(low: int, high: float = math.inf):
    """argparse type for an integer flag whose error names the limit it breaks."""
    def parse(text: str) -> int:
        v = int(text)
        if v < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {v}")
        if v > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {v}")
        return v
    parse.__name__ = "int"  # argparse says "invalid int value" for a non-integer
    return parse


def _positive_float(text: str) -> float:
    """argparse type for a float flag that must exceed 0."""
    v = float(text)
    if not v > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {v!r}")
    return v


def _mib_to_bytes(text: str) -> int:
    """argparse type for --memory-budget: whole MiB, at least 1, in bytes."""
    mib = int(text)
    if mib < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (MiB), got {mib}")
    return mib << 20


_SWEEP_X_MIN = 200  # expsum-sweep draws x from [_SWEEP_X_MIN, --x-max]

# Every flag of the CLI; each subcommand adds the ones its handler reads.
_FLAGS = {
    "alpha": dict(default="quad:1,5,2", help=cfrac.ALPHA_FORMS),
    "beta": dict(default="0", help="exact rational, e.g. 0, 1/2, -0.7"),
    "k": dict(type=_int_in(2), default=2),
    "grid": dict(default="1000:1000000:10", help="geometric grid start:stop:ratio"),
    "eps": dict(type=_positive_float, default=0.05),
    "delta-multiplier": dict(type=_positive_float, default=1.0),
    "seed": dict(type=int, default=0),
    "memory-budget": dict(type=_mib_to_bytes, default="256", dest="memory_bytes",
                          metavar="MIB", help="MiB for sieve windows and Fourier coefficients"),
    "out": dict(default=None, help="CSV output path (default stdout)"),
    "timings": dict(action="store_true", help="fill the wall_ms column (breaks byte reproducibility)"),
    "trials": dict(type=_int_in(1), default=100),
    "x-max": dict(type=_int_in(_SWEEP_X_MIN, kfree.MAX_COUNT_X), default=100000),
    "h-max": dict(type=_int_in(1), default=30),
    "x": dict(type=_int_in(1), default=10000),
}


def _count_rows(args):
    spec = cfrac.parse_irrational(args.alpha)
    params = beatty.BeattyParams(spec, beatty.parse_beta(args.beta))
    tau = cfrac.estimate_type(spec, 10**6)
    exp_bound = max(args.k / (2.0 * args.k - 1.0), 1.0 - 1.0 / (tau + 1.0))
    rows = []
    for x in parse_grid(args.grid):
        t0 = time.perf_counter()
        count, main, err = beatty.count_kfree_beatty(params, x, args.k, args.memory_bytes)
        bound = x ** (args.k / (2.0 * args.k - 1.0) + args.eps) + x ** (1.0 - 1.0 / (tau + 1.0) + args.eps)
        wall = f"{(time.perf_counter() - t0) * 1e3:.1f}" if args.timings else ""
        rows.append(
            [
                "count", args.alpha, args.beta, args.k, _fmt(args.eps), args.seed,
                _fmt(tau), x, count, _fmt(main), _fmt(err), _fmt(bound),
                _fmt(abs(err) / bound), wall,
            ]
        )
    return rows, tau, exp_bound


_COUNT_HEADER = [
    "experiment", "alpha", "beta", "k", "eps", "seed", "tau_hat", "x",
    "count", "main_term", "error", "bound", "ratio", "wall_ms",
]


def cmd_count(args) -> int:
    _write_csv(args.out, _COUNT_HEADER, _count_rows(args)[0])
    return EXIT_OK


def cmd_fit_exponent(args) -> int:
    grid = parse_grid(args.grid)
    if len(grid) < 4:
        raise ValueError(f"fit-exponent needs at least 4 --grid points, "
                         f"got {len(grid)} from {args.grid!r}")
    rows, tau, exp_bound = _count_rows(args)
    x_col, err_col = _COUNT_HEADER.index("x"), _COUNT_HEADER.index("error")
    xs = [row[x_col] for row in rows]
    errs = [float(row[err_col]) for row in rows]
    slope, intercept, degenerate = fit_loglog(xs, errs)
    threshold = exp_bound + 0.1
    ok = slope <= threshold
    _write_csv(args.out, _COUNT_HEADER, rows)
    print(
        f"fit-exponent slope={slope!r} intercept={intercept!r} "
        f"threshold={threshold!r} tau_hat={tau!r} "
        f"degenerate={degenerate} {'PASS' if ok else 'FAIL'}",
        file=sys.stderr,
    )
    return EXIT_OK if ok else EXIT_CHECK


_SWEEP_HEADER = [
    "experiment", "k", "eps", "seed", "trial", "kind", "x", "H", "a", "q",
    "lhs", "rhs", "ratio", "hyperbola_gap", "wall_ms",
]


def _sweep_theta(rng: np.random.Generator, trial: int, x: int):
    pool = [cfrac.SQRT2, cfrac.PHI, cfrac.SQRT3, cfrac.QuadraticIrrational(7, 2, 3)]
    if trial % 2 == 0:
        q = int(rng.integers(1, x + 1))
        a = 1
        if q > 1:
            a = int(rng.integers(1, q))
            while math.gcd(a, q) != 1:
                a = int(rng.integers(1, q))
        eta = Fraction(int(rng.integers(-(1 << 30) + 1, 1 << 30)), 1 << 30)
        theta = FixedReal.from_fraction(Fraction(a, q) + eta / (q * q), DEFAULT_BITS)
        return expsums.ThetaApprox(theta, a, q), "random"
    alpha = pool[(trial // 2) % len(pool)]
    w = int(rng.integers(1, 64))
    theta = cfrac.to_fixed(alpha, DEFAULT_BITS).mul_int(w)
    a, q = cfrac.dirichlet_approx(theta, x)
    return expsums.ThetaApprox(theta, a, q), "convergent"


def cmd_expsum_sweep(args) -> int:
    rng = np.random.default_rng(args.seed)
    rows = []
    max_ratio = 0.0
    worst_gap = 0.0
    for trial in range(args.trials):
        x = int(rng.integers(_SWEEP_X_MIN, args.x_max + 1))
        h = int(rng.integers(1, args.h_max + 1))
        t0 = time.perf_counter()
        theta, kind = _sweep_theta(rng, trial, x)
        rep = expsums.double_sum_bound_check(
            theta, h, x, args.k, args.eps, memory_bytes=args.memory_bytes
        )
        max_ratio = max(max_ratio, rep.ratio)
        worst_gap = max(worst_gap, rep.hyperbola_gap)
        wall = f"{(time.perf_counter() - t0) * 1e3:.1f}" if args.timings else ""
        rows.append(
            [
                "expsum", args.k, _fmt(args.eps), args.seed, trial, kind, x, h,
                theta.a, theta.q, _fmt(rep.lhs), _fmt(rep.rhs_value),
                _fmt(rep.ratio), _fmt(rep.hyperbola_gap), wall,
            ]
        )
    _write_csv(args.out, _SWEEP_HEADER, rows)
    ok = math.isfinite(max_ratio) and worst_gap <= 1e-6
    print(
        f"expsum-sweep trials={args.trials} max_ratio={max_ratio!r} "
        f"worst_hyperbola_gap={worst_gap!r} {'PASS' if ok else 'FAIL'}",
        file=sys.stderr,
    )
    return EXIT_OK if ok else EXIT_CHECK


_DISC_HEADER = [
    "experiment", "alpha", "beta", "seed", "tau_hat", "M", "extreme", "star",
    "bound",
]


def cmd_discrepancy(args) -> int:
    spec = cfrac.parse_irrational(args.alpha)
    beta = beatty.parse_beta(args.beta)
    tau = cfrac.estimate_type(spec, 10**6)
    slope, per_M = discrepancy.decay_fit(spec, beta, parse_grid(args.grid))
    rows = [
        ["discrepancy", args.alpha, args.beta, args.seed, _fmt(tau), M,
         _fmt(extreme), _fmt(star), _fmt(M ** (-1.0 / tau))]
        for M, extreme, star in per_M
    ]
    _write_csv(args.out, _DISC_HEADER, rows)
    threshold = -1.0 / tau + 0.15
    ok = math.isnan(slope) or slope <= threshold
    print(
        f"discrepancy slope={slope!r} threshold={threshold!r} tau_hat={tau!r} "
        f"{'PASS' if ok else 'FAIL'}",
        file=sys.stderr,
    )
    return EXIT_OK if ok else EXIT_CHECK


_SMOOTH_HEADER = [
    "experiment", "alpha", "beta", "k", "x", "delta", "J", "check", "value",
    "bound", "status",
]


def _simpson_coefficient(gamma_f: float, delta: float, n: int,
                         panels: int = 1 << 14) -> np.ndarray:
    """Quadrature oracle: integral of the trapezoid against e(-j x), j = 1..n.

    Composite Simpson on each smooth piece between the ramp breakpoints; the
    phases e(-j x) are powers of e(-x), one complex product per j.
    """
    breaks = np.unique(
        np.clip([0.0, delta, gamma_f - delta, gamma_f + delta, 1.0 - delta, 1.0], 0.0, 1.0)
    )
    total = np.zeros(n, dtype=np.complex128)
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b - a < 1e-15:
            continue
        xs = np.linspace(a, b, 2 * panels + 1)
        h = (b - a) / (2 * panels)
        wf = smoothing._psi_values(np.mod(xs, 1.0), gamma_f, delta)
        wf[1:-1:2] *= 4.0
        wf[2:-1:2] *= 2.0
        wf = wf.astype(np.complex128)  # cast once, not in each of the n products
        z = np.exp(-2j * math.pi * xs)
        p = np.ones_like(z)
        for j in range(n):
            p *= z
            total[j] += (h / 3.0) * (p @ wf)
    return total


def cmd_smoothing_check(args) -> int:
    spec = cfrac.parse_irrational(args.alpha)
    params = beatty.BeattyParams(spec, beatty.parse_beta(args.beta))
    x = args.x
    gf = params.gamma.to_float()
    delta = smoothing.default_delta(x, args.k, args.delta_multiplier)
    delta = smoothing.admissible_delta(delta, gf)
    # default_truncation's J as a float, which for a subnormal Delta is infinite
    j = np.ceil(1.0 / (math.pi**2 * delta * 0.01))
    if j > args.memory_bytes // smoothing.COEFF_BYTES:  # before anything is built
        need = j * smoothing.COEFF_BYTES
        raise MemoryBudgetExceeded(
            f"Delta={delta:.4g} (--delta-multiplier) needs J={j:.4g} Fourier "
            f"coefficients, {need:.4g} bytes (budget {args.memory_bytes})", need)
    J = smoothing.default_truncation(delta)
    ind = smoothing.build_smoothed(params.gamma, delta, J)

    checks: list[tuple[str, float, float, bool]] = []
    nq = min(J, 48)
    quad = _simpson_coefficient(gf, delta, nq)
    gap = float(np.max(np.abs(ind.coeffs[1 : nq + 1] - quad)))
    checks.append(("coefficient_quadrature", gap, 1e-8, gap <= 1e-8))

    bound = smoothing.coefficient_bound(np.arange(1, J + 1, dtype=np.float64), delta)
    excess = float(np.max(np.abs(ind.coeffs[1:]) - bound))
    checks.append(("coefficient_bound", excess, 0.0, excess <= 1e-15))

    grid = (np.arange(2000) + 0.5) / 2000.0
    series = smoothing.eval_truncated_series(ind, 2000, 0.5 / 2000.0)
    series_err = np.max(np.abs(series - smoothing._psi_values(grid, gf, delta)))
    tb = ind.tail_bound()
    checks.append(("series_tail", float(series_err), tb, series_err <= tb))

    smoothed, exact, exceptional = smoothing.smoothed_beatty_count(
        params, args.k, x, delta, args.memory_bytes
    )
    checks.append(
        ("smoothing_error_vs_exceptional", abs(smoothed - exact), float(exceptional),
         abs(smoothed - exact) <= exceptional + 1e-6)
    )
    count = beatty.count_kfree_beatty(params, x, args.k, args.memory_bytes)[0]
    checks.append(("exact_vs_direct_count", float(abs(exact - count)), 0.0, exact == count))

    rows = [
        ["smoothing", args.alpha, args.beta, args.k, x, _fmt(delta), J, name,
         _fmt(value), _fmt(bound), "PASS" if ok else "FAIL"]
        for name, value, bound, ok in checks
    ]
    _write_csv(args.out, _SMOOTH_HEADER, rows)
    all_ok = all(ok for *_, ok in checks)
    print(f"smoothing-check {'PASS' if all_ok else 'FAIL'}", file=sys.stderr)
    return EXIT_OK if all_ok else EXIT_CHECK


_COUNT_FLAGS = ("alpha", "beta", "k", "grid", "eps", "seed", "memory-budget", "out",
                "timings")

# (name, help, handler, flags the handler reads); every subcommand also takes --config
_SUBCOMMANDS = (
    ("count", "k-free Beatty counts against x/zeta(k)", cmd_count, _COUNT_FLAGS),
    ("fit-exponent", "OLS exponent of the count error", cmd_fit_exponent, _COUNT_FLAGS),
    ("expsum-sweep", "double-sum bound ratios over seeded trials", cmd_expsum_sweep,
     ("k", "eps", "seed", "memory-budget", "out", "timings", "trials", "x-max", "h-max")),
    ("discrepancy", "extreme/star discrepancy decay", cmd_discrepancy,
     ("alpha", "beta", "grid", "seed", "out")),
    ("smoothing-check", "smoothed-indicator verification", cmd_smoothing_check,
     ("alpha", "beta", "k", "delta-multiplier", "memory-budget", "out", "x")),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beatty-kfree",
        description="k-free counting along Beatty sequences: experiments and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.add_argument("--config", default=None, help="key=value file; flags override file values")
        p.set_defaults(func=handler)
    return parser


def _config_flags(path: str, command: str) -> list[str]:
    """Flags of command from a key=value file, skipping blanks and # comments;
    a store_true flag takes 1 (set) or 0 (unset)."""
    known = next(flags for name, _, _, flags in _SUBCOMMANDS if name == command)
    flags: list[str] = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, value = line.partition("=")
            key, value = name.strip().replace("_", "-"), value.strip()
            if key not in known:
                raise ValueError(f"{path}: key {name.strip()!r} (--{key}) is not an option "
                                 f"of {command}")
            if _FLAGS[key].get("action") != "store_true":
                flags.extend([f"--{key}", value])
            elif value not in ("0", "1"):
                raise ValueError(f"config key {key!r} takes 0 or 1, got {value!r}")
            elif value == "1":
                flags.append(f"--{key}")
    return flags


def _whole_mib(need: int | float) -> str:
    """need bytes in whole MiB, rounded up; a float need past 2**53 MiB, or an
    infinite one, in 4 digits."""
    if isinstance(need, int):
        return str(-(-need >> 20))
    mib = need / (1 << 20)
    return str(math.ceil(mib)) if mib < 2**53 else f"{mib:.4g}"


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # file values go right after the subcommand so explicit flags win
            args = parser.parse_args(argv[:1] + _config_flags(args.config, args.command) + argv[1:])
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    except (OSError, ValueError) as e:
        print(f"error: config file: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except MemoryBudgetExceeded as e:
        print(f"budget/precision exhausted: {e}; that needs --memory-budget "
              f"{_whole_mib(e.need)} (MiB) or more", file=sys.stderr)
        return EXIT_BUDGET
    except PrecisionExhausted as e:
        print(f"budget/precision exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as e:
        print(f"budget/precision exhausted: {args.command} ran out of memory: "
              f"{str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, DegenerateFit, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
