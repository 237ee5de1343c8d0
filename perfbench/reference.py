"""Independent references for the benchmark's ops.

No reference value is computed with beatty_kfree. Beatty terms come from integer square
roots (quadratic alpha) or exact rationals (cf:/dec: alpha, using both ends
of the interval the spec certifies); k-free flags and Moebius values come
from a separate numpy sieve; discrepancies come from fractional parts
carried to 2**-256 and Niederreiter's closed formula; double exponential
sums come from fractional parts reduced with Python integers.

`python3 perfbench/reference.py` rewrites refs.json, the stored references
for the full-size op lists. It takes a few minutes on one core.
"""
from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

ZETA = {2: math.pi**2 / 6.0, 3: 1.2020569031595942854}  # pi^2/6 and Apery's constant

PI_64 = "3.1415926535897932384626433832795028841971693993751058209749445923"
E_64 = "2.7182818284590452353602874713526624977572470936999595749669676277"
EXPSUM_POOL = ("quad:0,2,1", "quad:1,5,2", "quad:0,3,1", "quad:7,2,3")
EXPSUM_SEEDS = 16  # CLI seeds with stored expsum references
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

_MASK64 = (1 << 64) - 1
_MASK256 = (1 << 256) - 1


class Undecided(ArithmeticError):
    """The spec's interval does not pin down the requested floor."""


class Alpha:
    """floor((alpha*n + beta) * 2**shift) for the spec strings the CLI accepts."""

    def __init__(self, spec: str):
        kind, _, rest = spec.partition(":")
        self.spec = spec
        self.quad = None
        self.bounds = None
        if kind == "quad":
            self.quad = tuple(int(v) for v in rest.split(","))
        elif kind == "cf":
            p1, p0, q1, q0 = 1, 0, 0, 1
            for a in (int(v) for v in rest.split(",")):
                p1, p0 = a * p1 + p0, p1
                q1, q0 = a * q1 + q0, q1
            self.bounds = tuple(sorted((Fraction(p1, q1), Fraction(p1 + p0, q1 + q0))))
        elif kind == "dec":
            digits, _, bits = rest.rpartition(":")
            v, eps = Fraction(digits), Fraction(1, 1 << int(bits))
            self.bounds = (v - eps, v + eps)
        else:
            raise ValueError(f"unknown spec {spec!r}")

    def scaled_floor(self, n: int, beta: Fraction, shift: int = 0) -> int:
        """floor((alpha*n + beta) * 2**shift); exact for quad, lower end otherwise."""
        a, b = beta.numerator, beta.denominator
        s = 1 << shift
        if self.quad is not None:
            p, d, q = self.quad
            # alpha*n + beta = (b*p*n + a*q + sign(n)*sqrt(b^2*d*n^2)) / (b*q); the
            # root is irrational for n != 0, so its floor may replace it.
            r = math.isqrt(b * b * d * n * n * s * s)
            if n < 0:
                r = -r - 1
            return (b * p * n * s + a * q * s + r) // (b * q)
        lo, hi = self.bounds
        f_lo = ((lo.numerator * n * b + a * lo.denominator) * s) // (lo.denominator * b)
        if shift == 0:
            f_hi = ((hi.numerator * n * b + a * hi.denominator) * s) // (hi.denominator * b)
            if f_lo != f_hi:
                raise Undecided(f"floor({self.spec}*{n}+{beta}) not certified")
        return f_lo

    def term(self, n: int, beta: Fraction) -> int:
        return self.scaled_floor(n, beta, 0)

    def frac(self, n: int, beta: Fraction) -> float:
        """{alpha*n + beta} to within 2**-52."""
        return (self.scaled_floor(n, beta, 64) & _MASK64) * 2.0**-64

    def first_n_at_least(self, m: int, beta: Fraction) -> int:
        """Smallest integer n (of any sign) with floor(alpha*n + beta) >= m."""
        n = math.floor((m - float(beta)) / (self.scaled_floor(1, Fraction(0), 64) * 2.0**-64))
        while self.term(n, beta) >= m:
            n -= 1
        while self.term(n, beta) < m:
            n += 1
        return n

    def witness(self, m: int, beta: Fraction):
        """The n with floor(alpha*n + beta) = m, or None when m is not a term."""
        n = self.first_n_at_least(m, beta)
        return n if self.term(n, beta) == m else None

    def gamma_delta(self, beta: Fraction) -> tuple[Fraction, Fraction]:
        """gamma = 1/alpha and delta = (1 - beta)/alpha to within 2**-120."""
        g = Fraction(1 << 128, self.scaled_floor(1, Fraction(0), 128))
        return g, (1 - beta) * g


def terms_block(alpha: Alpha, beta: Fraction, n0: int, length: int) -> np.ndarray:
    """floor(alpha*n + beta) for n in [n0, n0 + length), exact.

    Base term plus i*floor(alpha) plus floor({alpha*n0 + beta} + i*{alpha});
    the float sum is within 1e-9 of the truth for length <= 2**20, and
    entries that close to an integer are recomputed exactly.
    """
    g = _block_fracs(alpha, beta, n0, length)
    out = alpha.term(n0, beta) + np.arange(length, dtype=np.int64) * alpha.term(1, Fraction(0))
    out += np.floor(g).astype(np.int64)
    for i in np.nonzero(np.abs(g - np.rint(g)) < 1e-9)[0]:
        out[i] = alpha.term(n0 + int(i), beta)
    return out


def terms_near_border(alpha: Alpha, beta: Fraction, n0: int, length: int, tol: float) -> np.ndarray:
    """Indices whose {alpha*n + beta} lies within tol of an integer."""
    g = _block_fracs(alpha, beta, n0, length)
    return np.nonzero(np.abs(g - np.rint(g)) < tol)[0]


def _block_fracs(alpha, beta, n0, length):
    return alpha.frac(n0, beta) + np.arange(length, dtype=np.float64) * alpha.frac(1, Fraction(0))


def member_flags_block(alpha: Alpha, beta: Fraction, m0: int, length: int) -> np.ndarray:
    """m in [m0, m0 + length) is a term, found by listing the terms that land there."""
    n_lo = alpha.first_n_at_least(m0, beta)
    n_hi = alpha.first_n_at_least(m0 + length, beta) - 1
    flags = np.zeros(length, dtype=bool)
    if n_hi >= n_lo:
        flags[terms_block(alpha, beta, n_lo, n_hi - n_lo + 1) - m0] = True
    return flags


def members_near_border(alpha: Alpha, beta: Fraction, m0: int, length: int, tol: float) -> np.ndarray:
    """Indices whose {gamma*m + delta} lies within tol of 0, 1 or gamma."""
    g, d = alpha.gamma_delta(beta)
    base = g * m0 + d
    f = float(base - math.floor(base)) + np.arange(length, dtype=np.float64) * float(g)
    f -= np.floor(f)
    gf = float(g)
    near = (f < tol) | (f > 1.0 - tol) | (np.abs(f - gf) < tol)
    return np.nonzero(near)[0]


def primes_upto(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0]


def iroot(x: int, k: int) -> int:
    r = int(round(x ** (1.0 / k)))
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def kfree_flags(k: int, n: int) -> np.ndarray:
    """flags[v] is True iff v is k-free, for 0 <= v <= n (flags[0] is False)."""
    flags = np.ones(n + 1, dtype=bool)
    flags[0] = False
    for p in primes_upto(iroot(n, k)):
        pk = int(p) ** k
        flags[pk::pk] = False
    return flags


def count_kfree(x: int, k: int) -> int:
    """sum over d^k <= x of mu(d) * floor(x / d^k)."""
    r = iroot(x, k)
    mu = np.ones(r + 1, dtype=np.int64)
    mu[0] = 0
    for p in primes_upto(r):
        p = int(p)
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    d = np.arange(1, r + 1, dtype=np.int64)
    return int(np.sum(mu[1:] * (x // d**k)))


def beatty_kfree_counts(spec: str, beta: str, k: int, xs: list[int]) -> list[int]:
    """#{n <= x : floor(alpha*n + beta) is k-free} for each x in xs."""
    alpha, b = Alpha(spec), Fraction(beta)
    top = max(xs)
    terms = np.fromiter((alpha.term(n, b) for n in range(1, top + 1)), dtype=np.int64, count=top)
    hits = kfree_flags(k, int(terms[-1]))[terms]
    return [int(np.count_nonzero(hits[:x])) for x in xs]


def tau_hat(spec: str, q_max: int = 10**6) -> float:
    """The CLI's type statistic: max log q_{i+1}/log q_i over the top decade.

    Denominators come from the partial quotients shared by both ends of a
    2**-512 interval around alpha (or the interval a cf:/dec: spec states).
    """
    alpha = Alpha(spec)
    if alpha.quad is not None:
        lo = Fraction(alpha.scaled_floor(1, Fraction(0), 512), 1 << 512)
        lo, hi = lo, lo + Fraction(1, 1 << 512)
    else:
        lo, hi = alpha.bounds
    samples = []
    prev_q = None
    q1, q0 = 0, 1
    for a in _shared_quotients(lo, hi):
        q1, q0 = a * q1 + q0, q1
        if q1 > q_max:
            break
        if prev_q is not None and prev_q >= 2:
            samples.append((q1, math.log(q1) / math.log(prev_q)))
        prev_q = q1
    if not samples:
        return 1.0
    tail = [r for q, r in samples if q > q_max // 10] or [samples[-1][1]]
    return max(1.0, max(tail))


def _shared_quotients(lo: Fraction, hi: Fraction):
    while True:
        a = math.floor(lo)
        if a != math.floor(hi):
            return
        yield a
        if lo == a or hi == a:
            return
        lo, hi = 1 / (hi - a), 1 / (lo - a)


def best_convergent(theta: Fraction, K: int) -> tuple[int, int]:
    """Last convergent a/q of theta with q <= K."""
    p1, p0, q1, q0 = 1, 0, 0, 1
    best = (0, 1)
    x = theta
    while True:
        a = math.floor(x)
        p1, p0 = a * p1 + p0, p1
        q1, q0 = a * q1 + q0, q1
        if q1 > K:
            return best
        best = (p1, q1)
        if x == a:
            return best
        x = 1 / (x - a)


def extreme_and_star(points: np.ndarray) -> tuple[float, float]:
    """Extreme discrepancy 1/M + max(i/M - x_i) - min(i/M - x_i) and star discrepancy."""
    x = np.sort(points)
    M = len(x)
    i = np.arange(1, M + 1, dtype=np.float64)
    d = i / M - x
    star = float(np.max(np.maximum(i / M - x, x - (i - 1) / M)))
    return float(1.0 / M + d.max() - d.min()), star


def kronecker_points(spec: str, beta: str, M: int) -> np.ndarray:
    """{alpha*m + beta} for m = 1..M from a 2**-256 approximation of alpha."""
    alpha, b = Alpha(spec), Fraction(beta)
    step = alpha.scaled_floor(1, Fraction(0), 256)
    start = (b.numerator << 256) // b.denominator

    def fracs():
        v = start
        for _ in range(M):
            v = (v + step) & _MASK256
            yield v >> 192

    pts = np.fromiter(fracs(), dtype=np.uint64, count=M).astype(np.float64) * 2.0**-64
    return np.minimum(pts, 1.0 - 2.0**-53)


def discrepancy_rows(spec: str, beta: str, Ms: list[int]) -> dict:
    pts = kronecker_points(spec, beta, max(Ms))
    rows = [extreme_and_star(pts[:M]) for M in Ms]
    return {"M": list(Ms), "extreme": [r[0] for r in rows], "star": [r[1] for r in rows]}


def _expsum_draws(seed: int, trials: int, x_max: int, h_max: int):
    """Replays the sweep's seeded draws: (kind, x, H, a, q, theta) per trial."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        x = int(rng.integers(200, x_max + 1))
        H = int(rng.integers(1, h_max + 1))
        if trial % 2 == 0:
            q = int(rng.integers(1, x + 1))
            a = 1
            if q > 1:
                a = int(rng.integers(1, q))
                while math.gcd(a, q) != 1:
                    a = int(rng.integers(1, q))
            eta = Fraction(int(rng.integers(-(1 << 30) + 1, 1 << 30)), 1 << 30)
            yield "random", x, H, a, q, Fraction(a, q) + eta / (q * q)
        else:
            w = int(rng.integers(1, 64))
            step = Alpha(EXPSUM_POOL[(trial // 2) % len(EXPSUM_POOL)]).scaled_floor(w, Fraction(0), 256)
            theta = Fraction(step, 1 << 256)
            yield ("convergent", x, H, *best_convergent(theta, x), theta)


def balanced_expsum_seeds(trials: int, x_max: int, h_max: int, scan: int = 400,
                          band: float = 0.02) -> list[int]:
    """The first EXPSUM_SEEDS CLI seeds whose sum of x*H over the trials is
    within band of the median over seeds 0..scan-1, so every benchmark seed
    asks for about the same work."""
    work = [sum(x * H for _, x, H, *_ in _expsum_draws(c, trials, x_max, h_max))
            for c in range(scan)]
    mid = float(np.median(work))
    return [c for c in range(scan) if abs(work[c] - mid) <= band * mid][:EXPSUM_SEEDS]


def expsum_trials(seed: int, trials: int, x_max: int, h_max: int, k: int = 2,
                  eps: float = 0.05) -> list[dict]:
    """Each replayed trial summed independently.

    lhs = |sum_{h<=H} sum_{n<=x, n k-free} e(theta*h*n)| with {theta*n}
    reduced in integers at 2**-256; ratio = lhs / ((H*x^(k/(2k-1)) + q +
    H*x/q) * x^eps).
    """
    out = []
    for kind, x, H, a, q, theta in _expsum_draws(seed, trials, x_max, h_max):
        lhs = abs(_double_kfree_sum(theta, H, x, k))
        rhs = (H * x ** (k / (2.0 * k - 1.0)) + q + H * x / q) * x**eps
        out.append({"kind": kind, "x": x, "H": H, "a": a, "q": q, "lhs": lhs, "ratio": lhs / rhs})
    return out


def _double_kfree_sum(theta: Fraction, H: int, x: int, k: int) -> complex:
    t = (theta.numerator << 256) // theta.denominator & _MASK256
    ns = np.nonzero(kfree_flags(k, x))[0].tolist()
    fr = np.fromiter((((t * n) & _MASK256) >> 192 for n in ns), dtype=np.uint64, count=len(ns))
    fr = fr.astype(np.float64) * 2.0**-64
    total = 0j
    for h in range(1, H + 1):
        ang = 2.0 * math.pi * np.mod(h * fr, 1.0)
        total += complex(float(np.sum(np.cos(ang))), float(np.sum(np.sin(ang))))
    return total


def load_refs() -> dict:
    with open(REFS_PATH) as f:
        return json.load(f)


def generate() -> dict:
    """References for the full-size op lists in workloads.py."""
    import workloads

    full = workloads.SIZES["full"]
    refs: dict = {"count": {}, "count_kfree": {}, "discrepancy": {}, "expsum": {}}
    xs = workloads.grid(*full["count_grid"])
    for spec, beta, k in workloads.COUNT_CONFIGS:
        refs["count"][f"{spec}|{beta}|{k}"] = beatty_kfree_counts(spec, beta, k, xs)
        print("count", spec, beta, k, file=sys.stderr)
    for x, k in full["count_kfree"]:
        refs["count_kfree"][f"{x}|{k}"] = count_kfree(x, k)
    Ms = workloads.grid(*full["disc_grid"])
    for spec, beta in workloads.DISCREPANCY_CONFIGS:
        refs["discrepancy"][f"{spec}|{beta}"] = discrepancy_rows(spec, beta, Ms)
        print("discrepancy", spec, beta, file=sys.stderr)
    trials, x_max, h_max = full["expsum"]
    refs["expsum_seeds"] = balanced_expsum_seeds(trials, x_max, h_max)
    for s in refs["expsum_seeds"]:
        refs["expsum"][str(s)] = expsum_trials(s, trials, x_max, h_max)
        print("expsum seed", s, file=sys.stderr)
    return refs


if __name__ == "__main__":
    data = generate()
    with open(REFS_PATH, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
