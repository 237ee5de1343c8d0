"""Beatty sequence terms, exact membership, and k-free counting along the sequence.

The membership criterion is the fractional-part test
    m = floor(alpha*n + beta) for some integer n  iff  0 < {gamma*m + delta} <= gamma,
with gamma = 1/alpha and delta = (1 - beta)/alpha; the witness n is
floor(gamma*m + delta). The scalar path (member_witness) decides both in one
certified decision per precision level. One precision-escalation loop
(_decide) certifies the floor, the membership and the blocks' slope: the
blocks read alpha only through a rational slope A/Q certified over the n
they depend on (_certified_slope), t_n = floor((A*n + B)/Q), and decide in
the uint64 tiles of fixed.residue_tiles, each entry near a border by its
exact residue, so none falls back to the scalar path.

The k-free count along the sequence enumerates no terms. It replaces alpha
by a rational slope A/Q certified to reproduce every term up to x and sums
mu(d) * N_d, N_d = #{n <= x : d**k | t_n}, over d <= t_x**(1/k). From then
on it reads alpha only through A, B and Q: the i-th multiple of D = d**k in
[t_1, t_x] is a term iff {theta*i + c} >= 1 - Q/A, with theta and c the
uint64 fractional parts of one lane per d (_lanes). Up to a cut-off D0 from
a cost model, N_d is a difference of two floor sums over that lane, run in
numpy uint64 lanes at a lower and an upper dyadic bracket of theta and c; a
lane counts only when both brackets give equal totals, and each d whose
lane is not certified takes two big-integer floor sums instead (so do all d
when t_x >= 2**63). Above D0 the same test runs term by term, about
t_x/D0**(k-1) pairs, each decided in uint64 or, within the slack of a
border, by its exact residue mod A. For k = 2 both halves take
O(sqrt(t_x)) steps. The d come one Moebius window at a time
(kfree.squarefree_segments) and in it in chunks of _LANE_CHUNK d, so the
memory is that of one window, and the reach is capped by time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cfrac import IrrationalSpec
from .errors import PrecisionExhausted
from .fixed import (  # noqa: F401  perfbench's binding self-test reads beatty.frac_vector
    DEFAULT_BITS,
    MAX_BITS,
    FixedReal,
    decision_margin,
    frac_u64,
    frac_vector,
    residue_tiles,
)
from .kfree import (  # noqa: F401  perfbench's tracer self-test expects beatty.sieve_kfree
    DEFAULT_MEMORY_BYTES,
    floor_sum,
    floor_sum_lanes,
    group_offsets,
    iroot,
    sieve_kfree,
    squarefree_segments,
    zeta,
)

_LANE_CHUNK = 1 << 12  # d per chunk of the count
_LANE_SLACK = 5  # theta, c within 5 units of 2**-64: frac_u64's 4, the offset's floor 1
# A lane of this many multiples or more goes to the fallback: such lanes
# seldom certify (for phi at 1e12-1e13, 10 of 758 of 2**22-2**23 multiples
# and none longer did), and from 2**32 on their totals could pass 2**64.
_LANE_MAX = 1 << 22
# c = c_p/c_f, the cost of one membership pair over that of one d in the
# floor-sum lanes. About 0.61*D0 squarefree d take lanes and
# 0.61*t_x*D0**(1-k)/(k-1) pairs lie above D0, so the total is least at
# D0 = (c*t_x)**(1/k). Measured on a 2-core Xeon at x = 1e12 and 1e13: 16-22
# ns per pair against 0.9 us per d, so c is near 0.025; of c = 0.02-0.16,
# 0.04 timed best at x = 1e12 and 1e13 and within 2% of the best at 1e14.
_PAIR_COST = 0.04


@dataclass(frozen=True)
class _Level:
    """Mantissas of alpha, beta, gamma, delta at one working precision, and
    the interval of alpha they were built from."""

    bits: int
    interval: tuple[Fraction, Fraction]
    alpha: FixedReal
    beta: FixedReal
    gamma: FixedReal
    delta: FixedReal


def parse_beta(text: str) -> Fraction:
    """Exact rational beta from forms like '1/2', '0.5', '-0.7'."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"beta {text!r} is not an exact rational such as 0, 1/2 or -0.7") from None


class BeattyParams:
    """Parameters (alpha, beta) with derived gamma, delta at managed precision."""

    def __init__(
        self,
        alpha: IrrationalSpec,
        beta: Fraction | int | str = 0,
        precision_bits: int = DEFAULT_BITS,
    ):
        self.alpha = alpha
        self.beta = Fraction(beta)
        self.precision_bits = precision_bits
        self._levels: dict[int, _Level] = {}
        self.level(precision_bits)  # validates alpha > 1 eagerly

    def level(self, bits: int) -> _Level:
        lv = self._levels.get(bits)
        if lv is None:
            guard = bits + 16
            alo, ahi = self.alpha.eval_interval(guard)
            if alo <= 1:
                raise ValueError(f"alpha {str(self.alpha)!r} is not certified > 1 as a Beatty "
                                 f"modulus: its interval at {guard} bits starts at {float(alo)!r}")
            glo, ghi = 1 / ahi, 1 / alo
            c = 1 - self.beta
            dlo, dhi = (glo * c, ghi * c) if c >= 0 else (ghi * c, glo * c)
            lv = _Level(
                bits,
                (alo, ahi),
                FixedReal.from_interval(alo, ahi, bits),
                FixedReal.from_fraction(self.beta, bits),
                FixedReal.from_interval(glo, ghi, bits),
                FixedReal.from_interval(dlo, dhi, bits),
            )
            self._levels[bits] = lv
        return lv

    @property
    def gamma(self) -> FixedReal:
        return self.level(self.precision_bits).gamma

    def __repr__(self) -> str:
        return f"BeattyParams({self.alpha}, beta={self.beta})"


def _decide(p: BeattyParams, what: str, decide):
    """decide(lv) at the levels from p.precision_bits, doubling up to
    MAX_BITS, until it is not None. Stops early when alpha's interval comes
    back unchanged (cf: and dec: specs), since a level built from it could
    decide nothing new; PrecisionExhausted names what and the bits tried."""
    tried, lv = [], p.level(p.precision_bits)
    while (out := decide(lv)) is None:
        tried.append(lv.bits)
        bits = 2 * lv.bits
        if bits > MAX_BITS or p.alpha.eval_interval(bits + 16) == lv.interval:
            raise PrecisionExhausted(
                f"{what} undecidable for alpha={p.alpha}, beta={p.beta} at bits {tried}")
        lv = p.level(bits)
    return out


def beatty_term(p: BeattyParams, n: int) -> int:
    """Exact floor(alpha*n + beta) with certified floor."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def floor(lv: _Level) -> int | None:
        a, b = lv.alpha, lv.beta
        y = FixedReal(a.mantissa * n + b.mantissa, lv.bits, a.err_ulps * n + b.err_ulps)
        return y.floor_certified()

    return _decide(p, f"floor(alpha*n+beta) at n={n}", floor)


def _check_range(lo_name: str, lo: int, hi_name: str, hi: int, least: int) -> None:
    """ValueError unless lo >= least and hi >= lo - 1 (hi = lo - 1: empty)."""
    if lo < least:
        raise ValueError(f"{lo_name} must be >= {least}, got {lo}")
    if hi < lo - 1:
        raise ValueError(f"{hi_name} must be >= {lo_name} - 1 = {lo - 1}, got {hi}")


def beatty_terms_block(p: BeattyParams, n_lo: int, n_hi: int) -> np.ndarray:
    """Vector of floor(alpha*n + beta) for n in [n_lo, n_hi] (int64), n_lo >= 0.

    With t_n = floor((A*n + B)/Q) certified over [n_lo, n_hi] and
    v = j*g + o (mod 2**64) from residue_tiles for n = n_0 + j,
    t_n = t_(n_0) + j*floor(A/Q) + floor(j*g/2**64) + (v < o, the carry),
    except where v is near 2**64: there t_n = (A*n + B)//Q. Raises
    ValueError when the terms could leave int64.
    """
    _check_range("n_lo", n_lo, "n_hi", n_hi, 0)
    out = np.empty(n_hi - n_lo + 1, dtype=np.int64)
    A, B, Q = _certified_slope(p, f"floor(alpha*n+beta) for n in [{n_lo}, {n_hi}]",
                               lambda lo, hi: (n_lo, n_hi))
    if (A * n_hi + abs(B)) // Q >= 1 << 63:
        raise ValueError(f"terms of alpha={p.alpha} up to n_hi={n_hi} exceed the int64 "
                         "limit 2**63")
    a0, g = A // Q, ((A % Q) << 64) // Q
    for t0, v, near in residue_tiles(A, Q, A * n_lo + B, len(out), [0]):
        if t0 == 0:  # the first tile is the longest; its j serve every tile
            j = np.arange(len(v), dtype=np.uint64)
            # floor(j*g/2**64) from g's 32-bit halves, exact for j < 2**32
            g_hi = j * np.uint64(g >> 32) + (j * np.uint64(g & 0xFFFFFFFF) >> np.uint64(32))
            base = (j * np.uint64(a0) + (g_hi >> np.uint64(32))).view(np.int64)
        n0, t = n_lo + t0, out[t0:t0 + len(v)]
        np.add(base[:len(t)], v < v[0], out=t)
        t += np.int64((A * n0 + B) // Q)
        for i in near:
            t[i] = (A * (n0 + i) + B) // Q
    return out


def member_witness(p: BeattyParams, m: int) -> int | None:
    """The unique integer n with floor(alpha*n + beta) = m, if any.

    Such n lie in [(m - beta)/alpha, (m + 1 - beta)/alpha) = [y - gamma, y),
    y = gamma*m + delta, which holds an integer, floor(y), iff 0 < {y} <= gamma.
    Per level, y's fractional mantissa certifies floor(y) and, against gamma's
    mantissa, the membership. {y} is 0 or gamma only for integer beta, at
    m + 1 = beta and m = beta (n = 0 on the open or closed end), decided first.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if p.beta.denominator == 1:
        if m == p.beta.numerator:
            return 0
        if m + 1 == p.beta.numerator:
            return None

    def witness(lv: _Level) -> tuple[int, bool] | None:
        g, d, one = lv.gamma, lv.delta, 1 << lv.bits
        w, r = divmod(g.mantissa * m + d.mantissa, one)  # r: the mantissa of {y}
        # one margin for the errors of y and gamma certifies floor(y) and {y} vs gamma
        margin = decision_margin(g.err_ulps * (m + 1) + d.err_ulps)
        if not margin < r < one - margin or abs(r - g.mantissa) <= margin:
            return None
        return w, r < g.mantissa

    w, member = _decide(p, f"membership of m={m}", witness)
    return w if member else None


def is_member(p: BeattyParams, m: int) -> bool:
    """True iff m = floor(alpha*n + beta) for some integer n."""
    return member_witness(p, m) is not None


def _member_tiles(A: int, B: int, Q: int, m_lo: int, length: int):
    """Yield (t0, v, flags) for m = m_lo + t0 + j, j < len(v): v from
    residue_tiles at y = (Q*m + Q - B)/A and flags the test 0 < {y} <= Q/A,
    that is 1 <= v <= floor(2**64*Q/A), or for v near either end of that
    range 1 <= (Q*m + Q - B) mod A <= Q."""
    G = (Q << 64) // A
    for t0, v, near in residue_tiles(Q, A, Q * m_lo + Q - B, length, [1, G + 1]):
        flags = v - np.uint64(1) < np.uint64(G)
        for i in near:
            flags[i] = 1 <= (Q * (m_lo + t0 + i) + Q - B) % A <= Q
        yield t0, v, flags


def member_flags_block(p: BeattyParams, m_lo: int, m_hi: int) -> np.ndarray:
    """Membership of m in [m_lo, m_hi] (bool array, _member_tiles), m_lo >= 1,
    from a slope certified over every n (n <= 0 too) whose term can land in
    [m_lo, m_hi] at either end of alpha's interval: PrecisionExhausted
    comes just when that interval leaves a flag or its witness open."""
    _check_range("m_lo", m_lo, "m_hi", m_hi, 1)
    flags = np.empty(m_hi - m_lo + 1, dtype=bool)
    y0, y1 = m_lo - p.beta, m_hi + 1 - p.beta

    def witnesses(lo: Fraction, hi: Fraction) -> tuple[int, int]:
        return math.ceil(min(y0 / lo, y0 / hi)), math.ceil(max(y1 / lo, y1 / hi)) - 1

    A, B, Q = _certified_slope(p, f"membership of m in [{m_lo}, {m_hi}]", witnesses)
    for t0, _, tile in _member_tiles(A, B, Q, m_lo, len(flags)):
        flags[t0:t0 + len(tile)] = tile
    return flags


def _certified_slope(p: BeattyParams, what: str, n_range) -> tuple[int, int, int]:
    """(A, B, Q) with floor((A*n + B)/Q) = floor(alpha*n + beta) for n in
    n_range(lo, hi), [lo, hi] a level's interval of alpha. Every slope in it
    gives terms between those of lo and of hi on each side of n = 0 (whose
    term is floor(beta)), so equal totals at lo and hi over n >= 1 and over
    n <= -1 (one floor sum each) make every term agree, and lo stands in
    for alpha (_decide)."""
    b, c = p.beta.numerator, p.beta.denominator

    def total(s: Fraction, n0: int, n1: int) -> int:  # floor(s*n + beta) over n0 <= n <= n1
        a, q = s.numerator, s.denominator
        return floor_sum(n1 - n0 + 1, q * c, a * c, a * c * n0 + b * q)

    def certify(lv: _Level) -> Fraction | None:
        lo, hi = lv.interval
        n_lo, n_hi = n_range(lo, hi)
        sides = [r for r in ((max(n_lo, 1), n_hi), (n_lo, min(n_hi, -1))) if r[0] <= r[1]]
        return lo if all(total(lo, *r) == total(hi, *r) for r in sides) else None

    s = _decide(p, what, certify)
    return s.numerator * c, b * s.denominator, s.denominator * c


def _n_d(A: int, B: int, Q: int, x: int, dk: int) -> int:
    """#{n <= x : dk | t_n}, t_n = floor((A*n + B)/Q), by two big-integer
    floor sums over i = n - 1 of floor(t_n/dk) - floor((t_n - 1)/dk)."""
    D = Q * dk
    return floor_sum(x, D, A, A + B) - floor_sum(x, D, A, A + B - Q)


def _lanes(A: int, B: int, Q: int, t_1: int, t_x: int,
           dk: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(j_lo, L, theta, c) of the D = d**k in dk (t_x < 2**63): the slope
    of t_n = floor((A*n + B)/Q) as both halves of the count read it.

    The multiples of D in [t_1, t_x] are j*D, j = j_lo + i for i < L, and
    m = j*D is a term iff [(Q*m - B)/A, (Q*m + Q - B)/A) holds an integer,
    its least candidate being ceil((Q*m - B)/A). With
    r = (Q*m - B + A - 1) mod A that is iff r >= A - Q, and
    r/A = {theta*i + c}, theta = {Q*D/A}, c = {(Q*D*j_lo - B + A - 1)/A}:
    m is a term iff {theta*i + c} >= 1 - gamma, gamma = Q/A. theta and c
    are uint64 in units of 2**-64, each within _LANE_SLACK units below its
    exact value.
    """
    u64 = np.uint64
    j_lo = (t_1 - 1) // dk + 1
    L = t_x // dk - j_lo + 1
    g = (Q << 128) // A  # gamma in units of 2**-128, truncated
    theta = frac_u64(g, 128, dk)
    c = frac_u64(g, 128, dk.astype(u64) * j_lo.astype(u64))
    c += u64((((A - 1 - B) % A) << 64) // A)
    return j_lo, L, theta, c


def _bracket(v: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo*2**shift <= v and v + _LANE_SLACK <= hi*2**shift:
    a value in [v, v + _LANE_SLACK) units of 2**-64, bracketed at
    2**(shift - 64); v <= 2**64 - _LANE_SLACK."""
    return v >> shift, ((v + np.uint64(_LANE_SLACK - 1)) >> shift) + np.uint64(1)


def _lane_counts(L: np.ndarray, theta: np.ndarray, c: np.ndarray,
                 gamma: int) -> tuple[np.ndarray, np.ndarray]:
    """N_d = sum_{i<L} floor(theta*i + c + gamma) - floor(theta*i + c) for
    lanes of _lanes as uint64, gamma = floor(Q/A * 2**64), and the mask of
    lanes whose N_d is certified.

    theta and c are bracketed at 2**-s, s = 63 - bitlen(L + 2), so that
    a*L + b < 2**63 in floor_sum_lanes. Every term is monotone in slope and
    offset, so equal totals at the lower and the upper brackets make each
    term, and so the sum, exact. A lane is certified when both sums agree
    at their brackets, neither bracket wraps past 1, and L < _LANE_MAX, so
    that the totals fit 64 bits.
    """
    u64 = np.uint64
    top = u64((1 << 64) - _LANE_SLACK)  # at most this, the bracket does not wrap
    ok = (L < _LANE_MAX) & (theta <= top) & (c <= top)
    L = np.where(ok, L, 0).astype(u64)
    shift = (np.frexp(L + u64(2))[1] + 1).astype(u64)  # 64 - s
    m = u64(1) << (u64(64) - shift)
    (t_lo, t_hi), (c_lo, c_hi) = _bracket(theta, shift), _bracket(c, shift)
    g_lo = u64(gamma) >> shift
    sums = floor_sum_lanes(np.tile(L, 4), np.tile(m, 4), np.concatenate((t_lo, t_hi, t_lo, t_hi)),
                           np.concatenate((c_lo, c_hi, c_lo + g_lo, c_hi + g_lo + u64(1))))
    lo1, hi1, lo2, hi2 = sums.reshape(4, -1)
    return lo2 - lo1, ok & (lo1 == hi1) & (lo2 == hi2)


def _pair_counts(A: int, B: int, Q: int, dk: np.ndarray, j_lo: np.ndarray, L: np.ndarray,
                 theta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """N_d for the lanes of _lanes, term by term: the i-th multiple
    m = (j_lo + i)*D counts iff {theta*i + c} >= 1 - gamma.

    v = c + theta*i in uint64 (mod 2**64) lies at most S = _LANE_SLACK*max(L)
    units below the exact value, so v decides against
    T = ceil((1 - gamma)*2**64) unless it lies within S below T or below
    2**64; such an entry counts iff (Q*m - B + A - 1) mod A >= A - Q.
    """
    i_d, i = group_offsets(L)
    v = c[i_d] + theta[i_d] * i.astype(np.uint64)
    T = (1 << 64) - (Q << 64) // A
    S = _LANE_SLACK * int(L.max())  # the caller passes a multiple, so 2**64 - S < 2**64
    term = v >= np.uint64(T)
    border = (v > np.uint64(max((1 << 64) - S, 0))) | ((v >= np.uint64(max(T - S, 0))) & ~term)
    for e in np.flatnonzero(border).tolist():
        m = (int(j_lo[i_d[e]]) + int(i[e])) * int(dk[i_d[e]])
        term[e] = (Q * m - B + A - 1) % A >= A - Q
    return np.bincount(i_d[term], minlength=len(dk))


def _count_split(p: BeattyParams, x: int, k: int, d0: int | None, memory_bytes: int) -> int:
    """The exact count of count_kfree_beatty, split at D0 = d0 (None: the
    cost model of _PAIR_COST): one Moebius window of d at a time, and in it
    chunks of _LANE_CHUNK d, each read once by _lanes. The d <= D0 take
    _lane_counts, the others _pair_counts, and each d whose lane is not
    certified takes _n_d; every d takes _n_d when t_x >= 2**63."""
    # t_n = floor((A*n + B) / Q) exactly for 1 <= n <= x
    A, B, Q = _certified_slope(p, f"floor(alpha*n+beta) for n <= x={x}", lambda lo, hi: (1, x))
    t_1, t_x = (A + B) // Q, (A * x + B) // Q
    if t_1 < 1:
        raise ValueError(f"terms must be positive: t_1 = floor(alpha + beta) = {t_1} for "
                         f"alpha={p.alpha}, beta={p.beta} is below the limit t_1 >= 1")
    r = iroot(t_x, k)
    if d0 is None:
        d0 = iroot(int(_PAIR_COST * t_x), k)
    gamma = (Q << 64) // A
    count = 0
    for d, mu in squarefree_segments(r, memory_bytes):
        if t_x >= 1 << 63:  # the lanes' D*j_lo and L are uint64
            count += sum(m * _n_d(A, B, Q, x, e**k) for e, m in zip(d.tolist(), mu.tolist()))
            continue
        for c0 in range(0, len(d), _LANE_CHUNK):
            d_c, mu_c = d[c0:c0 + _LANE_CHUNK], mu[c0:c0 + _LANE_CHUNK].astype(np.int64)
            dk = d_c**k
            j_lo, L, theta, c = _lanes(A, B, Q, t_1, t_x, dk)
            n = int(np.searchsorted(d_c, d0, "right"))
            n_d, cert = _lane_counts(L[:n], theta[:n], c[:n], gamma)
            count += int(n_d[cert].astype(np.int64) @ mu_c[:n][cert])
            for i in np.flatnonzero(~cert).tolist():
                count += int(mu_c[i]) * _n_d(A, B, Q, x, int(dk[i]))
            if L[n:].any():
                count += int(_pair_counts(A, B, Q, dk[n:], j_lo[n:], L[n:], theta[n:], c[n:])
                             @ mu_c[n:])
    return count


def count_kfree_beatty(
    p: BeattyParams,
    x: int,
    k: int,
    memory_bytes: int = DEFAULT_MEMORY_BYTES,
) -> tuple[int, float, float]:
    """Count n <= x with t_n = floor(alpha*n + beta) k-free; error vs x/zeta(k).

    Exact without enumerating terms (module docstring):
        count = sum_{d <= t_x**(1/k)} mu(d) * #{n <= x : d**k | t_n},
    with alpha replaced by a certified rational slope (_certified_slope).
    The d come in chunks of _LANE_CHUNK = 2**12 d, each read once as lanes
    of slope and offset (_lanes). Up to D0 = (c*t_x)**(1/k), c = 0.04
    (_PAIR_COST), the inner counts are floor sums in uint64 lanes
    (_lane_counts), with two big-integer floor sums for each d whose lane
    does not certify (few: those with about 2**19 or more multiples) and for
    every d when t_x >= 2**63. Above D0 it decides the multiples of d**k in
    [t_1, t_x] one by one from the same lanes (_pair_counts). For k = 2
    that is about 0.61*sqrt(c*t_x) squarefree d of floor sums and
    0.61*sqrt(t_x/c) pairs. The d come in Moebius windows of
    kfree.MOEBIUS_SEGMENT d, each of which must fit memory_bytes
    (MemoryBudgetExceeded otherwise); a few MiB suffice for every x.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if x < 1:
        return 0, 0.0, 0.0
    count = _count_split(p, x, k, None, memory_bytes)
    main = x / zeta(k)
    return count, main, count - main
