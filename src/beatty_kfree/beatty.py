"""Beatty sequence terms, exact membership, and k-free counting along the sequence.

The membership criterion is the fractional-part test
    m = floor(alpha*n + beta) for some integer n  iff  0 < {gamma*m + delta} <= gamma,
with gamma = 1/alpha and delta = (1 - beta)/alpha; the witness n is
floor(gamma*m + delta). The scalar path (member_witness) decides both in one
certified decision per precision level. One precision-escalation loop
(_decide) certifies the floor, the membership and the count's slope. The block
kernels decide in float64 away from the borders and send entries near a
border (border_indices) to the certified scalar path.

The k-free count along the sequence enumerates no terms. It replaces alpha
by a rational slope A/Q certified to reproduce every term up to x and sums
mu(d) * N_d, N_d = #{n <= x : d**k | t_n}, over d <= t_x**(1/k). Up to a
cut-off D0 from a cost model, N_d is a difference of two floor sums over
the multiples of d**k in [t_1, t_x], run in numpy uint64 lanes at a lower
and an upper dyadic bracket of their slope and offset; a lane counts only
when both brackets give equal totals, and each d whose lane is not
certified takes two big-integer floor sums instead (so do all d when
t_x >= 2**63). Above D0 the block membership test decides the multiples of
d**k up to t_x, about t_x/D0**(k-1) membership pairs. For k = 2 both
halves take O(sqrt(t_x)) steps. The d come one Moebius window at a time
(kfree.squarefree_segments), the lanes in fixed-size chunks and the pairs
in chunks of whole d, so the memory is that of one window, and the reach is
capped by time.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cfrac import IrrationalSpec
from .errors import PrecisionExhausted
from .fixed import (
    DEFAULT_BITS,
    MAX_BITS,
    FixedReal,
    decision_margin,
    frac_tiles,
    frac_to_float,
    frac_u64,
    frac_vector,
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

_BORDER_TOL = 2.0**-40
_PAIR_CHUNK = 1 << 16  # membership pairs per chunk of the count
_LANE_CHUNK = 1 << 12  # d per chunk of the floor-sum lanes
_LANE_SLACK = 5  # theta, c within 5 units of 2**-64: frac_u64's 4, the offset's floor 1
# A lane of this many multiples or more goes to the fallback: such lanes
# seldom certify (for phi at 1e12-1e13, 10 of 758 of 2**22-2**23 multiples
# and none longer did), and from 2**32 on their totals could pass 2**64.
_LANE_MAX = 1 << 22
# c = c_p/c_f, the cost of one membership pair over that of one d in the
# floor-sum lanes. About 0.61*D0 squarefree d take lanes and
# 0.61*t_x*D0**(1-k)/(k-1) pairs lie above D0, so the total is least at
# D0 = (c*t_x)**(1/k). Measured on a 2-core Xeon at x = 1e12 and 1e13: 52-53
# ns per pair against 1.2-1.4 us per d, so c is near 0.04, whatever the bits
# of the slope; of c = 0.005-0.08, 0.04 timed best on the 2**20..2**24 grid
# of the benchmark's count configs and at x = 1e12-1e14.
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


def border_indices(
    f: np.ndarray, value: FixedReal, offset: FixedReal, n_hi: int, *targets: float
) -> np.ndarray:
    """Indices i where f[i], the float fractional part of value*n + offset for
    the i-th n of a block ending at n_hi, lies too near 0, 1 or one of
    targets for a float decision to hold.

    The tolerance is the float kernels' 2**-40 plus the error bound of
    value*n_hi + offset, so a wide alpha interval (short cf:, coarse dec:)
    sends its entries to the certified scalar path.
    """
    tol = _BORDER_TOL + (value.err_ulps * n_hi + offset.err_ulps) / (1 << value.scale_bits)
    near = (f < tol) | (f > 1.0 - tol)
    for t in targets:
        near |= np.abs(f - t) < tol
    return np.nonzero(near)[0]


def beatty_terms_block(p: BeattyParams, n_lo: int, n_hi: int) -> np.ndarray:
    """Vector of floor(alpha*n + beta) for n in [n_lo, n_hi] (int64).

    Filled in tiles of frac_tiles. With n = n_0 + j for a tile starting at
    n_0, a0*j and floor(alpha*n_0 + beta) are exact integers; a float64
    estimate of the rest, less its exactly reduced fractional part, gives its
    floor. Entries near a border are recomputed through the certified scalar
    path. Raises ValueError when the terms could leave int64.
    """
    lv = p.level(p.precision_bits)
    a = lv.alpha.mantissa
    a0 = a >> lv.bits
    if (a0 + 1) * n_hi + abs(p.beta) + 1 >= 1 << 63:
        raise ValueError(
            f"terms of alpha={p.alpha} up to n_hi={n_hi} exceed the int64 limit 2**63"
        )
    out = np.empty(n_hi - n_lo + 1, dtype=np.int64)
    c0 = a * n_lo + lv.beta.mantissa  # alpha*n_lo + beta
    for t0, f in frac_tiles(a, lv.bits, c0, len(out)):
        if t0 == 0:  # the first tile is the longest; its j serve every tile
            j = np.arange(len(f), dtype=np.int64)
            fj, a0j = frac_to_float(a, lv.bits) * j, np.int64(a0) * j
        m = out[t0:t0 + len(f)]
        c = c0 + a * t0  # alpha*(n_lo + t0) + beta
        np.rint(fj[:len(m)] + frac_to_float(c, lv.bits) - f, out=m, casting="unsafe")
        m += a0j[:len(m)]
        m += np.int64(c >> lv.bits)
        for i in border_indices(f, lv.alpha, lv.beta, n_hi):
            m[i] = beatty_term(p, n_lo + t0 + int(i))
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


def gamma_test(lv: _Level, f: np.ndarray, m_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The float membership test 0 < f <= gamma on f = {gamma*m + delta} at
    level lv, m <= m_hi, and the indices (border_indices) whose float decision
    does not hold, which the caller decides exactly."""
    gf = lv.gamma.to_float()
    return (f > 0.0) & (f <= gf), border_indices(f, lv.gamma, lv.delta, m_hi, gf)


def member_flags_block(p: BeattyParams, m_lo: int, m_hi: int) -> np.ndarray:
    """Vectorized membership criterion for m in [m_lo, m_hi] (bool array),
    filled in tiles of frac_tiles."""
    lv = p.level(p.precision_bits)
    g = lv.gamma.mantissa
    flags = np.empty(m_hi - m_lo + 1, dtype=bool)
    for t0, f in frac_tiles(g, lv.bits, g * m_lo + lv.delta.mantissa, len(flags)):
        tile, border = gamma_test(lv, f, m_hi)
        for i in border:
            tile[i] = is_member(p, m_lo + t0 + int(i))
        flags[t0:t0 + len(f)] = tile
    return flags


def _certified_slope(p: BeattyParams, x: int) -> Fraction:
    """A rational s with floor(s*n + beta) = floor(alpha*n + beta) for 1 <= n <= x.

    Every slope in a level's interval [lo, hi] of alpha gives terms between
    those of lo and of hi, so equal term totals at lo and hi (one floor sum
    each) make every term agree and lo stands in for alpha (_decide).
    """
    b, c = p.beta.numerator, p.beta.denominator

    def total(s: Fraction) -> int:
        a, q = s.numerator, s.denominator
        return floor_sum(x, q * c, a * c, a * c + b * q)

    def certify(lv: _Level) -> Fraction | None:
        lo, hi = lv.interval
        return lo if total(lo) == total(hi) else None

    return _decide(p, f"floor(alpha*n+beta) for n <= x={x}", certify)


def _member_pairs(p: BeattyParams, A: int, B: int, Q: int, x: int, k: int,
                  d: np.ndarray, mu: np.ndarray) -> int:
    """sum over the given d of mu(d) * #{n <= x : d**k | t_n}, with
    t_n = floor((A*n + B)/Q) < 2**63: the Beatty members among the
    multiples m = j*d**k in [t_1, t_x], in chunks of whole d cut at each
    multiple of _PAIR_CHUNK pairs. Above the cost model's D0, d**k >
    _PAIR_COST*t_x leaves a d at most 24 multiples, so a chunk holds at most
    _PAIR_CHUNK + 24 pairs; the d0 test hook of _count_split can put all of
    one d's pairs in a single chunk. The float gamma-test decides them; a
    border entry counts iff n = ceil((Q*m - B)/A) has t_n = m. Since the
    terms increase and t_1 <= m <= t_x, such an n lies in [1, x]."""
    t_1, t_x = (A + B) // Q, (A * x + B) // Q
    dk = d**k
    j_lo = (t_1 - 1) // dk + 1
    per_d = t_x // dk - j_lo + 1
    ends = np.cumsum(per_d)
    cuts = np.searchsorted(ends, np.arange(_PAIR_CHUNK, int(ends[-1]), _PAIR_CHUNK), "right")
    bounds = np.unique(np.concatenate(([0], cuts, [len(d)]))).tolist()
    lv = p.level(p.precision_bits)
    count = 0
    for g0, g1 in zip(bounds, bounds[1:]):
        g, j = group_offsets(per_d[g0:g1])
        m = ((j_lo[g0:g1][g] + j) * dk[g0:g1][g]).astype(np.uint64)
        f = frac_vector(lv.gamma.mantissa, lv.bits, m, offset_mantissa=lv.delta.mantissa)
        flags, border = gamma_test(lv, f, t_x)
        for i in border.tolist():
            mi = int(m[i])
            n = -((B - Q * mi) // A)  # least n with t_n >= mi
            flags[i] = (A * n + B) // Q == mi
        members = np.bincount(g[flags], minlength=g1 - g0)
        count += int(members @ mu[g0:g1])
    return count


def _n_d(A: int, B: int, Q: int, x: int, dk: int) -> int:
    """#{n <= x : dk | t_n}, t_n = floor((A*n + B)/Q), by two big-integer
    floor sums over i = n - 1 of floor(t_n/dk) - floor((t_n - 1)/dk)."""
    D = Q * dk
    return floor_sum(x, D, A, A + B) - floor_sum(x, D, A, A + B - Q)


def _bracket(v: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo*2**shift <= v and v + _LANE_SLACK <= hi*2**shift:
    a value in [v, v + _LANE_SLACK) units of 2**-64, bracketed at
    2**(shift - 64); v <= 2**64 - _LANE_SLACK."""
    return v >> shift, ((v + np.uint64(_LANE_SLACK - 1)) >> shift) + np.uint64(1)


def _lane_counts(A: int, B: int, Q: int, t_1: int, t_x: int,
                 dk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N_d = #{n <= x : dk | t_n} for the D = d**k in dk (t_x < 2**63) as
    uint64 lanes, and the mask of lanes whose N_d is certified.

    The multiples of D in [t_1, t_x] are j*D, j = j_lo + i for i < L, and
    j*D is a term iff [(Q*j*D - B)/A, (Q*j*D + Q - B)/A) holds an integer.
    The integer parts of the two ceilings cancel, so
        N_d = sum_{i<L} floor(theta*i + c + gamma) - floor(theta*i + c)
    with theta = {Q*D/A}, c = {(Q*D*j_lo - B + A - 1)/A} and gamma = Q/A.
    frac_u64 gives theta and c to within _LANE_SLACK units of 2**-64, and
    they are bracketed at 2**-s, s = 63 - bitlen(L + 2), so that
    a*L + b < 2**63 in floor_sum_lanes. Every term is monotone in slope and
    offset, so equal totals at the lower and the upper brackets make each
    term, and so the sum, exact. A lane is certified when both sums agree
    at their brackets, neither bracket wraps past 1, and L < _LANE_MAX, so
    that the totals fit 64 bits.
    """
    u64 = np.uint64
    j_lo = (t_1 - 1) // dk + 1
    L = t_x // dk - j_lo + 1
    g = (Q << 128) // A  # gamma in units of 2**-128, truncated
    theta = frac_u64(g, 128, dk)
    c = frac_u64(g, 128, dk.astype(u64) * j_lo.astype(u64))
    c += u64((((A - 1 - B) % A) << 64) // A)
    top = u64((1 << 64) - _LANE_SLACK)  # at most this, the bracket does not wrap
    ok = (L < _LANE_MAX) & (theta <= top) & (c <= top)
    L = np.where(ok, L, 0).astype(u64)
    shift = (np.frexp(L + u64(2))[1] + 1).astype(u64)  # 64 - s
    m = u64(1) << (u64(64) - shift)
    (t_lo, t_hi), (c_lo, c_hi) = _bracket(theta, shift), _bracket(c, shift)
    g_lo = u64((Q << 64) // A) >> shift
    sums = floor_sum_lanes(np.tile(L, 4), np.tile(m, 4), np.concatenate((t_lo, t_hi, t_lo, t_hi)),
                           np.concatenate((c_lo, c_hi, c_lo + g_lo, c_hi + g_lo + u64(1))))
    lo1, hi1, lo2, hi2 = sums.reshape(4, -1)
    return lo2 - lo1, ok & (lo1 == hi1) & (lo2 == hi2)


def _floor_sum_count(A: int, B: int, Q: int, x: int, k: int,
                     d: np.ndarray, mu: np.ndarray) -> int:
    """sum over the given d of mu(d) * #{n <= x : d**k | t_n}: _lane_counts in
    chunks of _LANE_CHUNK d, and _n_d for each d whose lane is not certified,
    or for every d when t_x >= 2**63."""
    t_1, t_x = (A + B) // Q, (A * x + B) // Q
    count, rest = 0, range(len(d))
    if t_x < 1 << 63:  # the lanes' D*j_lo and L are uint64
        rest = []
        for c0 in range(0, len(d), _LANE_CHUNK):
            n_d, cert = _lane_counts(A, B, Q, t_1, t_x, d[c0:c0 + _LANE_CHUNK] ** k)
            count += int(n_d[cert].astype(np.int64) @ mu[c0:c0 + len(cert)][cert].astype(np.int64))
            rest += (np.flatnonzero(~cert) + c0).tolist()
    for i in rest:
        count += int(mu[i]) * _n_d(A, B, Q, x, int(d[i]) ** k)
    return count


def _count_split(p: BeattyParams, x: int, k: int, d0: int | None, memory_bytes: int) -> int:
    """The exact count of count_kfree_beatty, split at D0 = d0 (None: the
    cost model of _PAIR_COST): _floor_sum_count for d <= D0, _member_pairs
    above, one Moebius window of d at a time. _member_pairs holds 5 int64
    arrays over the squarefree d of its window."""
    s = _certified_slope(p, x)
    # t_n = floor((A*n + B) / Q) exactly for 1 <= n <= x
    A = s.numerator * p.beta.denominator
    B = p.beta.numerator * s.denominator
    Q = s.denominator * p.beta.denominator
    t_1, t_x = (A + B) // Q, (A * x + B) // Q
    if t_1 < 1:
        raise ValueError(f"terms must be positive: t_1 = floor(alpha + beta) = {t_1} for "
                         f"alpha={p.alpha}, beta={p.beta} is below the limit t_1 >= 1")
    r = iroot(t_x, k)
    if d0 is None:
        d0 = iroot(int(_PAIR_COST * t_x), k)
    if t_x >= 1 << 63:  # the pairs' multiples are int64
        d0 = r
    count = 0
    for d, mu in squarefree_segments(r, memory_bytes):
        n_small = int(np.searchsorted(d, d0, "right"))
        count += _floor_sum_count(A, B, Q, x, k, d[:n_small], mu[:n_small])
        if n_small < len(d):
            count += _member_pairs(p, A, B, Q, x, k, d[n_small:], mu[n_small:])
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
    Up to D0 = (c*t_x)**(1/k), c = 0.04 (_PAIR_COST), the inner counts are
    floor sums in uint64 lanes of 2**12 d (_lane_counts), with two
    big-integer floor sums for each d whose lane does not certify (few:
    those with about 2**19 or more multiples) and for every d when
    t_x >= 2**63. Above D0 it tests the Beatty members among the multiples
    of d**k in [t_1, t_x], about 2**16 pairs at a time (_member_pairs). For
    k = 2 that is about 0.61*sqrt(c*t_x) squarefree d of floor sums and
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
