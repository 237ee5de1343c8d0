"""Exponential sums over k-free integers and their hyperbola decomposition.

The double sum  sum_{h<=H} sum_{n<=x, n k-free} e(theta*h*n)  is evaluated
two ways, by two kernels. The naive path sums straight over the sieve flags:
with n = a*2**s + b, the inner sums over b for every h are one real matrix
product per chunk of flags against a table of e(h*theta*b), and the outer
sums over a weight them by a table of e(h*theta*a*2**s). The hyperbola path
goes through the Moebius identity for the k-free indicator, n = l*m**k <= x
weighted by mu(m), split at m**k = y into two disjoint parts. Sum A
(m**k <= y) takes its long inner sums over l in closed geometric form, all
(h, m) pairs in one vectorised linear_exp_sum call, whose angles are uint64
words of three frac_u64 passes, within 2**-61 of their values, and exact
integer reductions only on the few pairs where such a word would not keep
the angle's relative precision; sum B (m**k > y, so
l <= x/y) is a direct Moebius-weighted sum over its sparse pairs (l, m) by
the power-sum kernel, which takes e(theta*n) as the product of two twiddle
table entries and e(theta*h*n) by complex multiplication. Every twiddle entry
is one exact reduction of the fixed-point mantissa of theta, so it is within
a few ulp of its value. Each path sums its partials exactly rounded
(complex_fsum), so the two agree to within the float64 error of the partials
themselves. The naive sum and sum B share no kernel, so their agreement
checks the kernels as well as the split; the tests also check each kernel
against one exact reduction per (h, n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MemoryBudgetExceeded
from .fixed import TILE, FixedReal, frac_u64, frac_vector
from .kfree import DEFAULT_MEMORY_BYTES, group_offsets, iroot, sieve_kfree, sieve_moebius

TWO_PI = 2.0 * math.pi
# bytes per table entry and h: the complex table, its real copy and the
# temporaries of _unit_circle (about 32 measured)
_TABLE_BYTES = 64
# linear_exp_sum's pairs with |phi| or |x*phi - q| below this take the exact
# reductions: a lane argument is within 2**-61 of its value, so above it
# within 2**-49 relative. 2**-12 sends 174 of the 142,128 pairs there that
# expsum-sweep at its defaults (100 trials, x <= 1e5, H <= 30) makes at seeds 0-3.
_EXACT_BELOW = 2.0**-12
_1, _63 = np.uint64(1), np.uint64(63)
_QUARTER = np.uint64(1 << 62)
_LOW63 = np.uint64((1 << 63) - 1)


def split_parameter(x: int, k: int) -> float:
    """Default hyperbola split y = x**(k/(2k-1))."""
    return float(x) ** (k / (2.0 * k - 1.0))


def complex_fsum(parts) -> complex:
    """Exactly rounded sum of complex partials (any iterable or array):
    math.fsum per component, so the result does not depend on their order.
    An array is read as it is; other iterables are collected first."""
    if isinstance(parts, np.ndarray):
        z = parts.astype(np.complex128, copy=False)
    else:
        z = np.fromiter(parts, dtype=np.complex128)
    return complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))


def _unit_circle(t: int, bits: int, ns: np.ndarray) -> np.ndarray:
    """e(t * ns_j / 2**bits) per entry: one exact reduction, the angle centred
    in [-1/2, 1/2) turns so that its float error is relative to its size and
    not to a whole turn, then one cos and one sin."""
    f = frac_vector(t, bits, ns)
    ang = TWO_PI * (f - np.rint(f))
    z = np.empty(len(ang), dtype=np.complex128)
    z.real = np.cos(ang)
    z.imag = np.sin(ang)
    return z


def _power_sum(t: int, bits: int, ns: np.ndarray, H: int, w: np.ndarray) -> complex:
    """sum_{h=1..H} sum_j w_j * e(h * t * ns_j / 2**bits).

    Each n splits as n = a * 2**s + b, b < 2**s, with s half the bit length
    of max(ns) rounded up, and e(theta*n) = e(theta*b) * e(theta*a*2**s).
    Two twiddle tables, lo[b] = e(theta*b) for b < 2**s and hi[a] =
    e(theta*a*2**s) for a <= max(ns) >> s, are built once per call by
    _unit_circle: about 2*sqrt(max(ns)) reductions and cos/sin pairs in all,
    in place of one per element. Per tile of TILE ns, z_j = lo[b_j] * hi[a_j]
    is two gathers and one complex product; then w_j * z_j**h follows by one
    complex multiply per h and one pairwise sum per h.

    Each factor is within 2**-54 + 2**-62 turns of its exact angle before the
    rounding of cos and sin, so z_j is within a few ulp of e(theta*n_j),
    about twice the error of a direct reduction; z_j**h multiplies it by h.
    """
    ns = np.asarray(ns, dtype=np.uint64)
    if not len(ns):
        return 0j
    top = int(ns.max())
    s = (top.bit_length() + 1) // 2
    mask, shift = np.uint64((1 << s) - 1), np.uint64(s)
    lo = _unit_circle(t, bits, np.arange(1 << s, dtype=np.uint64))
    hi = _unit_circle(t, bits, np.arange((top >> s) + 1, dtype=np.uint64) << shift)
    parts = []
    for j0 in range(0, len(ns), TILE):
        n = ns[j0:j0 + TILE]
        # int64 views: numpy gathers by a uint64 index at about twice the cost
        z = lo[(n & mask).view(np.int64)]
        z *= hi[(n >> shift).view(np.int64)]
        v = z * w[j0:j0 + TILE]
        for h in range(1, H + 1):
            parts.append(complex(np.sum(v)))
            if h < H:
                v *= z
    return complex_fsum(parts)


def _exact_angles(t: int, bits: int, ns: list, xs: list):
    """(phi, half_turns, phase) of linear_exp_sum for each pair (n, x), by
    three exact integer reductions of t*n / 2**bits, each rounded once to
    float: phi = theta*n mod 1 and (x+1)*phi/2 mod 1, both centred in
    [-1/2, 1/2), and x*phi less its nearest integer q, negated when q is odd."""
    one = 1 << bits
    half, two = one >> 1, one << 1
    phi, half_turns, phase = [], [], []
    for n, x in zip(ns, xs):
        r = (t * n + half) % one - half
        xr = x * r
        q, u = divmod(xr + half, one)
        phi.append(r / one)
        half_turns.append((half - u if q & 1 else u - half) / one)
        phase.append(((xr + r + one) % two - one) / two)
    return phi, half_turns, phase


def linear_exp_sum(theta: FixedReal, ns, xs) -> np.ndarray:
    """[sum_{l=1..xs_j} e(theta * ns_j * l) for each pair j] by the closed form

        e((x+1)*phi/2) * sin(pi*x*phi) / sin(pi*phi),

    for n, x >= 0 below 2**64. Its three arguments come from uint64 lanes,
    three frac_u64 calls of theta/2 on the whole arrays: b, a and c,
    theta*n/2, theta*x*n/2 and theta*(x+1)*n/2 mod 1, each within 4 units of
    2**-64. The word b fixes phi = 2b mod 1, centred in [-1/2, 1/2), and the
    parity of the integer R = theta*n - phi: R is odd iff b lies in
    [1/4, 3/4). Then x*phi = 2a - x*R and (x+1)*phi/2 = c - (x+1)*R/2
    (mod 2 and mod 1) use that same representative of phi, as the closed
    form needs. x*phi is centred on its nearest integer q, whose sine is
    sin(pi*x*phi) up to the sign (-1)**q, so both sines take arguments in
    [-1/2, 1/2) turns, each within 2**-61 of its exact value.

    The pairs where that slack is not small against the argument, |phi| or
    |x*phi - q| below _EXACT_BELOW (phi = 0 and x = 0 among them), or where
    (x+1)*n reaches 2**63, take _exact_angles, the exact integer reductions.
    Elsewhere each sine's argument is within 2**-49 relative of its exact
    value and the phase within 2**-62 turns, so each sum is within 2**-48
    (3.6e-15) relative of the closed form at exact arguments, before the few
    ulp of the sines, cosines and ratio. phi = 0 gives exactly x.
    """
    bits = theta.scale_bits
    t = theta.mantissa % (1 << bits)
    ns = np.asarray(ns, dtype=np.uint64)
    xs = np.asarray(xs)
    if xs.size and xs.min() < 0:
        raise ValueError(f"xs must be >= 0, got {xs.min()}")
    xs = xs.astype(np.uint64)
    b = frac_u64(t, bits + 1, ns)
    odd = (b + _QUARTER) >> _63
    phi = (b << _1).view(np.int64) * 2.0**-64
    # x*phi mod 2 in units of 2**-63, shifted by 1/2 so that its top bit is q mod 2
    v = frac_u64(t, bits + 1, xs * ns) ^ ((xs & odd) << _63)
    v += _QUARTER
    u = ((v & _LOW63).view(np.int64) - (1 << 62)) * 2.0**-63
    half_turns = np.where(v >> _63, -u, u)
    x1 = xs + _1
    phase = (frac_u64(t, bits + 1, x1 * ns) ^ ((x1 & odd) << _63)).view(np.int64) * 2.0**-64
    slow = np.abs(phi) < _EXACT_BELOW
    slow |= np.abs(half_turns) < _EXACT_BELOW
    slow |= ns > _LOW63 // (np.minimum(xs, _LOW63) + _1)  # (x+1)*n >= 2**63
    if slow.any():
        exact = _exact_angles(t, bits, ns[slow].tolist(), xs[slow].tolist())
        phi[slow], half_turns[slow], phase[slow] = exact
    zero = phi == 0.0
    den = np.sin(np.pi * np.where(zero, 0.5, phi))
    ratio = np.sin(np.pi * half_turns) / den
    ratio[zero] = xs[zero]
    ang = TWO_PI * phase
    out = np.empty(len(phi), dtype=np.complex128)
    out.real = ratio * np.cos(ang)
    out.imag = ratio * np.sin(ang)
    return out


def double_kfree_sum_naive(
    theta: FixedReal,
    H: int,
    x: int,
    k: int,
    memory_bytes: int = DEFAULT_MEMORY_BYTES,
) -> complex:
    """Direct double sum over h <= H and k-free n <= x, straight from the
    sieve flags.

    With n = a * 2**s + b, b < 2**s and s half the bit length of x rounded
    up, S_h = sum_a e(h*theta*a*2**s) * sum_b F[a, b] * e(h*theta*b), where
    F is the flags in rows of 2**s, zero at n = 0 and past x. The twiddle
    tables lo[b, h] = e(h*theta*b) and hi[a, h] = e(h*theta*a*2**s) take one
    _unit_circle call each, over the products h*b and h*a*2**s. Per chunk of
    TILE flags the inner sums of every h are one real matrix product,
    F_chunk @ [lo.real | lo.imag]; their products with the hi rows are summed
    per h and the per-h partials exactly rounded by complex_fsum. The h run
    in as few blocks as fit their two tables into what memory_bytes leaves
    after the sieve, two reductions per block; MemoryBudgetExceeded when the
    tables of one h do not fit.

    Float bound: each table entry is one exact reduction, within 2**-54 +
    2**-62 turns of its angle before cos and sin round, so it is within a few
    ulp of its value for any h; no power of a rounded entry is taken, and the
    error does not grow with h. Each inner sum adds 2**s terms of modulus
    <= 1 and each S_h about x / 2**s products of an inner sum with a hi
    entry, so S_h is within a few ulp of x in the worst case.
    """
    if H < 1 or x < 1:
        return 0j
    flags = sieve_kfree(k, 1, x, memory_bytes)
    if H * x >> 64:
        raise ValueError(f"H*x = {H * x} exceeds 2**64; the products h*n are uint64")
    bits = theta.scale_bits
    t = theta.mantissa % (1 << bits)
    s = (x.bit_length() + 1) // 2
    width, rows = 1 << s, (x >> s) + 1
    per_h = _TABLE_BYTES * (width + rows)
    left = memory_bytes - flags.nbytes
    if per_h > left:
        raise MemoryBudgetExceeded(
            f"twiddle tables for x={x} need {per_h} bytes per h, the sieve leaves "
            f"{left} of the budget {memory_bytes}", per_h + flags.nbytes)
    size = -(-H // -(-H * per_h // left))  # h per block, over the fewest blocks
    step = max(1, TILE >> s)  # rows per chunk
    b = np.arange(width, dtype=np.uint64)
    a = np.arange(rows, dtype=np.uint64) << np.uint64(s)
    parts = []
    for h0 in range(1, H + 1, size):
        hs = np.arange(h0, min(h0 + size, H + 1), dtype=np.uint64)
        nh = len(hs)
        lo = _unit_circle(t, bits, np.outer(b, hs).ravel()).reshape(width, nh)
        lo = np.hstack([lo.real, lo.imag])  # one real product gives both parts
        hi = _unit_circle(t, bits, np.outer(a, hs).ravel()).reshape(rows, nh)
        for a0 in range(0, rows, step):
            a1 = min(a0 + step, rows)
            f = np.zeros((a1 - a0) << s)
            n0, n1 = max(a0 << s, 1), min(a1 << s, x + 1)
            f[n0 - (a0 << s):n1 - (a0 << s)] = flags[n0 - 1:n1 - 1]
            p = f.reshape(a1 - a0, width) @ lo
            inner = p[:, :nh] + 1j * p[:, nh:]
            inner *= hi[a0:a1]
            parts.append(inner.sum(axis=0))
    return complex_fsum(np.concatenate(parts))


@dataclass(frozen=True)
class HyperbolaSplit:
    """Two-way decomposition at m**k = y; sum_A + sum_B equals the naive sum."""

    y: float
    sum_A: complex
    sum_B: complex

    def combined(self) -> complex:
        return self.sum_A + self.sum_B


def double_kfree_sum_hyperbola(
    theta: FixedReal,
    H: int,
    x: int,
    k: int,
    y: float | None = None,
    memory_bytes: int = DEFAULT_MEMORY_BYTES,
) -> HyperbolaSplit:
    """Hyperbola evaluation of the double k-free sum with split parameter y.

    A: m**k <= y, inner geometric sum over l <= x/m**k in closed form, one
       linear_exp_sum call over all pairs (h, m) with mu(m) != 0;
    B: y < m**k <= x/l, hence l <= x/y, Moebius-weighted and summed
       directly, one _power_sum call over all its pairs (l, m).
    """
    if y is None:
        y = split_parameter(x, k)
    if not 1.0 <= y <= float(x):
        raise ValueError("need 1 <= y <= x")
    bits = theta.scale_bits
    one = 1 << bits
    t = theta.mantissa % one

    m_top = iroot(x, k)
    mu = sieve_moebius(1, max(m_top, 1), memory_bytes)
    ma = iroot(int(y), k)
    lc = math.floor(x / Fraction(y))  # exact: a float x / y can round up past it

    # the m with mu(m) != 0, m**k <= x; the first na of them have m**k <= y
    nz = np.nonzero(mu)[0]
    mk = (nz.astype(np.uint64) + 1) ** k
    mus = mu[nz].astype(np.float64)
    na = int(np.searchsorted(nz, ma))

    # A: one closed form per pair (h, m), in one call
    hs = np.arange(1, H + 1, dtype=np.uint64)
    sums_l = linear_exp_sum(theta, np.outer(hs, mk[:na]).ravel(),
                            np.tile(np.uint64(x) // mk[:na], H))
    sum_a = complex_fsum(sums_l * np.tile(mus[:na], H))

    # B: per l <= lc the m past the first na with m**k <= x/l; x/l >= y, so
    # x//l >= floor(y) >= ma**k and no count is negative (np.repeat would raise)
    ls = np.arange(1, lc + 1, dtype=np.uint64)
    li, idx = group_offsets(np.searchsorted(mk, np.uint64(x) // ls, side="right") - na)
    idx += na
    sum_b = _power_sum(t, bits, ls[li] * mk[idx], H, mus[idx])

    return HyperbolaSplit(y, sum_a, sum_b)


@dataclass(frozen=True)
class ThetaApprox:
    """theta together with a reduced rational a/q with |theta - a/q| <= 1/q**2."""

    theta: FixedReal
    a: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if math.gcd(self.a, self.q) != 1:
            raise ValueError("a/q must be reduced")
        center = Fraction(self.theta.mantissa, 1 << self.theta.scale_bits)
        err = Fraction(self.theta.err_ulps, 1 << self.theta.scale_bits)
        if abs(center - Fraction(self.a, self.q)) > Fraction(1, self.q**2) + err:
            raise ValueError("|theta - a/q| exceeds 1/q**2")


@dataclass(frozen=True)
class BoundReport:
    """|double k-free sum| against (H*x^(k/(2k-1)) + q + H*x/q)*x^eps, and the
    gap between its naive and its hyperbola evaluation."""

    lhs: float
    rhs_value: float
    ratio: float
    hyperbola_gap: float


def double_sum_bound_check(
    t: ThetaApprox,
    H: int,
    x: int,
    k: int,
    eps: float = 0.05,
    memory_bytes: int = DEFAULT_MEMORY_BYTES,
) -> BoundReport:
    """Compare |double k-free sum| against (H*x^(k/(2k-1)) + q + H*x/q)*x^eps.

    The lhs is the directly summed value; the report records its gap to the
    hyperbola evaluation at the default split.
    """
    if not (t.q <= x and H <= x):
        raise ValueError("need q <= x and H <= x")
    # the naive sieve first: past the budget it raises before any pair array is built
    naive = double_kfree_sum_naive(t.theta, H, x, k, memory_bytes)
    split = double_kfree_sum_hyperbola(t.theta, H, x, k, None, memory_bytes)
    lhs = abs(naive)
    rhs = (H * x ** (k / (2.0 * k - 1.0)) + t.q + H * x / t.q) * x**eps
    return BoundReport(lhs, rhs, lhs / rhs, abs(naive - split.combined()))
