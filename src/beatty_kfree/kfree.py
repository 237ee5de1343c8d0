"""Moebius and k-free sieves, and counting k-free integers against x/zeta(k).

count_kfree sums mu(d) * floor(x / d**k) over the d <= D ~ x**(2/5) (k = 2)
of a windowed Moebius sieve, and the d > D by the Mertens function at the
points iroot(x // i, k) (Pawlewicz's grouping): O(x**(2/(2k+1))) work
instead of O(x**(1/k)). Its memory is an int32 table of M(0..D) and one
sieve window, charged to the caller's budget.
"""
from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import MemoryBudgetExceeded

DEFAULT_MEMORY_BYTES = 256 << 20
MAX_COUNT_X = 1 << 62
MOEBIUS_SEGMENT = 1 << 18  # d per sieve_moebius window of the counts
_FLIP_CHUNK = 1 << 16  # entries per pass of sieve_moebius's last step
# count_kfree's Mertens loop costs about C + sqrt(n_i) sieved d per i: C is
# its numpy overhead, 7.5 us against 20 ns per d on a 2-core Xeon at 1e12-1e16.
_MERTENS_I_COST = 375


def iroot(x: int, k: int) -> int:
    """Largest r with r**k <= x."""
    if x < 0 or k < 1:
        raise ValueError("need x >= 0, k >= 1")
    if k == 1:
        return x
    if k == 2:
        return math.isqrt(x)
    r = int(round(x ** (1.0 / k)))
    while r > 0 and r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n >= 0, m >= 1, any integers a, b.

    Euclid-like reduction (AtCoder Library floor_sum): fold the integer parts
    of a/m and b/m into closed forms, then swap the roles of a and m on the
    remaining lattice-point count. O(log m) steps on Python ints.
    """
    if n < 0 or m < 1:
        raise ValueError("need n >= 0, m >= 1")
    total = 0
    while True:
        if not 0 <= a < m:
            q, a = divmod(a, m)
            total += q * (n * (n - 1) // 2)
        if not 0 <= b < m:
            q, b = divmod(b, m)
            total += q * n
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def floor_sum_lanes(n: np.ndarray, m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """floor_sum(n[i], m[i], a[i], b[i]) for every lane i of uint64 arrays,
    by floor_sum's loop in lockstep: each step is a few numpy passes.

    Exact where m*(n + 1) <= 2**64 and the sum is below 2**64, m >= 1. After
    the first reduction a, b < m, so y_max = a*n + b < m*(n + 1); a swap
    passes on n' <= n and m' = a < m, so every y_max stays below
    m*(n + 1). The closed forms q*n*(n - 1)/2 and q*n may wrap, but they are
    added mod 2**64 to a total that ends below 2**64. A finished lane
    (y_max < m) goes on with n = 0, which adds nothing, and m = max(a, 1);
    the finished lanes are dropped once they are half of those left.
    """
    n, m, a, b = (np.array(v, dtype=np.uint64) for v in (n, m, a, b))
    out = np.empty(len(n), dtype=np.uint64)
    total = np.zeros(len(n), dtype=np.uint64)
    lane = np.arange(len(n))
    one = np.uint64(1)
    while len(lane):
        q, a = np.divmod(a, m)
        total += q * ((n >> one) * ((n - one) | one))  # q * n*(n - 1)/2, halving the even factor
        q, b = np.divmod(b, m)
        total += q * n
        y = a * n + b
        done = y < m
        if 2 * np.count_nonzero(done) >= len(lane):
            out[lane[done]] = total[done]
            run = ~done
            y, m, a, total, lane = y[run], m[run], a[run], total[run], lane[run]
        n, b = np.divmod(y, m)
        m, a = np.maximum(a, one), m
    return out


def primes_upto(n: int) -> np.ndarray:
    if n < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def group_offsets(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(group, offset) of every item, in order, when group i holds counts[i]
    items: the index pairs of a ragged double loop, built in numpy."""
    group = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return group, np.arange(len(group)) - starts[group]


def _check_window(lo: int, hi: int, bytes_per_entry: int, prime_top: int,
                  memory_bytes: int) -> int:
    """Window length; the budget covers the window and the prime_top + 1
    bytes of flags primes_upto(prime_top) takes."""
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi")
    if hi > 1 << 62:  # sieve values and offsets stay in int64
        raise ValueError(f"window end {hi} exceeds 2**62")
    n = hi - lo + 1
    need = n * bytes_per_entry + prime_top + 1
    if need > memory_bytes:
        raise MemoryBudgetExceeded(
            f"window [{lo},{hi}] needs {need} bytes with its primes up to "
            f"{prime_top} (budget {memory_bytes})", need
        )
    return n


def _single_hits(q: np.ndarray, lo: int, n: int) -> np.ndarray:
    """Window index of the multiple (one at most) of each q > n that lies among
    the n entries from lo, for the q that have one."""
    idx = np.mod(-lo, q)
    return idx[idx < n]


def sieve_moebius(lo: int, hi: int, memory_bytes: int = DEFAULT_MEMORY_BYTES) -> np.ndarray:
    """int8 array of the Moebius values mu(n), n = lo..hi (entry i is mu(lo + i)),
    by a logarithmic sieve that divides nothing: 3 bytes per entry.

    Each prime p <= sqrt(hi) negates mu on its multiples, zeroes it on the
    multiples of p**2 and adds round(256*log2(p)) to a uint16 sum lg. Primes
    above the window length hit one entry at most: one numpy pass. What is
    left of n is 1 or one prime R > sqrt(hi), and mu is flipped where
    256*log2(n) - lg > 128, more than half a bit missing. The test is exact:
    each rounded log is off by at most 1/512 bit and an n <= 2**62 has at
    most 15 distinct prime factors, so lg is within 0.03 bit of log2 of the
    small-prime part, and the gap is at most 0.03 bit (R = 1) or at least
    0.97 bit (R >= 2). n is formed in float64 (relative error below 2**-36)
    and rounded to float32 (2**-24), whose log2 is off by far less than
    0.01 bit; lg stays below 62*256 + 8, inside uint16.
    """
    top = math.isqrt(hi)
    n = _check_window(lo, hi, 3, top, memory_bytes)
    mu = np.ones(n, dtype=np.int8)
    lg = np.zeros(n, dtype=np.uint16)
    primes = primes_upto(top)
    logs = np.rint(256 * np.log2(primes)).astype(np.uint16)
    small = int(np.searchsorted(primes, n, "right"))  # p <= n may hit several entries
    for p, log_p in zip(primes[:small].tolist(), logs[:small].tolist()):
        hits = mu[-lo % p :: p]
        np.negative(hits, out=hits)
        lg[-lo % p :: p] += np.uint16(log_p)
        mu[-lo % (p * p) :: p * p] = 0
    idx = np.mod(-lo, primes[small:])
    hit = idx < n
    np.multiply.at(mu, idx[hit], -1)
    np.add.at(lg, idx[hit], logs[small:][hit])
    mu[_single_hits(primes[small:][hit] ** 2, lo, n)] = 0
    for c0 in range(0, n, _FLIP_CHUNK):
        part = lg[c0 : c0 + _FLIP_CHUNK]
        n_f = np.arange(lo + c0, lo + c0 + len(part), dtype=np.float64).astype(np.float32)
        log_n = np.log2(n_f)
        rest = log_n * np.float32(256) - part > 128  # a prime factor above sqrt(hi) is left
        mu[c0 : c0 + len(part)] *= 1 - 2 * rest.view(np.int8)
    return mu


def squarefree_segments(top: int, memory_bytes: int = DEFAULT_MEMORY_BYTES
                        ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(d, mu(d)) over the squarefree d <= top, in increasing order, one
    sieve_moebius window of MOEBIUS_SEGMENT d at a time: the memory of a
    caller's loop is that of one window, not of all d <= top."""
    for lo in range(1, top + 1, MOEBIUS_SEGMENT):
        mu = sieve_moebius(lo, min(lo + MOEBIUS_SEGMENT - 1, top), memory_bytes)
        nz = np.flatnonzero(mu)
        yield nz + lo, mu[nz]


def sieve_kfree(k: int, lo: int, hi: int, memory_bytes: int = DEFAULT_MEMORY_BYTES) -> np.ndarray:
    """bool array over n = lo..hi (entry i is lo + i), True iff no prime power
    p**k divides n. The p**k above the window length hit one entry at most:
    one numpy pass."""
    if k < 2:
        raise ValueError("k must be >= 2")
    top = iroot(hi, k)
    n = _check_window(lo, hi, 1, top, memory_bytes)
    flags = np.ones(n, dtype=bool)
    pks = primes_upto(top) ** k
    small = int(np.searchsorted(pks, n, "right"))
    for pk in pks[:small].tolist():
        start = ((lo + pk - 1) // pk) * pk - lo
        flags[start::pk] = False
    flags[_single_hits(pks[small:], lo, n)] = False
    return flags


@lru_cache(maxsize=None)
def zeta(k: int) -> float:
    """zeta(k) for integer k >= 2, correctly rounded, by Euler-Maclaurin in Fractions.

    Sum n**-k for n < N = 10, add the integral, the half term and ten corrections
    B_2j/(2j)! * k(k+1)...(k+2j-2) * N**(1-k-2j). For real k the eleventh
    correction bounds the remainder; N doubles until both ends round alike.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError("k must be an integer >= 2")
    bern = [Fraction(1)]
    for m in range(1, 23):
        bern.append(-sum(math.comb(m + 1, i) * bern[i] for i in range(m)) / (m + 1))
    N = 10
    while True:
        mid = sum(Fraction(1, n**k) for n in range(1, N))
        mid += Fraction(2 * N + k - 1, 2 * (k - 1) * N**k)  # N**(1-k)/(k-1) + N**-k/2
        terms = [bern[2 * j] * math.perm(k + 2 * j - 2, 2 * j - 1) / math.factorial(2 * j)
                 / N ** (k + 2 * j - 1) for j in range(1, 12)]
        mid += sum(terms[:10])
        lo, hi = float(mid - abs(terms[10])), float(mid + abs(terms[10]))
        if lo == hi:
            return lo
        N *= 2


def _mertens_bytes(d: int, n_big: int) -> int:
    """Bytes count_kfree charges for a split at D = d with at most n_big
    values M(n_i) above it: the int32 table of M(0..d), the int64 M(n_i) and
    the largest squarefree_segments window, 3 bytes per entry with its prime
    flags up to isqrt(d)."""
    return 4 * (d + 1) + 8 * (n_big + 1) + 3 * min(MOEBIUS_SEGMENT, d) + math.isqrt(d) + 1


def _count_split(x: int, k: int, D: int, memory_bytes: int) -> int:
    """Q_k(x) split at D, isqrt(iroot(x, k)) <= D <= iroot(x, k) (see
    count_kfree); memory_bytes is charged for each Moebius window."""
    table = np.zeros(D + 1, dtype=np.int32)  # M(v) for v <= D
    count = 0
    for d, mu in squarefree_segments(D, memory_bytes):
        table[d] = mu
        q = d.astype(np.uint64)  # x // d**k in place: one window-sized temporary
        q **= k
        np.floor_divide(np.uint64(x), q, out=q)
        count += int(np.dot(q.view(np.int64), mu.astype(np.int64)))
    np.cumsum(table, dtype=np.int32, out=table)
    top_i = x // (D + 1) ** k
    big = np.zeros(top_i + 1, dtype=np.int64)  # big[i] = M(n_i), n_i > D
    for i in range(top_i, 0, -1):
        n = iroot(x // i, k)
        s = math.isqrt(n)
        jb = iroot(top_i // i, k)  # n // j = n_(i*j**k) > D for j <= jb, at most D above
        q = n // np.arange(1, s + 2)  # q[j - 1] = n // j
        t = int(q[s])  # the j > s give the quotients v <= t
        big[i] = (1 - sum(int(big[i * j**k]) for j in range(2, jb + 1))
                  - int(table[q[jb:s]].sum(dtype=np.int64))
                  - int(np.dot(q[:t] - q[1:t + 1], table[1:t + 1])))
    return count + int(big.sum()) - top_i * int(table[D])


def count_kfree(x: int, k: int,
                memory_bytes: int = DEFAULT_MEMORY_BYTES) -> tuple[int, float, float]:
    """(exact count of k-free n <= x, x/zeta(k), count - x/zeta(k)).

    Q_k(x) = sum_d mu(d) * floor(x / d**k), split at D:

        Q_k(x) = sum_{d <= D} mu(d) * floor(x / d**k)
                 + sum_{i = 1..I'} (M(n_i) - M(D)),

    with the Mertens function M, n_i = iroot(x // i, k) and
    I' = x // (D + 1)**k, the i with n_i > D: a d > D is counted once for
    each i with d <= n_i. The d <= D come from squarefree_segments(D), whose
    windows also fill an int32 table of M(v), v <= D. The M(n_i) go from
    i = I' down to 1 by M(n) = 1 - sum_{j >= 2} M(n // j): n_i // j is
    n_(i*j**k), already known, while i*j**k <= I', and at most D otherwise,
    read from the table; the j <= isqrt(n) one by one, the smaller
    quotients v <= n // (isqrt(n) + 1) weighted by their multiplicity
    n // v - n // (v + 1). That is O(sqrt(n_i)) numpy work per i.

    D is the least d <= iroot(x, k) with d**(k+1) >= k*x*(C + isqrt(d)),
    C = _MERTENS_I_COST: there one more i, costing about C + sqrt(n_i)
    sieved d with n_i near D, saves D/(k*I') d of sieve. That is about
    (k*x)**(2/(2k+1)), x**(2/5) for k = 2, once sqrt(D) outgrows C. D is at
    least lo = iroot(2k*x, k + 1), where the charge is least: below it the
    M(n_i) grow in number faster than the table shrinks. Also
    lo >= isqrt(iroot(x, k)), so every v above is in the table.

    Memory: the table, the M(n_i) for the I' at D = lo and one Moebius
    window are charged to memory_bytes (_mertens_bytes). D shrinks to a
    split that fits, and MemoryBudgetExceeded is raised when D = lo does not.

    Overflow: the small d's partial sums are at most zeta(k) * x < 2**63
    under the 2**62 guard. n_i <= iroot(x, k) <= 2**31, so |M(n)| <= n fits
    the int32 table and each weighted sum of it, at most n * log(n), stays
    far inside int64.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if x > MAX_COUNT_X:
        raise ValueError("x exceeds the 2**62 counting guard")
    if x < 1:
        return 0, 0.0, 0.0
    r = iroot(x, k)
    lo = min(r, iroot(2 * k * x, k + 1))
    top = lo + bisect.bisect_left(  # the least cost D + sum_{i <= I'} (C + sqrt(n_i))
        range(lo, r), True, key=lambda d: d ** (k + 1) >= k * x * (_MERTENS_I_COST + math.isqrt(d)))
    n_big = x // (lo + 1) ** k
    D = lo - 1 + bisect.bisect_right(range(lo, top + 1), memory_bytes,
                                     key=lambda d: _mertens_bytes(d, n_big))
    if D < lo:
        need = _mertens_bytes(lo, n_big)
        raise MemoryBudgetExceeded(
            f"count_kfree({x}, {k}) needs {need} bytes for a Mertens table up to D={lo}, "
            f"{n_big} values above it and one Moebius window (budget {memory_bytes})", need)
    count = _count_split(x, k, D, memory_bytes - 4 * (D + 1) - 8 * (n_big + 1))
    main = x / zeta(k)
    return count, main, count - main
