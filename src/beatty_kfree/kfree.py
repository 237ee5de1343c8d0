"""Moebius and k-free sieves, and counting k-free integers against x/zeta(k)."""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import MemoryBudgetExceeded

DEFAULT_MEMORY_BYTES = 256 << 20
MAX_COUNT_X = 1 << 62
_MOEBIUS_CHUNK = 1 << 18


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
            f"{prime_top} (budget {memory_bytes})"
        )
    return n


def _single_hits(q: np.ndarray, lo: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(window index, q) of the q > n with a multiple (one at most) among the n entries from lo."""
    idx = np.mod(-lo, q)
    return idx[idx < n], q[idx < n]


def sieve_moebius(lo: int, hi: int, memory_bytes: int = DEFAULT_MEMORY_BYTES) -> np.ndarray:
    """int8 array of the Moebius values mu(n), n = lo..hi (entry i is mu(lo + i)),
    by a segmented residual-factor sieve. Primes above the window length hit
    one entry at most: one numpy pass."""
    top = math.isqrt(hi)
    n = _check_window(lo, hi, 9, top, memory_bytes)
    mu = np.ones(n, dtype=np.int8)
    val = np.arange(lo, hi + 1, dtype=np.int64)
    primes = primes_upto(top)
    small = int(np.searchsorted(primes, n, "right"))  # p <= n may hit several entries
    for p in primes[:small].tolist():
        start = ((lo + p - 1) // p) * p - lo
        mu[start::p] = -mu[start::p]
        val[start::p] //= p
        p2 = p * p
        start2 = ((lo + p2 - 1) // p2) * p2 - lo
        mu[start2::p2] = 0
    idx, big = _single_hits(primes[small:], lo, n)
    np.multiply.at(mu, idx, -1)
    np.floor_divide.at(val, idx, big)
    mu[_single_hits(big * big, lo, n)[0]] = 0
    rest = val > 1  # one prime factor above sqrt(hi) remains
    mu[rest] = -mu[rest]
    return mu


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
    flags[_single_hits(pks[small:], lo, n)[0]] = False
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


def count_kfree(x: int, k: int,
                memory_bytes: int = DEFAULT_MEMORY_BYTES) -> tuple[int, float, float]:
    """(exact count of k-free n <= x, x/zeta(k), count - x/zeta(k)).

    Evaluates sum_d mu(d) * floor(x / d**k) over d**k <= x exactly, in numpy
    chunks of d; the Moebius table takes 9 bytes per d from memory_bytes.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if x > MAX_COUNT_X:
        raise ValueError("x exceeds the 2**62 counting guard")
    if x < 1:
        return 0, 0.0, 0.0
    mu = sieve_moebius(1, iroot(x, k), memory_bytes)
    # each part sums to at most zeta(k) * x < 2**63 under the 2**62 guard
    pos = neg = 0
    for lo in range(0, len(mu), _MOEBIUS_CHUNK):
        m = mu[lo : lo + _MOEBIUS_CHUNK]
        d = np.arange(lo + 1, lo + len(m) + 1, dtype=np.uint64)
        q = np.uint64(x) // d**k
        pos += int(q[m > 0].sum(dtype=np.uint64))
        neg += int(q[m < 0].sum(dtype=np.uint64))
    count = pos - neg
    main = x / zeta(k)
    return count, main, count - main
