"""Slow, independent methods the tests compare the package against."""
import math
from fractions import Fraction

import numpy as np

from beatty_kfree.expsums import _unit_circle, complex_fsum
from beatty_kfree.fixed import TILE
from beatty_kfree.kfree import (
    DEFAULT_MEMORY_BYTES,
    group_offsets,
    iroot,
    sieve_moebius,
    squarefree_segments,
)


def count_kfree_moebius(x: int, k: int, memory_bytes: int = DEFAULT_MEMORY_BYTES) -> int:
    """Q_k(x) = sum_d mu(d) * floor(x / d**k) over every squarefree d with
    d**k <= x, one squarefree_segments window at a time. Every partial sum
    is at most zeta(k) * x < 2**63 for x <= 2**62."""
    count = 0
    for d, mu in squarefree_segments(iroot(x, k), memory_bytes):
        q = d.astype(np.uint64)  # x // d**k in place: one window-sized temporary
        q **= k
        np.floor_divide(np.uint64(x), q, out=q)
        count += int(np.dot(q.view(np.int64), mu.astype(np.int64)))
    return count


def power_sum(t: int, bits: int, ns: np.ndarray, H: int, w: np.ndarray) -> complex:
    """sum_{h=1..H} sum_j w_j * e(h * t * ns_j / 2**bits), the direct
    Moebius-weighted sum that sum B of the hyperbola split is checked against.

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


def sum_b_pairs(x: int, k: int, y: float) -> tuple[np.ndarray, np.ndarray]:
    """(n, mu(m)) over sum B's pairs (l, m) of the hyperbola split at y,
    n = l * m**k with m**k > y and l <= x/y: for each l <= floor(x/y) the
    squarefree m past y**(1/k) with m**k <= x/l."""
    r = iroot(x, k)
    mu = sieve_moebius(1, max(r, 1))[:r]
    nz = np.nonzero(mu)[0]
    mk = (nz.astype(np.uint64) + 1) ** k
    na = int(np.searchsorted(nz, iroot(int(y), k)))  # the nz with m**k <= y
    lc = math.floor(x / Fraction(y))  # exact: a float x / y can round up past it
    # x/l >= y, so x//l >= floor(y) >= m**k of the first na and no count is negative
    ls = np.arange(1, lc + 1, dtype=np.uint64)
    li, idx = group_offsets(np.searchsorted(mk, np.uint64(x) // ls, side="right") - na)
    idx += na
    return ls[li] * mk[idx], mu[nz][idx].astype(np.float64)
