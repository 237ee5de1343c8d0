"""Slow, independent methods the tests compare the package against."""
import numpy as np

from beatty_kfree.kfree import DEFAULT_MEMORY_BYTES, iroot, squarefree_segments


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
