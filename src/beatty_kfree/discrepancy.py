"""Exact extreme discrepancy of finite point sets {alpha*m + beta} in [0,1).

The supremum over open subintervals (c, d) of [0,1) of
|count/M - (d - c)| is attained in the limit at endpoints drawn from the
sample values (approached from either side) or the boundary points 0 and 1.
The scan reads the extreme and the star discrepancy off two reductions of
per-index arrays over the sorted points, one max and one min. The O(M^2)
oracle ranks every endpoint by the runs of equal values instead and
enumerates every endpoint-pair/side combination; the two agree bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .beatty import parse_beta
from .cfrac import IrrationalSpec, to_fixed
from .errors import PrecisionExhausted
from .fixed import DEFAULT_BITS, TILE, FixedReal, frac_vector


@dataclass(frozen=True)
class PointSet:
    points: np.ndarray
    M: int
    sorted_points: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.M != len(self.points) or self.M < 1:
            raise ValueError("M must equal the number of points and be >= 1")
        if self.sorted_points is None:
            object.__setattr__(self, "sorted_points", np.sort(self.points))
        if not (self.sorted_points[0] >= 0.0 and self.sorted_points[-1] < 1.0):
            raise ValueError("points must lie in [0, 1)")


@dataclass(frozen=True)
class DiscrepancyResult:
    extreme: float
    star: float


def build_pointset(alpha: IrrationalSpec, beta, M: int) -> PointSet:
    """Fractional parts {alpha*m + beta} for m = 1..M at DEFAULT_BITS.

    Each point is within 2**-54 + 2**-62 of the fractional part of the
    fixed-point alpha*m + beta, which is within its certified error of the
    true value. Moving every point by eps moves the extreme discrepancy by at
    most 2*eps (Kuipers-Niederreiter, Ch. 2), so PrecisionExhausted is raised,
    before any array is built, when the certified error of alpha*M + beta,
    from alpha's own interval, exceeds 2**-54.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    a = to_fixed(alpha, DEFAULT_BITS)
    b = FixedReal.from_fraction(parse_beta(beta) if isinstance(beta, str) else beta,
                                DEFAULT_BITS)
    if (err := a.err_ulps * M + b.err_ulps) > 1 << (DEFAULT_BITS - 54):
        raise PrecisionExhausted(
            f"points up to M={M} for alpha={alpha}: alpha*M + beta is certified within "
            f"{err / (1 << DEFAULT_BITS):.3g}, coarser than the fractional-part "
            f"kernel's 2**-54")
    pts = np.empty(M)
    for m0 in range(0, M, TILE):
        m = np.arange(m0 + 1, min(M, m0 + TILE) + 1, dtype=np.uint64)
        pts[m0:m0 + len(m)] = frac_vector(a.mantissa, DEFAULT_BITS, m,
                                          offset_mantissa=b.mantissa)
    return PointSet(pts, M)


def _endpoint_arrays(sorted_points: np.ndarray, M: int):
    """Endpoint values u (samples plus 0 and 1) and their ranks lr/M, ur/M.

    O(M) on sorted points in [0, 1). The lower/upper ranks lr/ur of u
    (# points < u, # points <= u) are the starts of its run of equal values
    and of the next run. Only the oracle reads these arrays.
    """
    starts = np.flatnonzero(np.concatenate(([True], sorted_points[1:] != sorted_points[:-1])))
    head = [0.0] if sorted_points[0] > 0.0 else []  # 0 is an endpoint unless sampled
    u = np.concatenate((head, sorted_points[starts], [1.0]))
    lr = np.concatenate((head, starts, [M])) / M
    ur = np.concatenate((head, starts[1:], [M, M])) / M
    return u, lr, ur


def extreme_discrepancy(ps: PointSet) -> DiscrepancyResult:
    """Exact sup over open subintervals, O(M) after sorting, as one max and
    one min (Kuipers-Niederreiter, Ch. 2, Thm 1.4/1.5).

    With x_i sorted from i = 0, pf_i = (i+1)/M - x_i peaks in a run of equal
    values at its last index (ur/M - u), pg_i = i/M - x_i at its first
    (lr/M - u). Closed [x_s, x_t] (s <= t) and open (x_t, x_s) (t < s) both
    score pf_t - pg_s, so the sup is max pf - min pg. The star discrepancy
    is max(pf_i, -pg_i), from the same two reductions, taken per tile of
    TILE points.
    """
    xs, M = ps.sorted_points, ps.M
    f_max, g_min = -math.inf, math.inf
    for i0 in range(0, M, TILE):
        x = xs[i0:i0 + TILE]
        r = np.arange(i0, i0 + len(x) + 1) / M
        pf = r[1:] - x
        f_max = max(f_max, float(pf.max()))
        g_min = min(g_min, float(np.subtract(r[:-1], x, out=pf).min()))
    # the endpoint 1 adds pg = 0; a sampled 0 (no inclusive c-side) has pg >= 0
    g_min = min(0.0, g_min)
    return DiscrepancyResult(f_max - g_min, max(f_max, -g_min))


def extreme_discrepancy_oracle(points: np.ndarray) -> float:
    """Brute force over every endpoint pair and side combination, O(M^2).

    Enumerates all (s, t) value pairs for both score directions and all
    four inclusion combinations (mixed combinations are dominated but
    evaluated anyway); this is the reference the fast scan must match
    exactly.
    """
    ps = PointSet(np.asarray(points, dtype=np.float64), len(points))
    u, lr_m, ur_m = _endpoint_arrays(ps.sorted_points, ps.M)
    # no inclusive side at the boundary: 0 from below, 1 from above
    pf, pg, mf, mg = ur_m - u, lr_m - u, u - lr_m, u - ur_m
    pf[-1] = -np.inf
    if u[0] == 0.0:
        pg[0] = np.inf
    n = len(u)
    tri = np.tril(np.ones((n, n), dtype=bool))          # s <= t
    tri_strict = np.tril(np.ones((n, n), dtype=bool), -1)  # s < t
    best = 0.0
    # surplus direction: count = R_t - L_s with R in {ur, lr}, L in {lr, ur}
    plus_f_excl = lr_m - u  # d-side exact (points equal to d excluded)
    plus_g_excl = ur_m - u  # c-side exact (points equal to c excluded)
    for F, G, mask in (
        (pf, pg, tri),                 # inclusive/inclusive
        (pf, plus_g_excl, tri),        # d inclusive, c exact
        (plus_f_excl, pg, tri),        # d exact, c inclusive
        (plus_f_excl, plus_g_excl, tri_strict),  # both exact: empty at s == t
    ):
        scores = F[:, None] - G[None, :]
        best = max(best, float(np.max(np.where(mask, scores, -np.inf))))
    # deficit direction: interior count = L_t - R_s with L in {lr, ur}, R in {ur, lr}
    minus_f_incl = u - ur_m
    minus_f_incl[u >= 1.0] = -np.inf
    minus_g_incl = u - lr_m
    minus_g_incl[u <= 0.0] = np.inf
    for F, G, mask in (
        (mf, mg, tri_strict),            # both exact
        (mf, minus_g_incl, tri_strict),  # c inclusive
        (minus_f_incl, mg, tri_strict),  # d inclusive
        (minus_f_incl, minus_g_incl, tri_strict),
    ):
        scores = F[:, None] - G[None, :]
        best = max(best, float(np.max(np.where(mask, scores, -np.inf))))
    return best


def decay_fit(alpha: IrrationalSpec, beta,
              M_grid: list[int]) -> tuple[float, list[tuple[int, float, float]]]:
    """OLS slope of log D(M) against log M over prefix sizes; NaN below two sizes."""
    full = build_pointset(alpha, beta, max(M_grid, default=1))
    per_M: list[tuple[int, float, float]] = []
    for M in sorted(M_grid):
        res = extreme_discrepancy(full if M == full.M else PointSet(full.points[:M], M))
        per_M.append((M, res.extreme, res.star))
    if len(per_M) < 2:
        return math.nan, per_M
    logm = np.log([row[0] for row in per_M])
    logd = np.log([row[1] for row in per_M])
    return float(np.polyfit(logm, logd, 1)[0]), per_M
