"""Trapezoid smoothing of the periodic step indicator 1_(0 < {x} <= gamma).

The smoothed function is the step indicator circularly convolved with a
uniform kernel of half-width Delta: linear ramps of width 2*Delta centered
at the jumps 0 and gamma, exact agreement with the step away from them.
Its Fourier coefficients have the closed form

    c_j = e(-j*gamma/2) * sin(pi*j*gamma)/(pi*j) * sin(2*pi*j*Delta)/(2*pi*j*Delta)

with c_0 = gamma, c_{-j} = conj(c_j), and
|c_j| <= min(1/(pi*j), 1/(2*pi^2*j^2*Delta))."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beatty import BeattyParams, _certified_slope, _member_tiles
from .beatty import beatty_term, is_member  # noqa: F401  perfbench's binding self-test reads them
from .errors import InvalidDelta
from .fixed import FixedReal, frac_vector
from .kfree import DEFAULT_MEMORY_BYTES, sieve_kfree

_BLOCK = 1 << 20  # sieve_kfree window: per entry, 2**15 windows cost about 6x more
COEFF_BYTES = 144  # build_smoothed's peak bytes per j <= J: 136.5 by tracemalloc


@dataclass(frozen=True)
class SmoothedIndicator:
    gamma: FixedReal
    delta_param: float
    J: int
    coeffs: np.ndarray  # complex c_j for j = 0..J

    def tail_bound(self) -> float:
        """Bound on the series remainder beyond J: sum_{|j|>J} |c_j|."""
        if self.J < 1:
            return math.inf
        return 1.0 / (math.pi**2 * self.J * self.delta_param)


def default_delta(x: int, k: int, multiplier: float = 1.0) -> float:
    """Smoothing width x**(-(k-1)/(2k-1)) scaled by a configurable multiplier."""
    return multiplier * float(x) ** (-(k - 1) / (2.0 * k - 1.0))


def admissible_delta(delta: float, gf: float) -> float:
    """delta cut to min(gamma, 1-gamma)/2 and 0.124, inside build_smoothed's range."""
    return min(delta, min(gf, 1.0 - gf) / 2.0, 0.124)


def default_truncation(delta: float, tail_target: float = 0.01) -> int:
    """Smallest J with series tail bound 1/(pi^2*J*Delta) <= tail_target."""
    return max(1, math.ceil(1.0 / (math.pi**2 * delta * tail_target)))


def build_smoothed(gamma: FixedReal, delta_param: float, J: int) -> SmoothedIndicator:
    """Closed-form Fourier coefficients of the trapezoid for |j| <= J."""
    gf = gamma.to_float()
    if not 0.0 < gf < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not (0.0 < delta_param < 0.125 and delta_param <= min(gf, 1.0 - gf) / 2.0):
        raise InvalidDelta(
            f"need 0 < Delta < 1/8 and Delta <= min(gamma, 1-gamma)/2, "
            f"got Delta={delta_param}, gamma={gf}"
        )
    if J < 0:
        raise ValueError("J must be >= 0")
    coeffs = np.zeros(J + 1, dtype=np.complex128)
    coeffs[0] = gf
    if J >= 1:
        j = np.arange(1, J + 1, dtype=np.uint64)
        # j*gamma mod 2, reduced exactly from the mantissa of gamma
        u = 2.0 * frac_vector(gamma.mantissa, gamma.scale_bits + 1, j)
        near = np.rint(u)
        s = u - near
        sign = 1.0 - 2.0 * (near.astype(np.int64) & 1)
        sin_g = sign * np.sin(math.pi * s)
        cos_g = sign * np.cos(math.pi * s)
        jf = j.astype(np.float64)
        kern_arg = 2.0 * math.pi * np.mod(jf * delta_param, 1.0)
        kernel = np.sin(kern_arg) / (2.0 * math.pi * jf * delta_param)
        mag = sin_g / (math.pi * jf) * kernel
        coeffs[1:] = (cos_g - 1j * sin_g) * mag
    return SmoothedIndicator(gamma, delta_param, J, coeffs)


def coefficient_bound(j, delta: float):
    """min(1/(pi*j), 1/(2*pi^2*j^2*Delta)) for a scalar or an array of j."""
    return np.minimum(1.0 / (math.pi * j), 1.0 / (2.0 * math.pi**2 * j * j * delta))


def eval_truncated_series(s: SmoothedIndicator, n: int, shift: float) -> np.ndarray:
    """Partial Fourier sum to |j| <= J at the n points shift + i/n, i < n;
    each is within the tail bound 1/(pi^2 * J * Delta) of the trapezoid.

    With b_j = c_j * e(j*shift) the sum at point i is
    c_0 + 2*Re sum_j b_j * e(j*i/n), and e(j*i/n) depends on j mod n only:
    the b_j fold into n bins, and one n-point inverse FFT evaluates all n
    points in O(J + n log n) operations, not O(n*J).
    """
    J = len(s.coeffs) - 1
    j = np.arange(1, J + 1)
    b = s.coeffs[1:] * np.exp(2j * math.pi * np.mod(j * shift, 1.0))
    folded = np.bincount(j % n, b.real, n) + 1j * np.bincount(j % n, b.imag, n)
    return s.coeffs[0].real + 2.0 * n * np.fft.ifft(folded).real


def _psi_values(f: np.ndarray, gf: float, d: float) -> np.ndarray:
    """Vectorized trapezoid values on fractional parts f in [0, 1).

    Equal bit for bit to the piecewise form (tests/test_smoothing.py): the
    rising ramp (through the wrap at 1) capped at 1 holds up to gf - d and
    past 1 - d, the falling ramp floored at 0 in between.
    """
    two_d = 2.0 * d
    rise = np.where(f > 1.0 - d, f - 1.0, f)
    rise += d
    rise /= two_d
    np.minimum(rise, 1.0, out=rise)
    fall = gf + d - f
    fall /= two_d
    np.maximum(fall, 0.0, out=fall)
    return np.where((f > gf - d) & (f <= 1.0 - d), fall, rise)


def smoothed_beatty_count(
    p: BeattyParams,
    k: int,
    x: int,
    delta_param: float | None = None,
    memory_bytes: int = DEFAULT_MEMORY_BYTES,
) -> tuple[float, int, int]:
    """(smoothed, exact, exceptional) sums over the k-free m >= 1 in
    [t_1, t_x], t_n = floor(alpha*n + beta).

    smoothed sums the trapezoid at {gamma*m + delta}; exact sums the step
    indicator, so it counts the k-free t_n with 1 <= n <= x, as
    count_kfree_beatty does. The exceptional count V(Delta), about
    4*Delta*(t_x - t_1), covers every m in [t_1, t_x], k-free or not, whose
    fractional part falls in the ramps [0, Delta), (gamma-Delta,
    gamma+Delta), (1-Delta, 1). Off them the trapezoid is the step, so it is
    summed on the k-free ramp points only, plus the count of the k-free
    plateau members. |smoothed - exact| <= V holds by construction and is
    asserted per run. Each sieve window of _BLOCK values of m takes the
    exact flags of beatty._member_tiles at the count's slope (gamma = Q/A)
    and f = (v >> 11)*2**-53, below {gamma*m + delta} by under 2**-49.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    A, B, Q = _certified_slope(p, f"floor(alpha*n+beta) for n <= x={x}", lambda lo, hi: (1, x))
    gf = Q / A
    d = admissible_delta(default_delta(x, k) if delta_param is None else delta_param, gf)

    psi_sums = []  # one per tile over its k-free ramp points, summed exactly rounded
    plateau = exact = exceptional = 0
    m0, M = max(1, (A + B) // Q), (A * x + B) // Q
    while m0 <= M:
        m1 = min(M, m0 + _BLOCK - 1)
        kf_block = sieve_kfree(k, m0, m1, memory_bytes)
        for t0, v, step in _member_tiles(A, B, Q, m0, m1 - m0 + 1):
            f = np.multiply((v >> np.uint64(11)).view(np.int64), 2.0**-53)
            kf = kf_block[t0:t0 + len(f)]
            ramp = (f < d) | ((f > gf - d) & (f < gf + d)) | (f > 1.0 - d)
            exceptional += int(np.count_nonzero(ramp))
            step &= kf
            plateau += int(np.count_nonzero(step & ~ramp))
            ramp &= kf
            psi_sums.append(float(np.sum(_psi_values(f[ramp], gf, d))))
            exact += int(np.count_nonzero(step))
        m0 = m1 + 1

    smoothed = math.fsum(psi_sums + [plateau])
    if abs(smoothed - exact) > exceptional + 1e-6:
        raise AssertionError(
            f"smoothing error {abs(smoothed - exact)} exceeds exceptional count "
            f"{exceptional}"
        )
    return smoothed, exact, exceptional
