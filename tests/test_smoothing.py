import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from beatty_kfree import beatty, fixed, smoothing
from beatty_kfree.beatty import BeattyParams, beatty_term, border_indices, count_kfree_beatty, is_member
from beatty_kfree.cfrac import PHI, SQRT2, parse_irrational
from beatty_kfree.errors import InvalidDelta
from beatty_kfree.fixed import TILE, FixedReal, frac_vector
from beatty_kfree.kfree import sieve_kfree
from beatty_kfree.smoothing import (
    build_smoothed,
    coefficient_bound,
    default_delta,
    default_truncation,
    eval_truncated_series,
    smoothed_beatty_count,
)


@pytest.fixture(scope="module")
def golden():
    return BeattyParams(PHI, 0)


def eval_smoothed(x: float, gf: float, d: float) -> float:
    """Oracle: the piecewise-linear trapezoid at x (1-periodic)."""
    f = x % 1.0
    if f < d:
        return (f + d) / (2.0 * d)
    if f <= gf - d:
        return 1.0
    if f < gf + d:
        return (gf + d - f) / (2.0 * d)
    if f <= 1.0 - d:
        return 0.0
    # rising ramp through the wrap at 1: value ((f - 1) + d)/(2d)
    return (f - 1.0 + d) / (2.0 * d)


def psi_at(ind, xs) -> np.ndarray:
    """_psi_values of the indicator ind at the points xs (any reals)."""
    return smoothing._psi_values(np.mod(np.asarray(xs, dtype=np.float64), 1.0),
                                 ind.gamma.to_float(), ind.delta_param)


def direct_series(ind, n: int, shift: float) -> np.ndarray:
    """Oracle: the partial Fourier sum c_0 + 2*Re sum_j c_j*e(j*x) at each
    point x = shift + i/n on its own, with e(j*i/n) looked up by j*i mod n."""
    J = len(ind.coeffs) - 1
    j = np.arange(1, J + 1)
    b = ind.coeffs[1:] * np.exp(2j * math.pi * np.mod(j * shift, 1.0))
    unit = np.exp(2j * math.pi * np.arange(n) / n)
    out = np.empty(n)
    for i0 in range(0, n, 256):
        i = np.arange(i0, min(n, i0 + 256))
        out[i] = ind.coeffs[0].real + 2.0 * (unit[np.outer(i, j) % n] @ b).real
    return out


def quad_coefficient(gamma_f: float, delta: float, j: int) -> complex:
    """Adaptive-quadrature oracle for the j-th Fourier coefficient."""
    from scipy.integrate import quad

    breaks = sorted({0.0, delta, gamma_f - delta, gamma_f + delta, 1.0 - delta, 1.0})

    def f(x):
        if x < delta:
            return (x + delta) / (2 * delta)
        if x <= gamma_f - delta:
            return 1.0
        if x < gamma_f + delta:
            return (gamma_f + delta - x) / (2 * delta)
        if x <= 1.0 - delta:
            return 0.0
        return (x - 1.0 + delta) / (2 * delta)

    re = quad(lambda x: f(x) * math.cos(2 * math.pi * j * x), 0, 1,
              points=breaks, limit=200, epsabs=1e-13, epsrel=1e-13)[0]
    im = quad(lambda x: -f(x) * math.sin(2 * math.pi * j * x), 0, 1,
              points=breaks, limit=200, epsabs=1e-13, epsrel=1e-13)[0]
    return complex(re, im)


class TestCoefficients:
    def test_c0_is_gamma(self, golden):
        ind = build_smoothed(golden.gamma, 1 / 32, 16)
        assert ind.coeffs[0].real == pytest.approx(golden.gamma.to_float(), abs=1e-15)

    def test_closed_form_matches_quadrature(self, golden):
        pytest.importorskip("scipy")
        gf = golden.gamma.to_float()
        delta = 1 / 32
        ind = build_smoothed(golden.gamma, delta, 200)
        for j in list(range(1, 25)) + [50, 100, 151, 200]:
            oracle = quad_coefficient(gf, delta, j)
            assert abs(ind.coeffs[j] - oracle) < 1e-10

    def test_bound_up_to_1e5(self, golden):
        delta = 1e-3
        ind = build_smoothed(golden.gamma, delta, 10**5)
        j = np.arange(1, 10**5 + 1, dtype=np.float64)
        bound = np.minimum(1 / (math.pi * j), 1 / (2 * math.pi**2 * j * j * delta))
        assert np.all(np.abs(ind.coeffs[1:]) <= bound + 1e-18)

    def test_coefficient_bound_helper(self):
        assert coefficient_bound(10, 0.01) == pytest.approx(
            min(1 / (10 * math.pi), 1 / (2 * math.pi**2 * 100 * 0.01))
        )

    def test_parseval(self, golden):
        gf = golden.gamma.to_float()
        delta = 1 / 32
        ind = build_smoothed(golden.gamma, delta, 512)
        partial = float(np.sum(np.abs(ind.coeffs[1:]) ** 2)) * 2 + gf * gf
        # exact energy of the trapezoid: gamma - 2*Delta/3
        energy = gf - 2 * delta / 3
        pytest.importorskip("scipy")
        from scipy.integrate import quad

        num_energy = quad(
            lambda x: eval_smoothed(x, gf, delta) ** 2, 0, 1,
            points=[delta, gf - delta, gf + delta, 1 - delta], limit=200,
            epsabs=1e-12,
        )[0]
        assert abs(num_energy - energy) < 1e-8
        assert partial <= energy + 1e-12 <= gf + 1e-12


class TestDeltaValidation:
    def test_too_large_delta(self, golden):
        with pytest.raises(InvalidDelta):
            build_smoothed(golden.gamma, 0.2, 8)

    def test_delta_exceeding_gamma_margin(self):
        g = FixedReal.from_fraction(Fraction(1, 20), 128)
        with pytest.raises(InvalidDelta):
            build_smoothed(g, 0.04, 8)

    def test_default_delta(self):
        assert default_delta(10**4, 2) == pytest.approx((10**4) ** (-1 / 3))
        assert default_delta(10**4, 2, 0.5) == pytest.approx(0.5 * (10**4) ** (-1 / 3))

    def test_default_truncation_rule(self):
        d = 0.01
        J = default_truncation(d)
        assert 1 / (math.pi**2 * J * d) <= 0.01
        assert 1 / (math.pi**2 * (J - 1) * d) > 0.01


class TestEvaluation:
    def test_plateau_one(self, golden):
        gf = golden.gamma.to_float()
        ind = build_smoothed(golden.gamma, gf / 8, 8)
        assert psi_at(ind, [gf / 2])[0] == 1.0

    def test_zero_plateau(self, golden):
        gf = golden.gamma.to_float()
        ind = build_smoothed(golden.gamma, 0.01, 8)
        assert psi_at(ind, [(gf + 1) / 2])[0] == 0.0

    def test_midpoint_of_ramp(self, golden):
        gf = golden.gamma.to_float()
        ind = build_smoothed(golden.gamma, 1 / 32, 8)
        assert psi_at(ind, [gf])[0] == pytest.approx(0.5, abs=1e-12)

    def test_range_and_periodicity(self, golden, rng):
        ind = build_smoothed(golden.gamma, 1 / 32, 8)
        v = psi_at(ind, rng.uniform(-5, 5, size=10**5))
        assert np.all((0.0 <= v) & (v <= 1.0))
        assert psi_at(ind, [0.3])[0] == psi_at(ind, [1.3])[0]

    def test_agreement_region_exact(self, golden, rng):
        gf = golden.gamma.to_float()
        delta = 1 / 32
        ind = build_smoothed(golden.gamma, delta, 8)
        x = rng.uniform(0, 1, size=10**5)
        away = ((delta <= x) & (x <= gf - delta)) | ((gf + delta <= x) & (x <= 1 - delta))
        assert np.count_nonzero(away) > 10**4
        assert np.array_equal(psi_at(ind, x[away]), np.where(x[away] <= gf, 1.0, 0.0))


class TestTruncatedSeries:
    def test_j_zero_constant(self, golden):
        ind = build_smoothed(golden.gamma, 1 / 32, 0)
        assert eval_truncated_series(ind, 1, 0.37)[0] == pytest.approx(
            golden.gamma.to_float(), abs=1e-15
        )

    def test_grid_error_within_tail_bound(self, golden):
        delta = 1 / 32
        ind = build_smoothed(golden.gamma, delta, 512)
        bound = ind.tail_bound()
        assert bound == pytest.approx(1 / (math.pi**2 * 512 / 32), rel=1e-12)
        n = 10**4
        grid = (np.arange(n) + 0.5) / n
        series = eval_truncated_series(ind, n, 0.5 / n)
        exact = np.array([eval_smoothed(float(x), ind.gamma.to_float(), delta) for x in grid])
        assert np.max(np.abs(series - exact)) <= bound

    def test_doubling_j_halves_tail(self, golden):
        a = build_smoothed(golden.gamma, 1 / 32, 128).tail_bound()
        b = build_smoothed(golden.gamma, 1 / 32, 256).tail_bound()
        assert b == pytest.approx(a / 2)

    @pytest.mark.parametrize("J", [0, 1, 219, 1635, 4517])
    @pytest.mark.parametrize("n", [1, 7, 400, 2000, 10**4])
    def test_one_fft_matches_the_direct_sum(self, golden, J, n):
        # J < n and J >= n both occur, so the fold mod n is exercised
        ind = build_smoothed(golden.gamma, 0.0062, J)
        for shift in (0.0, 0.5 / n, 0.37):
            got = eval_truncated_series(ind, n, shift)
            assert got.shape == (n,)
            assert np.max(np.abs(got - direct_series(ind, n, shift))) <= 1e-12


class TestSmoothedCount:
    def test_matches_direct_count_within_one(self, golden):
        for x in (100, 1000, 10**4):
            smoothed, exact, v = smoothed_beatty_count(golden, 2, x)
            direct = count_kfree_beatty(golden, x, 2)[0]
            assert abs(exact - direct) <= 1
            assert abs(smoothed - exact) <= v + 1e-6

    def test_other_alpha_beta(self):
        p = BeattyParams(SQRT2, Fraction(1, 2))
        smoothed, exact, v = smoothed_beatty_count(p, 3, 5000)
        direct = count_kfree_beatty(p, 5000, 3)[0]
        assert abs(exact - direct) <= 1
        assert abs(smoothed - exact) <= v + 1e-6

    def test_exceptional_grows_linearly_in_delta(self, golden):
        # V(Delta) tracks |I|*M = 4*Delta*M: fitted slope within factor 3;
        # x = 123607 gives M = floor(phi * x) = 200000
        x, M = 123607, 200000
        deltas = np.array([0.002, 0.004, 0.008, 0.016, 0.032])
        vs = np.array([smoothed_beatty_count(golden, 2, x, float(d))[2] for d in deltas])
        slope = float(np.polyfit(deltas, vs, 1)[0])
        assert 4 * M / 3 <= slope <= 4 * M * 3


def psi_by_masks(f: np.ndarray, gf: float, d: float) -> np.ndarray:
    """The piecewise trapezoid by boolean gathers and scatters, later pieces winning."""
    psi = np.zeros_like(f)
    ramp0 = f < d
    psi[ramp0] = (f[ramp0] + d) / (2.0 * d)
    plateau = (f >= d) & (f <= gf - d)
    psi[plateau] = 1.0
    rampg = (f > gf - d) & (f < gf + d)
    psi[rampg] = (gf + d - f[rampg]) / (2.0 * d)
    wrap = f > 1.0 - d
    psi[wrap] = (f[wrap] - 1.0 + d) / (2.0 * d)
    return psi


class TestPsiValues:
    @pytest.mark.parametrize("gf, d", [
        (0.6180339887498949, 0.124),
        (0.6180339887498949, 2.0**-12),
        (0.7071067811865476, (1 - 0.7071067811865476) / 2),
        (0.2, 0.2 / 2),
        (0.3, 0.1 / 3),
        (0.5, 0.03125),
    ])
    def test_equals_the_masked_form_at_every_edge(self, rng, gf, d):
        below = above = np.array([0.0, d, gf - d, gf + d, 1.0 - d])
        f = [below, rng.random(20000)]
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            f += [below, above]
        f = np.concatenate(f)
        f = f[(f >= 0.0) & (f < 1.0)]
        psi = smoothing._psi_values(f, gf, d)
        assert np.array_equal(psi, psi_by_masks(f, gf, d))
        assert np.array_equal(psi, [eval_smoothed(float(x), gf, d) for x in f])


class TestSmoothedTiles:
    @pytest.mark.parametrize("tile", [7, 1000])
    @pytest.mark.parametrize("spec, beta, k", [("quad:1,5,2", "0", 2), ("quad:0,2,1", "1/2", 3)])
    def test_tiles_and_blocks_cut_anywhere(self, monkeypatch, tile, spec, beta, k):
        p = BeattyParams(parse_irrational(spec), Fraction(beta))
        # tiles cut inside sieve windows, and a wide border sends under 1% of
        # the entries to is_member, at their index in the tile plus its start
        monkeypatch.setattr(smoothing, "_BLOCK", 2500)
        monkeypatch.setattr(beatty, "_BORDER_TOL", 1e-3)
        want = smoothed_beatty_count(p, k, 6000, 0.01)
        monkeypatch.setattr(fixed, "TILE", tile)
        got = smoothed_beatty_count(p, k, 6000, 0.01)
        assert got[1:] == want[1:]
        assert got[0] == pytest.approx(want[0], rel=1e-9)


def smoothed_count_all_points(p, k, x, delta_param):
    """Oracle: the loop that evaluated the trapezoid at every m, with
    frac_vector on each tile at its sieve window's offset."""
    M = beatty_term(p, x)
    lv = p.level(p.precision_bits)
    gf = lv.gamma.to_float()
    d = min(delta_param, min(gf, 1.0 - gf) / 2.0, 0.124)
    g = lv.gamma.mantissa
    psi_sums, exact, exceptional = [], 0, 0
    m0 = max(1, beatty_term(p, 1))
    while m0 <= M:
        m1 = min(M, m0 + smoothing._BLOCK - 1)
        m = np.arange(m1 - m0 + 1, dtype=np.uint64)
        offset = g * m0 + lv.delta.mantissa
        kf_block = sieve_kfree(k, m0, m1)
        for t0 in range(0, len(m), TILE):
            f = frac_vector(g, lv.bits, m[t0:t0 + TILE], offset_mantissa=offset)
            kf = kf_block[t0:t0 + TILE]
            exc = (f < d) | ((f > gf - d) & (f < gf + d)) | (f > 1.0 - d)
            exceptional += int(np.count_nonzero(exc))
            step = (f > 0.0) & (f <= gf)
            for i in border_indices(f, lv.gamma, lv.delta, m1, gf):
                step[i] = is_member(p, m0 + t0 + int(i))
            psi_sums.append(float(np.sum(smoothing._psi_values(f, gf, d)[kf])))
            exact += int(np.count_nonzero(step & kf))
        m0 = m1 + 1
    return math.fsum(psi_sums), exact, exceptional


class TestRampOnlyPsi:
    """The trapezoid summed on the ramp points only, plus the plateau count,
    against its value at every point."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("beta", ["0", "1/2", "3", "-7/10"])
    @pytest.mark.parametrize("spec", [
        "quad:1,5,2", "quad:0,2,1", "cf:1," + ",".join(["1", "2"] * 40),
        "dec:3.14159265358979323846264338327950288:100",
    ])
    def test_matches_the_all_points_loop(self, monkeypatch, spec, beta, k):
        # sieve windows of 3 tiles, the last one short
        monkeypatch.setattr(smoothing, "_BLOCK", 2 * TILE + 5000)
        p = BeattyParams(parse_irrational(spec), Fraction(beta))
        # 1e-13 puts Delta under the 2**-40 border tolerance, so border points
        # lie off the ramps, where the plateau takes the float step; a 1e-3
        # tolerance sends a few in every tile to is_member
        for tol in (2.0**-40, 1e-3):
            monkeypatch.setattr(beatty, "_BORDER_TOL", tol)
            for x, mult in itertools.product((1000, 40000), (1.0, 1e-13)):
                delta = default_delta(x, k, mult)
                got = smoothed_beatty_count(p, k, x, delta)
                want = smoothed_count_all_points(p, k, x, delta)
                assert got[1:] == want[1:], (tol, x, mult)
                assert got[0] == pytest.approx(want[0], rel=1e-12), (tol, x, mult)

    def test_plateau_takes_the_float_step_not_the_border_decision(self, monkeypatch):
        # Delta under a wide border tolerance: the border points lie off the
        # ramps, so flipped border decisions move exact but not smoothed,
        # and the per-run check |smoothed - exact| <= V catches them
        monkeypatch.setattr(beatty, "_BORDER_TOL", 1e-3)
        p = BeattyParams(PHI, 0)
        delta = default_delta(40000, 2, 1e-13)
        smoothed, exact, v = smoothed_beatty_count(p, 2, 40000, delta)
        assert v == 0 and smoothed == exact
        monkeypatch.setattr(smoothing, "is_member", lambda p, m: not beatty.is_member(p, m))
        with pytest.raises(AssertionError, match="exceeds exceptional count 0"):
            smoothed_beatty_count(p, 2, 40000, delta)
