import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from beatty_kfree import beatty, cli, expsums
from beatty_kfree.cfrac import PHI, SQRT2, dirichlet_approx, to_fixed
from beatty_kfree.errors import MemoryBudgetExceeded
from beatty_kfree.expsums import (
    ThetaApprox,
    complex_fsum,
    double_kfree_sum_hyperbola,
    double_kfree_sum_naive,
    double_sum_bound_check,
    linear_exp_sum,
    split_parameter,
)
from beatty_kfree.fixed import TILE, FixedReal, frac_u64
from beatty_kfree.kfree import iroot, sieve_kfree, sieve_moebius, zeta


def direct_linear_sum(alpha_frac: Fraction, x: int) -> complex:
    """Oracle: term-by-term geometric sum at exact rational angles."""
    ang = 2.0 * math.pi * np.array(
        [float((alpha_frac * n) % 1) for n in range(1, x + 1)]
    )
    return complex(np.sum(np.cos(ang)), np.sum(np.sin(ang)))


def fixed_from(fr: Fraction, bits: int = 192) -> FixedReal:
    return FixedReal.from_fraction(fr, bits)


def nearest_int_distance(alpha: FixedReal) -> float:
    """||alpha||, the distance from alpha to the nearest integer."""
    one = 1 << alpha.scale_bits
    r = alpha.mantissa % one
    return min(r, one - r) / one


class TestLinearExpSum:
    def test_identity_case(self):
        assert linear_exp_sum(fixed_from(Fraction(0)), [1], [5])[0] == 5 + 0j

    def test_half_cancellation(self):
        assert abs(linear_exp_sum(fixed_from(Fraction(1, 2)), [1], [4])[0]) < 1e-15

    def test_empty(self):
        assert linear_exp_sum(fixed_from(Fraction(1, 3)), [1], [0])[0] == 0j

    def test_phi_minus_one_vs_direct(self):
        alpha = to_fixed(PHI, 192)
        alpha = FixedReal(alpha.mantissa - (1 << 192), 192, alpha.err_ulps)
        s = linear_exp_sum(alpha, [1], [10**4])[0]
        f = np.array(
            [((alpha.mantissa % (1 << 192)) * n % (1 << 192)) / (1 << 192) for n in range(1, 10**4 + 1)]
        )
        direct = complex(np.sum(np.cos(2 * np.pi * f)), np.sum(np.sin(2 * np.pi * f)))
        assert abs(s - direct) <= 1e-9 * max(1.0, abs(direct))
        bound = min(10**4, 1.0 / (2.0 * nearest_int_distance(alpha)))
        assert abs(s) <= bound * (1 + 1e-12)

    def test_closed_form_vs_direct_random(self, rng):
        for _ in range(10**4):
            x = int(rng.integers(1, 200))
            alpha = Fraction(int(rng.integers(0, 1 << 30)), 1 << 30)
            got = linear_exp_sum(fixed_from(alpha), [1], [x])[0]
            want = direct_linear_sum(alpha, x)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_magnitude_bound_random(self, rng):
        for _ in range(2000):
            x = int(rng.integers(1, 10**4))
            alpha = fixed_from(Fraction(int(rng.integers(1, 1 << 40)), 1 << 40))
            s = abs(linear_exp_sum(alpha, [1], [x])[0])
            dist = nearest_int_distance(alpha)
            bound = x if dist == 0 else min(x, 1.0 / (2.0 * dist))
            assert s <= bound * (1 + 1e-9) + 1e-9

    def test_small_angle_fallback(self):
        # the ratio form needs no fallback at any ||alpha||, either sign
        for e in (34, 60, 150):
            for sign in (1, -1):
                alpha = Fraction(sign, 1 << e)
                got = linear_exp_sum(fixed_from(alpha), [1], [3000])[0]
                want = direct_linear_sum(alpha, 3000)
                assert abs(got - want) < 1e-9 * abs(want)

    def test_matches_mpmath_oracle_random_pairs(self, rng):
        # one call over all pairs; the oracle sums each geometric series as
        # (z**(x+1) - z)/(z - 1) at 100 digits, a different formula from the
        # sine ratio, with phi = theta*n mod 1 exact
        cases = [
            (to_fixed(PHI, 192), rng.integers(1, 10**6, 200), rng.integers(0, 300001, 200)),
            (fixed_from(Fraction(int(rng.integers(1, 1 << 62)), 1 << 62)),
             rng.integers(1, 10**4, 100), rng.integers(290000, 300001, 100)),
            (fixed_from(Fraction(3, 8)), [8, 16, 1, 3, 24], [300000, 5, 299999, 12, 0]),  # phi = 0
            (fixed_from(Fraction(1, 2)), [1, 3, 5, 7], [300000, 299999, 1, 2]),  # phi = 1/2
            (fixed_from(Fraction(1, 1 << 60)), [1, 2, 1 << 20], [300000, 3000, 1]),
            (fixed_from(Fraction(-1, 1 << 60)), [1, 2, 1 << 20], [300000, 3000, 1]),
            (fixed_from(Fraction(1, 1 << 150)), [1, 3, 1 << 40], [300000, 17, 299999]),
            (fixed_from(Fraction(-1, 1 << 150)), [1, 3, 1 << 40], [300000, 17, 299999]),
            (fixed_from(Fraction(1, 3) + Fraction(1, 1 << 100)), [3, 6, 1], [300000, 1, 300000]),
        ]
        with mpmath.workdps(100):
            for theta, ns, xs in cases:
                got = linear_exp_sum(theta, ns, xs)
                assert got.shape == (len(ns),)
                th = Fraction(theta.mantissa, 1 << theta.scale_bits)
                for g, n, x in zip(got, np.asarray(ns).tolist(), np.asarray(xs).tolist()):
                    phi = (th * n) % 1
                    if phi == 0:
                        assert g == x
                        continue
                    z = mpmath.expjpi(2 * mpmath.mpf(phi.numerator) / phi.denominator)
                    want = complex((z ** (x + 1) - z) / (z - 1))
                    assert abs(g - want) <= 1e-14 * abs(want) + 1e-30

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError, match="xs must be >= 0"):
            linear_exp_sum(fixed_from(Fraction(1, 3)), [1, 2], [5, -1])


def exact_only(monkeypatch, theta: FixedReal, ns, xs) -> np.ndarray:
    """linear_exp_sum with every pair on the exact integer reductions: no
    |phi| or |x*phi - q| of a centred angle reaches 1."""
    with monkeypatch.context() as m:
        m.setattr(expsums, "_EXACT_BELOW", 1.0)
        return linear_exp_sum(theta, ns, xs)


def count_pairs(monkeypatch, name: str) -> list[int]:
    """Patch expsums.<name>, linear_exp_sum or _exact_angles, to add the
    pairs it is passed into the returned cell."""
    count = [0]
    real = getattr(expsums, name)

    def counting(*args):
        count[0] += len(args[-1])
        return real(*args)

    monkeypatch.setattr(expsums, name, counting)
    return count


def sum_a_pairs(H: int, x: int, k: int):
    """The (h, m) pairs of sum A at the default split, as
    double_kfree_sum_hyperbola passes them to linear_exp_sum."""
    ma = iroot(int(split_parameter(x, k)), k)
    mu = sieve_moebius(1, ma)[:ma]
    mk = (np.nonzero(mu)[0].astype(np.uint64) + 1) ** k
    hs = np.arange(1, H + 1, dtype=np.uint64)
    return np.outer(hs, mk).ravel(), np.tile(np.uint64(x) // mk, H)


class TestLinearExpSumLanes:
    """The uint64 lanes against the exact integer reductions, at the pairs
    where a lane word is weakest."""

    FLOOR = Fraction(expsums._EXACT_BELOW)
    NEAR = ((1 - Fraction(1, 1 << 20), "exact"), (1 + Fraction(1, 1 << 20), "lanes"))

    def cases(self):
        """(theta, n, x, the path the pair takes)."""
        # |phi| on both sides of the floor, either sign, x even and odd
        for f, path in self.NEAR:
            for sign in (1, -1):
                for x in (1000, 1001):
                    yield fixed_from(sign * self.FLOOR * f), 1, x, path
        # |x*phi - q| on both sides of the floor, either sign, phi about 0.357
        for x in (1000, 1001):
            for f, path in self.NEAR:
                for sign in (1, -1):
                    yield fixed_from((357 + sign * self.FLOOR * f) / x), 1, x, path
        # phi = -1/2, and just inside both ends of [-1/2, 1/2), where the
        # integer R = theta*n - phi flips parity; x*phi is an integer at even x
        for theta in (Fraction(1, 2), Fraction(1, 2) - Fraction(1, 1 << 90),
                      Fraction(1, 2) + Fraction(1, 1 << 90)):
            for n, x in ((1, 300000), (1, 299999), (3, 7)):
                yield fixed_from(theta), n, x, "exact" if x % 2 == 0 else "lanes"
        # phi = 0, and x = 0
        for n, x in ((8, 300000), (16, 5), (24, 0)):
            yield fixed_from(Fraction(3, 8)), n, x, "exact"
        yield to_fixed(PHI, 192), 5, 0, "exact"
        # (x+1)*n just below 2**63 and at 2**63
        for n in (3, (1 << 31) + 11):
            x = -(-(1 << 63) // n) - 1  # the least x with (x+1)*n >= 2**63
            yield to_fixed(PHI, 192), n, x - 1, "lanes"
            yield to_fixed(PHI, 192), n, x, "exact"

    def test_matches_exact_reductions_at_the_weak_pairs(self, monkeypatch):
        for theta, n, x, path in self.cases():
            want = exact_only(monkeypatch, theta, [n], [x])[0]
            exact = count_pairs(monkeypatch, "_exact_angles")
            got = linear_exp_sum(theta, [n], [x])[0]
            monkeypatch.undo()
            assert abs(got - want) <= 1e-14 * abs(want), (theta, n, x)
            assert exact[0] == (path == "exact"), (theta, n, x)

    def test_sum_a_at_1e12(self, monkeypatch):
        # theta = gamma of the golden ratio, k = 2, H = 30: 182,490 pairs
        theta = beatty.BeattyParams(PHI).gamma
        ns, xs = sum_a_pairs(30, 10**12, 2)
        assert len(ns) == 182490
        want = exact_only(monkeypatch, theta, ns, xs)
        got = linear_exp_sum(theta, ns, xs)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15

    def test_few_sweep_pairs_take_the_exact_path(self, monkeypatch, tmp_path):
        # expsum-sweep at its defaults (100 trials, x <= 1e5, H <= 30), four seeds
        pairs = count_pairs(monkeypatch, "linear_exp_sum")
        exact = count_pairs(monkeypatch, "_exact_angles")
        for seed in range(4):
            argv = ["expsum-sweep", "--seed", str(seed), "--out", str(tmp_path / "s.csv")]
            assert cli.main(argv) == cli.EXIT_OK
        assert pairs[0] > 10**5
        assert exact[0] < 0.01 * pairs[0]


class TestComplexFsum:
    def test_million_small_terms_exact(self):
        # exact-rational oracle: 10**6 * 10**-8 == 1/100
        assert abs(complex_fsum([1e-8 + 0j] * 10**6) - 0.01) <= 1e-18

    def test_order_independent(self, rng):
        # partials spanning 16 decades: plain left-to-right sums of the
        # shuffled lists differ, the exactly rounded sums are bit-identical
        vals = rng.standard_normal((10**4, 2)) * 10.0 ** rng.integers(-8, 9, (10**4, 2))
        parts = [complex(re, im) for re, im in vals]
        want = complex_fsum(parts)
        plain = set()
        for _ in range(5):
            rng.shuffle(parts)
            got = complex_fsum(parts)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
            plain.add(sum(parts))
        assert len(plain) > 1

    def test_empty_sum(self):
        assert complex_fsum([]) == 0j


class TestNaiveDoubleSum:
    def test_theta_zero_counts_squarefree(self):
        s = double_kfree_sum_naive(fixed_from(Fraction(0)), 1, 10, 2)
        assert s == 7 + 0j

    def test_theta_half_alternating(self):
        s = double_kfree_sum_naive(fixed_from(Fraction(1, 2)), 1, 4, 2)
        assert abs(s - (-1)) < 1e-14

    def test_additive_in_h(self, rng):
        theta = fixed_from(Fraction(int(rng.integers(1, 1 << 30)), 1 << 30))
        total = double_kfree_sum_naive(theta, 3, 50, 2)
        via_singles = 0j
        for h in range(1, 4):
            t_h = FixedReal(theta.mantissa * h, theta.scale_bits, 0)
            via_singles += double_kfree_sum_naive(t_h, 1, 50, 2)
        assert abs(total - via_singles) < 1e-10


class TestHyperbola:
    def test_small_identity_example(self):
        theta = fixed_from(Fraction(0))
        split = double_kfree_sum_hyperbola(theta, 1, 10, 2, y=3.0)
        assert abs(split.combined() - 7) < 1e-12

    def test_degenerate_split_y_equals_x(self):
        theta = fixed_from(Fraction(7, 64))
        naive = double_kfree_sum_naive(theta, 2, 60, 2)
        split = double_kfree_sum_hyperbola(theta, 2, 60, 2, y=60.0)
        assert abs(split.combined() - naive) < 1e-10

    def test_identity_random(self, rng):
        for _ in range(25):
            x = int(rng.integers(20, 1500))
            h = int(rng.integers(1, 15))
            k = int(rng.integers(2, 4))
            theta = fixed_from(Fraction(int(rng.integers(0, 1 << 45)), 1 << 45))
            y = float(rng.uniform(1.0, x))
            naive = double_kfree_sum_naive(theta, h, x, k)
            split = double_kfree_sum_hyperbola(theta, h, x, k, y)
            tol = 1e3 * np.finfo(float).eps * h * x
            assert abs(split.combined() - naive) <= max(tol, 1e-10)

    def test_default_split_parameter(self):
        assert split_parameter(10**4, 2) == pytest.approx((10**4) ** (2 / 3))

    def test_bad_y_rejected(self):
        with pytest.raises(ValueError):
            double_kfree_sum_hyperbola(fixed_from(Fraction(1, 3)), 1, 10, 2, y=0.5)


class TestThetaApprox:
    def test_validates_quality(self):
        with pytest.raises(ValueError):
            ThetaApprox(fixed_from(Fraction(1, 2)), 1, 17)

    def test_requires_reduced(self):
        with pytest.raises(ValueError):
            ThetaApprox(fixed_from(Fraction(2, 4)), 2, 4)


class TestBoundCheck:
    def test_trivial_theta_zero(self):
        t = ThetaApprox(fixed_from(Fraction(0)), 0, 1)
        rep = double_sum_bound_check(t, 1, 1000, 2, eps=0.05)
        # lhs is Q_k(x), rhs at least x
        assert abs(rep.lhs - 1000 / zeta(2)) < 30
        assert rep.rhs_value >= 1000
        assert rep.ratio <= 1.0

    def test_small_q_rational(self):
        t = ThetaApprox(fixed_from(Fraction(1, 3)), 1, 3)
        rep = double_sum_bound_check(t, 5, 2000, 2, eps=0.05)
        assert math.isfinite(rep.ratio)
        assert rep.ratio <= 2.0
        assert rep.hyperbola_gap <= 1e-6

    def test_golden_convergent_ratio(self):
        from beatty_kfree.cfrac import dirichlet_approx

        theta = to_fixed(PHI, 192)
        a, q = dirichlet_approx(theta, 10**4)
        rep = double_sum_bound_check(ThetaApprox(theta, a, q), 10, 10**4, 2)
        assert rep.ratio <= 5.0

    def test_preconditions(self):
        t = ThetaApprox(fixed_from(Fraction(0)), 0, 1)
        with pytest.raises(ValueError):
            double_sum_bound_check(t, 2000, 1000, 2)

    def test_naive_sieve_meets_the_budget_before_any_pair_array(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("hyperbola pairs built over the budget")

        monkeypatch.setattr(expsums, "double_kfree_sum_hyperbola", unbuilt)
        t = ThetaApprox(fixed_from(Fraction(1, 3)), 1, 3)
        with pytest.raises(MemoryBudgetExceeded, match=r"window \[1,1000000\]"):
            double_sum_bound_check(t, 5, 10**6, 2, memory_bytes=1 << 16)


def mobius_exp_sum(theta: FixedReal, X: int, k: int) -> complex:
    """sum over m**k <= X of mu(m) * e(theta * m**k): the Moebius-weighted
    power-sum kernel of sum B at H = 1."""
    r = iroot(X, k)
    mu = sieve_moebius(1, r)[:r]
    nz = np.nonzero(mu)[0]
    mk = (nz.astype(np.uint64) + 1) ** k
    bits = theta.scale_bits
    return expsums._power_sum(theta.mantissa % (1 << bits), bits, mk, 1, mu[nz].astype(np.float64))


class TestMobiusExpSum:
    def test_theta_zero(self):
        s = mobius_exp_sum(fixed_from(Fraction(0)), 10, 2)
        assert s == -1 + 0j

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            X = int(rng.integers(1, 10**4))
            k = int(rng.integers(2, 4))
            theta = fixed_from(Fraction(int(rng.integers(0, 1 << 30)), 1 << 30))
            s = mobius_exp_sum(theta, X, k)
            assert abs(s) <= iroot(X, k) + 1e-9

    def test_cancellation_trend(self):
        theta = to_fixed(SQRT2, 192)
        scaled = [
            abs(mobius_exp_sum(theta, 10**e, 2)) / (10**e) ** 0.5
            for e in range(2, 9)
        ]
        assert scaled[-1] < scaled[0]
        assert scaled[-1] <= 0.5 * scaled[0]


TWO_PI_LD = 2 * np.arccos(np.longdouble(-1))


def per_h_naive(theta: FixedReal, H: int, x: int, k: int) -> complex:
    """Oracle: one exact reduction per (h, n) by frac_u64 (within 4 units of
    2**-64), centred in [-1/2, 1/2) turns, with cos, sin and the sums in
    long double, so its error stays far below the kernel's."""
    ns = (np.nonzero(sieve_kfree(k, 1, x))[0] + 1).astype(np.uint64)
    one = 1 << theta.scale_bits
    t = theta.mantissa % one
    re = im = np.longdouble(0)
    for h in range(1, H + 1):
        turns = frac_u64((t * h) % one, theta.scale_bits, ns).view(np.int64)
        ang = turns.astype(np.longdouble) * (TWO_PI_LD / 2**64)
        re += np.sum(np.cos(ang))
        im += np.sum(np.sin(ang))
    return complex(float(re), float(im))


def naive_bound(H: int, x: int, k: int) -> float:
    """2*eps*H*N, N the k-free n <= x: a couple of ulp of the trivial bound on |S|."""
    return 2 * np.finfo(float).eps * H * int(np.count_nonzero(sieve_kfree(k, 1, x)))


def trial_mu(m: int) -> int:
    out, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return -out if m > 1 else out


def exact_e(theta: Fraction, n: int) -> complex:
    ang = 2.0 * math.pi * float((theta * n) % 1)
    return complex(math.cos(ang), math.sin(ang))


def brute_split(theta: FixedReal, H: int, x: int, k: int, y: float):
    """sum_A and sum_B over their own index sets, angles reduced as exact
    fractions, mu by trial division: A over m**k <= y and l <= x/m**k, B
    over l <= x/y and y < m**k <= x/l, with l <= x/y tested exactly."""
    th = Fraction(theta.mantissa, 1 << theta.scale_bits)
    mus = {m**k: mu for m in range(1, iroot(x, k) + 1) if (mu := trial_mu(m))}
    a = b = 0j
    for h in range(1, H + 1):
        for mk, mu in mus.items():
            if mk <= y:
                a += mu * sum(exact_e(th, h * l * mk) for l in range(1, x // mk + 1))
        l = 1
        while l * Fraction(y) <= x:
            b += sum(mu * exact_e(th, h * l * mk) for mk, mu in mus.items() if y < mk <= x // l)
            l += 1
    return a, b


# x = 5000 lays its flags out in 40 rows of 128; this budget holds the
# sieve's 5000 bytes plus the twiddle tables of 7 h, so 30 h take 5 blocks
BLOCKS_X = 5000
BLOCKS_BUDGET = BLOCKS_X + 7 * expsums._TABLE_BYTES * (128 + 40)


def theta_cases(rng):
    yield fixed_from(Fraction(int(rng.integers(1, 1 << 62)), 1 << 62))
    yield fixed_from(Fraction(3, 7))
    yield fixed_from(Fraction(5) + Fraction(1, 1 << 33))  # ||theta|| < 2**-30
    yield fixed_from(Fraction(-1, 1 << 35))


class TestPowerSumKernel:
    @pytest.mark.parametrize("H", [1, 2, 30])
    @pytest.mark.parametrize("k", [2, 3])
    def test_naive_matches_per_h_reduction(self, rng, H, k):
        for theta in theta_cases(rng):
            x = int(rng.integers(1000, 20000))
            got = double_kfree_sum_naive(theta, H, x, k)
            assert abs(got - per_h_naive(theta, H, x, k)) <= 1e-9

    @pytest.mark.parametrize("H", [1, 30])
    @pytest.mark.parametrize("k", [2, 3])
    def test_naive_at_the_layout_seams(self, rng, H, k):
        # n = a * 2**s + b lays the flags out in rows of 2**s, s half the bit
        # length of x: 63 and 4095 fill their last row, 64 and 4096 start a
        # row of one flag, 3 and 65 leave a partial row, and 5 * TILE + 3
        # spans six chunks of TILE flags, the last one partial
        xs = [1, 2, 3, 4, 63, 64, 65, 4095, 4096, 4097, int(rng.integers(5000, 16000)),
              5 * TILE + 3]
        for theta in theta_cases(rng):
            for x in xs:
                got = double_kfree_sum_naive(theta, H, x, k)
                # not 2*eps*H*N (naive_bound): at theta = -2**-35, H = 1 and
                # x = 5 * TILE + 3 the kernel is 4-5 ulp of N off
                assert abs(got - per_h_naive(theta, H, x, k)) <= 1e-9

    @pytest.mark.parametrize("k", [2, 3])
    def test_naive_h_blocks_under_a_small_budget(self, rng, k):
        for theta in theta_cases(rng):
            got = double_kfree_sum_naive(theta, 30, BLOCKS_X, k, BLOCKS_BUDGET)
            assert abs(got - per_h_naive(theta, 30, BLOCKS_X, k)) <= naive_bound(30, BLOCKS_X, k)

    def test_naive_tables_over_the_budget_raise(self):
        theta = fixed_from(Fraction(1, 3))
        with pytest.raises(MemoryBudgetExceeded, match="twiddle tables for x=5000"):
            double_kfree_sum_naive(theta, 1, 5000, 2, memory_bytes=5100)
        with pytest.raises(ValueError, match="exceeds 2\\*\\*64"):
            double_kfree_sum_naive(theta, 1 << 40, 1 << 24, 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_naive_long_h_range(self, rng, k):
        # every table entry is one reduction whatever h, so the error stays
        # within a couple of ulp of H*N, the trivial bound on |S| (N k-free
        # n <= x); z**h, as sum B forms it, reached 2.8 ulp of H*N here
        x, H = 2000, 300
        thetas = list(theta_cases(rng)) + [to_fixed(PHI, 192)]
        for theta in thetas:
            want = per_h_naive(theta, H, x, k)
            got = double_kfree_sum_naive(theta, H, x, k)
            assert abs(got - want) <= naive_bound(H, x, k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_split_parts_match_brute_force(self, rng, k):
        # y = x leaves B empty; a float y = x/q puts x/y within an ulp of q
        thetas = list(theta_cases(rng))
        for i, theta in enumerate(thetas):
            x = int(rng.integers(200, 2001))
            H = (1, 2, 3, 4)[i]
            for y in (split_parameter(x, k), float(rng.uniform(1.0, x)), float(x),
                      x / int(rng.integers(2, 60))):
                split = double_kfree_sum_hyperbola(theta, H, x, k, y)
                a, b = brute_split(theta, H, x, k, y)
                assert abs(split.sum_A - a) <= 1e-9
                assert abs(split.sum_B - b) <= 1e-9
                if y == x:
                    assert split.sum_B == 0j

    def test_splits_agree_past_the_naive_reach(self):
        # the naive sum would sieve 10**9 n; from y to 4y the m with
        # y < m**k <= 4y move from the direct sum B to the closed forms of A
        theta = beatty.BeattyParams(PHI).gamma
        x, H = 10**9, 4
        y = split_parameter(x, 2)
        at_y, at_4y = (double_kfree_sum_hyperbola(theta, H, x, 2, s).combined()
                       for s in (y, 4 * y))
        assert abs(at_y) > 1000
        assert abs(at_y - at_4y) <= 1e-9

    @pytest.mark.parametrize("H", [1, 30])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_kernel_at_the_table_seams(self, rng, H, weighted):
        # n = a * 2**s + b takes lo[b] and hi[a]; these n sit on both sides
        # of the split at 2**s and at the ends of both tables
        top = int(rng.integers(1 << 39, 1 << 40))
        s = (top.bit_length() + 1) // 2
        ns = [1, (1 << s) - 1, 1 << s, (1 << s) + 1, int(rng.integers(1, top)), top]
        # Moebius-style weights
        w = rng.choice([-1.0, 0.0, 1.0], len(ns)) if weighted else np.ones(len(ns))
        for theta in list(theta_cases(rng)) + [to_fixed(PHI, 192)]:
            bits = theta.scale_bits
            th = Fraction(theta.mantissa, 1 << bits)
            want = complex_fsum(w[j] * exact_e(th, h * n)
                                for h in range(1, H + 1) for j, n in enumerate(ns))
            got = expsums._power_sum(theta.mantissa % (1 << bits), bits,
                                     np.array(ns, dtype=np.uint64), H, w)
            assert abs(got - want) <= 1e-9

    def test_mobius_sum_weights(self, rng):
        theta = fixed_from(Fraction(int(rng.integers(1, 1 << 40)), 1 << 40))
        th = Fraction(theta.mantissa, 1 << theta.scale_bits)
        want = sum(trial_mu(m) * exact_e(th, m * m) for m in range(1, 101))
        assert abs(mobius_exp_sum(theta, 100**2 + 50, 2) - want) <= 1e-12

    def test_convergent_theta_two_chunks(self):
        # 303,968 squarefree n <= 5*10**5 fill more than one kernel tile; the
        # gap bounds the drift of sum B's z**h over h <= 30
        x, H = 5 * 10**5, 30
        assert np.count_nonzero(sieve_kfree(2, 1, x)) > TILE
        theta = to_fixed(PHI, 192).mul_int(17)
        a, q = dirichlet_approx(theta, x)
        rep = double_sum_bound_check(ThetaApprox(theta, a, q), H, x, 2)
        assert rep.hyperbola_gap <= 1e-8


def count_calls(monkeypatch, name: str) -> list[int]:
    """Patch expsums.<name> to count its calls into the returned cell."""
    count = [0]
    real = getattr(expsums, name)

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(expsums, name, counting)
    return count


class TestPowerSumStructure:
    """Counts frac_vector and linear_exp_sum calls, so per-element, per-tile,
    per-h, per-(h, l) or per-(h, m) calls cannot come back unnoticed: each
    non-empty kernel call (or h-block of the naive sum) reduces exactly
    twice, once per twiddle table."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_calls(monkeypatch, "frac_vector")

    def test_naive_reduces_twice_per_h_block(self, calls, monkeypatch):
        power_sums = count_calls(monkeypatch, "_power_sum")
        theta = to_fixed(PHI, 192)
        # x = 5*10**5 fills more than one chunk
        for x in (1000, 5 * 10**5):
            for H in (1, 30):
                calls[0] = 0
                double_kfree_sum_naive(theta, H, x, 2)
                assert calls[0] == 2
        calls[0] = 0
        double_kfree_sum_naive(theta, 30, BLOCKS_X, 2, BLOCKS_BUDGET)
        assert calls[0] == 10  # 5 blocks
        assert power_sums[0] == 0
        # sum B is the one power-sum call of a bound check
        double_sum_bound_check(ThetaApprox(theta, *dirichlet_approx(theta, 5000)), 30, 5000, 2)
        assert power_sums[0] == 1
        calls[0] = 0
        empty = np.array([], dtype=np.uint64)
        assert expsums._power_sum(1, 2, empty, 30, empty.astype(np.float64)) == 0j
        assert calls[0] == 0

    def test_hyperbola_calls_independent_of_h_and_split(self, calls):
        theta = to_fixed(SQRT2, 192)
        x = 5 * 10**4
        for H in (1, 30):
            for x_over_y in (1, 3, 50):
                calls[0] = 0
                double_kfree_sum_hyperbola(theta, H, x, 2, x / x_over_y)
                assert calls[0] == (0 if x_over_y == 1 else 2)  # sum B's two tables

    def test_hyperbola_sums_b_in_one_kernel_call(self, monkeypatch):
        count = count_calls(monkeypatch, "_power_sum")
        for x_over_y in (1, 3, 50):
            count[0] = 0
            double_kfree_sum_hyperbola(to_fixed(SQRT2, 192), 30, 5 * 10**4, 2, 5e4 / x_over_y)
            assert count[0] == 1

    def test_hyperbola_sums_a_in_one_closed_form_call(self, monkeypatch):
        count = count_calls(monkeypatch, "linear_exp_sum")
        theta = to_fixed(SQRT2, 192)
        x = 5 * 10**4
        for H in (1, 30):
            for x_over_y in (1, 3, 50):
                count[0] = 0
                double_kfree_sum_hyperbola(theta, H, x, 2, x / x_over_y)
                assert count[0] == 1
