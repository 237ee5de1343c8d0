import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatty_kfree.cfrac import (
    PHI,
    SQRT2,
    SQRT3,
    DecimalString,
    PartialQuotients,
    QuadraticIrrational,
    _convergent_iter,
    cf_interval_iter,
    dirichlet_approx,
    estimate_type,
    parse_irrational,
    to_fixed,
)
from beatty_kfree.errors import PrecisionExhausted
from beatty_kfree.fixed import FixedReal


def brute_force_best_approx(theta: Fraction, K: int) -> tuple[int, int]:
    """Oracle: scan every q <= K for the best rational approximation."""
    best = None
    for q in range(1, K + 1):
        a = round(theta * q)
        err = abs(theta - Fraction(a, q))
        if best is None or err < best[0]:
            best = (err, a, q)
    return best[1], best[2]


def quotients(alpha, n: int) -> list[int]:
    """The first n certified partial quotients, or fewer when the spec runs out."""
    return list(islice(alpha.quotient_iter(), n))


def convergents(alpha, n: int) -> list[tuple[int, int]]:
    return list(islice(_convergent_iter(alpha.quotient_iter()), n))


class TestCfExpand:
    def test_sqrt2(self):
        assert quotients(SQRT2, 5) == [1, 2, 2, 2, 2]

    def test_phi_all_ones(self):
        assert quotients(PHI, 6) == [1] * 6

    def test_seven_sqrt2_over_three_vs_decimal_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 200
        ours = quotients(QuadraticIrrational(7, 2, 3), 4)
        x = (7 + mp.sqrt(2)) / 3
        oracle = []
        for _ in range(4):
            a = int(mp.floor(x))
            oracle.append(a)
            x = 1 / (x - a)
        assert ours == oracle

    def test_sqrt3_periodic(self):
        assert quotients(SQRT3, 7) == [1, 1, 2, 1, 2, 1, 2]

    def test_decimal_string_certified_prefix(self):
        spec = DecimalString("1.41421356237309504880168872420969807857", 120)
        assert quotients(spec, 10) == quotients(SQRT2, 10)

    def test_decimal_string_exhaustion(self):
        assert len(quotients(DecimalString("1.41", 10), 30)) < 30

    def test_partial_quotients_exhaustion(self):
        assert len(quotients(PartialQuotients((1, 2, 3)), 4)) < 4


class TestConvergents:
    def test_phi_fibonacci(self):
        assert convergents(PHI, 5) == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]

    def test_sqrt2(self):
        assert convergents(SQRT2, 4) == [(1, 1), (3, 2), (7, 5), (17, 12)]

    def test_quality_bound_at_256_bits(self):
        for alpha in (PHI, SQRT2, SQRT3, QuadraticIrrational(7, 2, 3)):
            lo, hi = alpha.eval_interval(256)
            for a, q in convergents(alpha, 20):
                err = max(abs(lo - Fraction(a, q)), abs(hi - Fraction(a, q)))
                assert err <= Fraction(1, q * q)
                assert math.gcd(a, q) == 1

    def test_best_approximation_invariant(self):
        # q * ||q*alpha|| < 1 for every convergent, checked at 256 bits
        for alpha in (PHI, SQRT2, SQRT3):
            lo, hi = alpha.eval_interval(256)
            mid = (lo + hi) / 2
            for _, q in convergents(alpha, 25):
                dist = abs(mid * q - round(mid * q))
                assert q * dist < 1


class TestDirichlet:
    def test_phi_k10(self):
        assert dirichlet_approx(to_fixed(PHI, 192), 10) == (13, 8)
        # |phi - 13/8| is about 0.00697 <= 1/80
        lo, hi = PHI.eval_interval(128)
        assert abs((lo + hi) / 2 - Fraction(13, 8)) <= Fraction(1, 80)

    def test_rational_fixed_point(self):
        third = FixedReal.from_fraction(Fraction(1, 3), 192)
        assert dirichlet_approx(third, 100) == (1, 3)

    def test_insufficient_bits(self):
        with pytest.raises(PrecisionExhausted):
            dirichlet_approx(FixedReal.from_fraction(Fraction(1, 3), 32), 10**6)

    def test_guarantee_random_dyadic(self, rng):
        # exact dyadic thetas: scan is over the true convergents
        for _ in range(60):
            k_cap = int(rng.integers(10, 10**4))
            theta = Fraction(int(rng.integers(0, 1 << 40)), 1 << 40)
            a, q = dirichlet_approx(FixedReal.from_fraction(theta, 192), k_cap)
            assert 1 <= q <= k_cap and math.gcd(a, q) == 1
            assert abs(theta - Fraction(a, q)) <= Fraction(1, q * k_cap)

    def test_phi_matches_brute_force_scan(self):
        lo, hi = PHI.eval_interval(100)
        assert brute_force_best_approx((lo + hi) / 2, 10) == (13, 8)

    def test_never_worse_than_largest_convergent_below_cap(self, rng):
        for _ in range(40):
            k_cap = int(rng.integers(10, 10**4))
            theta = Fraction(int(rng.integers(0, 1 << 40)) * 2 + 1, 1 << 41)
            fx = FixedReal.from_fraction(theta, 192)
            a, q = dirichlet_approx(fx, k_cap)
            best = None
            for c in _true_convergents(theta, k_cap):
                best = c
            if best is not None:
                assert abs(theta - Fraction(a, q)) <= abs(theta - Fraction(*best))

    def test_type_driven_lower_bound_sweep(self):
        # denominators must exceed K^(1/tau - eps)/w for sqrt(2), tau = 1
        K = 10**6
        floor_pow = K ** (1.0 - 0.1)
        base = to_fixed(SQRT2, 192)
        for w in range(1, 101):
            a, q = dirichlet_approx(base.mul_int(w), K)
            assert q > floor_pow / w


def _true_convergents(theta: Fraction, cap: int):
    for a, q in _convergent_iter(cf_interval_iter(theta, theta)):
        if q > cap:
            return
        yield a, q


class TestTypeEstimate:
    def test_phi_near_one(self):
        tau = estimate_type(PHI, 10**6)
        assert 1.0 <= tau <= 1.05

    def test_sqrt2_range(self):
        assert 1.0 <= estimate_type(SQRT2, 10**6) <= 1.1

    def test_partial_quotient_ones_matches_phi(self):
        assert estimate_type(PartialQuotients((1,) * 45), 10**6) == estimate_type(PHI, 10**6)

    def test_alpha_and_inverse_agree(self):
        # 1/phi = (-1 + sqrt 5)/2, 1/sqrt 2 = sqrt(2)/2, 1/sqrt 3 = sqrt(3)/3
        for alpha, inverse in ((PHI, "quad:-1,5,2"), (SQRT2, "quad:0,2,2"), (SQRT3, "quad:0,3,3")):
            t1 = estimate_type(alpha, 10**6)
            t2 = estimate_type(parse_irrational(inverse), 10**6)
            assert abs(t1 - t2) <= 0.1


class TestSpecs:
    def test_parse_round_trip(self):
        for text in ("quad:1,5,2", "cf:1,2,2,2", "dec:3.14159:40"):
            assert str(parse_irrational(text)) == text

    def test_square_d_rejected(self):
        with pytest.raises(ValueError):
            QuadraticIrrational(0, 4, 1)

    def test_nonpositive_q_rejected(self):
        with pytest.raises(ValueError):
            QuadraticIrrational(1, 5, -2)

    @given(st.integers(min_value=2, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_quotients_positive_after_head(self, d):
        if math.isqrt(d) ** 2 == d:
            return
        qs = quotients(QuadraticIrrational(0, d, 1), 12)
        assert all(a >= 1 for a in qs[1:])
