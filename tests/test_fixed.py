import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatty_kfree.cfrac import PHI, to_fixed
from beatty_kfree.errors import PrecisionExhausted
from beatty_kfree.fixed import (
    FixedReal,
    exp_circle,
    frac_to_float,
    frac_vector,
    sin_pi_reduced,
)


class TestFrac:
    def test_exact_dyadic(self):
        assert FixedReal.from_fraction(Fraction(13, 4), 128).frac().to_float() == 0.25

    def test_negative_representative(self):
        assert FixedReal.from_fraction(Fraction(-1, 2), 128).frac().to_float() == 0.5

    def test_exact_integer(self):
        f = FixedReal.from_fraction(Fraction(7), 128).frac()
        assert f.mantissa == 0

    def test_phi_times_38_against_decimal_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 1000
        fr = to_fixed(PHI, 192).mul_int(38).frac()
        ours = mp.mpf(fr.mantissa) / mp.mpf(2) ** 192
        target = mp.mpf(mp.phi) * 38
        gap = abs(ours - (target - mp.floor(target)))
        assert gap < mp.mpf(2) ** -128

    def test_straddling_interval_raises(self):
        # value 1.0 with nonzero error: floor undecidable
        x = FixedReal(1 << 128, 128, 5)
        with pytest.raises(PrecisionExhausted):
            x.frac()

    @given(
        p=st.integers(min_value=-(10**9), max_value=10**9),
        q=st.integers(min_value=1, max_value=10**9),
    )
    @settings(max_examples=1000, deadline=None)
    def test_interval_soundness_random_rationals(self, p, q):
        x = FixedReal.from_fraction(Fraction(p, q), 128)
        got = Fraction(x.frac().mantissa, 1 << 128)
        exact = Fraction(p, q) - (p // q)
        # representation error is at most err_ulps ulps and floor matches
        assert abs(got - exact) <= Fraction(x.err_ulps, 1 << 128)

    def test_decisions_stable_under_precision_doubling(self, rng):
        # random multipliers plus convergent denominators (worst cases where
        # ||q*alpha|| is tiny) must give identical floors at B and 2B bits
        from beatty_kfree.cfrac import SQRT2, SQRT3, convergents

        for alpha in (PHI, SQRT2, SQRT3):
            qs = [c.q for c in convergents(alpha, 25)]
            ms = list(rng.integers(1, 10**9, size=3000)) + qs
            a_lo = to_fixed(alpha, 128)
            a_hi = to_fixed(alpha, 256)
            for m in ms:
                m = int(m)
                lo = a_lo.mul_int(m).floor_certified()
                hi = a_hi.mul_int(m).floor_certified()
                if lo is not None:
                    assert lo == hi


class TestUnitExp:
    """e(x) on the unit circle through exp_circle."""

    def test_zero(self):
        assert exp_circle(0, 128) == (1.0, 0.0)

    def test_half(self):
        c, s = exp_circle(1 << 127, 128)
        assert c == -1.0 and abs(s) < 1e-15

    def test_third_exact_trig(self):
        c, s = exp_circle(FixedReal.from_fraction(Fraction(1, 3), 128).mantissa, 128)
        assert abs(c + 0.5) < 1e-15
        assert abs(s - math.sqrt(3) / 2) < 1e-15

    def test_reduces_whole_turns_exactly(self):
        # the integer part of the angle never reaches the float conversion
        third = FixedReal.from_fraction(Fraction(1, 3), 128).mantissa
        assert exp_circle(third + (12345 << 128), 128) == exp_circle(third, 128)

    def test_modulus_near_one(self, rng):
        for num in rng.integers(0, 1 << 48, size=10**5):
            c, s = exp_circle(int(num) << 80, 128)
            assert abs(c * c + s * s - 1.0) <= 1e-14


class TestHelpers:
    def test_frac_to_float_wide_mantissa(self):
        m = (1 << 200) // 3
        assert abs(frac_to_float(m, 200) - 1.0 / 3.0) < 1e-15

    def test_frac_vector_matches_exact(self, rng):
        bits = 192
        mant = int(rng.integers(1, 1 << 62)) << 100 | int(rng.integers(0, 1 << 60))
        off = int(rng.integers(0, 1 << 62)) << 128 | int(rng.integers(0, 1 << 62))
        n = np.arange(1, 2001, dtype=np.uint64)
        fast = frac_vector(mant, bits, n, offset_mantissa=off)
        for i in (0, 1, 999, 1999):
            exact = ((mant * int(n[i]) + off) % (1 << bits)) / (1 << bits)
            assert abs(fast[i] - exact) < 2**-49 or abs(abs(fast[i] - exact) - 1.0) < 2**-49

    def test_sin_pi_reduced_matches_math(self, rng):
        for num in rng.integers(0, 1 << 40, size=200):
            x = int(num)
            expected = math.sin(math.pi * ((x / 2**20) % 2.0))
            assert abs(sin_pi_reduced(x, 20) - expected) < 1e-12


def circular_gap(fast: np.ndarray, mant: int, bits: int, ns, off: int = 0) -> float:
    """Largest distance on the circle between fast and the exact fractional
    parts of (mant*n + off) / 2**bits, reduced in integers."""
    one = 1 << bits
    exact = np.array([((mant * int(n) + off) % one) / one for n in ns])
    d = np.abs(fast - exact)
    return float(np.max(np.minimum(d, 1.0 - d)))


class TestFracVectorBeyond2To32:
    @pytest.mark.parametrize("with_offset", [False, True])
    @settings(max_examples=200, deadline=None)
    @given(
        mant=st.integers(0, (1 << 192) - 1),
        off=st.integers(0, (1 << 192) - 1),
        ns=st.lists(st.integers(1 << 32, (1 << 44) - 1), min_size=1, max_size=40),
    )
    def test_matches_exact_reduction(self, with_offset, mant, off, ns):
        off = off if with_offset else 0
        n = np.array(ns, dtype=np.uint64)
        fast = frac_vector(mant, 192, n, offset_mantissa=off)
        assert circular_gap(fast, mant, 192, ns, off) <= 1e-15

    @pytest.mark.parametrize("e", [32, 33, 36, 40, 44])
    def test_golden_ratio_runs(self, e):
        # consecutive n from 2**e - 1000 across 2**e (up to 2**44 - 1); the
        # wrapped c-limb once cost 5.7e-8 at 2**40
        mant = to_fixed(PHI, 192).mantissa
        ns = np.arange((1 << e) - 1000, min((1 << e) + 1000, 1 << 44), dtype=np.uint64)
        assert circular_gap(frac_vector(mant, 192, ns), mant, 192, ns) <= 1e-15

    def test_low_scale_bits(self, rng):
        # scale_bits < 96: the mantissa is shifted up, not truncated
        mant = int(rng.integers(1, 1 << 62))
        ns = [int(v) for v in rng.integers(1 << 32, 1 << 44, size=500)]
        fast = frac_vector(mant, 64, np.array(ns, dtype=np.uint64))
        assert circular_gap(fast, mant, 64, ns) <= 1e-15

    def test_refuses_n_from_2_to_44(self):
        n = np.array([5, (1 << 44) + 7, 3], dtype=np.uint64)
        with pytest.raises(ValueError, match=r"max\(n\) = 17592186044423"):
            frac_vector(to_fixed(PHI, 192).mantissa, 192, n)

    def test_an_integer_sum_reduces_to_positive_zero(self):
        # n * 1/2 + 1/2 and n * 3/4 + 1/4 are whole turns before the reduction
        for mant, off, ns in ((1 << 191, 1 << 191, [1, 3]), (3 << 190, 1 << 190, [1, 5])):
            out = frac_vector(mant, 192, np.array(ns, dtype=np.uint64), offset_mantissa=off)
            assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in out)

    def test_empty_input(self):
        assert frac_vector(12345, 64, np.array([], dtype=np.uint64)).shape == (0,)
