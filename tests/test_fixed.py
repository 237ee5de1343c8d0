import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatty_kfree.beatty import BeattyParams
from beatty_kfree.cfrac import PHI, parse_irrational, to_fixed
from beatty_kfree.expsums import linear_exp_sum
from beatty_kfree import beatty, fixed
from beatty_kfree.fixed import (
    TILE,
    FixedReal,
    frac_to_float,
    frac_u64,
    frac_vector,
    residue_tiles,
)


class TestFrac:
    """Certified floors, which decide fractional parts."""

    def test_exact_dyadic(self):
        assert FixedReal.from_fraction(Fraction(13, 4), 128).floor_certified() == 3

    def test_negative_representative(self):
        assert FixedReal.from_fraction(Fraction(-1, 2), 128).floor_certified() == -1

    def test_exact_integer(self):
        x = FixedReal.from_fraction(Fraction(7), 128)
        assert x.err_ulps == 0 and x.floor_certified() == 7

    def test_phi_times_38_against_decimal_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 1000
        x = to_fixed(PHI, 192).mul_int(38)
        f = x.floor_certified()
        target = mp.mpf(mp.phi) * 38
        assert f == int(mp.floor(target))
        ours = mp.mpf(x.mantissa - (f << 192)) / mp.mpf(2) ** 192
        assert abs(ours - (target - f)) < mp.mpf(2) ** -128

    def test_straddling_interval_is_undecided(self):
        # value 1.0 with nonzero error: floor undecidable
        assert FixedReal(1 << 128, 128, 5).floor_certified() is None

    @given(
        p=st.integers(min_value=-(10**9), max_value=10**9),
        q=st.integers(min_value=1, max_value=10**9),
    )
    @settings(max_examples=1000, deadline=None)
    def test_interval_soundness_random_rationals(self, p, q):
        x = FixedReal.from_fraction(Fraction(p, q), 128)
        # representation error is at most err_ulps ulps; a non-integer p/q lies at
        # least 1e-9 from an integer, so the floor is always decided
        assert abs(Fraction(x.mantissa, 1 << 128) - Fraction(p, q)) <= Fraction(x.err_ulps, 1 << 128)
        assert x.floor_certified() == p // q

    def test_decisions_stable_under_precision_doubling(self, rng):
        # random multipliers plus convergent denominators (worst cases where
        # ||q*alpha|| is tiny) must give identical floors at B and 2B bits
        from beatty_kfree.cfrac import SQRT2, SQRT3, _convergent_iter

        for alpha in (PHI, SQRT2, SQRT3):
            qs = [q for _, q in islice(_convergent_iter(alpha.quotient_iter()), 25)]
            ms = list(rng.integers(1, 10**9, size=3000)) + qs
            a_lo = to_fixed(alpha, 128)
            a_hi = to_fixed(alpha, 256)
            for m in ms:
                m = int(m)
                lo = a_lo.mul_int(m).floor_certified()
                hi = a_hi.mul_int(m).floor_certified()
                if lo is not None:
                    assert lo == hi


def unit_exp(mantissa: int, scale_bits: int, ns=(1,)) -> np.ndarray:
    """e(n * mantissa / 2**scale_bits) for each n: linear_exp_sum at x = 1,
    whose angles are uint64 words within 2**-61 of the exact reduction of the
    fixed-point mantissa, or that exact reduction where the angle is below
    2**-12 turns."""
    return linear_exp_sum(FixedReal(mantissa, scale_bits), ns, [1] * len(ns))


class TestUnitExp:
    """e(x) on the unit circle through linear_exp_sum at x = 1."""

    def test_zero(self):
        assert unit_exp(0, 128)[0] == 1 + 0j

    def test_half(self):
        z = unit_exp(1 << 127, 128)[0]
        assert z.real == -1.0 and abs(z.imag) < 1e-15

    def test_third_exact_trig(self):
        z = unit_exp(FixedReal.from_fraction(Fraction(1, 3), 128).mantissa, 128)[0]
        assert abs(z.real + 0.5) < 1e-15
        assert abs(z.imag - math.sqrt(3) / 2) < 1e-15

    def test_reduces_whole_turns_exactly(self):
        # the integer part of the angle never reaches the float conversion
        third = FixedReal.from_fraction(Fraction(1, 3), 128).mantissa
        assert unit_exp(third + (12345 << 128), 128)[0] == unit_exp(third, 128)[0]

    def test_modulus_near_one(self, rng):
        # e(num * 2**-48) for 10**5 random num, one call
        z = unit_exp(1 << 80, 128, rng.integers(0, 1 << 48, size=10**5))
        assert np.max(np.abs(z.real**2 + z.imag**2 - 1.0)) <= 1e-14


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


def circular_gap(fast: np.ndarray, mant: int, bits: int, ns, off: int = 0) -> float:
    """Largest distance on the circle between fast and the exact fractional
    parts of (mant*n + off) / 2**bits, reduced in integers."""
    one = 1 << bits
    exact = np.array([((mant * int(n) + off) % one) / one for n in ns])
    d = np.abs(fast - exact)
    return float(np.max(np.minimum(d, 1.0 - d)))


FRAC_BOUND = Fraction(1, 1 << 54) + Fraction(1, 1 << 62)


def exact_gap(fast: np.ndarray, mant: int, bits: int, ns, off: int = 0) -> Fraction:
    """Largest distance on the circle, in exact rationals, between fast and
    the fractional parts of (mant*n + off) / 2**bits."""
    one = 1 << bits
    gaps = [abs(Fraction(float(f)) - Fraction((mant * int(n) + off) % one, one))
            for f, n in zip(fast, ns)]
    return max(min(g, 1 - g) for g in gaps)


class TestFracVectorKernel:
    """The mod-2**64 kernel against exact reduction, over all of uint64."""

    @settings(max_examples=300, deadline=None)
    @given(
        bits=st.sampled_from([64, 100, 128, 192, 300]),
        data=st.data(),
        ns=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=20),
    )
    def test_within_bound_of_exact(self, bits, data, ns):
        span = 1 << (bits + 8)  # wider than one turn, and negative
        mant = data.draw(st.integers(-span, span))
        off = data.draw(st.integers(-span, span))
        out = frac_vector(mant, bits, np.array(ns, dtype=np.uint64), offset_mantissa=off)
        assert np.all((out >= 0.0) & (out < 1.0))
        assert exact_gap(out, mant, bits, ns, off) <= FRAC_BOUND

    def test_rounding_up_to_one_wraps_to_positive_zero(self):
        # {1 - 2**-60} rounds to 1.0 at 53 bits and wraps to +0.0
        mant = (1 << 64) - 16
        out = frac_vector(mant, 64, np.array([1], dtype=np.uint64))
        assert out[0] == 0.0 and math.copysign(1.0, out[0]) == 1.0
        assert exact_gap(out, mant, 64, [1]) <= FRAC_BOUND

    @pytest.mark.parametrize("n_lo", [1, (1 << 32) - 500, 1 << 44, (1 << 63) + 12345])
    def test_folded_block_start(self, n_lo):
        # a block's start folded into the offset, as the block callers do,
        # against the absolute n; the two may round apart, so each is
        # checked against the exact reduction
        lv = to_fixed(PHI, 192)
        mant, off = lv.mantissa, FixedReal.from_fraction(Fraction(-7, 10), 192).mantissa
        j = np.arange(1000, dtype=np.uint64)
        ns = [n_lo + int(v) for v in j]
        folded = frac_vector(mant, 192, j, offset_mantissa=mant * n_lo + off)
        plain = frac_vector(mant, 192, j + np.uint64(n_lo), offset_mantissa=off)
        assert exact_gap(folded, mant, 192, ns, off) <= FRAC_BOUND
        assert exact_gap(plain, mant, 192, ns, off) <= FRAC_BOUND


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

    def test_n_past_2_to_44_up_to_2_to_64(self):
        mant = to_fixed(PHI, 192).mantissa
        ns = [5, (1 << 44) + 7, 3, (1 << 64) - 1]
        out = frac_vector(mant, 192, np.array(ns, dtype=np.uint64))
        assert exact_gap(out, mant, 192, ns) <= FRAC_BOUND

    def test_an_integer_sum_reduces_to_positive_zero(self):
        # n * 1/2 + 1/2 and n * 3/4 + 1/4 are whole turns before the reduction
        for mant, off, ns in ((1 << 191, 1 << 191, [1, 3]), (3 << 190, 1 << 190, [1, 5])):
            out = frac_vector(mant, 192, np.array(ns, dtype=np.uint64), offset_mantissa=off)
            assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in out)

    def test_empty_input(self):
        assert frac_vector(12345, 64, np.array([], dtype=np.uint64)).shape == (0,)


def u64_gap(u: np.ndarray, mant: int, bits: int, ns) -> list[Fraction]:
    """(exact fractional part of mant*n / 2**bits) - u, in units of 2**-64
    and taken mod 2**64, per n."""
    return [Fraction((mant * n) % (1 << bits) << 64, 1 << bits) - int(v) for v, n in zip(u, ns)]


class TestFracU64:
    """The uint64 sum under frac_vector: the exact value lies in [u, u + 4)."""

    @settings(max_examples=300, deadline=None)
    @given(
        bits=st.sampled_from([64, 128, 192, 300]),
        data=st.data(),
        ns=st.lists(st.one_of(st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 64) - 1)),
                    min_size=1, max_size=20),
    )
    def test_exact_value_lies_in_u_to_u_plus_4(self, bits, data, ns):
        mant = data.draw(st.integers(-(1 << (bits + 8)), 1 << (bits + 8)))
        u = frac_u64(mant, bits, np.array(ns, dtype=np.uint64))
        assert all(0 <= gap % (1 << 64) < 4 for gap in u64_gap(u, mant, bits, ns))

    def test_three_dropped_parts_near_a_unit_each(self):
        # tl = 1, tl2 = n_lo = 2**32 - 1, n_hi = 1: the two shifts and tl2*n_lo
        # each drop nearly a unit
        mant, ns = (5 << 64) + (1 << 32) + (1 << 32) - 1, [(1 << 33) - 1]
        gap, = u64_gap(frac_u64(mant, 128, np.array(ns, dtype=np.uint64)), mant, 128, ns)
        assert 2.99 < gap < 3


class TestResidueTiles:
    """The residue tile generator against the exact fractional parts."""

    @staticmethod
    def check(p, q, r, length, ends):
        tiles = list(residue_tiles(p, q, r, length, ends))
        assert [t0 for t0, _, _ in tiles] == list(range(0, length, fixed.TILE))
        slack = fixed.TILE_SLACK * fixed.TILE
        for t0, v, near in tiles:
            assert v.dtype == np.uint64 and len(v) == min(fixed.TILE, length - t0)
            for j, vj in enumerate(v.tolist()):
                # 2**64 * {(p*i + r)/q} - v, in units of 1/q, on the circle
                gap = ((((p * (t0 + j) + r) % q) << 64) - vj * q) % (q << 64)
                assert 0 <= gap < slack * q, (t0, j)
                # near: v within the slack below an end, among them every v
                # whose exact value lies at or past that end
                within = [(e - vj - 1) % (1 << 64) < slack for e in ends]
                past = [0 < ((e - vj) % (1 << 64)) * q <= gap for e in ends]
                assert (j in near) == any(within) and all(w or not x for w, x in zip(within, past))

    @pytest.mark.parametrize("length", [1, TILE - 1, 2 * TILE + 5])
    def test_below_the_exact_value_within_the_slack(self, length):
        # the count's 207-bit slope and its reciprocal, offsets far out
        lv = BeattyParams(PHI, Fraction(-7, 10)).level(192)
        lo = lv.interval[0] * 10
        A, Q = lo.numerator, lo.denominator
        for r in (0, 7, A * (1 << 40) - 3):
            self.check(A, Q, r, length, [0])
            self.check(Q, A, r, length, [1, ((Q << 64) // A) + 1])

    @pytest.mark.parametrize("length", [1, TILE - 1, TILE + 1])
    @pytest.mark.parametrize("spec, beta, bits", [
        ("quad:1,5,2", "0", 192),
        ("cf:1," + ",".join(["1", "2"] * 40), "1/2", 192),
        ("dec:3.14159265358979323846264338327950288:100", "-7/10", 192),
        ("quad:0,2,1", "3", 64),
        ("quad:7,2,3", "-7/10", 40),
    ])
    def test_both_progressions_of_each_slope(self, spec, beta, bits, length):
        # the slope the blocks certify for n <= 2**40, offsets far out: the
        # terms' (A*n + B)/Q against 2**64, membership's (Q*m + Q - B)/A
        # against 1 and G + 1, G = floor(2**64*Q/A)
        p = BeattyParams(parse_irrational(spec), Fraction(beta), bits)
        A, B, Q = beatty._certified_slope(p, "test", lambda lo, hi: (1, 1 << 40))
        for n_lo in (1, 1 << 32, 1 << 62):
            self.check(A, Q, A * n_lo + B, length, [0])
            self.check(Q, A, Q * n_lo + Q - B, length, [1, ((Q << 64) // A) + 1])

    @pytest.mark.parametrize("tile", [7, 1000])
    @given(q=st.integers(1, 1 << 70), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_small_tiles_and_any_progression(self, tile, q, data):
        p = data.draw(st.integers(-(1 << 80), 1 << 80))
        r = data.draw(st.integers(-(1 << 80), 1 << 80))
        length = data.draw(st.integers(0, 3 * tile + 5))
        ends = data.draw(st.lists(st.integers(0, 1 << 64), min_size=1, max_size=3))
        old = fixed.TILE
        fixed.TILE = tile  # hypothesis runs many examples per fixture call
        try:
            self.check(p, q, r, length, ends)
        finally:
            fixed.TILE = old

    def test_small_denominators_put_values_on_the_ends(self, monkeypatch):
        # with q = 3 or 7 and r = 0 every value is some k/q, so v lies within
        # the slack below the end floor(2**64*k/q) + 1: every entry is near
        monkeypatch.setattr(fixed, "TILE", 1000)
        for p, q in ((1, 3), (3, 7), (-5, 7)):
            ends = [((k << 64) // q) + 1 for k in range(q)]
            self.check(p, q, 0, 2005, ends)
            for _, v, near in residue_tiles(p, q, 0, 2005, ends):
                assert near == list(range(len(v)))

    def test_a_slack_past_2_64_marks_every_entry(self, monkeypatch):
        monkeypatch.setattr(fixed, "TILE_SLACK", 1 << 62)
        for _, v, near in residue_tiles(5, 7, 1, 3 * TILE + 5, [0]):
            assert near == list(range(len(v)))

    def test_nothing_to_yield(self):
        assert list(residue_tiles(5, 7, 1, 0, [0])) == []
