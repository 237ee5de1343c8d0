import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatty_kfree import beatty, fixed, kfree
from beatty_kfree.beatty import (
    BeattyParams,
    _bracket,
    _certified_slope,
    _count_split,
    _lane_counts,
    _n_d,
    beatty_term,
    beatty_terms_block,
    count_kfree_beatty,
    is_member,
    member_flags_block,
    member_witness,
    parse_beta,
)
from beatty_kfree.cfrac import PHI, SQRT2, SQRT3, QuadraticIrrational, parse_irrational
from beatty_kfree.errors import PrecisionExhausted
from beatty_kfree.fixed import TILE, FixedReal
from beatty_kfree.kfree import DEFAULT_MEMORY_BYTES, iroot, primes_upto, sieve_kfree

BIG_ALPHA = "quad:0,200000000000000,1"  # sqrt(2e14): term n is isqrt(2e14 * n * n)
SHORT_SPECS = ("cf:1,1,1,1,1,1,1,1", "dec:3.14159:12")
ALL_FLOOR_SUMS = 1 << 62  # a cut-off D0 above every r = t_x**(1/k): no pairs
COUNT_SPECS = ["quad:1,5,2", "quad:0,2,1", "quad:7,2,3", "cf:1," + ",".join(["1", "2"] * 40),
               "dec:3.14159265358979323846264338327950288:100", *SHORT_SPECS]


def big_alpha_term(n: int) -> int:
    return math.isqrt(200000000000000 * n * n)


def streaming_count(p: BeattyParams, k: int, n_lo: int, n_hi: int) -> int:
    """Oracle: enumerate the terms for n in [n_lo, n_hi] and sieve their window."""
    terms = beatty_terms_block(p, n_lo, n_hi)
    t_lo = int(terms[0])
    if t_lo < 1:
        raise ValueError("terms must be positive")
    flags = sieve_kfree(k, t_lo, int(terms[-1]))
    return int(np.count_nonzero(flags[terms - t_lo]))


def kfree_by_trial(terms: list[int], k: int) -> int:
    """Oracle for term windows too wide to sieve: test every p**k <= max term."""
    t = np.array(terms, dtype=np.int64)
    free = np.ones(len(t), dtype=bool)
    for pk in primes_upto(iroot(int(t.max()), k)) ** k:
        free &= t % pk != 0
    return int(np.count_nonzero(free))


def outcome(fn):
    try:
        return fn()
    except (ValueError, PrecisionExhausted) as e:
        return type(e).__name__


def two_floor_witness(p: BeattyParams, m: int) -> int | None:
    """Oracle: W(m) = floor(gamma*m + delta) is the witness iff W(m) > W(m - 1),
    each floor certified on its own, with the integer-beta ends m = beta
    (witness 0) and m = beta - 1 (none) decided first."""
    if p.beta.denominator == 1 and m in (p.beta.numerator, p.beta.numerator - 1):
        return 0 if m == p.beta.numerator else None

    def floor(v: int) -> int:
        def certified(lv):
            g, d = lv.gamma, lv.delta
            return FixedReal(g.mantissa * v + d.mantissa, lv.bits,
                             g.err_ulps * v + d.err_ulps).floor_certified()

        return beatty._decide(p, f"W({v})", certified)

    w = floor(m)
    return w if w > floor(m - 1) else None


def enumerate_members(p: BeattyParams, top: int) -> np.ndarray:
    """Oracle: mark every floor(alpha*n + beta) <= top over n >= 1."""
    out = np.zeros(top + 1, dtype=bool)
    n = 1
    while True:
        t = beatty_term(p, n)
        if t > top:
            return out
        if t >= 1:
            out[t] = True
        n += 1


class TestTerms:
    def test_phi_first_terms(self):
        p = BeattyParams(PHI, 0)
        assert [beatty_term(p, n) for n in range(1, 6)] == [1, 3, 4, 6, 8]

    def test_sqrt2_with_half(self):
        p = BeattyParams(SQRT2, Fraction(1, 2))
        assert beatty_term(p, 1) == 1  # floor(1.9142)

    def test_gap_structure(self):
        for alpha in (PHI, SQRT2):
            p = BeattyParams(alpha, 0)
            terms = beatty_terms_block(p, 1, 10**5)
            gaps = set(np.unique(np.diff(terms)).tolist())
            lo, hi = alpha.eval_interval(64)
            assert gaps == {math.floor(lo), math.floor(lo) + 1}

    def test_block_matches_scalar(self):
        p = BeattyParams(QuadraticIrrational(7, 2, 3), Fraction(-7, 10))
        block = beatty_terms_block(p, 1, 500)
        assert [beatty_term(p, n) for n in range(1, 501)] == block.tolist()

    @given(
        pp=st.integers(min_value=0, max_value=30),
        d=st.integers(min_value=2, max_value=300),
        q=st.integers(min_value=1, max_value=9),
        bnum=st.integers(min_value=-20, max_value=20),
        bden=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=120, deadline=None)
    def test_block_matches_scalar_random(self, pp, d, q, bnum, bden):
        if math.isqrt(d) ** 2 == d:
            return
        alpha = QuadraticIrrational(pp, d, q)
        lo, _ = alpha.eval_interval(64)
        if lo <= 1:
            return
        p = BeattyParams(alpha, Fraction(bnum, bden))
        ns = [1, 2, 3, 17, 100]
        block = beatty_terms_block(p, 1, 100)
        for n in ns:
            assert beatty_term(p, n) == block[n - 1]

    def test_big_alpha_block_is_exact(self):
        p = BeattyParams(parse_irrational(BIG_ALPHA), 0)
        n0 = 1 << 30
        block = beatty_terms_block(p, n0, n0 + 4095)
        assert block.tolist() == [big_alpha_term(n) for n in range(n0, n0 + 4096)]

    def test_block_far_from_zero_matches_scalar(self):
        # past n = 2**53 a float estimate of alpha*n is off by whole units;
        # the block folds n_lo into an exact offset, so its terms stay exact
        for alpha, beta, n0 in ((PHI, 0, 1 << 60), (SQRT2, Fraction(1, 2), 1 << 61)):
            p = BeattyParams(alpha, beta)
            block = beatty_terms_block(p, n0, n0 + 1023)
            assert block.tolist() == [beatty_term(p, n) for n in range(n0, n0 + 1024)]

    def test_block_refuses_int64_overflow(self):
        p = BeattyParams(parse_irrational(BIG_ALPHA), 0)
        with pytest.raises(ValueError, match=r"n_hi=35184372088833 .* 2\*\*63"):
            beatty_terms_block(p, 1 << 45, (1 << 45) + 1)


class TestMembership:
    def test_phi_examples(self):
        p = BeattyParams(PHI, 0)
        assert is_member(p, 4)
        assert not is_member(p, 2)

    def test_round_trip(self):
        for alpha, beta in ((PHI, 0), (SQRT2, Fraction(1, 2))):
            p = BeattyParams(alpha, beta)
            for n in range(1, 10**4, 97):
                t = beatty_term(p, n)
                if t >= 1:
                    assert is_member(p, t)
                    assert member_witness(p, t) == n

    def test_criterion_equals_enumeration(self):
        top = 10**4
        for alpha in (PHI, SQRT2, QuadraticIrrational(7, 2, 3)):
            for beta in (Fraction(0), Fraction(1, 2), Fraction(-7, 10)):
                p = BeattyParams(alpha, beta)
                flags = member_flags_block(p, 1, top)
                assert np.array_equal(flags, enumerate_members(p, top)[1:])

    def test_nonmember_has_no_witness(self):
        p = BeattyParams(PHI, 0)
        assert member_witness(p, 2) is None

    def test_integer_beta_exact_boundaries(self):
        p = BeattyParams(PHI, 5)
        # {gamma*m + delta} = 0 exactly at m + 1 = beta: not a member
        assert not is_member(p, 4)
        # {gamma*m + delta} = gamma exactly at m = beta: member (witness 0)
        assert is_member(p, 5)
        assert member_witness(p, 5) == 0

    def test_witness_equals_two_floor_oracle(self, rng):
        specs = ["quad:1,5,2", "quad:0,2,1", "quad:7,2,3", BIG_ALPHA, *COUNT_SPECS[3:5]]
        betas = ["0", "1/2", "-7/10", "3", "-2"]
        params = [BeattyParams(parse_irrational(s), Fraction(b)) for s in specs for b in betas]
        queries = []
        for p in params:
            ms = [int(2.0**e) for e in rng.uniform(0.0, 40.0, size=300)]
            ms += [(1 << 32) + int(d) for d in rng.integers(-40, 41, size=40)]
            ms += [m for m in (int(p.beta), int(p.beta) - 1) if p.beta.denominator == 1 and m >= 1]
            queries += [(p, m) for m in ms]
        assert len(queries) >= 10**4
        for p, m in queries:
            assert outcome(lambda: member_witness(p, m)) == outcome(
                lambda: two_floor_witness(p, m)
            ), (p, m)

    def test_scalar_matches_block_random_range(self, rng):
        p = BeattyParams(SQRT3, Fraction(1, 3))
        lo = int(rng.integers(1, 10**6))
        flags = member_flags_block(p, lo, lo + 2000)
        for i in rng.integers(0, 2001, size=60):
            assert flags[int(i)] == is_member(p, lo + int(i))


class TestTiles:
    """The block kernels fill their output tile by tile, each tile folding its
    start into the exact offset; a cut anywhere must not move a term or a flag."""

    @pytest.mark.parametrize("tile", [7, 1000, TILE])
    def test_blocks_match_scalar_across_tiles(self, monkeypatch, tile):
        monkeypatch.setattr(fixed, "TILE", tile)
        # a wide border sends a few entries per tile to the scalar path
        monkeypatch.setattr(beatty, "_BORDER_TOL", 1e-3)
        for alpha, beta, n0 in ((PHI, 0, (1 << 32) - tile // 2),
                                (SQRT2, Fraction(1, 2), 1 << 40)):
            p = BeattyParams(alpha, beta)
            n1 = n0 + 3 * tile + 4
            assert beatty_terms_block(p, n0, n1).tolist() == [
                beatty_term(p, n) for n in range(n0, n1 + 1)
            ]
            assert member_flags_block(p, n0, n1).tolist() == [
                is_member(p, m) for m in range(n0, n1 + 1)
            ]


class TestCounting:
    def test_phi_squarefree_ten(self):
        p = BeattyParams(PHI, 0)
        # enumeration oracle: terms 1,3,4,6,8,9,11,12,14,16; squarefree are
        # 1,3,6,11,14
        terms = [beatty_term(p, n) for n in range(1, 11)]
        flags = sieve_kfree(2, 1, max(terms))
        oracle = sum(1 for t in terms if flags[t - 1])
        assert oracle == 5
        assert count_kfree_beatty(p, 10, 2)[0] == 5

    def test_phi_cubefree_ten(self):
        p = BeattyParams(PHI, 0)
        terms = [beatty_term(p, n) for n in range(1, 11)]
        flags = sieve_kfree(3, 1, max(terms))
        oracle = sum(1 for t in terms if flags[t - 1])
        # terms include both 8 = 2**3 and 16 = 2**4, so two are excluded
        assert oracle == 8
        assert count_kfree_beatty(p, 10, 3)[0] == 8

    def test_x_one(self):
        for alpha, beta, k in ((PHI, 0, 2), (SQRT2, Fraction(1, 2), 3)):
            p = BeattyParams(alpha, beta)
            t = beatty_term(p, 1)
            expected = 1 if sieve_kfree(k, 1, max(t, 1))[t - 1] else 0
            assert count_kfree_beatty(p, 1, k)[0] == expected

    def test_zero_edge(self):
        p = BeattyParams(PHI, 0)
        assert count_kfree_beatty(p, 0, 2) == (0, 0.0, 0.0)

    def test_counts_stable_under_precision_doubling(self):
        for bits in (128, 256):
            p = BeattyParams(SQRT2, Fraction(1, 2), precision_bits=bits)
            assert count_kfree_beatty(p, 2000, 2)[0] == count_kfree_beatty(
                BeattyParams(SQRT2, Fraction(1, 2), precision_bits=2 * bits), 2000, 2
            )[0]

    def test_error_column(self):
        p = BeattyParams(PHI, 0)
        count, main, err = count_kfree_beatty(p, 1000, 2)
        assert err == count - main

    def test_alpha_not_above_one_rejected(self):
        with pytest.raises(ValueError, match="alpha 'quad:-1,5,2' is not certified > 1"):
            BeattyParams(parse_irrational("quad:-1,5,2"), 0)  # 1/phi


class TestFloorSumCount:
    """count_kfree_beatty against enumerating the terms."""

    @pytest.mark.parametrize("spec", COUNT_SPECS)
    def test_matches_streaming_oracle(self, spec):
        alpha = parse_irrational(spec)
        for beta in ("0", "1/2", "-7/10", "3", "-2"):
            p = BeattyParams(alpha, parse_beta(beta))
            for k in (2, 3):
                for x in (1, 10, 1000, 10**5):
                    assert outcome(lambda: count_kfree_beatty(p, x, k)[0]) == outcome(
                        lambda: streaming_count(p, k, 1, x)
                    ), (beta, k, x)

    def test_error_kinds(self, monkeypatch):
        with pytest.raises(ValueError, match="terms must be positive"):
            count_kfree_beatty(BeattyParams(PHI, -2), 10, 2)
        p = BeattyParams(parse_irrational(SHORT_SPECS[0]), 0)
        want = (f"floor(alpha*n+beta) for n <= x=1000 undecidable for alpha={SHORT_SPECS[0]}, "
                f"beta=0 at bits [192]")
        with pytest.raises(PrecisionExhausted, match=re.escape(want)):
            count_kfree_beatty(p, 1000, 2)
        # the slope's precision doubles up to MAX_BITS before giving up
        monkeypatch.setattr(beatty, "MAX_BITS", 16)
        p = BeattyParams(parse_irrational(BIG_ALPHA), 0, precision_bits=8)
        with pytest.raises(PrecisionExhausted, match=r"x=1000000000 .* bits \[8, 16\]"):
            count_kfree_beatty(p, 10**9, 2)
        assert list(p._levels) == [8, 16]

    def test_big_alpha(self):
        p = BeattyParams(parse_irrational(BIG_ALPHA), 0)
        for x, k in ((10**5, 3), (2000, 2)):
            terms = [big_alpha_term(n) for n in range(1, x + 1)]
            assert count_kfree_beatty(p, x, k)[0] == kfree_by_trial(terms, k)

    def test_window_difference_at_2_32(self):
        p = BeattyParams(PHI, 0)
        x, w = 1 << 32, 1 << 16
        window = count_kfree_beatty(p, x, 2)[0] - count_kfree_beatty(p, x - w, 2)[0]
        assert window == streaming_count(p, 2, x - w + 1, x)

    def test_beyond_the_sieve_cap(self):
        p = BeattyParams(PHI, 0)
        x, w = 10**12, 1 << 12
        assert beatty_term(p, x) > 1 << 40
        count, _, err = count_kfree_beatty(p, x, 3)
        terms = [beatty_term(p, n) for n in range(x - w + 1, x + 1)]
        assert count - count_kfree_beatty(p, x - w, 3)[0] == kfree_by_trial(terms, 3)
        assert abs(err) < x ** (3 / 5)


class TestSplitCount:
    """The floor-sum/membership-pair split against either half alone."""

    @staticmethod
    def split(p, x, k, d0):
        return outcome(lambda: _count_split(p, x, k, d0, DEFAULT_MEMORY_BYTES))

    @pytest.mark.parametrize("spec", COUNT_SPECS)
    def test_all_pairs_and_all_floor_sums_agree(self, spec, monkeypatch):
        borders = []
        real = beatty.border_indices

        def counted(*args):
            out = real(*args)
            borders.append(len(out))
            return out

        monkeypatch.setattr(beatty, "border_indices", counted)
        alpha = parse_irrational(spec)
        # the short specs certify only small x, where their wide intervals
        # send pair entries to the integer decision
        xs = range(1, 100) if spec in SHORT_SPECS else (1, 10, 1000, 10**5)
        for beta in ("0", "1/2", "-7/10", "3", "-2"):
            p = BeattyParams(alpha, parse_beta(beta))
            for k in (2, 3):
                for x in xs:
                    public = outcome(lambda: count_kfree_beatty(p, x, k)[0])
                    assert self.split(p, x, k, 0) == self.split(p, x, k, ALL_FLOOR_SUMS) == public, (
                        beta, k, x)
        if spec in SHORT_SPECS:
            assert sum(borders) > 100

    def test_border_decision_alone(self, monkeypatch):
        # every pair goes to the integer decision, with its float flag inverted
        real = beatty.gamma_test

        def all_border(lv, f, m_hi):
            flags, _ = real(lv, f, m_hi)
            return ~flags, np.arange(len(f))

        monkeypatch.setattr(beatty, "gamma_test", all_border)
        for spec in ("quad:1,5,2", "quad:7,2,3", "dec:3.14159265358979323846264338327950288:100"):
            for beta in ("0", "-7/10", "3"):
                p = BeattyParams(parse_irrational(spec), parse_beta(beta))
                for k in (2, 3):
                    for x in (1, 10, 1000, 20000):
                        assert self.split(p, x, k, 0) == self.split(p, x, k, ALL_FLOOR_SUMS), (spec, beta, k, x)

    @pytest.mark.parametrize("chunk", [2, 7, 64])
    def test_chunks_of_whole_d(self, chunk, monkeypatch):
        monkeypatch.setattr(beatty, "_PAIR_CHUNK", chunk)
        monkeypatch.setattr(kfree, "MOEBIUS_SEGMENT", 3)  # and the d in segments of 3
        for spec, beta in (("quad:1,5,2", "0"), ("quad:7,2,3", "-7/10")):
            p = BeattyParams(parse_irrational(spec), parse_beta(beta))
            for k in (2, 3):
                for x in (1, 10, 1000):
                    want = self.split(p, x, k, ALL_FLOOR_SUMS)
                    assert self.split(p, x, k, 0) == self.split(p, x, k, None) == want, (spec, k, x)

    @pytest.mark.parametrize("k", [2, 3])
    def test_few_multiples_above_the_cost_model_cut_off(self, k):
        # d > D0 = iroot(floor(c*t_x), k) has d**k > c*t_x, so fewer than 1/c
        # multiples of d**k in [1, t_x]; the fewest d, D0 + 1, has the most
        t_xs = [*range(1, 3000), *(int(10**e) + i for e in np.arange(4, 18.5, 0.25)
                                   for i in (-1, 0, 1))]
        assert iroot(int(beatty._PAIR_COST * 24), k) == 0  # includes D0 = 0
        for t_x in t_xs:
            d0 = iroot(int(beatty._PAIR_COST * t_x), k)
            assert t_x // (d0 + 1) ** k < 1 / beatty._PAIR_COST, (k, t_x)

    def test_cost_model_chunks_stay_near_the_chunk_size(self, monkeypatch):
        sizes = []
        real = beatty.group_offsets

        def counted(per):
            sizes.append(int(per.sum()))
            return real(per)

        monkeypatch.setattr(beatty, "group_offsets", counted)
        monkeypatch.setattr(beatty, "_PAIR_CHUNK", 100)
        p = BeattyParams(PHI, 0)
        for k in (2, 3):
            assert self.split(p, 10**7, k, None) == self.split(p, 10**7, k, ALL_FLOOR_SUMS)
        assert len(sizes) > 20 and max(sizes) <= 100 + 24
        assert sorted(sizes)[len(sizes) // 2] > 100 - 24

    def test_segments_of_three_d(self, monkeypatch):
        # a cut-off inside a segment sends its first d to floor sums, the rest to pairs
        cases = [(BeattyParams(parse_irrational(spec), parse_beta(beta)), x, k)
                 for spec, beta in (("quad:1,5,2", "0"), ("quad:7,2,3", "-7/10"))
                 for k in (2, 3) for x in (1, 10, 1000, 10**5)]
        want = [self.split(p, x, k, ALL_FLOOR_SUMS) for p, x, k in cases]
        monkeypatch.setattr(kfree, "MOEBIUS_SEGMENT", 3)
        for (p, x, k), count in zip(cases, want):
            for d0 in (0, 5, None, ALL_FLOOR_SUMS):
                assert self.split(p, x, k, d0) == count, (p, x, k, d0)

    def test_phi_squarefree_at_1e10(self):
        p = BeattyParams(PHI, 0)
        assert count_kfree_beatty(p, 10**10, 2)[0] == _count_split(
            p, 10**10, 2, ALL_FLOOR_SUMS, DEFAULT_MEMORY_BYTES) == 6079271025

    def test_terms_past_the_pair_limit(self, monkeypatch):
        # t_x >= 2**44, where frac_vector once stopped and every d took floor sums
        largest = []
        real = beatty.frac_vector

        def counted(mantissa, scale_bits, n, offset_mantissa=0):
            largest.append(int(n.max()))
            return real(mantissa, scale_bits, n, offset_mantissa)

        monkeypatch.setattr(beatty, "frac_vector", counted)
        p = BeattyParams(parse_irrational(BIG_ALPHA), 0)
        x = 1_250_000
        assert big_alpha_term(x) >= 1 << 44
        assert count_kfree_beatty(p, x, 3)[0] == _count_split(
            p, x, 3, ALL_FLOOR_SUMS, DEFAULT_MEMORY_BYTES)
        assert max(largest) >= 1 << 44

    def test_terms_past_2_63_take_floor_sums(self):
        # the pairs' multiples are int64, so terms from 2**63 on take floor
        # sums for every d; sqrt(1e38 + 7) puts t_10 near 1e20
        p = BeattyParams(parse_irrational("quad:0,100000000000000000000000000000000000007,1"), 0)
        terms = [beatty_term(p, n) for n in range(1, 11)]
        assert terms[-1] >= 1 << 63
        pks = [q**5 for q in primes_upto(iroot(terms[-1], 5)).tolist()]
        want = sum(all(t % q for q in pks) for t in terms)
        assert count_kfree_beatty(p, 10, 5)[0] == want


def slope_form(p: BeattyParams, x: int) -> tuple[int, int, int, int, int]:
    """(A, B, Q, t_1, t_x) with t_n = floor((A*n + B)/Q) for 1 <= n <= x."""
    s = _certified_slope(p, x)
    A = s.numerator * p.beta.denominator
    B = p.beta.numerator * s.denominator
    Q = s.denominator * p.beta.denominator
    return A, B, Q, (A + B) // Q, (A * x + B) // Q


LANE_CASES = [(spec, beta, k, x) for spec, beta in (
    ("quad:1,5,2", "0"), ("quad:1,5,2", "1/2"), ("quad:7,2,3", "-7/10"), ("quad:7,2,3", "3"),
    (COUNT_SPECS[3], "-7/10"), (COUNT_SPECS[4], "-7/10"), (COUNT_SPECS[4], "3"))
    for k in (2, 3) for x in (10**4, 10**9)]


class TestLaneCounts:
    """The uint64 lanes of the small d against the big-integer floor sums."""

    @pytest.mark.parametrize("spec, beta, k, x", LANE_CASES)
    def test_certified_lanes_are_the_two_floor_sums(self, spec, beta, k, x):
        A, B, Q, t_1, t_x = slope_form(BeattyParams(parse_irrational(spec), parse_beta(beta)), x)
        d = np.arange(1, min(iroot(t_x, k), 400) + 1)
        n_d, cert = _lane_counts(A, B, Q, t_1, t_x, d**k)
        assert cert.any()
        for i in np.flatnonzero(cert).tolist():
            assert int(n_d[i]) == _n_d(A, B, Q, x, int(d[i]) ** k), int(d[i])

    @pytest.mark.parametrize("spec, beta, k, x", LANE_CASES[::5])
    def test_brackets_hold_the_exact_slope_and_offsets(self, spec, beta, k, x, monkeypatch):
        # the four floor sums' (a, b) at 2**-s: theta, c, theta, c + gamma, each
        # between its lower and its upper bracket, and m*(L + 2) <= 2**63
        seen = []
        monkeypatch.setattr(beatty, "floor_sum_lanes",
                            lambda *cols: seen.append(cols) or np.zeros(len(cols[0]), np.uint64))
        A, B, Q, t_1, t_x = slope_form(BeattyParams(parse_irrational(spec), parse_beta(beta)), x)
        dk = np.arange(1, min(iroot(t_x, k), 300) + 1) ** k
        _lane_counts(A, B, Q, t_1, t_x, dk)
        (n, m, a, b), = seen
        lanes = len(dk)
        for i, D in enumerate(dk.tolist()):
            L, s_m = int(n[i]), int(m[i])
            if L == 0:  # no multiple of D among the terms, or a lane sent to the fallback
                continue
            j_lo = (t_1 - 1) // D + 1
            assert L == t_x // D - j_lo + 1 and s_m * (L + 2) <= 1 << 63
            theta = Fraction(Q * D % A, A)
            c = Fraction((Q * D * j_lo - B + A - 1) % A, A)
            got = [(int(a[g * lanes + i]), int(b[g * lanes + i])) for g in range(4)]
            (a_lo, c_lo), (a_hi, c_hi), (_, cg_lo), (_, cg_hi) = got
            assert a_lo <= theta * s_m <= a_hi and c_lo <= c * s_m <= c_hi, D
            assert cg_lo <= (c + Fraction(Q, A)) * s_m <= cg_hi, D
            assert [g[0] for g in got] == [a_lo, a_hi, a_lo, a_hi], D

    @pytest.mark.parametrize("shift", [3, 20, 34, 61])
    def test_a_bracket_covers_the_slack_across_a_multiple(self, shift):
        step = 1 << shift
        v = np.array([5 * step + j for j in range(-2 * beatty._LANE_SLACK, 2 * beatty._LANE_SLACK)]
                     + [(1 << 64) - beatty._LANE_SLACK], dtype=np.uint64)
        lo, hi = _bracket(v, np.full(len(v), shift, dtype=np.uint64))
        for vi, l, h in zip(v.tolist(), lo.tolist(), hi.tolist()):
            assert l * step <= vi and vi + beatty._LANE_SLACK <= h * step <= vi + beatty._LANE_SLACK + step

    def test_a_value_within_the_slack_of_one_takes_the_fallback(self, monkeypatch):
        # theta or c so near 1 that its bracket could wrap: no lane certifies,
        # and the count is that of the big-integer floor sums
        p = BeattyParams(PHI, parse_beta("1/2"))
        want = _count_split(p, 10**6, 2, ALL_FLOOR_SUMS, DEFAULT_MEMORY_BYTES)
        A, B, Q, t_1, t_x = slope_form(p, 10**6)
        dk = np.arange(1, iroot(t_x, 2) + 1) ** 2
        offset = (((A - 1 - B) % A) << 64) // A  # c's offset, added after frac_u64
        real = beatty.frac_u64
        for patched, near in ((0, 1 << 64), (1, (1 << 64) - offset)):
            calls = []

            def near_one(mantissa, scale_bits, n):  # theta first, then c
                u = real(mantissa, scale_bits, n)
                if len(calls) == patched:
                    u[::3] = np.uint64(near - beatty._LANE_SLACK + 1)
                calls.append(n)
                return u

            monkeypatch.setattr(beatty, "frac_u64", near_one)
            cert = _lane_counts(A, B, Q, t_1, t_x, dk)[1]
            assert cert.any() and not cert[::3].any(), patched
            assert _count_split(p, 10**6, 2, ALL_FLOOR_SUMS, DEFAULT_MEMORY_BYTES) == want

    def test_a_lane_past_the_longest_is_never_certified(self, monkeypatch):
        # even with equal totals: from 2**32 multiples on they could wrap 2**64
        monkeypatch.setattr(beatty, "floor_sum_lanes", lambda *cols: np.zeros(len(cols[0]), np.uint64))
        A, B, Q, t_1, t_x = slope_form(BeattyParams(PHI, 0), 10**10)
        dk = np.arange(1, 101) ** 2
        cert = _lane_counts(A, B, Q, t_1, t_x, dk)[1]
        long = t_x // dk >= beatty._LANE_MAX
        assert long.any() and not long.all()
        assert not cert[long].any() and cert[~long].all()

    @pytest.mark.parametrize("spec", COUNT_SPECS)
    def test_no_lane_certified_gives_the_same_counts(self, spec, monkeypatch):
        alpha = parse_irrational(spec)
        cases = [(BeattyParams(alpha, parse_beta(beta)), k, x)
                 for beta in ("0", "1/2", "-7/10", "3", "-2") for k in (2, 3)
                 for x in ((1, 10, 99) if spec in SHORT_SPECS else (1, 10, 1000, 10**5))]
        want = [outcome(lambda: count_kfree_beatty(p, x, k)[0]) for p, k, x in cases]
        real = beatty._lane_counts
        monkeypatch.setattr(beatty, "_lane_counts",
                            lambda *args: (real(*args)[0], np.zeros(len(args[-1]), dtype=bool)))
        assert [outcome(lambda: count_kfree_beatty(p, x, k)[0]) for p, k, x in cases] == want

    def test_window_at_1e12_equals_the_streamed_terms(self, monkeypatch):
        # count(x0 + 2**20) - count(x0) against the k-free terms that
        # beatty_terms_block and sieve_kfree stream over (x0, x0 + 2**20],
        # with both the lanes and the fallback serving d
        served = {"lanes": 0, "fallback": 0}
        lane_counts, n_d = beatty._lane_counts, beatty._n_d

        def lanes(*args):
            out = lane_counts(*args)
            served["lanes"] += int(out[1].sum())
            return out

        def fallback(*args):
            served["fallback"] += 1
            return n_d(*args)

        monkeypatch.setattr(beatty, "_lane_counts", lanes)
        monkeypatch.setattr(beatty, "_n_d", fallback)
        p, x0, w = BeattyParams(PHI, 0), 10**12, 1 << 20
        window = count_kfree_beatty(p, x0 + w, 2)[0] - count_kfree_beatty(p, x0, 2)[0]
        assert window == streaming_count(p, 2, x0 + 1, x0 + w)
        assert served["lanes"] > 0 and served["fallback"] > 0


class TestIntervalWidth:
    """Block kernels send entries the alpha interval leaves open to the scalar path."""

    @pytest.mark.parametrize("spec, n_bad, m_bad", [(SHORT_SPECS[0], 21, 33), (SHORT_SPECS[1], 99, 310)])
    def test_blocks_agree_with_scalar_or_raise(self, spec, n_bad, m_bad):
        p = BeattyParams(parse_irrational(spec), 0)
        with pytest.raises(PrecisionExhausted):
            beatty_term(p, n_bad)
        with pytest.raises(PrecisionExhausted):
            beatty_terms_block(p, 1, n_bad)
        with pytest.raises(PrecisionExhausted):
            is_member(p, m_bad)
        with pytest.raises(PrecisionExhausted):
            member_flags_block(p, 1, m_bad)
        assert beatty_terms_block(p, 1, n_bad - 1).tolist() == [
            beatty_term(p, n) for n in range(1, n_bad)
        ]
        assert member_flags_block(p, 1, m_bad - 1).tolist() == [
            is_member(p, m) for m in range(1, m_bad)
        ]

    @pytest.mark.parametrize("spec, n_bad, m_bad", [(SHORT_SPECS[0], 21, 33), (SHORT_SPECS[1], 99, 310)])
    def test_flat_interval_is_tried_once(self, spec, n_bad, m_bad):
        # cf: and dec: intervals do not narrow with bits, so one level is all
        # the scalar path builds, and the message names the query, alpha,
        # beta and the bits it tried
        for query, arg in ((beatty_term, f"n={n_bad}"), (is_member, f"m={m_bad}"),
                           (member_witness, f"m={m_bad}")):
            p = BeattyParams(parse_irrational(spec), 0)
            want = re.escape(f"{arg} undecidable for alpha={spec}, beta=0 at bits [192]")
            with pytest.raises(PrecisionExhausted, match=want):
                query(p, int(arg[2:]))
            assert list(p._levels) == [192]

    @pytest.mark.parametrize("spec, beta, m", [(SHORT_SPECS[0], "1/2", 28),
                                               (SHORT_SPECS[1], "-7/10", 37)])
    def test_membership_near_gamma_raises(self, spec, beta, m):
        # floor(gamma*m + delta) is certified here, but {gamma*m + delta}
        # lies within the interval's error of gamma, so no answer is certain
        p = BeattyParams(parse_irrational(spec), Fraction(beta))
        want = re.escape(f"membership of m={m} undecidable for alpha={spec}, beta={beta} "
                         f"at bits [192]")
        with pytest.raises(PrecisionExhausted, match=want):
            member_witness(p, m)

    def test_narrowing_interval_escalates_to_max_bits(self, monkeypatch):
        tried = []

        def never(lv):
            tried.append(lv.bits)

        with pytest.raises(PrecisionExhausted, match=re.escape("never undecidable for alpha=quad:1,5,2, "
                                                               "beta=0 at bits [192, 384, 768]")):
            beatty._decide(BeattyParams(PHI, 0), "never", never)
        monkeypatch.setattr(beatty, "MAX_BITS", 800)
        with pytest.raises(PrecisionExhausted, match=re.escape("at bits [100, 200, 400, 800]")):
            beatty._decide(BeattyParams(PHI, 0, precision_bits=100), "never", never)
        # a flat interval decides nothing new, so it is tried once
        p = BeattyParams(parse_irrational(SHORT_SPECS[0]), 0)
        with pytest.raises(PrecisionExhausted, match=re.escape("at bits [192]")):
            beatty._decide(p, "never", never)
        assert tried == [192, 384, 768, 100, 200, 400, 800, 192]
        assert list(p._levels) == [192]

    def test_precision_above_max_bits_is_tried_once(self):
        # a start above MAX_BITS still decides, at that one level
        p = BeattyParams(PHI, 0, precision_bits=2 * fixed.MAX_BITS)
        assert count_kfree_beatty(p, 1000, 2)[0] == streaming_count(p, 2, 1, 1000)
        assert beatty_term(p, 10**6) == beatty_term(BeattyParams(PHI, 0), 10**6)


class TestParseBeta:
    def test_forms(self):
        assert parse_beta("1/2") == Fraction(1, 2)
        assert parse_beta("0.5") == Fraction(1, 2)
        assert parse_beta("-0.7") == Fraction(-7, 10)
