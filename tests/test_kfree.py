import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beatty_kfree import kfree
from beatty_kfree.errors import MemoryBudgetExceeded
from beatty_kfree.kfree import (
    count_kfree,
    floor_sum,
    floor_sum_lanes,
    group_offsets,
    iroot,
    sieve_kfree,
    sieve_moebius,
    zeta,
)
from oracles import count_kfree_moebius


def mu_by_trial_factorization(n: int) -> int:
    """Oracle: factor n by trial division."""
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def odd_primes_upto(n: int) -> np.ndarray:
    """Oracle: the odd primes <= n by a sieve of Eratosthenes on odd numbers."""
    odd = np.arange(3, n + 1, 2, dtype=np.int64)
    composite = np.zeros(len(odd), dtype=bool)
    for i, d in enumerate(odd[: max(0, (math.isqrt(n) - 1) // 2)].tolist()):
        if not composite[i]:
            composite[(d * d - 3) // 2 :: d] = True
    return odd[~composite]


def exponents_by_trial(n: int, odd: np.ndarray) -> list[int]:
    """Oracle: the prime exponents of n, dividing by 2 and, in increasing
    order, by each d in odd, the odd primes <= isqrt(n) or more, that
    divides n."""
    out = []
    for d in [2] + odd[n % odd == 0].tolist():
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append(e)
    return out + [1] if n > 1 else out


class TestMoebius:
    def test_small_values(self):
        mu = sieve_moebius(1, 10)
        assert [mu[n - 1] for n in (1, 2, 3, 4, 6)] == [1, -1, -1, 0, 1]

    def test_mertens_1e4_against_trial_factorization(self):
        mu = sieve_moebius(1, 10**4)
        oracle = sum(mu_by_trial_factorization(n) for n in range(1, 10**4 + 1))
        assert oracle == -23
        assert int(np.sum(mu, dtype=np.int64)) == -23

    def test_segment_matches_monolithic(self):
        lo, hi = 10**6, 10**6 + 10**4
        seg = sieve_moebius(lo, hi)
        mono = sieve_moebius(1, hi)
        assert np.array_equal(seg, mono[lo - 1 :])

    def test_random_windows_match(self, rng):
        for _ in range(5):
            lo = int(rng.integers(1, 10**5))
            hi = lo + int(rng.integers(0, 3000))
            seg = sieve_moebius(lo, hi)
            mono = sieve_moebius(1, hi)
            assert np.array_equal(seg, mono[lo - 1 :])

    def test_multiplicative_on_coprime_pairs(self, rng):
        # mu(m*n) evaluated from the merged factorizations (an independent
        # route for coprime m, n) must equal the sieved mu(m)*mu(n)
        lim = 10**4
        spf = np.zeros(lim + 1, dtype=np.int64)
        for p in range(2, lim + 1):
            if spf[p] == 0:
                spf[p::p][spf[p::p] == 0] = p
        small = sieve_moebius(1, lim)

        def exponents(n):
            out = []
            while n > 1:
                p = int(spf[n])
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append(e)
            return out

        count = 0
        while count < 10**4:
            m = int(rng.integers(1, lim + 1))
            n = int(rng.integers(1, lim + 1))
            if math.gcd(m, n) != 1:
                continue
            count += 1
            exps = exponents(m) + exponents(n)
            mu_prod = 0 if any(e > 1 for e in exps) else (-1) ** len(exps)
            assert mu_prod == small[m - 1] * small[n - 1]

    @pytest.mark.parametrize("hi", [1, 2, 3, 4])
    def test_first_windows_against_trial_factorization(self, hi):
        for lo in range(1, hi + 1):
            assert sieve_moebius(lo, hi).tolist() == [
                mu_by_trial_factorization(n) for n in range(lo, hi + 1)]

    def test_random_far_windows_against_trial_division(self, rng):
        odd = odd_primes_upto(10**7)
        for _ in range(4):
            hi = int(rng.integers(10**6, 10**14))
            lo = max(1, hi - 31)
            exps = [exponents_by_trial(n, odd) for n in range(lo, hi + 1)]
            want = [0 if max(es, default=0) > 1 else (-1) ** len(es) for es in exps]
            assert sieve_moebius(lo, hi).tolist() == want, (lo, hi)

    def test_memory_budget(self):
        with pytest.raises(MemoryBudgetExceeded):
            sieve_moebius(1, 10**7, memory_bytes=1024)


class TestKFreeSieve:
    def test_squarefree_first_ten(self):
        flags = sieve_kfree(2, 1, 10)
        got = {n for n in range(1, 11) if flags[n - 1]}
        assert got == {1, 2, 3, 5, 6, 7, 10}
        assert np.count_nonzero(flags) == 7

    def test_cubefree_first_ten(self):
        flags = sieve_kfree(3, 1, 10)
        assert {n for n in range(1, 11) if not flags[n - 1]} == {8}
        assert np.count_nonzero(flags) == 9

    def test_four_not_squarefree(self):
        assert not sieve_kfree(2, 1, 10)[4 - 1]

    def test_brute_force_window(self, rng):
        def kfree_brute(n, k):
            return all(n % (p**k) for p in range(2, int(n ** (1.0 / k)) + 2) if p**k <= n)

        for k in (2, 3, 4):
            lo = int(rng.integers(1, 10**4))
            flags = sieve_kfree(k, lo, lo + 500)
            for n in range(lo, lo + 501):
                assert flags[n - lo] == kfree_brute(n, k)


class TestFarWindows:
    # the fourth window holds 17 * 1000003**2, squared by a prime far above its
    # length; in the last three, primes above the length share one entry
    # (10007 is below the square root of the window end, 1000003 above it)
    @pytest.mark.parametrize("hi", [(1 << 40) - 3, (1 << 40) + 3, 1 << 44, 17 * 1000003**2 + 32,
                                    1 << 50, 101 * 103 * 10007 + 32, 101 * 103 * 1000003 + 32,
                                    101**2 * 103 * 107 + 32])
    def test_sieves_match_trial_division(self, hi):
        # 64 entries: most primes <= sqrt(hi), and every p**2, p**3 above 64,
        # hit at most one entry
        lo = hi - 63
        odd = odd_primes_upto(math.isqrt(hi))
        exps = [exponents_by_trial(n, odd) for n in range(lo, hi + 1)]
        mu = [0 if max(es, default=0) > 1 else (-1) ** len(es) for es in exps]
        assert sieve_moebius(lo, hi).tolist() == mu
        for k in (2, 3):
            assert sieve_kfree(k, lo, hi).tolist() == [max(es, default=0) < k for es in exps]

    def test_prime_table_counts_against_the_budget(self):
        lo, hi = 10**12, 10**12 + 99
        sieve_kfree(2, lo, hi, memory_bytes=100 + 10**6 + 1)
        with pytest.raises(MemoryBudgetExceeded, match=rf"window \[{lo},{hi}\] .* \(budget 1000100\)"):
            sieve_kfree(2, lo, hi, memory_bytes=100 + 10**6)
        sieve_moebius(lo, hi, memory_bytes=300 + 10**6 + 1)
        with pytest.raises(MemoryBudgetExceeded, match=r"budget 1000300"):
            sieve_moebius(lo, hi, memory_bytes=300 + 10**6)
        # near 2**62 the 2**31-byte prime table alone exceeds the default budget
        with pytest.raises(MemoryBudgetExceeded, match=r"primes up to 2147483648 \(budget 268435456\)"):
            sieve_kfree(2, (1 << 62) - 10, 1 << 62)

    def test_window_end_cap(self):
        with pytest.raises(ValueError, match=r"window end 4611686018427387905 exceeds 2\*\*62"):
            sieve_moebius((1 << 62) - 10, (1 << 62) + 1)


class TestGroupOffsets:
    def test_matches_nested_loop(self, rng):
        for counts in ([], [0], [3], [2, 0, 1, 4, 0], rng.integers(0, 6, size=50).tolist()):
            g, j = group_offsets(np.array(counts, dtype=np.int64))
            assert list(zip(g.tolist(), j.tolist())) == [
                (i, o) for i, c in enumerate(counts) for o in range(c)]


class TestCountKFree:
    def test_ten(self):
        count, main, err = count_kfree(10, 2)
        assert count == 7
        assert abs(main - 6.0793) < 1e-3

    def test_one(self):
        for k in (2, 3, 5):
            assert count_kfree(1, k)[0] == 1

    def test_million_both_methods_and_stored_value(self):
        assert count_kfree(10**6, 2)[0] == 607926
        assert np.count_nonzero(sieve_kfree(2, 1, 10**6)) == 607926

    def test_methods_agree_random(self, rng):
        for _ in range(12):
            x = int(rng.integers(1, 2 * 10**5 + 1))
            k = int(rng.integers(2, 7))
            want = np.count_nonzero(sieve_kfree(k, 1, x))
            assert count_kfree(x, k)[0] == count_kfree_moebius(x, k) == want, (x, k)

    def test_moebius_values_at_benchmark_sizes(self):
        assert count_kfree(10**12, 2)[0] == count_kfree_moebius(10**12, 2) == 607927102274
        assert count_kfree(10**15, 3)[0] == count_kfree_moebius(10**15, 3) == 831907372580692

    def test_pinned_values_to_1e16(self):
        # the windowed Moebius sum of every d <= x**(1/k) gave the same values
        assert count_kfree(10**13, 2)[0] == 6079271018294
        assert count_kfree(10**14, 2)[0] == 60792710185947
        assert count_kfree(10**16, 2)[0] == 6079271018540405

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_split_seams(self, k):
        # x = (D+1)**k * i + delta: n_i crosses D and I' = x // (D+1)**k steps;
        # D from its least value isqrt(iroot(x, k)) up to iroot(x, k)
        for D in (1, 2, 3, 7, 40):
            for i in list(range(1, 18)) + [2**k * 5, 3**k, 6**k]:
                for x in ((D + 1) ** k * i - 1, (D + 1) ** k * i, (D + 1) ** k * i + 1):
                    r = iroot(x, k)
                    if math.isqrt(r) <= D <= r:
                        assert kfree._count_split(x, k, D, kfree.DEFAULT_MEMORY_BYTES) == \
                            count_kfree_moebius(x, k), (x, D)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_no_large_d(self, k):
        # x < (D+1)**k: I' = 0 and the table's sum is the whole count
        for r in range(1, 30):
            for x in (r**k, (r + 1) ** k - 1):
                assert kfree._count_split(x, k, r, kfree.DEFAULT_MEMORY_BYTES) == \
                    count_kfree_moebius(x, k) == count_kfree(x, k)[0], (x, k)

    def test_moebius_matches_python_loop_near_guard(self):
        # chunked uint64 parts against the plain Python-int sum, over several
        # chunks of d and with quotients up to the 2**62 guard
        for x, k in ((2**62, 3), (2**62 - 1, 4), (10**11 + 3, 2)):
            mu = sieve_moebius(1, iroot(x, k))
            loop = sum(int(m) * (x // d**k) for d, m in enumerate(mu.tolist(), 1) if m)
            assert count_kfree(x, k)[0] == loop

    @pytest.mark.parametrize("k", [2, 3])
    def test_segments_of_three_d_against_trial_division(self, k, monkeypatch):
        monkeypatch.setattr(kfree, "MOEBIUS_SEGMENT", 3)
        kfree_upto = np.cumsum([all(n % p**k for p in range(2, iroot(n, k) + 1))
                                for n in range(1, 3001)])
        for x in list(range(1, 60)) + [1000, 2999, 3000]:
            assert count_kfree(x, k)[0] == kfree_upto[x - 1], x
        for x in (10**6 + 1, 10**8 - 1):  # with large d: I' > 0
            assert count_kfree(x, k)[0] == count_kfree_moebius(x, k), x

    def test_memory_bounded_by_one_segment(self, monkeypatch):
        # the least charge at x = 10**6, k = 2 is the split at D = 158 =
        # iroot(4 * 10**6, 3): an int32 table of M(0..158), the int64 M(n_i)
        # of the 39 i with n_i > 158 and index 0, and one window of 64 d at
        # 3 bytes with the 13 bytes of prime flags up to isqrt(158)
        monkeypatch.setattr(kfree, "MOEBIUS_SEGMENT", 64)
        need = 4 * 159 + 8 * 40 + 3 * 64 + 13
        assert count_kfree(10**6, 2, memory_bytes=need)[0] == 607926
        with pytest.raises(MemoryBudgetExceeded,
                           match=rf"needs {need} bytes for a Mertens table up to D=158, 39 values"):
            count_kfree(10**6, 2, memory_bytes=need - 1)

    def test_error_scaling_constant(self):
        # |count - x/zeta(k)| / x^(1/k) stays below 2 on the decade grid
        for k in (2, 3):
            for x in (10**4, 10**5, 10**6, 10**7):
                _, _, err = count_kfree(x, k)
                assert abs(err) / x ** (1.0 / k) <= 2.0


class TestZeta:
    def test_basel(self):
        assert abs(zeta(2) - math.pi**2 / 6) < 1e-12

    def test_aperys_constant_vs_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        assert abs(zeta(3) - float(mp.zeta(3))) < 1e-12
        assert abs(zeta(3) - 1.202056903159594) < 1e-12

    def test_correctly_rounded_vs_mpmath(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for k in range(2, 31):
                assert zeta(k) == float(mp.zeta(k)), k

    def test_large_k_tail(self):
        assert 1.0 < zeta(20) < 1.0 + 2.0**-19

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            zeta(1)


class TestIroot:
    def test_exact_powers(self):
        for k in (2, 3, 4, 7):
            for r in (1, 2, 3, 10, 99):
                assert iroot(r**k, k) == r
                assert iroot(r**k - 1, k) == r - 1


class TestFloorSum:
    @given(
        n=st.integers(min_value=0, max_value=40),
        m=st.integers(min_value=1, max_value=60),
        a=st.integers(min_value=-10**6, max_value=10**6),
        b=st.integers(min_value=-10**6, max_value=10**6),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_brute_force(self, n, m, a, b):
        assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))

    def test_big_operands(self):
        m, a, b = 3**120 + 1, 2**190 + 12345, -(5**80)
        assert floor_sum(500, m, a, b) == sum((a * i + b) // m for i in range(500))

    def test_empty_and_invalid(self):
        assert floor_sum(0, 7, -3, -11) == 0
        with pytest.raises(ValueError):
            floor_sum(-1, 7, 1, 0)
        with pytest.raises(ValueError):
            floor_sum(3, 0, 1, 0)


@st.composite
def lanes(draw):
    """One floor_sum_lanes lane (n, m, a, b) with m*(n + 1) <= 2**64 and a
    sum below 2**64, a and b up to 3m (so b >= m is drawn), n often 0 or 1."""
    m = draw(st.integers(1, 1 << draw(st.integers(0, 63))))
    n_top = (1 << 64) // m - 1
    n = draw(st.one_of(st.sampled_from([0, 1, n_top]), st.integers(0, n_top)))
    a, b = (draw(st.integers(0, min(3 * m, (1 << 64) - 1))) for _ in "ab")
    assume(floor_sum(n, m, a, b) < 1 << 64)
    return n, m, a, b


class TestFloorSumLanes:
    """The lockstep uint64 kernel against floor_sum over its whole domain."""

    @given(st.lists(lanes(), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_each_lane_is_floor_sum(self, lanes):
        cols = [np.array([lane[i] for lane in lanes], dtype=np.uint64) for i in range(4)]
        assert floor_sum_lanes(*cols).tolist() == [floor_sum(*lane) for lane in lanes]

    def test_the_domain_edges(self):
        # m*(n + 1) = 2**64 with a, b at and above m, all zero, and m = 1
        top = (1 << 64) - 1
        cases = [(1 << 31, 1 << 32, 0, 0), ((1 << 31) - 1, 1 << 33, (1 << 33) - 1, (1 << 33) - 1),
                 (top, 1, 0, 0), (0, 1 << 63, top, top), (1, 1 << 63, top, top),
                 ((1 << 32) - 1, 1 << 32, (1 << 32) - 1, 2 * (1 << 32) - 1)]
        cols = [np.array([c[i] for c in cases], dtype=np.uint64) for i in range(4)]
        assert floor_sum_lanes(*cols).tolist() == [floor_sum(*c) for c in cases]
