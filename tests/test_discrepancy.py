import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beatty_kfree import discrepancy
from beatty_kfree.cfrac import PHI, SQRT2, parse_irrational, to_fixed
from beatty_kfree.discrepancy import (
    PointSet,
    _endpoint_arrays,
    build_pointset,
    decay_fit,
    extreme_discrepancy,
    extreme_discrepancy_oracle,
)
from beatty_kfree.errors import PrecisionExhausted
from beatty_kfree.fixed import DEFAULT_BITS, TILE, FixedReal, frac_vector

unit_floats = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@st.composite
def multisets(draw):
    """Points in [0, 1) with repeated values and extra zeros, in random order."""
    base = draw(st.lists(unit_floats, min_size=1, max_size=30))
    repeats = draw(st.lists(st.sampled_from(base), max_size=30))
    zeros = draw(st.integers(min_value=0, max_value=3))
    return np.array(draw(st.permutations(base + repeats + [0.0] * zeros)))


def star_by_index(points: np.ndarray) -> float:
    xs = np.sort(points)
    M = len(xs)
    i = np.arange(1, M + 1, dtype=np.float64)
    return float(np.max(np.maximum(i / M - xs, xs - (i - 1) / M)))


@settings(max_examples=300, deadline=None)
@given(multisets())
@example(np.array([0.5]))
@example(np.array([0.0]))
@example(np.full(7, 0.25))
@example(np.zeros(5))
@example(np.array([0.0, 0.0, 0.5, 0.5, 0.5, np.nextafter(1.0, 0.0)]))
def test_scan_matches_oracle_and_star_by_index(points):
    res = extreme_discrepancy(PointSet(points, len(points)))
    assert res.extreme == extreme_discrepancy_oracle(points)
    assert res.star == star_by_index(points)
    c, d = res.witness_interval
    assert 0.0 <= c <= d <= 1.0


@settings(max_examples=300, deadline=None)
@given(multisets())
@example(np.array([0.5]))
@example(np.zeros(5))
@example(np.array([0.0, 0.0, 0.5, 0.5, 0.5, np.nextafter(1.0, 0.0)]))
def test_the_witness_attains_the_extreme(points):
    """Closed [c, d] scores a surplus, open (c, d) a deficit; the better of the
    two, in exact rationals, is the extreme up to its five float roundings
    (fl(i/M) twice, two differences and their difference, each <= 2**-54)."""
    M = len(points)
    res = extreme_discrepancy(PointSet(points, M))
    c, d = res.witness_interval
    closed = int(np.count_nonzero((c <= points) & (points <= d)))
    opened = int(np.count_nonzero((c < points) & (points < d)))
    length = Fraction(d) - Fraction(c)
    best = max(abs(Fraction(closed, M) - length), abs(Fraction(opened, M) - length))
    assert abs(Fraction(res.extreme) - best) <= 5 * Fraction(1, 1 << 54)


@settings(max_examples=200, deadline=None)
@given(multisets())
def test_ranks_are_the_searchsorted_ranks(points):
    xs = np.sort(points)
    M = len(xs)
    u, lr_m, ur_m, *_ = _endpoint_arrays(xs, M)
    assert np.array_equal(u, np.unique(np.concatenate(([0.0, 1.0], xs))))
    assert np.array_equal(lr_m, np.searchsorted(xs, u, side="left") / M)
    assert np.array_equal(ur_m, np.searchsorted(xs, u, side="right") / M)


def test_decay_fit_rows_are_the_prefix_scans():
    grid = [1 << e for e in range(10, 15)]
    slope, per_M = decay_fit(PHI, 0, grid)
    assert [row[0] for row in per_M] == grid
    for M, extreme, star in per_M:
        res = extreme_discrepancy(build_pointset(PHI, 0, M))
        assert (extreme, star) == (res.extreme, res.star)
    logs = np.log([[M, extreme] for M, extreme, _ in per_M])
    assert slope == float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    assert -1.2 < slope < -0.8


def test_decay_fit_has_no_slope_below_two_sizes():
    slope, per_M = decay_fit(PHI, 0, [5000])
    res = extreme_discrepancy(build_pointset(PHI, 0, 5000))
    assert math.isnan(slope)
    assert per_M == [(5000, res.extreme, res.star)]
    slope, per_M = decay_fit(PHI, 0, [])
    assert math.isnan(slope) and per_M == []


@pytest.mark.parametrize("points, M", [
    (np.array([0.1, 0.2]), 3),
    (np.array([0.1, 0.2]), 1),
    (np.array([]), 0),
])
def test_pointset_rejects_a_wrong_M(points, M):
    with pytest.raises(ValueError, match="M must equal"):
        PointSet(points, M)


@pytest.mark.parametrize("bad", [-0.25, 1.0, 1.5, math.nan])
def test_pointset_rejects_points_outside_the_unit_interval(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        PointSet(np.array([0.5, bad]), 2)


@pytest.mark.parametrize("tile", [7, 1000, TILE])
def test_tiles_change_no_point_and_no_scan(monkeypatch, tile):
    M = 3 * tile + 5
    a = to_fixed(SQRT2, DEFAULT_BITS).mantissa
    b = FixedReal.from_fraction(Fraction(1, 2), DEFAULT_BITS).mantissa
    whole = frac_vector(a, DEFAULT_BITS, np.arange(1, M + 1, dtype=np.uint64), b)
    want = extreme_discrepancy(PointSet(whole, M))
    monkeypatch.setattr(discrepancy, "TILE", tile)
    ps = build_pointset(SQRT2, "1/2", M)
    assert np.array_equal(ps.points, whole)
    assert extreme_discrepancy(ps) == want


@pytest.mark.parametrize("tile", [7, 1000, TILE])
def test_tied_extremes_in_two_tiles_keep_the_first(monkeypatch, tile):
    # dyadic points: pf = (i+1)/M - x_i and pg = i/M - x_i are exact, and pf
    # peaks (pg bottoms out) at two indices that lie in different tiles
    monkeypatch.setattr(discrepancy, "TILE", tile)
    M = 1 << 12
    offs = np.full(M, 0.75)
    offs[[1500, 3500]] = 0.5
    offs[[1200, 3900]] = 0.875
    xs = (np.arange(M) + offs) / M
    res = extreme_discrepancy(PointSet(xs, M))
    assert res.extreme == 1.375 / M
    assert res.star == 0.875 / M
    assert res.witness_interval == (xs[1200], xs[1500])


PI_100 = "dec:3.14159265358979323846264338327950288419716939937510582097494459:100"
EXHAUSTED = r"M={M} for alpha={spec}: alpha\*M \+ beta is certified within"


class Built(Exception):
    """Raised by a patched np.empty: the check let build_pointset allocate."""


def built(*args):
    raise Built


@pytest.mark.parametrize("spec, M", [("dec:3.14159:20", 1), ("cf:3,7,15,1", 1), (PI_100, 2**46)])
def test_pointset_past_alphas_certified_error_raises_before_any_array(spec, M, monkeypatch):
    monkeypatch.setattr(discrepancy.np, "empty", built)
    with pytest.raises(PrecisionExhausted, match=EXHAUSTED.format(M=M, spec=re.escape(spec))):
        build_pointset(parse_irrational(spec), 0, M)


@pytest.mark.parametrize("alpha, limit", [(parse_irrational(PI_100), 2**46 - 1), (PHI, 2**137)])
def test_pointset_check_sits_at_alphas_own_error(alpha, limit, monkeypatch):
    # limit = 2**138 // err_ulps at DEFAULT_BITS: pi to 100 bits is within
    # 2**-100, just over 2**92 ulps; phi within 2 ulps; beta = 0 adds no error
    monkeypatch.setattr(discrepancy.np, "empty", built)
    with pytest.raises(Built):
        build_pointset(alpha, 0, limit)
    with pytest.raises(PrecisionExhausted):
        build_pointset(alpha, 0, limit + 1)


def test_pointset_of_phi_passes_at_2_to_the_22():
    assert build_pointset(PHI, 0, 1 << 22).M == 1 << 22
