import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colombeau.expr import special
from colombeau.expr.special import (
    bump_deriv_values,
    bump_poly,
    cutoff_deriv_values,
)

# sup-norms of the first bump derivatives on [-1, 1], dense-grid values kept
# as regression anchors (the recurrence blows up combinatorially and a silent
# coefficient bug shows up here immediately).
_BUMP_SUPS = {
    0: 0.36787944117144233,
    1: 0.7984297518263204,
    2: 7.749704932349374,
    3: 186.3999212199807,
    4: 8315.88999556465,
}


def test_bump_values():
    assert bump_deriv_values(0, np.array([0.0]))[0] == pytest.approx(math.exp(-1.0))
    # compactly supported: exactly zero on and outside the boundary
    vals = bump_deriv_values(0, np.array([1.0, -1.0, 1.5, -3.0]))
    assert np.all(vals == 0.0)
    for k in range(1, 6):
        assert np.all(bump_deriv_values(k, np.array([1.0, 2.0, -1.0])) == 0.0)


def test_bump_polynomials_small_orders():
    np.testing.assert_array_equal(bump_poly((0,)), [1.0])
    np.testing.assert_array_equal(bump_poly((1,)), [0.0, -2.0])
    np.testing.assert_array_equal(bump_poly((2,)), [-2.0, 0.0, 0.0, 0.0, 6.0])
    np.testing.assert_array_equal(
        bump_poly((3,)), [0.0, -12.0, 0.0, 40.0, 0.0, -12.0, 0.0, -24.0]
    )


def test_bump_derivative_parity():
    t = np.linspace(0.05, 0.95, 19)
    for k in range(5):
        left = bump_deriv_values(k, -t)
        right = bump_deriv_values(k, t)
        sign = -1.0 if k % 2 else 1.0
        np.testing.assert_allclose(left, sign * right, rtol=1e-13)


def _stencil(f, t, h):
    return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12 * h)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_bump_recurrence_matches_finite_differences(order):
    t = np.linspace(-0.9, 0.9, 37)
    f = lambda s: bump_deriv_values(order - 1, s)
    est = _stencil(f, t, 1e-5)
    got = bump_deriv_values(order, t)
    scale = np.abs(got) + np.abs(est) + 1.0
    assert np.max(np.abs(got - est) / scale) < 1e-7


def test_bump_sup_norm_regression():
    t = np.linspace(-1, 1, 400001)
    for k, expected in _BUMP_SUPS.items():
        sup = float(np.max(np.abs(bump_deriv_values(k, t))))
        assert sup == pytest.approx(expected, rel=1e-9)


def test_high_order_relative_accuracy():
    # absolute errors at order 6-7 reach O(1) because the sup norm is ~1e8,
    # so the meaningful check is relative to the local magnitude
    t = np.linspace(-0.85, 0.85, 29)
    for order in (6, 7):
        f = lambda s: bump_deriv_values(order - 1, s)
        est = _stencil(f, t, 1e-5)
        got = bump_deriv_values(order, t)
        sup = np.max(np.abs(got))
        assert np.max(np.abs(got - est)) / sup < 1e-6


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------


def test_cutoff_plateau_and_support():
    vals = cutoff_deriv_values(0, np.array([0.0, 0.5, -1.0, 1.0]))
    assert np.all(vals == 1.0)
    vals = cutoff_deriv_values(0, np.array([2.0, -2.0, 5.0]))
    assert np.all(vals == 0.0)
    # by symmetry of the partition the midpoint value is exactly 1/2
    assert cutoff_deriv_values(0, np.array([1.5]))[0] == pytest.approx(0.5)
    assert cutoff_deriv_values(0, np.array([-1.5]))[0] == pytest.approx(0.5)
    # a scalar gives a 0-d array, on the plateau, in the band and outside
    for t, want in ((0.5, 1.0), (1.5, 0.5), (3.0, 0.0)):
        v = cutoff_deriv_values(0, t)
        assert v.shape == () and v == pytest.approx(want)
    for k in range(1, 5):
        v = cutoff_deriv_values(k, 1.5)
        assert v.shape == () and v == cutoff_deriv_values(k, np.array([1.5]))[0]


def test_cutoff_derivatives_vanish_off_band():
    pts = np.array([0.0, 0.5, 1.0, 2.0, 3.0, -0.7, -2.5])
    for k in range(1, 6):
        assert np.all(cutoff_deriv_values(k, pts) == 0.0)


def test_cutoff_monotone_on_band():
    # strictly decreasing where the transition has measurable slope; near the
    # seams consecutive double values can tie, so only non-increase is asserted
    s = np.linspace(1.001, 1.999, 200)
    vals = cutoff_deriv_values(0, s)
    assert np.all(np.diff(vals) <= 1.2e-16)
    assert np.all((vals >= 0) & (vals <= 1))
    core = cutoff_deriv_values(0, np.linspace(1.2, 1.8, 61))
    assert np.all(np.diff(core) < 0)
    assert np.all((core > 0) & (core < 1))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_cutoff_jets_match_finite_differences(order):
    t = np.linspace(1.05, 1.95, 31)
    f = lambda s: cutoff_deriv_values(order - 1, s)
    est = _stencil(f, t, 1e-5)
    got = cutoff_deriv_values(order, t)
    scale = np.abs(got) + np.abs(est) + 1.0
    assert np.max(np.abs(got - est) / scale) < 1e-7


def test_cutoff_odd_orders_flip_sign():
    t = np.linspace(1.1, 1.9, 9)
    for k in (1, 2, 3):
        left = cutoff_deriv_values(k, -t)
        right = cutoff_deriv_values(k, t)
        sign = -1.0 if k % 2 else 1.0
        np.testing.assert_allclose(left, sign * right, rtol=1e-12)


def test_cutoff_flat_near_seams():
    # every derivative decays to 0 approaching both edges of the band
    for k in (1, 2, 3, 4):
        near = cutoff_deriv_values(k, np.array([1.0 + 1e-4, 2.0 - 1e-4]))
        assert np.max(np.abs(near)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
def test_cutoff_range(t):
    v = cutoff_deriv_values(0, np.array([t]))[0]
    assert 0.0 <= v <= 1.0



def _cutoff_points():
    seams = np.array([1.0, 2.0])
    edges = np.concatenate([seams, np.nextafter(seams, 0.0), np.nextafter(seams, np.inf)])
    special_values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    rng = np.random.default_rng(7)
    return np.concatenate([edges, -edges, special_values, rng.uniform(-3.0, 3.0, 400)])


def _same_bits(got, want):
    return (got.shape == want.shape
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def test_cutoff_closed_form_matches_the_order_zero_jet_bit_for_bit():
    for t in (_cutoff_points(), np.linspace(-1.0, 1.0, 9), np.array([-0.0, 0.0]),
              np.array([2.0, -2.0, 7.5, np.inf, -np.inf]), np.array([np.nan]),
              np.array([])):
        s = np.abs(t)
        band = (s > 1.0) & (s < 2.0)
        want = np.where(s <= 1.0, 1.0, 0.0)  # nan falls in neither region
        if band.any():
            want[band] = special._cutoff_band_jets(s[band], 0)[0]
        assert _same_bits(cutoff_deriv_values(0, t), want), t


def _cutoff_values_gathered(s):
    # the closed form as it was, on the band points gathered by a mask
    if s.size and s.max() <= 1.0:
        return np.ones_like(s)
    if s.size and s.min() >= 2.0:
        return np.zeros_like(s)
    out = np.where(s <= 1.0, 1.0, 0.0)
    band = (s > 1.0) & (s < 2.0)
    if np.any(band):
        sb = s[band]
        hi = np.exp(-(1.0 / (2.0 - sb)))
        lo = np.exp(-(1.0 / (sb - 1.0)))
        out[band] = hi * (1.0 / (hi + lo))
    return out


def test_cutoff_closed_form_without_gathers_keeps_every_bit():
    rng = np.random.default_rng(11)
    seams = np.array([1.0, 2.0])
    # within 1e-3 of a seam exp(-1/(s-1)) or exp(-1/(2-s)) underflows
    near = np.concatenate([seams + d for d in (-1e-3, -1e-4, -1e-9, 1e-9, 1e-4, 1e-3)])
    cases = [
        np.float64(1.5), np.float64(0.5), np.float64(3.0), np.float64(np.nan),  # 0-d
        np.array([]), np.array([np.nan]), np.array([np.inf]), np.array([np.nan, 1.5, np.inf]),
        np.concatenate([seams, np.nextafter(seams, 0.0), np.nextafter(seams, np.inf)]),
        near, rng.permutation(np.concatenate([near, rng.uniform(0.0, 3.0, 200)])),
        np.array([0.5, 0.7, 1.5, 0.2, 2.5]),  # one band point amid plateau and outside points
        rng.uniform(0.0, 3.0, (7, 9)),
        rng.uniform(0.0, 3.0, 3 * special._SPAN + 5),  # a span of several pieces
    ]
    for s in cases:
        s = np.abs(np.asarray(s, dtype=float))
        got = special._cutoff_values(s)
        assert isinstance(got, np.ndarray) and _same_bits(got, _cutoff_values_gathered(s)), s


# the jet helpers as they were when each coefficient had its own fresh
# accumulator; the in-place helpers must give the same bits
def _recip_fresh(a):
    r = np.zeros_like(a)
    r[0] = 1.0 / a[0]
    for k in range(1, a.shape[0]):
        acc = np.zeros_like(a[0])
        for j in range(1, k + 1):
            acc += a[j] * r[k - j]
        r[k] = -acc * r[0]
    return r


def _exp_fresh(a):
    e = np.zeros_like(a)
    e[0] = np.exp(a[0])
    for k in range(1, a.shape[0]):
        acc = np.zeros_like(a[0])
        for j in range(1, k + 1):
            acc += j * a[j] * e[k - j]
        e[k] = acc / k
    return e


def _mul_fresh(a, b):
    c = np.zeros_like(a)
    for k in range(a.shape[0]):
        acc = np.zeros_like(a[0])
        for j in range(k + 1):
            acc += a[j] * b[k - j]
        c[k] = acc
    return c


def test_jet_helpers_match_fresh_accumulators_bit_for_bit():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(10, 64))
    b = rng.normal(size=(10, 64))
    a[rng.random(a.shape) < 0.3] = 0.0
    b[rng.random(b.shape) < 0.3] = -0.0
    a[0] = np.where(a[0] == 0.0, 0.5, a[0])
    for K in range(10):
        x, y = a[: K + 1], b[: K + 1]
        assert _same_bits(special._jet_recip(x), _recip_fresh(x)), K
        assert _same_bits(special._jet_exp(x), _exp_fresh(x)), K
        assert _same_bits(special._jet_mul(x, y), _mul_fresh(x, y)), K
        # a reused buffer's old contents (here -0.0 and nan) leave no trace
        for helper, fresh, args in ((special._jet_recip, _recip_fresh, (x,)),
                                    (special._jet_exp, _exp_fresh, (x,)),
                                    (special._jet_mul, _mul_fresh, (x, y))):
            out = np.where(rng.random(x.shape) < 0.5, -0.0, np.nan)
            assert helper(*args, out=out) is out
            assert _same_bits(out, fresh(*args)), (helper.__name__, K)


def _into_out(fresh):
    # a fresh-accumulator helper that writes into the caller's buffer, as
    # the in-place helpers do when the build hands them one
    def helper(*args, out=None):
        r = fresh(*args)
        if out is None:
            return r
        out[...] = r
        return out

    return helper


def test_cutoff_derivatives_match_fresh_accumulators_bit_for_bit(monkeypatch):
    t = _cutoff_points()
    got = {order: cutoff_deriv_values(order, t) for order in range(1, 10)}
    monkeypatch.setattr(special, "_jet_recip", _into_out(_recip_fresh))
    monkeypatch.setattr(special, "_jet_exp", _into_out(_exp_fresh))
    monkeypatch.setattr(special, "_jet_mul", _into_out(_mul_fresh))
    for order in range(1, 10):
        assert _same_bits(got[order], cutoff_deriv_values(order, t)), order


def test_a_jet_build_holds_at_most_five_series():
    # order 6 on 20 000 band points: a series is 7 rows of them.  The build
    # keeps three series-sized buffers; the input, the band's points and the
    # result add about half a series more
    t = np.linspace(1.01, 1.99, 20_000)
    cutoff_deriv_values(6, t)
    tracemalloc.start()
    cutoff_deriv_values(6, t)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 5 * 7 * 20_000 * 8, peak / (7 * 20_000 * 8)
