import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colombeau.scale import (
    DEFAULT_WINDOW,
    EpsGrid,
    PowerScale,
    ScaleError,
    ValuationEstimate,
    default_grid,
    estimate_valuation,
    sample,
    scale_add,
    scale_mul,
    sharp_norm,
    valuation_exact,
)


def ps(*terms):
    return PowerScale.of_terms([(c, Fraction(q)) for c, q in terms])


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_of_terms_canonicalises():
    z = ps((3.0, 2), (3.0, 0), (-1.0, 2))
    assert z.terms == ((3.0, Fraction(0)), (2.0, Fraction(2)))
    assert ps((1.0, 1), (-1.0, 1)).is_zero


def test_constructor_validates():
    with pytest.raises(ScaleError):
        PowerScale(((0.0, Fraction(1)),))
    with pytest.raises(ScaleError):
        PowerScale(((1.0, Fraction(2)), (1.0, Fraction(1))))
    with pytest.raises(ScaleError):
        PowerScale(((1.0, Fraction(1)), (2.0, Fraction(1))))


def test_valuation_and_norm():
    assert valuation_exact(ps((2.0, "-3/2"), (1.0, 4))) == Fraction(-3, 2)
    assert valuation_exact(PowerScale()) == math.inf
    assert sharp_norm(PowerScale()) == 0.0
    assert sharp_norm(ps((5.0, 2))) == pytest.approx(math.exp(-2.0))


coef = st.floats(min_value=0.25, max_value=4.0).flatmap(
    lambda m: st.sampled_from([m, -m])
)
expo = st.fractions(min_value=-6, max_value=6, max_denominator=4)
scales = st.lists(st.tuples(coef, expo), min_size=1, max_size=4).map(
    PowerScale.of_terms
)


@settings(max_examples=80, deadline=None)
@given(scales, scales)
def test_valuation_multiplicative(a, b):
    v = valuation_exact(scale_mul(a, b))
    if a.is_zero or b.is_zero:
        assert v == math.inf
    else:
        # the minimal cross exponent is achieved only by the product of the
        # two leading terms, so no cancellation can remove it
        assert v == valuation_exact(a) + valuation_exact(b)


@settings(max_examples=80, deadline=None)
@given(scales, scales)
def test_valuation_ultrametric(a, b):
    va, vb = valuation_exact(a), valuation_exact(b)
    vs = valuation_exact(scale_add(a, b))
    assert vs >= min(va, vb)
    if va != vb:
        assert vs == min(va, vb)
    assert sharp_norm(scale_add(a, b)) <= max(sharp_norm(a), sharp_norm(b)) + 1e-15


@settings(max_examples=50, deadline=None)
@given(scales)
def test_add_inverse_is_zero(a):
    neg = PowerScale.of_terms([(-c, q) for c, q in a.terms])
    assert scale_add(a, neg).is_zero


# ---------------------------------------------------------------------------
# grids and sampling
# ---------------------------------------------------------------------------


def test_grid_points_decreasing():
    g = EpsGrid(0.5, 0.8, 6)
    pts = g.points
    assert len(pts) == 6
    assert pts[0] == 0.5
    assert all(b < a for a, b in zip(pts, pts[1:]))
    assert pts[5] == pytest.approx(0.5 * 0.8**5)


def test_grid_validation():
    with pytest.raises(ScaleError):
        EpsGrid(eps0=1.0)
    with pytest.raises(ScaleError):
        EpsGrid(ratio=0.0)
    with pytest.raises(ScaleError):
        EpsGrid(count=0)
    for count in (2.5, 2.0, True):  # True would build a 1-point grid
        with pytest.raises(ScaleError):
            EpsGrid(count=count)


def test_default_grid():
    g = default_grid()
    assert g.count == 20 and g.eps0 == 0.5 and g.ratio == 0.5


def test_sample_values():
    z = ps((3.0, 2))
    got = sample(z, EpsGrid(0.5, 0.5, 4))
    for eps, v in got:
        assert v == pytest.approx(3.0 * eps**2)


def test_sample_overflow_reported_as_inf():
    z = ps((1.0, -300))
    vals = [v for _, v in sample(z, default_grid())]
    assert math.isinf(vals[-1])


# ---------------------------------------------------------------------------
# valuation estimation
# ---------------------------------------------------------------------------


def test_estimate_exact_helper():
    est = ValuationEstimate.exact(Fraction(-3, 2))
    assert est.value == -1.5 and est.method == "exact" and est.stable


@pytest.mark.parametrize("q", [Fraction(-2), Fraction(0), Fraction(5, 2)])
def test_single_term_fit_recovers_exponent(q):
    z = ps((1.7, q))
    est = estimate_valuation(sample(z, default_grid()))
    assert est.method == "fitted"
    assert est.value == pytest.approx(float(q), abs=1e-9)
    assert est.residual < 1e-9
    assert est.stable


def test_two_term_fit_converges_to_leading_exponent():
    z = ps((1.0, -1), (50.0, 1))
    est = estimate_valuation(sample(z, default_grid()))
    assert est.value == pytest.approx(-1.0, abs=0.01)
    assert est.stable


def test_negligible_floor_reports_infinite_valuation():
    z = ps((1.0, 150))
    est = estimate_valuation(sample(z, default_grid()))
    assert est.value == math.inf
    assert est.method == "negligible-floor"
    assert est.stable


def test_zero_net_is_negligible():
    est = estimate_valuation(sample(PowerScale(), default_grid()))
    assert est.value == math.inf and est.method == "negligible-floor"


def test_log_values_mode():
    pts = default_grid().points
    samples = [(e, -2.0 * math.log(e) + 0.3) for e in pts]
    est = estimate_valuation(samples, log_values=True)
    assert est.value == pytest.approx(-2.0, abs=1e-9)


def test_unstable_fit_flagged():
    pts = default_grid().points
    samples = [
        (e, (1.9 if j % 2 == 0 else 0.1) * e**2) for j, e in enumerate(pts)
    ]
    est = estimate_valuation(samples)
    assert not est.stable
    assert est.residual > 0.25


def test_estimate_validation_errors():
    g = EpsGrid(0.5, 0.5, 5)
    with pytest.raises(ScaleError):
        estimate_valuation(sample(ps((1.0, 1)), g))  # fewer than window samples
    pts = default_grid().points
    good = [(e, e) for e in pts]
    with pytest.raises(ScaleError):
        estimate_valuation(good, window=2)
    with pytest.raises(ScaleError):
        estimate_valuation(list(reversed(good)))
    # non-finite samples are unusable, and too few usable ones is an error
    mostly_inf = [(e, math.inf) for e in pts[:-4]] + [(e, e) for e in pts[-4:]]
    with pytest.raises(ScaleError):
        estimate_valuation(mostly_inf)


def test_window_uses_smallest_eps_tail():
    # a late crossover is only visible if the fit window sits at the tail
    z = ps((1.0, 3), (1e-4, 1))
    est = estimate_valuation(sample(z, default_grid()), window=DEFAULT_WINDOW)
    assert est.window[1] == 20
    assert est.value == pytest.approx(1.0, abs=0.05)
