import json
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colombeau.catalog import catalog_net, catalog_oracle
from colombeau.expr import Bump, Cutoff, ExpressionError, IntPow, Var, differentiate, parse, to_text
from colombeau.mollify import (
    PsiRouteNet,
    build_mollifier,
    class_A_membership,
    convergence_experiment,
    mollify,
    regular_bound_experiment,
)
from colombeau.nets import CompactBox, ExpressionNet, NetError, Sampling, seminorm
from colombeau.regularity import RegularityError, psequence
from colombeau.scale import (
    DEFAULT_WINDOW,
    EpsGrid,
    PowerScale,
    ScaleError,
    ValuationEstimate,
    as_index,
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


# ---------------------------------------------------------------------------
# integer arguments
# ---------------------------------------------------------------------------

_K01 = CompactBox.interval(0.0, 1.0)
_SMALL = Sampling(5, 5)


def _sin():
    return ExpressionNet(1, parse("sin(x1)"))


def _seminorm_orders(k):
    net = _sin()
    seminorm(net, k, _K01, 0.5, _SMALL)
    (orders,) = vars(net)["_seminorm_values"].values()
    return list(orders)


_LINE = [(e, e**2) for e in default_grid().points]
_PTS = np.linspace(-0.9, 0.9, 7)[None, :]

# (entry point, a JSON document of what it keeps for v, its error, an integer
# it takes); each document holds the int the entry point stored
INTEGER_ENTRY_POINTS = [
    ("EpsGrid.count", lambda v: asdict(EpsGrid(count=v)), ScaleError, 12),
    ("Sampling.base_points", lambda v: asdict(Sampling(base_points=v)), NetError, 5),
    ("Sampling.cap_points", lambda v: asdict(Sampling(cap_points=v)), NetError, 40),
    ("FunctionNet.dimension", lambda v: ExpressionNet(v, parse("x1")).describe(), NetError, 2),
    ("seminorm.k", _seminorm_orders, NetError, 2),
    ("psequence.k_max",
     lambda v: psequence(_sin(), _K01, EpsGrid(count=8), _SMALL, v).k_max, RegularityError, 2),
    ("estimate_valuation.window", lambda v: asdict(estimate_valuation(_LINE, v)), ScaleError, 5),
    ("build_mollifier.d", lambda v: build_mollifier(v, 16).dimension, NetError, 2),
    ("build_mollifier.Q",
     lambda v: mollify(_sin(), 1, build_mollifier(1, v)).describe(), NetError, 20),
    ("MollifiedNet.n", lambda v: mollify(_sin(), v).describe(), NetError, 2),
    ("class_A_membership.N",
     lambda v: class_A_membership(_sin(), v, [_K01], 0, EpsGrid(count=8), _SMALL).N, NetError, 3),
    ("catalog._resolve", lambda v: catalog_net("multiscale", v).describe(), NetError, 3),
    ("catalog_oracle.k", lambda v: str(catalog_oracle("osc", v)), NetError, 2),
    ("parse.dimension", lambda v: to_text(parse("x1", v)), ExpressionError, 1),
    ("differentiate.var_index",
     lambda v: to_text(differentiate(parse("x1*x2^2", 2), v)), ExpressionError, 1),
    ("Var.index", lambda v: to_text(Var(v)), ExpressionError, 1),
    ("IntPow.exponent", lambda v: to_text(IntPow(Var(0), v)), ExpressionError, 3),
    ("Bump.order", lambda v: to_text(Bump(Var(0), v)), ExpressionError, 2),
    ("Cutoff.order", lambda v: to_text(Cutoff(Var(0), v)), ExpressionError, 2),
    ("derivative_eval.alpha",
     lambda v: _sin().derivative_eval((v,), [0.3], 0.5), NetError, 1),
    ("derivative_expr.alpha", lambda v: to_text(_sin().derivative_expr((v,))), NetError, 1),
    ("psi_deriv.alpha", lambda v: build_mollifier(1, 16).psi_deriv((v,), _PTS).tolist(), NetError, 2),
    ("PsiRouteNet.derivative_batch.alpha",
     lambda v: PsiRouteNet(_sin(), 1, build_mollifier(1, 16)).derivative_batch((v,), _PTS, 0.5).tolist(),
     NetError, 1),
    ("MollifiedNet.derivative_eval.alpha",
     lambda v: mollify(_sin(), 1).derivative_eval((v,), [0.3], 0.5), NetError, 1),
    ("convergence_experiment.k", lambda v: convergence_experiment(
        catalog_net("one"), _K01, v, (1, 2), EpsGrid(count=8), _SMALL).to_json_dict(), NetError, 1),
    ("convergence_experiment.n_list", lambda v: convergence_experiment(
        catalog_net("one"), _K01, 0, (v,), EpsGrid(count=8), _SMALL).to_json_dict(), NetError, 2),
    ("regular_bound_experiment.k", lambda v: asdict(regular_bound_experiment(
        catalog_net("compact_osc"), _K01, v, 1, EpsGrid(count=6), _SMALL)), NetError, 2),
    ("regular_bound_experiment.n", lambda v: asdict(regular_bound_experiment(
        catalog_net("compact_osc"), _K01, 1, v, EpsGrid(count=6), _SMALL)), NetError, 2),
]


@pytest.mark.parametrize("keep, error, good", [c[1:] for c in INTEGER_ENTRY_POINTS],
                         ids=[c[0] for c in INTEGER_ENTRY_POINTS])
def test_integer_entry_points_keep_ints_and_refuse_the_rest(keep, error, good):
    want = json.dumps(keep(good), sort_keys=True)
    # a numpy integer is kept as the int it stands for, so the document dumps
    assert json.dumps(keep(np.int64(good)), sort_keys=True) == want
    # a bool, an integral float and a fraction are refused with the entry
    # point's own error: no TypeError, and no truncation to a nearby integer
    for bad in (True, float(good), good + 0.5):
        with pytest.raises(error, match="must be an integer"):
            keep(bad)


def test_integer_probes_the_parent_let_through():
    # each of these ran with a truncated or a bool argument, or refused a
    # numpy integer, before every integer argument went through as_index
    u = _sin()
    with pytest.raises(NetError):
        PsiRouteNet(u, 1, build_mollifier(1, 16)).derivative_batch((1.5,), _PTS, 0.5)
    with pytest.raises(NetError):
        build_mollifier(1, 16).psi_deriv((2.7,), _PTS)
    with pytest.raises(ExpressionError):
        differentiate(parse("x1*x2", 2), True)
    with pytest.raises(NetError):
        mollify(u, 1).derivative_eval((True,), [0.3], 0.5)
    assert type(mollify(u, np.int64(2)).n) is int
    assert json.dumps(mollify(u, 1, build_mollifier(1, np.int64(20))).describe())
    assert json.dumps(ExpressionNet(np.int64(1), parse("x1")).describe()) == json.dumps(
        ExpressionNet(1, parse("x1")).describe())
    with pytest.raises(NetError):
        ExpressionNet(True, parse("x1"))


def test_as_index():
    assert as_index(np.int64(4), "n", 0) == 4 and type(as_index(np.uint8(4), "n", 0)) is int
    assert as_index(-7, "n", -math.inf) == -7
    for bad, least, most in ((False, 0, 3), (np.float64(2.0), 0, 3), ("2", 0, 3), (4, 0, 3), (-1, 0, 3)):
        with pytest.raises(NetError, match=r"n must be an integer"):
            as_index(bad, "n", least, most, NetError)
    with pytest.raises(ScaleError, match=r"n must be an integer in 1\.\.3, got 0"):
        as_index(0, "n", 1, 3)
    with pytest.raises(ScaleError, match=r"n must be an integer >= 1, got 2\.5"):
        as_index(2.5, "n", 1)
