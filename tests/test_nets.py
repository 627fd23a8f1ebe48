import math

import numpy as np
import pytest

from colombeau.expr import parse
from colombeau.nets import (
    BandedNet,
    CompactBox,
    CutoffProductNet,
    DifferenceNet,
    ExpressionNet,
    FiniteSumNet,
    K_MAX_CAP,
    NetError,
    Sampling,
    SeminormTable,
    TableEntry,
    DERIVATIVE_ORDER_CAP,
    enlarge,
    is_moderate,
    is_negligible,
    multi_indices,
    seminorm,
    seminorm_table,
    sharp_seminorm,
)
from colombeau.scale import EpsGrid, default_grid

K01 = CompactBox.interval(0.0, 1.0)


def _osc():
    return ExpressionNet(1, parse("sin(x1/eps)"), oscillation_hint=1)


def _delta():
    return ExpressionNet(1, parse("eps^(-1)*bump(x1/eps)"), oscillation_hint=1)


# ---------------------------------------------------------------------------
# compact sets
# ---------------------------------------------------------------------------


def test_compact_box_basics():
    K = CompactBox.of([(0.0, 1.0)], [(2.0, 3.5)])
    assert K.dimension == 1
    assert K.min_side == 1.0
    assert K.describe() == [[[0.0, 1.0]], [[2.0, 3.5]]]
    K2 = CompactBox.of([(0.0, 1.0), (-1.0, 1.0)])
    assert K2.dimension == 2


def test_compact_box_validation():
    with pytest.raises(NetError):
        CompactBox((), 1.0)
    with pytest.raises(NetError):
        CompactBox.of([(0.0, 1.0)], [(0.0, 1.0), (0.0, 1.0)])  # mixed dimension
    with pytest.raises(NetError):
        CompactBox.of([(0.0, math.inf)])
    with pytest.raises(NetError):
        CompactBox((((0.0, 0.5),),), 1.0)  # side below min_side


def test_enlarge():
    K = enlarge(CompactBox.interval(0.0, 1.0), 0.5)
    assert K.describe() == [[[-0.5, 1.5]]]
    assert K.min_side == 2.0
    with pytest.raises(NetError):
        enlarge(K, -0.1)


def test_multi_indices():
    assert multi_indices(1, 3) == [(3,)]
    assert sorted(multi_indices(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert multi_indices(3, 0) == [(0, 0, 0)]
    assert len(multi_indices(3, 4)) == 15  # C(3+4-1, 4)


def test_sampling_axis_count():
    s = Sampling(33, 20_001)
    assert s.axis_count(1.0, 0.5, 0) == (33, False)
    # oscillation scale eps^-1 demands ~4 * side / eps points
    n, capped = s.axis_count(1.0, 0.01, 1)
    assert n == 401 and not capped
    n, capped = s.axis_count(1.0, 1e-5, 1)
    assert n == 20_001 and capped
    with pytest.raises(NetError):
        Sampling(1, 10)


# ---------------------------------------------------------------------------
# nets and derivatives
# ---------------------------------------------------------------------------


def test_expression_net_derivative_eval():
    osc = _osc()
    # d/dx sin(x/eps) at 0 is 1/eps
    assert osc.derivative_eval((1,), (0.0,), 0.25) == pytest.approx(4.0)
    assert osc.derivative_eval((0,), (0.0,), 0.25) == 0.0


def test_expression_net_validation():
    with pytest.raises(NetError):
        ExpressionNet(1, parse("x2", dimension=2))  # uses more variables
    osc = _osc()
    with pytest.raises(NetError):
        osc.derivative_eval((1, 0), (0.0,), 0.5)  # alpha dimension mismatch
    with pytest.raises(NetError):
        osc.derivative_eval((DERIVATIVE_ORDER_CAP + 1,), (0.0,), 0.5)


def test_finite_sum_net_is_sum_of_parts():
    a = parse("sin(x1)")
    b = parse("eps*x1")
    s = FiniteSumNet(1, [a, b], oscillation_hint=0)
    x = (0.7,)
    want = ExpressionNet(1, a).derivative_eval((1,), x, 0.25) + ExpressionNet(
        1, b
    ).derivative_eval((1,), x, 0.25)
    assert s.derivative_eval((1,), x, 0.25) == pytest.approx(want)


def test_difference_net():
    osc = _osc()
    d = DifferenceNet(osc, osc)
    assert d.derivative_eval((1,), (0.3,), 0.25) == 0.0
    assert seminorm(d, 0, K01, 0.25).ln_value == -math.inf
    shifted = ExpressionNet(1, parse("sin(x1/eps) + eps^2"), oscillation_hint=1)
    d2 = DifferenceNet(shifted, osc)
    assert d2.derivative_eval((0,), (0.3,), 0.25) == pytest.approx(0.0625)


def test_banded_net_dispatches_on_eps():
    b = BandedNet(
        1, [((0.0, 0.1), parse("eps^(-1)*x1")), ((0.1, 1.0), parse("x1"))]
    )
    assert b.derivative_eval((0,), (1.0,), 0.5) == 1.0
    assert b.derivative_eval((0,), (1.0,), 0.05) == pytest.approx(20.0)
    desc = b.describe()
    assert desc["variant"] == "banded"
    assert len(desc["bands"]) == 2


def test_banded_net_requires_full_cover():
    with pytest.raises(NetError):
        BandedNet(1, [((0.0, 0.5), parse("x1"))])
    with pytest.raises(NetError):
        BandedNet(
            1, [((0.0, 0.6), parse("x1")), ((0.5, 1.0), parse("x1"))]
        )


def test_cutoff_product_net():
    base = ExpressionNet(1, parse("1"))
    cp = CutoffProductNet(base, centers=[0.0], radii=[1.0])
    assert cp.derivative_eval((0,), (0.5,), 0.5) == 1.0
    assert cp.derivative_eval((0,), (2.5,), 0.5) == 0.0
    # plateau: the cutoff factor is constant 1, all derivative weight on base
    assert cp.derivative_eval((1,), (0.3,), 0.5) == 0.0
    # sampling is clipped to the support
    assert cp.sample_intervals(((-9.0, 9.0),), 0.5) == [(-2.0, 2.0)]


def test_support_restriction():
    delta = _delta()
    assert delta.sample_intervals(((-3.0, 3.0),), 0.25) == [(-0.25, 0.25)]
    away = seminorm(delta, 0, CompactBox.interval(1.0, 2.0), 0.25)
    assert away.ln_value == -math.inf


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------


def test_seminorm_trivial_values():
    one = ExpressionNet(1, parse("1"))
    assert seminorm(one, 0, K01, 0.5).ln_value == 0.0
    assert seminorm(one, 1, K01, 0.5).ln_value == -math.inf
    # grids contain the endpoints, so these suprema are hit exactly
    assert seminorm(_osc(), 1, K01, 0.25).ln_value == pytest.approx(
        -math.log(0.25)
    )
    assert seminorm(_delta(), 0, K01, 0.25).ln_value == pytest.approx(
        -math.log(0.25) - 1.0
    )


def test_seminorm_validation():
    osc = _osc()
    with pytest.raises(NetError):
        seminorm(osc, -1, K01, 0.5)
    with pytest.raises(NetError):
        seminorm(osc, K_MAX_CAP + 1, K01, 0.5)
    with pytest.raises(NetError):
        seminorm(osc, 0, K01, 0.0)
    with pytest.raises(NetError):
        seminorm(osc, 0, CompactBox.of([(0.0, 1.0), (0.0, 1.0)]), 0.5)


def test_seminorm_monotone_in_compact():
    osc = _osc()
    small = seminorm(osc, 0, K01, 0.37).ln_value
    large = seminorm(osc, 0, CompactBox.interval(-1.0, 2.0), 0.37).ln_value
    assert small <= large + 1e-12


def test_seminorm_undersampled_flag():
    assert not seminorm(_osc(), 0, K01, 0.25).undersampled
    assert seminorm(_osc(), 0, K01, 1e-5).undersampled


def test_seminorm_refinement_stability():
    prod = ExpressionNet(1, parse("cutoff(x1)*sin(x1/eps)"), oscillation_hint=1)
    K = CompactBox.interval(-1.0, 2.0)
    coarse = seminorm(prod, 0, K, 2**-5, Sampling(33))
    fine = seminorm(prod, 0, K, 2**-5, Sampling(129))
    assert abs(coarse.ln_value - fine.ln_value) <= 0.05


@pytest.mark.parametrize("chunk", [1000, 50, 7])
def test_grid_chunks_cap_points_and_keep_seminorms(monkeypatch, chunk):
    import colombeau.nets as nets

    cases = [
        (ExpressionNet(2, parse("sin(x1/eps)*cos(x2)", dimension=2), 1),
         CompactBox.of([(0.0, 1.0), (0.0, 1.0)]), 0.1, Sampling()),
        (ExpressionNet(3, parse("sin(x1/eps)*cos(x2*x3)", dimension=3), 1),
         CompactBox.of([(0.0, 1.0), (-1.0, 0.5), (0.0, 2.0)]), 0.2, Sampling(9)),
    ]

    def run():
        return [seminorm(net, k, K, eps, sp) for net, K, eps, sp in cases for k in range(3)]

    want = run()  # the default chunk holds each whole grid
    sizes = []
    real = ExpressionNet.derivative_batch
    monkeypatch.setattr(
        ExpressionNet, "derivative_batch",
        lambda self, alpha, coords, eps: sizes.append(coords.shape[1]) or real(self, alpha, coords, eps),
    )
    monkeypatch.setattr(nets, "_CHUNK", chunk)
    assert run() == want
    assert max(sizes) <= chunk
    per_alpha = [math.prod(v.points_per_axis) for v in want]
    n_alphas = [len(multi_indices(net.dimension, k)) for net, *_ in cases for k in range(3)]
    assert sum(sizes) == sum(p * n for p, n in zip(per_alpha, n_alphas))


def test_seminorm_table_and_samples():
    table = seminorm_table(_osc(), 1, K01, EpsGrid(0.5, 0.5, 8))
    assert len(table.entries) == 8
    for eps, ln in table.samples():
        assert ln == pytest.approx(-math.log(eps))
    # a nonfinite-only entry is reported as nan, not as an exact zero
    t = SeminormTable(
        0, K01, (TableEntry(0.5, -math.inf, False, 3),)
    )
    assert math.isnan(t.samples()[0][1])


def test_sharp_seminorm_recovers_valuation():
    s = sharp_seminorm(_osc(), 1, K01, default_grid())
    assert s.estimate.value == pytest.approx(-1.0, abs=1e-9)
    assert s.ln_value == pytest.approx(1.0, abs=1e-9)
    assert s.value == pytest.approx(math.e, rel=1e-9)
    z = sharp_seminorm(DifferenceNet(_osc(), _osc()), 0, K01, default_grid())
    assert z.ln_value == -math.inf and z.value == 0.0


def test_sharp_seminorm_leibniz_bound():
    # P_1(c*s) <= P_0(c) P_1(s) + P_1(c) P_0(s), checked through the fitted
    # seminorms with a 0.2 log-slack for estimation error
    K = CompactBox.interval(-1.0, 2.0)
    g = default_grid()
    prod = ExpressionNet(1, parse("cutoff(x1)*sin(x1/eps)"), oscillation_hint=1)
    cpart = ExpressionNet(1, parse("cutoff(x1)"))
    spart = _osc()
    lhs = sharp_seminorm(prod, 1, K, g).value
    rhs = (
        sharp_seminorm(cpart, 0, K, g).value * sharp_seminorm(spart, 1, K, g).value
        + sharp_seminorm(cpart, 1, K, g).value
        * sharp_seminorm(spart, 0, K, g).value
    )
    assert math.log(lhs) <= math.log(rhs) + 0.2


# ---------------------------------------------------------------------------
# moderateness / negligibility
# ---------------------------------------------------------------------------


def test_is_moderate_examples():
    v = is_moderate(_osc(), K01, 1, default_grid())
    assert v.verdict == "moderate-evidence"
    assert v.bound_exponent == 1 and v.stable
    v0 = is_moderate(_delta(), K01, 0, default_grid())
    assert v0.bound_exponent == 1
    flat = is_moderate(ExpressionNet(1, parse("sin(x1)")), K01, 0, default_grid())
    assert flat.bound_exponent == 0


def test_is_negligible_examples():
    no = is_negligible(
        ExpressionNet(1, parse("eps^4*sin(x1)")), K01, 0, default_grid()
    )
    assert no.verdict == "no" and no.valuation == pytest.approx(4.0, abs=1e-9)
    yes = is_negligible(
        ExpressionNet(1, parse("eps^50*sin(x1)")), K01, 0, default_grid()
    )
    assert yes.verdict == "negligible-evidence"
    floor = is_negligible(DifferenceNet(_osc(), _osc()), K01, 0, default_grid())
    assert floor.verdict == "negligible-evidence" and floor.valuation == math.inf
