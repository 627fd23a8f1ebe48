import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from colombeau.catalog import REFERENCE_COMPACTS, catalog_net
from colombeau.expr import EXPR_SIZE_CAP, Grid, node_count, parse, special
from colombeau.mollify import cutoff_net, mollify
from colombeau.nets import (
    BandedNet,
    CompactBox,
    DifferenceNet,
    ExpressionNet,
    FiniteSumNet,
    FunctionNet,
    K_MAX_CAP,
    NetError,
    Sampling,
    SeminormTable,
    SeminormValue,
    DERIVATIVE_ORDER_CAP,
    enlarge,
    is_moderate,
    is_negligible,
    multi_indices,
    seminorm,
    seminorm_table,
    seminorm_tables,
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
    assert K.describe() == [[[0.0, 1.0]], [[2.0, 3.5]]]
    K2 = CompactBox.of([(0.0, 1.0), (-1.0, 1.0)])
    assert K2.dimension == 2


def test_compact_box_validation():
    with pytest.raises(NetError):
        CompactBox(())
    with pytest.raises(NetError):
        CompactBox.of([(0.0, 1.0)], [(0.0, 1.0), (0.0, 1.0)])  # mixed dimension
    with pytest.raises(NetError):
        CompactBox.of([(0.0, math.inf)])
    with pytest.raises(NetError, match="at least one box"):
        CompactBox.of()
    with pytest.raises(NetError, match="at least one axis"):
        CompactBox(((),))
    with pytest.raises(NetError, match="at least one axis"):
        CompactBox.of([])
    with pytest.raises(NetError, match="must be positive"):
        CompactBox.of([(0.0, 1.0)], [(0.5, 0.5)])  # a zero-length side


def test_enlarge():
    K = enlarge(CompactBox.interval(0.0, 1.0), 0.5)
    assert K.describe() == [[[-0.5, 1.5]]]
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
    for base, cap in ((33.5, 20_001), (True, 10), (33, 20_001.0)):
        with pytest.raises(NetError):
            Sampling(base, cap)


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


class _TermwiseSum(FunctionNet):
    """The reference for a finite sum: one expression net per term, their
    values added left to right."""

    def __init__(self, net: FiniteSumNet):
        super().__init__(net.dimension, net.oscillation_hint)
        self.parts = [ExpressionNet(net.dimension, t) for t in net.terms]

    def derivative_batch(self, alpha, coords, eps):
        acc = self.parts[0].derivative_batch(alpha, coords, eps)
        for p in self.parts[1:]:
            acc = acc + p.derivative_batch(alpha, coords, eps)
        return acc


def test_finite_sum_net_is_sum_of_parts():
    x = np.linspace(-2.5, 2.5, 5001)[None, :]
    two = FiniteSumNet(1, [parse("sin(x1)"), parse("eps*x1")])
    for net in (catalog_net("multiscale", 8), catalog_net("multiscale", 3), two):
        ref = _TermwiseSum(net)
        for k in range(7):
            for eps in (0.5, 2**-5, 2**-10):
                got = net.derivative_batch((k,), x, eps)
                assert np.array_equal(got, ref.derivative_batch((k,), x, eps)), (k, eps)
    # every sampled seminorm of multiscale, each on a sweep of its own net
    for J in (8, 3):
        net, ref = catalog_net("multiscale", J), _TermwiseSum(catalog_net("multiscale", J))
        for K in REFERENCE_COMPACTS:
            got = seminorm_tables(net, range(7), K, default_grid())
            want = seminorm_tables(ref, range(7), K, default_grid())
            assert [[(e.ln_value, e.nonfinite) for e in t.entries] for t in got] == [
                [(e.ln_value, e.nonfinite) for e in t.entries] for t in want], (J, K)


def test_every_net_variant_rejects_a_negative_oscillation_hint():
    with pytest.raises(NetError):
        ExpressionNet(1, parse("x1"), oscillation_hint=-1)
    with pytest.raises(NetError):
        FiniteSumNet(1, [parse("x1")], oscillation_hint=-2)
    with pytest.raises(NetError):
        BandedNet(1, [((0.0, 1.0), parse("sin(x1/eps^3)"))], oscillation_hint="-1")


def test_every_net_variant_rejects_a_support_box_of_another_dimension():
    square = CompactBox.of([(-2.0, 2.0), (-2.0, 2.0)])
    with pytest.raises(NetError, match="support box dimension 2"):
        ExpressionNet(1, parse("sin(x1/eps)"), 1, support_box=square)
    with pytest.raises(NetError, match="support box dimension 2"):
        FiniteSumNet(1, [parse("x1"), parse("eps")], support_box=square)
    with pytest.raises(NetError, match="support box dimension 1"):
        BandedNet(3, [((0.0, 1.0), parse("x3", 3))], support_box=CompactBox.interval(0.0, 1.0))


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
    # c = 0, r = 1
    cp = cutoff_net(ExpressionNet(1, parse("1")), CompactBox.interval(-0.5, 0.5), 1.5)
    assert isinstance(cp, ExpressionNet)
    assert cp.derivative_eval((0,), (0.5,), 0.5) == 1.0
    assert cp.derivative_eval((0,), (2.5,), 0.5) == 0.0
    # plateau: the cutoff factor is constant 1, all derivative weight on base
    assert cp.derivative_eval((1,), (0.3,), 0.5) == 0.0
    # sampling is clipped to the support
    assert cp.sample_intervals(((-9.0, 9.0),), 0.5) == [(-2.0, 2.0)]
    # the support box is the c +- 2r box cut to the base's support box, or
    # the c +- 2r box alone when they are disjoint
    based = catalog_net("compact_osc")  # support_box [-2, 2]
    near = cutoff_net(based, CompactBox.interval(0.5, 1.5), 1.5)  # c = 1, r = 1
    far = cutoff_net(based, CompactBox.interval(4.5, 5.5), 1.5)  # c = 5, r = 1
    assert near.support_box.describe() == [[[-1.0, 2.0]]]
    assert far.support_box.describe() == [[[3.0, 7.0]]]


def _leibniz(base, centers, radii, alpha, coords, eps):
    """d^alpha of base * prod_i cutoff((x_i - c_i)/r_i) by the multivariate
    Leibniz rule: sum over beta <= alpha of C(alpha, beta) d^beta base times
    each axis's cutoff derivative of order alpha_i - beta_i."""
    acc = np.zeros(coords.shape[1])
    for beta in itertools.product(*(range(a + 1) for a in alpha)):
        term = base.derivative_batch(beta, coords, eps) * math.prod(map(math.comb, alpha, beta))
        for x, c, r, a, b in zip(coords, centers, radii, alpha, beta):
            term = term * (special.cutoff_deriv_values(a - b, (x - c) / r) / r ** (a - b))
        acc = acc + term
    return acc


@pytest.mark.parametrize("d, build", [
    (1, lambda: ExpressionNet(1, parse("sin(x1/eps)"), oscillation_hint=1)),
    (2, lambda: ExpressionNet(2, parse("sin(x1/eps)*cos(x2)", 2), oscillation_hint=1)),
    (1, lambda: FiniteSumNet(1, [parse("sin(x1/eps)"), parse("eps^2*cos(x1)")], 1)),
], ids=["1d", "2d", "finite-sum"])
def test_cutoff_net_matches_the_leibniz_reference(d, build):
    # c = 0.5, r = 0.75 on each axis; the grid crosses the zero, transition
    # and plateau parts of every cutoff
    base = build()
    cut = cutoff_net(base, CompactBox.of([(0.0, 1.0)] * d), 1.0)
    grid = Grid.tensor([np.linspace(-1.2, 2.2, 9), np.linspace(-0.6, 1.6, 7)][:d])
    coords = np.asarray(grid)
    for k in range(4):
        for alpha in multi_indices(d, k):
            want = _leibniz(base, (0.5,) * d, (0.75,) * d, alpha, coords, 0.3)
            got = cut.derivative_batch(alpha, grid, 0.3)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), alpha


@pytest.mark.parametrize("build", [
    lambda: BandedNet(1, [((0.0, 1.0), parse("sin(x1/eps)"))]),
    lambda: mollify(_osc(), 2),
], ids=["banded", "mollified"])
def test_cutoff_net_refuses_a_base_that_is_not_an_expression_net(build):
    with pytest.raises(NetError):
        cutoff_net(build(), K01, 1.0)


def test_cutoff_net_derivatives_stay_under_the_size_cap():
    cut = cutoff_net(catalog_net("compact_osc"), K01, 1.0)
    for k in range(K_MAX_CAP + 1):
        assert node_count(cut.derivative_expr((k,))) <= EXPR_SIZE_CAP


def test_describe_every_variant():
    """Exact describe() of each net variant, recorded before the two
    quadrature routes shared one describe."""
    from colombeau.mollify import PsiRouteNet, build_mollifier

    base = _osc()
    m = build_mollifier(1, 32)
    base_doc = {"variant": "expression", "dimension": 1,
                "expression": "sin(x1*eps^(-1))", "oscillation_hint": "1"}
    route = {"scale_power": 2, "quadrature_order": 32, "base": base_doc}
    cases = [
        (base, base_doc),
        (FiniteSumNet(1, [parse("sin(x1/eps)"), parse("x1^2")], oscillation_hint="1/2"),
         {"variant": "finite_sum", "dimension": 1, "terms": ["sin(x1*eps^(-1))", "x1^2"],
          "oscillation_hint": "1/2"}),
        (BandedNet(1, [((0.0, 0.5), parse("x1")), ((0.5, 1.0), parse("eps*x1"))]),
         {"variant": "banded", "dimension": 1,
          "bands": [{"interval": [0.0, 0.5], "expression": "x1"},
                    {"interval": [0.5, 1.0], "expression": "eps*x1"}],
          "oscillation_hint": "0"}),
        (DifferenceNet(base, ExpressionNet(1, parse("x1"))),
         {"variant": "difference", "a": base_doc,
          "b": {"variant": "expression", "dimension": 1, "expression": "x1",
                "oscillation_hint": "0"}}),
        (mollify(base, 2, m), {"variant": "mollified", **route}),
        (PsiRouteNet(base, 2, m), {"variant": "psi-route", **route}),
    ]
    for net, want in cases:
        assert net.describe() == want


def test_support_restriction():
    delta = _delta()
    assert delta.sample_intervals(((-3.0, 3.0),), 0.25) == [(-0.25, 0.25)]
    away = seminorm(delta, 0, CompactBox.interval(1.0, 2.0), 0.25)
    assert away.ln_value == -math.inf
    # any slope the calculus can evaluate cuts; one that overflows cuts nothing
    curved = ExpressionNet(1, parse("bump(sin(eps)*x1)"))
    (lo, hi), = curved.sample_intervals(((-9.0, 9.0),), 0.5)
    assert hi == -lo == pytest.approx(1.0 / math.sin(0.5))
    steep = ExpressionNet(1, parse("bump(x1*eps^(-80))"))
    assert steep.sample_intervals(((-1.0, 1.0),), 1e-5) == [(-1.0, 1.0)]


# Sampling regions: sha256 of json.dumps (exact float reprs, null for a box
# the net vanishes on) of sample_intervals on both boxes of its dimension at
# every point of _REGION_GRID, recorded with the affine-support reader that
# predates the expression-calculus one (Python 3.11.7, numpy 2.4.6).
# cutoff_net's was recorded again when it became an expression net: the
# calculus puts c - 2r at -1.0000000000000002, one ulp below the -1.0 that
# c - 2r gives directly (c = 0.5, r = 0.75).
_REGION_GRID = EpsGrid(0.5, 0.6, 20)
_REGION_BOXES = {
    1: (((-3.0, 3.0),), ((0.25, 1.0),)),
    2: (((-3.0, 3.0), (-3.0, 3.0)), ((0.25, 1.0), (0.5, 2.0))),
}
SAMPLE_REGION_DIGESTS = {
    "bump_x_over_eps": "12035aa9a5eab150c026a5b9974b0c615b4977731b7824fd9ab0b974e6b6288b",
    "cutoff_x": "1f338fef7f7e57accc34d0c2a4f407c4dcb01f5f1324b2e8beee9b6140fa0999",
    "bump_shifted_eps2": "2beae0ac8492b79dfbae36f19ac119550de37f8a3d47fa6dc34208b20422f5dd",
    "cutoff_sqrt_eps_slope": "e1f651e70db9cbb314750518797218a18f2e512adbfe842648205cdcbb7c5fff",
    "bump_eps_slope_eps2_shift": "e9f554ea67d43a2bf90fdc78cb8d2d54a448f11854e6ad4bafee7015f7ae6759",
    "bump_negative_slope": "12035aa9a5eab150c026a5b9974b0c615b4977731b7824fd9ab0b974e6b6288b",
    "cutoff_2d_second_axis": "9c87470359aa418ef8b9d02339096cacc5668517488cddc6fe1ec69e9951f9f7",
    "bump_nonaffine_square": "5606976c8d627beb382a6c029e51f588aa16dc0756c2f49d6c6594bbf08c445e",
    "cutoff_2d_nonaffine_sum": "8b9824deaae3002587f8d0613584e7ac7e7f256ad2d646142cdefa69a6c78900",
    "cutoff_net": "a58dc3d4206ce5faaa7d769e2070756609e918feb52224b6c35b971c76aed22b",
    "mollified_compact_osc": "daeb27c5eae33fd81bddfbc564c92c0b1551aabd8a636034014b9ef24ab20d1f",
    "difference": "73af971b8f432427f6bfd12778acd31e51382236c88b233ed72c6326fa37e20d",
}


def _region_net(name):
    def net(text, d=1):
        return ExpressionNet(d, parse(text, dimension=d))

    return {
        "bump_x_over_eps": lambda: net("bump(x1/eps)"),
        "cutoff_x": lambda: net("cutoff(x1)"),
        "bump_shifted_eps2": lambda: net("bump((x1-0.3)/eps^2)"),
        "cutoff_sqrt_eps_slope": lambda: net("cutoff(eps^(1/2)*x1 + 0.25)"),
        "bump_eps_slope_eps2_shift": lambda: net("bump(3*x1*eps - eps^2)"),
        "bump_negative_slope": lambda: net("bump(-x1/eps)"),
        "cutoff_2d_second_axis": lambda: net("cutoff(x2/eps - x2)", 2),
        "bump_nonaffine_square": lambda: net("bump(x1*x1)"),
        "cutoff_2d_nonaffine_sum": lambda: net("cutoff(x1+x2)", 2),
        "cutoff_net": lambda: cutoff_net(net("sin(x1/eps)"), CompactBox.interval(0.0, 1.0), 1.0),
        "mollified_compact_osc": lambda: mollify(catalog_net("compact_osc"), 2),
        "difference": lambda: DifferenceNet(net("bump(x1/eps)"), net("bump((x1-0.3)/eps^2)")),
    }[name]()


def _regions(net):
    return [
        net.sample_intervals(box, eps)
        for eps in _REGION_GRID.points
        for box in _REGION_BOXES[net.dimension]
    ]


@pytest.mark.parametrize("name", sorted(SAMPLE_REGION_DIGESTS))
def test_sample_intervals_match_recorded_regions(name):
    text = json.dumps(_regions(_region_net(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLE_REGION_DIGESTS[name], text


@pytest.mark.parametrize("name", ["bump_nonaffine_square", "cutoff_2d_nonaffine_sum"])
def test_nonaffine_support_arguments_stay_unrestricted(name):
    net = _region_net(name)
    boxes = _REGION_BOXES[net.dimension] * len(_REGION_GRID.points)
    assert _regions(net) == [list(box) for box in boxes]


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
    for k in (True, 1.0):  # either would sample order 1
        with pytest.raises(NetError):
            seminorm(osc, k, K01, 0.5)


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

    def cases():
        # fresh nets: a net returns the values it already holds without sampling
        return [
            (ExpressionNet(2, parse("sin(x1/eps)*cos(x2)", dimension=2), 1),
             CompactBox.of([(0.0, 1.0), (0.0, 1.0)]), 0.1, Sampling()),
            (ExpressionNet(2, parse("sin(x1*x2/eps)", dimension=2), 1),
             CompactBox.of([(0.0, 1.0), (0.0, 1.0)]), 0.1, Sampling()),
            (ExpressionNet(3, parse("sin(x1/eps)*cos(x2*x3)", dimension=3), 1),
             CompactBox.of([(0.0, 1.0), (-1.0, 0.5), (0.0, 2.0)]), 0.2, Sampling(9)),
        ]
    # the separable product sin(x1/eps)*cos(x2) is sampled at one witness
    # point per multi-index; the others at every point of their grids
    witness = [True, False, False]

    def run():
        return [seminorm(net, k, K, eps, sp) for net, K, eps, sp in cases() for k in range(3)]

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
    per_alpha = [1 if witness[i // 3] else math.prod(v.points_per_axis) for i, v in enumerate(want)]
    n_alphas = [len(multi_indices(net.dimension, k)) for net, *_ in cases() for k in range(3)]
    assert sum(sizes) == sum(p * n for p, n in zip(per_alpha, n_alphas))
    # the blocks list every point of each grid once, in C order
    grids = [[np.linspace(lo, hi, n) for (lo, hi), n in zip(K.boxes[0], v.points_per_axis)]
             for (_, K, _, _), v in zip(cases(), want[::3])]
    assert all(
        np.array_equal(np.hstack([np.asarray(b) for b in nets._grid_chunks(axes, chunk)]),
                       np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")]))
        for axes in grids
    )


def test_seminorm_table_and_samples():
    table = seminorm_table(_osc(), 1, K01, EpsGrid(0.5, 0.5, 8))
    assert len(table.entries) == 8
    for eps, ln in table.samples():
        assert ln == pytest.approx(-math.log(eps))
    # a nonfinite-only entry is reported as nan, not as an exact zero
    t = SeminormTable(
        0, K01, (SeminormValue(0.5, -math.inf, False, 3, (33,)),)
    )
    assert math.isnan(t.samples()[0][1])


def test_sharp_seminorm_recovers_valuation():
    s = sharp_seminorm(_osc(), 1, K01, default_grid())
    assert s.estimate.value == pytest.approx(-1.0, abs=1e-9)
    assert s.ln_value == pytest.approx(1.0, abs=1e-9)
    assert s.value == pytest.approx(math.e, rel=1e-9)
    z = sharp_seminorm(DifferenceNet(_osc(), _osc()), 0, K01, default_grid())
    assert z.ln_value == -math.inf and z.value == 0.0
    # a valuation steeper than ln(max float) ~ 709.78: value overflows to inf
    steep = ExpressionNet(1, parse("eps^(-800)"))
    big = sharp_seminorm(steep, 0, K01, EpsGrid(0.5, 0.9999, 10))
    assert big.ln_value == pytest.approx(800.0, abs=1e-9) and big.value == math.inf


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


def test_nonfinite_samples_in_the_fit_window_make_the_fit_unstable():
    # x1 = 0 is a grid point of [-1, 1], so every eps has a non-finite sample;
    # the finite max alone would fit a stable v = 0
    net = ExpressionNet(1, parse("1/x1"))
    K = CompactBox.interval(-1.0, 1.0)
    s = sharp_seminorm(net, 0, K, default_grid())
    assert all(e.nonfinite == 1 for e in s.table.entries)
    assert not s.estimate.stable
    assert is_moderate(net, K, 0, default_grid()).verdict == "inconclusive"
    negligible = is_negligible(net, K, 0, default_grid())
    assert (negligible.verdict, negligible.stable) == ("inconclusive", False)
    # non-finite only at eps = 1/2, the first grid point, outside the window
    late = sharp_seminorm(ExpressionNet(1, parse("sin(x1)/(eps-0.5)")), 0, K01, default_grid())
    assert [e.eps for e in late.table.entries if e.nonfinite] == [0.5]
    assert late.estimate.window[0] > 0
    assert late.estimate.stable


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
