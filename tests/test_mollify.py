import gc
import importlib
import math
import weakref

import numpy as np
import pytest

from colombeau import cli
from colombeau.catalog import catalog_net
from colombeau.expr import Grid, LeafMemo, parse
from colombeau.expr.special import bump_deriv_values
from colombeau.mollify import (
    CONVERGENCE_GRID,
    REGULAR_BOUND_J0,
    MollifiedNet,
    PsiRouteNet,
    build_mollifier,
    class_A_membership,
    convergence_experiment,
    cutoff_net,
    mollify,
    regular_bound_experiment,
)
from colombeau.nets import (
    CompactBox,
    DifferenceNet,
    ExpressionNet,
    FunctionNet,
    K_MAX_CAP,
    NetError,
    Sampling,
    _CHUNK,
    _grid_chunks,
    _grid_max,
    _Sweep,
    multi_indices,
    seminorm,
)
from colombeau.regularity import RegularityError
from colombeau.scale import EpsGrid

K01 = CompactBox.interval(0.0, 1.0)


def _net(text, hint=0, support=None):
    return ExpressionNet(
        1, parse(text), oscillation_hint=hint, support_box=support
    )


@pytest.fixture(scope="module")
def m32():
    return build_mollifier(1, 32)


@pytest.fixture(scope="module")
def m64():
    return build_mollifier(1, 64)


@pytest.fixture(scope="module")
def compact_osc():
    return catalog_net("compact_osc")


# ---------------------------------------------------------------------------
# mollifier construction
# ---------------------------------------------------------------------------


def test_build_validation():
    with pytest.raises(NetError):
        build_mollifier(0)
    with pytest.raises(NetError):
        build_mollifier(4)
    with pytest.raises(NetError):
        build_mollifier(1, 8)


def test_normalisation_constant_1d():
    m = build_mollifier(1, 128)
    assert m.c == pytest.approx(2.2522836210435675, abs=1e-12)


def test_psi_normalisation_quadrature_converged():
    assert abs(build_mollifier(1, 128).c - build_mollifier(1, 256).c) < 1e-10


def test_reintegration_is_one():
    for d, Q in ((1, 32), (1, 128), (2, 32)):
        m = build_mollifier(d, Q)
        assert m.integral() == pytest.approx(1.0, abs=1e-14)


def test_first_moment_vanishes(m32):
    moment = m32.core_weights @ m32.nodes[0]
    assert abs(moment) < 1e-15


def test_psi_zero_outside_ball(m32):
    pts = np.array([[1.0, -1.0, 1.7, 25.0]])
    assert np.all(m32.psi(pts) == 0.0)
    assert np.all(m32.psi_deriv((3,), pts) == 0.0)


def test_psi_positive_inside(m32):
    pts = np.linspace(-0.99, 0.99, 51)[None, :]
    assert np.all(m32.psi(pts) > 0.0)


def test_psi_deriv_matches_bump_recurrence(m32):
    # psi_deriv and the expression-layer bump share one recurrence and one
    # evaluator, so this pins the mollifier's wiring (scaling by c, the (d, N)
    # point layout) against the 1-d path; the recurrence itself is checked by
    # finite differences here and in test_special.py
    pts = np.linspace(-0.97, 0.97, 89)[None, :]
    for k in range(8):
        a = m32.psi_deriv((k,), pts)
        b = m32.c * bump_deriv_values(k, pts[0])
        sup = np.max(np.abs(b)) or 1.0
        assert np.max(np.abs(a - b)) / sup < 1e-9, k


def test_psi_deriv_2d_symmetry():
    m = build_mollifier(2, 24)
    pts = np.array([[0.3, 0.1], [-0.2, 0.55]])
    swapped = pts[::-1]
    a = m.psi_deriv((2, 1), pts)
    b = m.psi_deriv((1, 2), swapped)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def _stencil_2d(f, pts, axis, h=1e-5):
    step = np.zeros((2, 1))
    step[axis] = h
    return (f(pts - 2 * step) - 8 * f(pts - step) + 8 * f(pts + step) - f(pts + 2 * step)) / (
        12 * h
    )


@pytest.mark.parametrize(
    "alpha, lower, axis",
    [
        ((1, 0), (0, 0), 0),
        ((1, 1), (1, 0), 1),
        ((1, 1), (0, 1), 0),  # the other path to the mixed partial
        ((2, 1), (1, 1), 0),
    ],
    ids=["a10", "a11", "a11-via-01", "a21"],
)
def test_psi_deriv_2d_matches_finite_differences(alpha, lower, axis):
    m = build_mollifier(2, 24)
    g = np.linspace(-0.6, 0.6, 9)
    pts = np.stack([a.ravel() for a in np.meshgrid(g, g + 0.05, indexing="ij")])
    est = _stencil_2d(lambda p: m.psi_deriv(lower, p), pts, axis)
    got = m.psi_deriv(alpha, pts)
    assert np.max(np.abs(got - est)) / np.max(np.abs(got)) < 1e-8


def test_psi_deriv_validation(m32):
    with pytest.raises(NetError):
        m32.psi_deriv((1, 0), np.zeros((1, 3)))
    with pytest.raises(NetError):
        m32.psi(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# mollified nets
# ---------------------------------------------------------------------------


def test_mollify_rejects_bad_order(m32):
    one = _net("1")
    with pytest.raises(NetError):
        MollifiedNet(one, 0, m32)
    with pytest.raises(NetError):
        MollifiedNet(one, 1.5, m32)
    # a fixed-order rule cannot resolve oscillation faster than the kernel
    with pytest.raises(NetError):
        mollify(_net("sin(x1/eps^2)", hint=2), 1)


def test_constant_and_linear_reproduction():
    eps = 2**-4
    assert mollify(_net("1"), 2).derivative_eval((0,), (0.3,), eps) == pytest.approx(
        1.0, abs=1e-14
    )
    assert mollify(_net("x1"), 2).derivative_eval((0,), (0.3,), eps) == pytest.approx(
        0.3, abs=1e-14
    )


def test_smoothing_error_scales_with_eps_power():
    # |u*psi_{eps^n} - u| <= eps^(2n) sup|u''| integral(s^2 psi)/2 for even psi
    mn = mollify(_net("sin(x1)"), 2)
    eps = 2**-6
    xs = np.linspace(-1.0, 1.0, 101)[None, :]
    diff = mn.derivative_batch((0,), xs, eps) - np.sin(xs[0])
    assert np.max(np.abs(diff)) < eps**4


def test_mollified_support_enlarged(compact_osc):
    mn = mollify(compact_osc, 1)
    assert mn.support_box.describe() == [[[-3.0, 3.0]]]
    assert mn.sample_intervals(((-10.0, 10.0),), 0.25) is not None
    away = seminorm(mn, 0, CompactBox.interval(5.0, 6.0), 0.25)
    assert away.ln_value == -math.inf


def test_derivative_routes_commute(compact_osc, m64):
    # derivatives on u vs derivatives on psi agree up to quadrature error
    u_route = MollifiedNet(compact_osc, 1, m64)
    p_route = PsiRouteNet(compact_osc, 1, m64)
    pts = np.linspace(-0.5, 0.5, 41)[None, :]
    for k in (0, 1, 2):
        for eps in (2**-3, 2**-4):
            a = u_route.derivative_batch((k,), pts, eps)
            b = p_route.derivative_batch((k,), pts, eps)
            rel = np.max(np.abs(a - b) / (np.abs(a) + np.abs(b) + 1.0))
            assert rel < 1e-6, (k, eps)


def test_both_routes_on_osc_match_the_closed_form_of_their_rule():
    # For u = sin(x1/eps) each route is a fixed sum over the rule's nodes s_q,
    # so it is u's own samples times a transform of the rule at xi = eps^(n-1):
    # sum_q c_q sin((x - eps^n s_q)/eps) = Im(e^(ix/eps) T(xi)) with
    # T(xi) = sum_q c_q e^(-i xi s_q).  The mollified route takes
    # c_q = core_weights_q, and T is real.  The psi route's order k takes
    # c_q = w_q psi^(k)(s_q) and the factor eps^(-nk); T_k is real for even k
    # and imaginary for odd k, where sin(x/eps) becomes cos(x/eps) =
    # eps * d/dx sin(x/eps).  Odd k at n >= 2 is left out: there
    # |T_k(eps^(n-1))| falls to about 1e-12 (n = 3, eps = 2^-18, k = 3) and the
    # route's own sum reaches its round-off floor, off by up to 4.4 in ln.
    osc = catalog_net("osc")
    for n in (1, 2, 3):
        moll = mollify(osc, n)
        rule = moll.mollifier
        psi = PsiRouteNet(osc, n, rule)
        s = rule.nodes[0]
        for eps in (2.0**-1, 2.0**-4, 2.0**-10, 2.0**-19):
            phase = np.exp(-1j * eps ** (n - 1) * s)
            t = np.sum(rule.core_weights * phase)
            for k in range(4):
                want = seminorm(osc, k, K01, eps).ln_value + math.log(abs(t))
                assert abs(seminorm(moll, k, K01, eps).ln_value - want) <= 1e-9, (n, eps, k)
                if k % 2 and n >= 2:
                    continue
                t_k = np.sum(rule.weights * rule.psi_deriv((k,), rule.nodes) * phase)
                want = (-n * k * math.log(eps) + math.log(abs(t_k))
                        + seminorm(osc, k % 2, K01, eps).ln_value + k % 2 * math.log(eps))
                assert abs(seminorm(psi, k, K01, eps).ln_value - want) <= 1e-9, (n, eps, k)


def test_quadrature_order_already_adequate(compact_osc, m32, m64):
    # doubling Q moves the measured seminorm by far less than fit tolerances
    eps = 2**-4
    a = seminorm(MollifiedNet(compact_osc, 1, m32), 1, K01, eps).ln_value
    b = seminorm(MollifiedNet(compact_osc, 1, m64), 1, K01, eps).ln_value
    assert abs(a - b) <= 0.02


# ---------------------------------------------------------------------------
# cutoff localisation
# ---------------------------------------------------------------------------


def test_cutoff_net_geometry():
    cut = cutoff_net(_net("1"), K01, 1.0)
    assert cut.derivative_eval((0,), (0.5,), 0.5) == 1.0
    assert cut.derivative_eval((0,), (2.5,), 0.5) == 0.0


def test_cutoff_net_whose_box_only_touches_the_base_support(compact_osc):
    # c +- 2r is [2, 6], which meets the base support [-2, 2] only at 2, where
    # the product is 0: the support box falls back to [2, 6]
    cut = cutoff_net(compact_osc, CompactBox.interval(3.0, 5.0), 1.0)
    assert cut.support_box.describe() == [[[2.0, 6.0]]]
    for k in range(3):
        assert seminorm(cut, k, CompactBox.interval(2.0, 6.0), 2**-4).ln_value == -math.inf


def test_cutoff_net_identity_on_inner_box():
    osc = _net("sin(x1/eps)", hint=1)
    cut = cutoff_net(osc, K01, 1.0)
    diff = DifferenceNet(cut, osc)
    assert seminorm(diff, 0, K01, 2**-4).ln_value == -math.inf
    assert seminorm(diff, 1, K01, 2**-4).ln_value == -math.inf
    # seminorms on the inner box are exactly those of the base net
    a = seminorm(cut, 1, K01, 2**-4).ln_value
    b = seminorm(osc, 1, K01, 2**-4).ln_value
    assert a == pytest.approx(b, abs=1e-10)


def test_cutoff_net_margin_validation():
    with pytest.raises(NetError):
        cutoff_net(_net("1"), K01, 0.0)
    with pytest.raises(NetError):
        cutoff_net(_net("1"), K01, 0.3)  # below the inner half-width
    with pytest.raises(NetError):
        cutoff_net(_net("1"), CompactBox.of([(0.0, 1.0)], [(2.0, 3.0)]), 1.0)


# ---------------------------------------------------------------------------
# convergence experiment
# ---------------------------------------------------------------------------


def test_convergence_on_constant_is_numerically_null():
    rec = convergence_experiment(_net("1"), K01, 0, n_list=(1, 2))
    assert rec.all_ok
    assert rec.reference == math.inf
    assert all(e.required == math.inf for e in rec.entries)


def test_convergence_on_oscillation():
    rec = convergence_experiment(_net("sin(x1/eps)", hint=1), K01, 1, n_list=(1, 2))
    assert rec.reference == pytest.approx(-2.0, abs=1e-4)
    assert rec.all_ok
    v1, v2 = (e.v_hat for e in rec.entries)
    assert v1 == pytest.approx(-1.0, abs=0.05)
    assert v2 == pytest.approx(1.0, abs=0.05)
    rows = rec.to_csv_rows()
    assert rows[0][3] == pytest.approx(v1 - 1 - rec.reference)


def test_convergence_on_a_linear_net_is_numerically_null(monkeypatch, compact_osc):
    # u star psi = u for a linear u, so every sample of the difference sits
    # at round-off (about e^-36.7 against p_0(u) = 1): the fits to that noise
    # miss n + v(p_1) - slack, and the entries are ok by the null rule
    rec = convergence_experiment(_net("x1"), K01, 0, n_list=(1, 2, 3))
    assert rec.reference == pytest.approx(0.0, abs=1e-12)
    assert all(e.v_hat < e.required for e in rec.entries)
    assert all(e.ok and e.stable for e in rec.entries)
    assert cli.main(["mollify", "--net", "x1", "--n", "1,2,3"]) == 0
    # p_0(u) is sampled only for an entry whose fit misses the bound
    module = importlib.import_module("colombeau.mollify")
    monkeypatch.setattr(module, "seminorm_table", lambda *a: pytest.fail("sampled p_0(u)"))
    assert convergence_experiment(compact_osc, K01, 0, n_list=(1, 2)).all_ok


def test_convergence_validation():
    with pytest.raises(NetError):
        convergence_experiment(_net("1"), K01, 0, n_list=())
    with pytest.raises(NetError):
        convergence_experiment(_net("1"), K01, 0, n_list=(2, 1))


def test_convergence_json_shape():
    rec = convergence_experiment(_net("1"), K01, 0, n_list=(1,))
    doc = rec.to_json_dict()
    assert doc["k"] == 0
    assert doc["reference"] == "inf"
    assert doc["entries"][0]["ok"] is True


# ---------------------------------------------------------------------------
# growth bound with derivatives on psi
# ---------------------------------------------------------------------------


def test_regular_bound_holds(compact_osc):
    for k, n in ((0, 2), (1, 1)):
        rep = regular_bound_experiment(compact_osc, K01, k, n)
        assert rep.all_ok, (k, n)
        assert all(r.ln_lhs <= r.ln_rhs + 0.1 for r in rep.rows)


def test_regular_bound_needs_support():
    with pytest.raises(NetError):
        regular_bound_experiment(_net("sin(x1/eps)", hint=1), K01, 0, 1)


def test_regular_bound_refuses_a_grid_with_nothing_to_check(compact_osc):
    # the check starts at grid index REGULAR_BOUND_J0, so a grid of that many
    # points would give no row and a vacuous 'yes'
    with pytest.raises(NetError):
        regular_bound_experiment(compact_osc, K01, 0, 1, EpsGrid(count=REGULAR_BOUND_J0))
    rep = regular_bound_experiment(compact_osc, K01, 0, 1, EpsGrid(count=REGULAR_BOUND_J0 + 1))
    assert [r.j for r in rep.rows] == [REGULAR_BOUND_J0]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_regular_bound_rows_do_not_depend_on_the_order_of_k(monkeypatch, threads):
    # every route over one base, n and mollifier reads one store of its
    # orders; k = 5 first forms 0..3 with it, and after them forms 0..3 again
    from colombeau.catalog import REFERENCE_COMPACTS, catalog_net

    monkeypatch.setenv("COLOMBEAU_THREADS", threads)
    grid = EpsGrid(count=14)  # the last two points hit the 20001-point cap on both compacts
    ks = (0, 1, 2, 3, 5)
    for K in REFERENCE_COMPACTS:
        for n in (1, 2, 3):
            ascending, descending = catalog_net("compact_osc"), catalog_net("compact_osc")
            up = {k: regular_bound_experiment(ascending, K, k, n, grid).rows for k in ks}
            down = {k: regular_bound_experiment(descending, K, k, n, grid).rows
                    for k in reversed(ks)}
            for k in ks:
                fresh = regular_bound_experiment(catalog_net("compact_osc"), K, k, n, grid).rows
                assert up[k] == down[k] == fresh, (K, n, k)


def test_regular_bound_rows_do_not_depend_on_the_thread_count(monkeypatch):
    # the eps loop runs through nets.map_eps, one eps per task
    from colombeau.catalog import REFERENCE_COMPACTS, catalog_net

    grid = EpsGrid(count=REGULAR_BOUND_J0 + 6)
    rows = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("COLOMBEAU_THREADS", threads)
        rows[threads] = [regular_bound_experiment(catalog_net("compact_osc"), K, k, n, grid).rows
                         for K in REFERENCE_COMPACTS for k, n in ((0, 1), (2, 2))]
    assert rows["1"] == rows["2"]
    assert all(len(r) == 6 for r in rows["1"])


def test_regular_bound_samples_the_base_once_for_every_k(monkeypatch):
    from colombeau.catalog import catalog_net

    u = catalog_net("compact_osc")  # not the fixture, whose store other tests fill
    calls = []
    real = PsiRouteNet.derivative_batch
    monkeypatch.setattr(PsiRouteNet, "derivative_batch",
                        lambda self, *a: calls.append(a[0]) or real(self, *a))
    grid = EpsGrid(count=REGULAR_BOUND_J0 + 3)
    regular_bound_experiment(u, K01, 2, 1, grid)
    assert calls == [(2,)] * 3  # one block per checked eps, all orders at once
    for k in (0, 1, 3):
        regular_bound_experiment(u, K01, k, 1, grid)
    assert len(calls) == 3
    regular_bound_experiment(u, K01, 2, 2, grid)  # another n samples again
    assert len(calls) == 6


def test_regular_bound_leaves_no_reference_cycle():
    from colombeau.catalog import catalog_net

    u = catalog_net("compact_osc")
    gc.disable()
    try:
        regular_bound_experiment(u, K01, 1, 2, EpsGrid(count=REGULAR_BOUND_J0 + 2))
        ref = weakref.ref(u)
        del u
        assert ref() is None
    finally:
        gc.enable()


def test_psi_route_rejects_unresolvable_base(m32):
    # under t = eps^n s the integrand has s-features of size eps^(hint - n),
    # which no fixed-order rule resolves; both routes must refuse the net
    fast = _net("cutoff(x1)*sin(x1/eps^2)", hint=2, support=CompactBox.interval(-2.0, 2.0))
    with pytest.raises(NetError):
        PsiRouteNet(fast, 1, m32)
    with pytest.raises(NetError):
        regular_bound_experiment(fast, K01, 1, 1)
    assert PsiRouteNet(fast, 2, m32).n == 2  # resolvable once n >= hint


# ---------------------------------------------------------------------------
# dense-class membership
# ---------------------------------------------------------------------------


def test_class_a_constant_yes():
    rep = class_A_membership(_net("1"), 1, [K01], 2)
    assert rep.verdict == "yes"
    assert all(r.ok for r in rep.rows)


def test_class_a_multiscale_no():
    from colombeau.catalog import catalog_net

    rep = class_A_membership(catalog_net("multiscale"), 4, [K01], 6)
    assert rep.verdict == "no"
    bad = [r for r in rep.rows if not r.ok]
    assert {r.k for r in bad} == {5, 6}


class _RefusesSampling(FunctionNet):
    """A 1-d net that fails the test if anything samples it."""

    dimension = 1
    oscillation_hint = 0
    support_box = None

    def derivative_batch(self, alpha, coords, eps):
        raise AssertionError("sampled")


def test_class_a_validation():
    with pytest.raises(NetError):
        class_A_membership(_net("1"), 0, [K01], 2)
    with pytest.raises(NetError):
        class_A_membership(_net("1"), 1.5, [K01], 2)
    # no compact, no evidence
    with pytest.raises(NetError):
        class_A_membership(_net("1"), 1, [], 3)
    # an order outside 0..K_MAX_CAP is refused before anything is sampled
    for k_max in (-1, K_MAX_CAP + 1):
        with pytest.raises(RegularityError):
            class_A_membership(_RefusesSampling(), 1, [K01], k_max)


# ---------------------------------------------------------------------------
# quadrature blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2])
def test_quadrature_blocks_move_no_bit(d, monkeypatch):
    # the package re-exports the function mollify under the module's name
    mollify_module = importlib.import_module("colombeau.mollify")
    rng = np.random.default_rng(5)
    # 64q + 1 points: blocks of 64 points leave a one-point tail, whose sum
    # differs from a long product's last row at some random points
    if d == 1:
        base = _net("cutoff(x1)*sin(x1/eps)", hint=1, support=CompactBox.interval(-2, 2))
        point_sets = [np.linspace(-2.5, 2.5, 18 * 64 + 1)[None, :]]
        point_sets += [rng.uniform(-2.2, 2.2, size=(1, 2 * 64 + 1)) for _ in range(8)]
        alphas = [(0,), (1,), (3,)]
    else:
        base = ExpressionNet(2, parse("cutoff(x1)*sin(x2/eps)*cos(x1)", dimension=2),
                             oscillation_hint=1)
        point_sets = [rng.uniform(-2.2, 2.2, size=(2, 2 * 64 + 1)) for _ in range(3)]
        alphas = [(0, 0), (1, 0), (1, 2)]
    nets = [MollifiedNet(base, 1, build_mollifier(d)), PsiRouteNet(base, 1, build_mollifier(d))]
    m = nets[0]._nodes.shape[1]
    for pts in point_sets:
        # m and 7m + 3 shifted points (the latter ends 3 nodes into a row),
        # the default, and one block for all points
        sizes = [m, 7 * m + 3, mollify_module._EVAL_CHUNK, pts.shape[1] * m]
        for net in nets:
            for alpha in alphas:
                got = []
                for size in sizes:
                    monkeypatch.setattr(mollify_module, "_EVAL_CHUNK", size)
                    got.append(net.derivative_batch(alpha, pts, 2**-4))
                assert all(np.array_equal(g, got[-1]) for g in got), (type(net), alpha)
        # on a block with a memo, the route forms from one pass every
        # multi-index of the asked order and of orders 0..3: the asked values
        # and each stored block max move no bit either
        route = nets[1]
        monkeypatch.setattr(mollify_module, "_EVAL_CHUNK", sizes[2])
        points = Grid(tuple(pts), (pts.shape[1],))  # without a memo: one order per call
        for alpha in alphas:
            single = route.derivative_batch(alpha, points, 2**-4)
            unasked = {(id(route), a): _grid_max(route, a, [points], 2**-4)
                       for k in sorted({sum(alpha), 0, 1, 2, 3})
                       for a in multi_indices(d, k) if a != alpha}
            for size in sizes:
                monkeypatch.setattr(mollify_module, "_EVAL_CHUNK", size)
                memo = LeafMemo(1 << 10)
                kept = Grid(tuple(pts), (pts.shape[1],), memo)
                assert np.array_equal(route.derivative_batch(alpha, kept, 2**-4), single)
                assert memo.maxes == unasked, (alpha, size)
                # every block max is left: a second call forms only the asked one
                assert np.array_equal(route.derivative_batch(alpha, kept, 2**-4), single)
                assert memo.maxes == unasked, (alpha, size)


def test_a_route_folds_non_finite_block_maxes_as_grid_max_does():
    # exp(x1/eps^3) overflows for x1 > 709 eps^3, and the weighted sums
    # there are inf or nan: the masked branch of the block max, folded over
    # the route's blocks of rows
    route = PsiRouteNet(_net("exp(x1/eps^3)"), 1, build_mollifier(1))
    pts = np.linspace(-2.0, 20.0, 3001)
    memo = LeafMemo(1 << 10)
    with np.errstate(all="ignore"):
        route.derivative_batch((0,), Grid.tensor([pts], memo), 0.25)
        want = {(id(route), a): _grid_max(route, a, [Grid.tensor([pts])], 0.25)
                for a in [(1,), (2,), (3,)]}
    assert memo.maxes == want
    assert all(0 < bad < pts.size for _, bad in want.values())


@pytest.mark.parametrize("d", [1, 2])
def test_a_route_inside_a_difference_gives_the_seminorms_of_the_block_path(d):
    # the difference hands the route its own kept blocks, where the route
    # leaves block maxes under its own key; the difference reads none of
    # them, so its seminorms are those of blocks without a memo
    if d == 1:
        u = _net("cutoff(x1)*sin(x1/eps)", hint=1, support=CompactBox.interval(-2, 2))
    else:
        u = ExpressionNet(2, parse("cutoff(x1)*sin(x2/eps)*cos(x1)", dimension=2),
                          oscillation_hint=1, support_box=CompactBox.of([(-2.0, 2.0)] * 2))
    diff = DifferenceNet(PsiRouteNet(u, 1, build_mollifier(d)), u)
    K = CompactBox.of([(0.0, 1.0)] * d)
    ((axes, _),) = _Sweep(diff, K, 0.5, Sampling()).regions
    for k in range(5):
        blocks = [_grid_max(diff, a, _grid_chunks(axes, _CHUNK), 0.5) for a in multi_indices(d, k)]
        got = seminorm(diff, k, K, 0.5)
        assert got.ln_value == math.log(max(best for best, _ in blocks)), k
        assert got.nonfinite == sum(bad for _, bad in blocks) == 0, k
