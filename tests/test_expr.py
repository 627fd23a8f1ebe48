import gc
import math
import random
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colombeau.expr import (
    Add,
    Bump,
    Const,
    Cos,
    Cutoff,
    Div,
    EpsPow,
    EvaluationError,
    Exp,
    ExpressionError,
    Grid,
    IntPow,
    LeafMemo,
    Mul,
    ParseError,
    Sin,
    SizeCapError,
    Sub,
    Var,
    differentiate,
    eval_batch,
    evaluate,
    node_count,
    parse,
    separable_argmax,
    shifted_sums,
    simplify,
    to_text,
)
from colombeau.expr import quadrature, special
from colombeau.expr.evaluate import _Walk
from colombeau.mollify import build_mollifier
from colombeau.nets import map_eps
from colombeau.expr.parser import MAX_NESTING

from raw_trees import central_diff, random_expr


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic_forms():
    assert parse("1") == Const(1.0)
    assert parse("eps") == EpsPow(Fraction(1))
    assert parse("x1") == Var(0)
    assert parse("eps^(3/2)") == EpsPow(Fraction(3, 2))
    assert parse("eps^(-1)") == EpsPow(Fraction(-1))
    assert parse("eps^4") == EpsPow(Fraction(4))
    assert parse("(eps)^(3/2)") == EpsPow(Fraction(3, 2))
    # folds to 0 without numpy's overflow warning from squaring 1e200
    assert parse("bump(1e200)") == Const(0.0)


def test_parse_division_by_eps_becomes_negative_power():
    e = parse("sin(x1/eps)")
    assert e == Sin(Mul((Var(0), EpsPow(Fraction(-1)))))


def test_parse_precedence():
    assert parse("2*x1 + 1") == Add((Mul((Const(2.0), Var(0))), Const(1.0)))
    # unary minus binds tighter than +
    assert evaluate(parse("-x1 + 2"), (1.0,), 0.5) == 1.0
    assert evaluate(parse("2 - 3 - 1"), (0.0,), 0.5) == -2.0
    assert evaluate(parse("2*3^2"), (0.0,), 0.5) == 18.0


def test_parse_dimension_check():
    parse("x1 + x2", dimension=2)
    with pytest.raises(ParseError):
        parse("x2", dimension=1)
    with pytest.raises(ParseError):
        parse("x4", dimension=3)


@pytest.mark.parametrize(
    "bad",
    ["", "sin()", "1 +", "bogus(x1)", "x1^(1/2)", "eps^", "((1)", "1 ** 2", "x0"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_fractional_power_only_on_eps():
    with pytest.raises(ParseError):
        parse("(x1+1)^(1/2)")
    assert parse("eps^(1/2)") == EpsPow(Fraction(1, 2))


def test_round_trip_catalog_expressions():
    specs = [
        "sin(x1/eps)",
        "eps^(-4)*sin(x1)",
        "eps^(-1)*bump(x1/eps)",
        "1",
        "eps^64*sin(x1*eps^(-16))",
        "cutoff(x1)*sin(x1/eps)",
        "x1^3 - 2*x1*eps^(1/2) + exp(cos(x1))",
    ]
    for s in specs:
        e = parse(s)
        text = to_text(e)
        again = parse(text)
        assert again == e, s
        assert to_text(again) == text, s


def test_a_derivative_of_a_cutoff_or_bump_renders_beyond_the_grammar():
    # the grammar has no name for a cutoff or bump derivative; to_text names
    # it, and parse refuses the name
    text = to_text(differentiate(parse("cutoff(x1)*bump(x1)"), 0))
    assert text == "cutoff_d1(x1)*bump(x1) + cutoff(x1)*bump_d1(x1)"
    with pytest.raises(ParseError, match="unknown identifier 'cutoff_d1'"):
        parse(text)


def test_raw_nodes_refuse_parameters_the_grammar_cannot_produce():
    # an index, an order or a power the grammar cannot write would evaluate
    # to a wrong value or fail with a foreign error
    x1 = Var(0)
    for make in (Var, lambda v: Bump(x1, v), lambda v: Cutoff(x1, v)):
        for bad in (-1, True, 0.5, 1.5, "1"):
            with pytest.raises(ExpressionError, match="must be an integer"):
                make(bad)
    for bad in (True, 1.5, Fraction(2), "2"):
        with pytest.raises(ExpressionError, match="must be an integer"):
            IntPow(x1, bad)
    # a numpy integer is kept as the int it stands for
    assert type(Cutoff(x1, np.int64(2)).order) is int
    assert type(Var(np.int64(1)).index) is int
    assert IntPow(x1, np.int64(-2)) == IntPow(x1, -2)
    assert to_text(IntPow(x1, np.int64(3))) == "x1^3"


# ---------------------------------------------------------------------------
# simplification normal form
# ---------------------------------------------------------------------------


def test_simplify_merges_eps_powers():
    e = simplify(Mul((EpsPow(Fraction(-3)), Var(0), EpsPow(Fraction(2)))))
    assert e == Mul((EpsPow(Fraction(-1)), Var(0)))


def test_simplify_zero_annihilates():
    e = simplify(Mul((Const(0.0), Sin(Mul((Var(0), EpsPow(Fraction(-1000))))))))
    assert e == Const(0.0)


def test_zero_folds_only_against_provably_finite_partners():
    # 0/0 and 0*(1/0) are nan, not 0; a zero still absorbs a finite partner
    assert parse("0/(eps-eps)") != Const(0.0)
    assert parse("x1*0/(1-1)") != Const(0.0)
    assert parse("0*(1/(eps-eps))") != Const(0.0)
    assert parse("0*x1^(-1)") != Const(0.0)  # x1 can be 0
    for text in ("0*sin(x1)", "0/eps", "0/(2*eps^3)", "0*x1/2"):
        assert parse(text) == Const(0.0), text
    from colombeau.nets import CompactBox, ExpressionNet, seminorm

    net = ExpressionNet(1, parse("0/(eps-eps)"))
    assert seminorm(net, 0, CompactBox.interval(0.0, 1.0), 0.25).nonfinite > 0


def test_simplify_folds_constants():
    assert simplify(Add((Const(1.0), Const(2.0), Var(0)))) == Add((Const(3.0), Var(0)))
    assert simplify(IntPow(EpsPow(Fraction(1, 2)), 4)) == EpsPow(Fraction(2))
    assert simplify(EpsPow(Fraction(0))) == Const(1.0)


def test_simplify_idempotent_on_random_trees():
    rng = random.Random(3)
    for _ in range(50):
        e = random_expr(rng, 4)
        s = simplify(e)
        assert simplify(s) == s


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def test_derivative_of_scaled_sine():
    # d/dx1 sin(x1/eps) = cos(x1/eps) * eps^(-1)
    e = parse("sin(x1/eps)")
    d = differentiate(e, 0)
    assert d == Mul((Cos(Mul((Var(0), EpsPow(Fraction(-1))))), EpsPow(Fraction(-1))))


def test_derivative_eps_is_constant():
    assert differentiate(parse("eps^(-7)"), 0) == Const(0.0)


def test_derivative_bump_raises_order():
    d = differentiate(Bump(Var(0)), 0)
    assert d == Bump(Var(0), order=1)
    d2 = differentiate(d, 0)
    assert d2 == Bump(Var(0), order=2)


def test_derivative_product_and_quotient():
    e = parse("x1*x1")
    assert evaluate(differentiate(e, 0), (3.0,), 0.5) == pytest.approx(6.0)
    q = Div(Const(1.0), Add((Const(1.0), IntPow(Var(0), 2))))
    # d/dx 1/(1+x^2) = -2x/(1+x^2)^2
    got = evaluate(differentiate(q, 0), (2.0,), 0.5)
    assert got == pytest.approx(-4.0 / 25.0)


def test_derivative_wrong_variable_is_zero():
    e = parse("sin(x1)", dimension=2)
    assert differentiate(e, 1) == Const(0.0)


def test_derivative_index_validation():
    with pytest.raises(ValueError):
        differentiate(parse("x1"), 3)


def test_size_cap_enforced():
    e = parse("exp(exp(exp(x1*x1*x1*x1)))")
    with pytest.raises(SizeCapError):
        d = e
        for _ in range(12):
            d = differentiate(d, 0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_scalar_and_batch_agree():
    e = parse("eps^(-2)*sin(x1/eps) + x1^2")
    xs = np.linspace(-1, 1, 7)
    batch = eval_batch(e, xs[None, :], 0.25)
    for x, v in zip(xs, batch):
        assert evaluate(e, (x,), 0.25) == v


def test_evaluate_validates_inputs():
    from colombeau.expr import ExpressionError

    with pytest.raises(ExpressionError):
        evaluate(parse("x1"), (0.0,), 1.5)
    with pytest.raises(ExpressionError):
        evaluate(parse("x2", dimension=2), (0.0,), 0.5)
    with pytest.raises(ExpressionError):
        evaluate(parse("x1"), (math.nan,), 0.5)
    # extra trailing coordinates are tolerated
    assert evaluate(parse("x1"), (3.0, 99.0), 0.5) == 3.0


def test_zero_factor_short_circuits_unevaluable_partner():
    # bump vanishes at |t| >= 1, so the product must be exactly 0 even though
    # the other factor overflows there.
    e = parse("bump(x1)*exp(eps^(-1)*x1)")
    assert evaluate(e, (2.0,), 1e-3) == 0.0
    vals = eval_batch(e, np.array([[2.0, 3.0, 0.0]]), 1e-3)
    assert vals[0] == 0.0 and vals[1] == 0.0
    assert vals[2] == pytest.approx(math.exp(-1.0))


@pytest.mark.parametrize(
    "text", ["0*(1/(eps-eps))", "(1/(eps-eps))*0", "0/(eps-eps)", "(eps-eps)*(1/(eps-eps))"]
)
def test_zero_factor_does_not_hide_a_factor_nonfinite_everywhere(text):
    # an exact zero skips factors that depend on x, but 0 times a factor that
    # is non-finite at every point is nan, as 0/0 is
    from colombeau.nets import CompactBox, ExpressionNet, seminorm

    assert np.isnan(eval_batch(parse(text), np.array([[0.0, 0.5, 2.0]]), 0.25)).all()
    v = seminorm(ExpressionNet(1, parse(text)), 0, CompactBox.interval(0.0, 1.0), 0.25)
    assert (v.ln_value, v.nonfinite) == (-math.inf, 33)


def test_nonfinite_evaluation_raises():
    e = parse("exp(x1*eps^(-1))")
    with pytest.raises(EvaluationError):
        evaluate(e, (1.0,), 1e-4)


@pytest.mark.parametrize(
    "text, value",
    [
        ("1/sin(0)", math.inf),
        ("eps^(-1)/(1-1)", math.inf),
        ("1/(eps-eps)", math.inf),
        ("-1/(1-1)", -math.inf),
    ],
)
def test_spatially_constant_division_by_zero_is_ieee(text, value):
    # a scalar quotient divides as an array one does: eval_batch returns the
    # inf for the caller to flag, evaluate reports it
    e = simplify(parse(text))
    assert eval_batch(e, np.zeros((1, 3)), 0.5).tolist() == [value] * 3
    with pytest.raises(EvaluationError):
        evaluate(e, (1.0,), 0.5)


def test_eval_batch_shape_validation():
    from colombeau.expr import ExpressionError

    with pytest.raises(ExpressionError):
        eval_batch(parse("x1"), np.zeros(5), 0.5)
    with pytest.raises(ExpressionError):
        eval_batch(parse("x2", dimension=2), np.zeros((1, 5)), 0.5)


# ---------------------------------------------------------------------------
# the evaluator against a naive recursive reference
# ---------------------------------------------------------------------------


def _naive_eval(e, coords, eps):
    """Walk the tree once per occurrence of each node: the reference semantics."""
    f = lambda c: _naive_eval(c, coords, eps)
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return coords[e.index]
    if isinstance(e, EpsPow):
        return float(np.float64(eps) ** float(e.exponent))
    if isinstance(e, Add):
        acc = f(e.children[0])
        for c in e.children[1:]:
            acc = acc + f(c)
        return acc
    if isinstance(e, Sub):
        return f(e.left) - f(e.right)
    if isinstance(e, Mul):
        factors, zero_mask = [], None
        for c in e.children:
            v = f(c)
            if np.ndim(v) == 0:
                if v == 0.0:
                    return 0.0
            else:
                m = v == 0.0
                if m.any():
                    zero_mask = m if zero_mask is None else (zero_mask | m)
            factors.append(v)
        acc = factors[0]
        for v in factors[1:]:
            acc = acc * v
        return acc if zero_mask is None else np.where(zero_mask, 0.0, acc)
    if isinstance(e, Div):
        return f(e.num) / f(e.den)
    if isinstance(e, IntPow):
        base = f(e.base)
        if np.ndim(base) == 0:
            try:
                return float(base) ** e.exponent
            except (OverflowError, ZeroDivisionError):
                return math.inf if base != 0.0 else math.nan
        return base ** float(e.exponent)
    if isinstance(e, Sin):
        return np.sin(f(e.arg))
    if isinstance(e, Cos):
        return np.cos(f(e.arg))
    if isinstance(e, Exp):
        v = f(e.arg)
        if np.ndim(v) == 0:
            try:
                return math.exp(float(v))
            except OverflowError:
                return math.inf
        return np.exp(v)
    order_fn = special.bump_deriv_values if isinstance(e, Bump) else special.cutoff_deriv_values
    return order_fn(e.order, np.atleast_1d(np.asarray(f(e.arg), dtype=float)))


def _naive_batch(e, coords, eps):
    with np.errstate(all="ignore"):
        v = _naive_eval(e, coords, eps)
    return np.full(coords.shape[1], float(v)) if np.ndim(v) == 0 else np.asarray(v, float)


def _catalog_trees(k_max=6):
    from colombeau.catalog import CATALOG, catalog_net

    for name in CATALOG:
        net = catalog_net(name)
        for k in range(k_max + 1):
            yield f"{name} k={k}", net.derivative_expr((k,))


# support seams of cutoff (|t| = 1, 2) and of bump(x1/eps) (|x1| = eps)
_SEAMS = (-2.0, -1.0, 1.0, 2.0)


@pytest.mark.parametrize("eps", [0.5, 0.125, 1 / 1024])
def test_eval_batch_matches_naive_on_catalog_trees(eps):
    x = np.concatenate([
        np.linspace(-2.5, 2.5, 2001),
        _SEAMS,
        [eps * s for s in (-1.0, 1.0)],
        np.nextafter(_SEAMS, 0.0),
        np.nextafter(_SEAMS, np.copysign(np.inf, _SEAMS)),
    ])[None, :]
    for label, e in _catalog_trees():
        got = eval_batch(e, x, eps)
        assert np.array_equal(got, _naive_batch(e, x, eps), equal_nan=True), label


def test_eval_batch_matches_naive_on_2d_tree():
    from colombeau.nets import ExpressionNet, multi_indices

    net = ExpressionNet(
        2, parse("cutoff(x1)*bump(x2/2)*sin(x1/eps)*cos(x2*x1)", dimension=2), 1
    )
    g = np.linspace(-2.25, 2.25, 37)
    coords = np.stack([m.ravel() for m in np.meshgrid(g, g, indexing="ij")])
    for k in range(5):
        for alpha in multi_indices(2, k):
            e = net.derivative_expr(alpha)
            got = eval_batch(e, coords, 0.3)
            assert np.array_equal(got, _naive_batch(e, coords, 0.3), equal_nan=True), alpha


# ---------------------------------------------------------------------------
# tensor grids: each subtree on the axes it uses
# ---------------------------------------------------------------------------

_LEAF_CONSTS = (Const(0.0), Const(-0.0), Const(1.5), Const(-2.0), EpsPow(Fraction(1)),
                EpsPow(Fraction(-1)), EpsPow(Fraction(1, 2)))


def _grow(sub):
    pairs = st.lists(sub, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        sub.map(Sin), sub.map(Cos), sub.map(Exp),
        st.builds(Bump, sub, st.integers(0, 2)),
        st.builds(Cutoff, sub, st.integers(0, 2)),
        st.builds(Div, sub, sub),
        st.builds(IntPow, sub, st.sampled_from([-2, -1, 2])),
        st.builds(Sub, sub, sub), pairs.map(Mul), pairs.map(Add),
    )


_TREES: dict = {}  # tree strategy per tuple of used axes; at most 10 of them


def _trees(used: tuple[int, ...]):
    """Trees over the axes in used, a strategy built once per axis set."""
    if used not in _TREES:
        leaves = st.one_of(st.sampled_from(used).map(Var), st.sampled_from(_LEAF_CONSTS))
        _TREES[used] = st.recursive(leaves, _grow, max_leaves=10)
    return _TREES[used]


@st.composite
def _grid_cases(draw):
    """(tree, Grid, eps): a tree over some of the d axes, d in {2, 3}."""
    d = draw(st.sampled_from([2, 3]))
    used = tuple(sorted(draw(st.sets(st.integers(0, d - 1), min_size=1))))
    tree = draw(_trees(used))
    # support seams of bump and cutoff, and 0 for the negative powers
    point = st.one_of(st.sampled_from([0.0, -1.0, 1.0, -2.0, 2.0]),
                      st.floats(-2.5, 2.5, allow_nan=False))
    axes = [draw(st.lists(point, min_size=1, max_size=5)) for _ in range(d)]
    return tree, Grid.tensor(axes), draw(st.sampled_from([0.5, 0.3, 1 / 1024]))


def _same_on_flat_points(e, grid, eps):
    got = eval_batch(e, grid, eps)
    flat = np.asarray(grid)
    assert got.shape == (flat.shape[1],)
    return np.array_equal(got, eval_batch(e, flat, eps), equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(_grid_cases())
def test_grid_evaluation_equals_flat_points(case):
    e, grid, eps = case
    assert _same_on_flat_points(e, grid, eps), to_text(e)


@st.composite
def _separable_cases(draw):
    """(product of one-axis factors, one run per axis, a constant anywhere;
    tensor Grid; eps), d in {2, 3}."""
    d = draw(st.sampled_from([2, 3]))
    factors = []
    for axis in draw(st.permutations(range(d)))[: draw(st.integers(1, d))]:
        factors += draw(st.lists(_trees((axis,)), min_size=1, max_size=3))
    factors.insert(draw(st.integers(0, len(factors))), draw(st.sampled_from(_LEAF_CONSTS)))
    # ties of opposite sign come from symmetric points
    point = st.one_of(st.sampled_from([0.0, -1.0, 1.0, -2.0, 2.0]),
                      st.floats(-2.5, 2.5, allow_nan=False))
    axes = [draw(st.lists(point, min_size=1, max_size=6)) for _ in range(d)]
    return Mul(tuple(factors)), Grid.tensor(axes), draw(st.sampled_from([0.5, 0.3, 1 / 1024]))


@settings(max_examples=200, deadline=None)
@given(_separable_cases())
# x1*0 is cut short to a scalar 0, so a factor that reads x1 is a scalar
@example((Mul((Const(1.5), Exp(Exp(Mul((Var(0), Const(0.0))))))),
          Grid.tensor([[0.0, 1.0, -2.0], [-1.0, 2.0]]), 0.5))
def test_separable_argmax_is_the_grid_max_at_its_index(case):
    e, grid, eps = case
    found = separable_argmax(e, grid, eps)
    if found is None:
        return  # not finite: the caller samples every point instead
    index, best = found
    values = np.abs(eval_batch(e, grid, eps))
    assert np.all(np.isfinite(values)), to_text(e)
    assert best == values.max() == values[np.ravel_multi_index(index, grid.block)], to_text(e)


def test_separable_argmax_needs_one_axis_runs_and_a_tensor_grid():
    grid = Grid.tensor([np.linspace(-1, 1, 3), np.linspace(0, 2, 4)])
    x1, x2 = Var(0), Var(1)
    for e in (Mul((Sin(x1), Cos(x2), Cos(x1))), Cos(Mul((x1, x2))), Add((x1, x2))):
        assert separable_argmax(e, grid, 0.5) is None, to_text(e)
    # |sin| ties at x1 = -1 and 1; the first is the witness
    assert separable_argmax(Mul((Sin(x1), Cos(x2))), grid, 0.5) == ((0, 0), math.sin(1.0))
    with pytest.raises(ExpressionError):
        separable_argmax(x1, Grid(np.zeros((2, 5)), (5,)), 0.5)


def test_grid_evaluation_of_partial_and_constant_trees():
    grid = Grid.tensor([np.linspace(-1, 1, 3), np.linspace(0, 2, 4), np.linspace(-2, 1, 5)])
    only_x2 = parse("sin(x2/eps)*cutoff(x2)", dimension=3)
    assert eval_batch(only_x2, grid, 0.5).shape == (60,)
    assert _same_on_flat_points(only_x2, grid, 0.5)
    constant = Mul((Sin(EpsPow(Fraction(-1))), Const(3.0)))  # a scalar root
    assert _same_on_flat_points(constant, grid, 0.5)
    assert np.all(eval_batch(constant, grid, 0.5) == 3.0 * math.sin(2.0))


def test_nonfinite_values_are_counted_over_the_whole_grid():
    from colombeau.nets import CompactBox, ExpressionNet, seminorm

    net = ExpressionNet(2, parse("1/x2", dimension=2), 0)
    v = seminorm(net, 0, CompactBox.of([(0.0, 1.0), (-1.0, 1.0)]), 0.5)
    n1, n2 = v.points_per_axis
    assert 0.0 in np.linspace(-1.0, 1.0, n2)
    assert v.nonfinite == n1  # x2 = 0 on one point of every row


def test_constant_bump_and_cutoff_values_fill_the_batch():
    # bump or cutoff of eps alone is a one-value array; it must still give
    # one value, and one non-finite count, per point, as 1/(eps-eps) does
    from colombeau.nets import CompactBox, ExpressionNet, seminorm

    assert eval_batch(parse("bump(eps)"), np.zeros((1, 5)), 0.5).shape == (5,)
    net = ExpressionNet(1, parse("1/(cutoff(eps)-1)"), 0)
    assert seminorm(net, 0, CompactBox.interval(0.0, 1.0), 0.5).nonfinite == 33


def test_signed_zero_constants_stay_distinct():
    # 0.0 == -0.0, but x/0.0 and x/-0.0 are infinities of opposite sign
    e = Sub(Div(Var(0), Const(0.0)), Div(Var(0), Const(-0.0)))
    x = np.ones((1, 3))
    assert np.array_equal(eval_batch(e, x, 0.5), _naive_batch(e, x, 0.5))
    assert np.all(eval_batch(e, x, 0.5) == math.inf)


def test_leaf_memo_keys_keep_signed_zeros_and_int_constants_apart():
    # nodes built directly: parse and simplify would fold these constants
    axis = np.array([-1.5, -0.0, 0.0, 0.25, 2.0])
    pairs = [
        (Sin(Mul((Var(0), Const(0.0)))), Sin(Mul((Var(0), Const(-0.0))))),
        (Exp(Div(Var(0), Const(0.0))), Exp(Div(Var(0), Const(-0.0)))),  # exp(+-inf)
        (Cutoff(Add((Var(0), Const(1)))), Cutoff(Add((Var(0), Const(1.0))))),
    ]
    memo = LeafMemo(1 << 10)
    shared = Grid.tensor([axis], memo)
    for pair in pairs:
        for e in pair:
            got = eval_batch(e, shared, 0.5)
            want = eval_batch(e, Grid.tensor([axis]), 0.5)
            assert np.array_equal(got, want, equal_nan=True), to_text(e)
            assert np.array_equal(np.signbit(got), np.signbit(want)), to_text(e)
    assert len(memo.values) == 6  # no pair shares a key
    arrays = [v for v in memo.values.values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 4  # sin(x*0.0) is a scalar
    assert all(not v.flags.writeable for v in arrays)
    with pytest.raises(ValueError):
        arrays[0][0] = 1.0


def test_leaf_memo_serves_later_trees_and_skips_their_arguments(cutoff_calls):
    orders, tops, _ = cutoff_calls
    axis = np.linspace(-2.5, 2.5, 11)
    shared = Grid.tensor([axis], LeafMemo(1 << 10))
    first = parse("cutoff(x1)*sin(x1/eps)")
    eval_batch(first, shared, 0.5)
    assert orders == [0] and tops == []
    orders.clear()
    d1 = differentiate(first, 0)
    got = eval_batch(d1, shared, 0.5)
    # cutoff(x1) and sin(x1/eps) come from the memo: one build, for cutoff_d1
    assert orders == [] and tops == [1]
    assert np.array_equal(got, eval_batch(d1, Grid.tensor([axis]), 0.5))
    # another eps is another key
    orders.clear()
    tops.clear()
    eval_batch(first, shared, 0.25)
    assert orders == [0] and tops == []


def test_an_evaluation_leaves_no_cycle_that_keeps_its_grid_alive():
    # reference counting alone frees the grid and its leaf values: state in a
    # reference cycle would keep them until the cyclic collector ran
    e = parse("cutoff(x1)*sin(x1/eps)")
    for _ in range(3):
        e = differentiate(e, 0)
    grid = Grid.tensor([np.linspace(-2.5, 2.5, 101)], LeafMemo(1 << 12))
    gc.disable()
    try:
        eval_batch(e, grid, 0.5)
        refs = [weakref.ref(grid)] + [weakref.ref(v) for v in grid.memo.values.values()]
        assert len(refs) == 7  # cutoff of orders 0..3, sin and cos
        del grid
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_a_tree_too_deep_for_the_walk_raises_an_expression_error():
    # built directly: parse refuses such nesting, and simplify would recurse
    e = Var(0)
    for _ in range(sys.getrecursionlimit()):
        e = Sin(e)
    with pytest.raises(ExpressionError, match="nested too deeply"):
        evaluate(e, (0.5,), 0.5)
    with pytest.raises(ExpressionError, match="nested too deeply"):
        eval_batch(e, np.array([[0.1, 0.2]]), 0.5)


def test_a_tree_too_deep_to_differentiate_raises_an_expression_error():
    # 600 levels: simplify and ExpressionNet accept the tree, _diff's recursion does not
    from colombeau.nets import CompactBox, ExpressionNet, seminorm

    e = Var(0)
    for _ in range(600):
        e = Sin(e)
    with pytest.raises(ExpressionError, match="nested too deeply to differentiate"):
        differentiate(e, 0)
    with pytest.raises(ExpressionError, match="nested too deeply to differentiate"):
        seminorm(ExpressionNet(1, e), 1, CompactBox.interval(0.0, 1.0), 0.5)


def _nested(units, depth):
    # depth nesting levels that cycle through units, each an opening
    # (bracket or function call) or a unary minus
    opens = [units[i % len(units)] for i in range(depth)]
    return "".join(opens) + "x1" + ")" * sum(u.endswith("(") for u in opens)


@pytest.mark.parametrize("units", [["sin("], ["("], ["-"], ["-", "("], ["cos(", "-", "exp("]])
def test_parser_nesting_limit(units):
    at = parse(_nested(units, MAX_NESTING))
    assert math.isfinite(evaluate(at, (0.5,), 0.5))
    past = _nested(units, MAX_NESTING + 1)
    with pytest.raises(ParseError, match="nesting") as err:
        parse(past)
    # reported at the bracket or minus sign one level too deep
    assert err.value.position == past.index("x1") - 1


def test_leaf_memo_stops_storing_at_its_limit():
    axis = np.linspace(0.0, 1.0, 8)
    memo = LeafMemo(20)
    shared = Grid.tensor([axis], memo)
    e = parse("sin(x1) + cos(x1) + exp(x1)")
    assert np.array_equal(eval_batch(e, shared, 0.5), eval_batch(e, Grid.tensor([axis]), 0.5))
    assert memo.size == 16 and len(memo.values) == 2


def test_each_distinct_subtree_is_evaluated_once(cutoff_calls):
    from colombeau.catalog import catalog_net

    orders, tops, _ = cutoff_calls
    e = catalog_net("compact_osc").derivative_expr((6,))
    assert node_count(e) == 548  # 2^6 product-rule terms over 8 distinct factors
    x = np.linspace(-2.5, 2.5, 101)[None, :]
    eval_batch(e, x, 0.1)
    # the closed form for cutoff(x1), one jet build for its orders 1..6
    assert orders == [0] and tops == [6]
    orders.clear()
    tops.clear()
    eval_batch(e, x, 0.1)  # the compiled plan is reused, the values are not
    assert orders == [0] and tops == [6]


def test_shared_cutoff_jets_keep_every_bit_of_per_leaf_builds(monkeypatch):
    from colombeau.catalog import catalog_net
    from colombeau.mollify import mollify

    tree = catalog_net("compact_osc").derivative_expr((6,))
    # two arguments, each read first by a leaf below its top order
    x1, twice = Var(0), Mul((Const(2.0), Var(0)))
    mixed = Add((Cutoff(x1, 1), Mul((Cutoff(twice, 2), Cutoff(x1, 3), Cutoff(twice, 5)))))
    leaf = Cutoff(x1, 3)  # a root that reads the jets
    net = mollify(catalog_net("compact_osc"), 2)  # flattened blocks, no LeafMemo
    x = np.linspace(-2.5, 2.5, 201)[None, :]

    def values():
        # on a kept Grid, mixed takes its leaves over x1 from the LeafMemo
        kept = Grid.tensor([x[0]], LeafMemo(1 << 16))
        got = [eval_batch(e, grid, eps) for grid in (x, kept)
               for e in (tree, mixed, leaf) for eps in (0.5, 0.1)]
        got += [net.derivative_batch((k,), x, eps) for k in range(5) for eps in (0.5, 0.25)]
        return [v.tobytes() for v in got]

    real = special.cutoff_jets

    def per_leaf(top, t):
        # each row from its own build to its order, as every cutoff leaf
        # built its jets before one build served a walk
        return real(top, t)[0], [real(k, t)[1][k] for k in range(top + 1)]

    shared = values()
    monkeypatch.setattr(special, "cutoff_jets", per_leaf)
    assert values() == shared


@pytest.mark.parametrize("case", ["computed", "skipped", "from_memo"])
def test_cutoff_jets_go_with_their_last_reader(monkeypatch, case):
    # the jets over x1 are read by cutoff_d1(x1) and then by cutoff_d2(x1),
    # which is computed, skipped after a scalar zero, or taken from the
    # LeafMemo; the order-0 cutoff after them must find the jets freed
    x1 = Var(0)
    reader = (Sin(Const(0.0)), Cutoff(x1, 2)) if case == "skipped" else (Cutoff(x1, 2),)
    e = Add((Mul((Cutoff(x1, 1),) + reader), Cutoff(Mul((Const(2.0), x1)), 0)))
    grid = Grid.tensor([np.linspace(-2.5, 2.5, 11)],
                       LeafMemo(1 << 10) if case == "from_memo" else None)
    if case == "from_memo":
        eval_batch(Cutoff(x1, 2), grid, 0.5)
    rows, freed = [], []
    jets, values = special.cutoff_jets, special.cutoff_deriv_values

    def spy_jets(top, t):
        band, got = jets(top, t)
        rows.append(weakref.ref(got))
        return band, got

    def observer(order, t):
        freed.append([r() is None for r in rows])
        return values(order, t)

    monkeypatch.setattr(special, "cutoff_jets", spy_jets)
    monkeypatch.setattr(special, "cutoff_deriv_values", observer)
    eval_batch(e, grid, 0.5)
    assert freed == [[True]]


def _shifted_case(d):
    rng = np.random.default_rng(d)
    rows, offsets = rng.uniform(-2.0, 2.0, (d, 48)), rng.uniform(-0.5, 0.5, (d, 32))
    points = (rows[:, :, None] - offsets[:, None, :]).reshape(d, -1)
    return rows, offsets, points


@pytest.mark.parametrize("d, text", [(1, "x1/eps"), (1, "x1*eps^(-2)"), (1, "(x1-0.3)/0.7"),
                                     (2, "(x1+2*x2)/eps")])
def test_shifted_grid_splits_sin_and_cos_of_an_affine_argument(d, text):
    # sin(A_j - B_q) = sin A_j cos B_q - cos A_j sin B_q, A the argument on
    # the rows and B its linear part on the offsets: each value is within the
    # argument's rounding of np.sin at the materialised point
    rows, offsets, points = _shifted_case(d)
    assert np.asarray(Grid.shifted(rows, offsets)).tobytes() == points.tobytes()
    arg = simplify(parse(text, dimension=d))
    for eps in (0.5, 2.0**-10, 2.0**-20):
        flat = eval_batch(arg, points, eps)
        tol = 4 * 2.0**-52 * (1 + np.max(np.abs(flat)))
        for kind, ref in ((Sin, np.sin), (Cos, np.cos)):
            grid = Grid.shifted(rows, offsets)
            got = eval_batch(kind(arg), grid, eps)
            assert got.shape == (points.shape[1],)
            assert np.max(np.abs(got - ref(flat))) <= tol, (kind, eps)
            assert grid.coords == [None] * d  # the shifted points were never formed


def test_a_split_on_some_rows_gives_each_row_its_bits_in_the_whole_block():
    # a class is walked on its own rows: the split's einsum must round a
    # point alike whatever number of rows it runs over
    rows, offsets, _ = _shifted_case(2)
    e = simplify(parse("sin((x1+2*x2)/eps)*cos(x1/eps)", dimension=2))
    for eps in (0.5, 2.0**-10):
        whole = eval_batch(e, Grid.shifted(rows, offsets), eps).reshape(rows.shape[1], -1)
        for some in ([0], [5, 6], [1, 7, 9], list(range(3, 40)), list(range(0, 48, 3))):
            got = eval_batch(e, Grid.shifted(rows[:, some], offsets), eps)
            assert got.tobytes() == whole[some].tobytes(), (eps, some)


@pytest.mark.parametrize("d, text", [(1, "exp(x1/eps)"), (1, "sin(x1^2/eps)"), (1, "cutoff(x1)"),
                                     (2, "exp(x1/eps)*cutoff(x2)*bump(x1+x2)")])
def test_shifted_grid_keeps_every_bit_of_the_leaves_it_does_not_split(d, text):
    rows, offsets, points = _shifted_case(d)
    e = simplify(parse(text, dimension=d))
    for eps in (0.5, 2.0**-10, 2.0**-20):
        got = eval_batch(e, Grid.shifted(rows, offsets), eps)
        assert got.tobytes() == eval_batch(e, points, eps).tobytes(), eps


def _cutoff_row_blocks(d):
    # offsets that are exact binary fractions put shifted points exactly on
    # the seams +-1 and +-2; the rows lie on the plateau, outside the
    # support, across the band, or touch a seam from either side
    seams = np.array([-3.0, -2.25, -1.75, -1.25, -0.75, 0.0, 0.75, 1.1, 1.25, 1.75, 2.25, 3.0])
    offsets = np.linspace(-0.25, 0.25, 5)
    blocks = [np.array([-0.5, 0.0, 0.5]), np.array([-3.0, 2.5, 4.0]), seams]
    blocks = [(np.stack([b, b[::-1] / 2][:d]), np.stack([offsets, offsets / 2][:d])) for b in blocks]
    return blocks + [_shifted_case(d)[:2]]


_SEAM_CUTOFFS = [(1, "cutoff(x1)"), (1, "cutoff((x1-0.3)/0.7)"), (1, "cutoff((0.3-x1)/0.7)"),
                 (1, "cutoff(x1/(-0.5))"), (2, "cutoff(x1+2*x2)")]


@pytest.mark.parametrize("d, text, k", [(d, text, k) for d, text in _SEAM_CUTOFFS for k in range(4)] + [
    (1, "cutoff(x1)*exp(x1/eps)", 0),
    (1, "cutoff(x1-0.3)*(x1-0.3)^2", 0),  # the argument has a second reader
    (1, "cutoff(x1)*cutoff(x1/2)", 1),  # an order-1 cutoff beside the order-0 one
    (1, "cutoff(x1)*eps^(-400)", 0),  # inf times the exact zeros outside the support
    (1, "cutoff(x1*eps^(-2000))", 0),  # an inf slope: no bounds, the whole block is band
    (2, "cutoff(x1)*cutoff(x2)*exp(x2/eps)", 0),
])
def test_shifted_cutoff_rows_keep_every_bit(d, text, k):
    # a class walks its rows with the cutoffs it holds off the band settled,
    # which keeps the flat bits; with weights of a few binary digits the
    # separable sums of 1.0 and 0.0 are exact too, so every row's sums are
    # the row-local rule's on the flat values
    e = simplify(parse(text, dimension=d))
    for _ in range(k):
        e = simplify(differentiate(e, 0))
    for rows, offsets in _cutoff_row_blocks(d):
        m = offsets.shape[1]
        weights = [(np.arange(m) - m // 2) / 4.0, np.full(m, 0.125)]
        for eps in (0.5, 2.0**-10):
            got = shifted_sums(e, rows, offsets, eps, weights)
            assert got.tobytes() == _flat_sums(e, rows, offsets, eps, weights).tobytes(), (rows, eps)


def _flat_sums(e, rows, offsets, eps, weights):
    # the flat quadrature: eval_batch on a shifted Grid of the rows, whose
    # values keep the bits of the formed points but for split sin and cos
    # leaves, each row summed against each weight vector by the row-local
    # rule, numpy's einsum loop
    vals = eval_batch(e, Grid.shifted(rows, offsets), eps).reshape(rows.shape[1], -1)
    with np.errstate(all="ignore"):  # inf - inf in a sum is nan
        return np.einsum("jq,wq->wj", vals, np.array(weights))


def _rule(d):
    # the mollifier's nodes and weights, whose mirrored pairs separable sums meet
    rule = build_mollifier(d)
    weights = [rule.core_weights] + [rule.psi_weights((k,) + (0,) * (d - 1)) for k in (1, 2, 3)]
    return rule.nodes, weights


def _quadrature_rows(d):
    # rows on the plateau of cutoff(x1), across its band and outside it,
    # 2 * 64 + 1 of them
    if d == 1:
        return np.linspace(-2.5, 2.5, 2 * 64 + 1)[None, :]
    return np.random.default_rng(3).uniform(-2.5, 2.5, (2, 2 * 64 + 1))


@pytest.mark.parametrize("d, text, k", [(1, "cutoff(x1)*sin(x1/eps)", k) for k in range(4)] + [
    (1, "sin(x1/eps)", 0), (1, "cutoff(x1)*cos(3*x1/eps)*eps^2", 0),
    (2, "cutoff(x1)*sin(x2/eps)*cos(x1)", 0), (2, "cutoff(x1)*sin(x2/eps)*cos(x1)", 1),
])
def test_separable_sums_agree_with_the_flat_sums(d, text, k):
    # A separable row's sum differs from the flat one by the flat path's
    # rounding of each shifted argument, at most about (1 + |argument|)
    # 2^-52 per value, and by the flat sum's own, at most M 2^-53 of the
    # sum of |w_q u(x_j - o_q)|: 2^-48 (1 + 3|argument| + M) sum_q |w_q|
    # max |u| bounds both, 3 the largest slope here
    e = simplify(parse(text, dimension=d))
    for _ in range(k):
        e = simplify(differentiate(e, 0))
    rows, (nodes, weights) = _quadrature_rows(d), _rule(d)
    for eps, n in ((0.5, 1), (2.0**-4, 1), (2.0**-10, 2)):
        offsets = eps**n * nodes
        got = shifted_sums(e, rows, offsets, eps, weights)
        want = _flat_sums(e, rows, offsets, eps, weights)
        top = np.max(np.abs(eval_batch(e, np.asarray(Grid.shifted(rows, offsets)), eps)))
        argument = (np.max(np.abs(rows)) + np.max(np.abs(offsets))) / eps
        for w, g, f in zip(weights, got, want):
            tol = 2.0**-48 * (1 + 3 * argument + nodes.shape[1]) * np.sum(np.abs(w)) * top
            assert np.max(np.abs(g - f)) <= tol, (eps, n)


@pytest.mark.parametrize("text", [
    "exp(x1)*cutoff(x1)",  # exp does not separate
    "sin(x1^2/eps)",  # nor does a sin of an argument that is not affine
    "eps^(-400)*cutoff(x1)*sin(x1/eps)",  # an inf factor: the product's own rules apply
    "cutoff(x1*eps^(-2000))*sin(x1/eps)",  # an inf slope: the row bounds are None
    "sin(x1/eps)*sin(2*x1/eps)*sin(3*x1/eps)*sin(5*x1/eps)*sin(7*x1/eps)",  # rank 32
    "cutoff(x1)*sin(x1/eps)",  # flat on the band rows only, which lie between separable ones
])
def test_classes_that_do_not_separate_keep_the_flat_bits(monkeypatch, text):
    # the row-local rule: each flat row's sums are the rule's on that row's
    # own flat values, formed alone, whatever the rows beside it, the block
    # size and the thread count
    e = simplify(parse(text))
    rows, (nodes, weights) = _quadrature_rows(1), _rule(1)
    m = nodes.shape[1]
    epss = (2.0**-4, 2.0**-10)
    flat = [np.ones(rows.shape[1], dtype=bool) for _ in epss]
    if text == "cutoff(x1)*sin(x1/eps)":
        for eps, mask in zip(epss, flat):  # a row's bounds are its extreme shifted points
            points = np.abs(rows[0][:, None] - eps * nodes[0][None, :])
            mask &= ~((points <= 1.0).all(axis=1) | (points >= 2.0).all(axis=1))
            assert 0 < mask.sum() < rows.shape[1]
    alone = [np.hstack([_flat_sums(e, rows[:, j:j + 1], eps * nodes, eps, weights)
                        for j in range(rows.shape[1])]) for eps in epss]
    for size in (m, 7 * m + 3, quadrature._EVAL_CHUNK, rows.shape[1] * m):
        monkeypatch.setattr(quadrature, "_EVAL_CHUNK", size)
        for threads in ("1", "2"):
            monkeypatch.setenv("COLOMBEAU_THREADS", threads)
            got = map_eps(lambda eps: shifted_sums(e, rows, eps * nodes, eps, weights), epss)
            for g, want, mask in zip(got, alone, flat):
                assert g[:, mask].tobytes() == want[:, mask].tobytes(), (size, threads)


@pytest.mark.parametrize("d, text", _SEAM_CUTOFFS)
@pytest.mark.parametrize("k", range(4))
def test_settled_cutoffs_sum_as_the_flat_path_at_the_seams(d, text, k):
    # rows whose shifted points reach +-1 or +-2 exactly, from either side:
    # off the band every derivative of the cutoff is exactly 0, so orders
    # 1..3 keep every bit, and the order-0 plateau rows sum their weights
    e = simplify(parse(text, dimension=d))
    for _ in range(k):
        e = simplify(differentiate(e, 0))
    for rows, offsets in _cutoff_row_blocks(d):
        m = offsets.shape[1]
        weights = [np.linspace(-1.0, 1.0, m), np.full(m, 1.0 / m)]
        for eps in (0.5, 2.0**-10):
            got = shifted_sums(e, rows, offsets, eps, weights)
            want = _flat_sums(e, rows, offsets, eps, weights)
            if k:
                assert got.tobytes() == want.tobytes(), (rows, eps)
            else:
                assert np.max(np.abs(got - want)) <= m * 2.0**-52, (rows, eps)


def test_separable_sums_depend_on_no_other_row_or_block(monkeypatch):
    # the inner sums are taken per class with math.fsum, whose result is the
    # rounded exact sum, so a row sums alike alone, in any block, in any class
    e = simplify(parse("cutoff(x1)*sin(x1/eps)"))
    rows, (nodes, weights) = np.linspace(-0.9, 0.9, 301)[None, :], _rule(1)
    offsets = 2.0**-6 * nodes
    whole = shifted_sums(e, rows, offsets, 2.0**-6, weights)
    for j in (0, 150, 300):
        alone = shifted_sums(e, rows[:, j:j + 1], offsets, 2.0**-6, weights)
        assert alone.tobytes() == whole[:, j:j + 1].tobytes()
    beside = np.concatenate([rows, [[1.5, 3.0]]], axis=1)  # a band and an outside class
    monkeypatch.setattr(quadrature, "_EVAL_CHUNK", 32)
    got = shifted_sums(e, beside, offsets, 2.0**-6, weights)
    assert got[:, :301].tobytes() == whole.tobytes()


@pytest.mark.parametrize("text", ["cutoff(x1)*sin(x1/eps)", "sin(x1/eps)", "exp(x1)*cutoff(x1)"])
def test_shifted_sums_of_no_rows_are_empty(text):
    nodes, weights = _rule(1)
    got = shifted_sums(simplify(parse(text)), np.empty((1, 0)), 0.25 * nodes, 0.25, weights)
    assert got.shape == (len(weights), 0)


def _separable_trees():
    # sums, differences, products and quotients by constants of the leaves a
    # class off the band carries: split sin and cos, Var, constants, eps
    # powers and a cutoff that the plateau and outside rows settle
    arg = st.builds(lambda a, b: Add((Mul((Const(a), Var(0), EpsPow(Fraction(-1)))), Const(b))),
                    st.sampled_from([1.0, -2.0, 3.0]), st.sampled_from([0.0, 0.5, -1.25]))
    leaves = st.one_of(st.builds(Sin, arg), st.builds(Cos, arg), st.just(Var(0)),
                       st.builds(Const, st.sampled_from([0.0, 1.0, -0.5, 2.0])),
                       st.just(EpsPow(Fraction(1))), st.just(Cutoff(Var(0))),
                       st.just(Cutoff(Var(0), 1)))

    def grow(t):
        return st.one_of(st.builds(lambda a, b: Add((a, b)), t, t), st.builds(Sub, t, t),
                         st.builds(lambda a, b: Mul((a, b)), t, t),
                         st.builds(lambda a, c: Div(a, Const(c)), t, st.sampled_from([2.0, -0.5])))

    return st.recursive(leaves, grow, max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(_separable_trees())
def test_separable_algebra_matches_the_flat_walk(e):
    # a sign, a rank or a scale lost in the separable walk moves a sum by
    # about its own size; rounding moves it by far less than 1e-9 of it
    rows = np.array([[-0.5, -0.1, 0.3, 0.45, 2.5, 3.0, 1.5]])  # plateau, outside, band
    nodes, weights = _rule(1)
    offsets = 2.0**-4 * nodes
    got = shifted_sums(e, rows, offsets, 0.125, weights)
    want = _flat_sums(e, rows, offsets, 0.125, weights)
    top = np.max(np.abs(eval_batch(e, np.asarray(Grid.shifted(rows, offsets)), 0.125)))
    for w, g, f in zip(weights, got, want):
        assert np.max(np.abs(g - f)) <= 1e-9 * np.sum(np.abs(w)) * (1.0 + top)


def test_rows_that_separate_reach_no_flat_product(monkeypatch, cutoff_calls):
    # settled rows never meet the product's point-by-point zero mask on the
    # shifted points, the cutoff's closed form or its jets (their sin and cos
    # are products on the rows and on the offsets); a band row is walked
    # flat alone
    orders, tops, points = cutoff_calls
    walked = [0]  # the sizes of the products on shifted points
    product = _Walk.product

    def spy(self, ks):
        v = product(self, ks)
        if self.coords.offsets is not None:
            walked.append(np.size(v))
        return v

    monkeypatch.setattr(_Walk, "product", spy)
    nodes, weights = _rule(1)
    e = simplify(differentiate(simplify(parse("cutoff(x1)*sin(x1/eps)")), 0))
    shifted_sums(e, np.array([[-3.0, -0.5, 0.0, 0.9, 2.5, 4.0]]), 2.0**-6 * nodes, 2.0**-6, weights)
    assert max(walked) <= 1 and orders == tops == points == []
    shifted_sums(e, np.array([[-0.5, 1.5, 2.5]]), 2.0**-6 * nodes, 2.0**-6, weights)
    assert max(walked) == nodes.shape[1] and orders == [0] and tops == [1]


def test_shifted_cutoff_evaluates_only_whole_band_rows(cutoff_calls):
    # exp does not separate, so every class is walked flat on its own rows
    orders, _, points = cutoff_calls
    e = simplify(parse("cutoff(x1)*exp(x1)"))
    offsets = np.linspace(-0.1, 0.1, 16)[None, :]
    weights = [np.full(16, 1.0 / 16)]
    for rows in ([-0.8, 0.0, 0.8], [-3.0, 2.5]):  # wholly on the plateau, wholly outside
        shifted_sums(e, np.array([rows]), offsets, 0.5, weights)
    assert orders == []
    # -1.5, 0.95 (which reaches 1.05) and 1.2 meet the band
    shifted_sums(e, np.array([[-3.0, -1.5, 0.0, 0.95, 1.2, 2.5]]), offsets, 0.5, weights)
    assert orders == [0] and points == [3 * 16]


def _affine_args(d):
    slopes = st.sampled_from([1.0, -1.0, 0.7, -3.5, 1e-300, -2.0**-1070, 1e300, 0.0])
    shifts = st.floats(min_value=-3.0, max_value=3.0)

    def grow(a):
        return st.one_of(
            st.builds(lambda a, c: Add((a, Const(c))), a, shifts),
            st.builds(lambda a, c: Sub(Const(c), a), a, shifts),
            st.builds(lambda a, c: Mul((Const(c), a)), a, slopes),
            st.builds(lambda a, c: Mul((Const(c), EpsPow(Fraction(-1)), a)), a, slopes),
            st.builds(lambda a, c: Mul((a, EpsPow(Fraction(-1)), Const(c))), a, slopes),
            st.builds(lambda a, c: Div(a, Const(c)), a, slopes),
            st.builds(lambda a, b: Add((a, b)), a, a),
            st.builds(lambda a, b: Sub(a, b), a, a),
        )

    return st.recursive(st.sampled_from([Var(i) for i in range(d)]), grow, max_leaves=6)


_AFFINE_ARGS = {d: _affine_args(d) for d in (1, 2)}


@st.composite
def _row_bound_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    arg = draw(_AFFINE_ARGS[d])
    r, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    coord = st.floats(min_value=-4.0, max_value=4.0)
    rows = np.array(draw(st.lists(coord, min_size=d * r, max_size=d * r))).reshape(d, r)
    scale = draw(st.sampled_from([1.0, 1e-3, 2.0**-40]))
    offsets = scale * np.array(draw(st.lists(coord, min_size=d * m, max_size=d * m))).reshape(d, m)
    return arg, rows, offsets, draw(st.sampled_from([0.5, 2.0**-10]))


@settings(max_examples=200, deadline=None)
@given(_row_bound_cases())
def test_row_bounds_hold_every_flat_value_of_their_row(case):
    from colombeau.expr.evaluate import _plan_of

    arg, rows, offsets, eps = case
    grid = Grid.shifted(rows, offsets)
    plan = _plan_of(Cutoff(arg), shifted=True)
    slot = plan.kids[-1][0]
    assert plan.settles == (slot,)  # the cutoff's argument is affine
    with np.errstate(all="ignore"):
        bounds = quadrature._RowBounds(plan, grid, eps).take(slot)
        flat = eval_batch(arg, np.asarray(grid), eps).reshape(rows.shape[1], -1)
    if bounds is None:
        return
    lo, hi = bounds
    known = ~(np.isnan(lo) | np.isnan(hi))
    assert np.all((lo[:, None] <= flat) & (flat <= hi[:, None])
                  | np.isnan(flat) & (lo[:, None] == -np.inf) & (hi[:, None] == np.inf)
                  | ~known[:, None])


def test_factor_after_scalar_zero_is_never_evaluated(monkeypatch):
    def refuse(order, t):
        raise AssertionError("factor after a scalar zero was evaluated")

    monkeypatch.setattr(special, "cutoff_deriv_values", refuse)
    x = np.linspace(-1.0, 1.0, 5)[None, :]
    skipped = Cutoff(Mul((Const(3.0), Var(0))))
    e = Mul((Var(0), Sin(Const(0.0)), skipped, Exp(skipped)))
    assert np.array_equal(eval_batch(e, x, 0.5), np.zeros(5))
    assert evaluate(e, (0.5,), 0.5) == 0.0

    # a skipped factor that another consumer needs is still evaluated, once
    calls = []
    monkeypatch.setattr(
        special, "cutoff_deriv_values",
        lambda order, t: calls.append(order) or np.full(np.shape(t), 2.0),
    )
    shared = Add((Mul((Sin(Const(0.0)), skipped)), Sin(skipped), skipped))
    assert np.array_equal(eval_batch(shared, x, 0.5), np.full(5, np.sin(2.0) + 2.0))
    assert calls == [0]


def test_tree_without_sharing_keeps_naive_peak_memory():
    import tracemalloc

    # nothing repeats but the leaves x1 and eps^(-1), whose values are a view
    # and a scalar
    e = simplify(parse("sin(x1/eps)*cos(x1) + exp(-x1^2)*x1^3 - cutoff(x1)/(2 + x1^4)"))
    x = np.linspace(-2.5, 2.5, 200_000)[None, :]
    peaks = []
    for fn in (eval_batch, _naive_batch):
        fn(e, x, 0.25)  # compile outside the measured call
        tracemalloc.start()
        fn(e, x, 0.25)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] <= peaks[1] + 64 * 1024, peaks


def test_plan_compilation_is_thread_safe():
    import sys
    import threading

    from colombeau.catalog import catalog_net

    x = np.linspace(-2.5, 2.5, 501)[None, :]
    want = _naive_batch(catalog_net("compact_osc").derivative_expr((4,)), x, 0.1)
    e = catalog_net("compact_osc").derivative_expr((4,))  # fresh tree, no plan yet
    barrier = threading.Barrier(8)
    results = []

    def work():
        barrier.wait(timeout=30)
        results.extend(eval_batch(e, x, 0.1) for _ in range(5))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 40
    assert all(np.array_equal(r, want) for r in results)


# ---------------------------------------------------------------------------
# randomized: symbolic derivative vs finite differences, round-trips
# ---------------------------------------------------------------------------


def test_symbolic_derivative_matches_finite_differences():
    rng = random.Random(42)
    checked = 0
    while checked < 200:
        e = simplify(random_expr(rng, rng.randint(1, 4)))
        x = rng.uniform(-1.5, 1.5)
        eps = rng.choice([0.35, 0.5, 0.65])
        try:
            sym = evaluate(differentiate(e, 0), (x,), eps)
            est = central_diff(e, x, eps, 1e-4 * max(1.0, abs(x)))
        except (EvaluationError, SizeCapError):
            continue
        if not (math.isfinite(sym) and math.isfinite(est)):
            continue
        rel = abs(sym - est) / (abs(sym) + abs(est) + 1.0)
        assert rel <= 1e-5, (to_text(e), x, eps, sym, est)
        checked += 1


def test_random_round_trip():
    # to_text must be a fixed point of parse/print, and the reparsed tree
    # (whose associativity may be renormalised) must evaluate identically
    rng = random.Random(11)
    for _ in range(100):
        e = simplify(random_expr(rng, 3))
        back = parse(to_text(e))
        # one parse normalises associativity/constant folding; from there the
        # printer output must be stable under reparse
        text = to_text(back)
        assert to_text(parse(text)) == text, text
        for x in (-1.3, 0.0, 0.7):
            try:
                a = evaluate(e, (x,), 0.5)
                b = evaluate(back, (x,), 0.5)
            except EvaluationError:
                continue
            assert a == pytest.approx(b, rel=1e-13, abs=1e-300), text


@settings(max_examples=60, deadline=None)
@given(
    q=st.fractions(min_value=-8, max_value=8, max_denominator=6),
    n=st.integers(min_value=0, max_value=5),
)
def test_eps_power_algebra(q, n):
    e = simplify(IntPow(EpsPow(q), n))
    expected = Const(1.0) if q * n == 0 else EpsPow(q * n)
    assert e == expected
