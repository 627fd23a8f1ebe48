"""Sweeps: every order of one (net, K, eps, sampling) shares one sampling.

``psequence`` visits eps outer and k inner, so the orders at one eps reuse
the sweep's blocks and the leaf values on them, and each net keeps the
value of every order it was asked for.  These tests pin that the sharing
moves no bit against k-outer tables on fresh nets, that the sharing happens,
and that a sweep's leaf values do not outlive the next sweep.  They also
pin that a region of two or more axes sampled at one witness point gives
the seminorm its every block gives.
"""
import math
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

import colombeau.nets as nets
from colombeau.catalog import CATALOG, REFERENCE_COMPACTS, catalog_net
from colombeau.config import load_config
from colombeau.expr import Cos, Mul, Sin, Var, parse
from colombeau.mollify import mollify
from colombeau.nets import (
    BandedNet,
    CompactBox,
    DifferenceNet,
    ExpressionNet,
    FiniteSumNet,
    Sampling,
    seminorm,
    seminorm_table,
)
from colombeau.regularity import psequence
from colombeau.runner import run_experiment
from colombeau.scale import EpsGrid

GRID = EpsGrid(0.5, 0.5, 8)


def _square():
    return ExpressionNet(2, parse("sin(x1/eps)*cos(x2)", dimension=2), oscillation_hint=1)


def _cube():
    return ExpressionNet(3, parse("sin(x1/eps)*cos(x2*x3)*cutoff(x3)", dimension=3), 1)


def _banded():
    return BandedNet(1, [((0.0, 0.1), parse("cutoff(x1/eps)*sin(x1/eps)")),
                         ((0.1, 1.0), parse("exp(-x1^2)*cos(x1)"))], oscillation_hint=1)


def _mollified_difference():
    u = catalog_net("compact_osc")
    return DifferenceNet(mollify(u, 2), u)


# (name, net builder, compact, eps grid, sampling, k_max)
CASES = [
    (f"{name}{K.boxes}", lambda name=name: catalog_net(name), K, GRID, Sampling(), 6)
    for name in CATALOG for K in REFERENCE_COMPACTS
] + [
    ("grid_2d", _square, CompactBox.of([(0.0, 1.0), (0.0, 1.0)]), GRID,
     Sampling(), 2),
    ("cube", _cube, CompactBox.of([(0.0, 1.0), (-1.0, 0.5), (-2.5, 2.0)]), GRID,
     Sampling(9, 65), 2),
    ("banded", _banded, CompactBox.interval(-1.0, 2.0), GRID, Sampling(), 6),
    ("mollified-difference", _mollified_difference, CompactBox.interval(-1.0, 2.0),
     GRID, Sampling(), 2),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name, build, K, grid, sampling, k_max", CASES, ids=[c[0] for c in CASES])
def test_psequence_tables_equal_k_outer_tables_on_fresh_nets(
    monkeypatch, threads, name, build, K, grid, sampling, k_max
):
    monkeypatch.setenv("COLOMBEAU_THREADS", threads)
    seq = psequence(build(), K, grid, sampling, k_max)
    for k in range(k_max + 1):
        # == on SeminormValue compares eps, ln_value, undersampled, nonfinite
        # and points_per_axis
        assert seq.entries[k].table == seminorm_table(build(), k, K, grid, sampling), (name, k)


def test_many_threads_switching_often_share_a_net(monkeypatch):
    # more worker threads than cores, each sweeping its own eps of one net
    K = CompactBox.interval(-1.0, 2.0)
    net = catalog_net("compact_osc")
    monkeypatch.setenv("COLOMBEAU_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        seq = psequence(net, K, GRID, k_max=4)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setenv("COLOMBEAU_THREADS", "1")
    for k in range(5):
        want = seminorm_table(catalog_net("compact_osc"), k, K, GRID)
        assert seq.entries[k].table == want
        assert seminorm_table(net, k, K, GRID) == want  # the values the net kept


def test_each_cutoff_order_runs_once_per_eps(cutoff_calls):
    grid = GRID
    orders, tops, _ = cutoff_calls
    psequence(catalog_net("compact_osc"), CompactBox.interval(0.0, 1.0), grid, k_max=6)
    # sampled k-outer, order k would run the cutoff jets of orders 0..k again:
    # 28 evaluations per eps instead of 7.  Orders below k come from the
    # block's memo, so order k's tree builds its jets to k alone
    assert Counter(orders) == {0: grid.count}
    assert Counter(tops) == {order: grid.count for order in range(1, 7)}


def test_the_seminorms_experiment_runs_each_cutoff_order_once_per_eps(cutoff_calls):
    cfg = load_config({
        "dimension": 1, "net": {"catalog": "compact_osc"}, "compacts": [[[[0.0, 1.0]]]],
        "eps_grid": {"eps0": 0.5, "ratio": 0.5, "count": 8}, "k_max": 6,
        "experiments": [{"kind": "seminorms"}],
    })
    orders, tops, _ = cutoff_calls
    run_experiment(cfg, cfg.experiments[0])
    # k outer, each order's tree would run its cutoff jets at every eps
    # again: 224 evaluations instead of 7 orders x 8 eps
    assert Counter(orders) == {0: 8}
    assert Counter(tops) == {order: 8 for order in range(1, 7)}


def test_each_multiscale_term_runs_sin_and_cos_once_per_eps(monkeypatch):
    grid = GRID
    net = catalog_net("multiscale")
    assert isinstance(net, FiniteSumNet) and len(net.terms) == 8
    calls = Counter()
    for fn in ("sin", "cos"):
        real = getattr(np, fn)

        def counted(x, *args, fn=fn, real=real, **kwargs):
            if isinstance(x, np.ndarray) and x.ndim > 0:
                calls[fn] += 1
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np, fn, counted)
    psequence(net, CompactBox.interval(0.0, 1.0), grid, k_max=6)
    assert calls == {"sin": 8 * grid.count, "cos": 8 * grid.count}


def test_a_repeated_psequence_samples_nothing(monkeypatch):
    net = catalog_net("osc")
    K = CompactBox.interval(-1.0, 2.0)
    first = psequence(net, K, GRID, k_max=4)

    def refuse(self, alpha, coords, eps):
        raise AssertionError("a repeated seminorm sampled the net again")

    monkeypatch.setattr(ExpressionNet, "derivative_batch", refuse)
    again = psequence(net, K, GRID, k_max=4)
    assert [e.table for e in again.entries] == [e.table for e in first.entries]


def test_a_new_sweep_drops_the_leaf_values_of_the_last():
    K = CompactBox.interval(0.0, 1.0)
    first = catalog_net("compact_osc")
    seminorm(first, 2, K, 0.125)
    (_, block), = nets._LIVE.sweep.regions
    leaves = [weakref.ref(v) for v in block.memo.values.values()]
    assert len(leaves) == 5  # sin, cos and the cutoff of orders 0, 1, 2
    assert all(not v().flags.writeable for v in leaves)
    del block
    seminorm(catalog_net("osc"), 0, K, 0.125)
    assert all(ref() is None for ref in leaves)


# ---------------------------------------------------------------------------
# the witness path: one point where a product of one-axis factors peaks
# ---------------------------------------------------------------------------


def _net(text, d, hint=1):
    return lambda: ExpressionNet(d, parse(text, dimension=d), hint)


_SQUARE = CompactBox.of([(0.0, 1.0), (0.0, 1.0)])
_CUBE = CompactBox.of([(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)])


def _banded_2d():
    return BandedNet(2, [((0.0, 0.25), parse("sin(x1/eps)*cos(x2)", dimension=2)),
                         ((0.25, 1.0), parse("sin(x1*x2/eps)", dimension=2))], oscillation_hint=1)


# (name, net builder, compact, sampling, eps values, whether every
# multi-index of orders 0..2 is sampled at its witness point alone, for all
# eps or for each)
WITNESS_CASES = [
    # at eps = 2^-8 the square holds 1025^2 points, more than one block
    ("square", _square, _SQUARE, Sampling(), (0.5, 2**-4, 2**-8), True),
    ("cube-product", _net("sin(x1/eps)*cos(x2)*exp(x3)*eps^2", 3), _CUBE, Sampling(9, 65),
     (0.5, 2**-3, 2**-6), True),
    ("cube", _cube, CompactBox.of([(0.0, 1.0), (-1.0, 0.5), (-2.5, 2.0)]), Sampling(9, 65),
     (0.5, 2**-3, 2**-6), False),
    # |x1| and |sin(x2)| peak at both ends of [-1, 1], with opposite signs
    ("tied", _net("x1*cos(x2)", 2, 0), CompactBox.of([(-1.0, 1.0), (-1.0, 1.0)]), Sampling(),
     (0.5,), True),
    # non-finite on the line x2 = 0: the witness path gives way to the blocks
    ("reciprocal", _net("1/x2", 2, 0), _SQUARE, Sampling(), (0.5,), False),
    ("sin-reciprocal", _net("sin(x1/eps)*(1/x2)", 2), _SQUARE, Sampling(), (0.5, 2**-4), False),
    ("product-argument", _net("cos(x2*x1)", 2), _SQUARE, Sampling(), (0.5, 2**-4), False),
    # orders 1 and 2 in x1 are sums; the others split the x1 factors
    ("cutoff-product", _net("cutoff(x1)*sin(x2/eps)*cos(x1)", 2), _SQUARE, Sampling(),
     (0.5, 2**-4), False),
    ("split-x1", lambda: ExpressionNet(2, Mul((Sin(Var(0)), Cos(Var(1)), Cos(Var(0))))), _SQUARE,
     Sampling(), (0.5,), False),
    # the band of eps = 2^-4 is a product of one-axis factors; the band of
    # eps = 0.5 has an argument over both axes
    ("banded-2d", _banded_2d, _SQUARE, Sampling(), (2**-4, 0.5), (True, False)),
    # eps^200 underflows to 0 at 2^-6: exp(x1*0) is a scalar that reads x1
    ("underflow", _net("exp(x1*eps^200)*sin(x2/eps)", 2), _SQUARE, Sampling(), (0.5, 2**-6), True),
    # a sum of x2 terms is one factor over one axis
    ("finite-sum", lambda: FiniteSumNet(2, [parse("sin(x2/eps)", dimension=2),
                                            parse("eps^2*cos(x2)", dimension=2)], 1),
     _SQUARE, Sampling(), (0.5, 2**-4), True),
]


def _block_path(net, k, K, eps, sampling):
    """(ln max, non-finite count) of order k over every block of every region."""
    best, bad = -1.0, 0
    for axes, _ in nets._Sweep(net, K, eps, sampling).regions:
        for alpha in nets.multi_indices(net.dimension, k):
            val, n = nets._grid_max(net, alpha, nets._grid_chunks(axes, nets._CHUNK), eps)
            best, bad = max(best, val), bad + n
    return (-math.inf if best <= 0.0 else math.log(best)), bad


@pytest.mark.parametrize("name, build, K, sampling, eps_list, witness", WITNESS_CASES,
                         ids=[c[0] for c in WITNESS_CASES])
def test_the_witness_path_equals_the_block_path(monkeypatch, name, build, K, sampling, eps_list,
                                                witness):
    sizes = []  # points of each block seminorm hands the net
    real = ExpressionNet.derivative_batch
    for i, eps in enumerate(eps_list):
        at_witness = witness[i] if isinstance(witness, tuple) else witness
        for k in range(3):
            sizes.clear()
            with monkeypatch.context() as m:
                for cls in (ExpressionNet, FiniteSumNet):
                    m.setattr(cls, "derivative_batch",
                              lambda self, a, c, e: sizes.append(c.shape[1]) or real(self, a, c, e))
                got = seminorm(build(), k, K, eps, sampling)
            assert (got.ln_value, got.nonfinite) == _block_path(build(), k, K, eps, sampling), (
                name, eps, k)
            assert all(n == 1 for n in sizes) if at_witness else all(n > 1 for n in sizes)


def test_a_factor_non_finite_on_a_line_keeps_its_count():
    # x2 = 0 on one point of every row; at x1 = 0 the exact zero sin(0) masks
    # sin(x1/eps)*inf to 0
    for text, rows_lost in (("1/x2", 0), ("sin(x1/eps)*(1/x2)", 1)):
        v = seminorm(_net(text, 2)(), 0, _SQUARE, 0.5)
        assert v.nonfinite == v.points_per_axis[0] - rows_lost, text


def test_a_one_axis_region_never_asks_for_a_witness(monkeypatch):
    def refuse(self, alpha, grid, eps):
        raise AssertionError("a 1-d region asked for a witness")

    for cls in (nets.FunctionNet, ExpressionNet, BandedNet):
        monkeypatch.setattr(cls, "sup_witness", refuse)
    K = CompactBox.interval(-1.0, 2.0)
    for net in (catalog_net("osc"), catalog_net("compact_osc"), _banded()):
        psequence(net, K, GRID, k_max=2)
