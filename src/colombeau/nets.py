"""Function nets, compact box unions, and sharp seminorm estimation.

A function net assigns to every eps in (0,1) a smooth function on R^d.  The
seminorm p_{k,K}(eps) is the sup over a compact box union K of the largest
k-th order partial derivative magnitude; the sharp seminorm P_{k,K} is
exp(-v) for the fitted valuation v of that eps-indexed seminorm net.

Sup estimation uses tensor grids whose per-axis density follows the net's
oscillation hint m: at least 4 sample points per feature length eps^m,
subject to a hard per-axis cap.  Before sampling, each box is clipped to
where the net can be non-zero, by one per-axis intersection (``_clip``):
the support of each multiplicative bump or cutoff factor whose argument is
affine in one axis (slope and shift may depend on eps; the expression
calculus reads them), and a mollified net's base region widened by eps^n.
The net vanishes identically outside, so concentrated nets stay resolvable
after the cap would otherwise bind.

A grid reaches a net in blocks of at most ``_CHUNK`` points, each an
``expr.Grid`` that holds one slice per axis instead of every point: an
expression net evaluates each subtree on the axes it uses, so on the unit
square sin(x1/eps)*cos(x2) runs sin on n_1 points and cos on n_2, and only
the product fills the block.  A net that does its own per-point arithmetic
(a mollified net) flattens the block to its (d, N) points.

A region of two or more axes may need no block at all.  A net may name,
through ``sup_witness``, the grid point where |d^alpha u_eps| is largest and
that max.  An expression net does so when the derivative is a product whose
factors each use one axis, each axis's factors in one run
(``expr.separable_argmax``): the max is found axis by axis, exactly, since
rounding to nearest is monotone and symmetric in sign.  ``seminorm`` then
evaluates the net at that one point through ``derivative_batch``, as it
would a block, and takes the point only when the value there is == the max
named, so every max is a value the net computed at a sample point.  Else,
and for a net that names no point (a sum or a factor over two axes, a
non-finite factor value, a mollified net), it samples every block.  A kept
block lends its Grid, and with it the LeafMemo, to the search; a larger
region gets a Grid of its axes alone.  A one-axis region never asks.

The sample points depend on (net, K, eps, sampling) but not on the order k;
one such tuple is a sweep (``_Sweep``).  A sweep clips and sizes its regions
once and serves every order from them.  A region that fits one block keeps
that block, with an ``expr.LeafMemo``: the x-dependent sin, cos, exp, bump
and cutoff values that one order's derivative tree computes there are
reused by the next order's tree, bit for bit.  Each thread keeps only its
latest sweep, so a new sweep frees the previous one's blocks and leaf
values.  Each net keeps the small ``SeminormValue`` of every order of every
sweep it was sampled on, for as long as the net lives, so a repeated
``seminorm`` call samples nothing.  ``seminorm_tables`` visits eps outer
and k inner so that all orders at one eps meet the same live sweep.

A net may form, on a kept block, multi-indices it was not asked for (a psi
route, ``mollify.PsiRouteNet``, reads every order from the same base
values) and leave each one's block max and non-finite count in the memo's
own table (``LeafMemo.maxes``), which ``_grid_max`` reads before it calls
the net.  On a miss, ``seminorm`` also stores every order whose every
multi-index the net left on every region's kept block.
"""
from __future__ import annotations

import math
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Optional, Sequence

import numpy as np

from . import expr as ex
from .scale import EpsGrid, ValuationEstimate, estimate_valuation

K_MAX_CAP = 8
M_MAX_NEGLIGIBLE = 40.0
DERIVATIVE_ORDER_CAP = K_MAX_CAP + 1


class NetError(ValueError):
    pass


def worker_count() -> int:
    """Worker cap from COLOMBEAU_THREADS; computations stay deterministic."""
    raw = os.environ.get("COLOMBEAU_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, min(n, 64))


# ---------------------------------------------------------------------------
# compact box unions
# ---------------------------------------------------------------------------

Interval = tuple[float, float]


@dataclass(frozen=True)
class CompactBox:
    """Finite union of closed axis-aligned boxes with minimum side r > 0.

    Every point of such a union has, in each axis direction, a full segment
    of length >= r inside the union, which is the geometric hypothesis the
    log-convexity check below relies on.
    """

    boxes: tuple[tuple[Interval, ...], ...]
    min_side: float

    def __post_init__(self):
        if not self.boxes:
            raise NetError("compact set needs at least one box")
        if not (self.min_side > 0.0):
            raise NetError("min_side must be positive")
        d = len(self.boxes[0])
        for b in self.boxes:
            if len(b) != d:
                raise NetError("all boxes must share the dimension")
            for lo, hi in b:
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    raise NetError("box bounds must be finite")
                if hi - lo + 1e-12 < self.min_side:
                    raise NetError(f"box side {hi - lo} below min_side {self.min_side}")

    @property
    def dimension(self) -> int:
        return len(self.boxes[0])

    @staticmethod
    def of(*boxes: Sequence[Interval], min_side: float | None = None) -> "CompactBox":
        bx = tuple(tuple((float(lo), float(hi)) for lo, hi in b) for b in boxes)
        if min_side is None:
            # no side at all: __post_init__ refuses the set
            min_side = min((hi - lo for b in bx for lo, hi in b), default=math.nan)
        return CompactBox(bx, float(min_side))

    @staticmethod
    def interval(lo: float, hi: float) -> "CompactBox":
        return CompactBox.of([(lo, hi)])

    def describe(self) -> list[list[list[float]]]:
        return [[[lo, hi] for lo, hi in b] for b in self.boxes]


def enlarge(K: CompactBox, r: float) -> CompactBox:
    """Inflate every box by r in each axis direction."""
    if r < 0:
        raise NetError("enlargement must be non-negative")
    boxes = tuple(tuple((lo - r, hi + r) for lo, hi in b) for b in K.boxes)
    return CompactBox(boxes, K.min_side + 2 * r)


def multi_indices(d: int, k: int) -> list[tuple[int, ...]]:
    """All d-dimensional multi-indices of total order k."""
    out = []
    for combo in combinations_with_replacement(range(d), k):
        alpha = [0] * d
        for axis in combo:
            alpha[axis] += 1
        out.append(tuple(alpha))
    return out or [tuple([0] * d)]


# ---------------------------------------------------------------------------
# sampling policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sampling:
    base_points: int = 33
    cap_points: int = 20_001

    def __post_init__(self):
        if self.base_points < 2 or self.cap_points < self.base_points:
            raise NetError("need cap_points >= base_points >= 2")

    def axis_count(self, side: float, eps: float, hint: Fraction) -> tuple[int, bool]:
        """Points for one axis: max(base, 4*side/eps^hint), capped.

        Returns (count, capped?) where capped means the oscillation hint could
        not be honoured.
        """
        demand = self.base_points
        if hint > 0 and side > 0:
            with np.errstate(over="ignore"):
                feat = float(np.float64(eps) ** (-float(hint)))
            want = 4.0 * side * feat
            if want > demand:
                demand = int(min(want, 2**62)) + 1
        if demand > self.cap_points:
            return self.cap_points, True
        return max(demand, 2), False


DEFAULT_SAMPLING = Sampling()

# ---------------------------------------------------------------------------
# where a net can be non-zero
# ---------------------------------------------------------------------------


def _clip(
    intervals: Sequence[Interval], bounds: Iterable[tuple[int, Interval]]
) -> Optional[list[Interval]]:
    """intervals cut to every (axis, (lo, hi)) in bounds; None once one empties."""
    out = list(intervals)
    for axis, (lo, hi) in bounds:
        nlo, nhi = max(out[axis][0], lo), min(out[axis][1], hi)
        if nlo > nhi:
            return None
        out[axis] = (nlo, nhi)
    return out


def support_constraints(e: ex.Expr) -> tuple[tuple[int, ex.Expr, ex.Expr, float], ...]:
    """(axis, slope, argument, bound) of each multiplicative bump or cutoff
    factor whose argument a is affine in one axis i: d a/d x_j is 0 for every
    j != i and d a/d x_i is free of x.  The factor vanishes where |a| > bound."""
    out = []
    for f in e.children if isinstance(e, ex.Mul) else (e,):
        if not isinstance(f, (ex.Bump, ex.Cutoff)):
            continue
        axis = ex.max_var_index(f.arg)
        if axis < 0 or any(ex.differentiate(f.arg, j) != ex.Const(0.0) for j in range(axis)):
            continue
        slope = ex.differentiate(f.arg, axis)
        if ex.max_var_index(slope) < 0:
            out.append((axis, slope, f.arg, 1.0 if isinstance(f, ex.Bump) else 2.0))
    return tuple(out)


def _support_bounds(constraints, eps: float):
    """(axis, interval) outside of which each constrained factor vanishes at eps."""
    for axis, slope, arg, bound in constraints:
        origin = [0.0] * (axis + 1)
        try:
            c = ex.evaluate(slope, origin, eps)
            b = ex.evaluate(arg, origin, eps)
        except ex.EvaluationError:
            continue  # no finite slope or shift: no cut
        if c != 0.0:
            lo, hi = (-bound - b) / c, (bound - b) / c
            yield axis, (min(lo, hi), max(lo, hi))


# ---------------------------------------------------------------------------
# function net variants
# ---------------------------------------------------------------------------


class FunctionNet:
    """Base class: an eps-parametrised smooth function of d variables."""

    dimension: int
    oscillation_hint: Fraction
    support_box: Optional[CompactBox]

    def derivative_batch(self, alpha: tuple[int, ...], coords: np.ndarray, eps: float) -> np.ndarray:
        raise NotImplementedError

    def derivative_eval(self, alpha: tuple[int, ...], x: Sequence[float], eps: float) -> float:
        """Partial derivative d^alpha u_eps evaluated at the point x."""
        _check_alpha(alpha, self.dimension)
        coords = np.asarray(x, dtype=float).reshape(-1, 1)
        if coords.shape[0] != self.dimension:
            raise NetError(f"point dimension {coords.shape[0]} != net dimension {self.dimension}")
        v = float(self.derivative_batch(alpha, coords, eps)[0])
        if not math.isfinite(v):
            raise ex.EvaluationError(f"non-finite derivative value at x={x}, eps={eps}")
        return v

    def sample_intervals(self, box: tuple[Interval, ...], eps: float) -> Optional[list[Interval]]:
        """Box intersected with known support; None when the net vanishes on it."""
        return list(box)

    def sup_witness(self, alpha: tuple[int, ...], grid: ex.Grid, eps: float
                    ) -> Optional[tuple[tuple[int, ...], float]]:
        """(grid index, max) of |d^alpha u_eps| over a tensor Grid of two or
        more axes, found without evaluating every point; None when the net
        cannot tell (see the module docstring)."""
        return None

    def describe(self) -> dict:
        return {"variant": type(self).__name__, "dimension": self.dimension}


def _hint(value: Fraction | int | str) -> Fraction:
    """An oscillation hint as a Fraction; every net variant rejects a negative one."""
    hint = Fraction(value)
    if hint < 0:
        raise NetError("oscillation hint must be >= 0")
    return hint


def _support(box: Optional[CompactBox], dimension: int) -> Optional[CompactBox]:
    """A support box; every net variant rejects one of another dimension."""
    if box is not None and box.dimension != dimension:
        raise NetError(f"support box dimension {box.dimension} != net dimension {dimension}")
    return box


def _check_alpha(alpha: tuple[int, ...], d: int) -> None:
    if len(alpha) != d:
        raise NetError(f"multi-index length {len(alpha)} != dimension {d}")
    if any(a < 0 for a in alpha):
        raise NetError("multi-index entries must be non-negative")
    if sum(alpha) > DERIVATIVE_ORDER_CAP:
        raise NetError(f"derivative order {sum(alpha)} exceeds cap {DERIVATIVE_ORDER_CAP}")


class ExpressionNet(FunctionNet):
    """Net given by a single closed-form expression."""

    def __init__(
        self,
        dimension: int,
        expression: ex.Expr,
        oscillation_hint: Fraction | int | str = 0,
        support_box: Optional[CompactBox] = None,
    ):
        if not 1 <= dimension <= 3:
            raise NetError("dimension must be in 1..3")
        self.dimension = dimension
        self.expression = ex.simplify(expression)
        used = ex.max_var_index(self.expression)
        if used >= dimension:
            raise NetError(f"expression uses x{used + 1} beyond dimension {dimension}")
        self.oscillation_hint = _hint(oscillation_hint)
        self.support_box = _support(support_box, dimension)
        self._deriv_cache: dict[tuple[int, ...], ex.Expr] = {tuple([0] * dimension): self.expression}
        self._constraints = support_constraints(self.expression)

    def derivative_expr(self, alpha: tuple[int, ...]) -> ex.Expr:
        _check_alpha(alpha, self.dimension)
        alpha = tuple(alpha)
        cached = self._deriv_cache.get(alpha)
        if cached is not None:
            return cached
        axis = next(i for i, a in enumerate(alpha) if a > 0)
        parent = list(alpha)
        parent[axis] -= 1
        parent_expr = self.derivative_expr(tuple(parent))
        d = ex.differentiate(parent_expr, axis)
        self._deriv_cache[alpha] = d
        return d

    def derivative_batch(self, alpha, coords, eps):
        return ex.eval_batch(self.derivative_expr(tuple(alpha)), coords, eps)

    def sup_witness(self, alpha, grid, eps):
        return ex.separable_argmax(self.derivative_expr(tuple(alpha)), grid, eps)

    def sample_intervals(self, box, eps):
        return _clip(box, _support_bounds(self._constraints, eps))

    def describe(self):
        return {
            "variant": "expression",
            "dimension": self.dimension,
            "expression": ex.to_text(self.expression),
            "oscillation_hint": str(self.oscillation_hint),
        }


class FiniteSumNet(ExpressionNet):
    """Expression net over the sum of its terms, described term by term; as in
    any sum, ``simplify`` folds constant terms and flattens sum-valued ones."""

    # its own attribute, not inherited: perfbench/tracer.py patches
    # FiniteSumNet.__dict__["derivative_batch"] to count the finite-sum layer
    derivative_batch = ExpressionNet.derivative_batch

    def __init__(
        self,
        dimension: int,
        terms: Sequence[ex.Expr],
        oscillation_hint: Fraction | int | str = 0,
        support_box: Optional[CompactBox] = None,
    ):
        if not terms:
            raise NetError("finite_sum needs at least one term")
        super().__init__(dimension, ex.Add(tuple(terms)), oscillation_hint, support_box)
        self.terms = [ex.simplify(t) for t in terms]

    def describe(self):
        return {
            "variant": "finite_sum",
            "dimension": self.dimension,
            "terms": [ex.to_text(t) for t in self.terms],
            "oscillation_hint": str(self.oscillation_hint),
        }


class BandedNet(FunctionNet):
    """Piecewise-in-eps net: bands ((lo, hi], expression) partitioning (0,1)."""

    def __init__(
        self,
        dimension: int,
        bands: Sequence[tuple[tuple[float, float], ex.Expr]],
        oscillation_hint: Fraction | int | str = 0,
        support_box: Optional[CompactBox] = None,
    ):
        if not bands:
            raise NetError("banded net needs at least one band")
        ordered = sorted(bands, key=lambda b: b[0][0])
        if ordered[0][0][0] != 0.0:
            raise NetError("lowest band must start at 0 (interval open at 0)")
        for (lo, hi), _ in ordered:
            if not lo < hi:
                raise NetError(f"empty band ({lo}, {hi}]")
        for ((_, hi_a), _), ((lo_b, _), _) in zip(ordered, ordered[1:]):
            if hi_a != lo_b:
                raise NetError("bands must tile (0,1) without gaps or overlap")
        if ordered[-1][0][1] < 1.0:
            raise NetError("topmost band must reach 1")
        self.dimension = dimension
        self.bands = [((lo, hi), ExpressionNet(dimension, e)) for (lo, hi), e in ordered]
        self.oscillation_hint = _hint(oscillation_hint)
        self.support_box = _support(support_box, dimension)

    def _part(self, eps: float) -> ExpressionNet:
        for (lo, hi), part in self.bands:
            if lo < eps <= hi:
                return part
        raise NetError(f"eps={eps} not covered by bands")

    def derivative_batch(self, alpha, coords, eps):
        return self._part(eps).derivative_batch(alpha, coords, eps)

    def sup_witness(self, alpha, grid, eps):
        return self._part(eps).sup_witness(alpha, grid, eps)

    def sample_intervals(self, box, eps):
        return self._part(eps).sample_intervals(box, eps)

    def describe(self):
        return {
            "variant": "banded",
            "dimension": self.dimension,
            "bands": [
                {"interval": [lo, hi], "expression": ex.to_text(p.expression)}
                for (lo, hi), p in self.bands
            ],
            "oscillation_hint": str(self.oscillation_hint),
        }


class DifferenceNet(FunctionNet):
    """Internal combinator: pointwise difference a - b of two nets."""

    def __init__(self, a: FunctionNet, b: FunctionNet):
        if a.dimension != b.dimension:
            raise NetError("difference requires equal dimensions")
        self.a = a
        self.b = b
        self.dimension = a.dimension
        self.oscillation_hint = max(a.oscillation_hint, b.oscillation_hint)
        self.support_box = None

    def derivative_batch(self, alpha, coords, eps):
        return self.a.derivative_batch(alpha, coords, eps) - self.b.derivative_batch(alpha, coords, eps)

    def sample_intervals(self, box, eps):
        ia = self.a.sample_intervals(box, eps)
        ib = self.b.sample_intervals(box, eps)
        if ia is None:
            return ib
        if ib is None:
            return ia
        return [(min(a[0], b[0]), max(a[1], b[1])) for a, b in zip(ia, ib)]

    def describe(self):
        return {"variant": "difference", "a": self.a.describe(), "b": self.b.describe()}


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeminormValue:
    """p_{k,K}(u_eps) at one eps as ``seminorm`` sampled it: undersampled when
    an axis cap bound, nonfinite values left out of the max."""

    eps: float
    ln_value: float  # ln p_{k,K}(eps); -inf for an exact zero
    undersampled: bool
    nonfinite: int
    points_per_axis: tuple[int, ...]


_CHUNK = 1 << 19


def _grid_chunks(axes: list[np.ndarray], limit: int):
    """The tensor grid over axes as Grid blocks of at most limit points.

    A block is the product of one slice per axis, and concatenated the
    blocks list the points in C order (axis 0 slowest): a few whole rows of
    axis 0 at a time; a row longer than limit is split the same way along
    the next axis.
    """
    for slices in _block_slices(axes, limit):
        yield ex.Grid.tensor(slices)


def _block_slices(axes: list[np.ndarray], limit: int):
    head, rest = axes[0], axes[1:]
    if not rest:
        for a in range(0, head.size, limit):
            yield (head[a : a + limit],)
        return
    rows = max(1, limit // math.prod(ax.size for ax in rest))
    for a in range(0, head.size, rows):
        h = head[a : a + rows]
        for tail in _block_slices(rest, limit // h.size):
            yield (h,) + tail


def _block_max(vals: np.ndarray) -> tuple[float, int]:
    """(max |value| over the finite values, or -1.0 if none; non-finite count)."""
    hi, lo = float(vals.max()), float(vals.min())
    if math.isfinite(hi) and math.isfinite(lo):  # no nan or inf: no mask, no copy
        return max(hi, -lo), 0
    finite = np.isfinite(vals)
    best = float(np.max(np.abs(vals[finite]))) if finite.any() else -1.0
    return best, int(vals.size - np.count_nonzero(finite))


def _grid_max(net: FunctionNet, alpha, blocks, eps) -> tuple[float, int]:
    best = -1.0
    bad = 0
    key = (id(net), alpha)
    for chunk in blocks:
        # A net that formed this multi-index unasked (a psi route) left its
        # block max in the kept block's memo.  Only this lookup sits in front
        # of derivative_batch, and vals stays bound until the next block is
        # allocated: with the reduction moved into a net method, each block's
        # values were freed first, and every 2^19-point block of a 2-d grid
        # came on fresh pages.
        stored = None if chunk.memo is None else chunk.memo.maxes.get(key)
        if stored is None:
            vals = net.derivative_batch(alpha, chunk, eps)
            stored = _block_max(vals)
        best = max(best, stored[0])
        bad += stored[1]
    return best, bad


def _witness_max(net: FunctionNet, alpha, axes, one, eps) -> Optional[tuple[float, int]]:
    """``_grid_max`` over the tensor grid on axes, from the one point that
    ``net.sup_witness`` names; None when it names none, or when the net's
    value there is not == the max it found."""
    found = net.sup_witness(alpha, one if one is not None else ex.Grid.tensor(axes), eps)
    if found is None:
        return None
    index, folded = found
    point = ex.Grid.tensor([a[i : i + 1] for a, i in zip(axes, index)])
    witness = _grid_max(net, alpha, (point,), eps)
    return witness if witness == (folded, 0) else None


class _Sweep:
    """The sampling of one (net, K, eps, sampling), shared by every order.

    Each box is clipped and sized once.  A region that fits one block keeps
    that block as a Grid with a ``LeafMemo``, so the sin, cos, exp, bump and
    cutoff values one order computes are reused by the next.  A larger
    region is cut into blocks again for each multi-index, as a block list
    would grow with the grid.
    """

    def __init__(self, net: FunctionNet, K: CompactBox, eps: float, sampling: Sampling):
        self.net = weakref.ref(net)  # a sweep does not keep its net alive
        self.key = (K, eps, sampling)
        self.regions = []  # (axes, the one block or None) of each box the net can be non-zero on
        self.undersampled = False
        for box in K.boxes:
            intervals = net.sample_intervals(box, eps)
            if intervals is None:
                continue  # net vanishes on this box
            sized = [sampling.axis_count(hi - lo, eps, net.oscillation_hint) for lo, hi in intervals]
            self.undersampled = self.undersampled or any(capped for _, capped in sized)
            axes = [np.linspace(lo, hi, n) for (lo, hi), (n, _) in zip(intervals, sized)]
            one = None
            if math.prod(a.size for a in axes) <= _CHUNK:
                one = ex.Grid.tensor(axes, ex.LeafMemo(_CHUNK))
            self.regions.append((axes, one))

    def left_orders(self, net: FunctionNet) -> list[int]:
        """The orders whose every multi-index net left a block max for in
        every region's kept block's ``LeafMemo.maxes``."""
        left = None
        for _, one in self.regions:
            if one is None:
                return []  # blocks cut again per multi-index keep no memo
            here = {alpha for owner, alpha in one.memo.maxes if owner == id(net)}
            left = here if left is None else left & here
        orders = {sum(alpha) for alpha in left or ()}
        return sorted(k for k in orders if left.issuperset(multi_indices(net.dimension, k)))

    def value(self, net: FunctionNet, k: int) -> SeminormValue:
        eps = self.key[1]
        best = -1.0
        nonfinite = 0
        for alpha in multi_indices(net.dimension, k):
            for axes, one in self.regions:
                found = _witness_max(net, alpha, axes, one, eps) if len(axes) > 1 else None
                if found is None:
                    blocks = (one,) if one is not None else _grid_chunks(axes, _CHUNK)
                    found = _grid_max(net, alpha, blocks, eps)
                val, bad = found
                nonfinite += bad
                best = max(best, val)
        ln = -math.inf if best <= 0.0 else math.log(best)
        points = tuple(a.size for a in self.regions[-1][0]) if self.regions else ()
        return SeminormValue(eps, ln, self.undersampled, nonfinite, points)


_LIVE = threading.local()  # the one sweep, with its blocks and leaf values, of each thread


def _sweep(net: FunctionNet, K: CompactBox, eps: float, sampling: Sampling) -> _Sweep:
    live = getattr(_LIVE, "sweep", None)
    if live is not None and live.net() is net and live.key == (K, eps, sampling):
        return live
    _LIVE.sweep = None  # free the previous sweep's blocks before sizing the next
    _LIVE.sweep = live = _Sweep(net, K, eps, sampling)
    return live


def seminorm(
    net: FunctionNet,
    k: int,
    K: CompactBox,
    eps: float,
    sampling: Sampling = DEFAULT_SAMPLING,
) -> SeminormValue:
    """ln of p_{k,K}(u_eps): max |d^alpha u_eps| over |alpha| = k, sampled on K.

    The sample points depend on (net, K, eps, sampling) only, not on k: that
    is a sweep.  The net keeps each order's value per sweep for its whole
    lifetime, so a repeated call returns the stored value without sampling.
    Otherwise the order is sampled on the sweep's blocks, and every further
    order whose block maxes the net left there is stored with it; each
    thread keeps its one latest sweep, and a call for another sweep drops it
    with its blocks and leaf values.
    """
    if K.dimension != net.dimension:
        raise NetError("compact set dimension mismatch")
    if not (0.0 < eps < 1.0):
        raise NetError("eps must lie in (0,1)")
    if k < 0 or k > K_MAX_CAP:
        raise NetError(f"order k={k} outside 0..{K_MAX_CAP}")
    # the net's own record: SeminormValue per order per sweep, as long as it lives
    per_order = vars(net).setdefault("_seminorm_values", {}).setdefault((K, eps, sampling), {})
    value = per_order.get(k)
    if value is None:
        sweep = _sweep(net, K, eps, sampling)
        per_order[k] = value = sweep.value(net, k)
        for order in sweep.left_orders(net):
            if order not in per_order:
                per_order[order] = sweep.value(net, order)
    return value


@dataclass(frozen=True)
class SeminormTable:
    """p_{k,K}(u_eps) sampled over an eps grid: the ``SeminormValue`` that
    ``seminorm`` returned for each eps, in the grid's (decreasing) order."""

    k: int
    K: CompactBox
    entries: tuple[SeminormValue, ...]

    def samples(self) -> list[tuple[float, float]]:
        """(eps, ln p) pairs; entries with non-finite evaluations become nan."""
        out = []
        for e in self.entries:
            v = e.ln_value
            if e.nonfinite > 0 and v == -math.inf:
                v = math.nan  # nothing measurable at this eps
            out.append((e.eps, v))
        return out


def map_eps(fn, eps_list: Sequence[float]) -> list:
    """fn at each eps, in order, on up to worker_count() threads; each call
    sees only its own eps, so the thread count moves no result."""
    workers = worker_count()
    if workers > 1 and len(eps_list) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, eps_list))
    return [fn(e) for e in eps_list]


def seminorm_tables(
    net: FunctionNet,
    ks: Sequence[int],
    K: CompactBox,
    grid: EpsGrid,
    sampling: Sampling = DEFAULT_SAMPLING,
) -> list[SeminormTable]:
    """The table of each order in ks, sampled eps outer and k inner: all
    orders at one eps share one sweep (its blocks and leaf values) before
    the next eps starts one."""
    rows = map_eps(lambda eps: [seminorm(net, k, K, eps, sampling) for k in ks], grid.points)
    return [SeminormTable(k, K, tuple(row[i] for row in rows)) for i, k in enumerate(ks)]


def seminorm_table(
    net: FunctionNet,
    k: int,
    K: CompactBox,
    grid: EpsGrid,
    sampling: Sampling = DEFAULT_SAMPLING,
) -> SeminormTable:
    return seminorm_tables(net, (k,), K, grid, sampling)[0]


@dataclass(frozen=True)
class SharpSeminorm:
    """The sharp seminorm P_{k,K} = exp(-v): a sampled table and the
    valuation v fitted to it.  Order, compact and every sample are the
    table's; ln_value and value derive from the estimate."""

    table: SeminormTable
    estimate: ValuationEstimate

    @classmethod
    def fit(cls, table: SeminormTable) -> "SharpSeminorm":
        """v fitted with scale.DEFAULT_WINDOW and scale.NEGLIGIBLE_FLOOR; a
        non-finite sample inside the fit window makes the fit unstable."""
        estimate = estimate_valuation(table.samples(), log_values=True)
        if any(e.nonfinite > 0 for e in table.entries[slice(*estimate.window)]):
            estimate = replace(estimate, stable=False)
        return cls(table, estimate)

    @property
    def k(self) -> int:
        return self.table.k

    @property
    def ln_value(self) -> float:
        """ln P_{k,K} = -v: -inf for a negligible order."""
        if self.estimate.value == math.inf:
            return -math.inf
        return -self.estimate.value

    @property
    def value(self) -> float:
        """P_{k,K} = exp(ln_value); 0 for a negligible order."""
        return math.exp(self.ln_value)


def sharp_seminorm(
    net: FunctionNet,
    k: int,
    K: CompactBox,
    grid: EpsGrid,
    sampling: Sampling = DEFAULT_SAMPLING,
) -> SharpSeminorm:
    """exp(-v), v fitted to the table of seminorm_table."""
    return SharpSeminorm.fit(seminorm_table(net, k, K, grid, sampling))


# ---------------------------------------------------------------------------
# moderateness / negligibility evidence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModerationVerdict:
    verdict: str  # 'moderate-evidence' | 'inconclusive'
    valuation: float
    bound_exponent: int  # smallest N with p <= eps^-N on the evidence
    stable: bool


def is_moderate(net: FunctionNet, K: CompactBox, k: int, grid: EpsGrid) -> ModerationVerdict:
    """Evidence that p_{k,K} <= eps^-N for some N, sampled with DEFAULT_SAMPLING."""
    s = sharp_seminorm(net, k, K, grid)
    v = s.estimate.value
    if not s.estimate.stable:
        return ModerationVerdict("inconclusive", v, 0, False)
    # ceil with a small guard so fit noise around an integer slope does not
    # inflate the reported exponent
    n_hat = 0 if v >= 0 else int(math.ceil(-v - 1e-9))
    return ModerationVerdict("moderate-evidence", v, n_hat, True)


@dataclass(frozen=True)
class NegligibilityVerdict:
    verdict: str  # 'negligible-evidence' | 'no' | 'inconclusive'
    valuation: float
    stable: bool


def is_negligible(net: FunctionNet, K: CompactBox, k: int, grid: EpsGrid) -> NegligibilityVerdict:
    """Evidence of a valuation at the floor or above M_MAX_NEGLIGIBLE (DEFAULT_SAMPLING)."""
    s = sharp_seminorm(net, k, K, grid)
    est = s.estimate
    if est.method == "negligible-floor":
        return NegligibilityVerdict("negligible-evidence", est.value, True)
    if not est.stable:
        return NegligibilityVerdict("inconclusive", est.value, False)
    if est.value > M_MAX_NEGLIGIBLE:
        return NegligibilityVerdict("negligible-evidence", est.value, True)
    return NegligibilityVerdict("no", est.value, True)
