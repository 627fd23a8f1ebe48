"""Function nets, compact box unions, and sharp seminorm estimation.

A function net assigns to every eps in (0,1) a smooth function on R^d.  The
seminorm p_{k,K}(eps) is the sup over a compact box union K of the largest
k-th order partial derivative magnitude; the sharp seminorm P_{k,K} is
exp(-v) for the fitted valuation v of that eps-indexed seminorm net.

Sup estimation uses tensor grids whose per-axis density follows the net's
oscillation hint m: at least 4 sample points per feature length eps^m,
subject to a hard per-axis cap.  When a net exposes multiplicative bump or
cutoff factors with affine arguments, the sample region is first intersected
with the factor support (the net vanishes identically outside it), which
keeps concentrated nets resolvable after the cap would otherwise bind.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Optional, Sequence

import numpy as np

from . import expr as ex
from .scale import (
    EpsGrid,
    NEGLIGIBLE_FLOOR,
    ValuationEstimate,
    estimate_valuation,
)

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
            min_side = min(hi - lo for b in bx for lo, hi in b)
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

# affine support constraints: the net vanishes where |slope*x_axis + shift| > bound
@dataclass(frozen=True)
class _SupportConstraint:
    axis: int
    slope: tuple[tuple[float, Fraction], ...]  # sum of c*eps^q
    shift: tuple[tuple[float, Fraction], ...]
    bound: float

    def interval_at(self, eps: float) -> Optional[Interval]:
        """Axis interval outside of which the factor vanishes; None if no cut."""
        c = sum(co * eps ** float(q) for co, q in self.slope)
        b = sum(co * eps ** float(q) for co, q in self.shift)
        if c == 0.0:
            return None
        lo = (-self.bound - b) / c
        hi = (self.bound - b) / c
        return (min(lo, hi), max(lo, hi))


def _linear_form(e: ex.Expr):
    """Decompose e as slope*x_axis + shift with eps-power coefficients.

    Returns (axis | None, slope_terms, shift_terms) or None when the shape is
    not affine in a single variable.  Terms are (coef, eps_exponent) lists.
    """
    if isinstance(e, ex.Const):
        return None, (), ((e.value, Fraction(0)),)
    if isinstance(e, ex.EpsPow):
        return None, (), ((1.0, e.exponent),)
    if isinstance(e, ex.Eps):
        return None, (), ((1.0, Fraction(1)),)
    if isinstance(e, ex.Var):
        return e.index, ((1.0, Fraction(0)),), ()
    if isinstance(e, ex.Add):
        axis = None
        slope: list = []
        shift: list = []
        for c in e.children:
            sub = _linear_form(c)
            if sub is None:
                return None
            a, sl, sh = sub
            if a is not None:
                if axis is not None and a != axis:
                    return None
                axis = a
            slope.extend(sl)
            shift.extend(sh)
        return axis, tuple(slope), tuple(shift)
    if isinstance(e, ex.Sub):
        lhs = _linear_form(e.left)
        rhs = _linear_form(e.right)
        if lhs is None or rhs is None:
            return None
        a1, sl1, sh1 = lhs
        a2, sl2, sh2 = rhs
        if a1 is not None and a2 is not None and a1 != a2:
            return None
        axis = a1 if a1 is not None else a2
        neg = lambda terms: tuple((-c, q) for c, q in terms)
        return axis, sl1 + neg(sl2), sh1 + neg(sh2)
    if isinstance(e, ex.Mul):
        axis = None
        slope: tuple = ()
        shift: tuple = ((1.0, Fraction(0)),)
        for c in e.children:
            sub = _linear_form(c)
            if sub is None:
                return None
            a, sl, sh = sub
            if a is not None and sl:
                if axis is not None:
                    return None  # degree would exceed 1
                # multiply current (pure shift) by (slope*x + shift)
                new_slope = tuple((c1 * c2, q1 + q2) for c1, q1 in shift for c2, q2 in sl)
                new_shift = tuple((c1 * c2, q1 + q2) for c1, q1 in shift for c2, q2 in sh)
                axis, slope, shift = a, new_slope, new_shift
            else:
                mult = sh
                slope = tuple((c1 * c2, q1 + q2) for c1, q1 in slope for c2, q2 in mult)
                shift = tuple((c1 * c2, q1 + q2) for c1, q1 in shift for c2, q2 in mult)
        return axis, slope, shift
    return None


def support_constraints(e: ex.Expr) -> tuple[_SupportConstraint, ...]:
    """Constraints from multiplicative bump/cutoff factors with affine args."""
    out: list[_SupportConstraint] = []
    factors = e.children if isinstance(e, ex.Mul) else (e,)
    for f in factors:
        if isinstance(f, (ex.Bump, ex.Cutoff)):
            bound = 1.0 if isinstance(f, ex.Bump) else 2.0
            form = _linear_form(f.arg)
            if form is None:
                continue
            axis, slope, shift = form
            if axis is None or not slope:
                continue
            out.append(_SupportConstraint(axis, slope, shift, bound))
    return tuple(out)


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

    def describe(self) -> dict:
        return {"variant": type(self).__name__, "dimension": self.dimension}

    # shared helper
    def _restrict(self, box, eps, constraints) -> Optional[list[Interval]]:
        out = list(box)
        for c in constraints:
            iv = c.interval_at(eps)
            if iv is None:
                continue
            lo, hi = out[c.axis]
            nlo, nhi = max(lo, iv[0]), min(hi, iv[1])
            if nlo > nhi:
                return None
            out[c.axis] = (nlo, nhi)
        return out


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
        name: str = "",
    ):
        if not 1 <= dimension <= 3:
            raise NetError("dimension must be in 1..3")
        self.dimension = dimension
        self.expression = ex.simplify(expression)
        used = ex.max_var_index(self.expression)
        if used >= dimension:
            raise NetError(f"expression uses x{used + 1} beyond dimension {dimension}")
        self.oscillation_hint = Fraction(oscillation_hint)
        if self.oscillation_hint < 0:
            raise NetError("oscillation hint must be >= 0")
        self.support_box = support_box
        self.name = name
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

    def sample_intervals(self, box, eps):
        return self._restrict(box, eps, self._constraints)

    def describe(self):
        return {
            "variant": "expression",
            "dimension": self.dimension,
            "expression": ex.to_text(self.expression),
            "oscillation_hint": str(self.oscillation_hint),
        }


class FiniteSumNet(FunctionNet):
    """Sum of expression nets evaluated termwise (no cross-term swell)."""

    def __init__(
        self,
        dimension: int,
        terms: Sequence[ex.Expr],
        oscillation_hint: Fraction | int | str = 0,
        support_box: Optional[CompactBox] = None,
        name: str = "",
    ):
        if not terms:
            raise NetError("finite_sum needs at least one term")
        self.dimension = dimension
        self.parts = [ExpressionNet(dimension, t) for t in terms]
        self.oscillation_hint = Fraction(oscillation_hint)
        self.support_box = support_box
        self.name = name

    def derivative_batch(self, alpha, coords, eps):
        acc = self.parts[0].derivative_batch(alpha, coords, eps)
        for p in self.parts[1:]:
            acc = acc + p.derivative_batch(alpha, coords, eps)
        return acc

    def describe(self):
        return {
            "variant": "finite_sum",
            "dimension": self.dimension,
            "terms": [ex.to_text(p.expression) for p in self.parts],
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
        name: str = "",
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
        self.oscillation_hint = Fraction(oscillation_hint)
        self.support_box = support_box
        self.name = name

    def _part(self, eps: float) -> ExpressionNet:
        for (lo, hi), part in self.bands:
            if lo < eps <= hi:
                return part
        raise NetError(f"eps={eps} not covered by bands")

    def derivative_batch(self, alpha, coords, eps):
        return self._part(eps).derivative_batch(alpha, coords, eps)

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


class CutoffProductNet(FunctionNet):
    """Base net times per-axis plateau cutoffs C((x_i - c_i)/r_i).

    Derivatives expand by the multivariate Leibniz rule; the cutoff factors
    separate across axes so their mixed derivatives are 1-d evaluations.
    """

    def __init__(self, base: FunctionNet, centers: Sequence[float], radii: Sequence[float], name: str = ""):
        if len(centers) != base.dimension or len(radii) != base.dimension:
            raise NetError("centers/radii must match the base dimension")
        if any(r <= 0 for r in radii):
            raise NetError("cutoff radii must be positive")
        self.base = base
        self.centers = tuple(float(c) for c in centers)
        self.radii = tuple(float(r) for r in radii)
        self.dimension = base.dimension
        self.oscillation_hint = base.oscillation_hint
        self.name = name
        outer = CompactBox.of(
            [(c - 2 * r, c + 2 * r) for c, r in zip(self.centers, self.radii)]
        )
        self.support_box = outer if base.support_box is None else _intersect_boxes(outer, base.support_box)

    def derivative_batch(self, alpha, coords, eps):
        _check_alpha(tuple(alpha), self.dimension)
        d = self.dimension
        from .expr.special import cutoff_deriv_values

        scaled = [
            (coords[i] - self.centers[i]) / self.radii[i] for i in range(d)
        ]
        acc = np.zeros(coords.shape[1])
        for beta in _sub_multi_indices(tuple(alpha)):
            coef = 1.0
            for i in range(d):
                coef *= math.comb(alpha[i], beta[i])
            term = self.base.derivative_batch(beta, coords, eps) * coef
            for i in range(d):
                order = alpha[i] - beta[i]
                cvals = cutoff_deriv_values(order, scaled[i])
                if order > 0:
                    cvals = cvals / self.radii[i] ** order
                with np.errstate(all="ignore"):
                    term = np.where(cvals == 0.0, 0.0, term * cvals)
            acc = acc + term
        return acc

    def sample_intervals(self, box, eps):
        inner = self.base.sample_intervals(box, eps)
        if inner is None:
            return None
        out = []
        for i, (lo, hi) in enumerate(inner):
            nlo = max(lo, self.centers[i] - 2 * self.radii[i])
            nhi = min(hi, self.centers[i] + 2 * self.radii[i])
            if nlo > nhi:
                return None
            out.append((nlo, nhi))
        return out

    def describe(self):
        return {
            "variant": "cutoff_product",
            "dimension": self.dimension,
            "centers": list(self.centers),
            "radii": list(self.radii),
            "base": self.base.describe(),
        }


class DifferenceNet(FunctionNet):
    """Internal combinator: pointwise difference a - b of two nets."""

    def __init__(self, a: FunctionNet, b: FunctionNet, name: str = ""):
        if a.dimension != b.dimension:
            raise NetError("difference requires equal dimensions")
        self.a = a
        self.b = b
        self.dimension = a.dimension
        self.oscillation_hint = max(a.oscillation_hint, b.oscillation_hint)
        self.support_box = None
        self.name = name

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


def _intersect_boxes(a: CompactBox, b: CompactBox) -> CompactBox:
    boxes = []
    for ba in a.boxes:
        for bb in b.boxes:
            cand = tuple((max(l1, l2), min(h1, h2)) for (l1, h1), (l2, h2) in zip(ba, bb))
            if all(lo <= hi for lo, hi in cand):
                boxes.append(cand)
    if not boxes:
        return a
    return CompactBox(tuple(boxes), min(hi - lo for bx in boxes for lo, hi in bx))


def _sub_multi_indices(alpha: tuple[int, ...]):
    """All beta <= alpha componentwise."""
    if not alpha:
        yield ()
        return
    head, rest = alpha[0], alpha[1:]
    for i in range(head + 1):
        for tail in _sub_multi_indices(rest):
            yield (i,) + tail


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeminormValue:
    ln_value: float  # ln p_{k,K}(eps); -inf for an exact zero
    undersampled: bool
    nonfinite: int
    points_per_axis: tuple[int, ...]


_CHUNK = 1 << 19


def _grid_chunks(axes: list[np.ndarray], limit: int):
    """Points of the tensor grid over axes, as (d, n) arrays of at most limit points.

    Points come in C order (axis 0 slowest), a few whole rows of axis 0 at a
    time; a row longer than limit is split the same way along the next axis.
    """
    head, rest = axes[0], axes[1:]
    if not rest:
        for a in range(0, head.size, limit):
            yield head[None, a : a + limit]
        return
    rows = max(1, limit // math.prod(ax.size for ax in rest))
    for a in range(0, head.size, rows):
        h = head[a : a + rows]
        for tail in _grid_chunks(rest, limit // h.size):
            yield np.vstack([np.repeat(h, tail.shape[1]), np.tile(tail, h.size)])


def _grid_max(net: FunctionNet, alpha, intervals, counts, eps) -> tuple[float, int]:
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(intervals, counts)]
    best = -1.0
    bad = 0
    for chunk in _grid_chunks(axes, _CHUNK):
        vals = net.derivative_batch(alpha, chunk, eps)
        finite = np.isfinite(vals)
        bad += int(vals.size - np.count_nonzero(finite))
        if finite.any():
            best = max(best, float(np.max(np.abs(vals[finite]))))
    return best, bad


def seminorm(
    net: FunctionNet,
    k: int,
    K: CompactBox,
    eps: float,
    sampling: Sampling = DEFAULT_SAMPLING,
) -> SeminormValue:
    """ln of p_{k,K}(u_eps): max |d^alpha u_eps| over |alpha| = k, sampled on K."""
    if K.dimension != net.dimension:
        raise NetError("compact set dimension mismatch")
    if not (0.0 < eps < 1.0):
        raise NetError("eps must lie in (0,1)")
    if k < 0 or k > K_MAX_CAP:
        raise NetError(f"order k={k} outside 0..{K_MAX_CAP}")
    best = -1.0
    undersampled = False
    nonfinite = 0
    points: tuple[int, ...] = ()
    for alpha in multi_indices(net.dimension, k):
        for box in K.boxes:
            intervals = net.sample_intervals(box, eps)
            if intervals is None:
                continue  # net vanishes on this box
            counts = []
            for lo, hi in intervals:
                n, capped = sampling.axis_count(hi - lo, eps, net.oscillation_hint)
                counts.append(n)
                undersampled = undersampled or capped
            points = tuple(counts)
            val, bad = _grid_max(net, alpha, intervals, counts, eps)
            nonfinite += bad
            best = max(best, val)
    ln = -math.inf if best <= 0.0 else math.log(best)
    return SeminormValue(ln, undersampled, nonfinite, points)


@dataclass(frozen=True)
class TableEntry:
    eps: float
    ln_value: float
    undersampled: bool
    nonfinite: int


@dataclass(frozen=True)
class SeminormTable:
    k: int
    K: CompactBox
    entries: tuple[TableEntry, ...]

    def samples(self) -> list[tuple[float, float]]:
        """(eps, ln p) pairs; entries with non-finite evaluations become nan."""
        out = []
        for e in self.entries:
            v = e.ln_value
            if e.nonfinite > 0 and v == -math.inf:
                v = math.nan  # nothing measurable at this eps
            out.append((e.eps, v))
        return out


def seminorm_table(
    net: FunctionNet,
    k: int,
    K: CompactBox,
    grid: EpsGrid,
    sampling: Sampling = DEFAULT_SAMPLING,
) -> SeminormTable:
    eps_list = grid.points
    workers = worker_count()
    if workers > 1 and len(eps_list) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            vals = list(pool.map(lambda e: seminorm(net, k, K, e, sampling), eps_list))
    else:
        vals = [seminorm(net, k, K, e, sampling) for e in eps_list]
    entries = tuple(
        TableEntry(e, v.ln_value, v.undersampled, v.nonfinite) for e, v in zip(eps_list, vals)
    )
    return SeminormTable(k, K, entries)


@dataclass(frozen=True)
class SharpSeminorm:
    k: int
    K: CompactBox
    estimate: ValuationEstimate
    value: float  # exp(-v); 0 when the net is negligible at this order

    @property
    def ln_value(self) -> float:
        """ln P_{k,K}: -inf for a negligible order."""
        if self.estimate.value == math.inf:
            return -math.inf
        return -self.estimate.value


def sharp_seminorm(
    net: FunctionNet,
    k: int,
    K: CompactBox,
    grid: EpsGrid,
    sampling: Sampling = DEFAULT_SAMPLING,
    window: int = 8,
    floor: float = NEGLIGIBLE_FLOOR,
) -> SharpSeminorm:
    table = seminorm_table(net, k, K, grid, sampling)
    est = estimate_valuation(table.samples(), window=window, floor=floor, log_values=True)
    value = 0.0 if est.value == math.inf else math.exp(-est.value)
    return SharpSeminorm(k, K, est, value)


# ---------------------------------------------------------------------------
# moderateness / negligibility evidence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModerationVerdict:
    verdict: str  # 'moderate-evidence' | 'inconclusive'
    valuation: float
    bound_exponent: int  # smallest N with p <= eps^-N on the evidence
    stable: bool


def is_moderate(net: FunctionNet, K: CompactBox, k: int, grid: EpsGrid,
                sampling: Sampling = DEFAULT_SAMPLING) -> ModerationVerdict:
    s = sharp_seminorm(net, k, K, grid, sampling)
    v = s.estimate.value
    if not s.estimate.stable:
        return ModerationVerdict("inconclusive", v, 0, False)
    if v == -math.inf:
        return ModerationVerdict("inconclusive", v, 0, True)
    # ceil with a small guard so fit noise around an integer slope does not
    # inflate the reported exponent
    n_hat = 0 if v >= 0 else int(math.ceil(-v - 1e-9))
    return ModerationVerdict("moderate-evidence", v, n_hat, True)


@dataclass(frozen=True)
class NegligibilityVerdict:
    verdict: str  # 'negligible-evidence' | 'no' | 'inconclusive'
    valuation: float
    stable: bool


def is_negligible(net: FunctionNet, K: CompactBox, k: int, grid: EpsGrid,
                  sampling: Sampling = DEFAULT_SAMPLING,
                  m_max: float = M_MAX_NEGLIGIBLE) -> NegligibilityVerdict:
    s = sharp_seminorm(net, k, K, grid, sampling)
    est = s.estimate
    if est.method == "negligible-floor":
        return NegligibilityVerdict("negligible-evidence", est.value, True)
    if not est.stable:
        return NegligibilityVerdict("inconclusive", est.value, False)
    if est.value > m_max:
        return NegligibilityVerdict("negligible-evidence", est.value, True)
    return NegligibilityVerdict("no", est.value, True)
