"""Mollification by the normalized radial bump and the density experiments.

The mollifier is psi(x) = c_d * exp(1/(|x|^2 - 1)) inside the open unit ball
and 0 outside.  All integrals use a tensor Gauss-Legendre rule of fixed order
Q per axis on [-1,1]^d; c_d is the reciprocal of that same rule applied to
the unnormalized bump over all Q^d nodes, so the discrete rule integrates psi
to 1 up to round-off (the weights' exact sum rounds to 1 - 2^-53 in 1-d),
and a constant net is reproduced to that round-off.  The
Mollifier keeps the rule's live nodes, where w_q psi(s_q) != 0.

Convolution is computed after the substitution t = eps^n s, which keeps the
node count independent of eps:

    (u star psi_{eps^n})(x) = sum_q w_q psi(s_q) u(x - eps^n s_q).

Both derivative routes run this one quadrature loop and differ only in the
weights and in which derivative of u they read.  MollifiedNet puts the
derivative on u (the exact symbolic path) with weights w_q psi(s_q); for the
growth-bound check PsiRouteNet puts it on psi instead -- u star
d^alpha(psi_{eps^n}) -- with weights w_q psi^(alpha)(s_q) eps^(-n|alpha|),
and the agreement of the two routes is itself a test.  psi and its
derivatives come from the bump recurrence in expr.special; the mollifier
builds the weights w_q psi^(alpha)(s_q) once per multi-index and every route
shares them.  On the psi route every order reads the same base values, so one
pass over a sweep's kept block serves the asked order and the orders the route
declares (``formed_together``, REGULAR_BOUND_K_LIST), each by its own
weighted sum; the values live in one store on the base net per (n, mollifier),
which is how regular_bound_experiment's k loop samples the base once.

Both routes ask the base net for all their weighted sums at once
(``FunctionNet.shifted_sums``), over the output points as rows and the
offsets eps^n s_q; the quadrature (``expr.shifted_sums``) owns every such
sum.  An expression net sums the rows whose value separates over the nodes
first: cutoff(x1)*sin(x1/eps) on a row whose shifted points all lie on the
cutoff's plateau is sin A_j times sum_q w_q cos B_q less cos A_j times
sum_q w_q sin B_q, each sum taken once with math.fsum, so no shifted point
is formed.  The other rows (the cutoff's band, every tree that does not
separate, and every net that is not an expression) are evaluated on blocks
of their shifted points, and each row is summed by numpy's einsum loop
from its own values alone (``expr.row_local_sums``), so no block size and
no thread count moves a bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import expr as ex
from .expr.special import ball_bump_values
from .nets import (
    CompactBox,
    DEFAULT_SAMPLING,
    DifferenceNet,
    ExpressionNet,
    FunctionNet,
    K_MAX_CAP,
    NetError,
    Sampling,
    _check_alpha,
    _clip,
    _block_max,
    enlarge,
    map_eps,
    multi_indices,
    seminorm,
    seminorm_table,
    sharp_seminorm,
)
from .regularity import psequence
from .scale import EpsGrid, as_index, jsonable

DEFAULT_QUAD_ORDER = 32
DEFAULT_N_LIST = (1, 2, 3, 4)
DENSITY_N_LIST = (1, 2, 3)  # n_list of the regular-bound and sublinear-density experiments
REGULAR_BOUND_K_LIST = (0, 1, 2, 3)  # k_list of the regular-bound experiment
DEFAULT_ENLARGEMENT = 0.5
CONVERGENCE_SLACK = 0.2
REGULAR_BOUND_J0 = 4
REGULAR_BOUND_SLACK = 0.1
CLASS_A_SLACK = 0.1
# A difference is numerically null when it stays this far (in ln) below the
# base net's own magnitude; quadrature-weight round-off sits near 1e-16.
LN_NUMERICALLY_NULL = math.log(1e-10)

# Grid for difference-net valuation fits.  The difference u*psi - u shrinks
# like eps^(2(n-1)) relative to u, so on the steep default grid it falls
# below float64 cancellation noise for n >= 3; a gentler ratio keeps every
# fitted window well above round-off while still spanning two decades.
CONVERGENCE_GRID = EpsGrid(ratio=0.8)


# ---------------------------------------------------------------------------
# mollifier construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Mollifier:
    """Normalized bump with its tensor Gauss-Legendre rule (order Q/axis) at
    the live nodes, where w_q psi(s_q) != 0."""

    dimension: int
    order: int
    c: float
    nodes: np.ndarray  # (d, M) live tensor nodes in fixed lexicographic order
    weights: np.ndarray  # (M,) tensor weight products (rule only, no psi)
    core_weights: np.ndarray  # (M,) weights * psi(nodes), none 0; sums to 1
    _psi_weights: dict = field(default_factory=dict, init=False, repr=False)  # see psi_weights

    def integral(self) -> float:
        """Re-integrate psi with the mollifier's own rule."""
        return float(np.sum(self.core_weights))

    def psi(self, points: np.ndarray) -> np.ndarray:
        return self.psi_deriv((0,) * self.dimension, points)

    def psi_deriv(self, alpha: Sequence[int], points: np.ndarray) -> np.ndarray:
        alpha = _check_alpha(alpha, self.dimension)
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] != self.dimension:
            raise NetError("points must have shape (d, N)")
        return self.c * ball_bump_values(alpha, points)

    def psi_weights(self, alpha: Sequence[int]) -> np.ndarray:
        """w_q psi^(alpha)(s_q) at the live nodes, built once per multi-index;
        every caller, on any thread, gets the one array kept."""
        alpha = _check_alpha(alpha, self.dimension)
        if alpha not in self._psi_weights:
            self._psi_weights.setdefault(alpha, self.weights * self.psi_deriv(alpha, self.nodes))
        return self._psi_weights[alpha]


def build_mollifier(d: int = 1, Q: int = DEFAULT_QUAD_ORDER) -> Mollifier:
    """c from all Q^d nodes, of which the live ones are kept."""
    d = as_index(d, "mollifier dimension", 1, 3, NetError)
    Q = as_index(Q, "quadrature order", 16, error=NetError)
    x, w = np.polynomial.legendre.leggauss(Q)
    if not (np.isfinite(x).all() and np.isfinite(w).all()):
        raise NetError("quadrature rule returned non-finite nodes")
    nodes = np.stack([g.ravel() for g in np.meshgrid(*([x] * d), indexing="ij")])
    weights = np.ones(nodes.shape[1])
    for g in np.meshgrid(*([w] * d), indexing="ij"):
        weights = weights * g.ravel()
    raw = weights * ball_bump_values((0,) * d, nodes)
    total = float(np.sum(raw))
    if not (total > 0.0 and math.isfinite(total)):
        raise NetError("bump quadrature failed")
    c = 1.0 / total
    core = c * raw
    live = core != 0.0
    return Mollifier(d, Q, c, nodes[:, live], weights[live], core[live])


@functools.cache
def _default_mollifier(d: int) -> Mollifier:
    return build_mollifier(d)


# ---------------------------------------------------------------------------
# mollified nets
# ---------------------------------------------------------------------------


class MollifiedNet(FunctionNet):
    """u_eps star psi_{eps^n}; derivatives fall on the base net."""

    variant = "mollified"

    def __init__(self, base: FunctionNet, n: int, mollifier: Mollifier):
        if base.dimension != mollifier.dimension:
            raise NetError("mollifier dimension must match the net")
        n = as_index(n, "mollification order n", 1, error=NetError)
        if base.oscillation_hint > n:
            # The substitution t = eps^n s maps base features of size eps^m to
            # s-features of size eps^(m-n); for m > n no fixed-order rule can
            # resolve them on the whole grid.
            raise NetError(
                "base oscillation hint exceeds the mollification order; "
                "a fixed quadrature order cannot resolve the integrand"
            )
        support = None if base.support_box is None else enlarge(base.support_box, 1.0)
        super().__init__(base.dimension, base.oscillation_hint, support)
        self.base = base
        self.n = n
        self.mollifier = mollifier

    def _sums(self, alpha, coords, eps, weights) -> np.ndarray:
        """The quadrature sums sum_q w_q d^alpha u_eps(x - eps^n s_q) of each
        weight vector w at each point x of coords (a Grid flattens to its
        (d, N) points, a 1-d one without a copy): the base's ``shifted_sums``
        over the offsets eps^n s_q."""
        if isinstance(coords, ex.Grid) and coords.shape[0] == 1:
            coords = np.reshape(np.broadcast_to(coords[0], coords.block), (1, -1))
        offsets = eps**self.n * self.mollifier.nodes
        return self.base.shifted_sums(alpha, np.asarray(coords), offsets, eps, weights)

    def derivative_batch(self, alpha, coords, eps):
        return self._sums(alpha, coords, eps, [self.mollifier.core_weights])[0]

    def sample_intervals(self, box, eps):
        shift = eps**self.n
        inflated = tuple((lo - shift, hi + shift) for lo, hi in box)
        inner = self.base.sample_intervals(inflated, eps)
        if inner is None:
            return None
        return _clip(box, enumerate((lo - shift, hi + shift) for lo, hi in inner))

    def describe(self):
        return {
            "variant": self.variant,
            "scale_power": self.n,
            "quadrature_order": self.mollifier.order,
            "base": self.base.describe(),
        }


def mollify(u: FunctionNet, n: int, mollifier: Optional[Mollifier] = None) -> MollifiedNet:
    return MollifiedNet(u, n, mollifier or _default_mollifier(u.dimension))


class PsiRouteNet(MollifiedNet):
    """Same convolution with derivatives on psi: u star d^alpha(psi_{eps^n}).

    derivative_batch(alpha, x, eps) computes
        eps^(-n|alpha|) * sum_q w_q psi^(alpha)(s_q) u_eps(x - eps^n s_q),
    which equals the mollified net's alpha-derivative up to quadrature error.

    Every order reads the same base values u_eps(x - eps^n s_q) and differs
    only in its weights (``Mollifier.psi_weights``).  So on a block with a
    memo (a sweep's kept block), derivative_batch forms, from one pass over
    the base, every multi-index of the asked order and of the orders in
    ``formed_together`` (REGULAR_BOUND_K_LIST) that has no block max there
    yet, each by its own weighted sum.  It returns the asked one and
    leaves each other one's block max and non-finite count in the memo's
    ``maxes`` for ``_grid_max``.  Every route over one base, n and mollifier
    keeps its seminorm values in one store on the base; no route is kept,
    since a base holding routes that hold it would be a reference cycle.
    """

    variant = "psi-route"
    formed_together = REGULAR_BOUND_K_LIST

    def __init__(self, base: FunctionNet, n: int, mollifier: Mollifier):
        super().__init__(base, n, mollifier)
        routes = vars(base).setdefault("_psi_route_values", {})
        self._seminorm_values = routes.setdefault((n, mollifier), {})

    def derivative_batch(self, alpha, coords, eps):
        alpha = _check_alpha(alpha, self.dimension)
        memo = getattr(coords, "memo", None)
        others = [] if memo is None else [
            a for k in sorted({sum(alpha), *self.formed_together})
            for a in multi_indices(self.dimension, k)
            if a != alpha and (id(self), a) not in memo.maxes]
        # (w_q psi^(a)(s_q), eps^(-n|a|)) of the asked multi-index and the others
        (weights, scale), *terms = [
            (self.mollifier.psi_weights(a), float(np.float64(eps) ** (-self.n * sum(a))))
            for a in (alpha, *others)]
        sums = self._sums((0,) * self.dimension, coords, eps, [weights] + [w for w, _ in terms])
        for a, (_, sc), row_sums in zip(others, terms, sums[1:]):
            row_sums *= sc
            # (-1.0, 0): no finite value, as _grid_max reads an empty block
            memo.maxes[id(self), a] = _block_max(row_sums) if row_sums.size else (-1.0, 0)
        sums[0] *= scale
        return sums[0]


# ---------------------------------------------------------------------------
# cutoff device
# ---------------------------------------------------------------------------


def cutoff_net(u: FunctionNet, inner_box: CompactBox, outer_margin: float) -> ExpressionNet:
    """u times per-axis plateau cutoffs: identity on inner_box, zero outside
    inner_box inflated by outer_margin.

    The plateau:support ratio of the cutoff profile is 1:2, so the margin
    must be at least each half-width of inner_box for both requirements to
    be satisfiable (radius (h+m)/2 then has plateau >= h and support h+m).

    u must be an expression net, a finite sum among them; any other net
    (banded, mollified, difference) raises NetError.  The result is the
    expression net u * prod_i cutoff((x_i - c_i)/r_i), with u's oscillation
    hint and, as support box, c +- 2r cut to u's support box (c +- 2r alone
    when no base box meets it with positive width).  Each cutoff factor adds
    to the symbolic derivative trees: with u = cutoff(x1)*sin(x1/eps) the
    order-8 tree is 98 024 nodes, under expr.EXPR_SIZE_CAP, and an order-9
    derivative raises SizeCapError; a base with three x1 factors raises it
    from order 7 on.
    """
    if not isinstance(u, ExpressionNet):
        raise NetError(f"cutoff_net needs an expression net, not {type(u).__name__}")
    if outer_margin <= 0:
        raise NetError("outer_margin must be positive")
    if len(inner_box.boxes) != 1:
        raise NetError("inner region must be a single box")
    if inner_box.dimension != u.dimension:
        raise NetError("inner box dimension mismatch")
    factors, outer = [u.expression], []
    for i, (lo, hi) in enumerate(inner_box.boxes[0]):
        h = (hi - lo) / 2.0
        if outer_margin < h - 1e-12:
            raise NetError(
                f"outer_margin {outer_margin} below the inner half-width {h}; "
                "the plateau cannot cover the inner box"
            )
        c, r = (lo + hi) / 2.0, (h + outer_margin) / 2.0
        factors.append(ex.Cutoff(ex.Div(ex.Sub(ex.Var(i), ex.Const(c)), ex.Const(r))))
        outer.append((c - 2 * r, c + 2 * r))
    base_boxes = () if u.support_box is None else u.support_box.boxes
    # a base box that only touches the outer box meets it in a zero-width box
    cut = [b for b in (_clip(outer, enumerate(bb)) for bb in base_boxes)
           if b is not None and all(lo < hi for lo, hi in b)]
    support = CompactBox.of(*cut) if cut else CompactBox.of(outer)
    return ExpressionNet(u.dimension, ex.Mul(tuple(factors)), u.oscillation_hint, support)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceEntry:
    n: int
    v_hat: float  # fitted valuation of p_{k,K}(u star psi_{eps^n} - u)
    required: float  # n + reference - CONVERGENCE_SLACK
    ok: bool
    stable: bool  # the fit's; True also when every sample is numerically null


@dataclass(frozen=True)
class ConvergenceRecord:
    k: int
    K: CompactBox
    reference: float  # fitted valuation of p_{k+1, K+r}(u)
    entries: tuple[ConvergenceEntry, ...]
    slope: float  # regression slope of v_hat against n
    all_ok: bool

    def to_csv_rows(self) -> list[tuple]:
        return [
            (e.n, e.v_hat, self.reference, e.v_hat - e.n - self.reference)
            for e in self.entries
        ]

    def to_json_dict(self) -> dict:
        return jsonable({
            "k": self.k,
            "K": self.K.describe(),
            "reference": self.reference,
            "slope": self.slope,
            "all_ok": self.all_ok,
            "entries": [asdict(e) for e in self.entries],
        })


def convergence_experiment(
    u: FunctionNet,
    K: CompactBox,
    k: int,
    n_list: Sequence[int] = DEFAULT_N_LIST,
    grid: EpsGrid = CONVERGENCE_GRID,
    sampling: Sampling = DEFAULT_SAMPLING,
    r: float = DEFAULT_ENLARGEMENT,
    mollifier: Optional[Mollifier] = None,
) -> ConvergenceRecord:
    """Fit the valuation of u star psi_{eps^n} - u for each n and compare
    against the quantitative bound n + v(p_{k+1, K+r}) - CONVERGENCE_SLACK."""
    k = as_index(k, "order k", 0, K_MAX_CAP - 1, NetError)  # the reference reads p_{k+1}
    n_list = tuple(as_index(n, "mollification order n", 1, error=NetError) for n in n_list)
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise NetError("n_list must be strictly increasing and non-empty")
    ref = sharp_seminorm(u, k + 1, enlarge(K, r), grid, sampling)
    v_ref = ref.estimate.value

    def numerically_null(table) -> bool:
        # float arithmetic can confirm a negligible difference only down to
        # round-off relative to u itself; u keeps its p_0 values once sampled
        base = seminorm_table(u, 0, K, grid, sampling).samples()
        return all(
            ln_d == -math.inf or (math.isfinite(ln_d) and ln_d <= ln_u + LN_NUMERICALLY_NULL)
            for (_, ln_d), (_, ln_u) in zip(table.samples(), base)
        )

    entries = []
    for n in n_list:
        diff = DifferenceNet(mollify(u, n, mollifier), u)
        s = sharp_seminorm(diff, k, K, grid, sampling)
        est = s.estimate
        required = math.inf if v_ref == math.inf else n + v_ref - CONVERGENCE_SLACK
        ok = v_ref != math.inf and (est.value >= required or est.value == math.inf)
        # a difference at round-off (u star psi = u for a linear u) meets any
        # bound, though a fit to its noise misses the rate and may be unstable
        null = not ok and numerically_null(s.table)
        entries.append(ConvergenceEntry(n, est.value, required, ok or null, est.stable or null))
    finite = [(e.n, e.v_hat) for e in entries if math.isfinite(e.v_hat)]
    if len(finite) >= 2:
        ns, vs = zip(*finite)
        slope = float(np.polyfit(np.asarray(ns, float), np.asarray(vs, float), 1)[0])
    elif all(e.v_hat == math.inf for e in entries):
        slope = math.inf  # negligible differences at every order
    else:
        slope = math.nan
    return ConvergenceRecord(
        k, K, v_ref, tuple(entries), slope, all(e.ok for e in entries)
    )


@dataclass(frozen=True)
class BoundCheckRow:
    j: int
    eps: float
    ln_lhs: float  # ln p_{k,K}(u star psi_{eps^n}), psi-derivative route
    ln_rhs: float  # (-nk-1) ln eps + ln sup_L |u_eps|
    ok: bool


@dataclass(frozen=True)
class RegularBoundReport:
    k: int
    n: int
    rows: tuple[BoundCheckRow, ...]
    verdict: str  # 'yes' | 'no'

    @property
    def all_ok(self) -> bool:
        return self.verdict == "yes"


def regular_bound_experiment(
    u: FunctionNet,
    K: CompactBox,
    k: int,
    n: int,
    grid: EpsGrid = EpsGrid(),
    sampling: Sampling = DEFAULT_SAMPLING,
    mollifier: Optional[Mollifier] = None,
) -> RegularBoundReport:
    """Check p_{k,K}(u star psi_{eps^n}) <= eps^(-nk-1) sup_L |u_eps| in the ln domain,
    up to REGULAR_BOUND_SLACK, for every grid index j >= REGULAR_BOUND_J0, derivatives on psi.

    The route's seminorms live on u, so a call for another k in
    REGULAR_BOUND_K_LIST with the same n, K and mollifier reads the orders
    the first call sampled.

    The cost grows with d: a region of more than _CHUNK points keeps no
    block, so every multi-index sums the base again at every point, over
    every kept quadrature node where the point's sum does not separate.  On
    the default EpsGrid(), cutoff(x1)*sin(x2/eps)*cos(x1) on [0, 1]^2 (544
    kept 2-d nodes) at k = 1, n = 1 took 13 minutes on one thread of a
    2-vCPU VM, about 85 s per eps once each axis holds its 20001-point cap
    (4e8 points, nearly all off the cutoff's band, whose sums separate); a
    short grid such as EpsGrid(count=6) takes under a second."""
    k = as_index(k, "order k", 0, K_MAX_CAP, NetError)
    n = as_index(n, "mollification order n", 1, error=NetError)
    if u.support_box is None:
        raise NetError("the regular bound needs a net with a declared support_box")
    if grid.count <= REGULAR_BOUND_J0:
        raise NetError(f"the regular bound checks eps grid indices from {REGULAR_BOUND_J0} on")
    route = PsiRouteNet(u, n, mollifier or _default_mollifier(u.dimension))
    L = u.support_box

    def sides(eps):
        lhs = seminorm(route, k, K, eps, sampling).ln_value
        sup0 = seminorm(u, 0, L, eps, sampling).ln_value
        return lhs, (-n * k - 1) * math.log(eps) + sup0

    checked = grid.points[REGULAR_BOUND_J0:]
    rows = tuple(
        BoundCheckRow(j, eps, lhs, rhs, lhs <= rhs + REGULAR_BOUND_SLACK)
        for j, (eps, (lhs, rhs)) in enumerate(zip(checked, map_eps(sides, checked)),
                                              REGULAR_BOUND_J0)
    )
    return RegularBoundReport(k, n, rows, "yes" if all(r.ok for r in rows) else "no")


@dataclass(frozen=True)
class ClassARow:
    K: CompactBox
    k: int
    v_hat: float
    bound: float  # -Nk - N - CLASS_A_SLACK
    ok: bool
    stable: bool


@dataclass(frozen=True)
class ClassAReport:
    N: int
    verdict: str  # 'yes' | 'no' | 'inconclusive'
    rows: tuple[ClassARow, ...]


def class_A_membership(
    u: FunctionNet,
    N: int,
    Ks: Sequence[CompactBox],
    k_max: int,
    grid: EpsGrid = EpsGrid(),
    sampling: Sampling = DEFAULT_SAMPLING,
) -> ClassAReport:
    """Evidence for p_{k,K}(u_eps) <= eps^(-Nk-N): fitted valuations must
    stay above -Nk - N - CLASS_A_SLACK for all k <= k_max and all compacts."""
    N = as_index(N, "N", 1, error=NetError)
    if not Ks:
        raise NetError("class A needs at least one compact")
    rows = []
    any_unstable = False
    any_violation = False
    for K in Ks:
        for s in psequence(u, K, grid, sampling, k_max).entries:
            est = s.estimate
            bound = -N * s.k - N - CLASS_A_SLACK
            ok = est.value >= bound
            if not est.stable:
                any_unstable = True
            elif not ok:
                any_violation = True
            rows.append(ClassARow(K, s.k, est.value, bound, ok, est.stable))
    verdict = "no" if any_violation else "inconclusive" if any_unstable else "yes"
    return ClassAReport(N, verdict, tuple(rows))
