"""Evaluation of expression nets at points and on point batches.

Each tree is compiled once into a plan: its structurally distinct subtrees
in topological order (children before parents), with their child slots,
their use counts and the axes each one reads.  The plan is kept on the
root node, so it lives exactly as long as the tree and a call neither
hashes nor walks the tree again.  One call computes each distinct subtree
at most once, however often the tree repeats it: the product rule gives
d^k of cutoff(x)*sin(x/eps) 2^k terms over only k+2 distinct factors.

Evaluation is a recursive walk over the plan from the root (``_Walk``): a
slot is computed when a reader first asks for it and dropped after its last
reader, so a tree that shares nothing holds no more arrays at a time than a
walk over the tree itself.  The walk recurses as deep as the tree, as
``simplify`` and ``differentiate`` do; a tree too deep for it raises
ExpressionError.  The key contract is the exact-zero product short circuit:
a product with a factor that evaluates to exactly 0 is 0.  After a scalar
zero the later factors that depend on x are never evaluated; an array
factor's zeros mask the product pointwise.  A zero does not hide a factor
that is constant in space and non-finite: 0*(1/(eps-eps)) is nan, as
0/(eps-eps) is.  Any non-finite value that survives to the final result is
reported, never silently returned.

Batches of points come as a ``Grid``: one coordinate array per axis, which
together broadcast to a block of points.  On a tensor grid axis i has shape
(1, ..., n_i, ..., 1), so each subtree is evaluated on the broadcast shape of
the axes it uses: sin(x1/eps) runs once per x1 value, not once per grid
point.  A (d, N) array of points is a Grid whose axes all have shape (N,).

On a tensor Grid, ``separable_argmax`` finds max |e| and a point where e
takes it without forming the grid, when e is a product (or a single factor)
whose factors each use at most one axis, each axis's factors in one run of
the product's order, spatial constants anywhere.  It folds the factors as
``product`` does, each on its own axis: n_1 + n_2 values, not n_1 * n_2.
When the fold reaches a new axis, the running product collapses to its
signed value at the first argmax of its absolute value.  That is exact:
rounding to nearest is monotone and symmetric in sign, so |fl(a*b)| never
decreases as |a| grows, and every later product is largest in magnitude
where the earlier one was.  The max is bit for bit the one eval_batch would
give over the grid.  A max that is not finite (an overflow, or a non-finite
factor value, which argmax picks first) gives None, as does a tree of
another form; the caller then evaluates every point.

A Grid may carry a ``LeafMemo``: the values of its x-dependent sin, cos,
exp, bump and cutoff nodes, kept across trees.  The key is the node's
structural key, the one ``_compile`` interns with (kind, parameter with
-0.0 and 1.0 told from 0.0 and 1, children's keys), together with eps.  A
later tree on the same Grid that holds an equal node takes the stored value
and never evaluates that node's argument.  The stored value is the result
of the same operations on the same inputs, so no bit moves; it is
read-only, so an in-place write into it raises instead of corrupting later
trees.  A memo holds at most ``limit`` numbers and stores nothing more once
full.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import special
from .nodes import (
    Add,
    Bump,
    Const,
    Cos,
    Cutoff,
    Div,
    EpsPow,
    Expr,
    ExpressionError,
    IntPow,
    Mul,
    Sin,
    Sub,
    Exp,
    Var,
    children_of,
)


class EvaluationError(ExpressionError):
    """Non-finite result (overflow, 0/0, division by zero at the point)."""


class Grid:
    """A block of points stored per axis: ``grid[i]`` is coordinate i.

    The d coordinate arrays broadcast to ``block``; ``shape`` is (d, N) with
    N = prod(block), the shape of the flat point array that ``np.asarray``
    returns (points in C order over the block).  ``memo``, if given, keeps
    leaf values from one tree to the next on this block.
    """

    def __init__(self, coords: Sequence[np.ndarray], block: Sequence[int],
                 memo: Optional["LeafMemo"] = None):
        self.coords = tuple(coords)
        self.block = tuple(block)
        self.shape = (len(self.coords), math.prod(self.block))
        self.memo = memo

    @classmethod
    def tensor(cls, axes: Sequence[np.ndarray], memo: Optional["LeafMemo"] = None) -> "Grid":
        """The tensor grid over 1-d axes; axis i gets shape (1, ..., n_i, ..., 1)."""
        d = len(axes)
        coords = [np.asarray(a, dtype=float).reshape([-1 if j == i else 1 for j in range(d)])
                  for i, a in enumerate(axes)]
        return cls(coords, [len(a) for a in axes], memo)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.coords[i]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        flat = np.empty(self.shape, dtype=float if dtype is None else dtype)
        for row, c in zip(flat, self.coords):
            row[...] = np.broadcast_to(c, self.block).reshape(-1)
        return flat


class LeafMemo:
    """Leaf values on one Grid by (structural key, eps); at most limit numbers.
    ``maxes``, by (id(net), alpha), holds no leaf: (max |value|, non-finite
    count) of each multi-index a net formed unasked on the Grid."""

    def __init__(self, limit: int):
        self.limit = limit
        self.size = 0
        self.values: dict = {}
        self.maxes: dict = {}

    def keep(self, key, v) -> None:
        n = np.size(v)
        if self.size + n <= self.limit:
            if isinstance(v, np.ndarray):
                v.flags.writeable = False
            self.values[key] = v
            self.size += n


_KINDS = (Const, Var, EpsPow, Add, Mul, Sub, Div, IntPow, Sin, Cos, Exp, Bump, Cutoff)
_MEMO_KINDS = (Sin, Cos, Exp, Bump, Cutoff)  # the costly leaves a LeafMemo keeps


@dataclass(frozen=True)
class _Plan:
    """The distinct subtrees of one tree; slot i's children have slots < i.

    The last slot is the root.  ``params`` holds what a node carries besides
    its children: a Const value, a Var index, a float eps exponent, an
    integer power or a derivative order.
    """

    kinds: tuple[type, ...]
    params: tuple
    kids: tuple[tuple[int, ...], ...]
    uses: tuple[int, ...]  # references from the other distinct nodes
    varies: tuple[int, ...]  # bit i set: the subtree depends on x_(i+1); 0 for a constant
    memo_keys: tuple  # structural key of an x-dependent leaf a LeafMemo keeps, else None


def _param(e: Expr):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return e.index
    if isinstance(e, (EpsPow, IntPow)):
        return e.exponent
    if isinstance(e, (Bump, Cutoff)):
        return e.order
    return None


def _compile(root: Expr) -> _Plan:
    slot_of: dict[int, int] = {}  # id(node) -> slot; the tree keeps every node alive
    interned: dict[tuple, int] = {}
    kinds: list[type] = []
    params: list = []
    kids: list[tuple[int, ...]] = []
    uses: list[int] = []
    varies: list[int] = []
    skeys: list[tuple] = []  # key with the children's skeys in place of their slots
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in slot_of:
            stack.pop()
            continue
        children = children_of(node)
        pending = [c for c in children if id(c) not in slot_of]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        kind = type(node)
        if kind not in _KINDS:
            raise ExpressionError(f"cannot evaluate {node!r}")
        p = _param(node)
        ks = tuple(slot_of[id(c)] for c in children)
        # repr tells -0.0 from 0.0 and 1 from 1.0, which compare equal
        pkey = repr(p) if kind is Const else p
        key = (kind, pkey, ks)
        slot = interned.get(key)
        if slot is None:
            slot = interned[key] = len(kinds)
            kinds.append(kind)
            params.append(float(p) if kind is EpsPow else p)
            kids.append(ks)
            uses.append(0)
            axes = 1 << p if kind is Var else 0
            for c in ks:
                axes |= varies[c]
            varies.append(axes)
            skeys.append((kind, pkey, tuple(skeys[c] for c in ks)))
            for c in ks:
                uses[c] += 1
        slot_of[id(node)] = slot
    memo_keys = tuple(sk if kind in _MEMO_KINDS and vary else None
                      for kind, vary, sk in zip(kinds, varies, skeys))
    return _Plan(tuple(kinds), tuple(params), tuple(kids), tuple(uses), tuple(varies), memo_keys)


def _plan_of(e: Expr) -> _Plan:
    # Frozen nodes compare and hash by their fields only, so the memoised plan
    # is invisible to equality.  Threads that race here compile equal plans.
    plan = vars(e).get("_plan")
    if plan is None:
        plan = _compile(e)
        object.__setattr__(e, "_plan", plan)
    return plan


def _is_scalar(v) -> bool:
    # values are Python or numpy floats, or arrays that broadcast to the block
    return not isinstance(v, np.ndarray) or v.ndim == 0


def _apply(kind: type, p, arg, coords: Grid, eps: float):
    """Value of a leaf or a one-child node, given the child's value."""
    if kind is Const:
        return p
    if kind is Var:
        return coords[p]
    if kind is EpsPow:
        return float(np.float64(eps) ** p)
    if kind is IntPow:
        if _is_scalar(arg):
            try:
                return float(arg) ** p
            except (OverflowError, ZeroDivisionError):
                return math.inf if arg != 0.0 else math.nan
        return arg ** float(p)
    if kind is Sin:
        return np.sin(arg)
    if kind is Cos:
        return np.cos(arg)
    if kind is Exp:
        if _is_scalar(arg):
            try:
                return math.exp(float(arg))
            except OverflowError:
                return math.inf
        return np.exp(arg)
    deriv_values = special.bump_deriv_values if kind is Bump else special.cutoff_deriv_values
    return deriv_values(p, np.atleast_1d(np.asarray(arg, dtype=float)))


_PENDING = object()  # not computed (yet)


class _Walk:
    """One evaluation of a plan on a Grid at one eps.

    ``take(slot)`` hands a slot's value to one reader: ``value`` computes it
    on the first read, and the last reader takes the only reference, so numpy
    can reuse a temporary's buffer.  A memo hit counts the node's argument as
    read.  Values may be non-finite; numpy error state must be suppressed.
    Bound methods of one object, unlike closures that call each other, form
    no reference cycle that would keep the Grid alive after the call.
    """

    def __init__(self, plan: _Plan, coords: Grid, eps: float):
        self.plan, self.coords, self.eps = plan, coords, eps
        self.keys = plan.memo_keys if coords.memo is not None else None
        self.vals: list = [_PENDING] * len(plan.kinds)
        self.left = list(plan.uses)

    def take(self, slot: int):
        v = self.vals[slot]
        if v is _PENDING:
            v = self.value(slot)
        self.left[slot] -= 1
        self.vals[slot] = None if self.left[slot] == 0 else v
        return v

    def skip(self, slot: int) -> None:
        # a reader that will never read slot; a slot nobody will read is
        # never computed, and its own children lose that reader too
        self.left[slot] -= 1
        if self.left[slot] == 0:
            if self.vals[slot] is _PENDING:
                for c in self.plan.kids[slot]:
                    self.skip(c)
            self.vals[slot] = None

    def value(self, slot: int):
        """A float scalar or an array shaped by the axes the slot uses."""
        plan, eps = self.plan, self.eps
        kind, ks = plan.kinds[slot], plan.kids[slot]
        key = None if self.keys is None else self.keys[slot]
        if key is not None:
            hit = self.coords.memo.values.get((key, eps))
            if hit is not None:
                for c in ks:
                    self.skip(c)
                return hit
        if kind is Add:
            acc = self.take(ks[0])
            for c in ks[1:]:
                acc = acc + self.take(c)
            return acc
        if kind is Mul:
            return self.product(ks)
        if kind is Sub:
            return self.take(ks[0]) - self.take(ks[1])
        if kind is Div:
            # a numpy scalar divides as arrays do: x/0 is +-inf or nan, where
            # two Python floats would raise ZeroDivisionError
            num, den = self.take(ks[0]), self.take(ks[1])
            return num / (np.float64(den) if _is_scalar(den) else den)
        v = _apply(kind, plan.params[slot], self.take(ks[0]) if ks else None, self.coords, eps)
        if key is not None:
            self.coords.memo.keep((key, eps), v)
        return v

    def product(self, ks: tuple[int, ...]):
        """The factors folded in order, with the exact-zero short circuit."""
        acc = mask = None  # running product, zero mask of the array factors
        zero = nonfinite = False  # a scalar factor was 0, was non-finite
        for i, c in enumerate(ks):
            if zero and self.plan.varies[c]:
                # after an exact scalar zero only factors that are constant
                # in space can change the product (to nan); the others are
                # never evaluated
                self.skip(c)
                continue
            v = self.take(c)
            if _is_scalar(v):
                zero = zero or v == 0.0
                nonfinite = nonfinite or not math.isfinite(v)
            if zero:
                acc = mask = None  # the running product is moot
            else:
                if not _is_scalar(v):
                    m = v == 0.0
                    if m.any():
                        mask = m if mask is None else (mask | m)
                acc = v if i == 0 else acc * v
            del v  # the factor lives no longer than its step
        if zero:
            return math.nan if nonfinite else 0.0
        return acc if mask is None else np.where(mask, 0.0, acc)

    def argmax(self, ks: tuple[int, ...]):
        """``product`` of the factors ks (``_one_axis_runs``) folded axis by
        axis on a tensor Grid, as the module docstring says: (grid index,
        max |value|), or None when that max is not finite.  A scalar zero
        clears the product as it does in ``product``."""
        root = len(self.plan.kinds) - 1
        index = [0] * self.coords.shape[0]
        acc, run = None, 0  # running product, the axis bit it runs along (0: none yet)
        zero = nonfinite = False
        for i, c in enumerate(ks):
            axes = self.plan.varies[c]
            if zero and axes:
                self.skip(c)
                continue
            v = self.value(c) if c == root else self.take(c)
            if _is_scalar(v):
                axes = 0  # constant on the grid, whatever axis it reads (a product cut short)
                zero = zero or v == 0.0
                nonfinite = nonfinite or not math.isfinite(v)
            if zero:
                acc = None
                continue
            if axes and axes != run:
                if run:
                    acc = _collapse(acc, run, index)
                run = axes
            acc = v if i == 0 else acc * v
            del v
        if zero:
            return None if nonfinite else (tuple(index), 0.0)
        if run:
            acc = _collapse(acc, run, index)
        best = float(np.max(np.abs(acc)))  # a bump or cutoff of eps alone is a 1-value array
        return (tuple(index), best) if math.isfinite(best) else None


def _collapse(acc: np.ndarray, run: int, index: list[int]):
    """acc's signed value at the first argmax of |acc| along the axis with
    bit run, noted in index."""
    flat = acc.reshape(-1)  # acc varies along that axis alone
    index[run.bit_length() - 1] = j = int(np.argmax(np.abs(flat)))
    return flat[j]


def _one_axis_runs(plan: _Plan) -> Optional[tuple[int, ...]]:
    """The root's factors in fold order (the root alone when it is no
    product) if each uses at most one axis and, spatial constants aside, each
    axis's factors form one run; otherwise None."""
    root = len(plan.kinds) - 1
    ks = plan.kids[root] if plan.kinds[root] is Mul else (root,)
    ended = current = 0  # axes whose run is over, the axis of the current run
    for c in ks:
        axes = plan.varies[c]
        if axes & (axes - 1) or axes & ended:
            return None
        if axes and axes != current:
            ended |= current
            current = axes
    return ks


def _walk(e: Expr, coords: Grid, eps: float) -> _Walk:
    """A walk of e's plan, after the checks every entry shares."""
    plan = _plan_of(e)
    used = plan.varies[-1].bit_length()  # the root's axes: one more than the largest index
    if coords.shape[0] < used:
        raise ExpressionError(f"expression uses {used} variables, got {coords.shape[0]}")
    if not (0.0 < eps < 1.0):
        raise ExpressionError(f"eps must lie in (0,1), got {eps}")
    return _Walk(plan, coords, eps)


def _guarded(step, *args):
    """step(*args) with numpy's error state off; a tree too deep to walk
    raises ExpressionError."""
    with np.errstate(all="ignore"):
        try:
            return step(*args)
        except RecursionError:
            raise ExpressionError("expression is nested too deeply to evaluate") from None


def _root_value(e: Expr, coords: Grid, eps: float):
    walk = _walk(e, coords, eps)
    return _guarded(walk.value, len(walk.plan.kinds) - 1)


def separable_argmax(e: Expr, coords: Grid, eps: float) -> Optional[tuple[tuple[int, ...], float]]:
    """(grid index, max |e|) over a tensor Grid, found axis by axis as the
    module docstring says: the max ``eval_batch`` would give over the whole
    grid, bit for bit, and e takes it at that index.  None when e is not a
    product of one-axis factors in one run per axis, or the max is not
    finite."""
    d = coords.shape[0]
    if len(coords.block) != d or any(
        np.shape(c) != tuple(n if j == i else 1 for j in range(d))
        for i, (c, n) in enumerate(zip(coords.coords, coords.block))
    ):
        raise ExpressionError("separable_argmax needs a tensor Grid")
    walk = _walk(e, coords, eps)
    ks = _one_axis_runs(walk.plan)
    return None if ks is None else _guarded(walk.argmax, ks)


def eval_batch(e: Expr, coords: Grid | np.ndarray, eps: float) -> np.ndarray:
    """Evaluate at a batch of points, a Grid or an array of shape (d, N) ->
    values (N,), in the order of ``np.asarray(coords)``.

    Each subtree is computed on the broadcast shape of the axes it uses, so
    on a tensor Grid a subtree of x1 alone costs n_1 evaluations, not N.
    Non-finite entries are returned as inf/nan for the caller to flag.
    """
    if not isinstance(coords, Grid):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2:
            raise ExpressionError("coords must have shape (d, N)")
        coords = Grid(coords, coords.shape[1:])
    v = _root_value(e, coords, eps)
    if _is_scalar(v):
        return np.full(coords.shape[1], float(v))
    return np.broadcast_to(np.asarray(v, dtype=float), coords.block).reshape(-1)


def evaluate(e: Expr, x: Sequence[float], eps: float) -> float:
    """Evaluate at a single point; raises EvaluationError on a non-finite result."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ExpressionError("point must be a flat sequence of coordinates")
    if not np.all(np.isfinite(x)):
        raise ExpressionError("point coordinates must be finite")
    v = _root_value(e, Grid(x.reshape(-1, 1), (1,)), eps)
    out = float(v if _is_scalar(v) else np.asarray(v).ravel()[0])
    if not math.isfinite(out):
        raise EvaluationError(
            f"non-finite value ({out}) at x={tuple(float(c) for c in x)}, eps={eps}"
        )
    return out
