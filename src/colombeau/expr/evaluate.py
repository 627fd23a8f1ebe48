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

A shifted Grid (``Grid.shifted``) holds the R*M points x_j - o_q of R rows
and M offsets, the mollifier quadrature's shifted points.  ``Var(i)`` on it
is the materialised difference, made by the same subtraction as a flat
array's, so every leaf keeps its bits but a sin or a cos whose argument is
affine in x with slopes free of x (built from Var, x-free subtrees and
Add, Sub, Mul and Div, e.g. x1/eps or (x1 + 2*x2)/eps).  There the
argument is A_j - B_q, with A the argument on the rows and B its linear
part on the offsets, and sin(A_j - B_q) = sin A_j cos B_q - cos A_j sin B_q
(cos likewise): 2(R + M) sines and cosines and two multiplies and an add
per point, in place of the argument and a sine on all R*M points.  The
split value differs from the flat one by the argument's rounding, about
|argument| * 2^-53.  Its rounding is shared along a row (A_j) and along an
offset (B_q), where the flat path rounds each x_j - o_q before scaling it,
so a weighted sum over the offsets keeps cancellations that the flat path
loses to that point-to-point noise.  Trees are compiled a second time
for shifted Grids, with a plan-only ``_Split`` slot per such argument that
its Sin and Cos leaves share.  Exp stays flat, as exp(A)*exp(-B) can
overflow where exp(A - B) is finite; so do bump, the cutoff's derivatives
and every argument that is not affine (sin(x1^2/eps)).

A walk may be handed settled cutoffs: for an affine argument that lies
off the band 1 < |t| < 2 on every point of the Grid, the closed form's 1.0
or 0.0 there.  A cutoff over it is then that value, and 0.0 at every order
>= 1, with no closed form and no jets, and keeps every bit.  The
quadrature (``quadrature.shifted_sums``) walks the rows of a shifted Grid
class by class this way; ``eval_batch`` walks a shifted Grid's plan as it
stands.

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
    leaf values from one tree to the next on this block.  A shifted Grid
    (``Grid.shifted``) also keeps its ``rows`` and ``offsets``.
    """

    rows = offsets = None  # a shifted Grid's (d, R) rows and (d, M) offsets

    def __init__(self, coords: Sequence[Optional[np.ndarray]], block: Sequence[int],
                 memo: Optional["LeafMemo"] = None):
        self.coords = list(coords)
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

    @classmethod
    def shifted(cls, rows: np.ndarray, offsets: np.ndarray) -> "Grid":
        """The R*M points ``rows[:, :, None] - offsets[:, None, :]`` of (d, R)
        rows and (d, M) offsets, row-major, as one flat block.  Coordinate i
        is that difference, formed on its first read; a sin or cos of an
        affine argument never reads it (see the module docstring)."""
        rows, offsets = np.asarray(rows, dtype=float), np.asarray(offsets, dtype=float)
        grid = cls([None] * rows.shape[0], (rows.shape[1] * offsets.shape[1],))
        grid.rows, grid.offsets = rows, offsets
        return grid

    def __getitem__(self, i: int) -> np.ndarray:
        c = self.coords[i]
        if c is None:
            c = self.coords[i] = (self.rows[i][:, None] - self.offsets[i][None, :]).reshape(-1)
        return c

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        flat = np.empty(self.shape, dtype=float if dtype is None else dtype)
        for i, row in enumerate(flat):
            row[...] = np.broadcast_to(self[i], self.block).reshape(-1)
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


class _Jets:
    """The plan-only kind of a Cutoff argument's jets: ``special.cutoff_jets``
    of its one child to its parameter, the top order of the Cutoff leaves of
    order >= 1 that read it."""


class _Split:
    """The plan-only kind of an affine Sin or Cos argument on a shifted Grid:
    its one child split into row and offset factors (``_Walk.split``), which
    its Sin and Cos leaves read."""


@dataclass(frozen=True)
class _Plan:
    """The distinct subtrees of one tree; slot i's children have slots < i.

    The last slot is the root.  ``params`` holds what a node carries besides
    its children: a Const value, a Var index, a float eps exponent, an
    integer power, a derivative order or a ``_Jets`` top order.  A Cutoff
    leaf of order >= 1 reads the ``_Jets`` slot of its argument, which reads
    the argument: one jet build serves every such leaf over that argument.
    In the plan for shifted Grids a Sin or Cos leaf over an affine argument
    reads that argument's ``_Split`` slot in the same way.
    """

    kinds: tuple[type, ...]
    params: tuple
    kids: tuple[tuple[int, ...], ...]
    uses: tuple[int, ...]  # readers: the other distinct nodes, and the caller of the root
    varies: tuple[int, ...]  # bit i set: the subtree depends on x_(i+1); 0 for a constant
    memo_keys: tuple  # structural key of an x-dependent leaf a LeafMemo keeps, else None
    # shifted plan: the slots affine in x with x-free slopes that Cutoff leaves read; else empty
    settles: tuple[int, ...]


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


def _compile(root: Expr, shifted: bool) -> _Plan:
    """The plan of root; for shifted Grids (``shifted``), with ``_Split``
    slots under the Sin and Cos leaves over an affine argument."""
    slot_of: dict[int, int] = {}  # id(node) -> slot; the tree keeps every node alive
    interned: dict[tuple, int] = {}
    jets_of: dict[int, int] = {}  # argument slot -> its _Jets slot
    split_of: dict[int, int] = {}  # argument slot -> its _Split slot
    affine: list[bool] = []  # shifted: the slot depends on x, affinely with x-free slopes
    kinds: list[type] = []
    params: list = []
    kids: list[tuple[int, ...]] = []
    uses: list[int] = []
    varies: list[int] = []
    skeys: list = []  # key with the children's skeys in place of their slots; None for _Jets

    def add(kind: type, p, ks: tuple[int, ...], skey) -> int:
        axes = 1 << p if kind is Var else 0
        for c in ks:
            axes |= varies[c]
            uses[c] += 1
        kinds.append(kind)
        params.append(p)
        kids.append(ks)
        uses.append(0)
        varies.append(axes)
        skeys.append(skey)
        if shifted:
            moving = [c for c in ks if varies[c]]
            affine.append(kind is Var or bool(moving) and all(affine[c] for c in moving) and (
                kind in (Add, Sub) or kind is Mul and len(moving) == 1
                or kind is Div and moving == [ks[0]]))
        return len(kinds) - 1

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
            skey = (kind, pkey, tuple(skeys[c] for c in ks))
            if kind is Cutoff and p:
                jets = jets_of.get(ks[0])
                if jets is None:
                    jets = jets_of[ks[0]] = add(_Jets, p, ks, None)
                params[jets] = max(params[jets], p)
                ks = (jets,)
            elif shifted and kind in (Sin, Cos) and affine[ks[0]]:
                split = split_of.get(ks[0])
                if split is None:
                    split = split_of[ks[0]] = add(_Split, None, ks, None)
                ks = (split,)
            slot = interned[key] = add(kind, float(p) if kind is EpsPow else p, ks, skey)
        slot_of[id(node)] = slot
    uses[-1] += 1  # the caller reads the root
    memo_keys = tuple(sk if kind in _MEMO_KINDS and vary else None
                      for kind, vary, sk in zip(kinds, varies, skeys))
    settles = sorted({a for a in (_cutoff_arg(kinds, params, kids, i) for i in range(len(kinds)))
                      if a is not None and affine[a]}) if shifted else ()
    return _Plan(tuple(kinds), tuple(params), tuple(kids), tuple(uses), tuple(varies), memo_keys,
                 tuple(settles))


def _cutoff_arg(kinds, params, kids, slot: int) -> Optional[int]:
    """The argument slot of the Cutoff leaf at slot (an order >= 1 leaf reads
    it through its ``_Jets`` slot); None for any other kind."""
    if kinds[slot] is not Cutoff:
        return None
    arg = kids[slot][0]
    return kids[arg][0] if params[slot] else arg


def _plan_of(e: Expr, shifted: bool = False) -> _Plan:
    # Frozen nodes compare and hash by their fields only, so the memoised plans
    # are invisible to equality.  Threads that race here compile equal plans.
    name = "_shifted_plan" if shifted else "_plan"
    plan = vars(e).get(name)
    if plan is None:
        plan = _compile(e, shifted)
        object.__setattr__(e, name, plan)
    return plan


def axis_mask(e: Expr) -> int:
    """The axes e uses, from its compiled plan: bit i set when e depends on
    x_(i+1), 0 for a tree constant in x."""
    return _plan_of(e).varies[-1]


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
    if kind is Sin or kind is Cos:
        if isinstance(arg, tuple):  # the _Split of an affine argument
            left, right = arg[0], arg[1 if kind is Sin else 2]
            # two products and their sum per point, in numpy's own loop: a
            # BLAS product may round a point by its place in the kernel's tiles
            return np.einsum("jk,kq->jq", left, right).reshape(-1)
        return np.sin(arg) if kind is Sin else np.cos(arg)
    if kind is Exp:
        if _is_scalar(arg):
            try:
                return math.exp(float(arg))
            except OverflowError:
                return math.inf
        return np.exp(arg)
    if kind is _Jets:
        return special.cutoff_jets(p, np.atleast_1d(np.asarray(arg, dtype=float)))
    if kind is Cutoff and p:
        band, rows = arg  # the jets of the cutoff's argument
        out = np.zeros(band.shape)
        out[band] = rows[p]
        return out
    deriv_values = special.bump_deriv_values if kind is Bump else special.cutoff_deriv_values
    return deriv_values(p, np.atleast_1d(np.asarray(arg, dtype=float)))


_PENDING = object()  # not computed (yet)


class _Walk:
    """One evaluation of a plan on a Grid at one eps.

    ``take(slot)`` hands a slot's value to one reader: ``value`` computes it
    on the first read, and the last reader takes the only reference, so numpy
    can reuse a temporary's buffer; the caller is the root's one reader.  A
    memo hit or a skipped slot counts its children as read.  A cutoff leaf of
    order >= 1 reads its argument's ``_Jets`` slot, so the jets are built on
    the first read and go with their last reader, whether that leaf was
    computed, taken from the memo or skipped, as any value does.
    Values may be non-finite; numpy error state must be suppressed.
    Bound methods of one object, unlike closures that call each other, form
    no reference cycle that would keep the Grid alive after the call.
    """

    def __init__(self, plan: _Plan, coords: Grid, eps: float, settled: Optional[dict] = None):
        self.plan, self.coords, self.eps = plan, coords, eps
        self.settled = settled or {}  # argument slot -> the order-0 cutoff off the band there
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
        if kind is _Split:
            return self.split(ks[0])
        if kind is Sub:
            return self.take(ks[0]) - self.take(ks[1])
        if kind is Div:
            # a numpy scalar divides as arrays do: x/0 is +-inf or nan, where
            # two Python floats would raise ZeroDivisionError
            num, den = self.take(ks[0]), self.take(ks[1])
            return num / (np.float64(den) if _is_scalar(den) else den)
        settled = None
        if kind is Cutoff and self.settled:
            settled = self.settled.get(_cutoff_arg(plan.kinds, plan.params, plan.kids, slot))
        if settled is not None:
            # a class off the band: the closed form's 1.0 or 0.0, and 0.0 at
            # every order >= 1; a 1-value array keeps an array's arithmetic
            # in its readers, as the values on every point would
            self.skip(ks[0])
            v = np.full(1, 0.0 if plan.params[slot] else settled)
        else:
            v = _apply(kind, plan.params[slot], self.take(ks[0]) if ks else None, self.coords, eps)
        if key is not None:
            self.coords.memo.keep((key, eps), v)
        return v

    def split(self, arg: int):
        """The affine slot arg on a shifted Grid as ((sin A, cos A) per row,
        (cos B, -sin B) and (sin B, cos B) per offset): A is arg on the R
        rows and B its linear part on the M offsets, so arg at row j less
        offset q is A_j - B_q, and sin(A_j - B_q) = sin A_j cos B_q -
        cos A_j sin B_q and cos(A_j - B_q) = sin A_j sin B_q + cos A_j cos B_q
        are sums over the two columns.  arg itself is skipped."""
        rows, offsets = self.coords.rows, self.coords.offsets
        a = _Walk(self.plan, Grid(rows, rows.shape[1:]), self.eps).take(arg)
        b = _LinearWalk(self.plan, Grid(offsets, offsets.shape[1:]), self.eps).take(arg)
        self.skip(arg)
        # out= also spreads a scalar: a product cut short by a zero or nan factor
        left, right = np.empty((rows.shape[1], 2)), np.empty((2, 2, offsets.shape[1]))
        np.sin(a, out=left[:, 0])
        np.cos(a, out=left[:, 1])
        np.cos(b, out=right[0, 0])
        np.sin(b, out=right[1, 0])
        np.negative(right[1, 0], out=right[0, 1])
        right[1, 1] = right[0, 0]
        return left, right[0], right[1]

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
        index = [0] * self.coords.shape[0]
        acc, run = None, 0  # running product, the axis bit it runs along (0: none yet)
        zero = nonfinite = False
        for i, c in enumerate(ks):
            axes = self.plan.varies[c]
            if zero and axes:
                self.skip(c)
                continue
            v = self.take(c)
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


class _LinearWalk(_Walk):
    """A walk that gives an affine slot's linear part: the terms of its sums
    and differences that do not depend on x drop out, so on the offsets it
    gives B_q = sum_i slope_i * offset_(i,q) in the slot's own arithmetic."""

    def value(self, slot: int):
        kind, ks = self.plan.kinds[slot], self.plan.kids[slot]
        if kind not in (Add, Sub) or not self.plan.varies[slot]:
            return super().value(slot)
        acc = None
        for i, c in enumerate(ks):
            if not self.plan.varies[c]:
                self.skip(c)
                continue
            v = self.take(c)
            if kind is Sub and i:
                v = -v
            acc = v if acc is None else acc + v
        return acc


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
    """A walk of e's plan for coords, after the checks every entry shares."""
    plan = _plan_of(e, coords.offsets is not None)
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
    return _guarded(walk.take, len(walk.plan.kinds) - 1)


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
