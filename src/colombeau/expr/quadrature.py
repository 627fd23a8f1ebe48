"""Weighted sums over shifted points: the mollifier quadrature.

``shifted_sums(e, rows, offsets, eps, weights)`` gives, for each weight
vector w over the M offsets o_q and each of the R rows x_j,
sum_q w_q e(x_j - o_q).  It owns every such sum: a net that is not an
expression sums its rows by the same flat rule (``row_local_sums``).

The rows go by class (``_row_classes``), one class per state of each
affine argument that a cutoff reads (``_Plan.settles``).  ``_RowBounds``
bounds the argument on each row by the argument's own operations on
interval ends, and rounding to nearest is monotone, so every flat value of
the row lies within them.  A row within [-1, 1] is on the plateau, one
outside (-2, 2) is outside, any other row in the band 1 < |t| < 2.  Each
class is walked on a shifted Grid of its own rows, where a cutoff over an
argument the class holds off the band is the closed form's 1.0 or 0.0,
and 0.0 at every order >= 1, with no closed form and no jets: the bits of
the flat walk, and only band rows reach the closed form.

In a class off the band the value at row j and offset q is often
separable, sum_r left[j, r] * right[r, q], of small rank (``_SepWalk``): a
sin or cos of an affine argument is its split's two columns (rank 2),
Var(i) is x_j * 1 + 1 * (-o_q), a settled cutoff and any x-free value a
scalar; a sum stacks its terms' ranks, a product scales by its scalars and
takes the row-wise Kronecker product of two separable factors, and a
quotient divides by an x-free divisor.  A product with a factor of exactly
0 is 0 and skips its later x-dependent factors, as the flat walk's
``product`` does.  Then the row's sum is sum_r left[j, r] * (sum_q w_q
right[r, q]): each inner sum is taken once per class and weight vector,
with ``math.fsum``, so it is the exact sum rounded once, in an order that
depends on neither the block nor the thread.  On the rule's mirrored nodes
a sum that vanishes by symmetry (sum_q w_q sin B_q) is exactly 0.  No
shifted point is formed.

Every other class is evaluated flat, on the shifted points of its rows: a
class with a row in the band of some cutoff, a class with an exp, a bump
or a sin of an argument that is not affine, one with a non-finite factor
(whose product follows the flat walk's rules), and one whose rank would
exceed ``_RANK_CAP``.  Its rows go in blocks of about ``_EVAL_CHUNK``
shifted points, and each row is summed against each weight vector by
numpy's own einsum loop, with no BLAS: a row's sum depends on its M values
and the weights alone, whatever the rows beside it, the block or the
thread count.

A separable row's sum differs from the flat one by rounding: the flat path
rounds each shifted argument and sums the products in einsum's order.
Where the sum cancels, as for a psi-route order of a net that oscillates
faster than the rule resolves, the separable sum is the one that matches
the rule's transform.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .evaluate import Grid, _Plan, _Split, _Walk, _cutoff_arg, _guarded, _walk
from .nodes import Add, Cos, Cutoff, Div, Expr, Mul, Sin, Sub, Var

# Shifted points per block of the rows summed flat: 2^14 float64 values are
# 128 KB per temporary, which the allocator recycles from block to block.
# Larger temporaries are fresh pages on every call: on a 2-vCPU VM,
# eval_batch of the order-0 cutoff cost 2.2-2.7 times as much per point in
# calls of 2^21 points as in calls of 2^14, and cutoff(x1)*sin(x1/eps) 1.6
# times.
_EVAL_CHUNK = 1 << 14
# a separable value of larger rank goes flat: its factors would outgrow the rows
_RANK_CAP = 16


class _RowBounds(_Walk):
    """A walk that bounds an affine slot on each row of a shifted Grid: (lo,
    hi), with every value of row j on the flat path in [lo_j, hi_j], or None
    when it cannot tell.  Each bound comes from the slot's own operations in
    its own order: Var(i) gives x_j less the largest and the smallest offset,
    a sum or a difference combines the ends, and a product or quotient by an
    x-free scalar scales them, swapped when the scalar is negative.  Rounding
    to nearest is monotone, so each rounded end bounds the rounded values.
    A scalar that is zero or not finite, whose product follows other rules,
    gives None; so does an empty set of offsets."""

    def value(self, slot: int):
        plan = self.plan
        kind, ks = plan.kinds[slot], plan.kids[slot]
        if not plan.varies[slot]:
            return super().value(slot)
        if kind is Var:
            x, o = self.coords.rows[plan.params[slot]], self.coords.offsets[plan.params[slot]]
            return (x - o.max(), x - o.min()) if o.size else None
        vals = [self.take(c) for c in ks]
        if kind is Add or kind is Sub:
            terms = [v if plan.varies[c] else (v, v) for c, v in zip(ks, vals)]
            if any(t is None for t in terms):
                return None
            lo, hi = terms[0]
            for tlo, thi in terms[1:]:
                lo, hi = (lo + tlo, hi + thi) if kind is Add else (lo - thi, hi - tlo)
            return lo, hi
        # a Mul or a Div: one factor moves (a Div's numerator), the rest are x-free
        i = next(j for j, c in enumerate(ks) if plan.varies[c])
        bounds = vals[i]
        if i:  # the x-free factors before it, folded as ``product`` folds them
            lead = vals[0]
            for v in vals[1:i]:
                lead = lead * v
            bounds = _scaled(bounds, lead, np.multiply)
        for v in vals[i + 1:]:
            bounds = _scaled(bounds, v, np.multiply if kind is Mul else np.divide)
        return bounds


def _scaled(bounds, c, op):
    """The bounds (lo, hi) of op (np.multiply or np.divide) by the x-free
    scalar c, swapped when c < 0; None when bounds is None or c is zero or
    not finite."""
    c = float(np.reshape(c, -1)[0])  # a bump or cutoff of eps alone is a 1-value array
    if bounds is None or c == 0.0 or not math.isfinite(c):
        return None
    lo, hi = op(bounds[0], c), op(bounds[1], c)
    return (lo, hi) if c > 0.0 else (hi, lo)


def _row_classes(plan: _Plan, grid: Grid, eps: float) -> list[tuple]:
    """The rows of a shifted Grid by class, one class per state of each
    argument in ``plan.settles``: (rows, settled), rows a slice when the
    class's rows are consecutive and an index array otherwise, and settled
    the order-0 cutoff, 1.0 or 0.0, of each argument the class holds off the
    band.  A row whose bounds (``_RowBounds``) lie in [-1, 1] is on the
    plateau, one whose bounds lie outside (-2, 2) is outside, and any other
    row, or every row when the bounds are None, is in the band."""
    total = grid.rows.shape[1]
    classes = [(np.ones(total, dtype=bool), {})]
    for arg in plan.settles:
        bounds = _RowBounds(plan, grid, eps).take(arg)
        if bounds is None:
            continue
        lo, hi = bounds
        plateau = (lo >= -1.0) & (hi <= 1.0)
        outside = ((lo >= 2.0) | (hi <= -2.0)) & (lo <= hi)  # a nan bound fails both
        band = ~(plateau | outside)
        split = []
        for mask, settled in classes:
            for state, value in ((plateau, 1.0), (outside, 0.0), (band, None)):
                part = mask & state
                if part.any():
                    split.append((part, settled if value is None else {**settled, arg: value}))
        classes = split
    if len(classes) == 1:
        return [(slice(0, total), classes[0][1])]
    found = []
    for mask, settled in classes:
        rows = np.flatnonzero(mask)
        if rows[-1] - rows[0] + 1 == rows.size:
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        found.append((rows, settled))
    return found


def _class_values(plan: _Plan, grid: Grid, eps: float, rows, settled: dict):
    """The flat values of the class rows of a shifted Grid: the plan's walk
    on those rows alone, with the class's settled cutoffs."""
    sub = Grid.shifted(grid.rows[:, rows], grid.offsets)
    return _Walk(plan, sub, eps, settled).take(len(plan.kinds) - 1)



class _NotSeparable(Exception):
    """A class whose root the separable walk cannot carry: it goes flat."""


class _Sep:
    """A value on a class's n rows and M offsets in separable form: at row j
    and offset q it is sum_r left[j, r] * right[r, q], of rank r."""

    __slots__ = ("left", "right")

    def __init__(self, left: np.ndarray, right: np.ndarray):
        if left.shape[1] > _RANK_CAP:
            raise _NotSeparable
        self.left, self.right = left, right


def _finite(v) -> float:
    """An x-free value as a float; a value that is not finite goes flat."""
    v = float(np.reshape(v, -1)[0])  # a bump or cutoff of eps alone is a 1-value array
    if not math.isfinite(v):
        raise _NotSeparable
    return v


class _SepWalk(_Walk):
    """A walk of one class of rows of a shifted Grid to a ``_Sep``, a float,
    or ``_NotSeparable`` (see the module docstring).  x-free slots, and the
    ``_Split`` slots, are walked as usual.  A scalar scales the right
    factor, which has M columns, not the left one, which has a row per
    point."""

    def value(self, slot: int):
        plan = self.plan
        kind, ks = plan.kinds[slot], plan.kids[slot]
        if not plan.varies[slot] or kind is _Split:
            return super().value(slot)
        if kind is Mul:
            return self.sep_product(ks)
        if kind is Add or kind is Sub:
            return self.sep_sum(kind is Sub, ks)
        if (kind is Sin or kind is Cos) and plan.kinds[ks[0]] is _Split:
            left, sin_right, cos_right = self.take(ks[0])
            return _Sep(left, sin_right if kind is Sin else cos_right)
        if kind is Cutoff:
            settled = self.settled.get(_cutoff_arg(plan.kinds, plan.params, plan.kids, slot))
            if settled is None:
                raise _NotSeparable
            self.skip(ks[0])
            return 0.0 if plan.params[slot] else settled
        if kind is Var:
            x, o = self.coords.rows[plan.params[slot]], self.coords.offsets[plan.params[slot]]
            return _Sep(np.stack([x, np.ones_like(x)], axis=1), np.stack([np.ones_like(o), -o]))
        if kind is Div:
            num, den = self.take(ks[0]), self.take(ks[1])
            if isinstance(den, _Sep):
                raise _NotSeparable
            den = _finite(den)
            if den == 0.0:
                raise _NotSeparable
            return _Sep(num.left, num.right / den) if isinstance(num, _Sep) else _finite(num) / den
        raise _NotSeparable

    def sep_sum(self, sub: bool, ks: tuple[int, ...]):
        lefts, rights = [], []
        const = 0.0  # the float terms, summed
        for i, c in enumerate(ks):
            v = self.take(c)
            negate = sub and i
            if isinstance(v, _Sep):
                lefts.append(v.left)
                rights.append(-v.right if negate else v.right)
            else:
                const += -_finite(v) if negate else _finite(v)
        if const != 0.0:
            lefts.append(np.ones((self.coords.rows.shape[1], 1)))
            rights.append(np.full((1, self.coords.offsets.shape[1]), const))
        if not lefts:
            return 0.0
        if len(lefts) == 1:
            return _Sep(lefts[0], rights[0])
        return _Sep(np.concatenate(lefts, axis=1), np.concatenate(rights))

    def sep_product(self, ks: tuple[int, ...]):
        acc = None  # the running product, a float or a _Sep
        zero = False
        for c in ks:
            if zero and self.plan.varies[c]:
                self.skip(c)
                continue
            v = self.take(c)
            if not isinstance(v, _Sep):
                v = _finite(v)
                if v == 0.0:
                    zero, acc = True, None
                if zero:
                    continue
            acc = v if acc is None else _times(acc, v)
        return 0.0 if zero else acc


def _times(a, b):
    """a * b for floats or ``_Sep`` values a and b."""
    if not isinstance(a, _Sep):
        a, b = b, a
    if not isinstance(a, _Sep):
        return a * b
    if not isinstance(b, _Sep):
        return a if b == 1.0 else _Sep(a.left, a.right * b)
    n, m = a.left.shape[0], a.right.shape[1]
    rank = a.left.shape[1] * b.left.shape[1]
    if rank > _RANK_CAP:
        raise _NotSeparable
    return _Sep((a.left[:, :, None] * b.left[:, None, :]).reshape(n, rank),
                (a.right[:, None, :] * b.right[None, :, :]).reshape(rank, m))


def _separable_sums(plan: _Plan, grid: Grid, eps: float, rows, settled: dict,
                    weights: np.ndarray, out: np.ndarray) -> None:
    """out[:, rows], the sums of the class rows over the offsets: each
    sum_r left[j, r] * fsum_q(w_q * right[r, q]).  ``_NotSeparable``, with out
    untouched, when the class's root does not separate or a factor or a term
    is not finite."""
    sub = Grid.shifted(grid.rows[:, rows], grid.offsets)
    v = _SepWalk(plan, sub, eps, settled).take(len(plan.kinds) - 1)
    if not isinstance(v, _Sep):
        v = _finite(v)
        if v == 0.0:  # rank 0: +0.0, as the flat sum of zeros gives
            out[:, rows] = 0.0
            return
        v = _Sep(np.ones((sub.rows.shape[1], 1)), np.full((1, grid.offsets.shape[1]), v))
    if not (np.isfinite(v.left).all() and np.isfinite(v.right).all()):
        raise _NotSeparable
    inner = []
    for w in weights:
        terms = v.right * w
        if not np.isfinite(terms).all():
            raise _NotSeparable
        try:
            inner.append([math.fsum(t) for t in terms.tolist()])
        except OverflowError:
            raise _NotSeparable from None
    term = np.empty(sub.rows.shape[1])
    in_place = isinstance(rows, slice)  # a view of out
    for i, sums in enumerate(inner):
        acc = out[i, rows] if in_place else np.empty_like(term)
        np.multiply(v.left[:, 0], sums[0], out=acc)
        for r in range(1, len(sums)):
            acc += np.multiply(v.left[:, r], sums[r], out=term)
        if not in_place:
            out[i, rows] = acc


def row_local_sums(values: Callable[[np.ndarray], np.ndarray], rows, m: int,
                   weights: np.ndarray, out: np.ndarray) -> None:
    """out[:, rows] (rows a slice or an index array of out's columns): for
    each weight vector w, a row of weights, and each row j, sum_q w_q v[j, q],
    with v the flat values on the M shifted points of each row.  values(block)
    gives them on a block of about _EVAL_CHUNK shifted points (an index array
    of rows), one value for all or R*M values in row-major order.  numpy's
    einsum sums each row in its own loop, so a row's sums depend on its own
    values and the weights alone.  One value for all is spread over the
    block first: einsum sums an operand of stride 0 by another kernel."""
    index = np.arange(out.shape[1])[rows]
    step = max(1, _EVAL_CHUNK // m)
    for start in range(0, index.size, step):
        block = index[start:start + step]
        v = values(block)
        v = np.reshape(v, (block.size, m)) if np.size(v) > 1 else np.full((block.size, m), v)
        out[:, block] = np.einsum("jq,wq->wj", v, weights)


def shifted_sums(e: Expr, rows: np.ndarray, offsets: np.ndarray, eps: float,
                 weights: Sequence[np.ndarray]) -> np.ndarray:
    """sum_q w_q e(x_j - o_q) for each weight vector w over the (d, M)
    offsets and each x_j of the (d, R) rows: a (len(weights), R) array,
    class by class (see the module docstring)."""
    grid = Grid.shifted(rows, offsets)
    plan = _walk(e, grid, eps).plan
    return _guarded(_shifted_sums, plan, grid, eps, np.array(weights, dtype=float))


def _shifted_sums(plan: _Plan, grid: Grid, eps: float, weights: np.ndarray) -> np.ndarray:
    out = np.empty((len(weights), grid.rows.shape[1]))
    for rows, settled in _row_classes(plan, grid, eps):
        if len(settled) == len(plan.settles):  # no argument in the band
            try:
                _separable_sums(plan, grid, eps, rows, settled, weights, out)
                continue
            except _NotSeparable:
                pass
        row_local_sums(lambda block: _class_values(plan, grid, eps, block, settled),
                       rows, grid.offsets.shape[1], weights, out)
    return out
