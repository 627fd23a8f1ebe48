"""Weighted sums over shifted points: the mollifier quadrature.

``shifted_sums(e, rows, offsets, eps, weights, chunk)`` gives, for each
weight vector w over the M offsets o_q and each of the R rows x_j,
sum_q w_q e(x_j - o_q).  The rows go by class (``evaluate._row_classes``):
one class per state of each affine argument that a cutoff reads, on the
plateau, outside or in the band.  In a class off the band every cutoff over
that argument is a constant, 1.0 or 0.0 at order 0 and 0.0 at every order
>= 1, and no jets are built.

In such a class the value at row j and offset q is often separable,
sum_r left[j, r] * right[r, q], of small rank (``_SepWalk``): a sin or cos
of an affine argument is its split's two columns (rank 2), Var(i) is
x_j * 1 + 1 * (-o_q), a settled cutoff and any x-free value a scalar; a sum
stacks its terms' ranks, a product scales by its scalars and takes the
row-wise Kronecker product of two separable factors, and a quotient divides
by an x-free divisor.  A product with a factor of exactly 0 is 0 and skips
its later x-dependent factors, as the flat walk's ``product`` does.  Then
the row's sum is sum_r left[j, r] * (sum_q w_q right[r, q]): each inner sum
is taken once per class and weight vector, with ``math.fsum``, so it is the
exact sum rounded once, in an order that depends on neither the block, the
thread nor BLAS.  On the rule's mirrored nodes a sum that vanishes by
symmetry (sum_q w_q sin B_q) is exactly 0.  No shifted point is formed.

Every other class is evaluated flat, on the shifted points of its rows, as
``eval_batch`` evaluates a shifted Grid: a class with a row in the band of
some cutoff, a class with an exp, a bump or a sin of an argument that is
not affine, one with a non-finite factor (whose product follows the flat
walk's rules), and one whose rank would exceed ``_RANK_CAP``.  Its rows
are summed by matrix-vector products over the whole ``ROW_GROUP``s of the
blocks of ``row_blocks``, so each keeps the bits the flat quadrature gives
it, whatever the block size.

A separable row's sum differs from the flat one by rounding: the flat path
rounds each shifted argument, and BLAS sums the products in its own order.
Where the sum cancels, as for a psi-route order of a net that oscillates
faster than the rule resolves, the separable sum is the one that matches
the rule's transform.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .evaluate import (
    Grid,
    _Plan,
    _Split,
    _Walk,
    _by_row,
    _class_values,
    _cutoff_arg,
    _guarded,
    _row_classes,
    _walk,
)
from .nodes import Add, Cos, Cutoff, Div, Expr, Mul, Sin, Sub, Var

# Rows per matrix-vector block of a flat class are a multiple of this, bar a
# last block that takes one row more (``row_blocks``).  OpenBLAS's
# matrix-vector kernels sum rows in groups of 4; 64 leaves room for wider ones.
ROW_GROUP = 64
# a separable value of larger rank goes flat: its factors would outgrow the rows
_RANK_CAP = 16


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
                    weights: list, out: np.ndarray) -> None:
    """out[:, rows], the sums of the class rows over the offsets: each
    sum_r left[j, r] * fsum_q(w_q * right[r, q]).  ``_NotSeparable``, with out
    untouched, when the class's root does not separate or a factor or a term
    is not finite."""
    sub = Grid.shifted(grid.rows[:, rows], grid.offsets)
    v = _SepWalk(plan, sub, eps, settled).take(len(plan.kinds) - 1)
    if not isinstance(v, _Sep):
        v = _finite(v)
        if v == 0.0:  # rank 0: +0.0, as a matrix-vector product of zeros gives
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


def row_blocks(total: int, m: int, chunk: int):
    """Slices of the total rows of a shifted block, about chunk shifted
    points each: whole ROW_GROUPs of rows, a last block that would hold one
    row joined to the one before it.  BLAS sums a full group of rows in one
    order, and a product's last few rows, or a product of one row, in
    another; these blocks give every row the bits of a single-threaded
    product over all rows, whatever chunk is.  Blocks this small are also
    far below the size at which OpenBLAS splits a product across threads,
    which moves those group bounds."""
    step = max(1, chunk // m // ROW_GROUP) * ROW_GROUP
    start = 0
    while start < total:
        stop = total if total - start <= step + 1 else start + step
        yield slice(start, stop)
        start = stop


def shifted_sums(e: Expr, rows: np.ndarray, offsets: np.ndarray, eps: float,
                 weights: Sequence[np.ndarray], chunk: int) -> np.ndarray:
    """sum_q w_q e(x_j - o_q) for each weight vector w over the (d, M)
    offsets and each x_j of the (d, R) rows: a (len(weights), R) array.
    The classes that do not separate are evaluated flat in blocks of about
    chunk shifted points (see the module docstring)."""
    grid = Grid.shifted(rows, offsets)
    plan = _walk(e, grid, eps).plan
    return _guarded(_shifted_sums, plan, grid, eps, [np.asarray(w, dtype=float) for w in weights],
                    chunk)


def _shifted_sums(plan: _Plan, grid: Grid, eps: float, weights: list, chunk: int) -> np.ndarray:
    total, m = grid.rows.shape[1], grid.offsets.shape[1]
    classes = _row_classes(plan, grid, eps)
    out = np.empty((len(weights), total))
    # each row's flat class, -1 for one that separates
    flat = np.full(total, -1, dtype=np.min_scalar_type(-1 - len(classes)))
    flats = []  # the settled cutoffs of each flat class
    for rows, settled in classes:
        if len(settled) == len(plan.settles):  # no argument in the band
            try:
                _separable_sums(plan, grid, eps, rows, settled, weights, out)
                continue
            except _NotSeparable:
                pass
        flat[rows] = len(flats)
        flats.append(settled)
    if not flats:
        return out
    for block in row_blocks(total, m, chunk):
        # the whole ROW_GROUPs of the block that hold a flat row: a row's sum
        # depends only on its own values and its place in its group, or in
        # the block's last rows, so the other rows may stay 0 here
        local = np.flatnonzero(flat[block] >= 0)
        if not local.size:
            continue
        first = local[0] // ROW_GROUP * ROW_GROUP
        stop = min(block.stop - block.start, (local[-1] // ROW_GROUP + 1) * ROW_GROUP)
        if stop - first == 1 and first:  # a product of one row sums in another order
            first -= ROW_GROUP
        rows = slice(block.start + first, block.start + stop)
        of_row = flat[rows]
        keep = of_row >= 0
        if keep.all() and (of_row == of_row[0]).all():  # one flat class: its values as they are
            vals = _by_row(_class_values(plan, grid, eps, rows, flats[of_row[0]]), m)
            if np.ndim(vals) != 2:
                vals = np.full((stop - first, m), vals)
        else:
            vals = np.zeros((stop - first, m))
            for i, settled in enumerate(flats):
                mine = np.flatnonzero(of_row == i)
                if mine.size:
                    vals[mine] = _by_row(_class_values(plan, grid, eps, rows.start + mine, settled), m)
        for i, w in enumerate(weights):
            out[i, rows][keep] = (vals @ w)[keep]
    return out
