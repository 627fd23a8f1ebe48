"""Native evaluators for the bump and cutoff primitives and their derivatives.

The partial derivatives of the radial bump exp(1/D), D = |x|^2 - 1, over d
axes are d^alpha exp(1/D) = exp(1/D) * P_alpha(x) / D^(2|alpha|) with
integer-coefficient polynomials P_alpha that satisfy

    P_{alpha+e_i} = d_i P_alpha * D^2 - 2 x_i P_alpha (2|alpha| D + 1),

tabulated once per multi-index as dense coefficient arrays with one axis per
coordinate.  For d = 1 this is the bump(t) = exp(1/(t^2-1)) primitive of the
expression language; the mollifier uses d = 1, 2, 3.  Because every
derivative keeps an explicit bump factor, values on and outside |x| >= 1 are
exactly zero -- the rational prefactor is never evaluated there.

Cutoff derivatives are obtained by truncated-Taylor (jet) propagation through
the closed form B(2-|t|)/(B(2-|t|)+B(|t|-1)) on the transition band
1 < |t| < 2; the function is identically 1 / 0 (all derivatives zero) on the
plateau / outside the support, including at the seam points |t| = 1, 2.
``cutoff_jets(top, t)`` gives every order 1..top from one build, and row k
has the bits of a build to order k, since a jet's row k reads only the rows
below it.  So a compiled plan (``evaluate``) reads the jets of each argument
of cutoff leaves of order >= 1 from one slot, built to the top order those
leaves ask: a walk builds it at the first leaf, each leaf takes its row, and
the jets go with their last reader.  A build keeps three (top+1, n) series
buffers: an input series goes as soon as its reciprocal exists, and its
buffer takes the next result.
The cutoff itself (order 0) skips the jets: hi * (1/(hi + lo)) with
hi = exp(-(1/(2-s))) and lo = exp(-(1/(s-1))) is the order-0 jet's own
sequence of operations, so it gives the same bits, and a block that lies
wholly on the plateau or wholly outside the support is filled without a
mask.  Otherwise the closed form runs on the span from the first band point
to the last, in pieces of ``_SPAN`` points with two buffers of that size,
and ``np.copyto(..., where=band)`` keeps its band values: no band gather, no
scatter, and each band point goes through the same operations as on its
own.  nan maps to 0, as it falls in neither region.  On a shifted Grid,
``evaluate`` hands this form only the rows that meet the band.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "ball_bump_values",
    "bump_deriv_values",
    "cutoff_deriv_values",
    "cutoff_jets",
    "bump_poly",
]

# ---------------------------------------------------------------------------
# bump
# ---------------------------------------------------------------------------

_BUMP_POLYS: dict[tuple[int, ...], np.ndarray] = {}


def _pad_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(np.maximum(a.shape, b.shape))
    out[tuple(slice(0, n) for n in a.shape)] += a
    out[tuple(slice(0, n) for n in b.shape)] += b
    return out


def _shift(P: np.ndarray, axis: int, by: int) -> np.ndarray:
    """P * x_axis^by on dense coefficient arrays."""
    pad = [(0, 0)] * P.ndim
    pad[axis] = (by, 0)
    return np.pad(P, pad)


def _times_D(P: np.ndarray) -> np.ndarray:
    """P * (|x|^2 - 1) on dense coefficient arrays."""
    out = -P
    for j in range(P.ndim):
        out = _pad_add(out, _shift(P, j, 2))
    return out


def bump_poly(alpha: Sequence[int]) -> np.ndarray:
    """Coefficients of P_alpha in d^alpha exp(1/D) = P_alpha/D^(2|alpha|) * exp(1/D).

    Entry [i_0, ..., i_{d-1}] is the coefficient of x_0^i_0 ... x_{d-1}^i_{d-1};
    trailing all-zero slices are trimmed, as numpy's 1-d polynomial helpers do.
    """
    alpha = tuple(int(a) for a in alpha)
    P = _BUMP_POLYS.get(alpha)
    if P is not None:
        return P
    if not any(alpha):
        P = np.ones((1,) * len(alpha))
    else:
        i = next(j for j, a in enumerate(alpha) if a > 0)
        prev = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
        Q = bump_poly(prev)
        m = sum(prev)
        term1 = _times_D(_times_D(np.polynomial.polynomial.polyder(Q, axis=i)))
        term2 = _shift(_pad_add(2.0 * m * _times_D(Q), Q), i, 1)
        P = _pad_add(term1, -2.0 * term2)
        P = P[tuple(slice(0, ix.max() + 1) for ix in np.nonzero(P))]
    _BUMP_POLYS[alpha] = P
    return P


def ball_bump_values(alpha: Sequence[int], points: np.ndarray) -> np.ndarray:
    """d^alpha exp(1/(|x|^2-1)) at points of shape (d, N), exactly 0 for |x| >= 1."""
    r2 = (points**2).sum(axis=0)
    out = np.zeros(r2.shape)
    inside = r2 < 1.0
    if not np.any(inside):
        return out
    D = r2[inside] - 1.0
    core = np.exp(1.0 / D)
    k = sum(alpha)
    if k == 0:
        out[inside] = core
        return out
    x = points[:, inside]
    pp = np.polynomial.polynomial
    P = pp.polyval(x[0], bump_poly(alpha))
    for xi in x[1:]:
        P = pp.polyval(xi, P, tensor=False)
    out[inside] = P / D ** (2 * k) * core
    return out


def bump_deriv_values(order: int, t: np.ndarray) -> np.ndarray:
    """Vectorised d^order/dt^order of the unit bump, zero outside |t|<1."""
    t = np.asarray(t, dtype=float)
    return ball_bump_values((order,), t.reshape(1, -1)).reshape(t.shape)


# ---------------------------------------------------------------------------
# cutoff via jets
# ---------------------------------------------------------------------------

# Each helper writes its result into ``out``, an array the caller owns (a
# fresh one when none is given), with one work row per call.  Row k of the
# result is coefficient k's accumulator: it is set to +0.0 and adds the
# terms in the order j = 1, 2, ..., so values and zero signs are those of a
# fresh accumulator per coefficient, whatever ``out`` held before.

def _jet_recip(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # reciprocal of a truncated power series; a has shape (K+1, n)
    K = a.shape[0] - 1
    r = np.empty_like(a) if out is None else out
    np.divide(1.0, a[0], out=r[0])
    tmp = np.empty_like(a[0])
    for k in range(1, K + 1):
        acc = r[k]
        acc.fill(0.0)
        for j in range(1, k + 1):
            acc += np.multiply(a[j], r[k - j], out=tmp)
        np.negative(acc, out=acc)
        acc *= r[0]
    return r


def _jet_exp(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    K = a.shape[0] - 1
    e = np.empty_like(a) if out is None else out
    np.exp(a[0], out=e[0])
    tmp = np.empty_like(a[0])
    for k in range(1, K + 1):
        acc = e[k]
        acc.fill(0.0)
        for j in range(1, k + 1):
            np.multiply(a[j], j, out=tmp)
            acc += np.multiply(tmp, e[k - j], out=tmp)
        acc /= k
    return e


def _jet_mul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    K = a.shape[0] - 1
    c = np.empty_like(a) if out is None else out
    tmp = np.empty_like(a[0])
    for k in range(K + 1):
        acc = c[k]
        acc.fill(0.0)
        for j in range(k + 1):
            acc += np.multiply(a[j], b[k - j], out=tmp)
    return c


def _cutoff_band_jets(s: np.ndarray, order: int) -> np.ndarray:
    """All derivatives 0..order of the cutoff at points s in (1, 2).

    Three (order+1, n) buffers hold every series: each input series is
    dropped once its reciprocal exists and its buffer takes the next
    result, the reciprocals are negated in place, and B(2-s) + B(s-1) is
    summed into the buffer of B(s-1).
    """
    K = order
    hi = np.zeros((K + 1, s.size))  # the series of 2 - s, then B(2-s)
    hi[0] = 2.0 - s
    if K >= 1:
        hi[1] = -1.0
    lo = _jet_recip(hi)  # 1/(2-s), then the series of s - 1, then B(s-1)
    np.negative(lo, out=lo)
    _jet_exp(lo, out=hi)
    lo[0] = s - 1.0
    if K >= 1:
        lo[1] = 1.0
        lo[2:] = 0.0
    work = _jet_recip(lo)  # 1/(s-1), then 1/(B(2-s) + B(s-1))
    np.negative(work, out=work)
    _jet_exp(work, out=lo)
    lo += hi
    _jet_recip(lo, out=work)
    jets = _jet_mul(hi, work, out=lo)
    # derivative = k! * series coefficient
    fact = 1.0
    for k in range(1, K + 1):
        fact *= k
        jets[k] *= fact
    return jets


_SPAN = 1 << 13  # points per piece of the closed form's span: two small buffers


def _cutoff_values(s: np.ndarray) -> np.ndarray:
    """The cutoff at s = |t|, in the closed form of its order-0 jet."""
    if s.size and s.max() <= 1.0:  # a nan fails both tests
        return np.ones_like(s)
    if s.size and s.min() >= 2.0:
        return np.zeros_like(s)
    out = np.where(s <= 1.0, 1.0, 0.0)  # an array even for a 0-d s
    band = ((s > 1.0) & (s < 2.0)).reshape(-1)
    if not band.any():
        return out
    # the span from the first band point to the last, piece by piece: the
    # off-band points in it compute values that copyto never writes
    first, stop = int(band.argmax()), band.size - int(band[::-1].argmax())
    s, flat = s.reshape(-1), out.reshape(-1)
    hi_buf, lo_buf = np.empty(min(_SPAN, stop - first)), np.empty(min(_SPAN, stop - first))
    with np.errstate(all="ignore"):
        for a in range(first, stop, _SPAN):
            b = min(a + _SPAN, stop)
            piece, hi, lo = s[a:b], hi_buf[:b - a], lo_buf[:b - a]
            np.subtract(2.0, piece, out=hi)
            np.divide(1.0, hi, out=hi)
            np.negative(hi, out=hi)
            np.exp(hi, out=hi)
            np.subtract(piece, 1.0, out=lo)
            np.divide(1.0, lo, out=lo)
            np.negative(lo, out=lo)
            np.exp(lo, out=lo)
            lo += hi
            np.divide(1.0, lo, out=lo)
            lo *= hi
            np.copyto(flat[a:b], lo, where=band[a:b])
    return out


def cutoff_jets(top: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(band, jets): the mask 1 < |t| < 2 and, for k = 1..top, row k of
    jets the d^k/dt^k of the plateau cutoff at t[band] (row 0 is the cutoff
    itself there).  Every row comes from one jet build to order top, and
    row k has the bits a build to order k gives; off the band every
    derivative of order >= 1 is 0."""
    t = np.asarray(t, dtype=float)
    s = np.abs(t)
    band = (s > 1.0) & (s < 2.0)
    if not np.any(band):
        return band, np.empty((top + 1, 0))
    jets = _cutoff_band_jets(s[band], top)
    sign = np.sign(t[band])  # chain rule through |t|
    for k in range(1, top + 1, 2):
        jets[k] *= sign
    return band, jets


def cutoff_deriv_values(order: int, t: np.ndarray) -> np.ndarray:
    """Vectorised d^order/dt^order of the plateau cutoff."""
    if order == 0:
        return _cutoff_values(np.abs(np.asarray(t, dtype=float)))
    band, jets = cutoff_jets(order, t)
    out = np.zeros(band.shape)
    out[band] = jets[order]
    return out
