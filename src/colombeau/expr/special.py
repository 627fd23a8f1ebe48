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
The cutoff itself (order 0) skips the jets: hi * (1/(hi + lo)) with
hi = exp(-(1/(2-s))) and lo = exp(-(1/(s-1))) is the order-0 jet's own
sequence of operations, so it gives the same bits, and a block that lies
wholly on the plateau or wholly outside the support is filled without a
mask.  nan maps to 0, as it falls in neither region.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "ball_bump_values",
    "bump_deriv_values",
    "cutoff_deriv_values",
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

# Each helper allocates its result and one work row per call.  Row k of
# the result is coefficient k's accumulator: it starts at +0.0 and adds the
# terms in the order j = 1, 2, ..., so values and zero signs are those of a
# fresh accumulator per coefficient.

def _jet_recip(a: np.ndarray) -> np.ndarray:
    # reciprocal of a truncated power series; a has shape (K+1, n)
    K = a.shape[0] - 1
    r = np.zeros_like(a)
    r[0] = 1.0 / a[0]
    tmp = np.empty_like(a[0])
    for k in range(1, K + 1):
        acc = r[k]
        for j in range(1, k + 1):
            acc += np.multiply(a[j], r[k - j], out=tmp)
        np.negative(acc, out=acc)
        acc *= r[0]
    return r


def _jet_exp(a: np.ndarray) -> np.ndarray:
    K = a.shape[0] - 1
    e = np.zeros_like(a)
    e[0] = np.exp(a[0])
    tmp = np.empty_like(a[0])
    for k in range(1, K + 1):
        acc = e[k]
        for j in range(1, k + 1):
            np.multiply(a[j], j, out=tmp)
            acc += np.multiply(tmp, e[k - j], out=tmp)
        acc /= k
    return e


def _jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    K = a.shape[0] - 1
    c = np.zeros_like(a)
    tmp = np.empty_like(a[0])
    for k in range(K + 1):
        acc = c[k]
        for j in range(k + 1):
            acc += np.multiply(a[j], b[k - j], out=tmp)
    return c


def _cutoff_band_jets(s: np.ndarray, order: int) -> np.ndarray:
    """All derivatives 0..order of the cutoff at points s in (1, 2)."""
    K = order
    shape = (K + 1, s.size)
    j_u = np.zeros(shape)  # series of 2 - s
    j_u[0] = 2.0 - s
    if K >= 1:
        j_u[1] = -1.0
    j_v = np.zeros(shape)  # series of s - 1
    j_v[0] = s - 1.0
    if K >= 1:
        j_v[1] = 1.0
    b_hi = _jet_exp(-_jet_recip(j_u))  # B(2-s)
    b_lo = _jet_exp(-_jet_recip(j_v))  # B(s-1)
    jets = _jet_mul(b_hi, _jet_recip(b_hi + b_lo))
    # derivative = k! * series coefficient
    fact = 1.0
    for k in range(1, K + 1):
        fact *= k
        jets[k] *= fact
    return jets


def _cutoff_values(s: np.ndarray) -> np.ndarray:
    """The cutoff at s = |t|, in the closed form of its order-0 jet."""
    if s.size and s.max() <= 1.0:  # a nan fails both tests
        return np.ones_like(s)
    if s.size and s.min() >= 2.0:
        return np.zeros_like(s)
    out = (s <= 1.0).astype(float)
    band = (s > 1.0) & (s < 2.0)
    if np.any(band):
        sb = s[band]
        hi = np.exp(-(1.0 / (2.0 - sb)))
        lo = np.exp(-(1.0 / (sb - 1.0)))
        out[band] = hi * (1.0 / (hi + lo))
    return out


def cutoff_deriv_values(order: int, t: np.ndarray) -> np.ndarray:
    """Vectorised d^order/dt^order of the plateau cutoff."""
    t = np.asarray(t, dtype=float)
    s = np.abs(t)
    if order == 0:
        return _cutoff_values(s)
    out = np.zeros_like(t)
    band = (s > 1.0) & (s < 2.0)
    if np.any(band):
        jets = _cutoff_band_jets(s[band], order)
        vals = jets[order]
        if order % 2 == 1:
            vals = vals * np.sign(t[band])  # chain rule through |t|
        out[band] = vals
    return out
