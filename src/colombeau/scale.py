"""Exact power-law nets and valuation estimation on geometric eps grids.

A PowerScale is a finite sum  sum_i c_i * eps^(q_i)  with real coefficients
and rational exponents.  It is the exactly-solvable model for asymptotic
scales: its valuation (the best exponent b with |z_eps| <= eps^b for small
eps) is simply the smallest exponent present, which makes it the reference
oracle for the log-log regression estimator used on sampled data.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

NEGLIGIBLE_FLOOR = 1e-280
LN_NEGLIGIBLE_FLOOR = math.log(NEGLIGIBLE_FLOOR)
DEFAULT_WINDOW = 8
STABLE_RESIDUAL = 0.25


class ScaleError(ValueError):
    pass


def as_index(v, what: str, least: float, most: float = math.inf,
             error: type[Exception] = ScaleError) -> int:
    """The count, order, dimension or multi-index entry v as the Python int
    ``operator.index`` gives, so a numpy integer is kept as an int.

    Raises ``error`` (the caller's own class) when v is a bool, when
    ``operator.index`` refuses v (a float such as 2.0 or 2.5), or when v lies
    outside least..most; least may be -inf for no lower bound."""
    try:
        n = None if isinstance(v, bool) else operator.index(v)
    except TypeError:
        n = None
    if n is None or not least <= n <= most:
        span = f" in {least}..{most}" if most < math.inf else f" >= {least}" if least > -math.inf else ""
        raise error(f"{what} must be an integer{span}, got {v!r}")
    return n


def jsonable(x):
    """Recursively replace non-JSON floats so dumps stays strict: nan becomes
    None, +inf (the valuation of a negligible net) "inf", -inf "-inf"."""
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, float):
        if math.isnan(x):
            return None
        if x == math.inf:
            return "inf"
        if x == -math.inf:
            return "-inf"
    return x


# ---------------------------------------------------------------------------
# PowerScale
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerScale:
    """Canonical finite sum of c * eps^q terms; empty tuple is the zero net.

    Terms are sorted by increasing exponent with no duplicates and no zero
    coefficients, so add/mul below stay exact up to float coefficient
    arithmetic (exponents are Fractions and never rounded).
    """

    terms: tuple[tuple[float, Fraction], ...] = ()

    def __post_init__(self):
        exps = [q for _, q in self.terms]
        if any(c == 0.0 for c, _ in self.terms):
            raise ScaleError("zero coefficients are not allowed in canonical form")
        if sorted(exps) != exps or len(set(exps)) != len(exps):
            raise ScaleError("exponents must be strictly increasing")

    @staticmethod
    def of_terms(terms: Iterable[tuple[float, Fraction | int | str]]) -> "PowerScale":
        """Canonicalise arbitrary (coefficient, exponent) pairs."""
        acc: dict[Fraction, float] = {}
        for c, q in terms:
            q = Fraction(q)
            acc[q] = acc.get(q, 0.0) + float(c)
        kept = tuple(
            (acc[q], q) for q in sorted(acc) if acc[q] != 0.0
        )
        return PowerScale(kept)

    @property
    def is_zero(self) -> bool:
        return not self.terms


def valuation_exact(z: PowerScale) -> Fraction | float:
    """Smallest exponent present; +inf for the zero net."""
    if z.is_zero:
        return math.inf
    return z.terms[0][1]


def sharp_norm(z: PowerScale) -> float:
    """exp(-valuation); 0 for the zero net."""
    v = valuation_exact(z)
    if v == math.inf:
        return 0.0
    return math.exp(-float(v))


def scale_add(a: PowerScale, b: PowerScale) -> PowerScale:
    return PowerScale.of_terms(list(a.terms) + list(b.terms))


def scale_mul(a: PowerScale, b: PowerScale) -> PowerScale:
    prods = [(ca * cb, qa + qb) for ca, qa in a.terms for cb, qb in b.terms]
    return PowerScale.of_terms(prods)


# ---------------------------------------------------------------------------
# eps grids and sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsGrid:
    """Geometric grid eps_j = eps0 * ratio^j, j = 0..count-1 (decreasing)."""

    eps0: float = 0.5
    ratio: float = 0.5
    count: int = 20

    def __post_init__(self):
        if not (0.0 < self.eps0 < 1.0):
            raise ScaleError("eps0 must lie in (0,1)")
        if not (0.0 < self.ratio < 1.0):
            raise ScaleError("ratio must lie in (0,1)")
        object.__setattr__(self, "count", as_index(self.count, "count", 1))

    @property
    def points(self) -> tuple[float, ...]:
        return tuple(self.eps0 * self.ratio**j for j in range(self.count))


def default_grid() -> EpsGrid:
    return EpsGrid()


def sample(z: PowerScale, grid: EpsGrid) -> list[tuple[float, float]]:
    """Evaluate the scale on the grid; overflowed entries come back as inf."""
    out = []
    with np.errstate(all="ignore"):
        for eps in grid.points:
            v = 0.0
            for c, q in z.terms:
                v += c * float(np.float64(eps) ** float(q))
            out.append((eps, float(v)))
    return out


# ---------------------------------------------------------------------------
# valuation estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValuationEstimate:
    """Fitted valuation of a sampled net.

    value is the estimate, method one of 'exact', 'fitted' (value is the
    log-log regression slope) or 'negligible-floor' (value +inf).  residual
    is the RMS fit residual, window the index range [start, stop) of samples
    used, and stable is residual <= STABLE_RESIDUAL.
    """

    value: float
    method: str
    residual: float
    window: tuple[int, int]
    stable: bool

    @staticmethod
    def exact(value: float | Fraction) -> "ValuationEstimate":
        v = float(value)
        return ValuationEstimate(v, "exact", 0.0, (0, 0), True)


def _ln_magnitude(value: float, log_values: bool) -> float:
    if log_values:
        return value
    if value == 0.0:
        return -math.inf
    return math.log(abs(value))


def estimate_valuation(
    samples: Sequence[tuple[float, float]],
    window: int = DEFAULT_WINDOW,
    log_values: bool = False,
) -> ValuationEstimate:
    """Fit ln|value| against ln eps over the last `window` usable samples.

    samples must be ordered by decreasing eps.  Entries at or below NEGLIGIBLE_FLOOR
    (or non-finite ones) are unusable; if every sample in the tail window is
    negligible the net is reported as negligible with value +inf.
    """
    window = as_index(window, "window", 3)
    n = len(samples)
    if n < window:
        raise ScaleError(f"need at least {window} samples, got {n}")
    eps_prev = math.inf
    lnvals: list[float] = []
    for eps, value in samples:
        if not (0.0 < eps < eps_prev):
            raise ScaleError("samples must be ordered by strictly decreasing eps in (0,1)")
        eps_prev = eps
        lnvals.append(_ln_magnitude(value, log_values))
    usable = [i for i, v in enumerate(lnvals) if math.isfinite(v) and v > LN_NEGLIGIBLE_FLOOR]
    negligible = {i for i, v in enumerate(lnvals) if v <= LN_NEGLIGIBLE_FLOOR}  # -inf included
    tail = range(n - window, n)
    if all(i in negligible for i in tail):
        return ValuationEstimate(math.inf, "negligible-floor", 0.0, (n - window, n), True)
    if len(usable) < window:
        raise ScaleError(
            f"only {len(usable)} usable samples above the negligible floor, need {window}"
        )
    idx = usable[-window:]
    x = np.log([samples[i][0] for i in idx])
    y = np.array([lnvals[i] for i in idx])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return ValuationEstimate(
        value=float(coef[0]),
        method="fitted",
        residual=rms,
        window=(idx[0], idx[-1] + 1),
        stable=rms <= STABLE_RESIDUAL,
    )
