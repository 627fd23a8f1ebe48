"""Regularity classification from sharp seminorm sequences.

All decisions work on the fitted ln P_{k,K} values for k = 0..k_max together
with their stability flags; -inf stands for a negligible order (P = 0).
Every classifier reports evidence, not proof: 'yes-evidence' / 'no' /
'inconclusive', where instability of any required fit forces inconclusive.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .nets import (
    CompactBox,
    DEFAULT_SAMPLING,
    FunctionNet,
    K_MAX_CAP,
    Sampling,
    SharpSeminorm,
    seminorm_tables,
)
from .scale import EpsGrid, as_index, jsonable

DEFAULT_K_MAX = 6
DEFAULT_TOL = 0.1
LANDAU_TRIGGER = 0.1
LANDAU_SLACK = 0.2
SUBLINEAR_WITNESS_MARGIN = 0.25


class RegularityError(ValueError):
    pass


def _thresholds(tol: float, **others: float) -> None:
    """Refuse a nan or infinite threshold, against which no check can be
    read, and a negative tol, which fails checks that the data meet."""
    for what, v in {**others, "tol": tol}.items():
        if not math.isfinite(v):
            raise RegularityError(f"{what} must be a finite number, got {v!r}")
    if tol < 0:
        raise RegularityError(f"tol must be >= 0, got {tol!r}")


# ---------------------------------------------------------------------------
# P-sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PSequence:
    """Sharp seminorms P_{k,K} for consecutive orders k = 0..k_max on one
    compact K, which each entry's table names."""

    entries: tuple[SharpSeminorm, ...]

    def __post_init__(self):
        if not self.entries:
            raise RegularityError("empty P-sequence")
        for k, e in enumerate(self.entries):
            if e.k != k:
                raise RegularityError("entries must cover k = 0..k_max consecutively")

    @property
    def k_max(self) -> int:
        return len(self.entries) - 1

    def ln(self, k: int) -> float:
        return self.entries[k].ln_value

    def stable(self, k: int) -> bool:
        return self.entries[k].estimate.stable

    def ln_values(self) -> list[float]:
        return [e.ln_value for e in self.entries]


def psequence(
    net: FunctionNet,
    K: CompactBox,
    grid: EpsGrid,
    sampling: Sampling = DEFAULT_SAMPLING,
    k_max: int = DEFAULT_K_MAX,
) -> PSequence:
    """sharp_seminorm(net, k, K, grid, sampling) for k = 0..k_max, from the
    tables of ``seminorm_tables`` (eps outer, k inner)."""
    k_max = as_index(k_max, "k_max", 0, K_MAX_CAP, RegularityError)
    tables = seminorm_tables(net, range(k_max + 1), K, grid, sampling)
    return PSequence(tuple(SharpSeminorm.fit(t) for t in tables))


def _ln_le(a: float, b: float, tol: float) -> bool:
    """a <= b + tol with exact-zero (-inf) conventions."""
    if a == -math.inf:
        return True
    if b == -math.inf:
        return False
    return a <= b + tol


# ---------------------------------------------------------------------------
# log-convexity (Landau) and null propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LandauEntry:
    k: int
    verdict: str  # 'satisfied' | 'violated' | 'not-triggered' | 'skipped'
    margin: float  # ln P_{k-1} + ln P_{k+1} - 2 ln P_k (nan when skipped)


@dataclass(frozen=True)
class LandauReport:
    entries: tuple[LandauEntry, ...]
    all_ok: bool  # no 'violated' entry


def landau_check(seq: PSequence) -> LandauReport:
    """Check 2 ln P_k <= ln P_{k-1} + ln P_{k+1} + LANDAU_SLACK at rising steps.

    Only steps with ln P_k - ln P_{k-1} > LANDAU_TRIGGER are asserted; flat or
    falling steps carry no information at fit precision.  Entries whose
    neighbouring fits are unstable are skipped and reported as such.  k_max
    must be at least 2, so that there is a step to check.
    """
    if seq.k_max < 2:
        raise RegularityError("the Landau check needs k_max >= 2")
    out: list[LandauEntry] = []
    ok = True
    for k in range(1, seq.k_max):
        if not (seq.stable(k - 1) and seq.stable(k) and seq.stable(k + 1)):
            out.append(LandauEntry(k, "skipped", math.nan))
            continue
        lo, mid, hi = seq.ln(k - 1), seq.ln(k), seq.ln(k + 1)
        if mid == -math.inf:
            out.append(LandauEntry(k, "not-triggered", math.nan))
            continue
        triggered = (lo == -math.inf) or (mid - lo > LANDAU_TRIGGER)
        if not triggered:
            out.append(LandauEntry(k, "not-triggered", math.nan))
            continue
        rhs = lo + hi  # -inf if either neighbour is negligible
        margin = rhs - 2 * mid
        verdict = "satisfied" if margin >= -LANDAU_SLACK else "violated"
        ok = ok and verdict == "satisfied"
        out.append(LandauEntry(k, verdict, margin))
    return LandauReport(tuple(out), ok)


@dataclass(frozen=True)
class NullPropagationReport:
    ok: bool
    first_zero: Optional[int]
    first_violation: Optional[int]


def null_propagation_check(seq: PSequence) -> NullPropagationReport:
    """P_{k0} = 0 must force P_l = 0 for every l >= k0.

    P_k = 0 is read as ln P_k = -inf: exp(ln P_k) would overflow for a steep
    order and round a merely tiny one to 0."""
    first_zero = None
    for k in range(seq.k_max + 1):
        if seq.ln(k) == -math.inf:
            first_zero = k
            break
    if first_zero is None:
        return NullPropagationReport(True, None, None)
    for l in range(first_zero + 1, seq.k_max + 1):
        if seq.ln(l) != -math.inf:
            return NullPropagationReport(False, first_zero, l)
    return NullPropagationReport(True, first_zero, None)


# ---------------------------------------------------------------------------
# bounded-derivative class (all P_k dominated by P_0)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GInftyReport:
    verdict: str  # 'yes-evidence' | 'no' | 'inconclusive'
    bound_verdict: str
    decreasing_verdict: str
    agree: bool


def classify_ginfty(seq: PSequence, tol: float = DEFAULT_TOL) -> GInftyReport:
    """Evidence for sup_k P_k <= P_0: ``growth_char_check`` at base 1.

    Its bound test is this bound (ln P_k <= ln P_0 + tol), and its ratio
    test the decreasing test (ln P_{k+1} <= ln P_k + tol).  The two
    characterisations coincide for genuine nets (log-convexity makes any
    rise permanent), so when they disagree the verdict is inconclusive, as
    it is for an unstable sequence; otherwise it is the bound verdict.
    """
    g = growth_char_check(seq, 1.0, tol)
    return GInftyReport(g.bound_verdict if g.agree else "inconclusive",
                        g.bound_verdict, g.ratio_verdict, g.agree)


# ---------------------------------------------------------------------------
# exponential-growth classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GLAVerdict:
    a: float
    verdict: str  # 'yes-evidence' | 'no' | 'inconclusive'
    s_hat: float
    a_prime: Optional[float]  # witness rate, only for yes-evidence
    b: Optional[float]  # witness offset


def _tail_slope(seq: PSequence, k_hi: int) -> float:
    """max over the upper half of (ln P_k - ln P_0)/k; -inf if all negligible."""
    ln0 = seq.ln(0)
    lo = max(1, math.ceil(k_hi / 2))
    best = -math.inf
    for k in range(lo, k_hi + 1):
        lnk = seq.ln(k)
        if lnk == -math.inf:
            continue
        if ln0 == -math.inf:
            return math.inf  # nonzero order above a negligible P_0: unbounded rate
        best = max(best, (lnk - ln0) / k)
    return best


def classify_gla(seq: PSequence, a: float, tol: float = DEFAULT_TOL) -> GLAVerdict:
    """Evidence for tail growth rate below a: P_k <~ e^(a' k + b) with a' < a."""
    _thresholds(tol, a=a)
    if a <= 0:
        raise RegularityError("rate threshold a must be positive")
    if seq.k_max < 4:
        raise RegularityError("need k_max >= 4 to read a tail rate")
    used = [0] + list(range(max(1, math.ceil(seq.k_max / 2)), seq.k_max + 1))
    if not all(seq.stable(k) for k in used):
        return GLAVerdict(a, "inconclusive", math.nan, None, None)
    s_hat = _tail_slope(seq, seq.k_max)
    if s_hat + tol < a:
        a_prime = tol / 2 if s_hat == -math.inf else s_hat + tol / 2
        finite = [
            seq.ln(k) - a_prime * k
            for k in range(seq.k_max + 1)
            if seq.ln(k) != -math.inf
        ]
        b = max(finite) if finite else 0.0
        return GLAVerdict(a, "yes-evidence", s_hat, a_prime, b)
    if s_hat - tol >= a:
        return GLAVerdict(a, "no", s_hat, None, None)
    return GLAVerdict(a, "inconclusive", s_hat, None, None)


@dataclass(frozen=True)
class SublinearPerK:
    K: CompactBox
    s_full: float
    s_half: float
    a_witness: Optional[float]
    stable: bool


@dataclass(frozen=True)
class SublinearReport:
    verdict: str  # 'sublinear-evidence' | 'not-sublinear-evidence' | 'inconclusive'
    per_compact: tuple[SublinearPerK, ...]

    def to_json_dict(self) -> dict:
        return jsonable({
            "verdict": self.verdict,
            "slopes": [r.s_full for r in self.per_compact],
            "witness_rates": [r.a_witness for r in self.per_compact],
        })


def classify_sublinear(
    net: FunctionNet,
    Ks: Sequence[CompactBox],
    grid: EpsGrid,
    sampling: Sampling = DEFAULT_SAMPLING,
    k_max: int = DEFAULT_K_MAX,
    tol: float = DEFAULT_TOL,
) -> SublinearReport:
    """Evidence that on every compact the net lies in some finite-rate class.

    The negative signal is a growing tail rate: the slope read at k_max
    exceeding the slope read at k_max/2 by more than tol.
    """
    _thresholds(tol)
    if not Ks:
        raise RegularityError("need at least one compact")
    if k_max < 4:
        raise RegularityError("need k_max >= 4")
    rows: list[SublinearPerK] = []
    growing = False
    all_good = True
    for K in Ks:
        seq = psequence(net, K, grid, sampling, k_max)
        stable = all(seq.stable(k) for k in range(k_max + 1))
        s_full = _tail_slope(seq, k_max)
        s_half = _tail_slope(seq, k_max // 2)
        grows = (
            math.isfinite(s_full) and math.isfinite(s_half) and s_full - s_half > tol
        ) or s_full == math.inf
        growing = growing or grows
        good = stable and s_full < math.inf and not grows
        all_good = all_good and good
        witness = None
        if good:
            witness = SUBLINEAR_WITNESS_MARGIN + (0.0 if s_full == -math.inf else max(s_full, 0.0))
        rows.append(SublinearPerK(K, s_full, s_half, witness, stable))
    verdict = ("not-sublinear-evidence" if growing
               else "sublinear-evidence" if all_good else "inconclusive")
    return SublinearReport(verdict, tuple(rows))


@dataclass(frozen=True)
class GrowthCharReport:
    base: float
    bound_verdict: str
    ratio_verdict: str
    agree: bool


def growth_char_check(seq: PSequence, base: float, tol: float = DEFAULT_TOL) -> GrowthCharReport:
    """Two readings of 'P_k grows at most like base^k'; they must agree.

    Bound test: the k = 0 intercept ln P_0 dominates ln P_k - k ln(base)
    for every k: ln P_k - k ln(base) <= ln P_0 + tol.  Ratio test: every
    single step satisfies ln P_{k+1} <= ln P_k + ln(base) + tol.  Both read
    -inf (P = 0) as ``_ln_le`` does: a negligible left side passes and a
    negligible right side fails any other.  Equivalent for log-convex data.
    An unstable fit at any order makes both verdicts inconclusive.
    """
    _thresholds(tol, base=base)
    if base < 1.0:
        raise RegularityError("base must be >= 1")
    if not all(seq.stable(k) for k in range(seq.k_max + 1)):
        return GrowthCharReport(base, "inconclusive", "inconclusive", True)
    ln_base = math.log(base)
    bound_ok = all(
        _ln_le(seq.ln(k) - k * ln_base, seq.ln(0), tol) for k in range(1, seq.k_max + 1)
    )
    ratio_ok = all(
        _ln_le(seq.ln(k + 1), seq.ln(k) + ln_base, tol) for k in range(seq.k_max)
    )
    bv = "yes-evidence" if bound_ok else "no"
    rv = "yes-evidence" if ratio_ok else "no"
    return GrowthCharReport(base, bv, rv, bv == rv)


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    net: dict
    K: list
    k_max: int
    ln_p: list[float]
    stable: list[bool]
    ginfty: GInftyReport
    gla: tuple[GLAVerdict, ...]
    sublinear: SublinearReport
    landau: LandauReport
    growth_char: tuple[GrowthCharReport, ...]

    def to_json_dict(self) -> dict:
        return jsonable({
            "net": self.net,
            "K": self.K,
            "k_max": self.k_max,
            "ln_p": self.ln_p,
            "stable": self.stable,
            "ginfty": asdict(self.ginfty),
            "gla": [asdict(g) for g in self.gla],
            "sublinear": self.sublinear.to_json_dict(),
            "landau": [asdict(e) for e in self.landau.entries],
            "growth_char": [asdict(g) for g in self.growth_char],
        })


def build_report(
    net: FunctionNet,
    Ks: Sequence[CompactBox],
    grid: EpsGrid,
    sampling: Sampling = DEFAULT_SAMPLING,
    k_max: int = DEFAULT_K_MAX,
    a_values: Sequence[float] = (0.5, 1.0, 1.5, 2.0),
    bases: Sequence[float] = (1.0, math.e, math.e**2),
    tol: float = DEFAULT_TOL,
) -> RegularityReport:
    """Full classification on Ks[0], with the sublinear scan over all Ks."""
    if not Ks:
        raise RegularityError("need at least one compact")
    seq = psequence(net, Ks[0], grid, sampling, k_max)
    return RegularityReport(
        net=net.describe(),
        K=[K.describe() for K in Ks],
        k_max=seq.k_max,
        ln_p=seq.ln_values(),
        stable=[seq.stable(k) for k in range(seq.k_max + 1)],
        ginfty=classify_ginfty(seq, tol),
        gla=tuple(classify_gla(seq, a, tol) for a in a_values),
        sublinear=classify_sublinear(net, Ks, grid, sampling, seq.k_max, tol),
        landau=landau_check(seq),
        growth_char=tuple(growth_char_check(seq, b, tol) for b in bases),
    )
