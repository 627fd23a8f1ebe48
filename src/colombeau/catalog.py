"""Named example nets with exact seminorm-exponent oracles.

Each entry builds a 1-d net and predicts the valuation of p_{k,K} on the
reference compacts as an exact rational (math.inf for orders where the net
is identically zero).  The oracles are what the estimation pipeline is
tested against.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .expr import parse
from .nets import CompactBox, ExpressionNet, FiniteSumNet, FunctionNet, NetError
from .scale import as_index

DEFAULT_CONST_EXPONENT = 4
DEFAULT_MULTISCALE_TERMS = 8

# Shared compacts all catalog oracles refer to: one inside the positive axis,
# one straddling the origin (so peak/support effects are exercised both ways).
REFERENCE_COMPACTS: tuple[CompactBox, ...] = (
    CompactBox.interval(0.0, 1.0),
    CompactBox.interval(-1.0, 2.0),
)


def _build_osc() -> FunctionNet:
    return ExpressionNet(1, parse("sin(x1/eps)"), oscillation_hint=1)


def _build_const_ginfty(N: int) -> FunctionNet:
    return ExpressionNet(1, parse(f"eps^(-{N})*sin(x1)"), oscillation_hint=0)


def _build_delta() -> FunctionNet:
    return ExpressionNet(1, parse("eps^(-1)*bump(x1/eps)"), oscillation_hint=1)


def _build_one() -> FunctionNet:
    return ExpressionNet(1, parse("1"), oscillation_hint=0)


def _build_multiscale(J: int) -> FunctionNet:
    terms = [parse(f"eps^{j * j}*sin(x1*eps^(-{2 * j}))") for j in range(1, J + 1)]
    return FiniteSumNet(1, terms, oscillation_hint=2 * J)


def _build_compact_osc() -> FunctionNet:
    return ExpressionNet(
        1,
        parse("cutoff(x1)*sin(x1/eps)"),
        oscillation_hint=1,
        support_box=CompactBox.interval(-2.0, 2.0),
    )


def _oracle_multiscale(J: int, k: int) -> Fraction:
    return Fraction(min(j * j - 2 * j * k for j in range(1, J + 1)))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    builder: Callable[..., FunctionNet]
    oracle: Callable[..., Fraction | float]  # valuation of p_{k,K}; inf = negligible
    parameter: Optional[str] = None  # name of the integer parameter, if any
    default: Optional[int] = None


CATALOG: dict[str, CatalogEntry] = {
    "osc": CatalogEntry(
        "osc",
        "sin(x1/eps); v(p_k) = -k",
        _build_osc,
        lambda k: Fraction(-k),
    ),
    "const_ginfty": CatalogEntry(
        "const_ginfty",
        "eps^(-N)*sin(x1); v(p_k) = -N at every k",
        _build_const_ginfty,
        lambda k, N: Fraction(-N),
        parameter="N",
        default=DEFAULT_CONST_EXPONENT,
    ),
    "delta": CatalogEntry(
        "delta",
        "eps^(-1)*bump(x1/eps); v(p_k) = -k-1",
        _build_delta,
        lambda k: Fraction(-k - 1),
    ),
    "one": CatalogEntry(
        "one",
        "constant 1; v(p_0) = 0, negligible for k >= 1",
        _build_one,
        lambda k: Fraction(0) if k == 0 else math.inf,
    ),
    "multiscale": CatalogEntry(
        "multiscale",
        "sum_j eps^(j^2)*sin(x1*eps^(-2j)), j <= J; v(p_k) = min_j(j^2 - 2jk)",
        _build_multiscale,
        lambda k, J: _oracle_multiscale(J, k),
        parameter="J",
        default=DEFAULT_MULTISCALE_TERMS,
    ),
    "compact_osc": CatalogEntry(
        "compact_osc",
        "cutoff(x1)*sin(x1/eps), support [-2,2]; v(p_k) = -k",
        _build_compact_osc,
        lambda k: Fraction(-k),
    ),
}

_NAME_RE = re.compile(r"^([a-z_]+)\s*(?:\(\s*(\d+)\s*\))?$")


def parse_catalog_spec(spec: str) -> tuple[str, Optional[int]]:
    """Split 'multiscale(8)' into ('multiscale', 8); plain names pass through."""
    m = _NAME_RE.match(spec.strip())
    if not m or m.group(1) not in CATALOG:
        raise NetError(f"unknown catalog net {spec!r}")
    value = int(m.group(2)) if m.group(2) is not None else None
    return m.group(1), value


def _resolve(name: str, parameter: Optional[int]) -> tuple[CatalogEntry, tuple[int, ...]]:
    """The entry a spec names and the arguments after k its builder and
    oracle take: () or (the checked parameter,)."""
    base, inline = parse_catalog_spec(name)
    entry = CATALOG[base]
    if entry.parameter is None:
        if parameter is not None or inline is not None:
            raise NetError(f"{base} takes no parameter")
        return entry, ()
    if parameter is None:
        parameter = entry.default if inline is None else inline
    parameter = as_index(parameter, f"{base}'s {entry.parameter}", 1, error=NetError)
    if inline is not None and parameter != inline:
        raise NetError("parameter given twice with different values")
    return entry, (parameter,)


def catalog_net(name: str, parameter: Optional[int] = None) -> FunctionNet:
    entry, args = _resolve(name, parameter)
    return entry.builder(*args)


def catalog_oracle(name: str, k: int, parameter: Optional[int] = None) -> Fraction | float:
    """Predicted valuation of p_{k,K} on the reference compacts."""
    k = as_index(k, "order k", 0, error=NetError)
    entry, args = _resolve(name, parameter)
    return entry.oracle(k, *args)


def catalog_list() -> str:
    rows = [("name", "parameter", "definition / oracle")]
    for e in CATALOG.values():
        param = f"{e.parameter} (default {e.default})" if e.parameter else "-"
        rows.append((e.name, param, e.summary))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = []
    for i, r in enumerate(rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
