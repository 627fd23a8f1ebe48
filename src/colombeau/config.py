"""Experiment configuration: a single JSON document, strictly validated.

Unknown keys are rejected everywhere so that typos fail fast instead of
silently running a default.  Validation happens before any computation:
parameter values per kind (``regular-bound``: ``k_list`` in 0..8,
``n_list`` strictly increasing and >= 1), ``k_max >= 4`` where a tail rate
is read, ``n_list`` entries >= the net's oscillation hint where the net is
mollified, and a declared ``support_box`` for ``regular-bound``.  No
experiment may run zero checks (``landau`` with ``k_max < 2``,
``regular-bound`` on a grid of ``REGULAR_BOUND_J0`` points or fewer).  A key
left out takes its default from the class, function or constant that owns it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .catalog import catalog_net
from .expr import ParseError, parse
from .mollify import DEFAULT_N_LIST, DENSITY_N_LIST, REGULAR_BOUND_J0
from .nets import (
    BandedNet,
    CompactBox,
    ExpressionNet,
    FunctionNet,
    K_MAX_CAP,
    NetError,
    Sampling,
)
from .regularity import DEFAULT_K_MAX
from .scale import EpsGrid, ScaleError

class ConfigError(ValueError):
    pass


def _require_keys(obj: dict, where: str, required: Sequence[str], optional: Sequence[str] = ()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {', '.join(sorted(missing))}")


def _interval(iv: Any, where: str) -> tuple[float, float]:
    """[lo, hi] of two finite numbers, as floats."""
    if not (isinstance(iv, list) and len(iv) == 2
            and all(_num(v, -math.inf) for v in iv)):
        raise ConfigError(f"intervals in {where} must be [lo, hi] of finite numbers")
    return float(iv[0]), float(iv[1])


def _parse_box_union(raw: Any, dimension: int, where: str) -> CompactBox:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where} must be a non-empty list of boxes")
    boxes = []
    for b in raw:
        if not isinstance(b, list) or len(b) != dimension:
            raise ConfigError(f"each box in {where} needs {dimension} [lo, hi] pairs")
        box = []
        for iv in b:
            lo, hi = _interval(iv, where)
            if not lo < hi:
                raise ConfigError(f"empty interval [{lo}, {hi}] in {where}")
            box.append((lo, hi))
        boxes.append(box)
    try:
        return CompactBox.of(*boxes)
    except NetError as e:
        raise ConfigError(f"{where}: {e}") from e


def _build_net(raw: Any, dimension: int) -> FunctionNet:
    _require_keys(
        raw,
        "net",
        [],
        ["catalog", "parameter", "expression", "banded", "oscillation_hint", "support_box"],
    )
    kinds = [k for k in ("catalog", "expression", "banded") if k in raw]
    if len(kinds) != 1:
        raise ConfigError("net needs exactly one of: catalog, expression, banded")
    options = {}  # the keys present; the net class's defaults fill the rest
    if "oscillation_hint" in raw:
        hint = raw["oscillation_hint"]
        try:
            options["oscillation_hint"] = Fraction(str(hint))
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"bad oscillation_hint: {hint!r}") from e
    if "support_box" in raw:
        options["support_box"] = _parse_box_union(raw["support_box"], dimension, "net.support_box")

    if kinds[0] != "banded" and not isinstance(raw[kinds[0]], str):
        raise ConfigError(f"net.{kinds[0]} must be a string")
    if kinds[0] == "catalog":
        if options:
            raise ConfigError(f"catalog nets fix their own {next(iter(options))}")
        param = raw.get("parameter")
        if param is not None and not _int(param, -math.inf):
            raise ConfigError("net.parameter must be an integer")
        try:
            return catalog_net(raw["catalog"], param)
        except NetError as e:
            raise ConfigError(str(e)) from e
    if kinds[0] == "expression":
        try:
            expr = parse(raw["expression"], dimension)
            return ExpressionNet(dimension, expr, **options)
        except (ParseError, NetError) as e:
            raise ConfigError(str(e)) from e
    bands = raw["banded"]
    if not isinstance(bands, list) or not bands:
        raise ConfigError("net.banded must be a non-empty list")
    parsed = []
    for band in bands:
        _require_keys(band, "net.banded[]", ["interval", "expression"])
        interval = _interval(band["interval"], "net.banded[]")
        if not isinstance(band["expression"], str):
            raise ConfigError("net.banded[].expression must be a string")
        try:
            parsed.append((interval, parse(band["expression"], dimension)))
        except ParseError as e:
            raise ConfigError(str(e)) from e
    try:
        return BandedNet(dimension, parsed, **options)
    except NetError as e:
        raise ConfigError(str(e)) from e


@dataclass(frozen=True)
class Experiment:
    kind: str
    params: dict


@dataclass(frozen=True)
class ExperimentConfig:
    dimension: int
    net: FunctionNet
    compacts: tuple[CompactBox, ...]
    grid: EpsGrid
    k_max: int
    sampling: Sampling
    experiments: tuple[Experiment, ...]
    output_prefix: str
    # False when the document has no eps_grid: ``grid`` is then the general
    # default, and an experiment with a default grid of its own uses that
    grid_given: bool


def _int(v, lo: int, hi: float = math.inf) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi


def _num(v, lo: float, strict: bool = False) -> bool:
    """A finite int or float >= lo (> lo if strict); json.loads reads
    Infinity and NaN, which no check can be read against."""
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        return False
    return v > lo if strict else v >= lo


def _int_list(v, lo: int, hi: float = math.inf, increasing: bool = False) -> bool:
    return (
        isinstance(v, list)
        and bool(v)
        and all(_int(x, lo, hi) for x in v)
        and not (increasing and any(b <= a for a, b in zip(v, v[1:])))
    )


def _num_list(v, lo: float, strict: bool = False) -> bool:
    return isinstance(v, list) and all(_num(x, lo, strict) for x in v)


_NUMBER = (lambda v: _num(v, -math.inf), "a finite number")
_INTEGER = (lambda v: _int(v, -math.inf), "an integer")
_K = (lambda v: _int(v, 0, K_MAX_CAP), f"an integer in 0..{K_MAX_CAP}")
_K_LIST = (
    lambda v: _int_list(v, 0, K_MAX_CAP),
    f"a non-empty list of integers in 0..{K_MAX_CAP}",
)
_N_LIST = (
    lambda v: _int_list(v, 1, increasing=True),
    "a non-empty, strictly increasing list of integers >= 1",
)
_QUADRATURE_ORDER = (lambda v: _int(v, 16), "an integer >= 16")

# kind -> (required parameters, {parameter: (check, what it must be)}); the
# ranges are the ones the library functions enforce, checked before any run
_EXPERIMENT_PARAMS = {
    "valuation": ([], {"k": _K}),
    "seminorms": ([], {"k_list": _K_LIST}),
    "classify": ([], {
        "a_values": (lambda v: _num_list(v, 0, strict=True), "a list of finite numbers > 0"),
        "bases": (lambda v: _num_list(v, 1), "a list of finite numbers >= 1"),
        "tol": (lambda v: _num(v, 0), "a finite number >= 0"),
    }),
    "landau": ([], {}),
    "mollify-converge": ([], {
        # the reference reads p_{k+1}
        "k": (lambda v: _int(v, 0, K_MAX_CAP - 1), f"an integer in 0..{K_MAX_CAP - 1}"),
        "n_list": _N_LIST,
        "r": (lambda v: _num(v, 0), "a finite number >= 0"),
        "quadrature_order": _QUADRATURE_ORDER,
    }),
    "class-a": (["N"], {"N": (lambda v: _int(v, 1), "an integer >= 1")}),
    "regular-bound": ([], {"k_list": _K_LIST, "n_list": _N_LIST}),
    "sublinear-density": ([], {"n_list": _N_LIST, "quadrature_order": _QUADRATURE_ORDER}),
}
EXPERIMENT_KINDS = tuple(_EXPERIMENT_PARAMS)
# kinds that read a tail rate, which needs k_max >= 4
_TAIL_KINDS = ("classify", "sublinear-density")
# kinds that mollify the net at each order in n_list -> their default n_list
_MOLLIFYING_KINDS = {
    "mollify-converge": DEFAULT_N_LIST,
    "regular-bound": DENSITY_N_LIST,
    "sublinear-density": DENSITY_N_LIST,
}


def _check(values: dict, checks: dict, where: str) -> None:
    """Each value passes its (check, what it must be) entry in checks."""
    for key, value in values.items():
        ok, what = checks[key]
        if not ok(value):
            raise ConfigError(f"{where}.{key} must be {what}")


def _parse_experiment(raw: Any, index: int) -> Experiment:
    where = f"experiments[{index}]"
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"{where} needs a kind")
    kind = raw["kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"{where}.kind must be one of {', '.join(EXPERIMENT_KINDS)}")
    required, checks = _EXPERIMENT_PARAMS[kind]
    _require_keys(raw, where, ["kind"] + required, list(checks))
    params = {k: v for k, v in raw.items() if k != "kind"}
    _check(params, checks, where)
    return Experiment(kind, params)


def _settings(cls, document: dict, key: str, checks: dict):
    """cls from the keys present in document[key], each checked by its
    entry in checks; the defaults of cls fill the rest and cls checks ranges."""
    raw = document.get(key, {})
    _require_keys(raw, key, [], list(checks))
    _check(raw, checks, key)
    try:
        return cls(**raw)
    except (NetError, ScaleError) as e:
        raise ConfigError(str(e)) from e


def load_config(document: dict | str) -> ExperimentConfig:
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON: {e}") from e
    _require_keys(
        document,
        "config",
        ["dimension", "net", "compacts", "experiments"],
        ["eps_grid", "k_max", "sampling", "output_prefix"],
    )
    dimension = document["dimension"]
    if not _int(dimension, 1, 3):
        raise ConfigError("dimension must be 1, 2 or 3")
    net = _build_net(document["net"], dimension)
    if net.dimension != dimension:
        raise ConfigError("net dimension disagrees with config dimension")
    raw_compacts = document["compacts"]
    if not isinstance(raw_compacts, list) or not raw_compacts:
        raise ConfigError("compacts must be a non-empty list of box unions")
    compacts = tuple(
        _parse_box_union(c, dimension, f"compacts[{i}]") for i, c in enumerate(raw_compacts)
    )
    grid = _settings(EpsGrid, document, "eps_grid", {"eps0": _NUMBER, "ratio": _NUMBER, "count": _INTEGER})
    k_max = document.get("k_max", DEFAULT_K_MAX)
    if not _int(k_max, 0, K_MAX_CAP):
        raise ConfigError(f"k_max must be an integer in 0..{K_MAX_CAP}")
    sampling = _settings(Sampling, document, "sampling", {"base_points": _INTEGER, "cap_points": _INTEGER})
    raw_exps = document["experiments"]
    if not isinstance(raw_exps, list) or not raw_exps:
        raise ConfigError("experiments must be a non-empty list")
    experiments = tuple(_parse_experiment(e, i) for i, e in enumerate(raw_exps))
    for e in experiments:
        if e.kind in _TAIL_KINDS and k_max < 4:
            raise ConfigError(f"{e.kind} needs k_max >= 4 to read a tail rate")
        n_list = e.params.get("n_list", _MOLLIFYING_KINDS.get(e.kind))
        if n_list and n_list[0] < net.oscillation_hint:
            raise ConfigError(f"{e.kind} needs every n_list entry >= the net's oscillation hint")
        if e.kind == "regular-bound" and net.support_box is None:
            raise ConfigError("regular-bound needs a net with a declared support_box")
        if e.kind == "regular-bound" and grid.count <= REGULAR_BOUND_J0:
            raise ConfigError(f"regular-bound needs eps_grid.count > {REGULAR_BOUND_J0}")
        if e.kind == "landau" and k_max < 2:
            raise ConfigError("landau needs k_max >= 2 to check a step")
    prefix = document.get("output_prefix", "colombeau-run")
    if not isinstance(prefix, str) or not prefix:
        raise ConfigError("output_prefix must be a non-empty string")
    return ExperimentConfig(
        dimension, net, compacts, grid, k_max, sampling, experiments, prefix,
        "eps_grid" in document,
    )


def load_config_file(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())
