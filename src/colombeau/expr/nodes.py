"""AST node types for epsilon-parametrised expression nets.

An expression denotes a net of smooth functions (u_eps): for each value of
the regularisation parameter eps in (0,1) it is an ordinary smooth function
of the spatial variables x1..xd.  Epsilon enters only through rational
powers (``EpsPow``), which keeps magnitudes exactly representable and lets
simplification merge powers instead of compounding rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

# Hard cap on node count after simplification; differentiation of deeply
# nested products can otherwise swell without bound.
EXPR_SIZE_CAP = 100_000


class ExpressionError(ValueError):
    """Base class for expression construction/usage errors."""


class SizeCapError(ExpressionError):
    """Raised when an expression exceeds the node-count cap."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based spatial axis

    def __post_init__(self):
        if self.index < 0:
            raise ExpressionError(f"variable index must be >= 0, got {self.index}")


@dataclass(frozen=True)
class EpsPow:
    """eps^exponent; eps itself is EpsPow(1)."""

    exponent: Fraction

    def __post_init__(self):
        object.__setattr__(self, "exponent", Fraction(self.exponent))


@dataclass(frozen=True)
class Add:
    children: tuple["Expr", ...]


@dataclass(frozen=True)
class Mul:
    children: tuple["Expr", ...]


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    num: "Expr"
    den: "Expr"


@dataclass(frozen=True)
class IntPow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Sin:
    arg: "Expr"


@dataclass(frozen=True)
class Cos:
    arg: "Expr"


@dataclass(frozen=True)
class Exp:
    arg: "Expr"


@dataclass(frozen=True)
class Bump:
    """order-th derivative of the unit bump exp(1/(t^2-1)) on |t|<1, else 0.

    ``order`` is produced by differentiation only; the parser always builds
    order 0.  Evaluation uses an exact rational recurrence, never an AST
    expansion, so the vanishing-outside-support structure is preserved.
    """

    arg: "Expr"
    order: int = 0


@dataclass(frozen=True)
class Cutoff:
    """order-th derivative of the plateau cutoff (1 on |t|<=1, 0 on |t|>=2)."""

    arg: "Expr"
    order: int = 0


Expr = Union[Const, Var, EpsPow, Add, Mul, Sub, Div, IntPow, Sin, Cos, Exp, Bump, Cutoff]

Point = Sequence[float]

_FUNC_NODES = (Sin, Cos, Exp, Bump, Cutoff)


def children_of(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Add, Mul)):
        return e.children
    if isinstance(e, Sub):
        return (e.left, e.right)
    if isinstance(e, Div):
        return (e.num, e.den)
    if isinstance(e, IntPow):
        return (e.base,)
    if isinstance(e, _FUNC_NODES):
        return (e.arg,)
    return ()


def node_count(e: Expr) -> int:
    total = 0
    stack = [e]
    while stack:
        n = stack.pop()
        total += 1
        stack.extend(children_of(n))
    return total


def check_size(e: Expr) -> Expr:
    """e itself; SizeCapError when it has more than EXPR_SIZE_CAP nodes."""
    n = node_count(e)
    if n > EXPR_SIZE_CAP:
        raise SizeCapError(f"expression has {n} nodes, exceeds cap {EXPR_SIZE_CAP}")
    return e


def max_var_index(e: Expr) -> int:
    """Largest variable index used, or -1 for a spatially constant net."""
    best = -1
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Var):
            best = max(best, n.index)
        stack.extend(children_of(n))
    return best


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

# precedence levels: add/sub 1, mul/div 2, unary minus 3, power 4, atom 5
def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return 1
    if isinstance(e, (Mul, Div)):
        return 2
    if isinstance(e, Const) and e.value < 0:
        return 3
    if isinstance(e, IntPow):
        return 4
    if isinstance(e, EpsPow) and e.exponent != 1:
        return 4
    return 5


def _wrap(child: Expr, parent_prec: int, strict: bool = False) -> str:
    s = to_text(child)
    p = _prec(child)
    if p < parent_prec or (strict and p == parent_prec):
        return "(" + s + ")"
    return s


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_text(e: Expr) -> str:
    """Render an expression in the concrete grammar.

    A tree that parse builds round-trips.  A derivative of a cutoff or bump
    renders as cutoff_dN or bump_dN, which parse refuses."""
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, EpsPow):
        q = e.exponent
        if q == 1:
            return "eps"
        if q.denominator == 1:
            if q >= 0:
                return f"eps^{q.numerator}"
            return f"eps^(-{-q.numerator})"
        if q >= 0:
            return f"eps^({q.numerator}/{q.denominator})"
        return f"eps^(-{-q.numerator}/{q.denominator})"
    if isinstance(e, Add):
        return " + ".join(_wrap(c, 1) for c in e.children)
    if isinstance(e, Sub):
        return _wrap(e.left, 1) + " - " + _wrap(e.right, 1, strict=True)
    if isinstance(e, Mul):
        return "*".join(_wrap(c, 2) for c in e.children)
    if isinstance(e, Div):
        return _wrap(e.num, 2) + "/" + _wrap(e.den, 2, strict=True)
    if isinstance(e, IntPow):
        base = _wrap(e.base, 4, strict=True)
        if e.exponent >= 0:
            return f"{base}^{e.exponent}"
        return f"{base}^(-{-e.exponent})"
    if isinstance(e, Sin):
        return f"sin({to_text(e.arg)})"
    if isinstance(e, Cos):
        return f"cos({to_text(e.arg)})"
    if isinstance(e, Exp):
        return f"exp({to_text(e.arg)})"
    if isinstance(e, Bump):
        if e.order == 0:
            return f"bump({to_text(e.arg)})"
        return f"bump_d{e.order}({to_text(e.arg)})"
    if isinstance(e, Cutoff):
        if e.order == 0:
            return f"cutoff({to_text(e.arg)})"
        return f"cutoff_d{e.order}({to_text(e.arg)})"
    raise ExpressionError(f"unknown node {e!r}")
