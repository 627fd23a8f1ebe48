"""Symbolic differentiation and simplification of expression nets."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..scale import as_index
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
    check_size,
    children_of,
)

# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------


def _fold_unary(node: Expr, arg: Const) -> Expr | None:
    """Constant-fold a function node; returns None when folding is unsafe."""
    v = arg.value
    try:
        if isinstance(node, Sin):
            return Const(math.sin(v))
        if isinstance(node, Cos):
            return Const(math.cos(v))
        if isinstance(node, Exp):
            return Const(math.exp(v))
        if isinstance(node, (Bump, Cutoff)):
            values = special.bump_deriv_values if isinstance(node, Bump) else special.cutoff_deriv_values
            with np.errstate(all="ignore"):  # as evaluation does: bump(1e200) squares to inf
                return Const(float(values(node.order, np.array([v]))[0]))
    except (OverflowError, ValueError):
        return None
    return None


def _nonzero(e: Expr) -> bool:
    """True when e is finite and nonzero at every x and eps, as far as its
    form shows."""
    if isinstance(e, Const):
        return e.value != 0.0 and math.isfinite(e.value)
    if isinstance(e, Mul):
        return all(_nonzero(c) for c in e.children)
    if isinstance(e, IntPow):
        return _nonzero(e.base)
    return isinstance(e, EpsPow)


def _finite(e: Expr) -> bool:
    """True when e is provably finite: no infinite constant, and every Div
    and negative IntPow divides by a provably nonzero expression.  Only then
    may ``0*e`` fold to 0; ``0*(1/(eps-eps))`` is nan, not 0."""
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Const) and not math.isfinite(n.value):
            return False
        if isinstance(n, Div) and not _nonzero(n.den):
            return False
        if isinstance(n, IntPow) and n.exponent < 0 and not _nonzero(n.base):
            return False
        stack.extend(children_of(n))
    return True


def _flatten(cls, children):
    out = []
    for c in children:
        if isinstance(c, cls):
            out.extend(c.children)
        else:
            out.append(c)
    return out


def _simplify_add(children) -> Expr:
    flat = _flatten(Add, children)
    const_sum = 0.0
    first_const = None
    kept: list[tuple[str, Expr]] = []
    for c in flat:
        if isinstance(c, Const):
            const_sum += c.value
            if first_const is None:
                first_const = len(kept)
                kept.append(("const", c))
        else:
            kept.append(("other", c))
    out: list[Expr] = []
    for tag, c in kept:
        if tag == "const":
            if const_sum != 0.0:
                out.append(Const(const_sum))
        else:
            out.append(c)
    if not out:
        return Const(0.0)
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def _simplify_mul(children) -> Expr:
    flat = _flatten(Mul, children)
    const_prod = 1.0
    eps_exp = Fraction(0)
    kept: list[tuple[str, Expr]] = []
    seen_const = seen_eps = False
    for c in flat:
        if isinstance(c, Const):
            const_prod *= c.value
            if not seen_const:
                seen_const = True
                kept.append(("const", c))
        elif isinstance(c, EpsPow):
            eps_exp += c.exponent
            if not seen_eps:
                seen_eps = True
                kept.append(("eps", c))
        else:
            kept.append(("other", c))
    if const_prod == 0.0 and all(_finite(c) for tag, c in kept if tag == "other"):
        return Const(0.0)
    out: list[Expr] = []
    for tag, c in kept:
        if tag == "const":
            if const_prod != 1.0:
                out.append(Const(const_prod))
        elif tag == "eps":
            if eps_exp != 0:
                out.append(EpsPow(eps_exp))
        else:
            out.append(c)
    if not out:
        return Const(const_prod)
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


def simplify(e: Expr) -> Expr:
    """Normal form: folded constants, flat sums/products, merged eps powers.

    Idempotent, and value-preserving wherever both forms are defined.
    """
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return e
    if isinstance(e, EpsPow):
        return Const(1.0) if e.exponent == 0 else e
    if isinstance(e, Add):
        return _simplify_add([simplify(c) for c in e.children])
    if isinstance(e, Mul):
        return _simplify_mul([simplify(c) for c in e.children])
    if isinstance(e, Sub):
        left, right = simplify(e.left), simplify(e.right)
        if isinstance(right, Const):
            if right.value == 0.0:
                return left
            if isinstance(left, Const):
                return Const(left.value - right.value)
        return Sub(left, right)
    if isinstance(e, Div):
        num, den = simplify(e.num), simplify(e.den)
        if isinstance(num, Const) and num.value == 0.0 and _nonzero(den):
            return Const(0.0)
        if isinstance(den, EpsPow):
            return _simplify_mul([num, EpsPow(-den.exponent)])
        if isinstance(den, Const):
            if den.value == 1.0:
                return num
            if isinstance(num, Const) and den.value != 0.0:
                return Const(num.value / den.value)
        return Div(num, den)
    if isinstance(e, IntPow):
        base = simplify(e.base)
        n = e.exponent
        if n == 0:
            return Const(1.0)
        if n == 1:
            return base
        if isinstance(base, EpsPow):
            return EpsPow(base.exponent * n)
        if isinstance(base, IntPow):
            return simplify(IntPow(base.base, base.exponent * n))
        if isinstance(base, Const):
            try:
                return Const(float(base.value**n))
            except (OverflowError, ZeroDivisionError):
                return IntPow(base, n)
        return IntPow(base, n)
    if isinstance(e, (Sin, Cos, Exp)):
        arg = simplify(e.arg)
        if isinstance(arg, Const):
            folded = _fold_unary(e, arg)
            if folded is not None:
                return folded
        return type(e)(arg)
    if isinstance(e, (Bump, Cutoff)):
        arg = simplify(e.arg)
        if isinstance(arg, Const):
            folded = _fold_unary(e, arg)
            if folded is not None:
                return folded
        return type(e)(arg, e.order)
    raise ExpressionError(f"cannot simplify {e!r}")


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def _diff(e: Expr, i: int) -> Expr:
    if isinstance(e, (Const, EpsPow)):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.index == i else 0.0)
    if isinstance(e, Add):
        return Add(tuple(_diff(c, i) for c in e.children))
    if isinstance(e, Sub):
        return Sub(_diff(e.left, i), _diff(e.right, i))
    if isinstance(e, Mul):
        terms = []
        for j in range(len(e.children)):
            factors = tuple(
                _diff(c, i) if k == j else c for k, c in enumerate(e.children)
            )
            terms.append(Mul(factors))
        return Add(tuple(terms))
    if isinstance(e, Div):
        du, dv = _diff(e.num, i), _diff(e.den, i)
        return Div(Sub(Mul((du, e.den)), Mul((e.num, dv))), IntPow(e.den, 2))
    if isinstance(e, IntPow):
        if e.exponent == 0:
            return Const(0.0)
        return Mul((Const(float(e.exponent)), IntPow(e.base, e.exponent - 1), _diff(e.base, i)))
    if isinstance(e, Sin):
        return Mul((Cos(e.arg), _diff(e.arg, i)))
    if isinstance(e, Cos):
        return Mul((Const(-1.0), Sin(e.arg), _diff(e.arg, i)))
    if isinstance(e, Exp):
        return Mul((Exp(e.arg), _diff(e.arg, i)))
    if isinstance(e, Bump):
        return Mul((Bump(e.arg, e.order + 1), _diff(e.arg, i)))
    if isinstance(e, Cutoff):
        return Mul((Cutoff(e.arg, e.order + 1), _diff(e.arg, i)))
    raise ExpressionError(f"cannot differentiate {e!r}")


def differentiate(e: Expr, var_index: int) -> Expr:
    """Partial derivative with respect to x_{var_index+1}; eps is a constant.

    The result is simplified; more than EXPR_SIZE_CAP nodes raise SizeCapError,
    and a tree too deep to recurse through raises ExpressionError.
    """
    var_index = as_index(var_index, "variable index", 0, 2, ExpressionError)
    try:
        return check_size(simplify(_diff(e, var_index)))
    except RecursionError:
        raise ExpressionError("expression is nested too deeply to differentiate") from None
