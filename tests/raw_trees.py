"""Random raw expression trees in one variable, built through the node API
without the parser, and the five-point stencil the derivative tests check
them against."""

from fractions import Fraction

from colombeau.expr import (
    Add,
    Bump,
    Const,
    Cos,
    Cutoff,
    Div,
    EpsPow,
    Exp,
    IntPow,
    Mul,
    Sin,
    Sub,
    Var,
    evaluate,
)


def random_expr(rng, depth):
    if depth <= 0:
        pick = rng.randrange(4)
        if pick == 0:
            return Const(round(rng.uniform(-2, 2), 3) or 1.0)
        if pick == 1:
            return Var(0)
        if pick == 2:
            return EpsPow(Fraction(1))
        return EpsPow(Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2])))
    pick = rng.randrange(9)
    sub = lambda: random_expr(rng, depth - 1)
    if pick == 0:
        return Add((sub(), sub()))
    if pick == 1:
        return Mul((sub(), sub()))
    if pick == 2:
        return Sub(sub(), sub())
    if pick == 3:
        return Sin(sub())
    if pick == 4:
        return Cos(sub())
    if pick == 5:
        return Exp(Mul((Const(0.3), sub())))
    if pick == 6:
        return Bump(sub())
    if pick == 7:
        return Cutoff(sub())
    return Div(sub(), Add((Const(2.0), IntPow(Var(0), 2))))


def central_diff(e, x, eps, h):
    v = [evaluate(e, (x + k * h,), eps) for k in (-2, -1, 1, 2)]
    return (v[0] - 8 * v[1] + 8 * v[2] - v[3]) / (12 * h)
