"""Expression nets: AST, parser, calculus, and evaluation."""
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
    EXPR_SIZE_CAP,
    IntPow,
    Mul,
    Point,
    Sin,
    SizeCapError,
    Sub,
    Exp,
    Var,
    check_size,
    node_count,
    to_text,
)
from .parser import ParseError, parse
from .transform import differentiate, simplify
from .evaluate import (
    EvaluationError,
    Grid,
    LeafMemo,
    axis_mask,
    eval_batch,
    evaluate,
    separable_argmax,
)
from .quadrature import row_local_sums, shifted_sums

__all__ = [
    "Add", "Bump", "Const", "Cos", "Cutoff", "Div", "EpsPow", "Expr",
    "ExpressionError", "EXPR_SIZE_CAP", "IntPow", "Mul", "Point", "Sin",
    "SizeCapError", "Sub", "Exp", "Var", "check_size",
    "node_count", "to_text", "ParseError", "parse", "differentiate",
    "simplify", "EvaluationError", "Grid", "LeafMemo", "axis_mask", "eval_batch",
    "evaluate", "row_local_sums", "separable_argmax", "shifted_sums",
]
