"""Reference implementations the tests compare the library against: a scalar
expression evaluator, independent of the compiled tape, and curve reversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from paracon.expr import (Binary, Const, EvalError, Expr, Name, Piecewise,
                          Unary, to_text)
from paracon.transport import Curve


@dataclass(frozen=True)
class EvalContext:
    """Name bindings for evaluation; every name bound exactly once."""

    variables: dict
    parameters: dict

    def __post_init__(self):
        dup = set(self.variables) & set(self.parameters)
        if dup:
            raise EvalError(f"names bound more than once: {sorted(dup)}")

    def lookup(self, name):
        if name in self.variables:
            return self.variables[name]
        if name in self.parameters:
            return self.parameters[name]
        raise EvalError(f"unbound name '{name}'")


def evaluate(e: Expr, ctx: EvalContext) -> float:
    """Evaluate to an IEEE double, touching exactly one piecewise branch;
    domain failures name the sub-expression."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Name):
        return float(ctx.lookup(e.name))
    if isinstance(e, Unary):
        a = evaluate(e.arg, ctx)
        if e.op == "neg":
            return -a
        if e.op == "sin":
            return math.sin(a)
        if e.op == "cos":
            return math.cos(a)
        if e.op == "tan":
            return math.tan(a)
        if e.op == "exp":
            return math.exp(a)
        if e.op == "log":
            if a <= 0.0:
                raise EvalError(f"log of non-positive value in '{to_text(e)}'")
            return math.log(a)
        if e.op == "sqrt":
            if a < 0.0:
                raise EvalError(f"sqrt of negative value in '{to_text(e)}'")
            return math.sqrt(a)
        if e.op == "abs":
            return abs(a)
        raise EvalError(f"unknown unary op {e.op!r}")
    if isinstance(e, Binary):
        a = evaluate(e.left, ctx)
        b = evaluate(e.right, ctx)
        if e.op == "add":
            return a + b
        if e.op == "sub":
            return a - b
        if e.op == "mul":
            return a * b
        if e.op == "div":
            if b == 0.0:
                raise EvalError(f"division by zero in '{to_text(e)}'")
            return a / b
        if e.op == "pow":
            if a < 0.0 and b != int(b):
                raise EvalError(
                    f"non-integer power of negative base in '{to_text(e)}'")
            if a == 0.0 and b < 0.0:
                raise EvalError(f"zero raised to negative power in '{to_text(e)}'")
            return float(a ** b)
        raise EvalError(f"unknown binary op {e.op!r}")
    if isinstance(e, Piecewise):
        lhs = evaluate(e.lhs, ctx)
        rhs = evaluate(e.rhs, ctx)
        taken = {"lt": lhs < rhs, "le": lhs <= rhs,
                 "gt": lhs > rhs, "ge": lhs >= rhs}[e.cmp]
        return evaluate(e.then if taken else e.other, ctx)
    raise TypeError(f"not an Expr: {e!r}")


def reversed_curve(curve: Curve) -> Curve:
    """The curve traversed backwards: t -> t0 + t1 - t."""
    sub = Binary("sub", Const(curve.t0 + curve.t1), Name("t"))
    rev = [_substitute(e, "t", sub) for e in curve.exprs]
    return Curve(curve.domain, rev, curve.t0, curve.t1,
                 name=curve.name + "~rev", params=curve.params)


def _substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Name):
        return replacement if e.name == name else e
    if isinstance(e, Unary):
        return Unary(e.op, _substitute(e.arg, name, replacement))
    if isinstance(e, Binary):
        return Binary(e.op, _substitute(e.left, name, replacement),
                      _substitute(e.right, name, replacement))
    if isinstance(e, Piecewise):
        return Piecewise(e.cmp, _substitute(e.lhs, name, replacement),
                         _substitute(e.rhs, name, replacement),
                         _substitute(e.then, name, replacement),
                         _substitute(e.other, name, replacement))
    raise TypeError(f"not an Expr: {e!r}")
