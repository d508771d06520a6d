"""Closed-form scalar expression DSL: parser, evaluator, exact symbolic derivative.

Connections, curves and domain predicates are written in this little language.
Grammar (tightest first): pow ``^`` (right assoc) > unary minus > ``* /`` >
``+ -``; function calls ``f(a)``; conditionals ``if(a < b, x, y)`` with one of
``< <= > >=``.  The bare name ``pi`` parses as the constant.

ASTs are immutable; :func:`evaluate` and :func:`diff` are pure, so expressions
may be shared freely, as :func:`diff` does with subtrees of its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np

__all__ = [
    "Expr", "Const", "Name", "Unary", "Binary", "Piecewise",
    "EvalContext", "ExprError", "ParseError", "EvalError",
    "parse_expr", "evaluate", "diff", "to_text", "compile_expr", "free_names",
]


class ExprError(ValueError):
    """Base class for DSL failures."""


class ParseError(ExprError):
    """Syntax problem; carries the byte offset of the offending token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Unbound name or numeric domain violation during evaluation."""


class Expr:
    """Base AST node."""

    __slots__ = ()

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Name(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # neg sin cos tan exp log sqrt abs
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # add sub mul div pow
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Piecewise(Expr):
    cmp: str  # lt le gt ge
    lhs: Expr
    rhs: Expr
    then: Expr
    other: Expr


_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")
_CMP_TOKENS = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


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


# ---------------------------------------------------------------------------
# tokenizer / parser


def _tokenize(text: str) -> Iterator[tuple[str, Union[str, float], int]]:
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad number literal '{text[i:j]}'", i) from None
            yield ("num", value, i)
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j], i)
            i = j
            continue
        if text.startswith("**", i):
            yield ("op", "^", i)
            i += 2
            continue
        if text.startswith("<=", i) or text.startswith(">=", i):
            yield ("op", text[i:i + 2], i)
            i += 2
            continue
        if c in "+-*/^(),<>":
            yield ("op", c, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    yield ("end", "", n)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        kind, val, off = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", off)

    def parse(self):
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", off)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = Binary("add" if val == "+" else "sub", e, rhs)
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                e = Binary("mul" if val == "*" else "div", e, rhs)
            else:
                return e

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            arg = self.unary()
            if isinstance(arg, Const):
                return Const(-arg.value)
            return Unary("neg", arg)
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return Binary("pow", base, self.unary())
        return base

    def atom(self):
        kind, val, off = self.next()
        if kind == "num":
            return Const(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                return self.call(val, off)
            if val == "pi":
                return Const(math.pi)
            return Name(val)
        raise ParseError(f"expected expression, found {val!r}", off)

    def call(self, fname, off):
        self.expect("(")
        if fname == "if":
            cond_lhs = self.expr()
            kind, val, coff = self.next()
            if kind != "op" or val not in _CMP_TOKENS:
                raise ParseError("if() condition needs one of < <= > >=", coff)
            cmp = _CMP_TOKENS[val]
            cond_rhs = self.expr()
            self.expect(",")
            then = self.expr()
            self.expect(",")
            other = self.expr()
            self.expect(")")
            return Piecewise(cmp, cond_lhs, cond_rhs, then, other)
        if fname not in _FUNCTIONS:
            raise ParseError(f"unknown function '{fname}'", off)
        args = [self.expr()]
        while True:
            kind, val, aoff = self.next()
            if val == ")":
                break
            if val != ",":
                raise ParseError(f"expected ',' or ')', found {val!r}", aoff)
            args.append(self.expr())
        if len(args) != 1:
            raise ParseError(f"{fname}() takes 1 argument, got {len(args)}", off)
        return Unary(fname, args[0])


def parse_expr(text: str) -> Expr:
    """Parse source text into an AST; raises :class:`ParseError` with offset."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing (round-trips through parse_expr to a structurally equal AST)

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(e):
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Unary) and e.op == "neg":
        return _PREC["neg"]
    if isinstance(e, Const) and e.value < 0:
        return _PREC["neg"]  # renders with a leading minus sign
    return _PREC["atom"]


def _fmt_const(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ExprError(f"non-finite constant {v!r} cannot be printed")
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_text(e: Expr) -> str:
    """Render an AST as parseable source."""
    if isinstance(e, Const):
        if e.value < 0:
            return "-" + _fmt_const(-e.value)
        return _fmt_const(e.value)
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = to_text(e.arg)
            if _prec(e.arg) <= _PREC["neg"]:
                inner = f"({inner})"
            return "-" + inner
        return f"{e.op}({to_text(e.arg)})"
    if isinstance(e, Binary):
        sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/", "pow": "^"}[e.op]
        lp, rp = _prec(e.left), _prec(e.right)
        p = _PREC[e.op]
        left = to_text(e.left)
        right = to_text(e.right)
        # structural round-trip: the parser nests left for + - * / and
        # right for ^, so the opposite side is parenthesized at equal
        # precedence
        if lp < p or (e.op == "pow" and lp == p):
            left = f"({left})"
        if rp < p or (e.op != "pow" and rp == p):
            right = f"({right})"
        return left + sym + right
    if isinstance(e, Piecewise):
        cmp = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}[e.cmp]
        return (f"if({to_text(e.lhs)} {cmp} {to_text(e.rhs)}, "
                f"{to_text(e.then)}, {to_text(e.other)})")
    raise TypeError(f"not an Expr: {e!r}")


def free_names(e: Expr) -> set:
    """All names referenced by the expression."""
    if isinstance(e, Const):
        return set()
    if isinstance(e, Name):
        return {e.name}
    if isinstance(e, Unary):
        return free_names(e.arg)
    if isinstance(e, Binary):
        return free_names(e.left) | free_names(e.right)
    if isinstance(e, Piecewise):
        return (free_names(e.lhs) | free_names(e.rhs)
                | free_names(e.then) | free_names(e.other))
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# evaluation (scalar; exactly one piecewise branch is touched)


def evaluate(e: Expr, ctx: EvalContext) -> float:
    """Evaluate to an IEEE double; domain failures name the sub-expression."""
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


# ---------------------------------------------------------------------------
# exact derivative

def _add(a, b):
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Binary("add", a, b)


def _sub(a, b):
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return _neg(b)
    return Binary("sub", a, b)


def _neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def _mul(a, b):
    for x, y in ((a, b), (b, a)):
        if isinstance(x, Const):
            if x.value == 0.0:
                return Const(0.0)
            if x.value == 1.0:
                return y
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Binary("mul", a, b)


def _div(a, b):
    if isinstance(a, Const) and a.value == 0.0:
        return Const(0.0)
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return Binary("div", a, b)


def _pow(a, b):
    if isinstance(b, Const):
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return Const(1.0)
    return Binary("pow", a, b)


def diff(e: Expr, var: str) -> Expr:
    """Exact derivative AST with respect to ``var``.

    Piecewise nodes differentiate branchwise with the condition held fixed;
    the breakpoint itself is a measure-zero set the analyzer steps around.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Name):
        return Const(1.0) if e.name == var else Const(0.0)
    if isinstance(e, Unary):
        da = diff(e.arg, var)
        a = e.arg
        if e.op == "neg":
            return _neg(da)
        if e.op == "sin":
            return _mul(Unary("cos", a), da)
        if e.op == "cos":
            return _neg(_mul(Unary("sin", a), da))
        if e.op == "tan":
            sec2 = _div(Const(1.0), _pow(Unary("cos", a), Const(2.0)))
            return _mul(sec2, da)
        if e.op == "exp":
            return _mul(Unary("exp", a), da)
        if e.op == "log":
            return _div(da, a)
        if e.op == "sqrt":
            return _div(da, _mul(Const(2.0), Unary("sqrt", a)))
        if e.op == "abs":
            return _mul(_div(a, Unary("abs", a)), da)
        raise ExprError(f"unknown unary op {e.op!r}")
    if isinstance(e, Binary):
        da = diff(e.left, var)
        db = diff(e.right, var)
        a, b = e.left, e.right
        if e.op == "add":
            return _add(da, db)
        if e.op == "sub":
            return _sub(da, db)
        if e.op == "mul":
            return _add(_mul(da, b), _mul(a, db))
        if e.op == "div":
            num = _sub(_mul(da, b), _mul(a, db))
            return _div(num, _pow(b, Const(2.0)))
        if e.op == "pow":
            if isinstance(b, Const):
                return _mul(_mul(b, _pow(a, Const(b.value - 1.0))), da)
            # general a^b, requires a > 0 at evaluation time
            term = _add(_mul(db, Unary("log", a)), _div(_mul(b, da), a))
            return _mul(_pow(a, b), term)
        raise ExprError(f"unknown binary op {e.op!r}")
    if isinstance(e, Piecewise):
        return Piecewise(e.cmp, e.lhs, e.rhs,
                         diff(e.then, var), diff(e.other, var))
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# compilation to vectorized closures (internal fast path)

_NP_UNARY = {
    "neg": np.negative, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
}
_NP_CMP = {"lt": np.less, "le": np.less_equal,
           "gt": np.greater, "ge": np.greater_equal}


def compile_expr(e: Expr) -> Callable[[dict], np.ndarray]:
    """Compile to a closure over an env of floats / broadcastable arrays.

    Unlike :func:`evaluate`, both piecewise branches are computed (with fp
    errors suppressed) and selected with ``where``; results in the untaken
    branch never leak into the output.  Callers are expected to check the
    final values for finiteness.
    """
    if isinstance(e, Const):
        v = e.value
        return lambda env: v
    if isinstance(e, Name):
        n = e.name
        def name_fn(env, _n=n):
            try:
                return env[_n]
            except KeyError:
                raise EvalError(f"unbound name '{_n}'") from None
        return name_fn
    if isinstance(e, Unary):
        f = _NP_UNARY[e.op]
        arg = compile_expr(e.arg)
        return lambda env: f(arg(env))
    if isinstance(e, Binary):
        left = compile_expr(e.left)
        right = compile_expr(e.right)
        if e.op == "add":
            return lambda env: np.add(left(env), right(env))
        if e.op == "sub":
            return lambda env: np.subtract(left(env), right(env))
        if e.op == "mul":
            return lambda env: np.multiply(left(env), right(env))
        if e.op == "div":
            return lambda env: np.divide(left(env), right(env))
        if e.op == "pow":
            return lambda env: np.power(left(env), right(env))
        raise ExprError(f"unknown binary op {e.op!r}")
    if isinstance(e, Piecewise):
        cmp = _NP_CMP[e.cmp]
        lhs = compile_expr(e.lhs)
        rhs = compile_expr(e.rhs)
        then = compile_expr(e.then)
        other = compile_expr(e.other)

        def piecewise_fn(env):
            with np.errstate(all="ignore"):
                cond = cmp(lhs(env), rhs(env))
                a = then(env)
                b = other(env)
            return np.where(cond, a, b)

        return piecewise_fn
    raise TypeError(f"not an Expr: {e!r}")
