"""Closed-form scalar expression DSL: parser, exact symbolic derivative, and
a compiler to a tape over hash-consed subexpressions.

Connections, curves and domain predicates are written in this little language.
Grammar (tightest first): pow ``^`` (right assoc) > unary minus > ``* /`` >
``+ -``; function calls ``f(a)``; conditionals ``if(a < b, x, y)`` with one of
``< <= > >=``.  The bare name ``pi`` parses as the constant.

ASTs are immutable and :func:`diff` is pure, so expressions may be shared
freely.  A :class:`Pool` interns them, one node per distinct subexpression,
and memoizes :func:`diff` over its nodes, so a derivative table is a DAG
however deep its order.  :func:`compile_expr` turns a list of
expressions into one :class:`Tape`, a straight-line program that evaluates
each distinct subexpression once per call.
"""

from __future__ import annotations

import math
import operator
import struct
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

__all__ = [
    "Expr", "Const", "Name", "Unary", "Binary", "Piecewise",
    "ExprError", "ParseError", "EvalError",
    "Pool", "Tape", "parse_expr", "diff", "compile_expr", "free_names",
    "split",
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

    def chain(self, ops, operand):
        """Operands joined left-associatively by the operator tokens of
        ``ops``, a map from each token to its binary op."""
        e = operand()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in ops:
                return e
            self.next()
            e = Binary(ops[val], e, operand())

    def expr(self):
        return self.chain({"+": "add", "-": "sub"}, self.term)

    def term(self):
        return self.chain({"*": "mul", "/": "div"}, self.unary)

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
# the one node split every tree walk goes through

_SPLIT = {
    Const: lambda e: (e.value, ()),
    Name: lambda e: (e.name, ()),
    Unary: lambda e: (e.op, (e.arg,)),
    Binary: lambda e: (e.op, (e.left, e.right)),
    Piecewise: lambda e: (e.cmp, (e.lhs, e.rhs, e.then, e.other)),
}


def split(e: Expr):
    """A node as ``(head, children)``, where ``type(e)(head, *children)``
    rebuilds it."""
    try:
        return _SPLIT[type(e)](e)
    except KeyError:
        raise TypeError(f"not an Expr: {e!r}") from None


def free_names(e: Expr) -> set:
    """All names referenced by the expression."""
    head, kids = split(e)
    if isinstance(e, Name):
        return {head}
    return set().union(*map(free_names, kids))


# ---------------------------------------------------------------------------
# hash-consing and the exact derivative


# A node's intern key is its type, its op and the identities of its interned
# children.  A constant is keyed by its bits, so 0.0 and -0.0 stay two nodes
# where dataclass equality would merge them.
_bits = struct.Struct("<d").pack


class Pool:
    """Hash-consing table: one node per distinct subexpression, and the
    :func:`diff` memo over those nodes.

    Nodes are interned bottom-up by their intern key.  A pool lives as
    long as its owner (a connection's derivative tables, one :func:`diff`
    call), so nothing grows from one connection to the next.
    """

    def __init__(self):
        self._nodes = {}  # key -> interned node
        self._seen = {}  # id(node) -> its interned node
        self._held = []  # the nodes interned from, so their ids stay unique
        self._diffs = {}  # (id(interned node), var) -> interned derivative

    def intern(self, e: Expr) -> Expr:
        """The pool's node structurally equal to ``e``, with the same bits."""
        node = self._seen.get(id(e))
        if node is None:
            head, kids = split(e)
            node = self._make(type(e), head, *map(self.intern, kids))
            self._seen[id(e)] = node
            self._held.append(e)
        return node

    def _make(self, cls, head, *kids) -> Expr:
        """The pool's node ``cls(head, *kids)``; the kids are the pool's."""
        key = (cls, _bits(head) if cls is Const else head, *map(id, kids))
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = cls(head, *kids)
            self._seen[id(node)] = node
        return node

    def diff(self, e: Expr, var: str) -> Expr:
        """:func:`diff`, memoized by node identity: ``e`` is one of the
        pool's nodes, or outlives the pool."""
        key = (id(e), var)
        d = self._diffs.get(key)
        if d is None:
            d = self._diffs[key] = self._derive(e, var)
        return d

    # simplifying constructors; every operand is one of the pool's nodes

    def _const(self, v):
        return self._make(Const, v)

    def _unary(self, op, a):
        return self._make(Unary, op, a)

    def _add(self, a, b):
        if isinstance(a, Const) and a.value == 0.0:
            return b
        if isinstance(b, Const) and b.value == 0.0:
            return a
        if isinstance(a, Const) and isinstance(b, Const):
            return self._const(a.value + b.value)
        return self._make(Binary, "add", a, b)

    def _sub(self, a, b):
        if isinstance(b, Const) and b.value == 0.0:
            return a
        if isinstance(a, Const) and isinstance(b, Const):
            return self._const(a.value - b.value)
        if isinstance(a, Const) and a.value == 0.0:
            return self._neg(b)
        return self._make(Binary, "sub", a, b)

    def _neg(self, a):
        if isinstance(a, Const):
            return self._const(-a.value)
        if isinstance(a, Unary) and a.op == "neg":
            return a.arg
        return self._unary("neg", a)

    def _mul(self, a, b):
        for x, y in ((a, b), (b, a)):
            if isinstance(x, Const):
                if x.value == 0.0:
                    return self._const(0.0)
                if x.value == 1.0:
                    return y
        if isinstance(a, Const) and isinstance(b, Const):
            return self._const(a.value * b.value)
        return self._make(Binary, "mul", a, b)

    def _div(self, a, b):
        if isinstance(a, Const) and a.value == 0.0:
            return self._const(0.0)
        if isinstance(b, Const) and b.value == 1.0:
            return a
        return self._make(Binary, "div", a, b)

    def _pow(self, a, b):
        if isinstance(b, Const):
            if b.value == 1.0:
                return a
            if b.value == 0.0:
                return self._const(1.0)
        return self._make(Binary, "pow", a, b)

    def _derive(self, e, var):
        if isinstance(e, Const):
            return self._const(0.0)
        if isinstance(e, Name):
            return self._const(1.0 if e.name == var else 0.0)
        if isinstance(e, Unary):
            da = self.diff(e.arg, var)
            a = e.arg
            if e.op == "neg":
                return self._neg(da)
            if e.op == "sin":
                return self._mul(self._unary("cos", a), da)
            if e.op == "cos":
                return self._neg(self._mul(self._unary("sin", a), da))
            if e.op == "tan":
                sec2 = self._div(self._const(1.0), self._pow(
                    self._unary("cos", a), self._const(2.0)))
                return self._mul(sec2, da)
            if e.op == "exp":
                return self._mul(e, da)
            if e.op == "log":
                return self._div(da, a)
            if e.op == "sqrt":
                return self._div(da, self._mul(self._const(2.0), e))
            if e.op == "abs":
                return self._mul(self._div(a, e), da)
            raise ExprError(f"unknown unary op {e.op!r}")
        if isinstance(e, Binary):
            da = self.diff(e.left, var)
            db = self.diff(e.right, var)
            a, b = e.left, e.right
            if e.op == "add":
                return self._add(da, db)
            if e.op == "sub":
                return self._sub(da, db)
            if e.op == "mul":
                return self._add(self._mul(da, b), self._mul(a, db))
            if e.op == "div":
                num = self._sub(self._mul(da, b), self._mul(a, db))
                return self._div(num, self._pow(b, self._const(2.0)))
            if e.op == "pow":
                if isinstance(b, Const):
                    return self._mul(self._mul(b, self._pow(
                        a, self._const(b.value - 1.0))), da)
                # general a^b, requires a > 0 at evaluation time
                term = self._add(self._mul(db, self._unary("log", a)),
                                 self._div(self._mul(b, da), a))
                return self._mul(self._pow(a, b), term)
            raise ExprError(f"unknown binary op {e.op!r}")
        if isinstance(e, Piecewise):
            return self._make(Piecewise, e.cmp, e.lhs, e.rhs,
                              self.diff(e.then, var), self.diff(e.other, var))
        raise TypeError(f"not an Expr: {e!r}")


def diff(e: Expr, var: str, pool: Optional[Pool] = None) -> Expr:
    """Exact derivative AST with respect to ``var``.

    The derivative of each node is memoized, so a subexpression shared by
    identity is differentiated once.  With a ``pool``, ``e`` is interned
    there first and the result, interned too, shares the pool's nodes; the
    memo then lasts as long as the pool.  Without one it lasts for the call.
    Piecewise nodes differentiate branchwise with the condition held fixed;
    the breakpoint itself is a measure-zero set the analyzer steps around.
    """
    if pool is None:  # e holds its nodes alive for the call
        return Pool().diff(e, var)
    return pool.diff(pool.intern(e), var)


# ---------------------------------------------------------------------------
# compilation to a vectorized tape

_NP_UNARY = {
    "neg": np.negative, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
}
_NP_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
              "div": np.divide, "pow": np.power}


def _where(cmp):
    return lambda lhs, rhs, then, other: np.where(cmp(lhs, rhs), then, other)


_NP_WHERE = {"lt": _where(np.less), "le": _where(np.less_equal),
             "gt": _where(np.greater), "ge": _where(np.greater_equal)}
_NP_OPS = {Unary: _NP_UNARY, Binary: _NP_BINARY, Piecewise: _NP_WHERE}
_LOUD = nullcontext()  # the fp-error context of a run that may warn


class Tape:
    """Straight-line program over hash-consed subexpressions (the evaluation
    trace of Griewank and Walther, *Evaluating Derivatives*, 2nd ed., ch. 2):
    one numpy op per distinct node, in dependency order, each evaluated once
    per call.

    Calling it on an env of floats / broadcastable arrays gives the value of
    each expression, or of the one expression it was compiled from.  Both
    branches of a piecewise node are computed and selected with ``where``;
    a node used only inside piecewise nodes runs with fp errors suppressed,
    so results in an untaken branch neither leak into the output nor warn.
    Callers are expected to check the final values for finiteness.
    """

    def __init__(self, exprs, single):
        # interned on the fly: a node's slot is keyed by its children's slots
        slot_of = {}  # id(node) -> slot; ``exprs`` holds every node
        by_key = {}  # intern key -> slot
        init, names, ops = [], [], []  # const values, name loads, ops

        def emit(e):
            s = slot_of.get(id(e))
            if s is not None:
                return s
            cls = type(e)
            head, kids = split(e)
            args = tuple(map(emit, kids))
            key = (cls, _bits(head) if cls is Const else head, args)
            s = by_key.get(key)
            if s is None:
                s = by_key[key] = len(init)
                init.append(head if cls is Const else None)
                if cls is Name:
                    names.append((s, head))
                elif cls is not Const:
                    ops.append((s, cls, head, args))
            slot_of[id(e)] = s
            return s

        self._out = [emit(e) for e in exprs]
        del emit  # a recursive closure is a reference cycle
        self._init, self._names, self._single = init, names, single
        # a slot is loud when one of its uses lies outside every piecewise
        # node; each use has a higher slot than what it uses
        loud = [False] * len(init)
        for s in self._out:
            loud[s] = True
        for s, cls, _, args in reversed(ops):
            if loud[s] and cls is not Piecewise:
                for a in args:
                    loud[a] = True
        # consecutive instructions of one kind run under one errstate; an
        # instruction is (slot, op, getter of its operands, unary?)
        self._runs = []
        for s, cls, head, args in ops:
            quiet = not loud[s]
            if not self._runs or self._runs[-1][0] != quiet:
                self._runs.append((quiet, []))
            self._runs[-1][1].append((s, _NP_OPS[cls][head],
                                      operator.itemgetter(*args),
                                      len(args) == 1))

    def __len__(self):
        """Instruction count: one per distinct non-leaf node."""
        return sum(len(run) for _, run in self._runs)

    def __call__(self, env):
        vals = self._init.copy()
        for s, name in self._names:
            try:
                vals[s] = env[name]
            except KeyError:
                raise EvalError(f"unbound name '{name}'") from None
        for quiet, run in self._runs:
            with np.errstate(all="ignore") if quiet else _LOUD:
                for s, fn, get, unary in run:
                    vals[s] = fn(get(vals)) if unary else fn(*get(vals))
        if self._single:
            return vals[self._out[0]]
        return [vals[s] for s in self._out]


def compile_expr(exprs) -> Tape:
    """Compile one expression, or a list of them, to one :class:`Tape`.

    The tape of a list returns the list of values; a subexpression shared
    by several expressions, or occurring twice in one, is evaluated once.
    """
    single = isinstance(exprs, Expr)
    return Tape([exprs] if single else list(exprs), single)
