import math

import numpy as np
import pytest

from paracon.expr import (Binary, Const, EvalError, Name, ParseError,
                          Piecewise, Unary, compile_expr, diff, free_names,
                          parse_expr)
from reference import EvalContext, evaluate


def ev(text, **binds):
    return evaluate(parse_expr(text), EvalContext(binds, {}))


def test_parse_negated_product_structure():
    e = parse_expr("-sin(theta)*cos(theta)")
    assert e == Binary("mul", Unary("neg", Unary("sin", Name("theta"))),
                       Unary("cos", Name("theta")))


def test_parse_zero_literal():
    assert parse_expr("0") == Const(0.0)


def test_parse_piecewise_bump_branch_structure():
    e = parse_expr("if(x < x0, exp(-1/((x-x0)^2)), 0)")
    assert isinstance(e, Piecewise)
    assert e.cmp == "lt"
    assert e.lhs == Name("x") and e.rhs == Name("x0")
    assert e.other == Const(0.0)
    assert isinstance(e.then, Unary) and e.then.op == "exp"


def test_parse_precedence():
    # pow binds tighter than unary minus, which binds tighter than mul
    assert ev("-2^2") == -4.0
    assert ev("2*3^2") == 18.0
    assert ev("2^3^2") == 512.0  # right associative
    assert ev("6/3/2") == 1.0
    assert ev("1 - 2 - 3") == -4.0


def test_parse_power_synonym_and_pi():
    assert ev("2**3") == 8.0
    assert ev("pi") == math.pi


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as info:
        parse_expr("sin(x) + @")
    assert info.value.offset == 9
    with pytest.raises(ParseError, match="unknown function"):
        parse_expr("sinh(x)")
    with pytest.raises(ParseError, match="takes 1 argument"):
        parse_expr("sin(x, y)")
    with pytest.raises(ParseError, match="condition"):
        parse_expr("if(x, 1, 2)")


def test_eval_sin_half_pi():
    assert ev("sin(theta)", theta=math.pi / 2) == 1.0


def test_eval_product_hand_oracle():
    # direct arithmetic: (0.3^2) * (1^2)
    got = evaluate(parse_expr("k^2*r^2"),
                   EvalContext({"r": 1.0}, {"k": 0.3}))
    assert got == pytest.approx(0.09, abs=1e-15)


def test_eval_piecewise_selects_one_branch():
    assert ev("if(x < 0, 1, 2)", x=5.0) == 2.0
    assert ev("if(x < 0, 1, 2)", x=-5.0) == 1.0
    # the untaken branch must not be evaluated
    assert ev("if(x < 0, 1/x, 7)", x=0.0) == 7.0


def test_eval_errors():
    with pytest.raises(EvalError, match="unbound name"):
        ev("missing + 1")
    with pytest.raises(EvalError, match="division by zero"):
        ev("1/(x - 1)", x=1.0)
    with pytest.raises(EvalError, match="log"):
        ev("log(x)", x=-2.0)
    with pytest.raises(EvalError, match="sqrt"):
        ev("sqrt(x)", x=-1.0)
    with pytest.raises(EvalError, match="negative base"):
        ev("x^0.5", x=-1.0)
    with pytest.raises(EvalError, match="bound more than once"):
        EvalContext({"x": 1.0}, {"x": 2.0})


def test_eval_domain_error_names_subexpression():
    with pytest.raises(EvalError, match=r"Binary\(op='div'"):
        ev("2 + 1/(x-1)", x=1.0)


def test_diff_sin_is_cos():
    assert diff(parse_expr("sin(theta)"), "theta") == \
        Unary("cos", Name("theta"))


def test_diff_power_rule_pointwise():
    d = diff(parse_expr("k^2*r^2"), "r")
    for r, k in [(1.0, 0.3), (2.0, 1.7), (0.5, -0.4)]:
        got = evaluate(d, EvalContext({"r": r, "k": k}, {}))
        assert got == pytest.approx(2 * k * k * r, rel=1e-15)


def test_diff_piecewise_matches_finite_difference():
    e = parse_expr("if(x < x0, exp(-1/(x-x0)^2), 0)")
    d = diff(e, "x")
    x0, x = 0.0, -0.5
    h = 1e-6
    ctx = lambda xx: EvalContext({"x": xx}, {"x0": x0})
    fd = (evaluate(e, ctx(x + h)) - evaluate(e, ctx(x - h))) / (2 * h)
    got = evaluate(d, ctx(x))
    assert abs(got - fd) / (1 + abs(fd)) < 1e-6


def test_diff_unknown_rules_cover_all_ops():
    e = parse_expr("sqrt(abs(tan(x)) + log(exp(x)) + x/(x+2))")
    d = diff(e, "x")
    ctx = EvalContext({"x": 0.7}, {})
    h = 1e-6
    fd = (evaluate(e, EvalContext({"x": 0.7 + h}, {}))
          - evaluate(e, EvalContext({"x": 0.7 - h}, {}))) / (2 * h)
    assert abs(evaluate(d, ctx) - fd) / (1 + abs(fd)) < 1e-6


def test_diff_general_power():
    e = parse_expr("x^y")
    dx = diff(e, "x")
    dy = diff(e, "y")
    ctx = EvalContext({"x": 1.7, "y": 2.3}, {})
    assert evaluate(dx, ctx) == pytest.approx(2.3 * 1.7 ** 1.3, rel=1e-12)
    assert evaluate(dy, ctx) == pytest.approx(
        1.7 ** 2.3 * math.log(1.7), rel=1e-12)


# ---------------------------------------------------------------------------
# randomized properties

_UNARY = ("sin", "cos", "exp", "neg")
_BINARY = ("add", "sub", "mul", "div")


def _random_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Const(round(float(rng.uniform(-2, 2)), 3))
        return Name(str(rng.choice(names)))
    roll = rng.random()
    if roll < 0.35:
        op = str(rng.choice(_UNARY))
        child = _random_expr(rng, names, depth - 1)
        if op == "neg" and isinstance(child, Const):
            return Const(-child.value)  # parser folds negated literals
        return Unary(op, child)
    if roll < 0.9:
        op = str(rng.choice(_BINARY))
        left = _random_expr(rng, names, depth - 1)
        right = _random_expr(rng, names, depth - 1)
        return Binary(op, left, right)
    return Binary("pow", _random_expr(rng, names, depth - 1),
                  Const(float(rng.integers(1, 4))))


def _usable(e, ctx):
    try:
        v = evaluate(e, ctx)
    except EvalError:
        return None
    if not math.isfinite(v) or abs(v) > 1e6:
        return None
    return v


def test_ad_matches_finite_differences_randomized():
    rng = np.random.default_rng(42)
    names = ["x", "y"]
    h = 1e-6
    done = 0
    while done < 120:
        e = _random_expr(rng, names, 4)
        x, y = rng.uniform(-1.5, 1.5, 2)
        mk = lambda xx: EvalContext({"x": xx, "y": y}, {})
        if _usable(e, mk(x)) is None:
            continue
        d = diff(e, "x")
        vp, vm = _usable(e, mk(x + h)), _usable(e, mk(x - h))
        g = _usable(d, mk(x))
        if vp is None or vm is None or g is None:
            continue
        fd = (vp - vm) / (2 * h)
        if abs(fd) > 1e3:  # steep spots amplify fd truncation
            continue
        assert abs(g - fd) / (1 + abs(fd)) < 1e-6
        done += 1
    assert done == 120


def test_diff_is_linear_pointwise():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = _random_expr(rng, ["x"], 3)
        b = _random_expr(rng, ["x"], 3)
        dsum = diff(Binary("add", a, b), "x")
        da, db = diff(a, "x"), diff(b, "x")
        x = float(rng.uniform(-1, 1))
        ctx = EvalContext({"x": x}, {})
        try:
            lhs = evaluate(dsum, ctx)
            rhs = evaluate(da, ctx) + evaluate(db, ctx)
        except EvalError:
            continue
        if math.isfinite(lhs) and math.isfinite(rhs):
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_expr_nodes_are_immutable():
    e = parse_expr("x + 1")
    with pytest.raises(AttributeError):
        e.op = "sub"


def test_free_names():
    assert free_names(parse_expr("if(x < x0, k*y, 0)")) == {"x", "x0", "k", "y"}


def test_compile_matches_evaluate_on_arrays():
    e = parse_expr("if(x < 0, exp(-1/x^2), x^2 + k)")
    fn = compile_expr(e)
    xs = np.array([-1.0, -0.3, 0.0, 0.5, 2.0])
    got = fn({"x": xs, "k": 1.5})
    want = [evaluate(e, EvalContext({"x": float(x)}, {"k": 1.5})) for x in xs]
    assert np.allclose(got, want)


# ---------------------------------------------------------------------------
# the tape against the closure-tree compiler it replaced, kept as a reference

_REF_UNARY = {
    "neg": np.negative, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
}
_REF_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
               "div": np.divide, "pow": np.power}
_REF_CMP = {"lt": np.less, "le": np.less_equal,
            "gt": np.greater, "ge": np.greater_equal}


def _closure_compile(e):
    """One closure per tree node, each evaluated once per occurrence."""
    if isinstance(e, Const):
        v = e.value
        return lambda env: v
    if isinstance(e, Name):
        return lambda env: env[e.name]
    if isinstance(e, Unary):
        f, arg = _REF_UNARY[e.op], _closure_compile(e.arg)
        return lambda env: f(arg(env))
    if isinstance(e, Binary):
        f = _REF_BINARY[e.op]
        left, right = _closure_compile(e.left), _closure_compile(e.right)
        return lambda env: f(left(env), right(env))
    cmp = _REF_CMP[e.cmp]
    lhs, rhs = _closure_compile(e.lhs), _closure_compile(e.rhs)
    then, other = _closure_compile(e.then), _closure_compile(e.other)

    def piecewise_fn(env):
        with np.errstate(all="ignore"):
            cond = cmp(lhs(env), rhs(env))
            a = then(env)
            b = other(env)
        return np.where(cond, a, b)

    return piecewise_fn


def _bits(values, m):
    return np.stack([np.broadcast_to(np.asarray(v, dtype=float), (m,))
                     for v in values]).view(np.uint64)


@pytest.mark.parametrize("entry", ["sphere", "s1-line-bundle",
                                   "punctured-plane", "smooth-pathology",
                                   "flat-trivial", "dtheta-obstruction"])
def test_tables_match_closure_compiler_bit_for_bit(entry):
    from paracon.bundle import _is_zero
    from paracon.corpus import get_entry
    man = get_entry(entry).manifest()
    spec = man.spec
    rng = np.random.default_rng(14)
    pts = np.stack([rng.uniform(min(a), max(a), 40) for a in man.grid_axes],
                   axis=1)
    env = spec.domain.env(pts, spec.params)
    top = 4 if entry == "smooth-pathology" else 3
    for order in range(top + 1):
        indices, tape = spec._table(order)
        exprs = [e for _, _, e in spec._partial_exprs[order]
                 if not _is_zero(e)]
        assert len(exprs) == len(indices)
        if not exprs:
            continue
        with np.errstate(all="ignore"):
            got = _bits(tape(env), len(pts))
            want = _bits([_closure_compile(e)(env) for e in exprs], len(pts))
        assert np.array_equal(got, want), (entry, order)


def test_tape_keeps_both_zero_signs():
    x = Name("x")
    tape = compile_expr([Const(0.0), Const(-0.0), Binary("add", x, Const(0.0)),
                         Binary("add", x, Const(-0.0))])
    vals = tape({"x": -0.0})
    assert np.signbit(vals).tolist() == [False, True, False, True]
    assert len(tape) == 2  # the two sums stay two instructions


def test_tape_piecewise_branch_stays_silent():
    # pytest turns RuntimeWarnings into errors for this suite
    quiet = parse_expr("if(x > 0, 1/x, 0)")
    xs = np.array([0.0, 2.0])
    assert compile_expr(quiet)({"x": xs}).tolist() == [0.0, 0.5]
    # a subexpression also used outside every piecewise node still warns
    with pytest.raises(RuntimeWarning):
        compile_expr([quiet, parse_expr("1/x")])({"x": xs})


def test_tape_evaluates_shared_subexpressions_once():
    e = parse_expr("sin(x)*sin(x) + exp(sin(x))")
    tape = compile_expr([e, parse_expr("sin(x)")])
    assert len(tape) == 4  # sin, mul, exp, add: every sin(x) is one
    xs = np.linspace(-1, 1, 7)
    got = tape({"x": xs})
    assert np.array_equal(got[0], _closure_compile(e)({"x": xs}))
    assert np.array_equal(got[1], np.sin(xs))


def test_pool_interns_by_structure_and_bits():
    from paracon.expr import Pool
    pool = Pool()
    a = pool.intern(parse_expr("x*y + 1"))
    b = pool.intern(parse_expr("x*y + 1"))
    assert a is b
    assert pool.intern(Const(0.0)) is not pool.intern(Const(-0.0))
    # diff is memoized per (node, variable) and its result is interned
    d = diff(a, "x", pool)
    assert diff(b, "x", pool) is d
    assert d is pool.intern(Name("y"))
