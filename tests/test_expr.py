"""Parser, printer, symbolic derivative, and substitution tests."""

from __future__ import annotations

import copy
import math
import os
import pickle
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesslab import expr as ex
from hesslab.expr import (
    Add,
    Call,
    DomainError,
    ExprSyntaxError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    UnknownIdentifierError,
    Var,
    VariableRangeError,
    const,
    constant_value,
    diff,
    parse_expression,
    substitute,
    to_source,
    variables,
)
from hesslab.jets import clean, evaluate


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

def test_smoke_sum_of_squares():
    tree = parse_expression("x0*x0 + x1*x1", dim=2)
    assert tree == Add(Mul(Var(0), Var(0)), Mul(Var(1), Var(1)))


def test_exp_potential_parses():
    tree = parse_expression("exp(x0)+exp(x1)", dim=2)
    assert tree == Add(Call("exp", Var(0)), Call("exp", Var(1)))


def test_variable_index_out_of_range():
    with pytest.raises(VariableRangeError):
        parse_expression("log(x2)", dim=2)


def test_s_alias_is_last_coordinate():
    assert parse_expression("s", dim=3) == Var(2)
    assert parse_expression("s*s", dim=1) == Mul(Var(0), Var(0))


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_expression("y0 + 1", dim=2)
    with pytest.raises(UnknownIdentifierError):
        parse_expression("sinh(x0)", dim=1)


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x0 + ", dim=1)
    assert err.value.position == 5
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x0 $ x1", dim=2)
    assert err.value.position == 3
    with pytest.raises(ExprSyntaxError):
        parse_expression("(x0", dim=1)
    with pytest.raises(ExprSyntaxError):
        parse_expression("x0 x1", dim=2)  # trailing input


def test_precedence_and_associativity():
    assert parse_expression("x0+x1*x0", dim=2) == Add(Var(0), Mul(Var(1), Var(0)))
    # ^ is right-associative
    assert parse_expression("x0^x1^2", dim=2) == Pow(Var(0), Pow(Var(1), Num(2.0)))
    # unary minus binds at the base level, so -x0^2 is (-x0)^2 in this grammar
    assert parse_expression("-x0^2", dim=1) == Pow(Neg(Var(0)), Num(2.0))
    assert parse_expression("1 - x0 - x1", dim=2) == Sub(Sub(Num(1.0), Var(0)), Var(1))


def test_pow_function_is_caret():
    assert parse_expression("pow(x0, 3)", dim=1) == parse_expression("x0^3", dim=1)
    with pytest.raises(ExprSyntaxError):
        parse_expression("pow(x0)", dim=1)
    with pytest.raises(ExprSyntaxError):
        parse_expression("exp(x0, x1)", dim=2)


def test_variables():
    tree = parse_expression("x0*x2 + x0", dim=3)
    assert variables(tree) == frozenset({0, 2})
    assert variables(Num(4.0)) == frozenset()


# ---------------------------------------------------------------------------
# printing round trip
# ---------------------------------------------------------------------------

def _tree_strategy(dim: int = 3, max_leaves: int = 12):
    leaf = st.one_of(
        st.integers(min_value=0, max_value=9).map(lambda k: Num(float(k))),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Num),
        st.integers(min_value=0, max_value=dim - 1).map(Var),
    )

    def extend(children):
        binary = st.tuples(children, children)
        return st.one_of(
            children.map(Neg),
            binary.map(lambda ab: Add(*ab)),
            binary.map(lambda ab: Sub(*ab)),
            binary.map(lambda ab: Mul(*ab)),
            binary.map(lambda ab: ex.Div(*ab)),
            binary.map(lambda ab: Pow(*ab)),
            st.tuples(st.sampled_from(ex.UNARY_FUNCTIONS), children).map(
                lambda fa: Call(fa[0], fa[1])
            ),
        )

    return st.recursive(leaf, extend, max_leaves=max_leaves)


@given(_tree_strategy())
@settings(max_examples=200)
def test_print_parse_round_trip(tree):
    assert parse_expression(to_source(tree), dim=3) == tree


def test_negative_literal_round_trip():
    assert const(-3.0) == Neg(Num(3.0))
    assert parse_expression(to_source(const(-3.0)), dim=0) == Neg(Num(3.0))
    assert to_source(Num(2.0)) == "2"
    assert to_source(Num(2.5)) == "2.5"


# ---------------------------------------------------------------------------
# values: order-0 jets
# ---------------------------------------------------------------------------

def _value(tree, point=()) -> float:
    """The value of ``tree`` at one point, as an order-0 jet."""
    return float(evaluate(tree, np.array([point], float), 0).value[0])


def test_order_zero_values():
    tree = parse_expression("x0*x0 + 2*x1", dim=2)
    assert _value(tree, (3.0, 4.0)) == 17.0
    assert _value(parse_expression("2^0.5", dim=0)) == pytest.approx(math.sqrt(2))
    # exp(3 log 2) = 7.999999999999998
    assert _value(parse_expression("pow(x0, x1)", dim=2), (2.0, 3.0)) == pytest.approx(8.0)


def test_order_zero_domain_errors():
    # a point off an op's domain raises nothing: its value is NaN, and the
    # jet's fault marks it with the message it raises
    for src, x, message in [
        ("log(x0)", 0.0, "log of non-positive value (min 0)"),
        ("sqrt(x0)", -1.0, "sqrt of non-positive value (min -1)"),
        ("1/x0", 0.0, "division by zero"),
        ("x0^0.5", -4.0, "power 0.5 of non-positive base (min -4)"),
        ("x0^(-1)", 0.0, "division by zero"),
    ]:
        jet = evaluate(parse_expression(src, dim=1), np.array([[x]]), 0)
        assert np.isnan(jet.value[0])
        assert jet.fault.rows.tolist() == [True] and jet.fault.first[::2] == (0, message)
        with pytest.raises(DomainError) as err:
            clean(jet)
        assert str(err.value) == message


def test_constant_value():
    assert constant_value(parse_expression("1 + sqrt(2)", dim=0)) == 1 + math.sqrt(2)
    assert math.copysign(1.0, constant_value(Num(-0.0))) == -1.0
    assert constant_value(parse_expression("x1^(log(0) + x0)", dim=2).exponent) is None
    with pytest.raises(DomainError, match="log of non-positive value"):
        constant_value(parse_expression("log(0)", dim=0))
    # overflow and invalid operations raise, where a float would be inf or NaN
    for src in ("exp(1000)", "10^400", "sin(1e400)", "1e308*10", "1e400 - 1e400"):
        with pytest.raises(ArithmeticError):
            constant_value(parse_expression(src, dim=0))


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------

POINTS = [(0.7, 1.3), (2.0, 3.0), (1.1, 0.4)]


def _check_diff(src, hand, index=0, points=POINTS):
    tree = parse_expression(src, dim=2)
    d = diff(tree, index)
    for p in points:
        assert _value(d, p) == pytest.approx(hand(*p), rel=1e-12, abs=1e-12)


def test_diff_polynomial():
    _check_diff("x0*x0*x1 + x1^3", lambda x, y: 2 * x * y)
    _check_diff("x0*x0*x1 + x1^3", lambda x, y: x * x + 3 * y * y, index=1)


def test_diff_exp_log_sqrt_trig():
    _check_diff("exp(x0*x1)", lambda x, y: y * math.exp(x * y))
    _check_diff("log(x0*x0+x1)", lambda x, y: 2 * x / (x * x + y))
    _check_diff("sqrt(x0*x0+x1*x1)", lambda x, y: x / math.hypot(x, y))
    _check_diff("sin(x0)*cos(x1)", lambda x, y: math.cos(x) * math.cos(y))
    _check_diff("cos(x0*x0)", lambda x, y: -2 * x * math.sin(x * x))


def test_diff_quotient_and_powers():
    _check_diff("x0/x1", lambda x, y: 1 / y)
    _check_diff("x0/x1", lambda x, y: -x / y**2, index=1)
    _check_diff("x0^2.5", lambda x, y: 2.5 * x**1.5)
    _check_diff("x0^(-2)", lambda x, y: -2.0 * x**-3)
    # variable exponent goes through the exp/log rule
    _check_diff("x0^x1", lambda x, y: y * x ** (y - 1))
    _check_diff("x0^x1", lambda x, y: math.log(x) * x**y, index=1)


def test_diff_of_constant_and_unused_variable():
    assert diff(parse_expression("3.5", dim=1), 0) == Num(0.0)
    assert diff(parse_expression("x1", dim=2), 0) == Num(0.0)


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_substitute_composes():
    tree = parse_expression("x0*x0 + x1", dim=2)
    mapped = substitute(tree, {0: parse_expression("exp(x0)", dim=1), 1: Num(2.0)})
    for t in (0.3, 1.0, -0.5):
        assert _value(mapped, (t,)) == pytest.approx(math.exp(t) ** 2 + 2.0)


def test_substitute_shifts_indices():
    tree = parse_expression("x0/x1", dim=2)
    shifted = substitute(tree, {0: Var(2), 1: Var(3)})
    assert _value(shifted, (0, 0, 6.0, 3.0)) == 2.0


# ---------------------------------------------------------------------------
# hash-consing
# ---------------------------------------------------------------------------

def test_equal_trees_are_one_node():
    tree = parse_expression("x0*x1", 2)
    assert parse_expression("x0*x1", 2) is tree
    assert Mul(Var(0), Var(1)) is tree and Mul(left=Var(0), right=Var(1)) is tree
    assert parse_expression("x1*x0", 2) is not tree
    assert Num(2) is Num(2.0) and type(Num(2).value) is float
    assert copy.deepcopy(tree) is tree and pickle.loads(pickle.dumps(tree)) is tree
    with pytest.raises(TypeError):
        Var(0, 1)


def test_signed_zeros_are_two_equal_nodes():
    assert Num(0.0) is not Num(-0.0)
    assert Num(0.0) == Num(-0.0) and hash(Num(0.0)) == hash(Num(-0.0))
    assert math.copysign(1.0, Num(-0.0).value) == -1.0


def test_diff_is_built_once_per_node_and_index(monkeypatch):
    tree = parse_expression("exp(x0*x1)/x0", 2)
    first = diff(tree, 0)
    built = []
    real = ex._diff
    monkeypatch.setattr(ex, "_diff", lambda e, i: built.append((e, i)) or real(e, i))
    assert diff(tree, 0) is first and not built
    assert diff(tree, 1) is not first and built[0] == (tree, 1)
    with pytest.raises(TypeError):
        diff("x0", 0)


_PY310_CHECK = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("expr", sys.argv[1])
ex = importlib.util.module_from_spec(spec)
sys.modules["expr"] = ex
spec.loader.exec_module(ex)
tree = ex.parse_expression("exp(x0*x1)", 2)
assert tree is ex.parse_expression("exp(x0*x1)", 2)
assert ex.Num(0.0) is not ex.Num(-0.0) and ex.Num(0.0) == ex.Num(-0.0)
assert ex.diff(tree, 0) is ex.diff(tree, 0)
print(sys.version_info[:2])
"""


def test_expr_interns_under_the_oldest_supported_python():
    # pyproject declares requires-python >= 3.10; expr.py needs only the
    # standard library, so it can be loaded on its own there.
    exe = shutil.which("python3.10")
    if exe is None:
        pytest.skip("python3.10 not found")
    env = {**os.environ, "PYENV_VERSION": "3.10"}  # a pyenv shim runs 3.10 only when asked

    def run(*args):
        return subprocess.run([exe, *args], capture_output=True, text=True, env=env)

    probe = run("-c", "import sys; print(sys.version_info[:2])")
    if probe.returncode != 0 or probe.stdout.strip() != "(3, 10)":
        pytest.skip("python3.10 does not start")
    out = run("-c", _PY310_CHECK, ex.__file__)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "(3, 10)"
