"""Jet engine tests: exact values, finite-difference oracle, symmetry."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesslab.expr import DomainError, parse_expression, plain_eval
from hesslab.jets import Jet, evaluate


# ---------------------------------------------------------------------------
# frozen exact values
# ---------------------------------------------------------------------------

def test_square_at_three():
    jet = evaluate(parse_expression("x0*x0", dim=1), np.array([[3.0]]), 2)
    assert jet.value[0] == 9.0
    assert jet.grad[0].tolist() == [6.0]
    assert jet.hess[0].tolist() == [[2.0]]
    assert jet.third is None


def test_exp_at_zero_all_ones():
    jet = evaluate(parse_expression("exp(x0)", dim=1), np.array([[0.0]]), 3)
    assert jet.value[0] == 1.0
    assert jet.grad[0].tolist() == [1.0]
    assert jet.hess[0].tolist() == [[1.0]]
    assert jet.third[0].tolist() == [[[1.0]]]


def test_log_product_hessian():
    jet = evaluate(parse_expression("log(x0*x1)", dim=2), np.array([[2.0, 3.0]]), 3)
    assert jet.value[0] == pytest.approx(np.log(6.0), rel=1e-15)
    assert jet.grad[0] == pytest.approx([0.5, 1 / 3], rel=1e-12)
    assert jet.hess[0] == pytest.approx(np.diag([-0.25, -1 / 9]), rel=1e-12)
    # third derivative of log along each axis is 2/x^3; mixed entries vanish
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 2 / 8
    expected[1, 1, 1] = 2 / 27
    assert jet.third[0] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_quartic_third_derivative():
    jet = evaluate(parse_expression("x0^4", dim=1), np.array([[2.0]]), 3)
    assert jet.value[0] == 16.0
    assert jet.grad[0].tolist() == [32.0]
    assert jet.hess[0].tolist() == [[48.0]]
    assert jet.third[0].tolist() == [[[48.0]]]  # 24*x0 at x0=2


def test_negative_integer_power():
    jet = evaluate(parse_expression("x0^(-2)", dim=1), np.array([[2.0]]), 2)
    assert jet.value[0] == pytest.approx(0.25, rel=1e-14)
    assert jet.grad[0, 0] == pytest.approx(-2 / 8, rel=1e-13)
    assert jet.hess[0, 0, 0] == pytest.approx(6 / 16, rel=1e-13)


def test_variable_exponent():
    jet = evaluate(parse_expression("pow(x0, x1)", dim=2), np.array([[2.0, 3.0]]), 1)
    assert jet.value[0] == pytest.approx(8.0, rel=1e-13)
    assert jet.grad[0] == pytest.approx([12.0, 8.0 * np.log(2.0)], rel=1e-12)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def _fd_step(x):
    return 1e-4 * max(1.0, abs(x))


def _fd_grad(tree, p):
    p = np.asarray(p, float)
    out = np.zeros(len(p))
    for i in range(len(p)):
        h = _fd_step(p[i])
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (plain_eval(tree, up) - plain_eval(tree, dn)) / (2 * h)
    return out


def _fd_hess(tree, p):
    p = np.asarray(p, float)
    n = len(p)
    out = np.zeros((n, n))
    for i, j in itertools.product(range(n), repeat=2):
        hi, hj = _fd_step(p[i]), _fd_step(p[j])
        pp = p.copy()

        def at(di, dj):
            q = p.copy()
            q[i] += di * hi
            q[j] += dj * hj
            return plain_eval(tree, q)

        if i == j:
            out[i, i] = (at(1, 0) - 2 * plain_eval(tree, pp) + at(-1, 0)) / hi**2
        else:
            out[i, j] = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * hi * hj)
    return out


SMOOTH_CASES = [
    ("exp(x0)*sin(x1)", (0.4, 1.1)),
    ("sqrt(x0*x0+x1*x1)", (1.2, 0.7)),
    ("log((1+exp(x0/2))^2 + (1+exp(x1/2))^2)", (0.3, -0.2)),
    ("x0^2.5/x1", (1.4, 2.2)),
    ("1/(x0*x0+x1*x1)", (0.9, 1.3)),
    ("cos(x0*x1)+x1^3", (0.5, 0.8)),
]


@pytest.mark.parametrize("src,p", SMOOTH_CASES)
def test_jets_match_finite_differences(src, p):
    tree = parse_expression(src, dim=2)
    jet = evaluate(tree, np.array([p]), 2)
    assert jet.value[0] == pytest.approx(plain_eval(tree, p), rel=1e-12)
    fd_g = _fd_grad(tree, p)
    fd_h = _fd_hess(tree, p)
    scale_g = 1.0 + np.max(np.abs(fd_g))
    scale_h = 1.0 + np.max(np.abs(fd_h))
    assert np.max(np.abs(jet.grad[0] - fd_g)) / scale_g < 1e-5
    assert np.max(np.abs(jet.hess[0] - fd_h)) / scale_h < 1e-5


# ---------------------------------------------------------------------------
# random polynomials against hand differentiation
# ---------------------------------------------------------------------------

coeff = st.floats(min_value=-5, max_value=5, allow_nan=False)


@given(
    coeffs=st.lists(coeff, min_size=25, max_size=25),
    x=st.floats(min_value=-2, max_value=2, allow_nan=False),
    y=st.floats(min_value=-2, max_value=2, allow_nan=False),
)
@settings(max_examples=100)
def test_polynomial_jets_exact(coeffs, x, y):
    c = np.asarray(coeffs).reshape(5, 5)
    # keep total degree <= 4
    for a in range(5):
        for b in range(5):
            if a + b > 4:
                c[a, b] = 0.0
    terms = []
    for a in range(5):
        for b in range(5):
            if c[a, b] != 0.0:
                terms.append(f"{float(c[a, b])!r}*x0^{a}*x1^{b}")
    src = " + ".join(terms) if terms else "0"
    tree = parse_expression(src, dim=2)
    jet = evaluate(tree, np.array([[x, y]]), 3)
    value, grad, hess, third = jet.value[0], jet.grad[0], jet.hess[0], jet.third[0]

    def dmono(a, b, dx, dy):
        # derivative of x^a y^b taken dx times in x and dy times in y
        if a < dx or b < dy:
            return 0.0
        fa = 1.0
        for k in range(dx):
            fa *= a - k
        fb = 1.0
        for k in range(dy):
            fb *= b - k
        return fa * fb * x ** (a - dx) * y ** (b - dy)

    def hand(dx, dy):
        return sum(
            c[a, b] * dmono(a, b, dx, dy) for a in range(5) for b in range(5) if c[a, b]
        )

    scale = 1.0 + max(abs(hand(0, 0)), abs(hand(1, 0)), abs(hand(0, 1)))
    assert abs(value - hand(0, 0)) <= 1e-12 * scale + 1e-9
    assert abs(grad[0] - hand(1, 0)) <= 1e-11 * scale + 1e-9
    assert abs(grad[1] - hand(0, 1)) <= 1e-11 * scale + 1e-9
    assert abs(hess[0, 1] - hand(1, 1)) <= 1e-10 * scale + 1e-9
    assert abs(hess[0, 0] - hand(2, 0)) <= 1e-10 * scale + 1e-9
    assert abs(third[0, 0, 1] - hand(2, 1)) <= 1e-10 * scale + 1e-9
    assert abs(third[1, 1, 1] - hand(0, 3)) <= 1e-10 * scale + 1e-9


# ---------------------------------------------------------------------------
# symmetry of jet tensors
# ---------------------------------------------------------------------------

SYMMETRY_EXPRS = [
    "exp(x0*x1/2)*sqrt(x0+x1+3)",
    "log(x0*x0 + x1*x1 + 1)/(x1+2)",
    "sin(x0)*cos(x1) + x0^3*x1",
]


@given(
    src=st.sampled_from(SYMMETRY_EXPRS),
    x=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
    y=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
)
@settings(max_examples=60)
def test_hess_and_third_are_symmetric(src, x, y):
    jet = evaluate(parse_expression(src, dim=2), np.array([[x, y]]), 3)
    h = jet.hess[0]
    assert np.allclose(h, h.T, rtol=0, atol=1e-10 * (1 + np.abs(h).max()))
    t = jet.third[0]
    scale = 1e-10 * (1 + np.abs(t).max())
    for perm in itertools.permutations((0, 1, 2)):
        assert np.allclose(t, np.transpose(t, perm), rtol=0, atol=scale)


# ---------------------------------------------------------------------------
# batching, truncation, errors
# ---------------------------------------------------------------------------

def test_batched_matches_pointwise():
    tree = parse_expression("exp(x0)/x1 + sqrt(x1)", dim=2)
    pts = np.array([[0.5, 1.0], [1.5, 2.0], [-0.3, 0.7]])
    jets = evaluate(tree, pts, order=3)
    for k, p in enumerate(pts):
        single = evaluate(tree, np.array([p]), 3)
        assert jets.value[k] == pytest.approx(single.value[0], rel=1e-15)
        assert np.allclose(jets.grad[k], single.grad[0], rtol=1e-15, atol=0)
        assert np.allclose(jets.hess[k], single.hess[0], rtol=1e-14, atol=1e-16)
        assert np.allclose(jets.third[k], single.third[0], rtol=1e-14, atol=1e-16)


def test_truncation_and_order_errors():
    tree = parse_expression("x0*x0", dim=1)
    p = np.array([[1.0]])
    jet = evaluate(tree, p, 1)
    assert jet.hess is None and jet.third is None
    jet0 = evaluate(tree, p, 0)
    assert jet0.grad is None
    with pytest.raises(ValueError):
        evaluate(tree, p, 4)
    with pytest.raises(ValueError):
        evaluate(tree, p, -1)


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse_expression("log(x0)", dim=1), np.array([[-1.0]]), 3)
    with pytest.raises(DomainError):
        evaluate(parse_expression("sqrt(x0)", dim=1), np.array([[0.0]]), 3)
    with pytest.raises(DomainError):
        evaluate(parse_expression("1/x0", dim=1), np.array([[0.0]]), 3)
    with pytest.raises(DomainError):
        evaluate(parse_expression("x0^1.5", dim=1), np.array([[-2.0]]), 3)
    # batch: one bad point poisons the batch
    with pytest.raises(DomainError):
        evaluate(parse_expression("log(x0)", dim=1), np.array([[1.0], [-1.0]]), 0)


def test_jet_constant_and_coordinate():
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    c = Jet.constant(5.0, 2, 2, 3)
    assert c.value.tolist() == [5.0, 5.0]
    assert not c.grad.any() and not c.third.any()
    v = Jet.coordinate(1, pts, 2)
    assert v.value.tolist() == [2.0, 4.0]
    assert v.grad.tolist() == [[0.0, 1.0], [0.0, 1.0]]
