"""Jet engine tests: exact values, finite-difference oracle, symmetry."""

from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jet_reference import jet_from_parts
from hesslab.expr import DomainError, parse_expression
from hesslab.jets import Jet, clean, evaluate


# ---------------------------------------------------------------------------
# frozen exact values
# ---------------------------------------------------------------------------

def test_square_at_three():
    jet = evaluate(parse_expression("x0*x0", dim=1), np.array([[3.0]]), 2)
    assert jet.value[0] == 9.0
    assert jet.grad[0].tolist() == [6.0]
    assert jet.hess[0].tolist() == [[2.0]]


def test_exp_at_zero_all_ones():
    jet = evaluate(parse_expression("exp(x0)", dim=1), np.array([[0.0]]), 2)
    assert jet.value[0] == 1.0
    assert jet.grad[0].tolist() == [1.0]
    assert jet.hess[0].tolist() == [[1.0]]


def test_log_product_hessian():
    jet = evaluate(parse_expression("log(x0*x1)", dim=2), np.array([[2.0, 3.0]]), 2)
    assert jet.value[0] == pytest.approx(np.log(6.0), rel=1e-15)
    assert jet.grad[0] == pytest.approx([0.5, 1 / 3], rel=1e-12)
    assert jet.hess[0] == pytest.approx(np.diag([-0.25, -1 / 9]), rel=1e-12)


def test_quartic_hessian():
    jet = evaluate(parse_expression("x0^4", dim=1), np.array([[2.0]]), 2)
    assert jet.value[0] == 16.0
    assert jet.grad[0].tolist() == [32.0]
    assert jet.hess[0].tolist() == [[48.0]]  # 12*x0^2 at x0=2


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


def _value(tree, p) -> float:
    return float(evaluate(tree, np.array([p], float), 0).value[0])


def _fd_grad(tree, p):
    p = np.asarray(p, float)
    out = np.zeros(len(p))
    for i in range(len(p)):
        h = _fd_step(p[i])
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (_value(tree, up) - _value(tree, dn)) / (2 * h)
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
            return _value(tree, q)

        if i == j:
            out[i, i] = (at(1, 0) - 2 * _value(tree, pp) + at(-1, 0)) / hi**2
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
    assert jet.value[0] == _value(tree, p)  # the value does not depend on the order
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
    jet = evaluate(tree, np.array([[x, y]]), 2)
    value, grad, hess = jet.value[0], jet.grad[0], jet.hess[0]

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
def test_hess_is_symmetric(src, x, y):
    jet = evaluate(parse_expression(src, dim=2), np.array([[x, y]]), 2)
    h = jet.hess[0]
    assert np.allclose(h, h.T, rtol=0, atol=1e-10 * (1 + np.abs(h).max()))


# ---------------------------------------------------------------------------
# batching, truncation, errors
# ---------------------------------------------------------------------------

def test_batched_matches_pointwise():
    tree = parse_expression("exp(x0)/x1 + sqrt(x1)", dim=2)
    pts = np.array([[0.5, 1.0], [1.5, 2.0], [-0.3, 0.7]])
    jets = evaluate(tree, pts, order=2)
    for k, p in enumerate(pts):
        single = evaluate(tree, np.array([p]), 2)
        assert jets.value[k] == pytest.approx(single.value[0], rel=1e-15)
        assert np.allclose(jets.grad[k], single.grad[0], rtol=1e-15, atol=0)
        assert np.allclose(jets.hess[k], single.hess[0], rtol=1e-14, atol=1e-16)


def test_truncation_and_order_errors():
    tree = parse_expression("x0*x0", dim=1)
    p = np.array([[1.0]])
    jet = evaluate(tree, p, 1)
    assert jet.hess is None
    jet0 = evaluate(tree, p, 0)
    assert jet0.grad is None
    with pytest.raises(ValueError):
        evaluate(tree, p, 3)
    with pytest.raises(ValueError):
        evaluate(tree, p, 4)
    with pytest.raises(ValueError):
        evaluate(tree, p, -1)


def test_domain_errors():
    # each op off its domain marks the row, NaN in every part; nothing raises
    for src, x in (("log(x0)", -1.0), ("sqrt(x0)", 0.0), ("1/x0", 0.0), ("x0^1.5", -2.0)):
        jet = evaluate(parse_expression(src, dim=1), np.array([[x]]), 2)
        assert jet.fault.rows.tolist() == [True]
        for part in (jet.value, jet.grad, jet.hess):
            assert np.isnan(part).all()
    # batch: one bad point is one faulty row, and the other rows are the
    # values of a pass without it
    tree = parse_expression("x1 * log(x0) + 2", dim=2)
    pts = np.array([[1.5, 2.0], [-1.0, 2.0], [0.5, 3.0]])
    jet = evaluate(tree, pts, 2)
    assert jet.fault.rows.tolist() == [False, True, False]
    assert jet.fault.first[::2] == (1, "log of non-positive value (min -1)")
    rest = evaluate(tree, pts[[0, 2]], 2)
    assert rest.fault is None
    for got, want in ((jet.value, rest.value), (jet.grad, rest.grad), (jet.hess, rest.hess)):
        assert np.isnan(got[1]).all() and got[[0, 2]].tobytes() == want.tobytes()
    with pytest.raises(DomainError, match="log of non-positive value"):
        clean(jet)


@pytest.mark.parametrize("src, x", [
    ("1/x0", 1e-80),
    ("1/x0", 1e-110),
    ("log(x0)", 1e-160),
    ("sqrt(x0)", 1e-300),
    ("x0^0.5", 1e-130),
    ("x0^0.5", 1e-210),
])
def test_order_zero_builds_no_derivative_coefficients(src, x):
    # at each function's smallest x, its f2 (2/x^3, -1/x^2, -x^-1.5/4, ...)
    # overflows or divides by an underflowed zero, yet an order-0 jet never
    # builds it
    tree = parse_expression(src, dim=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jet = evaluate(tree, np.array([[x]]), 0)
    want = {"1/x0": 1 / x, "log(x0)": math.log(x), "sqrt(x0)": math.sqrt(x),
            "x0^0.5": math.sqrt(x)}[src]
    assert jet.value[0] == pytest.approx(want, rel=1e-15)


def test_jet_constant_and_coordinate():
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    c = Jet.constant(5.0, 2, 2, 2)
    assert c.value.tolist() == [5.0, 5.0]
    assert not c.grad.any() and not c.hess.any()
    v = Jet.coordinate(1, pts, 2)
    assert v.value.tolist() == [2.0, 4.0]
    assert v.grad.tolist() == [[0.0, 1.0], [0.0, 1.0]]


# ---------------------------------------------------------------------------
# known-zero orders and powering
# ---------------------------------------------------------------------------

def test_product_with_a_constant_allocates_no_higher_tensors():
    m, n = 20_000, 3
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (m, n))
    c, x = Jet.constant(2.5, m, n, 2), Jet.coordinate(1, pts, 2)
    hess_bytes = m * n * n * 8
    tracemalloc.start()
    try:
        y = c * x
        z = y + c
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the value and the gradient of each result, no (m, n, n) tensor
    assert peak < hess_bytes
    assert (c.degree, x.degree, y.degree, z.degree) == (0, 1, 1, 1)
    assert (y * y).degree == 2 and (y * y * y).degree == 2
    # a known-zero order still reads as a full array of zeros
    assert y.hess.shape == (m, n, n) and not y.hess.any()
    assert y.hess.strides[0] == 8  # sample axis at unit stride, as stored tensors
    assert np.array_equal(y.grad[:, 1], np.full(m, 2.5))
    assert (c.exp().degree, c.reciprocal().degree) == (0, 0)
    assert (x.exp().degree, x.exp().hess.any()) == (2, True)


def test_powi_squares_repeatedly(monkeypatch):
    products = 0
    real_mul = Jet.__mul__

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return real_mul(a, b)

    monkeypatch.setattr(Jet, "__mul__", counting_mul)
    x = Jet.coordinate(0, np.array([[1.0001], [0.9999]]), 2)
    jet = x.powi(20000)
    assert products <= 28  # 2 floor(log2 20000)
    assert jet.value == pytest.approx(np.array([1.0001, 0.9999]) ** 20000, rel=1e-12)
    assert jet.grad[:, 0] == pytest.approx(20000 * np.array([1.0001, 0.9999]) ** 19999,
                                           rel=1e-12)
    products = 0
    assert x.powi(2).value.tolist() == (x * x).value.tolist() and products == 2
    # a variable-free 1^1e20 is 67 squarings of a constant
    assert evaluate(parse_expression("1^1e20", dim=0), np.zeros((1, 0)), 0).value[0] == 1.0


def test_powi_agrees_with_exp_log():
    x = np.linspace(0.5, 1.5, 101)[:, None]
    jet = evaluate(parse_expression("x0^1000", dim=1), x, 0)
    want = np.exp(1000 * np.log(x[:, 0]))
    assert np.all(np.abs(jet.value - want) <= 1e-12 * want)


def test_powi_keeps_the_bits_of_repeated_products():
    # k = 2 and 3 multiply in the order of x*x and (x*x)*x, the only
    # integer powers the bundled scenes use
    pts = np.random.default_rng(2).uniform(-2.0, 2.0, (50, 2))
    u = evaluate(parse_expression("sin(x0) + x0*x1", dim=2), pts, 2)
    for k, want in ((2, u * u), (3, u * u * u)):
        got = u.powi(k)
        for part in ("value", "grad", "hess"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


# ---------------------------------------------------------------------------
# the product rule against the textbook Leibniz rule
# ---------------------------------------------------------------------------

def _textbook_product(a: Jet, b: Jet) -> list:
    """The parts of a * b by the full Leibniz rule, every term read as a full
    array and the terms summed out of place, left to right."""
    o = a.order
    av, bv = a.value, b.value
    parts = [av * bv]
    if o >= 1:
        parts.append(a.grad * bv[:, None] + b.grad * av[:, None])
    if o >= 2:
        cross = np.einsum("mi,mj->mij", a.grad, b.grad)
        parts.append(a.hess * bv[:, None, None] + b.hess * av[:, None, None]
                     + cross + cross.transpose(0, 2, 1))
    return parts


def _product_parts(jet: Jet) -> list:
    return [jet.value, jet.grad, jet.hess][:jet.order + 1]


def _full_jet(rng, order: int, m: int, n: int, special: bool) -> Jet:
    """A full-degree jet of random parts, copied into its buffer by
    `jet_from_parts`; ``special`` salts them with NaN, -NaN, +-inf and
    -0.0."""
    parts = []
    for k in range(order + 1):
        buf = rng.uniform(-2.0, 2.0, (n,) * k + (m,))
        if special:
            flat = buf.reshape(-1)
            picks = rng.choice(flat.size, size=min(flat.size, 6), replace=False)
            flat[picks] = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0][:len(picks)]
        parts.append(buf.T if k else buf)
    return jet_from_parts(order, *parts)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("order", [0, 1, 2])
def test_full_degree_product_is_the_textbook_rule_bit_for_bit(order):
    rng = np.random.default_rng(40 + order)
    for special in (False, True):
        a = _full_jet(rng, order, 30, 3, special)
        b = _full_jet(rng, order, 30, 3, special)
        got, want = _product_parts(a * b), _textbook_product(a, b)
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]


@pytest.mark.parametrize("order", [0, 1, 2])
def test_product_with_known_zero_orders_matches_the_textbook_rule(order):
    rng = np.random.default_rng(50 + order)
    pts = rng.uniform(-2.0, 2.0, (30, 3))
    full = _full_jet(rng, order, 30, 3, special=False)
    sparse = (Jet.constant(-1.5, 30, 3, order), Jet.coordinate(2, pts, order),
              Jet.coordinate(0, pts, order) * Jet.coordinate(1, pts, order))
    for s in sparse:
        for a, b in ((s, full), (full, s), (s, s)):
            got, want = _product_parts(a * b), _textbook_product(a, b)
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
