"""Forward-mode derivative jets, truncated at order 3, batched over sample points.

A `Jet` holds the value and the first three derivative tensors of a scalar
function evaluated at a batch of m points in n coordinates:

    value (m,)   grad (m,n)   hess (m,n,n)   third (m,n,n,n)

Arithmetic implements the truncated Taylor (Leibniz / Faa di Bruno) rules
exactly, so derivatives of parsed expressions are exact to roundoff rather
than finite-difference approximations.  Tensors above the requested order
are simply absent (None).

Every derivative tensor is stored with the sample axis at unit stride: it is
a transposed view of an (n, ..., n, m) buffer, indexed as above. The leaves
(`Jet.constant`, `Jet.coordinate`) allocate that way, and numpy's ufuncs and
einsum keep their operands' memory order, so every tensor of every jet has
it, and each elementwise operation runs over rows of m contiguous samples
rather than over loops of length n. Values do not depend on the layout, up
to the sign and payload of a NaN (which operand's NaN a sum propagates
depends on the loop numpy picks).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import expr as ex
from .expr import DomainError, Expression

Array = np.ndarray

MAX_ORDER = 3


class Jet:
    __slots__ = ("order", "m", "n", "value", "grad", "hess", "third")

    def __init__(self, order: int, value: Array, grad=None, hess=None, third=None):
        self.order = order
        self.value = value
        self.m = value.shape[0]
        self.n = grad.shape[1] if grad is not None else 0
        self.grad = grad
        self.hess = hess
        self.third = third

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c, m: int, n: int, order: int) -> "Jet":
        value = np.full(m, float(c))
        g = np.zeros((n, m)).T if order >= 1 else None
        h = np.zeros((n, n, m)).T if order >= 2 else None
        t = np.zeros((n, n, n, m)).T if order >= 3 else None
        return Jet(order, value, g, h, t)

    @staticmethod
    def coordinate(index: int, pts: Array, order: int) -> "Jet":
        m, n = pts.shape
        value = pts[:, index].astype(float).copy()
        g = h = t = None
        if order >= 1:
            g = np.zeros((n, m)).T
            g[:, index] = 1.0
        if order >= 2:
            h = np.zeros((n, n, m)).T
        if order >= 3:
            t = np.zeros((n, n, n, m)).T
        return Jet(order, value, g, h, t)

    # -- ring operations ----------------------------------------------------

    def __neg__(self) -> "Jet":
        o = self.order
        return Jet(
            o,
            -self.value,
            -self.grad if o >= 1 else None,
            -self.hess if o >= 2 else None,
            -self.third if o >= 3 else None,
        )

    def __add__(self, other: "Jet") -> "Jet":
        o = self.order
        return Jet(
            o,
            self.value + other.value,
            self.grad + other.grad if o >= 1 else None,
            self.hess + other.hess if o >= 2 else None,
            self.third + other.third if o >= 3 else None,
        )

    def __sub__(self, other: "Jet") -> "Jet":
        o = self.order
        return Jet(
            o,
            self.value - other.value,
            self.grad - other.grad if o >= 1 else None,
            self.hess - other.hess if o >= 2 else None,
            self.third - other.third if o >= 3 else None,
        )

    def __mul__(self, other: "Jet") -> "Jet":
        o = self.order
        a, b = self, other
        value = a.value * b.value
        g = h = t = None
        if o >= 1:
            g = a.grad * b.value[:, None] + b.grad * a.value[:, None]
        if o >= 2:
            cross = np.einsum("mi,mj->mij", a.grad, b.grad)
            h = (
                a.hess * b.value[:, None, None]
                + b.hess * a.value[:, None, None]
                + cross
                + cross.transpose(0, 2, 1)
            )
        if o >= 3:
            t = a.third * b.value[:, None, None, None] + b.third * a.value[:, None, None, None]
            hb = np.einsum("mij,mk->mijk", a.hess, b.grad)
            t = t + hb + hb.transpose(0, 1, 3, 2) + hb.transpose(0, 3, 1, 2)
            ha = np.einsum("mij,mk->mijk", b.hess, a.grad)
            t = t + ha + ha.transpose(0, 1, 3, 2) + ha.transpose(0, 3, 1, 2)
        return Jet(o, value, g, h, t)

    def __truediv__(self, other: "Jet") -> "Jet":
        return self * other.reciprocal()

    # -- univariate composition (Faa di Bruno through order 3) ---------------
    #
    # The derivative coefficients f1-f3 are built only up to the jet's order:
    # an order-0 pass never reads them, and their powers can overflow.

    def compose(self, f0: Array, f1=None, f2=None, f3=None) -> "Jet":
        o = self.order
        g = h = t = None
        if o >= 1:
            g = f1[:, None] * self.grad
        if o >= 2:
            gg = np.einsum("mi,mj->mij", self.grad, self.grad)
            h = f2[:, None, None] * gg + f1[:, None, None] * self.hess
        if o >= 3:
            ggg = np.einsum("mi,mj,mk->mijk", self.grad, self.grad, self.grad)
            hg = np.einsum("mij,mk->mijk", self.hess, self.grad)
            sym3 = hg + hg.transpose(0, 1, 3, 2) + hg.transpose(0, 3, 1, 2)
            t = (
                f3[:, None, None, None] * ggg
                + f2[:, None, None, None] * sym3
                + f1[:, None, None, None] * self.third
            )
        return Jet(o, f0, g, h, t)

    def reciprocal(self) -> "Jet":
        v = self.value
        if np.any(v == 0.0):
            raise DomainError("division by zero")
        inv = 1.0 / v
        o = self.order
        return self.compose(
            inv,
            -(inv**2) if o >= 1 else None,
            2.0 * inv**3 if o >= 2 else None,
            -6.0 * inv**4 if o >= 3 else None,
        )

    def exp(self) -> "Jet":
        e = np.exp(self.value)
        return self.compose(e, e, e, e)

    def log(self) -> "Jet":
        v = self.value
        if np.any(v <= 0.0):
            raise DomainError(f"log of non-positive value (min {v.min():g})")
        o = self.order
        inv = 1.0 / v if o >= 1 else None
        return self.compose(
            np.log(v),
            inv,
            -(inv**2) if o >= 2 else None,
            2.0 * inv**3 if o >= 3 else None,
        )

    def sqrt(self) -> "Jet":
        v = self.value
        if np.any(v <= 0.0):
            raise DomainError(f"sqrt of non-positive value (min {v.min():g})")
        r = np.sqrt(v)
        o = self.order
        return self.compose(
            r,
            0.5 / r if o >= 1 else None,
            -0.25 / (r * v) if o >= 2 else None,
            0.375 / (r * v * v) if o >= 3 else None,
        )

    def sin(self) -> "Jet":
        s, c = np.sin(self.value), np.cos(self.value)
        return self.compose(s, c, -s, -c)

    def cos(self) -> "Jet":
        s, c = np.sin(self.value), np.cos(self.value)
        return self.compose(c, -s, -c, s)

    def powi(self, k: int) -> "Jet":
        if k < 0:
            return self.powi(-k).reciprocal()
        out = Jet.constant(1.0, self.m, self.n, self.order)
        for _ in range(k):
            out = out * self
        return out

    def powf(self, r: float) -> "Jet":
        v = self.value
        if np.any(v <= 0.0):
            raise DomainError(f"power {r:g} of non-positive base (min {v.min():g})")
        o = self.order
        return self.compose(
            v**r,
            r * v ** (r - 1) if o >= 1 else None,
            r * (r - 1) * v ** (r - 2) if o >= 2 else None,
            r * (r - 1) * (r - 2) * v ** (r - 3) if o >= 3 else None,
        )


# ---------------------------------------------------------------------------
# Expression evaluation: one pass over a plan of distinct nodes
# ---------------------------------------------------------------------------
#
# A plan is a topologically ordered list of slots ``(op, arg, kids)``, one per
# node object of the trees handed to `_plan`. Nodes are hash-consed, so each
# structurally distinct subtree is one object and is evaluated once, however
# many trees share it. Slots come in the order a left-to-right recursive walk
# would first finish them, so the first `DomainError` raised is the one that
# walk would raise. A `Gauge` leaf's slot takes the jet its source computes.
#
# A division u / v is planned as u * recip(v), with one "recip" slot per
# distinct divisor, placed right after the first division by it: dense
# Levi-Civita symbols divide dozens of times by a few determinants, and each
# reciprocal jet is taken once. `Jet.__truediv__` is that same product, so
# values do not change, and a zero divisor raises where the first division by
# it did.

_APPLY = {
    "neg": lambda _, u: -u,
    "add": lambda _, u, v: u + v,
    "sub": lambda _, u, v: u - v,
    "mul": lambda _, u, v: u * v,
    "recip": lambda _, v: v.reciprocal(),
    "powi": lambda k, u: u.powi(k),
    "powf": lambda r, u: u.powf(r),
    "pow": lambda _, u, e: (e * u.log()).exp(),
    "call": lambda func, u: getattr(u, func)(),
}

_BINARY = {ex.Add: "add", ex.Sub: "sub", ex.Mul: "mul", ex.Div: "div"}


def _describe(node) -> tuple:
    """``(op, arg, child nodes)``: a slot for ``node`` applies ``op`` to
    ``arg`` and its children's jets."""
    t = type(node)
    op = _BINARY.get(t)
    if op is not None:
        return op, None, (node.left, node.right)
    if t is ex.Num:
        return "num", node.value, ()
    if t is ex.Var:
        return "var", node.index, ()
    if t is ex.Neg:
        return "neg", None, (node.arg,)
    if t is ex.Call:
        return "call", node.func, (node.arg,)
    if t is ex.Pow:
        return _describe_pow(node)
    if t is ex.Gauge:
        return "gauge", node.source, ()
    raise TypeError(f"not an expression node: {node!r}")


def _describe_pow(node: ex.Pow) -> tuple:
    """A Pow's exponent, resolved once: "powi"/"powf" for a constant,
    "pow" for a variable one, "raise" when resolving it fails."""
    base = node.base
    try:
        k = ex.constant_value(node.exponent)
    except (ArithmeticError, ValueError) as err:  # raised in turn, before the base
        return "raise", err, ()
    if k is None:
        return "pow", None, (base, node.exponent)
    try:
        integral = k == round(k)
    except (OverflowError, ValueError) as err:  # inf or nan: after the base
        return "raise", err, (base,)
    if integral:
        return "powi", int(round(k)), (base,)
    return "powf", k, (base,)


class Plan(NamedTuple):
    """The slots of some trees (children before parents, left to right) and
    the slot of each tree. Built once, it can be run at any order on any
    points."""

    slots: list[tuple]
    roots: list[int]


def _plan(trees) -> Plan:
    trees = list(trees)  # held, so no planned node dies and frees its id
    slots: list[tuple] = []
    by_id: dict[int, int] = {}  # node objects already planned
    recips: dict[int, int] = {}  # divisor slot -> its reciprocal's slot
    roots: list[int] = []
    for root in trees:
        stack = [(root, None)]
        while stack:
            node, desc = stack.pop()
            if id(node) in by_id:
                continue
            if desc is None:
                desc = _describe(node)
                pending = [k for k in desc[2] if id(k) not in by_id]
                if pending:
                    stack.append((node, desc))
                    stack.extend((k, None) for k in reversed(pending))
                    continue
            op, arg, kids = desc
            kids = tuple(by_id[id(k)] for k in kids)
            if op == "div":
                u, v = kids
                if v not in recips:
                    recips[v] = len(slots)
                    slots.append(("recip", None, (v,)))
                op, kids = "mul", (u, recips[v])
            by_id[id(node)] = len(slots)
            slots.append((op, arg, kids))
        roots.append(by_id[id(root)])
    return Plan(slots, roots)


def _run(slots: list[tuple], roots: list[int], pts: Array, order: int) -> list[Jet]:
    """Evaluate every slot once; a jet is dropped after its last consumer."""
    m, n = pts.shape
    uses = [0] * len(slots)
    for _, _, kids in slots:
        for k in kids:
            uses[k] += 1
    for r in roots:
        uses[r] += 1  # held until the end
    jets: list[Jet | None] = [None] * len(slots)
    for s, (op, arg, kids) in enumerate(slots):
        if op == "num":
            jets[s] = Jet.constant(arg, m, n, order)
            continue
        if op == "var":
            if arg >= n:
                raise VariableDimensionError(arg, n)
            jets[s] = Jet.coordinate(arg, pts, order)
            continue
        if op == "gauge":
            jets[s] = arg.jet(pts, order)
            continue
        if op == "raise":
            raise arg
        jets[s] = _APPLY[op](arg, *[jets[k] for k in kids])
        for k in kids:
            uses[k] -= 1
            if not uses[k]:
                jets[k] = None
    return [jets[r] for r in roots]


def evaluate(trees, pts: Array, order: int):
    """Evaluate an expression tree, a sequence of trees, or a `Plan` of
    trees, at a batch of points.

    Returns a `Jet` for a single tree and a list of jets, one per tree, for a
    sequence or a plan. All trees share one pass: each distinct subtree is
    evaluated once. A plan built once by `_plan` saves planning again when
    the same trees are evaluated many times, as a field's entries are.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 0 and {MAX_ORDER}, got {order}")
    pts = np.asarray(pts, float)
    if pts.ndim != 2:
        raise ValueError("pts must have shape (m, n)")
    if isinstance(trees, Plan):
        return _run(*trees, pts, order)
    single = isinstance(trees, Expression)
    jets = _run(*_plan([trees] if single else trees), pts, order)
    return jets[0] if single else jets


class VariableDimensionError(ex.ExprError):
    def __init__(self, index: int, n: int):
        super().__init__(f"expression references x{index} but points have dimension {n}")
