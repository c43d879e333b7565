"""Forward-mode derivative jets, truncated at order 3, batched over sample points.

A `Jet` holds the value and the first three derivative tensors of a scalar
function evaluated at a batch of m points in n coordinates:

    value (m,)   grad (m,n)   hess (m,n,n)   third (m,n,n,n)

Arithmetic implements the truncated Taylor (Leibniz / Faa di Bruno) rules
exactly, so derivatives of parsed expressions are exact to roundoff rather
than finite-difference approximations.

Each jet also records its `degree`, the highest derivative order that can be
nonzero (sparse forward mode): 0 for `Jet.constant`, 1 for
`Jet.coordinate`, the larger of the operands' degrees for a sum, difference
or negation, min(order, sum of the degrees) for a product, 0 for a function
of a constant and the full order for a function of anything else. A
derivative above the degree is known zero and is not stored: no zero tensor
is allocated, and a product or composition drops every term with a
known-zero factor and adds the rest in place into a fresh sum, in the order
of the full rule, so a product of two full-degree jets is the textbook
Leibniz rule bit for bit. Dropping a zero term changes no value, except that
a 0 * inf = NaN it would have added is gone and the sign of a zero may
differ. Reads do not change: ``grad``, ``hess`` and ``third`` return full
arrays at every order up to the requested one, a known-zero order as zeros,
and None above the requested order. A finished jet's arrays are never
written in place, so a sum with a known-zero side shares the other side's
tensor.

Every derivative tensor is stored with the sample axis at unit stride: it is
a transposed view of an (n, ..., n, m) buffer, indexed as above. Coordinate
gradients and the zeros of a known-zero read are allocated that way, and
numpy's ufuncs and einsum keep their operands' memory order, so every tensor
of every jet has it, and each elementwise operation runs over rows of m
contiguous samples rather than over loops of length n. Values do not depend
on the layout, up to the sign and payload of a NaN (which operand's NaN a
sum propagates depends on the loop numpy picks).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import expr as ex
from .expr import DomainError, Expression

Array = np.ndarray

MAX_ORDER = 3


def _add(x, y):
    return y if x is None else x if y is None else x + y


def _sub(x, y):
    return x if y is None else -y if x is None else x - y


def _neg(x):
    return None if x is None else -x


def _plus(acc, *terms):
    """acc + terms[0] + terms[1] + ..., added left to right; None for no
    terms and no acc. ``acc`` is None or an array nothing else reads, and the
    terms are added to it in place; the terms may be views of one another,
    so without ``acc`` the first two make a new array."""
    if acc is None:
        if len(terms) < 2:
            return terms[0] if terms else None
        acc, terms = terms[0] + terms[1], terms[2:]
    for term in terms:
        acc += term
    return acc


class Jet:
    """A jet built from its parts has the full degree, every part up to the
    order given; a lower ``degree`` marks the parts above it as known zero
    (passed as None), and ``n`` is then given with it."""

    __slots__ = ("order", "degree", "m", "n", "value", "_grad", "_hess", "_third")

    def __init__(self, order: int, value: Array, grad=None, hess=None, third=None,
                 degree: int | None = None, n: int | None = None):
        self.order = order
        self.degree = order if degree is None else degree
        self.value = value
        self.m = value.shape[0]
        if n is None:
            n = grad.shape[1] if grad is not None else 0
        self.n = n
        self._grad = grad
        self._hess = hess
        self._third = third

    # -- reads: a known-zero order reads as zeros ---------------------------

    def _read(self, k: int, part):
        if part is None and k <= self.order:
            return np.zeros((self.n,) * k + (self.m,)).T
        return part

    @property
    def grad(self):
        return self._read(1, self._grad)

    @property
    def hess(self):
        return self._read(2, self._hess)

    @property
    def third(self):
        return self._read(3, self._third)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c, m: int, n: int, order: int) -> "Jet":
        return Jet(order, np.full(m, float(c)), degree=0, n=n)

    @staticmethod
    def coordinate(index: int, pts: Array, order: int) -> "Jet":
        m, n = pts.shape
        value = pts[:, index].astype(float).copy()
        g = None
        if order >= 1:
            g = np.zeros((n, m)).T
            g[:, index] = 1.0
        return Jet(order, value, g, degree=min(order, 1), n=n)

    # -- ring operations ----------------------------------------------------

    def __neg__(self) -> "Jet":
        return Jet(self.order, -self.value, _neg(self._grad), _neg(self._hess),
                   _neg(self._third), self.degree, self.n)

    def __add__(self, other: "Jet") -> "Jet":
        a, b = self, other
        return Jet(a.order, a.value + b.value, _add(a._grad, b._grad), _add(a._hess, b._hess),
                   _add(a._third, b._third), max(a.degree, b.degree), a.n)

    def __sub__(self, other: "Jet") -> "Jet":
        a, b = self, other
        return Jet(a.order, a.value - b.value, _sub(a._grad, b._grad), _sub(a._hess, b._hess),
                   _sub(a._third, b._third), max(a.degree, b.degree), a.n)

    def __mul__(self, other: "Jet") -> "Jet":
        """The Leibniz rule, each term added into a fresh sum once it is made."""
        o = self.order
        a, b = self, other
        av, bv = a.value, b.value
        ga, ha, ta = a._grad, a._hess, a._third
        gb, hb, tb = b._grad, b._hess, b._third
        g = h = t = None
        if ga is not None:
            g = ga * bv[:, None]
        if gb is not None:
            g = _plus(g, gb * av[:, None])
        if o >= 2:
            if ha is not None:
                h = ha * bv[:, None, None]
            if hb is not None:
                h = _plus(h, hb * av[:, None, None])
            if ga is not None and gb is not None:
                cross = np.einsum("mi,mj->mij", ga, gb)
                h = _plus(h, cross, cross.transpose(0, 2, 1))
        if o >= 3:
            if ta is not None:
                t = ta * bv[:, None, None, None]
            if tb is not None:
                t = _plus(t, tb * av[:, None, None, None])
            for hx, gy in ((ha, gb), (hb, ga)):
                if hx is not None and gy is not None:
                    hg = np.einsum("mij,mk->mijk", hx, gy)
                    t = _plus(t, hg, hg.transpose(0, 1, 3, 2), hg.transpose(0, 3, 1, 2))
        return Jet(o, av * bv, g, h, t, min(o, a.degree + b.degree), a.n)

    def __truediv__(self, other: "Jet") -> "Jet":
        return self * other.reciprocal()

    # -- univariate composition (Faa di Bruno through order 3) ---------------
    #
    # The derivative coefficients f1-f3 are built only up to `_chain_order`:
    # an order-0 pass never reads them, nor does a constant's composition,
    # and their powers can overflow.

    @property
    def _chain_order(self) -> int:
        return self.order if self.degree else 0

    def compose(self, f0: Array, f1=None, f2=None, f3=None) -> "Jet":
        o = self.order
        if not self.degree:
            return Jet(o, f0, degree=0, n=self.n)
        grad, hess, third = self._grad, self._hess, self._third
        g = h = t = None
        if o >= 1:
            g = f1[:, None] * grad
        # each sum starts from a fresh product, so the terms after it are
        # added in place, in the order of the full rule
        if o >= 2:
            gg = np.einsum("mi,mj->mij", grad, grad)
            h = f2[:, None, None] * gg
            if hess is not None:
                h += f1[:, None, None] * hess
        if o >= 3:
            ggg = np.einsum("mi,mj,mk->mijk", grad, grad, grad)
            t = f3[:, None, None, None] * ggg
            if hess is not None:
                hg = np.einsum("mij,mk->mijk", hess, grad)
                sym3 = _plus(None, hg, hg.transpose(0, 1, 3, 2), hg.transpose(0, 3, 1, 2))
                t += f2[:, None, None, None] * sym3
            if third is not None:
                t += f1[:, None, None, None] * third
        return Jet(o, f0, g, h, t, o, self.n)

    def reciprocal(self) -> "Jet":
        v = self.value
        if np.any(v == 0.0):
            raise DomainError("division by zero")
        inv = 1.0 / v
        o = self._chain_order
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
        o = self._chain_order
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
        o = self._chain_order
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
        """self**k by repeated squaring from the leading bit of k down: at
        most 2 floor(log2 k) products, and k = 2 and 3 are x*x and (x*x)*x."""
        if k < 0:
            return self.powi(-k).reciprocal()
        if k == 0:
            return Jet.constant(1.0, self.m, self.n, self.order)
        out = self
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def powf(self, r: float) -> "Jet":
        v = self.value
        if np.any(v <= 0.0):
            raise DomainError(f"power {r:g} of non-positive base (min {v.min():g})")
        o = self._chain_order
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


class Feed(NamedTuple):
    """A plan to `evaluate` whose roots are handed to ``emit(positions,
    jet)`` as their slots finish, instead of being returned: ``positions``
    are the root's places in ``plan.roots`` (several when trees are the same
    node). A root no later slot reads is then not held by the pass."""

    plan: Plan
    emit: Callable[[list[int], Jet], None]


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


def _run(slots: list[tuple], roots: list[int], pts: Array, order: int, emit) -> None:
    """Evaluate every slot once and emit each root as its slot finishes; a
    jet is dropped after its last consumer."""
    m, n = pts.shape
    uses = [0] * len(slots)
    for _, _, kids in slots:
        for k in kids:
            uses[k] += 1
    emitted: list[list[int] | None] = [None] * len(slots)
    for r, s in enumerate(roots):
        if emitted[s] is None:
            emitted[s] = []
        emitted[s].append(r)
    jets: list[Jet | None] = [None] * len(slots)
    for s, (op, arg, kids) in enumerate(slots):
        if op == "num":
            jet = Jet.constant(arg, m, n, order)
        elif op == "var":
            if arg >= n:
                raise VariableDimensionError(arg, n)
            jet = Jet.coordinate(arg, pts, order)
        elif op == "gauge":
            jet = arg.jet(pts, order)
        elif op == "raise":
            raise arg
        else:
            jet = _APPLY[op](arg, *[jets[k] for k in kids])
            for k in kids:
                uses[k] -= 1
                if not uses[k]:
                    jets[k] = None
        if emitted[s] is not None:
            emit(emitted[s], jet)
        if uses[s]:
            jets[s] = jet


def evaluate(trees, pts: Array, order: int):
    """Evaluate an expression tree, a sequence of trees, or a `Feed`, at a
    batch of points.

    Returns a `Jet` for a single tree, a list of jets, one per tree, for a
    sequence, and None for a feed, whose jets go to its ``emit``. All trees
    share one pass: each distinct subtree is evaluated once. A field feeds
    its plan, built once, because it evaluates the same trees many times.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 0 and {MAX_ORDER}, got {order}")
    pts = np.asarray(pts, float)
    if pts.ndim != 2:
        raise ValueError("pts must have shape (m, n)")
    if isinstance(trees, Feed):
        _run(*trees.plan, pts, order, trees.emit)
        return None
    single = isinstance(trees, Expression)
    plan = _plan([trees] if single else trees)
    out: list[Jet | None] = [None] * len(plan.roots)

    def keep(positions, jet):
        for r in positions:
            out[r] = jet

    _run(*plan, pts, order, keep)
    return out[0] if single else out


class VariableDimensionError(ex.ExprError):
    def __init__(self, index: int, n: int):
        super().__init__(f"expression references x{index} but points have dimension {n}")
