"""Forward-mode derivative jets, truncated at order 2, batched over sample points.

A `Jet` holds the value and the first two derivative tensors of a scalar
function evaluated at a batch of m points in n coordinates, in one float
buffer of shape (k, m): row 0 is the value, then come n gradient rows and n^2
Hessian rows, each in C order of its indices, each a row of m contiguous
samples. The parts are read-only views of it, indexed sample axis first:

    value (m,)   grad (m,n)   hess (m,n,n)

so ``grad`` is ``buf[1:1+n].T``, with strides (8, 8m). A field's tensor is
the `Jet` of its entries: its buffer puts the entry axes first, (*shape, k,
m), each entry's k rows as above, and its parts index as (m, *shape, n, ...),
value[m, i, j] and grad[m, i, j, a] = d_a g_ij for a metric. `Jet._part` is
the one reader of the row layout.

Order 2 is all the checks read: any higher derivative, such as the
covariant derivative of a Hessian metric, is built symbolically by
`expr.diff` before a jet is taken.

Arithmetic implements the truncated Taylor (Leibniz / Faa di Bruno) rules
exactly, so derivatives of parsed expressions are exact to roundoff rather
than finite-difference approximations. Each op makes one fresh buffer and
fills it with a few ufunc calls, over all of its rows at once where it can:
a sum or a negation is one call, and a first-order product is every row of
one factor times the other's value (one call) plus the other gradient term,
its one scratch array. Second order adds its terms in turn into the Hessian
rows, the outer products among them made by einsum. No op writes an
operand's buffer, so any number of slots may read a jet. The ring
operations and compositions take scalar jets, (k, m) buffers, only.

Each jet also records its `degree`, the highest derivative order that can be
nonzero (sparse forward mode): 0 for `Jet.constant`, 1 for
`Jet.coordinate`, the larger of the operands' degrees for a sum, difference
or negation, min(order, sum of the degrees) for a product, 0 for a function
of a constant and the full order for a function of anything else. A
derivative above the degree is known zero and has no rows: the buffer ends
after the rows of the degree. A product or composition drops every term with
a known-zero factor and adds the rest in the order of the full rule, so a
product of two full-degree jets is the textbook Leibniz rule bit for bit.
Dropping a zero term changes no value, except that a 0 * inf = NaN it would
have added is gone and the sign of a zero may differ. Reads do not change:
``grad`` and ``hess`` return full arrays at every order up to the requested
one, a known-zero order as fresh zeros, and None above the requested order.

A domain error is a per-sample mask, not an exception: ``reciprocal``,
``log``, ``sqrt`` and ``powf`` set the rows out of their domain to NaN before
they compute, so numpy warns of nothing, and mark them in the result's
`Fault`. A jet carries the fault of every jet it was computed from, so a row
is faulty exactly when, evaluated alone, it would have raised.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, NamedTuple

import numpy as np

from . import expr as ex
from .expr import DomainError, Expression

Array = np.ndarray

MAX_ORDER = 2


class Fault(NamedTuple):
    """Rows that left an op's domain (bool, (m,)), and ``first``: (row, seq,
    message) of the lowest of them and there the first op, in evaluation
    order (``seq``), to leave it; the message is what that row alone raises."""

    rows: Array
    first: tuple

    def error(self) -> DomainError:
        return DomainError(self.first[2])


_SEQ = itertools.count()


def join(a: Fault | None, b: Fault | None) -> Fault | None:
    """The fault of a result computed from results with faults a and b."""
    if a is None or a is b:
        return b
    if b is None:
        return a
    return Fault(a.rows | b.rows, min(a.first, b.first))


def clean(jet: "Jet") -> "Jet":
    """``jet``, when no row of it is faulty; else raise its `DomainError`."""
    if jet.fault:
        raise jet.fault.error()
    return jet


@functools.cache
def offsets(n: int) -> tuple[int, ...]:
    """The first buffer row of each order 0..2 in n coordinates, and the end
    of the last: order k has rows ``offsets(n)[k]:offsets(n)[k + 1]``."""
    return tuple(itertools.accumulate((n**k for k in range(MAX_ORDER + 1)), initial=0))


class Jet:
    """A jet of ``degree`` at most ``order`` whose ``buf`` holds its rows up
    to the degree (`offsets`). ``fault`` is a `Fault`, or None."""

    __slots__ = ("order", "degree", "n", "buf", "fault")

    def __init__(self, order: int, degree: int, n: int, buf: Array,
                 fault: Fault | None = None):
        self.order = order
        self.degree = degree
        self.n = n
        self.buf = buf
        self.fault = fault

    # -- reads: read-only views; a known-zero order reads as zeros ----------

    @property
    def m(self) -> int:
        return self.buf.shape[-1]

    def _part(self, k: int):
        """Order k's rows, as (m, *entry axes, n, ..., n); the one place that
        reads the row layout."""
        if k > self.order:
            return None
        off = offsets(self.n)
        shape = self.buf.shape[:-2] + (self.n,) * k + (self.m,)
        if k > self.degree:
            part = np.zeros(shape)
        else:
            part = self.buf[..., off[k]:off[k + 1], :].reshape(shape)
            part.flags.writeable = False
        return part.transpose((len(shape) - 1,) + tuple(range(len(shape) - 1)))

    @property
    def value(self):
        return self._part(0)

    @property
    def grad(self):
        return self._part(1)

    @property
    def hess(self):
        return self._part(2)

    def prefix(self, order: int, rows=slice(None)) -> "Jet":
        """This jet truncated at ``order`` at the samples ``rows``, a view of
        its buffer: lower-order coefficients do not depend on the higher
        ones. The fault is this jet's."""
        degree = min(self.degree, order)
        end = offsets(self.n)[degree + 1]
        return Jet(order, degree, self.n, self.buf[..., :end, rows], self.fault)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c, m: int, n: int, order: int) -> "Jet":
        buf = np.empty((1, m))
        buf.fill(c)
        return Jet(order, 0, n, buf)

    @staticmethod
    def coordinate(index: int, pts: Array, order: int) -> "Jet":
        m, n = pts.shape
        degree = min(order, 1)
        buf = np.zeros((1 + degree * n, m))
        buf[0] = pts[:, index]
        if degree:
            buf[1 + index] = 1.0
        return Jet(order, degree, n, buf)

    # -- ring operations ----------------------------------------------------

    def __neg__(self) -> "Jet":
        return Jet(self.order, self.degree, self.n, -self.buf, self.fault)

    def __add__(self, other: "Jet") -> "Jet":
        A, B, degree = self.buf, other.buf, self.degree
        if degree == other.degree:
            buf = A + B
        elif degree > other.degree:  # b's known-zero rows add nothing
            buf = A.copy()
            head = buf[:len(B)]
            head += B
        else:
            degree = other.degree
            buf = B.copy()
            head = buf[:len(A)]
            np.add(A, head, out=head)
        return Jet(self.order, degree, self.n, buf, join(self.fault, other.fault))

    def __sub__(self, other: "Jet") -> "Jet":
        A, B, degree = self.buf, other.buf, self.degree
        if degree == other.degree:
            buf = A - B
        elif degree > other.degree:
            buf = A.copy()
            head = buf[:len(B)]
            head -= B
        else:  # a's known-zero rows less b's rows are their negation
            degree = other.degree
            buf = -B
            head = buf[:len(A)]
            np.add(A, head, out=head)
        return Jet(self.order, degree, self.n, buf, join(self.fault, other.fault))

    def __mul__(self, other: "Jet") -> "Jet":
        """The Leibniz rule. Every term of a's rows times b's value comes
        from one call; each order's other terms are then added in turn, into
        the rows of that order."""
        a, b = self, other
        A, B = a.buf, b.buf
        fault = join(a.fault, b.fault)
        if not b.degree:  # B is one row
            return Jet(a.order, a.degree, a.n, A * B, fault)
        if not a.degree:
            return Jet(a.order, b.degree, a.n, B * A, fault)
        if a.order == 1:  # both of degree 1: the rows of a, and b's gradient
            out = A * B[0]
            grad = out[1:]
            grad += B[1:] * A[0]
            return Jet(1, 1, a.n, out, fault)
        # order 2, both of degree 1 or 2: the Hessian rows are a's times
        # b's value, b's times a's value, then the two gradient outer products
        n, m = a.n, A.shape[1]
        off = offsets(n)
        av = A[0]
        out = np.empty((off[3], m))
        np.multiply(A, B[0], out=out[:len(A)])
        grad = out[1:off[2]]
        grad += B[1:off[2]] * av
        hess = out[off[2]:].reshape(n, n, m)
        fresh = a.degree < 2
        if b.degree == 2:
            bh = B[off[2]:].reshape(n, n, m)
            if fresh:
                np.multiply(bh, av, out=hess)
                fresh = False
            else:
                hess += bh * av
        # einsum's outer product comes sample axis first, over rows of
        # samples; transposed, it indexes as the buffer's rows do
        cross = np.einsum("mi,mj->mij", A[1:off[2]].T, B[1:off[2]].T).transpose(1, 2, 0)
        if fresh:
            np.add(cross, cross.transpose(1, 0, 2), out=hess)
        else:
            hess += cross
            hess += cross.transpose(1, 0, 2)
        return Jet(2, 2, n, out, fault)

    # -- univariate composition (Faa di Bruno through order 2) ---------------
    #
    # The derivative coefficients f1 and f2 are built only up to `_chain_order`:
    # an order-0 pass never reads them, nor does a constant's composition,
    # and their powers can overflow.

    @property
    def _chain_order(self) -> int:
        return self.order if self.degree else 0

    def _domain(self, bad: Array, why) -> tuple[Array, Fault | None]:
        """The value, NaN at the rows in ``bad``, and their fault, for which
        ``why(v)`` words the lowest row's value v."""
        v = self.buf[0]
        if not bad.any():
            return v, None
        row = int(bad.argmax())
        return np.where(bad, np.nan, v), Fault(bad, (row, next(_SEQ), why(v[row])))

    def compose(self, f0: Array, f1=None, f2=None, fault: Fault | None = None) -> "Jet":
        """f(self), from f's value f0 (a fresh array) and its derivatives f1
        and f2 at self's value. The Hessian rows are f2 times the gradient's
        outer product, then f1 times self's Hessian."""
        o, n = self.order, self.n
        fault = join(self.fault, fault)
        if not self.degree:
            return Jet(o, 0, n, f0[None], fault)
        A = self.buf
        m = A.shape[1]
        off = offsets(n)
        out = np.empty((off[o + 1], m))
        out[0] = f0
        grad = A[1:off[2]]
        np.multiply(grad, f1, out[1:off[2]])
        if o < 2:
            return Jet(o, o, n, out, fault)
        g = grad.T
        hess = out[off[2]:].reshape(n, n, m)
        gg = np.einsum("mi,mj->mij", g, g).transpose(1, 2, 0)
        np.multiply(gg, f2, out=hess)
        if self.degree == 2:
            hess += A[off[2]:].reshape(n, n, m) * f1
        return Jet(o, o, n, out, fault)

    def reciprocal(self) -> "Jet":
        v, fault = self._domain(self.buf[0] == 0.0, lambda _: "division by zero")
        inv = 1.0 / v
        o = self._chain_order
        return self.compose(
            inv,
            -(inv**2) if o >= 1 else None,
            2.0 * inv**3 if o >= 2 else None,
            fault,
        )

    def exp(self) -> "Jet":
        e = np.exp(self.buf[0])
        return self.compose(e, e, e)

    def log(self) -> "Jet":
        v, fault = self._domain(self.buf[0] <= 0.0,
                                lambda x: f"log of non-positive value (min {x:g})")
        o = self._chain_order
        inv = 1.0 / v if o >= 1 else None
        return self.compose(
            np.log(v),
            inv,
            -(inv**2) if o >= 2 else None,
            fault,
        )

    def sqrt(self) -> "Jet":
        v, fault = self._domain(self.buf[0] <= 0.0,
                                lambda x: f"sqrt of non-positive value (min {x:g})")
        r = np.sqrt(v)
        o = self._chain_order
        return self.compose(
            r,
            0.5 / r if o >= 1 else None,
            -0.25 / (r * v) if o >= 2 else None,
            fault,
        )

    def sin(self) -> "Jet":
        s, c = np.sin(self.buf[0]), np.cos(self.buf[0])
        return self.compose(s, c, -s)

    def cos(self) -> "Jet":
        s, c = np.sin(self.buf[0]), np.cos(self.buf[0])
        return self.compose(c, -s, -c)

    def powi(self, k: int) -> "Jet":
        """self**k by repeated squaring from the leading bit of k down: at
        most 2 floor(log2 k) products, and k = 2 and 3 are x*x and (x*x)*x."""
        if k < 0:
            return self.powi(-k).reciprocal()
        if k == 0:  # 1, NaN at the base's faulty rows
            fault = self.fault
            one = np.ones(self.m) if fault is None else np.where(fault.rows, np.nan, 1.0)
            return Jet(self.order, 0, self.n, one[None], fault)
        out = self
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def powf(self, r: float) -> "Jet":
        v, fault = self._domain(self.buf[0] <= 0.0,
                                lambda x: f"power {r:g} of non-positive base (min {x:g})")
        o = self._chain_order
        return self.compose(
            v**r,
            r * v ** (r - 1) if o >= 1 else None,
            r * (r - 1) * v ** (r - 2) if o >= 2 else None,
            fault,
        )


# ---------------------------------------------------------------------------
# Expression evaluation: one pass over a plan of distinct nodes
# ---------------------------------------------------------------------------
#
# A plan is a topologically ordered list of slots ``(op, arg, kids)``, one per
# node object of the trees handed to `_plan`. Nodes are hash-consed, so each
# structurally distinct subtree is one object and is evaluated once, however
# many trees share it. Slots come in the order a left-to-right recursive walk
# would first finish them, so a `Fault`'s first op at a row is the one that
# walk raises at on that row alone. A `Gauge` leaf's slot takes the jet its
# source computes.
#
# A division u / v is planned as u * recip(v), with one "recip" slot per
# distinct divisor, placed right after the first division by it: dense
# Levi-Civita symbols divide dozens of times by a few determinants, and each
# reciprocal jet is taken once.

_BINOPS = {"add": Jet.__add__, "sub": Jet.__sub__, "mul": Jet.__mul__}

_APPLY = {
    "neg": lambda _, u: -u,
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
    """A Pow's exponent, resolved once, as the Pow is planned: "powi"/"powf"
    for a constant, "pow" for a variable one. An exponent that does not
    resolve to a finite number (log(-1), exp(1000), inf, NaN) raises then."""
    base = node.base
    k = ex.constant_value(node.exponent)
    if k is None:
        return "pow", None, (base, node.exponent)
    if k == round(k):
        return "powi", int(round(k)), (base,)
    return "powf", k, (base,)


class Plan(NamedTuple):
    """The slots of some trees (children before parents, left to right),
    the slot of each tree, and for each slot the slot that reads its jet
    last (itself when none does): a pass drops the jet there. Built once,
    it can be run at any order on any points."""

    slots: list[tuple]
    roots: list[int]
    last: list[int]


class Feed(NamedTuple):
    """A plan to `evaluate` whose roots are handed to ``emit(positions,
    jet)`` as their slots finish, instead of being returned: ``positions``
    are the root's places in ``plan.roots`` (several when trees are the same
    node). A root no later slot reads is then not held by the pass."""

    plan: Plan
    emit: Callable[[list[int], Jet], None]


def _plan(trees) -> Plan:
    """One depth-first walk: a node is described when it is pushed and stays
    on the stack while its children, left to right, are planned; popped, it
    becomes a slot. The stack is the path from the root, so no node is on it
    twice, and a node reached again once planned is not described again."""
    trees = list(trees)  # held, so no planned node dies and frees its id
    slots: list[tuple] = []
    last: list[int] = []
    by_id: dict[int, int] = {}  # node objects already planned
    recips: dict[int, int] = {}  # divisor slot -> its reciprocal's slot
    roots: list[int] = []
    for root in trees:
        stack = [] if id(root) in by_id else [(root, _describe(root))]
        while stack:
            node, (op, arg, kids) = stack[-1]
            for kid in kids:
                if id(kid) not in by_id:
                    stack.append((kid, _describe(kid)))
                    break
            else:  # every kid planned: the node becomes a slot, s
                stack.pop()
                s = len(slots)
                if len(kids) == 2:
                    u, v = by_id[id(kids[0])], by_id[id(kids[1])]
                    if op == "div":
                        if v not in recips:
                            recips[v] = last[v] = s
                            last.append(s)
                            slots.append(("recip", None, (v,)))
                            s += 1
                        op, v = "mul", recips[v]
                    last[u] = last[v] = s
                    kids = (u, v)
                elif kids:
                    u = by_id[id(kids[0])]
                    last[u] = s
                    kids = (u,)
                last.append(s)
                by_id[id(node)] = s
                slots.append((op, arg, kids))
        roots.append(by_id[id(root)])
    return Plan(slots, roots, last)


def live_peak(plan: Plan) -> int:
    """The most jets a pass over ``plan`` holds at once (`_run`): those a
    later slot still reads, and the one just made from them."""
    last = plan.last
    live = peak = 0
    for s, (_, _, kids) in enumerate(plan.slots):
        peak = max(peak, live + 1)
        live += (last[s] != s) - sum(last[k] == s for k in set(kids))
    return peak


def _run(plan: Plan, pts: Array, order: int, emit) -> None:
    """Evaluate every slot once and emit each root as its slot finishes; a
    jet is dropped after its last consumer."""
    m, n = pts.shape
    slots, roots, last = plan
    emitted: dict[int, list[int]] = {}
    for r, s in enumerate(roots):
        emitted.setdefault(s, []).append(r)
    jets: list[Jet | None] = [None] * len(slots)
    for s, (op, arg, kids) in enumerate(slots):
        if len(kids) == 2:
            u, v = kids
            binary = _BINOPS.get(op)
            jet = (binary(jets[u], jets[v]) if binary is not None
                   else _APPLY[op](arg, jets[u], jets[v]))
            if last[u] == s:
                jets[u] = None
            if last[v] == s:
                jets[v] = None
        elif kids:
            u = kids[0]
            jet = _APPLY[op](arg, jets[u])
            if last[u] == s:
                jets[u] = None
        elif op == "num":
            jet = Jet.constant(arg, m, n, order)
        elif op == "var":
            if arg >= n:
                raise VariableDimensionError(arg, n)
            jet = Jet.coordinate(arg, pts, order)
        else:  # a gauge
            jet = arg.jet(pts, order)
        if s in emitted:
            emit(emitted[s], jet)
        if last[s] != s:
            jets[s] = jet


def check_order(order: int) -> None:
    """Raise ValueError unless 0 <= order <= `MAX_ORDER`."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 0 and {MAX_ORDER}, got {order}")


def evaluate(trees, pts: Array, order: int):
    """Evaluate an expression tree, a sequence of trees, or a `Feed`, at a
    batch of points.

    Returns a `Jet` for a single tree, a list of jets, one per tree, for a
    sequence, and None for a feed, whose jets go to its ``emit``. All trees
    share one pass: each distinct subtree is evaluated once. A field feeds
    its plan, built once, because it evaluates the same trees many times.
    A row out of an op's domain raises nothing (see the module docstring).
    """
    check_order(order)
    pts = np.asarray(pts, float)
    if pts.ndim != 2:
        raise ValueError("pts must have shape (m, n)")
    if isinstance(trees, Feed):
        _run(trees.plan, pts, order, trees.emit)
        return None
    single = isinstance(trees, Expression)
    plan = _plan([trees] if single else trees)
    out: list[Jet | None] = [None] * len(plan.roots)

    def keep(positions, jet):
        for r in positions:
            out[r] = jet

    _run(plan, pts, order, keep)
    return out[0] if single else out


class VariableDimensionError(ex.ExprError):
    def __init__(self, index: int, n: int):
        super().__init__(f"expression references x{index} but points have dimension {n}")
