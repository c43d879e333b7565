"""Expression language for scalar fields on chart coordinates.

Grammar (EBNF):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' factor)?
    base   := number | ident | ident '(' args ')' | '(' expr ')' | '-' base

Variables are written ``x0, x1, ...`` with the index bounded by the chart
dimension; the name ``s`` is an alias for the last coordinate (the radial
coordinate on cone charts).  Known functions: ``exp``, ``log``, ``sqrt``,
``sin``, ``cos`` with one argument, and ``pow`` with two arguments
(``pow(e, k)`` parses to the same tree as ``e^k``).  ``^`` is
right-associative.

Trees are evaluated exactly as parsed; there is no simplification pass.
The programmatic constructors (`add`, `mul`, ...) do fold constants and
drop obvious identities, which keeps machine-generated trees (symbolic
derivatives, adjugates) from ballooning, but a tree that came out of the
parser is never rewritten.

Nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): every constructor returns the one live node of that
structure, so equal subtrees built anywhere are the same object, and trees
form a DAG with one object per distinct subtree. Symbolic derivatives are
memoized on the node they were taken of.
"""

from __future__ import annotations

import re
import struct
import weakref
from operator import attrgetter


class ExprError(ValueError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ExprError):
    pass


class VariableRangeError(ExprError):
    pass


class DomainError(ExprError):
    """Evaluation left the domain (log/sqrt of a non-positive value, zero divisor)."""


# ---------------------------------------------------------------------------
# Immutable values
# ---------------------------------------------------------------------------

class Value:
    """Base of every record type in the package: the expression nodes below,
    `geomcore.Chart` and the other values, the structures (`lch.MappingTorus`
    among them) and `scenes.Scene` and `scenes.Report`. A subclass names its
    fields once, as ``__slots__ = __match_args__ = (...)``, and its
    ``__init__`` checks them and sets them with `_set`. From that tuple it
    gets ``==`` (same class, equal field tuples), a hash of the field tuple
    (a TypeError when a field holds a dict or a list), the
    ``Name(field=value, ...)`` repr, and copies and pickles that call the
    constructor with the fields. Assigning or deleting an attribute raises
    AttributeError.

    These are the methods ``@dataclass(frozen=True)`` would generate; written
    once here, they cost no import of ``dataclasses`` and no ``exec`` of
    generated source, which every CLI call would pay."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__match_args__
        if len(fields) == 1:
            one = attrgetter(fields[0])
            cls._values = staticmethod(lambda obj: (one(obj),))
        elif fields:
            cls._values = staticmethod(attrgetter(*fields))

    def _set(self, *values):
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):  # through the constructor: copied nodes are interned too
        return type(self), self._values(self)


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

# Intern table: key -> weak reference to the one live node with that key. A
# key holds a node's children by id; a child's id cannot be reused while the
# node keyed on it lives, and a node's entry is dropped when it dies.
_INTERNED: dict[tuple, weakref.KeyedRef] = {}
_float_bits = struct.Struct("<d").pack


def _forget(ref, table=_INTERNED):
    if table.get(ref.key) is ref:
        del table[ref.key]


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    fields = cls.__match_args__
    args += tuple(kwargs.pop(f) for f in fields[len(args):] if f in kwargs)
    if len(args) != len(fields) or kwargs:
        raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}")
    return args


class Expression(Value):
    """Base class of all expression-tree nodes: `Value` types whose
    constructor is ``__new__``, so a node has no ``__init__`` of its own.

    Nodes are hash-consed: constructing a node whose class, payload and
    children (by identity) match a live node returns that node, so a
    structurally distinct subtree exists once however it was built. A
    ``Num`` is keyed on its float's bit pattern. ``==`` and ``hash`` stay
    structural: ``Num(0.0) == Num(-0.0)``, although the two are distinct
    nodes.
    """

    __slots__ = ("__weakref__", "_diffs")  # _diffs: index -> derivative, see `diff`

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__match_args__):
            args = _bind(cls, args, kwargs)
        a = args[0]
        if len(args) == 2:  # a binary node, or a Call keyed on its function name
            key = (cls, a if cls is Call else id(a), id(args[1]))
        elif cls is Num:
            a = float(a)
            args = (a,)
            key = (cls, _float_bits(a))
        elif cls is Var:
            key = (cls, a)
        else:  # Neg, or a Gauge: the node holds its source, so the id stays its own
            key = (cls, id(a))
        ref = _INTERNED.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            for name, arg in zip(cls.__match_args__, args):
                object.__setattr__(node, name, arg)
            object.__setattr__(node, "_diffs", None)
            _INTERNED[key] = weakref.KeyedRef(node, _forget, key)
        return node


class Num(Expression):
    __slots__ = __match_args__ = ("value",)  # float


class Var(Expression):
    __slots__ = __match_args__ = ("index",)  # int


class Neg(Expression):
    __slots__ = __match_args__ = ("arg",)


class Add(Expression):
    __slots__ = __match_args__ = ("left", "right")


class Sub(Expression):
    __slots__ = __match_args__ = ("left", "right")


class Mul(Expression):
    __slots__ = __match_args__ = ("left", "right")


class Div(Expression):
    __slots__ = __match_args__ = ("left", "right")


class Pow(Expression):
    __slots__ = __match_args__ = ("base", "exponent")


class Call(Expression):
    __slots__ = __match_args__ = ("func", "arg")  # func: str, one of UNARY_FUNCTIONS


class Gauge(Expression):
    """A leaf whose jet comes from ``source.jet(pts, order)``, such as a
    line-integral gauge. Keyed on the identity of ``source``. It has no
    symbolic form: `diff`, `substitute` and `to_source` reject it."""

    __slots__ = __match_args__ = ("source",)


UNARY_FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos")

ZERO = Num(0.0)
ONE = Num(1.0)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {src[at]!r}", at)
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, dim: int):
        self.src = src
        self.dim = dim
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {text or 'end of input'!r}", pos)
        return self.advance()

    def parse(self) -> Expression:
        tree = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {text!r}", pos)
        return tree

    def expr(self) -> Expression:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expression:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Expression:
        node = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Pow(node, self.factor())
        return node

    def base(self) -> Expression:
        kind, text, pos = self.advance()
        if kind == "number":
            return Num(float(text))
        if kind == "op" and text == "-":
            return Neg(self.base())
        if kind == "op" and text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "ident":
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                return self.call(text, pos)
            return self.variable(text, pos)
        raise ExprSyntaxError(f"unexpected token {text or 'end of input'!r}", pos)

    def call(self, name: str, pos: int) -> Expression:
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == ",":
                self.advance()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        if name in UNARY_FUNCTIONS:
            if len(args) != 1:
                raise ExprSyntaxError(f"{name} takes one argument, got {len(args)}", pos)
            return Call(name, args[0])
        if name == "pow":
            if len(args) != 2:
                raise ExprSyntaxError(f"pow takes two arguments, got {len(args)}", pos)
            return Pow(args[0], args[1])
        raise UnknownIdentifierError(f"unknown function {name!r} (at position {pos})")

    def variable(self, name: str, pos: int) -> Expression:
        if name == "s":
            if self.dim < 1:
                raise VariableRangeError(f"variable 's' needs dimension >= 1 (at position {pos})")
            return Var(self.dim - 1)
        m = re.fullmatch(r"x(\d+)", name)
        if m is None:
            raise UnknownIdentifierError(f"unknown identifier {name!r} (at position {pos})")
        index = int(m.group(1))
        if index >= self.dim:
            raise VariableRangeError(
                f"variable x{index} out of range for dimension {self.dim} (at position {pos})"
            )
        return Var(index)


# (text, dim) -> the tree it parses to, for as long as that tree lives.
_PARSED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def parse_expression(src: str, dim: int) -> Expression:
    """Parse ``src`` into an expression tree over at most ``dim`` coordinates.

    A text is parsed once per dimension while its tree lives: nodes are
    hash-consed, so a second parse would build the very same object. The
    entries of a symmetric metric repeat (g_ij = g_ji), and each repeat is a
    lookup. Nothing outlives its tree, so no scene keeps another's alive."""
    if dim < 0:
        raise ValueError("dim must be non-negative")
    key = (src, dim)
    tree = _PARSED.get(key)
    if tree is None:
        tree = _PARSED[key] = _Parser(src, dim).parse()
    return tree


# ---------------------------------------------------------------------------
# Printing, inspection
# ---------------------------------------------------------------------------

def format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def to_source(expr: Expression) -> str:
    """Pretty-print fully parenthesized; re-parsing yields a structurally equal tree."""
    if isinstance(expr, Num):
        return format_number(expr.value)
    if isinstance(expr, Var):
        return f"x{expr.index}"
    if isinstance(expr, Neg):
        return f"(-{to_source(expr.arg)})"
    if isinstance(expr, Add):
        return f"({to_source(expr.left)} + {to_source(expr.right)})"
    if isinstance(expr, Sub):
        return f"({to_source(expr.left)} - {to_source(expr.right)})"
    if isinstance(expr, Mul):
        return f"({to_source(expr.left)} * {to_source(expr.right)})"
    if isinstance(expr, Div):
        return f"({to_source(expr.left)} / {to_source(expr.right)})"
    if isinstance(expr, Pow):
        return f"({to_source(expr.base)}^{to_source(expr.exponent)})"
    if isinstance(expr, Call):
        return f"{expr.func}({to_source(expr.arg)})"
    raise TypeError(f"not an expression node: {expr!r}")


def variables(expr: Expression) -> frozenset[int]:
    if isinstance(expr, Num):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.index,))
    if isinstance(expr, Neg):
        return variables(expr.arg)
    if isinstance(expr, (Add, Sub, Mul, Div)):
        return variables(expr.left) | variables(expr.right)
    if isinstance(expr, Pow):
        return variables(expr.base) | variables(expr.exponent)
    if isinstance(expr, Call):
        return variables(expr.arg)
    raise TypeError(f"not an expression node: {expr!r}")


def constant_value(expr: Expression) -> float | None:
    """Value of a variable-free subtree, or None if it references coordinates.
    A tree other than a ``Num`` is an order-0 jet at one point of no
    coordinates, where overflow and invalid operations raise
    `FloatingPointError`: exp(1000) is an error, not inf, and log(-1) a
    `DomainError`. numpy and `jets` (which imports this module) load here:
    this module needs only the standard library."""
    if isinstance(expr, Num):
        return expr.value
    if variables(expr):
        return None
    import numpy as np
    from .jets import clean, evaluate
    with np.errstate(over="raise", invalid="raise"):
        return float(clean(evaluate(expr, np.empty((1, 0)), 0)).value[0])


# ---------------------------------------------------------------------------
# Smart constructors (used by symbolic differentiation & matrix algebra)
# ---------------------------------------------------------------------------

def const(v: float) -> Expression:
    """Numeric literal; negative values are wrapped as Neg so literals stay non-negative."""
    v = float(v)
    if v < 0:
        return Neg(Num(-v))
    return Num(v)


def _is_zero(e: Expression) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e: Expression) -> bool:
    return isinstance(e, Num) and e.value == 1.0


def neg(a: Expression) -> Expression:
    if _is_zero(a):
        return ZERO
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def add(a: Expression, b: Expression) -> Expression:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return const(a.value + b.value)
    return Add(a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return const(a.value - b.value)
    return Sub(a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if _is_zero(a) or _is_zero(b):
        return ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return const(a.value * b.value)
    return Mul(a, b)


def div(a: Expression, b: Expression) -> Expression:
    if _is_zero(a):
        return ZERO
    if _is_one(b):
        return a
    return Div(a, b)


def powi(a: Expression, k: float) -> Expression:
    if k == 0:
        return ONE
    if k == 1:
        return a
    return Pow(a, const(k))


def call(func: str, arg: Expression) -> Expression:
    if func not in UNARY_FUNCTIONS:
        raise UnknownIdentifierError(f"unknown function {func!r}")
    return Call(func, arg)


def sum_of(terms) -> Expression:
    total: Expression = ZERO
    for t in terms:
        total = add(total, t)
    return total


# ---------------------------------------------------------------------------
# Symbolic differentiation & substitution
# ---------------------------------------------------------------------------

def diff(expr: Expression, index: int) -> Expression:
    """Partial derivative with respect to coordinate ``index``, built once
    per (node, index) and kept on the node for as long as it lives."""
    memo = getattr(expr, "_diffs", None)
    if memo is None:
        if not isinstance(expr, Expression):
            raise TypeError(f"not an expression node: {expr!r}")
        memo = {}
        object.__setattr__(expr, "_diffs", memo)
    out = memo.get(index)
    if out is None:
        out = memo[index] = _diff(expr, index)
    return out


def _diff(expr: Expression, index: int) -> Expression:
    if isinstance(expr, Num):
        return ZERO
    if isinstance(expr, Var):
        return ONE if expr.index == index else ZERO
    if isinstance(expr, Neg):
        return neg(diff(expr.arg, index))
    if isinstance(expr, Add):
        return add(diff(expr.left, index), diff(expr.right, index))
    if isinstance(expr, Sub):
        return sub(diff(expr.left, index), diff(expr.right, index))
    if isinstance(expr, Mul):
        return add(
            mul(diff(expr.left, index), expr.right),
            mul(expr.left, diff(expr.right, index)),
        )
    if isinstance(expr, Div):
        num = sub(
            mul(diff(expr.left, index), expr.right),
            mul(expr.left, diff(expr.right, index)),
        )
        return div(num, mul(expr.right, expr.right))
    if isinstance(expr, Pow):
        base, exponent = expr.base, expr.exponent
        k = constant_value(exponent)
        db = diff(base, index)
        if k is not None:
            if k == 0:
                return ZERO
            # d(b^k) = k * b^(k-1) * b'
            return mul(mul(const(k), powi(base, k - 1)), db)
        # general exponent: b^e = exp(e log b)
        de = diff(exponent, index)
        term = add(mul(de, call("log", base)), mul(exponent, div(db, base)))
        return mul(expr, term)
    if isinstance(expr, Call):
        u = expr.arg
        du = diff(u, index)
        if expr.func == "exp":
            return mul(expr, du)
        if expr.func == "log":
            return div(du, u)
        if expr.func == "sqrt":
            return div(du, mul(const(2.0), expr))
        if expr.func == "sin":
            return mul(call("cos", u), du)
        if expr.func == "cos":
            return neg(mul(call("sin", u), du))
    raise TypeError(f"{type(expr).__name__} has no symbolic derivative: {expr!r}")


def substitute(expr: Expression, mapping: dict[int, Expression]) -> Expression:
    """Replace Var(i) by mapping[i] wherever the index is mapped."""
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.index, expr)
    if isinstance(expr, Neg):
        return neg(substitute(expr.arg, mapping))
    if isinstance(expr, Add):
        return add(substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Sub):
        return sub(substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Mul):
        return mul(substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Div):
        return div(substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Pow):
        return Pow(substitute(expr.base, mapping), substitute(expr.exponent, mapping))
    if isinstance(expr, Call):
        return Call(expr.func, substitute(expr.arg, mapping))
    raise TypeError(f"not an expression node: {expr!r}")
