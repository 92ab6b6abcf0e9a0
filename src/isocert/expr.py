"""A small arithmetic expression language for potentials and profiles.

Grammar (standard precedence, tightest first):

    power   :  atom ('^' unary)?          # right-associative
    unary   :  '-' unary | power
    term    :  unary (('*' | '/') unary)*
    sum     :  term (('+' | '-') term)*

Atoms are numeric literals, the variable ``x``, calls to abs/log/exp/sqrt
(one argument) or pow (two arguments), and parenthesized expressions.
The tree has three node kinds: a literal (Num), the variable (Var), and an
operator or function applied to its operands (Op), which evaluates as
``_OPS[fn](*operands)`` from one table.  There is no printer: a parsed
expression keeps the text it was given, and that text is its name.
Evaluation is vectorized over numpy arrays and raises ExprDomainError when
division, log or sqrt leaves its domain, so potentials are total on their
declared support or fail loudly.

Literals evaluate to Python floats that numpy broadcasts, so ``x^4`` calls
pow with a scalar exponent, and a literal exponent or divisor is checked
once, as a Python float, not as an array.  ``a^b`` and ``pow(a, b)``
compute pow(|a|, b) and negate it where a has its sign bit and b is an odd
integer: the value of pow(a, b), without pow's slow path on negative bases.
A negative base with a non-integer exponent is an ExprDomainError.

Parsing, evaluation and hashing recurse over the tree, so nesting deeper than
_MAX_DEPTH levels (while parsing, or on one path of the tree) is an ExprError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np

__all__ = [
    "ExprError",
    "ExprDomainError",
    "PotentialExpr",
    "Num",
    "Var",
    "Op",
    "parse_potential",
]


class ExprError(ValueError):
    """Syntax or name error, carrying the byte offset of the failure."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at byte {pos})")
        self.pos = pos


class ExprDomainError(ValueError):
    """Evaluation left an operation's domain (division by zero, log or sqrt
    outside its domain, a negative base with a non-integer exponent)."""


_ARITY = {"abs": 1, "log": 1, "exp": 1, "sqrt": 1, "pow": 2}
_MAX_DEPTH = 100


@dataclass(frozen=True)
class Num:
    value: float

    def _eval(self, x):
        return self.value  # numpy broadcasts it; an array exponent would slow pow


@dataclass(frozen=True)
class Var:
    def _eval(self, x):
        return x


@dataclass(frozen=True)
class Op:
    """An operator or function applied to its operands: `neg`, `+ - * / ^`,
    or a name of _ARITY."""

    fn: str
    args: Tuple["Node", ...]
    depth: int = field(init=False, repr=False, compare=False)  # operations on the longest path down

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + max(getattr(a, "depth", 0) for a in self.args))

    def _eval(self, x):
        return _OPS[self.fn](*[a._eval(x) for a in self.args])


Node = Union[Num, Var, Op]


def _power(a, b):
    """a^b as pow(|a|, b), negated where a has its sign bit and b is an odd
    integer: pow's value and sign rules (-0.0 bases included, +-inf exponents
    counting as even) without pow's slow path on negative bases.  A float
    exponent (a literal) is classified once, as a scalar."""
    if isinstance(b, float):
        frac = not (b.is_integer() or math.isinf(b))  # NaN counts as non-integer
        odd = math.isfinite(b) and abs(math.fmod(b, 2.0)) == 1.0
        any_frac, any_odd = frac, odd
    else:
        frac = b != np.floor(b)
        with np.errstate(invalid="ignore"):
            odd = np.abs(np.fmod(b, 2.0)) == 1.0
        any_frac, any_odd = np.any(frac), np.any(odd)
    if any_frac and np.any((a < 0.0) & frac):
        raise ExprDomainError("negative base with a non-integer exponent")
    with np.errstate(over="ignore"):
        out = np.power(np.abs(a), b)
    if any_odd:
        out = np.where(odd & np.signbit(a), -out, out)
    return out


def _divide(a, b):
    zero = b == 0.0 if isinstance(b, float) else np.any(b == 0.0)
    if zero:
        raise ExprDomainError("division by zero")
    return a / b


def _log(a):
    if np.any(a <= 0.0):
        raise ExprDomainError("log of a nonpositive value")
    return np.log(a)


def _sqrt(a):
    if np.any(a < 0.0):
        raise ExprDomainError("sqrt of a negative value")
    return np.sqrt(a)


def _exp(a):
    with np.errstate(over="ignore"):
        return np.exp(a)


_OPS = {
    "neg": operator.neg, "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _power,
    "abs": np.abs, "log": _log, "exp": _exp, "sqrt": _sqrt, "pow": _power,
}


@dataclass(frozen=True)
class PotentialExpr:
    """Parsed expression, evaluated over arrays; text is the expression as given."""

    root: Node
    text: str

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.asarray(self.root._eval(arr), dtype=float)
        if out.shape != arr.shape:  # a constant expression evaluates to a scalar
            out = np.full(arr.shape, out)
        return float(out[0]) if scalar else out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.level = 0  # nested parse_unary calls

    def error(self, message):
        raise ExprError(message, self.pos)

    def check_depth(self, depth):
        if depth > _MAX_DEPTH:
            self.error(f"expression nested deeper than {_MAX_DEPTH} levels")

    def op(self, fn, *args):
        node = Op(fn, args)
        self.check_depth(node.depth)
        return node

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self):
        node = self.parse_sum()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected trailing input {self.text[self.pos:]!r}")
        return node

    def parse_sum(self):
        node = self.parse_term()
        while True:
            ch = self.peek()
            if ch and ch in "+-":
                self.pos += 1
                node = self.op(ch, node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_unary()
        while True:
            ch = self.peek()
            if ch and ch in "*/":
                self.pos += 1
                node = self.op(ch, node, self.parse_unary())
            else:
                return node

    def parse_unary(self):
        self.level += 1
        self.check_depth(self.level)
        node = self.op("neg", self.parse_unary()) if self.take("-") else self.parse_power()
        self.level -= 1
        return node

    def parse_power(self):
        node = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            return self.op("^", node, self.parse_unary())
        return node

    def parse_atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.parse_sum()
            if not self.take(")"):
                self.error("expected ')'")
            return node
        if ch.isdigit() or ch == ".":
            return self.parse_number()
        if ch.isalpha() or ch == "_":
            return self.parse_name()
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")

    def parse_number(self):
        start = self.pos
        text = self.text
        n = len(text)
        while self.pos < n and (text[self.pos].isdigit() or text[self.pos] == "."):
            self.pos += 1
        if self.pos < n and text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and text[self.pos].isdigit():
                while self.pos < n and text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # the e/E belongs to something else
        lit = text[start : self.pos]
        try:
            return Num(float(lit))
        except ValueError:
            self.pos = start
            self.error(f"bad numeric literal {lit!r}")

    def parse_name(self):
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        name = text[start : self.pos]
        if name == "x":
            return Var()
        if name in _ARITY:
            if not self.take("("):
                self.error(f"{name} needs parenthesized arguments")
            args = [self.parse_sum()]
            while self.take(","):
                args.append(self.parse_sum())
            if not self.take(")"):
                self.error("expected ')'")
            if len(args) != _ARITY[name]:
                self.pos = start
                self.error(f"{name} takes {_ARITY[name]} argument(s), got {len(args)}")
            return self.op(name, *args)
        self.pos = start
        self.error(f"unknown identifier {name!r}")


def parse_potential(text: str) -> PotentialExpr:
    """Parse an expression in the variable x; errors carry byte offsets."""
    if not isinstance(text, str) or not text.strip():
        raise ExprError("empty expression", 0)
    root = _Parser(text).parse()
    return PotentialExpr(root=root, text=text)
