"""A small arithmetic expression language for potentials and profiles.

Grammar (standard precedence, tightest first):

    power   :  atom ('^' unary)?          # right-associative
    unary   :  '-' unary | power
    term    :  unary (('*' | '/') unary)*
    sum     :  term (('+' | '-') term)*

Atoms are numeric literals, the variable ``x``, calls to abs/log/exp/sqrt
(one argument) or pow (two arguments), and parenthesized expressions.
Parsing and printing round-trip: ``parse_potential(e.to_text())`` rebuilds
an equal tree.  Evaluation is vectorized over numpy arrays and raises
ExprDomainError when log or sqrt leaves its domain, so potentials are total
on their declared support or fail loudly.

Literals evaluate to Python floats that numpy broadcasts, so ``x^4`` calls
pow with a scalar exponent.  ``a^b`` and ``pow(a, b)`` compute pow(|a|, b)
and negate it where a has its sign bit and b is an odd integer: the value of
pow(a, b), without pow's slow path on negative bases.  A negative base with
a non-integer exponent is an ExprDomainError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

__all__ = [
    "ExprError",
    "ExprDomainError",
    "PotentialExpr",
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "parse_potential",
]


class ExprError(ValueError):
    """Syntax or name error, carrying the byte offset of the failure."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at byte {pos})")
        self.pos = pos


class ExprDomainError(ValueError):
    """Evaluation left a function's domain (log/sqrt of a negative)."""


_FUNCS = {"abs": 1, "log": 1, "exp": 1, "sqrt": 1, "pow": 2}

# print levels: looser binds lower
_LEVEL_SUM, _LEVEL_TERM, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


@dataclass(frozen=True)
class Num:
    value: float

    def _print(self, out):
        out.append("%.17g" % self.value)

    def _level(self):
        return _LEVEL_ATOM

    def _eval(self, x):
        return self.value  # numpy broadcasts it; an array exponent would slow pow


@dataclass(frozen=True)
class Var:
    def _print(self, out):
        out.append("x")

    def _level(self):
        return _LEVEL_ATOM

    def _eval(self, x):
        return x


@dataclass(frozen=True)
class Neg:
    operand: "Node"

    def _print(self, out):
        out.append("-")
        _emit(self.operand, out, _LEVEL_UNARY)

    def _level(self):
        return _LEVEL_UNARY

    def _eval(self, x):
        return -self.operand._eval(x)


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"

    def _print(self, out):
        if self.op == "^":
            _emit(self.left, out, _LEVEL_ATOM)
            out.append("^")
            _emit(self.right, out, _LEVEL_POW)
            return
        level = _LEVEL_SUM if self.op in "+-" else _LEVEL_TERM
        _emit(self.left, out, level)
        out.append(self.op)
        _emit(self.right, out, level + 1)

    def _level(self):
        return _LEVEL_POW if self.op == "^" else (_LEVEL_SUM if self.op in "+-" else _LEVEL_TERM)

    def _eval(self, x):
        a = self.left._eval(x)
        b = self.right._eval(x)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if np.any(b == 0.0):
                raise ExprDomainError("division by zero")
            return a / b
        return _power(a, b)


@dataclass(frozen=True)
class Call:
    fn: str
    args: Tuple["Node", ...]

    def _print(self, out):
        out.append(self.fn)
        out.append("(")
        for i, a in enumerate(self.args):
            if i:
                out.append(",")
            a._print(out)
        out.append(")")

    def _level(self):
        return _LEVEL_ATOM

    def _eval(self, x):
        vals = [a._eval(x) for a in self.args]
        if self.fn == "abs":
            return np.abs(vals[0])
        if self.fn == "exp":
            with np.errstate(over="ignore"):
                return np.exp(vals[0])
        if self.fn == "log":
            if np.any(vals[0] <= 0.0):
                raise ExprDomainError("log of a nonpositive value")
            return np.log(vals[0])
        if self.fn == "sqrt":
            if np.any(vals[0] < 0.0):
                raise ExprDomainError("sqrt of a negative value")
            return np.sqrt(vals[0])
        return _power(vals[0], vals[1])


Node = Union[Num, Var, Neg, Bin, Call]


def _power(a, b):
    """a^b as pow(|a|, b), negated where a has its sign bit and b is an odd
    integer: pow's value and sign rules (-0.0 bases included, +-inf exponents
    counting as even) without pow's slow path on negative bases."""
    frac = b != np.floor(b)
    if np.any(frac) and np.any((a < 0.0) & frac):
        raise ExprDomainError("negative base with a non-integer exponent")
    with np.errstate(over="ignore"):
        out = np.power(np.abs(a), b)
    with np.errstate(invalid="ignore"):
        odd = np.abs(np.fmod(b, 2.0)) == 1.0
    if np.any(odd):
        out = np.where(odd & np.signbit(a), -out, out)
    return out


def _emit(node, out, min_level):
    if node._level() < min_level:
        out.append("(")
        node._print(out)
        out.append(")")
    else:
        node._print(out)


@dataclass(frozen=True)
class PotentialExpr:
    """Parsed expression with evaluation over arrays and canonical printing."""

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

    def to_text(self):
        out = []
        self.root._print(out)
        return "".join(out)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ExprError(message, self.pos)

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
                node = Bin(ch, node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_unary()
        while True:
            ch = self.peek()
            if ch and ch in "*/":
                self.pos += 1
                node = Bin(ch, node, self.parse_unary())
            else:
                return node

    def parse_unary(self):
        if self.take("-"):
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            return Bin("^", node, self.parse_unary())
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
        if name in _FUNCS:
            if not self.take("("):
                self.error(f"{name} needs parenthesized arguments")
            args = [self.parse_sum()]
            while self.take(","):
                args.append(self.parse_sum())
            if not self.take(")"):
                self.error("expected ')'")
            if len(args) != _FUNCS[name]:
                self.pos = start
                self.error(f"{name} takes {_FUNCS[name]} argument(s), got {len(args)}")
            return Call(name, tuple(args))
        self.pos = start
        self.error(f"unknown identifier {name!r}")


def parse_potential(text: str) -> PotentialExpr:
    """Parse an expression in the variable x; errors carry byte offsets."""
    if not isinstance(text, str) or not text.strip():
        raise ExprError("empty expression", 0)
    root = _Parser(text).parse()
    return PotentialExpr(root=root, text=text)
