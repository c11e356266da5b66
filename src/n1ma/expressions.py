"""Minimal arithmetic expression parser for config-defined fields.

Supports ``+ - * / ^`` (power is right-associative), unary minus, parentheses,
the functions sin, cos, exp, log and abs, the constants pi and e, and the
coordinate names x1..xd.  Deliberately no eval(), no attribute access, no
comparisons: configs stay data.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import ConfigError

__all__ = ["compile_expression"]

_TOKEN = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)
_BLANKS = re.compile(r"\s*")

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "abs": np.abs}
_CONSTANTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}


def _tokenize(text):
    # blanks are skipped before a token is matched, so a failed match
    # reports the offending character at its own position
    pos, out = _BLANKS.match(text).end(), []
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ConfigError(
                f"expressions: unexpected character {text[pos]!r} at position {pos}"
            )
        pos = _BLANKS.match(text, match.end()).end()
        if match.lastgroup == "num":
            out.append(("num", np.float64(match.group("num"))))
        elif match.lastgroup == "name":
            out.append(("name", match.group("name")))
        else:
            out.append(("op", match.group("op")))
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.used = set()

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ConfigError(f"expressions: expected {kind}, found {tok[1]!r}")
        if value is not None and tok[1] != value:
            raise ConfigError(f"expressions: expected {value!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ConfigError(f"expressions: trailing input from {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = (lambda a, b: (lambda env: a(env) + b(env)))(node, rhs) if op == "+" \
                else (lambda a, b: (lambda env: a(env) - b(env)))(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            rhs = self.factor()
            node = (lambda a, b: (lambda env: a(env) * b(env)))(node, rhs) if op == "*" \
                else (lambda a, b: (lambda env: a(env) / b(env)))(node, rhs)
        return node

    def factor(self):
        # unary minus binds looser than the power operator: -2^2 == -(2^2)
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.factor()
            return lambda env: -inner(env)
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            rhs = self.factor()  # right-associative, sign allowed in exponent
            return (lambda a, b: (lambda env: a(env) ** b(env)))(node, rhs)
        return node

    def atom(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return lambda env, v=value: v
        if kind == "name":
            self.take()
            if self.peek() == ("op", "("):
                fn = _FUNCTIONS.get(value)
                if fn is None:
                    raise ConfigError(f"expressions: unknown function {value!r}")
                self.take("op", "(")
                inner = self.expr()
                self.take("op", ")")
                return lambda env, f=fn: f(inner(env))
            if value in _CONSTANTS:
                return lambda env, v=_CONSTANTS[value]: v
            if value in self.variables:
                self.used.add(value)
                return lambda env, name=value: env[name]
            raise ConfigError(f"expressions: unknown name {value!r}")
        if (kind, value) == ("op", "("):
            self.take()
            inner = self.expr()
            self.take("op", ")")
            return inner
        raise ConfigError(f"expressions: unexpected token {value!r}")


def compile_expression(text, n_vars):
    """Compile an expression over x1..x{n_vars} into a vectorized callable.

    The result takes a sequence of coordinate arrays and evaluates with numpy
    broadcasting; a constant expression broadcasts to the coordinates' shape.
    Its ``variables`` attribute is the set of coordinate names the
    expression reads, empty for a constant.  Parsing and evaluation recurse
    once per operator or parenthesis level, so an expression too deep for
    the interpreter's recursion limit is a ConfigError.
    """
    parser = _Parser(_tokenize(text), {f"x{i + 1}" for i in range(n_vars)})
    try:
        node = parser.parse()
    except RecursionError:
        raise ConfigError("expressions: expression nested too deeply to parse") from None

    def evaluate(coords):
        if len(coords) != n_vars:
            raise ConfigError(
                f"expressions: expected {n_vars} coordinate arrays, got {len(coords)}"
            )
        env = {f"x{i + 1}": np.asarray(c) for i, c in enumerate(coords)}
        # numbers are numpy floats, so a fault such as 1/0 or 10^400 gives
        # inf or NaN, which the callers' finiteness checks reject
        with np.errstate(all="ignore"):
            try:
                value = node(env)
            except RecursionError:
                raise ConfigError("expressions: expression nested too deeply to evaluate") from None
        shape = np.broadcast_shapes(*(c.shape for c in env.values()))
        return np.broadcast_to(np.asarray(value, dtype=float), shape).copy()

    evaluate.variables = frozenset(parser.used)
    return evaluate
