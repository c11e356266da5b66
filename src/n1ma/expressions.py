"""Minimal arithmetic expression reader for config-defined fields.

The grammar is ``+ - * / ^`` (power is right-associative and binds tighter
than unary minus, so ``-2^2`` is -4 and ``2^-1`` is 0.5), unary minus,
parentheses, decimal numbers (``7``, ``0.5``, ``.5``, ``1.5e-3``), the
one-argument functions sin, cos, exp, log and abs, the constants pi and e,
and the coordinate names x1..xd.  The text is ASCII: digits 0-9, letters,
``_``, ``.``, the operators, parentheses and ASCII whitespace; any other
character is rejected with its position.

Python's own parser reads the text, with ``^`` read as ``**``, since its
arithmetic has the same precedence and associativity; only the syntax
tree nodes of the grammar are accepted, and each becomes a closure over
numpy floats.  Deliberately no eval(), no attribute access, no
comparisons: configs stay data.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import warnings

import numpy as np

from .errors import ConfigError

__all__ = ["compile_expression"]

_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_BAD_CHARACTER = re.compile(r"[^0-9A-Za-z_.+\-*/^() \t\n\r\f\v]")
# an integer (not the exponent of 1e+5) is read as a float literal, 7 as 7.,
# since Python refuses leading zeros (007) and integers of over 4300 digits
_INTEGER = re.compile(r"(?<![\w.])(?<![0-9.][eE][+-])[0-9]+(?![\w.])")

_OPERATORS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "abs": np.abs}
_CONSTANTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}


def _parse(text):
    """``(source, tree)``: the text as Python reads it, and its syntax tree."""
    bad = _BAD_CHARACTER.search(text)
    if bad:
        raise ConfigError(f"expressions: unexpected character {bad.group()!r} at position {bad.start()}")
    if "**" in text:
        raise ConfigError("expressions: unexpected '**' (the power operator is '^')")
    # one line without leading blanks, so continuation lines parse
    source = _INTEGER.sub(r"\g<0>.", " ".join(text.split())).replace("^", "**")
    try:
        with warnings.catch_warnings():
            # Python warns of text such as "1if", which is then an error
            warnings.simplefilter("error", SyntaxWarning)
            return source, ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        if exc.msg == "too many nested parentheses":
            raise ConfigError("expressions: expression nested too deeply to parse") from None
        raise ConfigError(f"expressions: cannot parse ({exc.msg})") from None


def _closure(node, source, variables, used):
    """The callable ``env -> value`` of one accepted node; ``used`` collects
    the coordinate names it reads."""
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        op = _OPERATORS[type(node.op)]
        a, b = (_closure(side, source, variables, used) for side in (node.left, node.right))
        return lambda env: op(a(env), b(env))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _closure(node.operand, source, variables, used)
        return lambda env: -inner(env)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        fn = _FUNCTIONS.get(node.func.id)
        if fn is None:
            raise ConfigError(f"expressions: unknown function {node.func.id!r}")
        if len(node.args) == 1 and not node.keywords:
            inner = _closure(node.args[0], source, variables, used)
            return lambda env: fn(inner(env))
    if isinstance(node, ast.Name):
        if node.id in _CONSTANTS:
            return lambda env, v=_CONSTANTS[node.id]: v
        if node.id in variables:
            used.add(node.id)
            return lambda env, name=node.id: env[name]
        raise ConfigError(f"expressions: unknown name {node.id!r}")
    segment = source[node.col_offset:node.end_col_offset]  # one ASCII line
    # True, 1j, 0x1f and 1_0 are Python constants, not decimal numbers
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment):
        return lambda env, v=np.float64(segment): v
    raise ConfigError(f"expressions: unexpected {segment!r}")


def compile_expression(text, n_vars):
    """Compile an expression over x1..x{n_vars} into a vectorized callable.

    The result takes a sequence of coordinate arrays and evaluates with numpy
    broadcasting; a constant expression broadcasts to the coordinates' shape.
    Its ``variables`` attribute is the set of coordinate names the
    expression reads, empty for a constant.  Reading and evaluation recurse
    once per operator or parenthesis level, so an expression too deep for
    the parser or the interpreter's recursion limit is a ConfigError.
    """
    used = set()
    try:
        source, tree = _parse(text)
        node = _closure(tree, source, {f"x{i + 1}" for i in range(n_vars)}, used)
    except (RecursionError, MemoryError):
        # Python's parser gives either past about 3000 levels
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

    evaluate.variables = frozenset(used)
    return evaluate
