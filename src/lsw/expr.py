"""Evaluator for a small operator-expression language.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '⊗' | 'kron') factor)*
    factor := atom '†'*
    atom   := complex-literal | name | '(' expr ')'

Complex literals are single tokens: ``a``, ``bi`` or ``a+bi`` with decimal
or exponent notation (``2``, ``0.5i``, ``1.5-2e-3i``).  ``*`` is the matrix
product, ``kron``/``⊗`` the tensor product (left factor slowest), ``†`` the
adjoint and binds tightest.  Scalars multiply operators but cannot be added
to them.  Each grammar rule computes its value while it parses: no syntax
tree is built.
"""

import re

import numpy as np

from .exceptions import DimensionMismatchError, ExprSyntaxError, UnknownSymbolError
from .operators import tensor

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"(?P<re>{_NUM})(?:(?P<im>[+-]{_NUM})i|(?P<only>i))?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_WS_RE = re.compile(r"\s+")
MAX_PAREN_DEPTH = 100  # each level recurses; deeper nesting is refused


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        ws = _WS_RE.match(text, pos)
        if ws:
            pos = ws.end()
            continue
        ch = text[pos]
        m = _COMPLEX_RE.match(text, pos)
        if m:
            real = float(m.group("re"))
            if m.group("im") is not None:
                value = complex(real, float(m.group("im")))
            elif m.group("only") is not None:
                value = complex(0.0, real)
            else:
                value = complex(real)
            tokens.append(("lit", value, pos))
            pos = m.end()
            continue
        nm = _NAME_RE.match(text, pos)
        if nm:
            word = nm.group(0)
            tokens.append(("kron" if word == "kron" else "name", word, pos))
            pos = nm.end()
            continue
        if ch in "+-*()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        if ch == "⊗":
            tokens.append(("kron", ch, pos))
            pos += 1
            continue
        if ch == "†":
            tokens.append(("dag", ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens; the first error in reading order
    is the one reported."""

    def __init__(self, text, symbols):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0
        self.symbols = symbols

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expr(self):
        lhs = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            rhs = self.term()
            lscalar, rscalar = np.isscalar(lhs), np.isscalar(rhs)
            if lscalar != rscalar:
                raise DimensionMismatchError(
                    f"cannot add a scalar and an operator (position {pos})"
                )
            if not lscalar and lhs.shape != rhs.shape:
                raise DimensionMismatchError(
                    f"sum of operators with dimensions {lhs.shape[0]} and "
                    f"{rhs.shape[0]} (position {pos})"
                )
            lhs = lhs + rhs if op == "+" else lhs - rhs
        return lhs

    def term(self):
        lhs = self.factor()
        while self.peek()[0] in ("*", "kron"):
            op, _, pos = self.advance()
            rhs = self.factor()
            if np.isscalar(lhs) or np.isscalar(rhs):
                lhs = lhs * rhs
            elif op == "kron":
                lhs = tensor(lhs, rhs)
            elif lhs.shape[1] != rhs.shape[0]:
                raise DimensionMismatchError(
                    f"product of operators with dimensions {lhs.shape[0]} and "
                    f"{rhs.shape[0]} (position {pos})"
                )
            else:
                lhs = lhs @ rhs
        return lhs

    def factor(self):
        value = self.atom()
        while self.peek()[0] == "dag":
            self.advance()
            value = np.conj(value) if np.isscalar(value) else value.conj().T
        return value

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "lit":
            return value
        if kind == "name":
            if value not in self.symbols:
                raise UnknownSymbolError(value, pos)
            return np.asarray(self.symbols[value], dtype=complex)
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_PAREN_DEPTH:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", pos)
            value = self.expr()
            self.depth -= 1
            kind, text, pos = self.advance()
            if kind != ")":
                raise ExprSyntaxError(f"expected ')', found {text!r}", pos)
            return value
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)


def parse_value(text, symbols):
    """Evaluate an expression to a complex scalar or an operator matrix."""
    parser = _Parser(text, symbols)
    value = parser.expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return value


def parse_operator_expr(text, symbols):
    """Evaluate an expression that must be an operator, not a bare scalar.

    ``symbols`` is any mapping from names to matrices; a name is looked up
    (``in``, then ``[]``) only when the parser reaches it.
    """
    value = parse_value(text, symbols)
    if np.isscalar(value):
        raise DimensionMismatchError("expression evaluates to a scalar, not an operator")
    return value
