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
# one token after optional whitespace; ``bad`` is any other character
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<lit>(?P<re>{_NUM})(?:(?P<im>[+-]{_NUM})i|(?P<only>i))?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*()⊗†])|(?P<end>\Z)|(?P<bad>.))"
)
_OP_KINDS = {"⊗": "kron", "†": "dag"}
MAX_PAREN_DEPTH = 100  # each level recurses; deeper nesting is refused


class _Parser:
    """Recursive descent that reads each token from the text only when it
    looks at it, so the first error in reading order is the one reported."""

    def __init__(self, text, symbols):
        self.text, self.pos, self.next = text, 0, None
        self.depth = 0
        self.symbols = symbols

    def peek(self):
        """The next token (kind, value, position), read but not consumed."""
        if self.next is None:
            m = _TOKEN_RE.match(self.text, self.pos)
            self.pos, kind = m.end(), m.lastgroup
            value, pos = m[kind], m.start(kind)
            if kind == "bad":
                raise ExprSyntaxError(f"unexpected character {value!r}", pos)
            if kind == "lit":
                real = float(m["re"])
                value = complex(0.0, real) if m["only"] else complex(real, float(m["im"] or 0))
            elif kind == "op" or value == "kron":
                kind = _OP_KINDS.get(value, value)
            self.next = kind, value, pos
        return self.next

    def advance(self):
        tok, self.next = self.peek(), None
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
