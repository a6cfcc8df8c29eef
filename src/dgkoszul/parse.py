"""Recursive-descent parser for polynomial expressions.

Grammar (integer literals only; fractions are not accepted):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := INT | VAR ('^' INT)? | '(' expr ')'

Exponents above MAX_EXPONENT are rejected, and so is a '(' that nests
more than MAX_PARENTHESES levels deep: each level costs three frames of
the recursion, so a deeper one would run out of interpreter stack.  A
product above poly.MAX_PRODUCT_DEGREE is refused by the product itself.
Errors carry the character position that triggered them.  A variable
name must be one VAR token (is_name), so that every printed polynomial
parses back.
"""

from __future__ import annotations

from .poly import Polynomial, PolyRing


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_OPS = set("+-*^()")

MAX_EXPONENT = 1000
MAX_PARENTHESES = 100  # the same depth as jobs.MAX_NESTING


def _tokenize(text: str):
    """Yield (kind, value, pos) with kind in {'int', 'name', 'op'}."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def is_name(text: str) -> bool:
    """True when text is exactly one name token: a variable so named is
    printed as itself and parsed back."""
    try:
        return [token[:2] for token in _tokenize(text)] == [("name", text)]
    except ParseError:
        return False


class _Parser:
    def __init__(self, tokens, ring: PolyRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.depth = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", None, self.tokens[-1][2] + 1 if self.tokens else 0)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse_expr(self) -> Polynomial:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value == "-":
            self.next()
            negate = True
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.parse_term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Polynomial:
        kind, value, pos = self.next()
        if kind == "int":
            return self.ring.const(value)
        if kind == "name":
            if value not in self.ring.variables:
                raise ParseError(f"unknown variable {value!r}", pos)
            kind2, value2, _ = self.peek()
            if not (kind2 == "op" and value2 == "^"):
                return self.ring.var(self.ring.variables.index(value))
            self.next()
            kind3, value3, pos3 = self.next()
            if kind3 != "int":
                raise ParseError("expected integer exponent", pos3)
            if value3 > MAX_EXPONENT:
                raise ParseError(f"exponent {value3} exceeds {MAX_EXPONENT}", pos3)
            expo = [0] * self.ring.nvars
            expo[self.ring.variables.index(value)] = value3
            return self.ring.monomial(expo)
        if kind == "op" and value == "(":
            self.depth += 1
            if self.depth > MAX_PARENTHESES:
                raise ParseError(f"parentheses nest more than {MAX_PARENTHESES} levels", pos)
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError("expected integer, variable or '('", pos)


def parse_poly(text: str, ring: PolyRing) -> Polynomial:
    """Parse text into a normalized Polynomial over the given ring."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    parser = _Parser(tokens, ring)
    result = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return result
