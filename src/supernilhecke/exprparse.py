"""
Parser for algebra expressions: generators x<i>, w<i>, w<i>^<a>, T<i>,
integer literals, +, -, *, parentheses, and ^ for x-powers and w-labels.

parse() produces a small AST; evaluate_algebra / evaluate_ring elaborate it
against the ring parameters, checking index ranges.
"""
from __future__ import annotations

from typing import NamedTuple

from .algebra import AlgebraElement
from .superring import SuperPolynomial, accumulate, labeled_omega


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class Token(NamedTuple):
    kind: str   # 'int', 'gen', 'op'
    text: str
    offset: int
    gen: tuple[str, int] | None = None
    value: int | None = None


_DIGITS = "0123456789"  # str.isdigit() would also take other scripts' digits


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*^()":
            tokens.append(Token("op", c, i))
            i += 1
            continue
        if c in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("int", text[i:j], i, value=int(text[i:j])))
            i = j
            continue
        if c in "xwT":
            j = i + 1
            if j >= len(text) or text[j] not in _DIGITS:
                raise ParseError(f"generator '{c}' needs an index", i)
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("gen", text[i:j], i, gen=(c, int(text[i + 1:j]))))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(Token("op", "", len(text)))  # end marker
    return tokens


# AST nodes: ('int', v) | ('gen', kind, index, exponent-or-label-or-None, offset)
#            ('neg', node) | ('sum', ((sign, node), ...)) | ('prod', (node, ...))
# Sums and products are n-ary and a run of unary minus signs folds into one
# 'neg', so only parentheses nest, and at most MAX_NESTING deep.

MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def expect_op(self, text: str):
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.offset)

    def parse_expr(self):
        terms = [(1, self.parse_term())]
        while self.at_op("+", "-"):
            sign = 1 if self.next().text == "+" else -1
            terms.append((sign, self.parse_term()))
        return terms[0][1] if len(terms) == 1 else ("sum", tuple(terms))

    def parse_term(self):
        factors = [self.parse_factor()]
        while self.at_op("*"):
            self.next()
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else ("prod", tuple(factors))

    def parse_factor(self):
        negate = False
        while self.at_op("-"):
            self.next()
            negate = not negate
        node = self.parse_atom()
        return ("neg", node) if negate else node

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "int":
            return ("int", tok.value)
        if tok.kind == "op" and tok.text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.offset)
            node = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        if tok.kind == "gen":
            kind, index = tok.gen
            exp = None
            if self.at_op("^"):
                if kind == "T":
                    raise ParseError("'^' applies to x-generators and w-labels only",
                                     self.peek().offset)
                self.next()
                sign = 1
                etok = self.next()
                if etok.kind == "op" and etok.text == "-":
                    sign = -1
                    etok = self.next()
                if etok.kind != "int":
                    raise ParseError("expected an integer after '^'", etok.offset)
                exp = sign * etok.value
                if kind == "x" and exp < 0:
                    raise ParseError("negative x-powers are not in the ring",
                                     etok.offset)
            return ("gen", kind, index, exp, tok.offset)
        raise ParseError("expected a value", tok.offset)


def parse(text: str):
    parser = _Parser(_lex(text))
    node = parser.parse_expr()
    end = parser.next()
    if end.text != "":
        raise ParseError("trailing input", end.offset)
    return node


def _evaluate(node, n: int, m: int, leaf):
    """Elaborate sums, products and negations with loops; leaf(node, n, m)
    builds the element of an 'int' or 'gen' node."""
    kind = node[0]
    if kind == "neg":
        return -_evaluate(node[1], n, m, leaf)
    if kind == "prod":
        acc = _evaluate(node[1][0], n, m, leaf)
        for sub in node[1][1:]:
            acc = acc * _evaluate(sub, n, m, leaf)
        return acc
    if kind == "sum":
        terms: dict = {}
        for sign, sub in node[1]:
            part = _evaluate(sub, n, m, leaf)
            accumulate(terms, ((k, sign * c) for k, c in part.terms.items()))
        return type(part)(n, m, terms)
    return leaf(node, n, m)


def _ring_leaf(node, n: int, m: int) -> SuperPolynomial:
    if node[0] == "int":
        return SuperPolynomial.const(n, m, node[1])
    _, gen, index, exp, offset = node
    if gen == "T":
        raise ParseError("crossings are not ring elements", offset)
    if not 1 <= index <= n:
        raise ParseError(f"{gen}{index} out of range for n={n}", offset)
    if gen == "x":
        return SuperPolynomial.x(n, m, index, 1 if exp is None else exp)
    if exp is None:
        return SuperPolynomial.w(n, m, index)
    if exp < m + 1:
        raise ParseError(f"label {exp} below the minimal label {m + 1}", offset)
    return labeled_omega(n, m, index, exp)


def _algebra_leaf(node, n: int, m: int) -> AlgebraElement:
    if node[0] == "gen" and node[1] == "T":
        if not 1 <= node[2] <= n - 1:
            raise ParseError(f"T{node[2]} out of range for n={n}", node[4])
        return AlgebraElement.T(n, m, node[2])
    return AlgebraElement.from_poly(_ring_leaf(node, n, m))


def evaluate_algebra(node, n: int, m: int) -> AlgebraElement:
    return _evaluate(node, n, m, _algebra_leaf)


def evaluate_ring(node, n: int, m: int) -> SuperPolynomial:
    return _evaluate(node, n, m, _ring_leaf)
