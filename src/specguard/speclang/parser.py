"""Recursive-descent parser for the condition expression language.

Grammar, loosest binding first:

    expr  := or
    or    := and ("||" and)*
    and   := not ("&&" not)*
    not   := "!" not | cmp
    cmp   := sum (("<" | "<=" | ">" | ">=" | "==" | "!=") sum)?
    sum   := prod (("+" | "-") prod)*
    prod  := unary (("*" | "/") unary)*
    unary := "-" unary | atom
    atom  := NUMBER | STRING | "true" | "false" | path
           | IDENT "(" expr ("," expr)* ")" | "(" expr ")"
    path  := "input" "." IDENT ("[" INT "]" "[" INT "]")?
           | "output" "." ("label" | "confidence")

Comparisons do not chain: a < b < c is a syntax error. "!" binds looser
than comparisons, so !a < b reads as !(a < b). Parentheses, calls, "!" and
unary "-" nest at most MAX_NESTING (64) deep: deeper input is a syntax
error, not a RecursionError. (A long chain such as a && b && ... still
makes a tree as deep as the chain is long.)
"""
from __future__ import annotations

from ..errors import SpecSyntaxError
from . import lexer
from .ast import Binary, Bool, Call, Expression, InputRef, Num, OutputRef, Str, Unary

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
MAX_NESTING = 64


class _Parser:
    def __init__(self, tokens: list[lexer.Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses, calls, "!" and unary "-"

    def peek(self) -> lexer.Token:
        return self.tokens[self.pos]

    def advance(self) -> lexer.Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def error(self, message: str, token: lexer.Token | None = None) -> SpecSyntaxError:
        token = token or self.peek()
        return SpecSyntaxError(message, token.line, token.column, token.text)

    def match_op(self, *ops: str) -> lexer.Token | None:
        token = self.peek()
        if token.kind == lexer.OP and token.text in ops:
            return self.advance()
        return None

    def expect_op(self, op: str) -> lexer.Token:
        token = self.peek()
        if token.kind != lexer.OP or token.text != op:
            raise self.error(f"expected {op!r}")
        return self.advance()

    def nest(self, token: lexer.Token) -> None:
        """Count one more level opened at token; the caller drops it when
        the level's operand is parsed."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"expression nests deeper than {MAX_NESTING} levels", token)

    def parse(self) -> Expression:
        expr = self.parse_or()
        token = self.peek()
        if token.kind != lexer.EOF:
            raise self.error("unexpected trailing input")
        return expr

    def parse_or(self) -> Expression:
        expr = self.parse_and()
        while self.match_op("||"):
            expr = Binary("||", expr, self.parse_and())
        return expr

    def parse_and(self) -> Expression:
        expr = self.parse_not()
        while self.match_op("&&"):
            expr = Binary("&&", expr, self.parse_not())
        return expr

    def parse_not(self) -> Expression:
        token = self.match_op("!")
        if token is None:
            return self.parse_cmp()
        self.nest(token)
        expr = Unary("!", self.parse_not())
        self.depth -= 1
        return expr

    def parse_cmp(self) -> Expression:
        expr = self.parse_sum()
        token = self.match_op(*_CMP_OPS)
        if token is None:
            return expr
        right = self.parse_sum()
        chained = self.peek()
        if chained.kind == lexer.OP and chained.text in _CMP_OPS:
            raise self.error("comparisons do not chain; parenthesize one side")
        return Binary(token.text, expr, right)

    def parse_sum(self) -> Expression:
        expr = self.parse_prod()
        while True:
            token = self.match_op("+", "-")
            if token is None:
                return expr
            expr = Binary(token.text, expr, self.parse_prod())

    def parse_prod(self) -> Expression:
        expr = self.parse_unary()
        while True:
            token = self.match_op("*", "/")
            if token is None:
                return expr
            expr = Binary(token.text, expr, self.parse_unary())

    def parse_unary(self) -> Expression:
        token = self.match_op("-")
        if token is None:
            return self.parse_atom()
        self.nest(token)
        expr = Unary("-", self.parse_unary())
        self.depth -= 1
        return expr

    def parse_atom(self) -> Expression:
        token = self.peek()
        if token.kind == lexer.NUMBER:
            self.advance()
            return Num(float(token.text))
        if token.kind == lexer.STRING:
            self.advance()
            return Str(token.text)
        if token.kind == lexer.IDENT:
            if token.text == "true":
                self.advance()
                return Bool(True)
            if token.text == "false":
                self.advance()
                return Bool(False)
            if token.text == "input":
                return self.parse_input_ref()
            if token.text == "output":
                return self.parse_output_ref()
            self.advance()
            if not self.match_op("("):
                raise self.error(f"unknown name {token.text!r}", token)
            self.nest(token)
            args = [self.parse_or()]
            while self.match_op(","):
                args.append(self.parse_or())
            self.expect_op(")")
            self.depth -= 1
            return Call(token.text, tuple(args))
        if token.kind == lexer.OP and token.text == "(":
            self.nest(self.advance())
            expr = self.parse_or()
            self.expect_op(")")
            self.depth -= 1
            return expr
        raise self.error("expected an expression")

    def parse_input_ref(self) -> InputRef:
        self.advance()  # input
        self.expect_op(".")
        name = self.peek()
        if name.kind != lexer.IDENT:
            raise self.error("expected a field name after 'input.'")
        self.advance()
        if not self.match_op("["):
            return InputRef(name.text)
        row = self.parse_grid_index()
        self.expect_op("]")
        self.expect_op("[")
        col = self.parse_grid_index()
        self.expect_op("]")
        return InputRef(name.text, row, col)

    def parse_grid_index(self) -> int:
        token = self.peek()
        if token.kind != lexer.NUMBER or not token.text.isdigit():
            raise self.error("grid indices must be integer literals")
        self.advance()
        return int(token.text)

    def parse_output_ref(self) -> OutputRef:
        self.advance()  # output
        self.expect_op(".")
        attr = self.peek()
        if attr.kind != lexer.IDENT or attr.text not in ("label", "confidence"):
            raise self.error("output has only .label and .confidence", attr)
        self.advance()
        return OutputRef(attr.text)


def parse(source: str) -> Expression:
    """Parse source text into an expression tree.

    Raises SpecSyntaxError (with 1-based line and column) on malformed input.
    """
    return _Parser(lexer.tokenize(source)).parse()
