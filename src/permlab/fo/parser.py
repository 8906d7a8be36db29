"""Recursive-descent parser for the first-order sentence language.

Grammar (quantifiers bind as far right as possible, -> is right
associative, | binds looser than &, ! binds tightest):

    formula := ("forall" | "exists") ident "." formula | impl
    impl    := disj ["->" formula]
    disj    := conj {"|" conj}
    conj    := unit {"&" unit}
    unit    := "!" unit | "(" formula ")" | atom
    atom    := call | term "=" term
    call    := ident "(" arg {"," arg} ")"
    arg     := call | term | integer
    term    := factor {"*" factor}
    factor  := base ["^-1"]
    base    := ident | "1" | "[" term "," term "]" | "(" term ")"

A "(" can open either a parenthesized formula or a parenthesized term;
the parser tries the formula reading first and falls back, reporting
whichever failure got further.
"""

from __future__ import annotations

from ..errors import ParseError
from ..record import Record
from .syntax import (And, Comm, Eq, Implies, Int, Inv, MacroCall, Mul, Not,
                     One, Or, Quant, SetCall, Var)

__all__ = ["parse_formula", "parse_term"]

_KEYWORDS = ("forall", "exists")
_TWO_CHAR = ("->",)
_ONE_CHAR = "()[],.=*|&!"


class _Tok(Record):
    kind: str  # ident | int | sym | end
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if text[i:i + 3] == "^-1":
            toks.append(_Tok("sym", "^-1", line, start_col))
            i += 3
            col += 3
            continue
        if text[i:i + 2] in _TWO_CHAR:
            toks.append(_Tok("sym", text[i:i + 2], line, start_col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            toks.append(_Tok("sym", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch == "^":
            raise ParseError("'^' is only valid as '^-1'", line, start_col)
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    last_line = line
    last_col = col
    toks.append(_Tok("end", "", last_line, last_col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def advance(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def at_sym(self, s: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == s

    def eat_sym(self, s: str) -> bool:
        if self.at_sym(s):
            self.advance()
            return True
        return False

    def expect_sym(self, s: str, what: str):
        if not self.eat_sym(s):
            t = self.peek()
            got = t.text or "end of input"
            raise ParseError(f"expected {what}, got {got!r}", t.line, t.col)

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- formulas ------------------------------------------------------------

    def formula(self):
        t = self.peek()
        if t.kind == "ident" and t.text in _KEYWORDS:
            self.advance()
            v = self.peek()
            if v.kind != "ident" or v.text in _KEYWORDS:
                self.fail(f"expected a variable after {t.text!r}")
            self.advance()
            self.expect_sym(".", "'.' after the quantified variable")
            return Quant(t.text, v.text, self.formula())
        return self.impl()

    def impl(self):
        left = self.disj()
        if self.eat_sym("->"):
            return Implies(left, self.formula())
        return left

    def disj(self):
        out = self.conj()
        while self.eat_sym("|"):
            out = Or(out, self.conj())
        return out

    def conj(self):
        out = self.unit()
        while self.eat_sym("&"):
            out = And(out, self.unit())
        return out

    def unit(self):
        if self.eat_sym("!"):
            return Not(self.unit())
        if self.at_sym("("):
            # "(" may open a formula or a term; try the formula reading and
            # fall back, keeping whichever error is furthest along
            save = self.pos
            try:
                self.advance()
                inner = self.formula()
                self.expect_sym(")", "')'")
                return inner
            except ParseError as formula_err:
                formula_pos = self.pos
                self.pos = save
                try:
                    return self.atom()
                except ParseError as atom_err:
                    raise (atom_err if self.pos >= formula_pos else formula_err) from None
        return self.atom()

    def atom(self):
        t = self.peek()
        if t.kind == "ident" and t.text not in _KEYWORDS and \
                self.toks[self.pos + 1].kind == "sym" and \
                self.toks[self.pos + 1].text == "(":
            call = self.call()
            return MacroCall(call.name, call.args)
        lhs = self.term()
        self.expect_sym("=", "'=' in an atomic formula")
        return Eq(lhs, self.term())

    def call(self) -> SetCall:
        name = self.advance().text
        self.expect_sym("(", "'('")
        args = [self.arg()]
        while self.eat_sym(","):
            args.append(self.arg())
        self.expect_sym(")", "')' closing the argument list")
        return SetCall(name, tuple(args))

    def arg(self):
        t = self.peek()
        if t.kind == "ident" and t.text not in _KEYWORDS and \
                self.toks[self.pos + 1].kind == "sym" and \
                self.toks[self.pos + 1].text == "(":
            return self.call()
        if t.kind == "int":
            # a bare integer in argument position is an integer literal;
            # kind coercion turns Int(1) back into the identity where a
            # group element is expected
            nxt = self.toks[self.pos + 1]
            if nxt.kind == "sym" and nxt.text in (",", ")"):
                self.advance()
                return Int(int(t.text))
        return self.term()

    # -- terms ----------------------------------------------------------------

    def term(self):
        out = self.factor()
        while self.eat_sym("*"):
            out = Mul(out, self.factor())
        return out

    def factor(self):
        base = self.base()
        if self.eat_sym("^-1"):
            return Inv(base)
        return base

    def base(self):
        t = self.peek()
        if t.kind == "ident" and t.text not in _KEYWORDS:
            self.advance()
            return Var(t.text)
        if t.kind == "int":
            if t.text != "1":
                self.fail("the only numeric constant in a term is the identity 1")
            self.advance()
            return One()
        if self.eat_sym("["):
            a = self.term()
            self.expect_sym(",", "',' between commutator entries")
            b = self.term()
            self.expect_sym("]", "']' closing the commutator")
            return Comm(a, b)
        if self.eat_sym("("):
            inner = self.term()
            self.expect_sym(")", "')' closing the term")
            return inner
        got = t.text or "end of input"
        self.fail(f"expected a term, got {got!r}")


def parse_formula(text: str):
    """Parse a complete formula; trailing input is an error."""
    p = _Parser(_tokenize(text))
    f = p.formula()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.col)
    return f


def parse_term(text: str):
    """Parse a complete term; trailing input is an error."""
    p = _Parser(_tokenize(text))
    f = p.term()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.col)
    return f
