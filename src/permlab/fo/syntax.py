"""AST for first-order group sentences (frozen records), plus the canonical printer.

Terms are built from variables, the identity literal 1, products, inverses
and commutator brackets.  Formulas combine equations and macro atoms with
!, &, |, -> and the two quantifiers.  Macro arguments may additionally be
integer literals and set expressions (calls to registered set functions).
"""

from __future__ import annotations

from ..record import Record

__all__ = [
    "Var", "One", "Mul", "Inv", "Comm", "Int", "SetCall",
    "Eq", "MacroCall", "Not", "And", "Or", "Implies", "Quant",
    "term_text", "arg_text", "to_text", "free_variables", "term_variables",
]


# -- terms --------------------------------------------------------------------

class Var(Record):
    name: str


class One(Record):
    pass


class Mul(Record):
    """A product.  Equality and hashing walk the left-nested chain of a long
    word in a loop rather than recursing once per factor."""

    left: object
    right: object

    def _spine(self) -> tuple:
        rights, t = [], self
        while isinstance(t, Mul):
            rights.append(t.right)
            t = t.left
        return t, rights

    def __eq__(self, other):
        if not isinstance(other, Mul):
            return NotImplemented
        return self._spine() == other._spine()

    def __hash__(self):
        first, rights = self._spine()
        return hash((Mul, first, *rights))


class Inv(Record):
    arg: object


class Comm(Record):
    left: object
    right: object


# -- macro arguments that are not terms ----------------------------------------

class Int(Record):
    value: int


class SetCall(Record):
    name: str
    args: tuple


# -- formulas -------------------------------------------------------------------

class Eq(Record):
    lhs: object
    rhs: object


class MacroCall(Record):
    name: str
    args: tuple


class Not(Record):
    arg: object


class And(Record):
    left: object
    right: object


class Or(Record):
    left: object
    right: object


class Implies(Record):
    left: object
    right: object


class Quant(Record):
    kind: str  # "forall" | "exists"
    var: str
    body: object

    def __post_init__(self):
        if self.kind not in ("forall", "exists"):
            raise ValueError(f"unknown quantifier kind {self.kind!r}")


# -- printing -------------------------------------------------------------------

def term_text(t, parent_tight: bool = False) -> str:
    """Render a term; parent_tight asks for parens around products."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, One):
        return "1"
    if isinstance(t, Mul):
        # products chain to the left without parens; a product on the right
        # (or under ^-1) must be parenthesized.  The left-nested chain is
        # walked in a loop, so long words cannot exhaust the recursion limit.
        factors = []
        chain = t
        while isinstance(chain, Mul):
            factors.append(term_text(chain.right, parent_tight=True))
            chain = chain.left
        factors.append(term_text(chain))
        out = "*".join(reversed(factors))
        return f"({out})" if parent_tight else out
    if isinstance(t, Inv):
        inner = term_text(t.arg, parent_tight=True)
        if isinstance(t.arg, Inv):
            inner = f"({inner})"
        return f"{inner}^-1"
    if isinstance(t, Comm):
        return f"[{term_text(t.left)}, {term_text(t.right)}]"
    raise TypeError(f"not a term: {t!r}")


def arg_text(a) -> str:
    if isinstance(a, Int):
        return str(a.value)
    if isinstance(a, SetCall):
        return f"{a.name}(" + ", ".join(arg_text(x) for x in a.args) + ")"
    return term_text(a)


# precedence: quantifier 0, -> 1, | 2, & 3, units 4
def _prec(f) -> int:
    if isinstance(f, Quant):
        return 0
    if isinstance(f, Implies):
        return 1
    if isinstance(f, Or):
        return 2
    if isinstance(f, And):
        return 3
    return 4


def _fmt(f, need: int) -> str:
    if isinstance(f, Quant):
        out = f"{f.kind} {f.var}. {_fmt(f.body, 0)}"
    elif isinstance(f, Implies):
        out = f"{_fmt(f.left, 2)} -> {_fmt(f.right, 0)}"
    elif isinstance(f, Or):
        out = f"{_fmt(f.left, 2)} | {_fmt(f.right, 3)}"
    elif isinstance(f, And):
        out = f"{_fmt(f.left, 3)} & {_fmt(f.right, 4)}"
    elif isinstance(f, Not):
        inner = _fmt(f.arg, 4)
        if isinstance(f.arg, Eq):
            inner = f"({inner})"  # negated equations always print their parens
        return f"!{inner}"
    elif isinstance(f, Eq):
        return f"{term_text(f.lhs)} = {term_text(f.rhs)}"
    elif isinstance(f, MacroCall):
        return f"{f.name}(" + ", ".join(arg_text(a) for a in f.args) + ")"
    else:
        raise TypeError(f"not a formula: {f!r}")
    return f"({out})" if _prec(f) < need else out


def to_text(f) -> str:
    """Canonical text of a formula; parse(to_text(f)) == f."""
    return _fmt(f, 0)


# -- variable collection ----------------------------------------------------------

def term_variables(t) -> set[str]:
    out: set[str] = set()
    stack = [t]  # an explicit stack: long products stay linear and shallow
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.add(t.name)
        elif isinstance(t, (Mul, Comm)):
            stack += (t.left, t.right)
        elif isinstance(t, Inv):
            stack.append(t.arg)
        elif not isinstance(t, One):
            raise TypeError(f"not a term: {t!r}")
    return out


def _arg_variables(a) -> set[str]:
    if isinstance(a, Int):
        return set()
    if isinstance(a, SetCall):
        out: set[str] = set()
        for x in a.args:
            out |= _arg_variables(x)
        return out
    return term_variables(a)


def free_variables(f) -> set[str]:
    if isinstance(f, Quant):
        return free_variables(f.body) - {f.var}
    if isinstance(f, (And, Or, Implies)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, Not):
        return free_variables(f.arg)
    if isinstance(f, Eq):
        return term_variables(f.lhs) | term_variables(f.rhs)
    if isinstance(f, MacroCall):
        out: set[str] = set()
        for a in f.args:
            out |= _arg_variables(a)
        return out
    raise TypeError(f"not a formula: {f!r}")
