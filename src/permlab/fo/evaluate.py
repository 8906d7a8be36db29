"""Formula evaluation over a FiniteGroup.

Three strategies, all sound for every formula in the language:

naive        every quantifier enumerates the whole group; refuses groups
             larger than NAIVE_CAP.

class        the maximal outermost quantifier prefix (mixed kinds allowed)
             is reduced: the i-th prefix variable ranges over orbit
             representatives of conjugation by the centralizer of all
             previously fixed values (free bindings included).  Formulas in
             the group language are conjugation-equivariant, so picking one
             representative per orbit preserves both quantifier kinds.
             Inner quantifiers enumerate fully.

centralizer  the class strategy plus two syntactic rewrites applied to
             quantifiers everywhere in the formula:
               forall h. (t*h = h*t -> psi)   with h not free in t:
                   h ranges over C(t) only (the guard defines C(t));
               exists h. (t*h = h*t & psi)    likewise;
               exists k. t1*k = k*t2          with k free in neither side:
                   equivalent to t1 and t2 being conjugate, decided from
                   the memoized class partition.

Orbit representatives are the least index of each orbit, visited in
(orbit size, least index) order, so evaluation order and any reported
witnesses are deterministic.

Each quantifier's domain is decided once per node: the whole group; for
the outermost prefix under class and centralizer, orbit representatives of
C(bound values); for the commute rewrite, C(t).  One walk evaluates every
level, prefix included, scanning each domain with `_Evaluator.first_hit`.
A scan whose body holds no macro atom, no rewrite, no reduced prefix
quantifier and no unbound variable runs in blocks (`_Evaluator._decide`):
each nested quantifier is one more array axis, so a term is computed once
at the broadcast shape of its own variables ([h1, h2] once per (h1, h2)
chunk, for every g of the block).  A step evaluates at most groups._BLOCK
cells.  The first deciding element in domain order is kept, so values and
witnesses are those of the per-binding walk.
"""

from __future__ import annotations

import math
from itertools import takewhile

import numpy as np

from .. import groups as _groups
from ..errors import CapExceededError
from ..groups import FiniteGroup, generating_subset
from ..perms import Permutation, cycle_string
from ..record import Record
from . import macros as _macros
from .macros import ArgKind
from .syntax import (And, Comm, Eq, Implies, Int, Inv, MacroCall, Mul, Not,
                     One, Or, Quant, SetCall, Var, term_variables)

__all__ = ["evaluate", "evaluate_detailed", "EvalResult", "validate_formula",
           "eval_term", "NAIVE_CAP", "STRATEGIES"]

NAIVE_CAP = 2000

STRATEGIES = ("naive", "class", "centralizer")


class EvalResult(Record):
    value: bool
    strategy: str
    group: str
    witness: dict[str, str] | None  # leading-run assignments, cycle strings


# -- terms --------------------------------------------------------------------

def eval_term(t, G: FiniteGroup, env: dict) -> int:
    """Index of the term under `env`.  With a `_Gathers` for G, variables
    may be bound to index arrays and the result is an array."""
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise ValueError(f"unbound variable {t.name!r}") from None
    if isinstance(t, One):
        return G.identity_index
    if isinstance(t, Mul):
        if not isinstance(t.left, Mul):
            return G.mul(eval_term(t.left, G, env), eval_term(t.right, G, env))
        # a left-nested chain folds in a loop, so long words cannot
        # exhaust the recursion limit
        rights = []
        while isinstance(t, Mul):
            rights.append(t.right)
            t = t.left
        value = eval_term(t, G, env)
        for r in reversed(rights):
            value = G.mul(value, eval_term(r, G, env))
        return value
    if isinstance(t, Inv):
        return G.inv(eval_term(t.arg, G, env))
    if isinstance(t, Comm):
        a = eval_term(t.left, G, env)
        b = eval_term(t.right, G, env)
        return G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b)))
    raise TypeError(f"not a term: {t!r}")


# -- block decisions -------------------------------------------------------------
#
# Variables are bound to indices or index arrays, and `eval_term` runs on
# `_Gathers`.

class _Gathers:
    """The group operations `eval_term` uses, batched: they accept index
    arrays as well as indices."""

    def __init__(self, G: FiniteGroup):
        self.mul = G.mul_many
        self.inv = lambda a: G.inverse_array()[a]
        self.identity_index = G.identity_index


# -- static validation -----------------------------------------------------------

def _validate_term(t):
    while isinstance(t, Mul):  # a left-nested chain in a loop, as in eval_term
        _validate_term(t.right)
        t = t.left
    if isinstance(t, (Var, One)):
        return
    if isinstance(t, Comm):
        _validate_term(t.left)
        _validate_term(t.right)
        return
    if isinstance(t, Inv):
        _validate_term(t.arg)
        return
    raise ValueError(f"not a valid term node: {t!r}")


def _validate_call_args(name: str, args: tuple, spec):
    if spec[0] == "*":
        if not args:
            raise ValueError(f"{name} needs at least one argument")
        kinds = (spec[1],) * len(args)
    else:
        if len(args) != len(spec):
            raise ValueError(
                f"{name} takes {len(spec)} arguments, got {len(args)}")
        kinds = spec
    for arg, kind in zip(args, kinds):
        if kind is ArgKind.INT:
            if not isinstance(arg, Int):
                raise ValueError(f"{name}: expected an integer literal")
        elif kind is ArgKind.READING:
            if not (isinstance(arg, Var) and arg.name in ("literal", "generated")):
                raise ValueError(
                    f"{name}: expected the reading 'literal' or 'generated'")
        elif kind is ArgKind.SET:
            if not isinstance(arg, SetCall):
                raise ValueError(f"{name}: expected a set expression")
            _validate_set_call(arg)
        elif isinstance(arg, SetCall):  # kind ELEM or ELEM_OR_SET from here on
            if kind is ArgKind.ELEM:
                raise ValueError(f"{name}: expected an element, got a set expression")
            _validate_set_call(arg)
        elif isinstance(arg, Int):
            if arg.value != 1:
                raise ValueError(f"{name}: integer {arg.value} is not a group element")
        else:
            _validate_term(arg)


def _validate_set_call(node: SetCall):
    sig = _macros.signature_of(node.name)
    if sig is None:
        raise ValueError(f"unknown set function {node.name!r}")
    spec, _impl, is_macro = sig
    if is_macro:
        raise ValueError(f"{node.name!r} is a macro, not a set function")
    _validate_call_args(node.name, node.args, spec)


def validate_formula(f):
    """Check macro / set-function names, arities and argument kinds."""
    if isinstance(f, Quant):
        validate_formula(f.body)
    elif isinstance(f, (And, Or, Implies)):
        validate_formula(f.left)
        validate_formula(f.right)
    elif isinstance(f, Not):
        validate_formula(f.arg)
    elif isinstance(f, Eq):
        _validate_term(f.lhs)
        _validate_term(f.rhs)
    elif isinstance(f, MacroCall):
        sig = _macros.signature_of(f.name)
        if sig is None:
            raise ValueError(f"unknown macro {f.name!r}")
        spec, _impl, is_macro = sig
        if not is_macro:
            raise ValueError(f"{f.name!r} is a set function, not a formula macro")
        _validate_call_args(f.name, f.args, spec)
    else:
        raise ValueError(f"not a valid formula node: {f!r}")


# -- argument resolution -----------------------------------------------------------

def _resolve_arg(arg, kind, G: FiniteGroup, env: dict):
    if kind is ArgKind.INT:
        return arg.value
    if kind is ArgKind.READING:
        return arg.name
    if isinstance(arg, SetCall):  # validated: kind SET or ELEM_OR_SET
        return _eval_set_call(arg, G, env)
    if isinstance(arg, Int):  # an element, validated to be 1
        return G.identity_index
    return eval_term(arg, G, env)


def _resolve_args(name: str, args: tuple, spec, G: FiniteGroup, env: dict) -> tuple:
    kinds = (spec[1],) * len(args) if spec[0] == "*" else spec
    return tuple(_resolve_arg(a, k, G, env) for a, k in zip(args, kinds))


def _eval_set_call(node: SetCall, G: FiniteGroup, env: dict) -> frozenset:
    spec, _impl, _ = _macros.signature_of(node.name)
    resolved = _resolve_args(node.name, node.args, spec, G, env)
    return _macros.call_set_function(G, node.name, resolved)


# -- rewrite patterns (centralizer strategy) ------------------------------------------

def _conjugation(eq, v: str):
    """(t1, t2) with eq == (t1*v = v*t2) or (v*t2 = t1*v), v free in neither."""
    if not (isinstance(eq, Eq) and isinstance(eq.lhs, Mul) and isinstance(eq.rhs, Mul)):
        return None
    l, r, var = eq.lhs, eq.rhs, Var(v)
    if l.right == var and r.left == var:
        t1, t2 = l.left, r.right
    elif l.left == var and r.right == var:
        t1, t2 = r.left, l.right
    else:
        return None
    return None if v in term_variables(t1) | term_variables(t2) else (t1, t2)


def _rewrite(q: Quant):
    """The centralizer strategy's reading of q as (t1, t2, rest), or None:
    'exists k. t1*k = k*t2' is t1 ~ t2 (rest None); 'forall h. t*h = h*t ->
    rest' and 'exists h. t*h = h*t & rest' are q over C(t) (t1 == t2 == t)."""
    if q.kind == "exists" and (pair := _conjugation(q.body, q.var)):
        return *pair, None
    if isinstance(q.body, Implies if q.kind == "forall" else And):
        pair = _conjugation(q.body.left, q.var)
        if pair and pair[0] == pair[1]:
            return *pair, q.body.right
    return None


# -- the evaluator ---------------------------------------------------------------------

_PREFIX = "prefix"  # the rule of an outermost prefix quantifier


class _Evaluator:
    def __init__(self, G: FiniteGroup, mode: str):
        self.G = G
        self.mode = mode
        self.ops = _Gathers(G)
        self.nodes: dict[int, tuple] = {}  # id(node) -> _analyse(node)
        self.rules: dict[int, object] = {}  # id(quantifier) -> _rule(it)
        # id(prefix quantifier) -> (env, first hit) of its last scan
        self.hits: dict[int, tuple] = {}
        self.cells = 0  # cells decided in blocks so far

    def split(self, f) -> list:
        """Mark and return the outermost quantifier prefix of f, which the
        centralizer strategy ends at the first quantifier it rewrites."""
        prefix = []
        while isinstance(f, Quant) and self._rule(f) is None:
            self.rules[id(f)] = _PREFIX
            prefix.append(f)
            f = f.body
        return prefix

    def _rule(self, q: Quant):
        """How q ranges, decided once per node: _PREFIX, a centralizer
        rewrite (`_rewrite`), or None for the whole group."""
        if id(q) not in self.rules:
            self.rules[id(q)] = _rewrite(q) if self.mode == "centralizer" else None
        return self.rules[id(q)]

    def _analyse(self, f) -> tuple:
        """(free variables of f, or None when only the walk decides f;
        the depth of quantifier nesting in f), once per node and evaluation."""
        if (out := self.nodes.get(id(f))) is not None:
            return out
        if isinstance(f, Eq):
            out = frozenset(term_variables(f.lhs) | term_variables(f.rhs)), 0
        elif isinstance(f, Not):
            out = self._analyse(f.arg)
        elif isinstance(f, (And, Or, Implies)):
            (lf, ld), (rf, rd) = self._analyse(f.left), self._analyse(f.right)
            out = (None if lf is None or rf is None else lf | rf), max(ld, rd)
        elif isinstance(f, Quant):
            free, depth = self._analyse(f.body)
            rule = self._rule(f)
            # walk-only: a rewrite, and a prefix over orbit representatives
            if rule is not None and (rule is not _PREFIX or self.mode != "naive"):
                free = None
            out = (None if free is None else free - {f.var}), depth + 1
        else:  # macro atoms
            out = None, 0
        self.nodes[id(f)] = out
        return out

    def blocks(self, var: str, body, env: dict) -> bool:
        """Whether body[var := x] is decided in blocks under env: no macro,
        no rewrite, and every other free variable bound."""
        free = self._analyse(body)[0]
        return free is not None and free - {var} <= env.keys()

    def formula(self, f, env: dict) -> bool:
        if isinstance(f, Quant):
            return self.quant(f, env)
        if isinstance(f, And):
            return self.formula(f.left, env) and self.formula(f.right, env)
        if isinstance(f, Or):
            return self.formula(f.left, env) or self.formula(f.right, env)
        if isinstance(f, Implies):
            return (not self.formula(f.left, env)) or self.formula(f.right, env)
        if isinstance(f, Not):
            return not self.formula(f.arg, env)
        if isinstance(f, Eq):
            return eval_term(f.lhs, self.G, env) == eval_term(f.rhs, self.G, env)
        if isinstance(f, MacroCall):
            spec, _impl, _ = _macros.signature_of(f.name)
            resolved = _resolve_args(f.name, f.args, spec, self.G, env)
            return _macros.call_macro(self.G, f.name, resolved)
        raise TypeError(f"not a formula: {f!r}")

    def quant(self, q: Quant, env: dict) -> bool:
        rule, domain, body = self._rule(q), range(len(self.G)), q.body
        if rule is _PREFIX:
            if self.mode != "naive":
                domain = _orbit_reps(self.G, frozenset(env.values()))
        elif rule is not None:
            t1, t2, body = rule
            t = eval_term(t1, self.G, env)
            if body is None:
                return self.G.are_conjugate(t, eval_term(t2, self.G, env))
            if not self.G.is_central((t,)):
                domain = sorted(self.G.centralizer_of((t,)))
        hit = self.first_hit(q.kind, q.var, domain, body, env)
        if rule is _PREFIX:  # read back for the witness
            self.hits[id(q)] = dict(env), hit
        return (q.kind == "exists") == (hit is not None)

    def first_hit(self, kind: str, var: str, domain, body, env: dict):
        """The first x in `domain` for which body[var := x] decides the
        quantifier (true for exists, false for forall), or None."""
        want = kind == "exists"
        if self.blocks(var, body, env):
            if not isinstance(domain, range):
                domain = np.asarray(domain)
            # A body with quantifiers starts with one binding, decided by the
            # walk, whose scalar products cost less than one-element arrays,
            # until a binding shows nested work.  Blocks then double while
            # that work stays under one block per binding: heavier bindings
            # gain nothing from sharing steps, and those after the hit in a
            # block would be waste.
            step = 1 if self._analyse(body)[1] else _groups._BLOCK
            start = 0
            while start < len(domain):
                if isinstance(block := domain[start:start + step], range):
                    block = np.arange(block.start, block.stop)
                spent = self.cells
                if step == 1:
                    if self.formula(body, {**env, var: int(block[0])}) == want:
                        return int(block[0])
                else:
                    # a value that does not vary with var is read at block[0]
                    hits = np.flatnonzero(self._decide(
                        body, {**env, var: block}, block.shape) == want)
                    if hits.size:
                        return int(block[hits[0]])
                spent = self.cells - spent
                self.cells += len(block)
                start += len(block)
                if spent >= _groups._BLOCK * len(block):
                    step = 1
                elif spent or step > 1:
                    step = min(2 * step, _groups._BLOCK)
            return None
        had_outer = var in env  # shadowed binding to restore afterwards
        outer = env.get(var)
        hit = None
        for x in domain:
            env[var] = x
            if self.formula(body, env) == want:
                hit = x
                break
        if had_outer:
            env[var] = outer
        else:
            env.pop(var, None)
        return hit

    def _decide(self, f, env: dict, shape: tuple, care=None):
        """Truth values of f, for which `blocks` holds, as a boolean array
        that broadcasts to `shape`.  Variables are bound to indices or to
        index arrays that broadcast to `shape`; cells outside the mask
        `care` (None: every cell) may hold either value."""
        if isinstance(f, Eq):
            return np.equal(eval_term(f.lhs, self.ops, env),
                            eval_term(f.rhs, self.ops, env))
        if isinstance(f, Not):
            return ~self._decide(f.arg, env, shape, care)
        if isinstance(f, Quant):
            return self._quant(f, env, shape, care)
        left = self._decide(f.left, env, shape, care)
        if self._analyse(f.right)[1]:
            # as in the walk, the right side's quantifiers run only on the
            # cells the left side leaves open
            rest = ~left if isinstance(f, Or) else left
            if care is not None:
                rest = rest & care
            if not np.count_nonzero(rest):
                return ~left if isinstance(f, Implies) else left
            right = self._decide(f.right, env, shape, rest)
        else:
            right = self._decide(f.right, env, shape)
        if isinstance(f, And):
            return left & right
        if isinstance(f, Or):
            return left | right
        return ~left | right

    def _quant(self, q: Quant, env: dict, shape: tuple, care):
        """q over the whole group for every cell of `shape`.  The variable
        takes a new trailing axis, bound to a chunk of the group, and outer
        index arrays gain a unit axis to broadcast against it.  Rows of
        axis 0 are dropped once decided; when `care` leaves only some cells
        open, those are decided alone, gathered onto one axis."""
        want = q.kind == "exists"
        n, cells = len(self.G), math.prod(shape)
        if care is not None and \
                np.count_nonzero(care) * (cells // np.size(care)) < cells:
            at = np.flatnonzero(np.broadcast_to(care, shape))
            flat = {v: np.broadcast_to(a, shape).flat[at]
                    if isinstance(a, np.ndarray) else a for v, a in env.items()}
            out = np.zeros(cells, dtype=bool)
            out[at] = self._quant(q, flat, at.shape, None)
            return out.reshape(shape)
        sub = {v: a[..., None] if isinstance(a, np.ndarray) else a
               for v, a in env.items()}
        # the first chunk holds as many elements as fit in _BLOCK cells when
        # every quantifier nested in the body takes the whole group, else
        # one; chunks double from there, so an early exit stays cheap
        step = _groups._BLOCK // (cells * n ** self._analyse(q.body)[1]) or 1
        if step >= n:  # the whole group in one chunk
            sub[q.var] = np.arange(n)
            vals = self._decide(q.body, sub, shape + (n,))
            self.cells += cells * n
            if not np.ndim(vals):  # q.var does not occur
                return vals
            return (np.logical_or if want else np.logical_and).reduce(vals, -1)
        open_ = np.ones(shape, dtype=bool)
        found = np.zeros(shape, dtype=bool)
        rows = None  # the axis-0 positions still open, None while all are
        start = 0
        while start < n:
            xs = sub[q.var] = np.arange(
                start, min(n, start + min(step, _groups._BLOCK // cells or 1)))
            vals = self._decide(q.body, sub, open_.shape + xs.shape, open_[..., None])
            self.cells += open_.size * len(xs)
            if not want:
                vals = ~vals
            if np.ndim(vals):
                vals = np.logical_or.reduce(vals, -1)
            start += len(xs)
            step *= 2
            if not np.count_nonzero(hit := vals & open_):
                continue
            if rows is None:
                found |= hit
            else:
                found[rows] |= hit
            open_ ^= hit
            keep = np.logical_or.reduce(open_.reshape(len(open_), -1), -1)
            if not np.count_nonzero(keep):
                break
            if not np.logical_and.reduce(keep):
                rows = np.flatnonzero(keep) if rows is None else rows[keep]
                open_ = open_[keep]
                cells = open_.size
                for v, a in list(sub.items()):
                    if isinstance(a, np.ndarray) and a.ndim > len(shape) and len(a) > 1:
                        sub[v] = a[keep]
        return found if want else ~found


def _orbit_reps(G: FiniteGroup, fixed: frozenset) -> list[int]:
    """Representatives of orbits of conjugation by C(fixed) on G,
    as least indices ordered by (orbit size, least index)."""
    if G.is_central(fixed):
        return G.class_representatives()
    c = G.centralizer_of(fixed)
    # the orbits depend on C(fixed) only
    return G.memoized("fo.orbit_reps", c, lambda: G.conjugation_orbit_reps(
        generating_subset(G, c)))


# -- entry points ------------------------------------------------------------------------

def _coerce_env(G: FiniteGroup, env: dict | None) -> dict:
    out: dict = {}
    if env:
        for name, v in env.items():
            if isinstance(v, Permutation):
                out[name] = G.index_of(v)
            elif isinstance(v, int):
                if not 0 <= v < len(G):
                    raise ValueError(f"element index {v} out of range for {G.name}")
                out[name] = v
            else:
                raise TypeError(f"binding for {name!r} must be a Permutation or index")
    return out


def evaluate(formula, G: FiniteGroup, strategy: str = "class",
             env: dict | None = None) -> bool:
    return evaluate_detailed(formula, G, strategy, env).value


def evaluate_detailed(formula, G: FiniteGroup, strategy: str = "class",
                      env: dict | None = None) -> EvalResult:
    """Evaluate, reporting witnesses for the leading same-kind quantifier run.

    A witness assignment is reported when it decides the result: the found
    values for a leading exists-run on a true formula, or the failing values
    for a leading forall-run on a false formula.  Under the reducing
    strategies the reported elements are orbit representatives.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")
    validate_formula(formula)
    if strategy == "naive" and len(G) > NAIVE_CAP:
        raise CapExceededError(
            f"naive evaluation refuses groups larger than {NAIVE_CAP}"
            f" ({G.name} has {len(G)} elements)")
    env0 = _coerce_env(G, env)
    ev = _Evaluator(G, strategy)
    prefix = ev.split(formula)
    value = ev.formula(formula, env0)
    run = list(takewhile(lambda q: q.kind == prefix[0].kind, prefix))
    if not run or value != (run[0].kind == "exists"):
        return EvalResult(value=value, strategy=strategy, group=G.name, witness=None)
    # each level's first hit under the hits above it; a level whose scan
    # ran inside a block above it is scanned again at that block's hit
    env, witness = env0, {}
    for q in run:
        if ev.hits.get(id(q), (None,))[0] != env:
            ev.quant(q, env)
        x = ev.hits[id(q)][1]
        env = {**env, q.var: x}
        witness[q.var] = cycle_string(G.element_tuple(x))
    return EvalResult(value=value, strategy=strategy, group=G.name, witness=witness)
