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

Every quantifier whose body has no quantifier and no macro is decided over
its domain in blocks of rows: inner quantifiers (centralizer-rewrite domains
included) and the last level of the outermost prefix.  Each product in the
body is one FiniteGroup.mul_many over a block, and the first deciding
element in domain order is kept, so values and witnesses are those of the
per-binding walk, which remains for every other quantifier.
"""

from __future__ import annotations

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


# -- whole-domain scans ----------------------------------------------------------
#
# A quantifier- and macro-free body is decided for a block of values of the
# quantified variable at once: that variable is bound to the block's index
# array, the others to indices, and `eval_term` runs on `_Gathers`.

class _Gathers:
    """The group operations `eval_term` uses, batched: they accept index
    arrays as well as indices."""

    def __init__(self, G: FiniteGroup):
        self.mul = G.mul_many
        self.inv = lambda a: G.inverse_array()[a]
        self.identity_index = G.identity_index


def _qf_variables(f) -> frozenset | None:
    """Free variables of a quantifier- and macro-free formula, else None."""
    if isinstance(f, Eq):
        return frozenset(term_variables(f.lhs) | term_variables(f.rhs))
    if isinstance(f, Not):
        return _qf_variables(f.arg)
    if isinstance(f, (And, Or, Implies)):
        left, right = _qf_variables(f.left), _qf_variables(f.right)
        return None if left is None or right is None else left | right
    return None


def _gather_formula(f, ops: _Gathers, env: dict):
    if isinstance(f, Eq):
        return np.equal(eval_term(f.lhs, ops, env), eval_term(f.rhs, ops, env))
    if isinstance(f, Not):
        return np.logical_not(_gather_formula(f.arg, ops, env))
    left = _gather_formula(f.left, ops, env)
    right = _gather_formula(f.right, ops, env)
    if isinstance(f, And):
        return np.logical_and(left, right)
    if isinstance(f, Or):
        return np.logical_or(left, right)
    return np.logical_or(np.logical_not(left), right)


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

def _commute_partner(guard, h: str):
    """t with guard == (t*h = h*t) or (h*t = t*h) and h not free in t."""
    if not isinstance(guard, Eq):
        return None
    l, r = guard.lhs, guard.rhs
    if not (isinstance(l, Mul) and isinstance(r, Mul)):
        return None
    hv = Var(h)
    if l.right == hv and r.left == hv and l.left == r.right \
            and h not in term_variables(l.left):
        return l.left
    if l.left == hv and r.right == hv and l.right == r.left \
            and h not in term_variables(l.right):
        return l.right
    return None


def _match_commute_quant(q: Quant):
    """(var, t, rest) for 'forall h. commute -> rest' / 'exists h. commute & rest'."""
    if q.kind == "forall" and isinstance(q.body, Implies):
        guard, rest = q.body.left, q.body.right
    elif q.kind == "exists" and isinstance(q.body, And):
        guard, rest = q.body.left, q.body.right
    else:
        return None
    t = _commute_partner(guard, q.var)
    if t is None:
        return None
    return q.var, t, rest


def _match_conjugacy_exists(q: Quant):
    """(t1, t2) for 'exists k. t1*k = k*t2' (k in neither side): t1 ~ t2."""
    if q.kind != "exists" or not isinstance(q.body, Eq):
        return None
    l, r = q.body.lhs, q.body.rhs
    if not (isinstance(l, Mul) and isinstance(r, Mul)):
        return None
    kv = Var(q.var)
    if l.right == kv and r.left == kv:
        t1, t2 = l.left, r.right
        if q.var not in term_variables(t1) | term_variables(t2):
            return t1, t2
    if l.left == kv and r.right == kv:
        t1, t2 = r.left, l.right
        if q.var not in term_variables(t1) | term_variables(t2):
            return t1, t2
    return None


# -- the evaluator ---------------------------------------------------------------------

class _Evaluator:
    def __init__(self, G: FiniteGroup, mode: str):
        self.G = G
        self.mode = mode

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
        # inner quantifiers (the outermost prefix is handled by _run_prefix)
        if self.mode == "centralizer":
            conj = _match_conjugacy_exists(q)
            if conj is not None:
                t1, t2 = conj
                a = eval_term(t1, self.G, env)
                b = eval_term(t2, self.G, env)
                return self.G.are_conjugate(a, b)
            com = _match_commute_quant(q)
            if com is not None:
                var, tnode, rest = com
                t = eval_term(tnode, self.G, env)
                domain = range(len(self.G)) if self.G.is_central((t,)) \
                    else sorted(self.G.centralizer_of((t,)))
                return self._scan(q.kind, var, domain, rest, env)
        return self._scan(q.kind, q.var, range(len(self.G)), q.body, env)

    def _scan(self, kind: str, var: str, domain, body, env: dict) -> bool:
        return (kind == "exists") == \
            (self.first_hit(kind, var, domain, body, env) is not None)

    def first_hit(self, kind: str, var: str, domain, body, env: dict):
        """The first x in `domain` for which body[var := x] decides the
        quantifier (true for exists, false for forall), or None."""
        want = kind == "exists"
        free = _qf_variables(body)
        if free is not None and free - {var} <= env.keys():
            xs = np.arange(domain.start, domain.stop) \
                if isinstance(domain, range) else np.asarray(domain)
            ops, step = _Gathers(self.G), _groups._BLOCK
            for start in range(0, len(xs), step):
                block = xs[start:start + step]
                vals = _gather_formula(body, ops, {**env, var: block})
                hits = np.flatnonzero(np.broadcast_to(vals == want, block.shape))
                if hits.size:
                    return int(block[hits[0]])
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


def _pattern_applies(q: Quant) -> bool:
    return _match_conjugacy_exists(q) is not None or \
        _match_commute_quant(q) is not None


def _split_prefix(f, mode: str):
    """Leading quantifier run; the centralizer strategy stops the run at the
    first quantifier its rewrites will handle."""
    prefix = []
    while isinstance(f, Quant):
        if mode == "centralizer" and _pattern_applies(f):
            break
        prefix.append((f.kind, f.var))
        f = f.body
    return prefix, f


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
    prefix, body = _split_prefix(formula, strategy)
    run_kind = prefix[0][0] if prefix else None
    run_len = 0
    for kind, _var in prefix:
        if kind != run_kind:
            break
        run_len += 1

    def domain_for(env_now: dict):
        if strategy == "naive":
            return range(len(G))
        return _orbit_reps(G, frozenset(env_now.values()))

    def run(i: int, env_now: dict):
        if i == len(prefix):
            return ev.formula(body, env_now), {}
        kind, var = prefix[i]
        want = kind == "exists"
        if i == len(prefix) - 1:
            x = ev.first_hit(kind, var, domain_for(env_now), body, env_now)
            if x is None:
                return not want, {}
            return want, ({var: x} if i < run_len else {})
        for x in domain_for(env_now):
            val, sub = run(i + 1, {**env_now, var: x})
            if val == want:
                if i < run_len:
                    return want, {var: x, **sub}
                return want, {}
        return not want, {}

    value, assign = run(0, env0)
    informative = (run_kind == "exists" and value) or \
        (run_kind == "forall" and not value)
    witness = None
    if informative and assign:
        witness = {var: cycle_string(G.element_tuple(x)) for var, x in assign.items()}
    return EvalResult(value=value, strategy=strategy, group=G.name, witness=witness)
