"""Sentence language: parser, printer, three evaluation strategies, macros."""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab.errors import CapExceededError, ParseError
from permlab.fo import (And, Comm, Eq, Implies, Int, Inv, MacroCall, Mul, Not,
                        One, Or, Quant, SetCall, Var, evaluate,
                        evaluate_detailed, free_variables, parse_formula,
                        parse_term, term_text, to_text, validate_formula)
from permlab import groups
from permlab.groups import FiniteGroup, construct_group
from permlab.perms import parse_permutation
from permlab.sentences import phi2, prime_remark_sentence


def G(spec):
    return construct_group(spec)


# -- parsing ------------------------------------------------------------------

def test_parse_commutator_sentence():
    f = parse_formula("forall g. exists h1. exists h2. g = [h1, h2]")
    assert f == Quant("forall", "g",
                      Quant("exists", "h1",
                            Quant("exists", "h2",
                                  Eq(Var("g"), Comm(Var("h1"), Var("h2"))))))


def test_parse_precedence_and_associativity():
    f = parse_formula("g = 1 | h = 1 & k = 1 -> g = h")
    # -> binds loosest, & tighter than |
    assert isinstance(f, Implies)
    assert isinstance(f.left, Or)
    assert isinstance(f.left.right, And)
    g = parse_formula("g = 1 -> h = 1 -> k = 1")
    assert isinstance(g, Implies) and isinstance(g.right, Implies)
    t = parse_term("a*b*c")
    assert t == Mul(Mul(Var("a"), Var("b")), Var("c"))
    assert parse_term("a*(b*c)") == Mul(Var("a"), Mul(Var("b"), Var("c")))
    assert parse_term("(a*b)^-1") == Inv(Mul(Var("a"), Var("b")))
    assert parse_term("a*b^-1") == Mul(Var("a"), Inv(Var("b")))


def test_parse_paren_disambiguation():
    # "(" opening a term
    f = parse_formula("(g*h) = 1")
    assert f == Eq(Mul(Var("g"), Var("h")), One())
    # "(" opening a formula
    g = parse_formula("(g = 1) & (h = 1)")
    assert g == And(Eq(Var("g"), One()), Eq(Var("h"), One()))
    # nested mix
    h = parse_formula("((g = 1))")
    assert h == Eq(Var("g"), One())


def test_parse_macro_and_set_arguments():
    f = parse_formula("trivial(pow_stab(prod(C(g, h), C(C(g, h))), literal))")
    assert f == MacroCall("trivial", (
        SetCall("pow_stab", (
            SetCall("prod", (
                SetCall("C", (Var("g"), Var("h"))),
                SetCall("C", (SetCall("C", (Var("g"), Var("h"))),)))),
            Var("literal"))),))
    g = parse_formula("alt_factor_index_le(C(g), 4, 2)")
    assert g == MacroCall("alt_factor_index_le",
                          (SetCall("C", (Var("g"),)), Int(4), Int(2)))


def test_parse_quantifier_scope_extends_right():
    f = parse_formula("forall g. g = 1 | g*g = 1")
    assert isinstance(f, Quant) and isinstance(f.body, Or)


@pytest.mark.parametrize("text,line,col", [
    ("forall . g = 1", 1, 8),
    ("g ^ 1", 1, 3),
    ("2*g = 1", 1, 1),
    ("forall g.\ng = 2", 2, 5),
    ("(g = 1", 1, 7),
    ("g = 1 )", 1, 7),
    ("g @ 1", 1, 3),
    ("trivial(g,", 1, 11),
    ("exists g. g = h extra", 1, 17),
])
def test_parse_error_positions(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert exc.value.line == line
    assert exc.value.col == col
    assert f"line {line}, col {col}" in str(exc.value)


def test_free_variables():
    f = parse_formula("forall g. g*h = h*g & trivial(C(k))")
    assert free_variables(f) == {"h", "k"}


# -- printer round-trip -------------------------------------------------------

_SENTENCES = [
    "forall g. exists h1. exists h2. g = [h1, h2]",
    "exists g. !(g = 1) & g*g = 1",
    "exists g. forall h. g*h = h*g -> (h = 1 | (exists k. h*k = k*g))",
    "forall g. forall h. !(g = 1) & !trivial(C(g, h)) -> "
    "trivial(pow_stab(prod(C(g, h), C(C(g, h))), literal))",
    "exists g. g*g*g = 1 & !(g = 1) & alt_factor_index_le(C(g), 4, 2)",
    "forall g. (g = 1 | h = 1) & k = 1",
    "!(g = 1) | !!(h = k)",
    "g*(h*k)^-1 = [g, h^-1]*1",
]


@pytest.mark.parametrize("text", _SENTENCES)
def test_canonical_text_is_a_fixpoint(text):
    f = parse_formula(text)
    canon = to_text(f)
    assert parse_formula(canon) == f
    assert to_text(parse_formula(canon)) == canon


_names = st.sampled_from(["g", "h", "k", "x1"])

_terms = st.recursive(
    st.one_of(st.builds(Var, _names), st.just(One())),
    lambda kids: st.one_of(
        st.builds(Mul, kids, kids),
        st.builds(Inv, kids),
        st.builds(Comm, kids, kids)),
    max_leaves=6)

# a bare identity as an argument would reparse as the integer literal 1,
# so argument terms exclude the plain One() leaf
_arg_terms = _terms.filter(lambda t: t != One())

_set_calls = st.recursive(
    st.builds(SetCall, st.just("C"),
              st.lists(_arg_terms, min_size=1, max_size=2).map(tuple)),
    lambda kids: st.one_of(
        st.builds(SetCall, st.just("prod"),
                  st.tuples(kids, kids)),
        st.builds(SetCall, st.just("gen"),
                  st.lists(st.one_of(_arg_terms, kids),
                           min_size=1, max_size=2).map(tuple)),
        st.builds(SetCall, st.just("pow_stab"),
                  st.tuples(kids, st.sampled_from(
                      [Var("literal"), Var("generated")])))),
    max_leaves=4)

_macro_atoms = st.one_of(
    st.builds(MacroCall, st.just("trivial"), st.tuples(_set_calls)),
    st.builds(MacroCall, st.just("index_le"),
              st.tuples(_set_calls, _set_calls,
                        st.builds(Int, st.integers(1, 9)))),
    st.builds(MacroCall, st.just("subgroup_iso_alt"),
              st.tuples(_set_calls, st.builds(Int, st.integers(4, 8)))))

_formulas = st.recursive(
    st.one_of(st.builds(Eq, _terms, _terms), _macro_atoms),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
        st.builds(Quant, st.sampled_from(["forall", "exists"]), _names, kids)),
    max_leaves=10)


@given(_terms)
@settings(max_examples=200)
def test_term_round_trip(t):
    assert parse_term(term_text(t)) == t


@given(_formulas)
@settings(max_examples=300)
def test_formula_round_trip(f):
    assert parse_formula(to_text(f)) == f


def test_long_product_validates_prints_and_evaluates():
    # a 3,001-factor word: validation, printing, variable collection,
    # equality and hashing must not recurse once per factor
    f = parse_formula("exists g. " + "g*" * 3000 + "g = 1")
    for strategy in ("naive", "class", "centralizer"):
        assert evaluate(f, G("alt5"), strategy)
    text = to_text(f)
    assert text == "exists g. " + "g*" * 3000 + "g = 1"
    assert parse_formula(text) == f and hash(parse_formula(text)) == hash(f)
    assert free_variables(f.body) == {"g"}


# -- validation ---------------------------------------------------------------

def test_validation_rejects_bad_calls():
    with pytest.raises(ValueError):
        validate_formula(parse_formula("frobnicate(g)"))
    with pytest.raises(ValueError):
        validate_formula(parse_formula("trivial(g)"))  # SET expected
    with pytest.raises(ValueError):
        validate_formula(parse_formula("trivial(C(g), C(h))"))  # arity
    with pytest.raises(ValueError):
        validate_formula(parse_formula("C(g) = 1"))  # set function as term head
    with pytest.raises(ValueError):
        validate_formula(parse_formula("pow_stab(C(g), sideways) = 1"))
    with pytest.raises(ValueError):
        validate_formula(parse_formula("alt_factor_index_le(C(g), h, 2)"))
    # macro used as a set function
    with pytest.raises(ValueError):
        validate_formula(parse_formula("trivial(trivial(C(g)))"))


# -- evaluation: known values ---------------------------------------------------

COMMUTATOR_SENTENCE = "forall g. exists h1. exists h2. g = [h1, h2]"


@pytest.mark.parametrize("strategy", ["naive", "class", "centralizer"])
def test_every_element_a_commutator(strategy):
    assert evaluate(parse_formula(COMMUTATOR_SENTENCE), G("alt5"), strategy)
    # in Sym(3) commutators land in the rotation subgroup
    assert not evaluate(parse_formula(COMMUTATOR_SENTENCE), G("sym3"), strategy)


def test_involution_existence():
    f = parse_formula("exists g. !(g = 1) & g*g = 1")
    assert evaluate(f, G("sym3"))
    assert evaluate(f, G("z2"))
    assert not evaluate(f, G("z3"))
    assert not evaluate(f, G("z5"))


def test_exponent_three():
    f = parse_formula("forall g. g*g*g = 1")
    assert evaluate(f, G("z3"))
    assert not evaluate(f, G("sym3"))
    assert not evaluate(f, G("z6"))


def test_macro_formulas_on_groups():
    assert evaluate(parse_formula("subgroup_iso_alt(C(1), 4)"), G("alt5"))
    assert not evaluate(parse_formula("subgroup_iso_alt(C(1), 4)"), G("z12"))
    assert evaluate(parse_formula("forall g. trivial(gen(g)) -> g = 1"), G("sym4"))
    assert evaluate(parse_formula("index_le(gen(g), C(1), 2)"), G("sym3"),
                    env={"g": parse_permutation("(1 2 3)")})
    assert not evaluate(parse_formula("index_le(gen(g), C(1), 2)"), G("sym4"),
                        env={"g": parse_permutation("(1 2 3) deg=4")})


def test_env_binding_and_unbound_error():
    f = parse_formula("exists h. g*h = h*g & !(h = 1) & !(h = g)")
    g3 = parse_permutation("(1 2 3)")
    g2 = parse_permutation("(1 2) deg=3")
    for strategy in ("naive", "class", "centralizer"):
        assert evaluate(f, G("sym3"), strategy, env={"g": g3})
        assert not evaluate(f, G("sym3"), strategy, env={"g": g2})
    with pytest.raises(ValueError):
        evaluate(f, G("sym3"))  # g unbound


def test_naive_cap():
    with pytest.raises(CapExceededError):
        evaluate(parse_formula("forall g. g = g"), G("alt7"), "naive")


def test_variable_shadowing_keeps_outer_binding():
    f = parse_formula("forall g. (exists g. g*g = 1 & !(g = 1)) & g = g")
    for strategy in ("naive", "class", "centralizer"):
        assert evaluate(f, G("sym3"), strategy)


# -- strategy agreement ----------------------------------------------------------

_AGREEMENT_FORMULAS = [
    COMMUTATOR_SENTENCE,
    "exists g. !(g = 1) & g*g = 1",
    "forall g. forall h. g*h = h*g",
    "exists g. forall h. g*h = h*g -> (h = 1 | (exists k. h*k = k*g))",
    "forall g. trivial(gen(g)) -> g = 1",
    "forall g. forall h. [g, h] = 1 -> g*h = h*g",
    "exists g. exists h. !([g, h] = 1)",
    "forall g. exists h. g*h*g = h",
    "forall g. (exists h. !(g*h = h*g)) | index_le(gen(g), C(g), 12)",
    "exists g. g*g*g = 1 & !(g = 1) & trivial(C(g, g))"
    " | (exists h. h*h = 1 & !(h = 1))",
]

_AGREEMENT_GROUPS = ["sym3", "sym4", "alt4", "z6", "d8", "alt5"]


@pytest.mark.parametrize("text", _AGREEMENT_FORMULAS)
def test_strategies_agree(text):
    f = parse_formula(text)
    for spec in _AGREEMENT_GROUPS:
        g = G(spec)
        values = {s: evaluate(f, g, s) for s in ("naive", "class", "centralizer")}
        assert len(set(values.values())) == 1, (text, spec, values)


def test_conjugacy_pattern_matches_naive():
    f = parse_formula("exists k. g*k = k*h")
    g4 = G("sym4")
    pairs = [("(1 2)", "(3 4)", True), ("(1 2)", "(1 2 3)", False),
             ("(1 2 3 4)", "(1 4 3 2)", True), ("(1 2)(3 4)", "(1 3)(2 4)", True)]
    for a, b, expected in pairs:
        env = {"g": parse_permutation(f"{a} deg=4"),
               "h": parse_permutation(f"{b} deg=4")}
        for strategy in ("naive", "class", "centralizer"):
            assert evaluate(f, g4, strategy, env=env) is expected


def test_centralizer_strategy_conjugacy_pattern_builds_no_class_sets(monkeypatch):
    g7 = construct_group("alt7")

    def refuse(*_args):
        raise AssertionError("class frozensets built")

    monkeypatch.setattr(FiniteGroup, "conjugacy_classes", refuse)
    monkeypatch.setattr(FiniteGroup, "class_of", refuse)
    h = {"h": parse_permutation("(1 2 3) deg=7")}
    cases = [("exists k. g*k = k*h", "(2 3 4)", True),
             ("exists k. g*k = k*h", "(1 2)(3 4)", False),
             ("exists k. k*g = h*k", "(5 6 7)", True)]
    for text, g, expected in cases:
        env = {**h, "g": parse_permutation(f"{g} deg=7")}
        assert evaluate(parse_formula(text), g7, "centralizer", env=env) is expected
    f = parse_formula("forall g. exists k. g*k = k*h")
    assert evaluate(f, g7, "centralizer", env=h) is False


# -- witnesses --------------------------------------------------------------------

def test_witness_naive_least_index():
    f = parse_formula("exists g. g*g = 1 & !(g = 1)")
    r = evaluate_detailed(f, G("sym4"), "naive")
    assert r.value and r.witness == {"g": "(3 4)"}


def test_witness_class_least_rep():
    f = parse_formula("exists g. g*g = 1 & !(g = 1)")
    r = evaluate_detailed(f, G("sym4"), "class")
    assert r.value and r.witness == {"g": "(1 2)(3 4)"}


def test_witness_forall_counterexample():
    f = parse_formula("forall h. h*h = 1")
    r = evaluate_detailed(f, G("z3"), "naive")
    assert not r.value and r.witness == {"h": "(1 2 3)"}


def test_witness_only_for_deciding_prefix():
    # the trivial-center witness: true in every group via g = 1
    center = parse_formula("exists g. forall h. g*h = h*g")
    r = evaluate_detailed(center, G("sym3"), "class")
    assert r.value and r.witness == {"g": "()"}
    # nontrivial center: needs the exclusion, true iff the center is bigger
    nontrivial = parse_formula("exists g. !(g = 1) & (forall h. g*h = h*g)")
    r1 = evaluate_detailed(nontrivial, G("z6"), "class")
    assert r1.value and r1.witness == {"g": "(1 2 3 4 5 6)"}
    r2 = evaluate_detailed(nontrivial, G("sym3"), "class")
    assert not r2.value and r2.witness is None
    # a leading forall run on a true formula reports nothing
    r3 = evaluate_detailed(parse_formula("forall g. g = g"), G("sym3"), "class")
    assert r3.value and r3.witness is None


def test_witness_multi_variable_run():
    f = parse_formula("exists g. exists h. !(g*h = h*g)")
    r = evaluate_detailed(f, G("sym3"), "naive")
    assert r.value and set(r.witness) == {"g", "h"}
    a = parse_permutation(r.witness["g"] + " deg=3")
    b = parse_permutation(r.witness["h"] + " deg=3")
    assert a * b != b * a


def test_evaluation_is_deterministic():
    f = parse_formula(COMMUTATOR_SENTENCE)
    r1 = evaluate_detailed(f, G("alt4"), "class")
    r2 = evaluate_detailed(f, G("alt4"), "class")
    assert r1 == r2


# -- invariants on random formulas ------------------------------------------------

def _close(f):
    """Quantify away free variables (sorted) so the formula is a sentence."""
    out = f
    for name in sorted(free_variables(f), reverse=True):
        out = Quant("forall", name, out)
    return out


def _connectives(kids):
    return [st.builds(Not, kids), st.builds(And, kids, kids),
            st.builds(Or, kids, kids), st.builds(Implies, kids, kids)]


_eval_formulas = st.recursive(
    st.builds(Eq, _terms, _terms),
    lambda kids: st.one_of(
        *_connectives(kids),
        st.builds(Quant, st.sampled_from(["forall", "exists"]), _names, kids)),
    max_leaves=8)

_quantifier_free = st.recursive(
    st.builds(Eq, _terms, _terms),
    lambda kids: st.one_of(*_connectives(kids)), max_leaves=8)


@given(_eval_formulas)
@settings(max_examples=60, deadline=None)
def test_quantifier_duality_on_random_formulas(f):
    g = G("sym3")
    body = _close(f)
    not_forall = Not(Quant("forall", "z9", body))
    exists_not = Quant("exists", "z9", Not(body))
    for strategy in ("naive", "class", "centralizer"):
        assert evaluate(not_forall, g, strategy) == \
            evaluate(exists_not, g, strategy)


@given(_eval_formulas)
@settings(max_examples=60, deadline=None)
def test_reduced_strategies_match_naive_on_random_formulas(f):
    sentence = _close(f)
    for spec in ("sym3", "z6"):
        g = G(spec)
        naive = evaluate(sentence, g, "naive")
        assert evaluate(sentence, g, "class") == naive
        assert evaluate(sentence, g, "centralizer") == naive


# -- whole-domain scans vs the per-binding walk ------------------------------------

@given(_quantifier_free, st.sampled_from(["sym3", "z6", "alt4", "psl2(5)"]),
       st.data())
@settings(max_examples=100, deadline=None)
def test_whole_domain_scan_matches_per_binding_walk(body, spec, data):
    g = G(spec)
    env = {name: data.draw(st.integers(0, len(g) - 1)) for name in
           ("g", "h", "k", "x1")}
    for kind in ("exists", "forall"):
        want = kind == "exists"
        for var in ("g", "h", "k", "x1"):
            # the reference: one quantifier-free evaluation per binding
            first = next((x for x in range(len(g)) if evaluate(
                body, g, "naive", env={**env, var: x}) == want), None)
            q = Quant(kind, var, body)
            r = evaluate_detailed(q, g, "naive", env=env)
            assert r.value == (want == (first is not None))
            expected = None if first is None else \
                {var: g.element(first).to_cycle_string()}
            assert r.witness == expected
            # the same scan under a connective, below the quantifier prefix
            assert evaluate(Not(q), g, "naive", env=env) is not r.value


def _reference_term(t, g, env):
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, One):
        return g.identity_index
    if isinstance(t, Mul):
        return g.mul(_reference_term(t.left, g, env), _reference_term(t.right, g, env))
    if isinstance(t, Inv):
        return g.inv(_reference_term(t.arg, g, env))
    a, b = _reference_term(t.left, g, env), _reference_term(t.right, g, env)
    return g.mul(g.mul(a, b), g.mul(g.inv(a), g.inv(b)))


def _reference_holds(f, g, env):
    """Plain recursion, one binding at a time."""
    if isinstance(f, Eq):
        return _reference_term(f.lhs, g, env) == _reference_term(f.rhs, g, env)
    if isinstance(f, Not):
        return not _reference_holds(f.arg, g, env)
    if isinstance(f, And):
        return _reference_holds(f.left, g, env) and _reference_holds(f.right, g, env)
    if isinstance(f, Or):
        return _reference_holds(f.left, g, env) or _reference_holds(f.right, g, env)
    if isinstance(f, Implies):
        return not _reference_holds(f.left, g, env) or _reference_holds(f.right, g, env)
    test = any if f.kind == "exists" else all
    return test(_reference_holds(f.body, g, {**env, f.var: x}) for x in range(len(g)))


def _reference_orbit_reps(g, fixed):
    """Least members of the orbits of conjugation by C(fixed), in (orbit
    size, least member) order."""
    c = [y for y in range(len(g)) if all(g.mul(y, x) == g.mul(x, y) for x in fixed)]
    orbits = {frozenset(g.conj(x, y) for y in c) for x in range(len(g))}
    return [min(o) for o in sorted(orbits, key=lambda o: (len(o), min(o)))]


def _reference_detailed(f, g, strategy, env):
    """(value, witness) of `evaluate_detailed` by walking the leading
    quantifiers binding by binding: naive over the group, class over orbit
    representatives; the witness names the leading same-kind run."""
    prefix = []
    while isinstance(f, Quant):
        prefix.append(f)
        f = f.body
    run = next((i for i, q in enumerate(prefix) if q.kind != prefix[0].kind),
               len(prefix))

    def walk(i, env_now):
        if i == len(prefix):
            return _reference_holds(f, g, env_now), {}
        q, want = prefix[i], prefix[i].kind == "exists"
        domain = range(len(g)) if strategy == "naive" else \
            _reference_orbit_reps(g, set(env_now.values()))
        for x in domain:
            value, sub = walk(i + 1, {**env_now, q.var: x})
            if value == want:
                return want, ({q.var: x, **sub} if i < run else {})
        return not want, {}

    value, assign = walk(0, env)
    informative = value == (prefix[0].kind == "exists")
    witness = {v: g.element(x).to_cycle_string() for v, x in assign.items()}
    return value, (witness if informative and witness else None)


_kinds = st.sampled_from(["forall", "exists"])
_one_level = st.builds(Quant, _kinds, _names, _quantifier_free)
_two_levels = st.builds(Quant, _kinds, _names, st.one_of(
    _one_level, *_connectives(st.one_of(_quantifier_free, _one_level))))
# one or two nested quantifiers, under each connective
_nested_bodies = st.one_of(*_connectives(st.one_of(
    _quantifier_free, _one_level, _two_levels))).filter(
    lambda f: "forall" in to_text(f) or "exists" in to_text(f))


@pytest.mark.parametrize("block", [None, 7])
@given(body=_nested_bodies, spec=st.sampled_from(["sym3", "z6", "alt4", "psl2(5)"]),
       strategy=st.sampled_from(["naive", "class"]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_nested_quantifier_blocks_match_per_binding_walk(block, body, spec,
                                                         strategy, data):
    g = G(spec)
    env = {name: data.draw(st.integers(0, len(g) - 1)) for name in
           ("g", "h", "k", "x1")}
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:  # small chunks: doubling and row compaction
            mp.setattr(groups, "_BLOCK", block)
        for kind in ("exists", "forall"):
            for var in ("g", "h"):
                f = Quant(kind, var, body)
                r = evaluate_detailed(f, g, strategy, env=env)
                assert (r.value, r.witness) == \
                    _reference_detailed(f, g, strategy, env)
                if len(g) > 12:  # the reference's fourth level is slow
                    continue
                # a leading run of two, whose inner witness is re-entered
                f = Quant(kind, "x1", f)
                r = evaluate_detailed(f, g, strategy, env=env)
                assert (r.value, r.witness) == \
                    _reference_detailed(f, g, strategy, env)


# a quantifier-free body, or one nested quantifier under a connective
_prefix_bodies = st.one_of(_quantifier_free, *_connectives(st.one_of(
    _quantifier_free, _one_level)))


@pytest.mark.parametrize("block", [None, 7])
@given(prefix=st.lists(st.tuples(_kinds, _names), min_size=2, max_size=3),
       body=_prefix_bodies, spec=st.sampled_from(["sym3", "z6", "alt4"]),
       strategy=st.sampled_from(["naive", "class"]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_quantifier_prefixes_match_per_binding_walk(block, prefix, body, spec,
                                                    strategy, data):
    # two or three directly nested quantifiers of mixed kinds, so the levels
    # after the leading run are checked too
    g = G(spec)
    env = {name: data.draw(st.integers(0, len(g) - 1)) for name in
           ("g", "h", "k", "x1")}
    f = body
    for kind, var in reversed(prefix):
        f = Quant(kind, var, f)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(groups, "_BLOCK", block)
        r = evaluate_detailed(f, g, strategy, env=env)
    assert (r.value, r.witness) == _reference_detailed(f, g, strategy, env)


@pytest.mark.parametrize("text", [
    "exists g. forall h. g*h = h*g -> (h = 1 | (exists k. h*k = k*g))",
    "forall g. forall h. exists k. g*k = k*g & (h*k = k*h & !(k = 1))",
    "forall g. exists h. (exists k. g*k = k*h) & !(g = h)",
    # g*h = h*k with g, k apart is no commute guard: h may not leave C(g)
    "forall g. forall k. (exists h. g*h = h*k & h*h = h) -> g = k",
])
def test_centralizer_matches_each_quantifier_once(monkeypatch, text):
    # the rewrites are matched once per quantifier node, not per binding
    module = importlib.import_module("permlab.fo.evaluate")
    calls, rewrite = [], module._rewrite
    monkeypatch.setattr(module, "_rewrite", lambda q: calls.append(q) or rewrite(q))
    f = parse_formula(text)
    for spec in ("sym4", "alt5"):
        calls.clear()
        value = evaluate(f, G(spec), "centralizer")
        assert len(calls) <= to_text(f).count("forall") + to_text(f).count("exists")
        assert value == evaluate(f, G(spec), "naive")


def test_class_prefix_levels_scan_orbit_representatives(monkeypatch):
    # each prefix level takes its orbit representatives when reached, none
    # is folded into a block over the whole group: C() once for g, then
    # C(g) for h at every class representative g, as h finds no counterexample
    module = importlib.import_module("permlab.fo.evaluate")
    calls, orbit_reps = [], module._orbit_reps
    monkeypatch.setattr(module, "_orbit_reps",
                        lambda g, fixed: calls.append(fixed) or orbit_reps(g, fixed))
    g = G("sym4")
    f = parse_formula("forall g. forall h. g*(h*g) = (g*h)*g")
    assert evaluate_detailed(f, g, "class").value is True
    assert calls == [frozenset()] + [{x} for x in g.class_representatives()]


def test_naive_phi2_shares_products_across_bindings(monkeypatch):
    # [h1, h2] is computed once per (h1, h2) chunk for every g of a block,
    # where a per-binding walk makes one product call per binding
    calls = []
    mul_many = FiniteGroup.mul_many
    monkeypatch.setattr(FiniteGroup, "mul_many",
                        lambda self, a, b: calls.append(1) or mul_many(self, a, b))
    results = {spec: evaluate_detailed(phi2(), G(spec), "naive")
               for spec in ("alt6", "sym6", "psl2(7)")}
    assert {s: (r.value, r.witness) for s, r in results.items()} == {
        "alt6": (True, None), "sym6": (False, {"g": "(5 6)"}),
        "psl2(7)": (True, None)}
    assert len(calls) <= 1000


@pytest.mark.parametrize("sentence,spec,strategies,value,witness", [
    ("phi2", "alt5", "naive class centralizer", True, None),
    ("phi2", "sym4", "naive class centralizer", False, {"g": "(3 4)"}),
    ("phi2", "psl2(7)", "naive class centralizer", True, None),
    ("prime_remark", "alt5", "naive", True, {"g": "(3 4 5)"}),
    ("prime_remark", "alt5", "class centralizer", True, {"g": "(2 3)(4 5)"}),
    ("prime_remark", "sym4", "naive class centralizer", True, {"g": "(2 3 4)"}),
    ("prime_remark", "psl2(7)", "naive class centralizer", True,
     {"g": "(1 7 8)(2 4 6)"}),
])
def test_detailed_witnesses_are_frozen(sentence, spec, strategies, value, witness):
    f = phi2() if sentence == "phi2" else prime_remark_sentence()
    for strategy in strategies.split():
        r = evaluate_detailed(f, G(spec), strategy)
        assert (r.value, r.witness) == (value, witness), strategy
