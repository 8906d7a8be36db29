"""Permutation primitives: parsing, metric, cycle data, conjugacy, words."""

import ast
import itertools
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permlab
from permlab import groups
from permlab.errors import CapExceededError
from permlab.perms import (
    CycleType,
    Permutation,
    centralizer_order_sym,
    conjugacy_test,
    cycle_string,
    evaluate_word,
    find_conjugator,
    hamming_distance,
    identity,
    lambda_profile,
    min_conjugate_distance,
    parse_permutation,
    random_permutation,
)


def all_sym(n):
    return [Permutation(p) for p in itertools.permutations(range(n))]


perms_strategy = st.integers(2, 30).flatmap(
    lambda n: st.permutations(list(range(n))).map(lambda im: Permutation(tuple(im))))


def pairs_same_degree(max_n=30):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(n))).map(lambda im: Permutation(tuple(im))),
            st.permutations(list(range(n))).map(lambda im: Permutation(tuple(im)))))


# ---------------------------------------------------------------------------
# construction and parsing


def test_identity_and_validation():
    e = identity(4)
    assert e.is_identity() and e.degree == 4
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))


def test_parse_cycle_notation():
    p = parse_permutation("(1 2)(3 4)")
    assert p.images == (1, 0, 3, 2)
    assert parse_permutation("(1 2 3)").images == (1, 2, 0)
    # fixed points omitted; degree from the largest moved point or explicit
    assert parse_permutation("(1 2)", degree=4).images == (1, 0, 2, 3)
    assert parse_permutation("() deg=3") == identity(3)
    assert parse_permutation("()", degree=2) == identity(2)
    assert parse_permutation("(2 3 4)").degree == 4


def test_parse_one_line():
    assert parse_permutation("[2,1,3]").images == (1, 0, 2)
    assert parse_permutation("[2 1 3]").images == (1, 0, 2)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_permutation("()")  # degree not inferable
    with pytest.raises(ValueError):
        parse_permutation("(1 2)(2 3)")  # repeated point
    with pytest.raises(ValueError):
        parse_permutation("(0 1)")  # 1-based points
    with pytest.raises(ValueError):
        parse_permutation("(1 2", degree=3)
    with pytest.raises(ValueError):
        parse_permutation("[2,2,1]")
    with pytest.raises(ValueError):
        parse_permutation("(1 5)", degree=3)
    with pytest.raises(ValueError):
        parse_permutation("[2,1,3] deg=4")


@given(perms_strategy)
@settings(max_examples=80)
def test_parse_print_round_trip(p):
    assert parse_permutation(p.to_cycle_string(), degree=p.degree) == p
    assert parse_permutation(p.to_one_line_string()) == p


def _reference_cycle_string(images) -> str:
    """Cycle notation by its definition: from each moved point not yet
    written, least first, follow the images round, 1-based."""
    written, out = set(), []
    for start in range(len(images)):
        if start in written or images[start] == start:
            continue
        cycle, j = [], start
        while j not in written:
            written.add(j)
            cycle.append(str(j + 1))
            j = images[j]
        out.append("(" + " ".join(cycle) + ")")
    return "".join(out) or "()"


@pytest.mark.parametrize("n", range(1, 7))
def test_cycle_string_of_rows_matches_permutations_on_all_of_sym(n):
    for row in groups.sym_scan_rows(n).tolist():
        text = cycle_string(row)
        assert text == Permutation(tuple(row)).to_cycle_string() \
            == _reference_cycle_string(row)
        assert parse_permutation(text, degree=n).images == tuple(row)
    assert cycle_string(list(range(n))) == identity(n).to_cycle_string() == "()"
    assert cycle_string([0]) == "()"


# Every function in the package that calls Permutation(...): text parsers,
# Permutation's own methods and constructors, and the public functions that
# return Permutations.  Everything else works on image rows.
PERMUTATION_BUILDERS = {
    "perms.parse_permutation",
    "perms.Permutation.__mul__", "perms.Permutation.inverse", "perms.identity",
    "perms.random_permutation", "perms.find_conjugator",
    "groups.FiniteGroup.element", "groups.left_regular_permutation",
    "groups.right_regular_permutation",
    "schreier.LabeledSchreierGraph.images", "schreier.symmetrized_generators",
    "schreier.exact_automorphisms", "schreier.enumerate_eps_automorphisms",
    "rigidity.left_copy_permutations", "rigidity.right_copy_permutations",
    "rigidity.flip_permutation", "rigidity.centralizer_in_sym_bruteforce",
    "stability.AlmostHom.images",
}


def test_permutation_objects_are_built_only_by_the_listed_functions():
    root = Path(permlab.__file__).parent
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            func = child.func if isinstance(child, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) == "Permutation":
                sites.add(".".join(scope))
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if defines else scope)
    for path in root.rglob("*.py"):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        visit(ast.parse(path.read_text(encoding="utf-8")), [module])
    assert sites == PERMUTATION_BUILDERS


# ---------------------------------------------------------------------------
# composition convention


def test_composition_applies_right_factor_first():
    # fixed triple (p, q, p*q) freezing the convention
    p = parse_permutation("(1 2)", degree=3)
    q = parse_permutation("(2 3)", degree=3)
    assert (p * q).to_cycle_string() == "(1 2 3)"
    # (p*q)(i) = p(q(i)) pointwise
    for i in range(3):
        assert (p * q).apply(i) == p.apply(q.apply(i))


def test_inverse_and_power():
    p = parse_permutation("(1 2 3 4)")
    assert p * p.inverse() == identity(4)
    assert p ** 4 == identity(4)
    assert p ** -1 == p.inverse()
    assert p ** 2 == p * p


# ---------------------------------------------------------------------------
# metric


def test_hamming_examples():
    n3 = identity(3)
    assert hamming_distance(n3, parse_permutation("(1 2)", 3)) == Fraction(2, 3)
    assert hamming_distance(n3, parse_permutation("(1 2 3)", 3)) == 1
    assert hamming_distance(n3, n3) == 0
    with pytest.raises(ValueError):
        hamming_distance(identity(3), identity(4))


@given(pairs_same_degree())
@settings(max_examples=60)
def test_metric_axioms(pq):
    p, q = pq
    d = hamming_distance(p, q)
    assert 0 <= d <= 1
    assert d == hamming_distance(q, p)
    assert (d == 0) == (p == q)


@given(st.integers(2, 12), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_bi_invariance(n, rng):
    p, q, x = (random_permutation(rng, n) for _ in range(3))
    d = hamming_distance(p, q)
    assert hamming_distance(x * p, x * q) == d
    assert hamming_distance(p * x, q * x) == d


def test_distance_to_identity_is_one_minus_fixed_fraction():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(2, 40)
        p = random_permutation(rng, n)
        lam = lambda_profile(p)
        assert hamming_distance(identity(n), p) == 1 - lam.fixed_point_fraction


# ---------------------------------------------------------------------------
# cycle type / lambda profile


def test_cycle_type_examples():
    ct = parse_permutation("(1 2 3)(4 5 6)", 6).cycle_type()
    assert ct.as_dict() == {3: 2}
    ct2 = parse_permutation("(1 2)", 5).cycle_type()
    assert ct2.as_dict() == {1: 3, 2: 1}
    assert ct2.degree == 5
    with pytest.raises(ValueError):
        CycleType(((2, 0),))
    with pytest.raises(ValueError):
        CycleType(((3, 1), (2, 1)))


def test_lambda_profile_sums_to_one():
    rng = random.Random(11)
    for _ in range(50):
        p = random_permutation(rng, rng.randrange(2, 25))
        assert lambda_profile(p).total() == 1


def test_lambda_profile_values():
    p = parse_permutation("(1 2 3)(4 5)", 6)
    lam = lambda_profile(p)
    assert lam.fraction(3) == Fraction(1, 2)
    assert lam.fraction(2) == Fraction(1, 3)
    assert lam.fraction(1) == Fraction(1, 6)


# ---------------------------------------------------------------------------
# centralizer order in Sym(n)


def brute_centralizer_order(g: Permutation) -> int:
    gi = g.images
    n = g.degree
    return sum(
        1 for x in itertools.permutations(range(n))
        if all(x[gi[i]] == gi[x[i]] for i in range(n)))


def test_centralizer_order_examples():
    g = parse_permutation("(1 2 3)(4 5 6)", 6)
    assert centralizer_order_sym(g.cycle_type()) == 18
    assert brute_centralizer_order(g) == 18
    h = parse_permutation("(1 2)", 4)
    assert centralizer_order_sym(h.cycle_type()) == 4
    for n in range(1, 6):
        assert centralizer_order_sym(identity(n).cycle_type()) == factorial(n)


def test_centralizer_order_matches_brute_force_through_degree_5():
    # degree <= 5 here; the acceptance suite pushes the same check to degree 7
    for n in range(1, 6):
        for g in all_sym(n):
            assert centralizer_order_sym(g.cycle_type()) == brute_centralizer_order(g)


# ---------------------------------------------------------------------------
# conjugacy


def brute_conjugate(p, q, parity=None):
    """Is some x (optionally restricted to even x) with x p x^-1 = q?"""
    n = p.degree
    pi, qi = p.images, q.images
    for x in itertools.permutations(range(n)):
        xp = Permutation(x)
        if parity == "even" and not xp.is_even():
            continue
        if all(x[pi[i]] == qi[x[i]] for i in range(n)):
            return True
    return False


def test_sym_conjugacy_is_cycle_type():
    g = parse_permutation("(1 2 3)", 5)
    h = parse_permutation("(3 4 5)", 5)
    assert conjugacy_test(g, h, "sym")
    assert not conjugacy_test(g, parse_permutation("(1 2)", 5), "sym")


def test_alt_split_class_example():
    # 5-cycles split in Alt(5): (1 2 3 4 5) is not Alt-conjugate to its square
    g = parse_permutation("(1 2 3 4 5)")
    h = g * g
    assert conjugacy_test(g, h, "sym")
    assert not conjugacy_test(g, h, "alt")
    assert not brute_conjugate(g, h, parity="even")


def test_alt_split_three_cycles_in_alt4():
    # cycle type 3·1 has all lengths odd and distinct, so the class splits:
    # no even conjugator takes (1 2 3) to its inverse inside Alt(4)
    g = parse_permutation("(1 2 3)", 4)
    h = parse_permutation("(1 3 2)", 4)
    assert not conjugacy_test(g, h, "alt")
    assert not brute_conjugate(g, h, parity="even")


def test_alt_nonsplit_class_example():
    # in Alt(5) the fixed-point multiplicity is 2, the class stays whole
    g = parse_permutation("(1 2 3)", 5)
    h = parse_permutation("(1 3 2)", 5)
    assert conjugacy_test(g, h, "alt")
    assert brute_conjugate(g, h, parity="even")


def test_alt_conjugacy_matches_brute_force_degree_5():
    evens = [p for p in all_sym(5) if p.is_even()]
    rng = random.Random(3)
    sample = rng.sample(evens, 12)
    for p in sample:
        for q in sample:
            assert conjugacy_test(p, q, "alt") == brute_conjugate(p, q, "even")


def test_alt_conjugacy_rejects_odd_input():
    with pytest.raises(ValueError):
        conjugacy_test(parse_permutation("(1 2)", 4),
                       parse_permutation("(1 3)", 4), "alt")


def test_find_conjugator():
    g = parse_permutation("(1 2 3)", 5)
    h = parse_permutation("(3 4 5)", 5)
    x = find_conjugator(g, h)
    assert x * g * x.inverse() == h
    assert find_conjugator(g, parse_permutation("(1 2)", 5)) is None


def test_min_conjugate_distance(monkeypatch):
    g = parse_permutation("(1 2 3 4)")
    h = g * g
    # oracle: direct scan over Sym(4), done inline
    best = min(
        hamming_distance(g, x * h * x.inverse()) for x in all_sym(4))
    assert min_conjugate_distance(g, h) == best == Fraction(1, 2)
    assert min_conjugate_distance(g, g) == 0
    with pytest.raises(CapExceededError, match=r"Sym\(9\) are capped at degree 8"):
        min_conjugate_distance(identity(9), identity(9))
    monkeypatch.setattr(groups, "SYM_SCAN_CAP", 3)
    with pytest.raises(CapExceededError, match=r"Sym\(4\) are capped at degree 3"):
        min_conjugate_distance(g, h)
    assert min_conjugate_distance(parse_permutation("(1 2 3)"),
                                  parse_permutation("(1 2)", degree=3)) == Fraction(2, 3)


@given(pairs_same_degree(6))
@settings(max_examples=120, deadline=None)
def test_min_conjugate_distance_matches_a_scan_of_sym_n(pair):
    g, h = pair
    assert min_conjugate_distance(g, h) == min(
        hamming_distance(g, x * h * x.inverse()) for x in all_sym(g.degree))


# ---------------------------------------------------------------------------
# word evaluation


def test_word_examples():
    s = parse_permutation("(1 2 3)")
    assert evaluate_word("s*s^-1", {"s": s}) == identity(3)
    h1 = parse_permutation("(1 2)", 3)
    h2 = parse_permutation("(1 3)", 3)
    w = evaluate_word("[h1,h2]", {"h1": h1, "h2": h2})
    assert w == h1 * h2 * h1.inverse() * h2.inverse()
    assert w.cycle_type().as_dict() == {3: 1}
    assert evaluate_word("1", {}, degree=4) == identity(4)


def test_word_unicode_aliases():
    s = parse_permutation("(1 2)", 2)
    assert evaluate_word("s·s⁻¹", {"s": s}) == identity(2)


def test_word_parenthesized_and_nested():
    a = parse_permutation("(1 2)", 4)
    b = parse_permutation("(2 3)", 4)
    c = parse_permutation("(3 4)", 4)
    v = evaluate_word("([a,b]*c)^-1", {"a": a, "b": b, "c": c})
    w = a * b * a.inverse() * b.inverse() * c
    assert v == w.inverse()


def test_word_errors():
    with pytest.raises(ValueError):
        evaluate_word("s*t", {"s": identity(3)})
    with pytest.raises(ValueError):
        evaluate_word("s", {"s": identity(3), "t": identity(4)})
    with pytest.raises(ValueError):
        evaluate_word("1", {})
    with pytest.raises(ValueError):
        evaluate_word("s*", {"s": identity(3)})
    with pytest.raises(ValueError):
        evaluate_word("s s", {"s": identity(3)})


def test_word_builds_the_identity_only_when_it_reads_one(monkeypatch):
    s, t = parse_permutation("(1 2 3)"), parse_permutation("(1 2)", 3)
    built, inner = [], Permutation.__post_init__
    monkeypatch.setattr(Permutation, "__post_init__",
                        lambda self: built.append(self.images) or inner(self))
    assert evaluate_word("s*t", {"s": s, "t": t}) == s * t
    assert len(built) == 2  # one product here, one in the reference above
    assert evaluate_word("a*1", {"a": s}) == s


@given(st.integers(2, 8), st.randoms(use_true_random=False))
@settings(max_examples=30)
def test_word_group_axioms(n, rng):
    a = random_permutation(rng, n)
    b = random_permutation(rng, n)
    env = {"a": a, "b": b}
    assert evaluate_word("(a*b)^-1", env) == evaluate_word("b^-1*a^-1", env)
    assert evaluate_word("a*1", env) == a
    assert evaluate_word("[a,b]", env) == \
        evaluate_word("a*b*a^-1*b^-1", env)


def test_long_word_does_not_recurse_per_factor():
    a = parse_permutation("(1 2 3 4 5 6 7)")
    assert evaluate_word("*".join(["a"] * 5000), {"a": a}) == a ** 5000


# a word tree, rendered to text and evaluated on raw image tuples by a
# reference that shares no code with permlab

_WORD_SYMBOLS = ("a", "b", "c")


def _word_trees():
    leaves = st.sampled_from([("sym", x) for x in _WORD_SYMBOLS] + [("one",)])
    return st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(st.just("mul"), kids, kids),
        st.tuples(st.just("inv"), kids),
        st.tuples(st.just("comm"), kids, kids),
        st.tuples(st.just("paren"), kids)), max_leaves=12)


def _word_text(node) -> str:
    kind = node[0]
    if kind == "sym":
        return node[1]
    if kind == "one":
        return "1"
    if kind == "paren":
        return f"({_word_text(node[1])})"
    if kind == "inv":
        inner = _word_text(node[1])
        return f"{inner}^-1" if node[1][0] in ("sym", "one", "comm", "paren") \
            else f"({inner})^-1"
    if kind == "mul":
        return f"{_word_text(node[1])} * {_word_text(node[2])}"
    return f"[{_word_text(node[1])}, {_word_text(node[2])}]"


def _ref_compose(p, q):
    return tuple(p[j] for j in q)


def _ref_inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _ref_word(node, env, n):
    kind = node[0]
    if kind == "sym":
        return env[node[1]]
    if kind == "one":
        return tuple(range(n))
    if kind == "paren":
        return _ref_word(node[1], env, n)
    if kind == "inv":
        return _ref_inverse(_ref_word(node[1], env, n))
    a, b = _ref_word(node[1], env, n), _ref_word(node[2], env, n)
    if kind == "mul":
        return _ref_compose(a, b)
    return _ref_compose(_ref_compose(a, b),
                        _ref_compose(_ref_inverse(a), _ref_inverse(b)))


@given(st.sampled_from([4, 5]).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), min_size=3, max_size=3))),
    _word_trees())
@settings(max_examples=200)
def test_word_matches_tuple_reference(degree_and_images, tree):
    n, images = degree_and_images
    env = dict(zip(_WORD_SYMBOLS, (tuple(p) for p in images)))
    value = evaluate_word(_word_text(tree),
                          {x: Permutation(p) for x, p in env.items()})
    assert value.images == _ref_word(tree, env, n)
