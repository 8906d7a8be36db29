"""Group model: constructors, centralizers, classes, subgroup machinery."""

import itertools
import time
from collections import Counter
from functools import partial
from math import factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permlab import groups
from permlab.errors import CapExceededError
from permlab.fo.evaluate import _orbit_reps
from permlab.groups import (
    TABLE_CAP,
    FiniteGroup,
    GroupSpec,
    are_isomorphic,
    construct_group,
    default_corpus,
    element_order_spectrum,
    extend,
    generated_subgroup,
    generating_subset,
    internal_direct_factor_check,
    is_abelian,
    is_simple_bruteforce,
    is_subgroup,
    iter_alt_subgroups,
    iterated_product_stabilization,
    left_regular_permutation,
    orbit,
    parse_group_spec,
    right_regular_permutation,
    set_product,
    subgroup_as_group,
    subgroup_index,
    subgroup_search_iso_alt,
    sym_scan_rows,
)
from permlab.perms import Permutation, centralizer_order_sym, parse_permutation
from permlab.rigidity import action_from_group
from permlab.schreier import LabeledSchreierGraph, components


def G(spec):
    return construct_group(spec)


def idx(group, cycles):
    return group.index_of(parse_permutation(f"{cycles} deg={group.degree}"))


# -- spec parsing -----------------------------------------------------------

def test_spec_string_forms():
    assert parse_group_spec("alt5") == GroupSpec("alt", 5)
    assert parse_group_spec("Alt(5)") == GroupSpec("alt", 5)
    assert parse_group_spec("sym:4") == GroupSpec("sym", 4)
    assert parse_group_spec("z6") == GroupSpec("cyclic", 6)
    assert parse_group_spec("d8") == GroupSpec("dihedral", 8)
    assert parse_group_spec("psl2_7") == GroupSpec("psl2", 7)
    assert parse_group_spec("psl2(11)") == GroupSpec("psl2", 11)
    s = parse_group_spec("generated[(1 2 3),(2 3 4)]")
    assert s.kind == "generated" and s.gens == ("(1 2 3)", "(2 3 4)")
    assert parse_group_spec({"kind": "alt", "n": 6}) == GroupSpec("alt", 6)
    with pytest.raises(ValueError):
        parse_group_spec("frobenius20")


def test_spec_canonical_name_round_trip():
    for spec in default_corpus():
        assert parse_group_spec(spec.canonical_name()) == spec
        assert parse_group_spec(spec.as_dict()) == spec


# -- constructor sanity -----------------------------------------------------

@pytest.mark.parametrize("kind,n,order", [
    ("sym", 1, 1), ("sym", 3, 6), ("sym", 5, 120),
    ("alt", 3, 3), ("alt", 4, 12), ("alt", 5, 60), ("alt", 6, 360),
    ("cyclic", 1, 1), ("cyclic", 12, 12),
    ("dihedral", 8, 8), ("dihedral", 12, 12),
])
def test_constructor_orders(kind, n, order):
    g = G(GroupSpec(kind, n))
    assert len(g) == order
    assert generated_subgroup(g, g.generators) == frozenset(range(order))


@pytest.mark.parametrize("p,order", [(5, 60), (7, 168), (11, 660), (13, 1092)])
def test_psl2_orders(p, order):
    g = G(GroupSpec("psl2", p))
    assert len(g) == order
    assert g.degree == p + 1


def test_generated_closure_alt4():
    g = G("generated[(1 2 3),(2 3 4)]")
    assert len(g) == 12
    assert all(_tuple_is_even_oracle(t) for t in (g.element_tuple(i) for i in range(12)))


def _tuple_is_even_oracle(t):
    inversions = sum(1 for i, j in itertools.combinations(range(len(t)), 2)
                     if t[i] > t[j])
    return inversions % 2 == 0


def test_group_arithmetic_consistency():
    g = G("sym4")
    for i in range(0, len(g), 5):
        for j in range(0, len(g), 7):
            pi, pj = g.element(i), g.element(j)
            assert g.element(g.mul(i, j)) == pi * pj
        assert g.element(g.inv(i)) == g.element(i).inverse()
        assert g.order_of(i) == g.element(i).order()
    assert g.power(idx(g, "(1 2 3 4)"), 2) == idx(g, "(1 3)(2 4)")
    assert g.power(idx(g, "(1 2 3 4)"), -1) == idx(g, "(1 4 3 2)")


def _raw_compose(p, q):
    return tuple(p[j] for j in q)


def _raw_invert(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _alt4_without_generators():
    s4 = G("sym4")
    return subgroup_as_group(s4, [x for x in range(24) if s4.element(x).is_even()])


@pytest.mark.parametrize("spec", [
    "sym4", "psl2(7)", "dihedral(12)", "generated[(1 2 3 4),(1 2),(16 17)]",
    "alt4 in sym4"])
def test_cayley_table_matches_tuple_composition(spec):
    # "alt4 in sym4" has no generators known: the table picks its own
    g = _alt4_without_generators() if spec == "alt4 in sym4" else G(spec)
    table, inv = g.table()
    elems = [g.element_tuple(i) for i in range(len(g))]
    assert table.shape == (len(g), len(g)) and inv.shape == (len(g),)
    for i, p in enumerate(elems):
        assert inv[i] == g.index_of(_raw_invert(p))
        assert table[i].tolist() == [g.index_of(_raw_compose(p, q)) for q in elems]


def test_cayley_table_is_lazy_and_capped():
    fresh = subgroup_as_group(G("alt5"), range(60))
    assert fresh._table is None  # never built at construction
    fresh.mul(1, 2)
    assert fresh._table is not None
    g = G("sym7")
    assert len(g) > TABLE_CAP and g.table() is None
    a, b = idx(g, "(1 2 3 4 5 6 7)"), idx(g, "(1 2)")
    assert g.element(g.mul(a, b)) == g.element(a) * g.element(b)
    assert g.element(g.inv(a)) == g.element(a).inverse()


@pytest.mark.parametrize("spec", [
    "sym7", "generated[(1 2),(1 2 3 4 5 6 7),(8 9 10 11 12 13 14 15 16)]"])
def test_products_above_the_table_cap_match_tuple_composition(spec):
    # degree 7 keys scalar products in Python; degree 16 takes the bytes keys
    g = G(spec)
    assert len(g) == {"sym7": 5040}.get(spec, 45360) and g.table() is None
    a, b = (np.arange(0, len(g), step) for step in (97, 131))
    a = a[:len(b)]

    def product(i, j):
        return g.index_of(_raw_compose(g.element_tuple(i), g.element_tuple(j)))
    want = [product(i, j) for i, j in zip(a.tolist(), b.tolist())]
    assert [g.mul(i, j) for i, j in zip(a.tolist(), b.tolist())] == want
    assert g.mul_many(a, b).tolist() == want
    grid = g.mul_many(a[:5, None], b[:7])
    assert grid.tolist() == [[product(i, j) for j in b[:7].tolist()] for i in a[:5].tolist()]
    assert g.mul_many(int(a[1]), b[:7]).tolist() == grid[1].tolist()
    assert g.mul_many(a[:5], int(b[2])).tolist() == grid[:, 2].tolist()


def test_element_lookup_errors():
    g = G("alt4")
    with pytest.raises(ValueError):
        g.index_of(parse_permutation("(1 2) deg=4"))  # odd, not in Alt(4)
    with pytest.raises(ValueError):
        g.index_of(parse_permutation("(1 2 3)"))  # degree 3, group degree 4


# -- conjugacy classes ------------------------------------------------------

def brute_classes(g):
    classes = set()
    for x in range(len(g)):
        classes.add(frozenset(g.conj(x, by) for by in range(len(g))))
    return classes


@pytest.mark.parametrize("spec", [
    "sym3", "sym4", "alt4", "alt5", "d8", "z6", "dihedral(12)",
    "generated[(1 2 3 4),(1 2),(16 17)]", "alt4 in sym4"])
def test_conjugacy_classes_match_bruteforce(spec):
    g = _alt4_without_generators() if spec == "alt4 in sym4" else G(spec)
    classes = g.conjugacy_classes()
    assert set(classes) == brute_classes(g)
    keys = [(len(c), min(c)) for c in classes]
    assert keys == sorted(keys)
    assert sum(len(c) for c in classes) == len(g)
    assert g.class_representatives() == [least for _size, least in keys]
    assert all(g.class_of(x) == c for c in classes for x in c)
    assert all(g.are_conjugate(x, y) == (y in g.class_of(x))
               for x in range(len(g)) for y in range(len(g)))


def test_classes_of_a_set_not_closed_under_conjugation_raise():
    # {1, (1 2), (2 3)} with both transpositions as "generators": conjugating
    # (2 3) by (1 2) gives (1 3), which the element list lacks
    g = FiniteGroup([(0, 1, 2), (1, 0, 2), (0, 2, 1)], "not a group", [1, 2])
    with pytest.raises(ValueError):
        g.conjugacy_classes()


def test_conjugacy_classes_walk_no_orbit(monkeypatch):
    # the class partition comes from numpy kernels, not from the scalar
    # `orbit` walk per element; fresh groups so nothing is cached
    calls = []
    real = groups.orbit
    monkeypatch.setattr(groups, "orbit",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    for kind in ("sym", "alt"):
        g = groups._build_sym_or_alt(kind, 8)
        assert len(g.conjugacy_classes()) == {"sym": 22, "alt": 14}[kind]
    assert calls == []


@pytest.mark.parametrize("spec", [
    *(s.canonical_name() for s in default_corpus()), "sym7", "alt7", "sym8", "alt8",
    "psl2(11)", "psl2(13)", "generated[(1 2 3 4),(1 2),(16 17)]", "psl2(7) image",
    "alt4 in sym4", "fresh sym9", "fresh alt9",
    # Sym(4) x 2^8 on 20 points: 6,144 elements in 1,280 classes, above
    # TABLE_CAP, whose cycle types never fill up as in Sym(20)
    "generated[(1 2),(1 2 3 4),(5 6),(7 8),(9 10),(11 12),(13 14),(15 16),(17 18),(19 20)]"])
def test_class_scan_matches_conjugation_orbits(spec):
    # the oracle is the conjugation orbits under the generators; then
    # `are_conjugate` of a sample with every representative, asked before
    # any partition is built, and the partition's class index
    if spec == "alt4 in sym4":
        g = _alt4_without_generators()
    elif spec == "psl2(7) image":  # degree 168, so its rows are keyed by bytes
        g = action_from_group(G("psl2(7)")).image_group()
    elif spec.startswith("fresh"):
        g = groups._build_sym_or_alt(spec[6:9], 9)
    else:
        g = G(spec)
    labels = g.conjugation_orbits(g.generators)
    reps, _sizes, order = groups._size_order(labels)
    reps = reps[order].tolist()
    g._memo.clear()
    assert g.class_representatives() == reps
    sample = range(len(g)) if len(g) <= 200 else \
        np.random.default_rng(0).choice(len(g), 200, replace=False).tolist()
    for x in sample:
        assert [g.are_conjugate(x, r) for r in reps] == [labels[x] == r for r in reps]
    class_of, partition_reps = g._partition()
    assert partition_reps == reps
    assert np.array_equal(np.array(reps)[class_of], labels)


# A reference for the kernel's three callers: orbits of tuple conjugation
# walked by `orbit`, conjugating by every element of the acting subgroup.

def _tuple_conj(g, x):
    return _raw_compose(_raw_compose(g, x), _raw_invert(g))


def _reference_orbits(g, acting, points):
    """Orbits (sorted index lists) of conjugation by the elements `acting`
    that meet `points`, in order of their first point in `points`."""
    maps = [partial(_tuple_conj, g.element_tuple(a)) for a in acting]
    seen, out = set(), []
    for x in points:
        if x not in seen:
            orb = sorted(g.index_of(t) for t in orbit(g.element_tuple(x), maps))
            seen.update(orb)
            out.append(orb)
    return out


def _by_size(orbs):
    return sorted(orbs, key=lambda o: (len(o), o[0]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_conjugation_kernel_matches_reference_orbits(data):
    degree = data.draw(st.integers(1, 6))
    gens = data.draw(st.lists(st.permutations(range(degree)).map(tuple),
                              min_size=1, max_size=3))
    try:
        g = groups._generated_group(gens, "random", cap=200)
    except CapExceededError:
        assume(False)
    n = len(g)
    everything = range(n)
    assert g.conjugacy_classes() == tuple(
        frozenset(o) for o in _by_size(_reference_orbits(g, everything, everything)))
    fixed = data.draw(st.frozensets(st.integers(0, n - 1), max_size=3))
    cent = [x for x in everything
            if all(_raw_compose(g.element_tuple(x), g.element_tuple(f)) ==
                   _raw_compose(g.element_tuple(f), g.element_tuple(x)) for f in fixed)]
    assert _orbit_reps(g, fixed) == [
        o[0] for o in _by_size(_reference_orbits(g, cent, everything))]
    W = generated_subgroup(g, data.draw(st.lists(st.integers(0, n - 1), max_size=2)))
    assert groups._subgroup_class_reps(g, W) == tuple(
        o[0] for o in _reference_orbits(g, sorted(W), sorted(W)))


def test_class_of_membership():
    g = G("sym4")
    i = idx(g, "(1 2)")
    cls = g.class_of(i)
    assert len(cls) == 6
    assert all(g.element(x).cycle_type() == g.element(i).cycle_type() for x in cls)


# -- centralizers -----------------------------------------------------------

def brute_centralizer(g, targets):
    return frozenset(
        x for x in range(len(g))
        if all(g.mul(x, t) == g.mul(t, x) for t in targets))


def test_centralizer_sym3_example():
    g = G("sym3")
    c = g.centralizer_of([idx(g, "(1 2 3)")])
    assert len(c) == 3
    assert c == brute_centralizer(g, [idx(g, "(1 2 3)")])


def test_centralizer_of_empty_set_is_whole_group():
    g = G("sym3")
    assert g.centralizer_of([]) == frozenset(range(len(g)))
    # every central key shares that one set instead of holding a copy
    z4 = G("z4")
    assert z4.centralizer_of([1, 2]) is z4.centralizer_of([]) is \
        z4.centralizer_of([z4.identity_index])


def test_centralizer_alt7_three_cycle():
    g = G("alt7")
    c = g.centralizer_of([idx(g, "(1 2 3)")])
    # |C_Alt(7)((1 2 3))| = |C_Sym(7)| / 2 = (3 * 4!) / 2 = 36
    assert len(c) == 36
    assert is_subgroup(g, c)


def test_centralizer_matches_bruteforce_at_two_sizes():
    g = G("alt5")  # order 60
    h = G("alt7")  # order 2520
    for grp in (g, h):
        t = idx(grp, "(1 2)(3 4)")
        assert grp.centralizer_of([t]) == brute_centralizer(grp, [t])


@pytest.mark.parametrize("spec", ["sym5", "alt6", "psl2(7)", "dihedral(12)"])
def test_centralizer_of_every_class_rep_matches_bruteforce(spec):
    g = G(spec)
    for r in g.class_representatives():
        assert g.centralizer_of([r]) == brute_centralizer(g, [r]), (spec, r)


def test_centralizer_of_multi_element_keys_matches_bruteforce():
    g = G("sym5")
    a, b = idx(g, "(1 2 3)"), idx(g, "(3 4 5)")
    assert g.mul(a, b) != g.mul(b, a)
    klein = generated_subgroup(g, [idx(g, "(1 2)"), idx(g, "(3 4)")])
    # elements with fixed points, whose supports differ
    fixers = [idx(g, "(1 2)"), idx(g, "(2 3 4)"), idx(g, "(1 5)(2 3)")]
    for key in ([a, b], sorted(klein), fixers, [idx(g, "(1 2 3)"), idx(g, "(4 5)")]):
        assert g.centralizer_of(key) == brute_centralizer(g, key), key
    h = G("alt6")
    sub = generated_subgroup(h, [idx(h, "(1 2 3)"), idx(h, "(1 2)(3 4)")])
    assert len(sub) == 12
    assert h.centralizer_of(sub) == brute_centralizer(h, sorted(sub))


@pytest.mark.parametrize("spec", ["sym9", "alt9"])
def test_centralizer_orders_are_group_order_over_class_size(spec):
    # |C(g)| = |G| / |g^G|, with the class sizes from the conjugation kernel
    g = G(spec)
    for r, cls in zip(g.class_representatives(), g.conjugacy_classes()):
        assert len(g.centralizer_of([r])) * len(cls) == len(g), r


@pytest.mark.parametrize("n", range(1, 8))
def test_sym_centralizer_rows_are_the_commuting_rows_of_sym(n):
    sym = sym_scan_rows(n)
    for r in G(f"sym{n}").class_representatives():  # one per cycle type
        p = G(f"sym{n}").element(r)
        rows = groups._sym_centralizer_rows(p.images)
        assert rows.dtype == np.int32
        assert len({tuple(row) for row in rows.tolist()}) == len(rows)
        assert len(rows) == centralizer_order_sym(p.cycle_type())
        g = np.array(p.images)
        assert (rows[:, g] == g[rows]).all()  # x·p = p·x
        commuting = sym[(sym[:, g] == g[sym]).all(axis=1)]
        assert sorted(map(tuple, rows.tolist())) == sorted(map(tuple, commuting.tolist()))


def elimination_centralizer(g, key):
    """The centralizer by candidate elimination from every row, as
    `centralizer_of` runs it when no generator of the key has fewer Sym(d)
    centralizer rows than |G|: per generator s of the key and point i moved
    by s, keep the rows x with x(s(i)) = s(x(i))."""
    mat, cand = g.matrix, np.arange(len(g))
    for s in generating_subset(g, frozenset(key)):
        sarr = mat[s]
        for i in np.flatnonzero(sarr != np.arange(g.degree)).tolist():
            cand = cand[mat[cand, sarr[i]] == sarr[mat[cand, i]]]
    return frozenset(cand.tolist())


def test_centralizer_of_class_reps_matches_the_elimination_scan():
    image = action_from_group(G("alt5")).image_group()
    # Dih(17) on 17 points: its 17-cycles seed candidates from Sym(17) (17 < 34)
    dihedral17 = "generated[(" + " ".join(map(str, range(1, 18))) + "),(1 17)(2 16)" \
        "(3 15)(4 14)(5 13)(6 12)(7 11)(8 10)]"
    for g in (G("sym8"), G("alt8"), G("psl2(13)"),
              G("generated[(1 2 3 4),(1 2),(16 17)]"), G(dihedral17), image):
        assert g.degree != 17 or g._keys.dtype.kind == "V"  # bytes keys
        for r in g.class_representatives():
            assert g.centralizer_of([r]) == elimination_centralizer(g, [r]), (g.name, r)


def test_centralizer_of_multi_element_keys_matches_the_elimination_scan():
    for spec, keys in [("sym8", [["(1 2)", "(3 4 5)"], ["(1 2 3)(4 5)", "(6 7)"],
                                 ["(1 2)(3 4)", "(1 3)(2 4)"]]),
                       ("generated[(1 2 3 4),(1 2),(16 17)]",
                        [["(1 2)", "(16 17)"], ["(1 2)(3 4)", "(1 3)(2 4)"]])]:
        g = G(spec)
        for key in keys:
            key = [idx(g, c) for c in key]
            assert g.centralizer_of(key) == elimination_centralizer(g, key), (spec, key)


@pytest.mark.parametrize("spec, cycles, built", [
    ("psl2(13)", "(1 2 3 4 5 6 7 8 9 10 11 12 13)", True),  # 13 < 1,092
    ("sym8", "(7 8)", True),  # 1,440 < 40,320
    ("psl2(13)", "(1 14)(2 13)(3 7)(4 5)(8 12)(10 11)", False),  # 92,160 >= 1,092
    ("cyclic(12)", "(1 2 3 4 5 6 7 8 9 10 11 12)", False),  # 12 = |G|
])
def test_centralizer_of_candidates_on_both_sides_of_the_order_test(
        monkeypatch, spec, cycles, built):
    g = FiniteGroup(G(spec).matrix, spec)  # no Cayley table: the row path
    x = idx(g, cycles)
    assert (centralizer_order_sym(g.element(x).cycle_type()) < len(g)) == built
    calls = []
    rows = groups._sym_centralizer_rows
    monkeypatch.setattr(groups, "_sym_centralizer_rows",
                        lambda p: calls.append(p) or rows(p))
    assert g.centralizer_of([x]) == elimination_centralizer(g, [x])
    assert len(calls) == built


def _table_and_row_paths(g, monkeypatch, tabled):
    """Subgroup, centralizer and conjugation-orbit results of `g` on class
    representatives, their pairs and the subgroups they generate; with
    `tabled`, no row closure or Sym(d) seed may run (psl2(13)'s 13-cycles
    would seed one)."""
    if tabled:
        fail = lambda *args: pytest.fail("a row path ran")  # noqa: E731
        monkeypatch.setattr(groups, "_closure", fail)
        monkeypatch.setattr(groups, "_sym_centralizer_rows", fail)
    reps = construct_group(g.name).class_representatives()
    out = []
    for key in [[x] for x in reps] + [list(p) for p in itertools.combinations(reps, 2)]:
        H = generated_subgroup(g, key)
        smaller = sorted(H)[:-1]
        out.append((generating_subset(g, key), H, is_subgroup(g, H), is_subgroup(g, smaller),
                    generating_subset(g, key, cap=len(H)),
                    generating_subset(g, key, cap=len(H) - 1),
                    g.centralizer_of(key), g.centralizer_of(H),
                    g.conjugation_orbits(key).tolist(), g.conjugation_orbits(
                        generating_subset(g, key), np.array(sorted(H))).tolist()))
    # the untabled group's own class scan would build its table
    classes = construct_group(g.name).conjugacy_classes()
    out.append(is_simple_bruteforce(g) if tabled else all(
        len(generated_subgroup(g, c)) == len(g) for c in classes if g.identity_index not in c))
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("spec", [s.canonical_name() for s in default_corpus()]
                         + ["psl2(13)", "alt(7)"])
def test_table_path_matches_the_row_path(monkeypatch, spec):
    tabled, rows = (FiniteGroup(G(spec).matrix, spec) for _ in range(2))
    tabled.table()
    assert _table_and_row_paths(tabled, monkeypatch, True) == \
        _table_and_row_paths(rows, monkeypatch, False)
    assert rows._table is None


@pytest.mark.parametrize("spec", [s.canonical_name() for s in default_corpus()])
def test_one_element_centralizer_keys_match_the_generating_subset_path(spec):
    # {x} is its own generating subset; {x, 1} still closes ⟨x, 1⟩ by
    # generating_subset, to the same generators, under another memo key
    for tabled in (True, False):
        g = FiniteGroup(G(spec).matrix, spec)
        if tabled:
            g.table()
        one = g.identity_index
        assert g.centralizer_of([one]) == g.centralizer_of([]) == frozenset(range(len(g)))
        for x in range(len(g)):
            assert g.centralizer_of([x]) == g.centralizer_of([x, one])
        assert (g._table is None) != tabled


def test_is_central_means_commuting_with_every_generator():
    z12, d8 = G("z12"), G("d8")
    assert z12.is_central(range(len(z12)))
    assert d8.is_central([]) and d8.is_central([d8.identity_index])
    center = {x for x in range(len(d8)) if d8.is_central([x])}
    assert center == d8.centralizer_of(range(len(d8))) and len(center) == 2
    assert not d8.is_central(range(len(d8)))


def test_triple_centralizer_identity():
    # C(C(C(S))) = C(S) for a sample of seed sets
    g = G("sym4")
    seeds = [[idx(g, "(1 2)")], [idx(g, "(1 2 3)")],
             [idx(g, "(1 2 3 4)")], [idx(g, "(1 2)"), idx(g, "(3 4)")]]
    for s in seeds:
        c1 = g.centralizer_of(s)
        c2 = g.centralizer_of(c1)
        c3 = g.centralizer_of(c2)
        assert c3 == c1


# -- set algebra ------------------------------------------------------------

def test_class_squared_covers_alt4():
    g = G("sym4")
    cls = g.class_of(idx(g, "(1 2)"))
    prod = set_product(g, cls, cls)
    assert len(prod) == 12
    assert all(_tuple_is_even_oracle(g.element_tuple(x)) for x in prod)


def test_generated_subgroup_and_index():
    g = G("sym4")
    h = generated_subgroup(g, [idx(g, "(1 2 3)"), idx(g, "(1 2)(3 4)")])
    assert len(h) == 12
    assert subgroup_index(g, h) == 2
    assert is_subgroup(g, h)
    assert not is_subgroup(g, {idx(g, "(1 2 3)")})


def _closed_pairwise(g, s):
    return g.identity_index in s and all(
        g.mul(a, b) in s for a in s for b in s)


def test_is_subgroup_matches_pairwise_closure_on_sym4():
    g = G("sym4")
    subgroups = {generated_subgroup(g, pair)
                 for pair in itertools.combinations_with_replacement(range(24), 2)}
    assert len(subgroups) == 30
    for h in subgroups:
        assert is_subgroup(g, h) and _closed_pairwise(g, h)
        for x in range(24):
            near = h ^ {x}  # one element added or removed
            if near:
                assert is_subgroup(g, near) == _closed_pairwise(g, near)


@given(st.sampled_from(["sym3", "z6", "alt4", "d8", "d10"]), st.data())
@settings(max_examples=150, deadline=None)
def test_is_subgroup_matches_pairwise_closure_on_random_subsets(spec, data):
    g = G(spec)
    s = frozenset(data.draw(st.lists(st.integers(0, len(g) - 1), max_size=len(g))))
    if data.draw(st.booleans()):
        s |= {g.identity_index}
    assert is_subgroup(g, s) == _closed_pairwise(g, s)


def test_is_subgroup_of_a_large_centralizer_within_budget(monkeypatch):
    g = G("sym9")
    c = g.centralizer_of({idx(g, "(1 2)")})
    assert len(c) == 2 * factorial(7)
    g._memo.pop(("is_subgroup", c), None)
    products = 0
    mul, closure = g.mul, groups._closure

    def counting_mul(i, j):
        nonlocal products
        products += 1
        return mul(i, j)

    def counting_closure(gen_rows, cap=None):
        # every row of a finished closure is composed with every generator;
        # a capped one stops within `cap` rows
        nonlocal products
        rows = closure(gen_rows, cap)
        products += len(gen_rows) * (cap if rows is None else len(rows))
        return rows
    monkeypatch.setattr(g, "mul", counting_mul)
    monkeypatch.setattr(groups, "_closure", counting_closure)
    t0 = time.perf_counter()
    assert is_subgroup(g, c)
    assert time.perf_counter() - t0 < 10.0
    assert 0 < products < 100 * len(c)  # the pairwise test makes |C|² = 10^8


def test_generating_subset_is_minimalish_and_generates():
    g = G("alt5")
    sub = generating_subset(g)
    assert len(generated_subgroup(g, sub)) == 60
    assert len(sub) <= 3


def test_power_chain_literal_vs_generated():
    g = G("sym3")
    # A = {(1 2)}: literal powers alternate {(1 2)}, {1}; intersection empty
    a = frozenset([idx(g, "(1 2)")])
    assert iterated_product_stabilization(g, a, "literal") == frozenset()
    assert iterated_product_stabilization(g, a, "generated") == \
        frozenset({g.identity_index, idx(g, "(1 2)")})
    # with the identity included the literal chain ascends to <A>
    b = a | {g.identity_index}
    assert iterated_product_stabilization(g, b, "literal") == \
        generated_subgroup(g, b)
    with pytest.raises(ValueError):
        iterated_product_stabilization(g, a, "sideways")


def test_direct_factor_example_centralizer_in_alt7():
    g = G("alt7")
    h = g.centralizer_of([idx(g, "(1 2 3)")])
    a = generated_subgroup(g, [idx(g, "(4 5 6)"), idx(g, "(4 5)(6 7)")])
    b = generated_subgroup(g, [idx(g, "(1 2 3)")])
    assert len(a) == 12 and len(b) == 3
    assert internal_direct_factor_check(g, h, a, b)
    # same A against a B that leaks outside the centralizer product fails
    bad_b = generated_subgroup(g, [idx(g, "(1 2 3)"), idx(g, "(4 5 6)")])
    assert not internal_direct_factor_check(g, h, a, bad_b)


def test_direct_factor_check_matches_its_definition():
    # every pair of cyclic subgroups of Sym(4) and of D(12), against the
    # subgroup they generate: a·b = b·a throughout, A∩B = 1 and A·B = H
    for spec in ("sym4", "dihedral12"):
        g = G(spec)
        cyclic = {generated_subgroup(g, [x]) for x in range(len(g))}
        for a in cyclic:
            for b in cyclic:
                h = generated_subgroup(g, a | b)
                products = {g.mul(x, y) for x in a for y in b}
                expected = a & b == {g.identity_index} and products == h and \
                    all(g.mul(x, y) == g.mul(y, x) for x in a for y in b)
                assert internal_direct_factor_check(g, h, a, b) == expected


def test_direct_factor_requires_subgroup():
    g = G("sym3")
    not_closed = {g.identity_index, idx(g, "(1 2)"), idx(g, "(1 3)")}
    with pytest.raises(ValueError):
        internal_direct_factor_check(
            g, not_closed, {g.identity_index}, not_closed)
    # trivial decomposition of a subgroup passes
    h = generated_subgroup(g, [idx(g, "(1 2 3)")])
    assert internal_direct_factor_check(g, h, h, {g.identity_index})


# -- simplicity and the corpus ----------------------------------------------

def test_simplicity_known_values():
    assert is_simple_bruteforce(G("alt5"))
    assert is_simple_bruteforce(G("alt6"))
    assert is_simple_bruteforce(G("psl2_7"))
    assert is_simple_bruteforce(G("z7"))  # simple but abelian
    assert not is_simple_bruteforce(G("alt4"))
    assert not is_simple_bruteforce(G("sym5"))
    assert not is_simple_bruteforce(G("d10"))
    assert not is_simple_bruteforce(G("z6"))
    assert not is_simple_bruteforce(G("cyclic1"))


def test_simplicity_cap(monkeypatch):
    monkeypatch.setattr(groups, "SIMPLICITY_CAP", 23)
    with pytest.raises(CapExceededError, match="capped at 23 elements"):
        is_simple_bruteforce(G("sym4"))
    monkeypatch.setattr(groups, "SIMPLICITY_CAP", 24)
    assert not is_simple_bruteforce(G("sym4"))


def test_is_abelian():
    assert is_abelian(G("z12"))
    assert not is_abelian(G("d8"))
    assert not is_abelian(G("alt4"))


def test_corpus_simple_nonabelian_members():
    expected_simple_nonabelian = {"alt(5)", "alt(6)", "psl2(5)", "psl2(7)", "psl2(11)"}
    got = set()
    for spec in default_corpus():
        g = G(spec)
        if is_simple_bruteforce(g) and not is_abelian(g):
            got.add(spec.canonical_name())
    assert got == expected_simple_nonabelian


def test_spectrum_and_isomorphism_oracle():
    a5 = G("alt5")
    psl25 = G("psl2_5")
    assert element_order_spectrum(a5) == element_order_spectrum(psl25)
    assert are_isomorphic(a5, psl25)
    assert not are_isomorphic(G("d12"), G("alt4"))
    assert not are_isomorphic(G("z6"), G("sym3"))
    assert are_isomorphic(G("sym3"), G("d6"))


def test_isomorphism_oracle_cap(monkeypatch):
    # Sym(3)'s generators have orders 2 and 3; d6 has 3 elements of order 2
    # and 2 of order 3, so the search tries 3 * 2 generator images
    monkeypatch.setattr(groups, "ISOMORPHISM_CAP", 5)
    with pytest.raises(CapExceededError, match="isomorphism search budget exceeded"):
        are_isomorphic(G("sym3"), G("d6"))
    monkeypatch.setattr(groups, "ISOMORPHISM_CAP", 6)
    assert are_isomorphic(G("sym3"), G("d6"))


@pytest.mark.parametrize("n", range(1, 9))
def test_sym_scan_rows_list_sym_n_in_lexicographic_order(n):
    rows = groups.sym_scan_rows(n)
    assert rows.tolist() == [list(p) for p in itertools.permutations(range(n))]
    assert not rows.flags.writeable


def test_sym_scan_rows_cap(monkeypatch):
    with pytest.raises(CapExceededError, match=r"Sym\(9\) are capped at degree 8"):
        groups.sym_scan_rows(9)
    monkeypatch.setattr(groups, "SYM_SCAN_CAP", 3)
    with pytest.raises(CapExceededError, match=r"Sym\(4\) are capped at degree 3"):
        groups.sym_scan_rows(4)
    assert len(groups.sym_scan_rows(3)) == 6


# -- Alt(l) subgroup search --------------------------------------------------

def test_alt_subgroup_search_finds_point_stabilizer():
    g = G("alt6")
    found = subgroup_search_iso_alt(g, 5)
    assert found is not None
    assert len(found) == 60
    sub = subgroup_as_group(g, found)
    assert are_isomorphic(sub, G("alt5"))


def test_alt_subgroup_search_within_centralizer():
    g = G("alt7")
    c = g.centralizer_of([idx(g, "(1 2 3)")])
    found = subgroup_search_iso_alt(g, 4, within=c)
    assert found is not None and len(found) == 12
    assert found <= c
    assert are_isomorphic(subgroup_as_group(g, found), G("alt4"))


def test_alt_subgroup_search_negative():
    assert subgroup_search_iso_alt(G("sym4"), 5) is None
    assert subgroup_search_iso_alt(G("alt5"), 6) is None
    # Sym(4) has no Alt(4)-isomorphic subgroup other than Alt(4) itself;
    # searching inside a Sylow-2 subgroup (order 8) must fail
    g = G("sym4")
    syl = generated_subgroup(g, [idx(g, "(1 2 3 4)"), idx(g, "(1 3)")])
    assert len(syl) == 8
    assert subgroup_search_iso_alt(g, 4, within=syl) is None


def test_alt_subgroup_search_rejects_small_l():
    with pytest.raises(ValueError):
        subgroup_search_iso_alt(G("alt5"), 3)


def test_iter_alt_subgroups_covers_all_orbits():
    # Alt(5) has exactly 5 subgroups isomorphic to Alt(4) (the point
    # stabilizers), all conjugate; the pruned stream must stay inside that
    # family and hit the (single) conjugacy orbit at least once
    g = G("alt5")
    brute = set()
    for a in range(len(g)):
        for b in range(a, len(g)):
            s = generated_subgroup(g, [a, b])
            if len(s) == 12:
                brute.add(s)
    assert len(brute) == 5
    subs = set(iter_alt_subgroups(g, 4))
    assert subs and subs <= brute


def _alt_subgroups_unpruned(g, l, within=None):
    """The search with every generating pair closed: no product-order prune."""
    W = frozenset(within) if within is not None else frozenset(range(len(g)))
    target = factorial(l) // 2
    if target > len(W) or len(W) % target:
        return []
    ref = groups._alt_spectrum(l)
    reps = [r for r in groups._subgroup_class_reps(g, W)
            if r != g.identity_index and g.order_of(r) in ref]
    members = [b for b in sorted(W) if b != g.identity_index and g.order_of(b) in ref]
    out, seen = [], set()
    for a in reps:
        for b in members:
            rows = groups._closure(g.matrix[[a, b]], target)
            if rows is None or len(rows) != target:
                continue
            fs = frozenset(g._rank(rows).tolist())
            if fs in seen:
                continue
            seen.add(fs)
            if Counter(g.order_of(x) for x in fs) == ref and \
                    (l < 5 or is_simple_bruteforce(subgroup_as_group(g, fs))):
                out.append(fs)
    return out


@pytest.mark.parametrize("spec", default_corpus(), ids=str)
def test_alt_subgroup_stream_matches_the_unpruned_search(spec):
    g = G(spec)
    for l in (4, 5, 6):
        assert list(iter_alt_subgroups(g, l)) == _alt_subgroups_unpruned(g, l)


def test_alt_subgroup_stream_matches_the_unpruned_search_on_alt9_regions():
    # the regions congruence(1, 3) searches: C(g) for g of order 3
    g = G("alt9")
    for r in g.class_representatives():
        if g.order_of(r) == 3:
            c = g.centralizer_of([r])
            assert list(iter_alt_subgroups(g, 4, within=c)) == \
                _alt_subgroups_unpruned(g, 4, within=c)


@pytest.mark.parametrize("spec, l", [(spec, l) for spec in ("alt6", "alt7", "sym6", "psl2(11)")
                                     for l in (4, 5)] + [("alt9", 4)])
def test_alt_subgroup_stream_skips_only_covered_pairs(spec, l):
    # a b inside an earlier closed ⟨a, b'⟩ gives ⟨a, b⟩ ⊆ ⟨a, b'⟩: a set
    # already seen or too small, so skipping it leaves the stream as it was
    g = G(spec)
    within = g.centralizer_of([idx(g, "(1 2 3)")]) if spec == "alt9" else None
    assert list(iter_alt_subgroups(g, l, within)) == _alt_subgroups_unpruned(g, l, within)


# -- regular representations -------------------------------------------------

def test_regular_representations():
    g = G("sym3")
    for i in range(len(g)):
        left = left_regular_permutation(g, i)
        right = right_regular_permutation(g, i)
        assert left.degree == len(g) and right.degree == len(g)
        assert left.apply(g.identity_index) == i
        assert right.apply(g.identity_index) == i
    a, b = 1, 2
    la, lb = left_regular_permutation(g, a), left_regular_permutation(g, b)
    assert la * lb == left_regular_permutation(g, g.mul(a, b))
    ra, rb = right_regular_permutation(g, a), right_regular_permutation(g, b)
    assert ra * rb == right_regular_permutation(g, g.mul(b, a))
    # left copy and right copy commute elementwise
    assert la * rb == rb * la


# -- the shared orbit and extension routines -----------------------------------------------

def _fixpoint_orbit(seed, perms):
    reached = {seed}
    while True:
        grown = reached | {p[x] for p in perms for x in reached}
        if grown == reached:
            return reached
        reached = grown


_orbit_cases = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(st.permutations(range(n)).map(tuple), max_size=3),
    st.integers(0, n - 1), st.just(n)))


@settings(max_examples=200, deadline=None)
@given(_orbit_cases)
def test_orbit_matches_fixpoint_of_repeated_application(case):
    perms, seed, n = case
    maps = [p.__getitem__ for p in perms]
    got = orbit(seed, maps)
    assert got[0] == seed
    assert len(got) == len(set(got))
    assert set(got) == _fixpoint_orbit(seed, perms)
    assert orbit(seed, maps, cap=len(got)) == got
    if len(got) > 1:
        assert orbit(seed, maps, cap=len(got) - 1) is None


@settings(max_examples=200, deadline=None)
@given(_orbit_cases)
def test_schreier_components_match_orbit_partition(case):
    # the min-label kernel against `orbit` walked from each least point
    perms, _seed, n = case
    perms = perms or [tuple(range(n))]
    g = LabeledSchreierGraph(tuple(f"s{k}" for k in range(len(perms))),
                             tuple(Permutation(p) for p in perms))
    maps = [p.__getitem__ for p in perms]
    parts, covered = [], set()
    for x in range(n):
        if x not in covered:
            parts.append(frozenset(orbit(x, maps)))
            covered |= parts[-1]
    assert components(g) == sorted(parts, key=lambda c: (-len(c), min(c)))


_spread_cases = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.integers(0, 3).flatmap(lambda k: st.tuples(
        st.lists(st.permutations(range(n)).map(tuple), min_size=k, max_size=k),
        st.lists(st.permutations(range(n)).map(tuple), min_size=k, max_size=k))),
    st.integers(0, n - 1), st.just(n)))


@settings(max_examples=200, deadline=None)
@given(_spread_cases)
def test_spread_and_edge_check_match_extend(case):
    # the batched kernel with every root target at once, against the scalar
    # extension of each target along the same edges
    (src, dst), root, n = case
    edges = np.array(src, dtype=np.intp).reshape(-1, n)
    images = np.array(dst, dtype=np.intp).reshape(-1, n)
    got, values = groups.spread(edges, root, np.arange(n), lambda j, v: images[j][v])
    maps = [p.__getitem__ for p in src]
    assert got.tolist() == sorted(orbit(root, maps))
    on = values[got]
    agree = np.ones(n, dtype=bool)
    for s, d in zip(edges, images):
        agree &= (values[s[got]] == d[on]).all(0)
    for t in range(n):
        ref = extend([None] * n, root, t, maps, [p.__getitem__ for p in dst])
        assert agree[t] == (ref is not None)
        if ref is not None:
            assert on[:, t].tolist() == [ref[x] for x in got]


def test_left_table_above_the_table_cap(monkeypatch):
    monkeypatch.setattr(groups, "TABLE_CAP", 10)
    g = groups._build_sym_or_alt("sym", 4)
    assert g.table() is None
    T = g.left_table()
    n = np.arange(len(g))
    assert np.array_equal(T, g.mul_many(n[:, None], n))
    assert np.array_equal(T[:, 0], n) and np.array_equal(T[0], n)


def test_closure_element_order_is_breadth_first():
    # Element indices follow the FIFO discovery order of the closure from the
    # identity, and witnesses and automorphism lists are reported by index.
    assert [G("psl2(7)").element_tuple(i) for i in range(10)] == [
        (0, 1, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 0, 7),
        (7, 6, 3, 2, 5, 4, 1, 0), (2, 3, 4, 5, 6, 0, 1, 7),
        (6, 3, 2, 5, 4, 1, 7, 0), (7, 0, 4, 3, 6, 5, 2, 1),
        (3, 4, 5, 6, 0, 1, 2, 7), (3, 2, 5, 4, 1, 7, 6, 0),
        (0, 4, 3, 6, 5, 2, 7, 1), (7, 1, 5, 4, 0, 6, 3, 2)]
    g = G("generated[(1 2 3 4 5),(1 2)]")
    assert [g.element_tuple(i) for i in range(10)] == [
        (0, 1, 2, 3, 4), (1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (2, 3, 4, 0, 1),
        (0, 2, 3, 4, 1), (2, 1, 3, 4, 0), (3, 4, 0, 1, 2), (2, 3, 4, 1, 0),
        (1, 3, 4, 0, 2), (3, 2, 4, 0, 1)]


def test_extend_grows_generator_images_or_rejects_them():
    z6, z3 = G("z6"), G("z3")
    src = [partial(z6.mul, a) for a in z6.generators]
    hom = extend([None] * len(z6), z6.identity_index, z3.identity_index, src,
                 [partial(z3.mul, b) for b in z3.generators])
    assert hom is not None
    assert all(hom[z6.mul(a, b)] == z3.mul(hom[a], hom[b])
               for a in range(len(z6)) for b in range(len(z6)))
    # a generator of order 3 cannot go to one of order 6
    assert extend([None] * len(z3), z3.identity_index, z6.identity_index,
                  [partial(z3.mul, a) for a in z3.generators],
                  [partial(z6.mul, b) for b in z6.generators]) is None
