"""Two-sided actions, centralizer computations, double-centralizer closure."""

import itertools
from fractions import Fraction

import pytest

import permlab.groups as groups
import permlab.rigidity as rigidity
import permlab.schreier as schreier
from permlab.errors import CapExceededError
from permlab.groups import (SYM_SCAN_CAP, FiniteGroup, construct_group, extend,
                            generating_subset)
from permlab.perms import Permutation, identity, parse_permutation
from permlab.rigidity import (
    BiregularReport, GroupAction, _is_copy,
    action_centralizer, action_from_group, biregular_action,
    biregular_double_centralizer, centralizer_in_sym_bruteforce, centralizer_transitive_action,
    class_power_types, double_centralizer_check, flip_permutation,
    is_regular_via_centralizer, left_copy_permutations, one_discrete_check,
    right_copy_permutations)


def natural_sym3():
    return GroupAction(("a", "b"), (parse_permutation("(1 2)", degree=3),
                                    parse_permutation("(1 2 3)")))


# -- actions ------------------------------------------------------------------------

def test_action_validation():
    with pytest.raises(ValueError):
        GroupAction((), ())
    with pytest.raises(ValueError):
        GroupAction(("a", "b"), (identity(3), identity(4)))


def test_action_basics():
    a = natural_sym3()
    assert a.degree == 3
    assert a.is_transitive()
    assert len(a.image_group()) == 6
    b = GroupAction(("a",), (parse_permutation("(1 2)(3 4)"),))
    assert not b.is_transitive()


def test_action_from_group_uses_stored_generators():
    a = action_from_group(construct_group("sym4"))
    assert a.degree == 4
    assert len(a.image_group()) == 24


# -- the two-sided action ----------------------------------------------------------------

def test_flip_on_cyclic3_fixes_identity_and_swaps_the_rest():
    G = construct_group("cyclic3")
    assert flip_permutation(G).to_cycle_string() == "(2 3)"


def test_biregular_action_shape_and_image():
    G = construct_group("cyclic3")
    act = biregular_action(G)
    assert act.labels == ("L1", "R1", "t")
    assert act.degree == 3
    # left copy, right copy and the flip generate a group of order 2*|G| here
    assert len(act.image_group()) == 6


def test_left_and_right_copies_commute():
    G = construct_group("sym3")
    for l in left_copy_permutations(G):
        for r in right_copy_permutations(G):
            assert l * r == r * l


def test_flip_conjugation_identity_per_generator():
    G = construct_group("dihedral8")
    t = flip_permutation(G)
    act = biregular_action(G)
    by_label = dict(zip(act.labels, act.images))
    for k in (1, 2):
        assert t * by_label[f"L{k}"] * t == by_label[f"R{k}"]


def test_image_group_reads_the_element_cap_at_call_time(monkeypatch):
    sym3 = construct_group("sym3")
    monkeypatch.setattr(groups, "ELEMENT_CAP", 5)
    with pytest.raises(CapExceededError, match="element cap 5"):
        action_from_group(sym3).image_group()


def test_biregular_cap(monkeypatch):
    sym5 = construct_group("sym5")
    monkeypatch.setattr(rigidity, "CLASS_POWER_GROUP_CAP", len(sym5) - 1)
    with pytest.raises(CapExceededError, match="two-sided action capped at groups of size 119"):
        biregular_action(sym5)
    monkeypatch.setattr(rigidity, "CLASS_POWER_GROUP_CAP", len(sym5))
    assert biregular_action(sym5).degree == 120


# -- centralizers ------------------------------------------------------------------------

def test_transitive_centralizer_matches_bruteforce():
    cases = [natural_sym3(),
             GroupAction(("r",), (parse_permutation("(1 2 3 4)"),)),
             GroupAction(("a", "b"), (parse_permutation("(1 2 3)", degree=4),
                                      parse_permutation("(1 2)(3 4)")))]
    for act in cases:
        C = centralizer_transitive_action(act)
        brute = centralizer_in_sym_bruteforce(list(act.images))
        assert {C.element(i).images for i in range(len(C))} == \
            {p.images for p in brute}


def test_transitive_centralizer_rejects_intransitive():
    with pytest.raises(ValueError):
        centralizer_transitive_action(
            GroupAction(("a",), (parse_permutation("(1 2)(3 4)"),)))


def test_bruteforce_centralizer_cap(monkeypatch):
    with pytest.raises(CapExceededError, match=r"Sym\(9\) are capped at degree 8"):
        centralizer_in_sym_bruteforce([identity(9)])
    monkeypatch.setattr(groups, "SYM_SCAN_CAP", 4)
    with pytest.raises(CapExceededError, match=r"Sym\(5\) are capped at degree 4"):
        centralizer_in_sym_bruteforce([identity(5)])
    assert len(centralizer_in_sym_bruteforce([identity(4)])) == 24


def test_action_centralizer_on_mixed_orbits():
    # orbits of sizes 2 and 3 are never label-isomorphic: product structure
    act = GroupAction(("a",), (parse_permutation("(1 2)(3 4 5)"),))
    C = action_centralizer(act)
    assert len(C) == 6
    brute = centralizer_in_sym_bruteforce(list(act.images))
    assert {C.element(i).images for i in range(len(C))} == {p.images for p in brute}


def test_action_centralizer_on_isomorphic_orbits():
    # the swaps between the two orbits commute too: order 8, not 2 × 2
    act = GroupAction(("a",), (parse_permutation("(1 2)(3 4)"),))
    C = action_centralizer(act)
    assert len(C) == 8
    brute = centralizer_in_sym_bruteforce(list(act.images))
    assert {C.element(i).images for i in range(len(C))} == {p.images for p in brute}


# isomorphic orbits, fixed points, two generators, mixed orbit sizes
_INTRANSITIVE = ["(1 2)(3 4)", "(1 2)(3 4)(5 6)", "(1 2 3)(4 5 6)(7 8)",
                 "(1 2)|4", "(1 2 3)|6", "(1 2)(3 4);(5 6)",
                 "(1 2 3 4)(5 6 7 8);(1 5)(2 6)(3 7)(4 8)",
                 "(1 2)(3 4 5)", "(1 2)(3 4)(5 6 7)", "(1 2 3);(4 5)(6 7)"]


def _perms(spec: str) -> list[Permutation]:
    """Semicolon-separated cycles, '|n' padding the degree to n."""
    cycles, _, degree = spec.partition("|")
    parsed = [parse_permutation(c) for c in cycles.split(";")]
    top = max([p.degree for p in parsed] + [int(degree or 0)])
    return [parse_permutation(p.to_cycle_string(), degree=top) for p in parsed]


def _image_set(perms) -> set:
    return {p.images for p in perms}


@pytest.mark.parametrize("spec", ["(1 2 3 4 5 6)", "(1 2);(2 3)|5", "(1 2)(3 4 5);(1 2)",
                                  *_INTRANSITIVE[:6]])
def test_bruteforce_centralizer_matches_the_definition(spec):
    # the array scan against the per-permutation commutation test, in order
    perms = _perms(spec)
    n = perms[0].degree
    expected = [q.images for q in map(Permutation, itertools.permutations(range(n)))
                if all(p * q == q * p for p in perms)]
    assert [q.images for q in centralizer_in_sym_bruteforce(perms)] == expected


@pytest.mark.parametrize("spec", _INTRANSITIVE)
def test_action_centralizer_matches_bruteforce(spec):
    perms = _perms(spec)
    C = action_centralizer(GroupAction(tuple(f"p{k}" for k in range(len(perms))),
                                       tuple(perms)))
    rows = [C.element(i).images for i in range(len(C))]
    assert rows == sorted(rows)  # lexicographic image order
    assert set(rows) == _image_set(centralizer_in_sym_bruteforce(perms))


@pytest.mark.parametrize("spec", _INTRANSITIVE)
def test_double_centralizer_matches_bruteforce(spec):
    perms = _perms(spec)
    r = double_centralizer_check(perms)
    C = centralizer_in_sym_bruteforce(perms)
    assert _image_set(r.centralizer) == _image_set(C)
    assert _image_set(r.double) == _image_set(centralizer_in_sym_bruteforce(C))


def test_double_centralizer_past_the_brute_force_degree():
    # orbits of sizes 2, 3 and 4: the centralizer is C2 × C3 × C4 on them, its
    # own centralizer, twice the order of the cyclic group the input generates
    g = parse_permutation("(1 2)(3 4 5)(6 7 8 9)")
    r = double_centralizer_check([g])
    assert g.degree == 9 > SYM_SCAN_CAP
    assert len(r.subgroup) == 12
    assert len(r.centralizer) == 24
    assert all(c * g == g * c for c in r.centralizer)
    assert _image_set(r.double) == _image_set(r.centralizer)
    assert not r.closes


def test_natural_sym8_double_centralizer_closes():
    # the centralizer is trivial, so the second stage centralizes the
    # identity on eight fixed points: all 40,320 maps, none refused
    r = double_centralizer_check([parse_permutation("(1 2)", degree=8),
                                  parse_permutation("(1 2 3 4 5 6 7 8)")])
    assert [p.images for p in r.centralizer] == [tuple(range(8))]
    assert len(r.double) == 40320 and r.closes
    assert [p.images for p in r.double] == \
        [p.images for p in centralizer_in_sym_bruteforce(r.centralizer)]


def test_action_centralizer_transitive_case_delegates():
    act = natural_sym3()
    assert len(action_centralizer(act)) == 1


# -- double centralizers ----------------------------------------------------------------

def test_full_symmetric_group_closes():
    r = double_centralizer_check([parse_permutation("(1 2)", degree=3),
                                  parse_permutation("(1 2 3)")])
    assert len(r.subgroup) == 6
    assert len(r.centralizer) == 1
    assert len(r.double) == 6
    assert r.closes


def test_cyclic_rotation_closes_and_is_regular():
    r = double_centralizer_check([parse_permutation("(1 2 3 4)")])
    assert len(r.centralizer) == 4
    assert r.closes
    assert is_regular_via_centralizer(
        GroupAction(("r",), (parse_permutation("(1 2 3 4)"),)))


def test_natural_symmetric_action_is_not_regular():
    assert not is_regular_via_centralizer(
        GroupAction(("a", "b"), (parse_permutation("(1 2)", degree=4),
                                 parse_permutation("(1 2 3 4)"))))


def test_regular_action_is_regular_via_centralizer():
    G = construct_group("alt4")
    from permlab.schreier import regular_action_graph
    g = regular_action_graph(G)
    act = GroupAction(g.labels, g.images, name="alt4 regular")
    assert is_regular_via_centralizer(act)


@pytest.mark.parametrize("name", ["cyclic5", "sym3", "alt4", "dihedral8"])
def test_biregular_double_centralizer_report(name):
    G = construct_group(name)
    r = biregular_double_centralizer(G)
    assert r.centralizer_is_right_copy
    assert r.double_is_left_copy
    assert r.flip_conjugates_centralizer_to_left
    assert r.generator_identities
    assert r.centralizer_order == len(G)


def _image_set(perms):
    return {p.images for p in perms}


def _extend_centralizer(n, gens):
    """Centralizer in Sym(n) of transitive index maps `gens`: each image of
    point 0 extended one at a time by the scalar `extend`."""
    maps = [g.__getitem__ for g in gens]
    found = (extend([None] * n, 0, y, maps, maps) for y in range(n))
    return [Permutation(tuple(m)) for m in found if m is not None]


@pytest.mark.parametrize("name", ["cyclic5", "sym3", "alt4", "dihedral8", "psl2(7)"])
def test_biregular_report_matches_permutation_sets(name):
    G = construct_group(name)
    n = len(G)
    left = [Permutation(tuple(G.mul(i, x) for x in range(n))) for i in range(n)]
    right = [Permutation(tuple(G.mul(x, i) for x in range(n))) for i in range(n)]
    t = Permutation(tuple(G.inv(x) for x in range(n)))
    C = _extend_centralizer(n, [left[g].images for g in G.generators])
    C_gens = generating_subset(FiniteGroup([c.images for c in C], "C"))
    CC = _extend_centralizer(n, [C[k].images for k in C_gens])
    assert biregular_double_centralizer(G) == BiregularReport(
        group=G.name,
        centralizer_is_right_copy=_image_set(C) == _image_set(right),
        double_is_left_copy=_image_set(CC) == _image_set(left),
        flip_conjugates_centralizer_to_left=
            _image_set(t * c * t for c in C) == _image_set(left),
        generator_identities=all(t * left[g] * t == right[G.inv(g)]
                                 for g in G.generators),
        centralizer_order=len(C))


def test_copy_comparison_detects_other_row_sets():
    G = construct_group("sym3")
    left, e = G.left_table(), G.identity_index
    assert _is_copy(left[::-1], left, e)  # a set of rows: order is free
    assert _is_copy(left.T, left.T, e)
    assert not _is_copy(left.T, left, e)  # sym3 is not abelian
    assert not _is_copy(left[1:], left, e)
    assert _is_copy(construct_group("cyclic4").left_table().T,
                    construct_group("cyclic4").left_table(), 0)


def test_biregular_cell_budget_admits_a_table_exactly_at_the_cap(monkeypatch):
    # sym3: 6 × 6 cells in each |G|×|G| table and in each automorphism search
    monkeypatch.setattr(schreier, "CELL_CAP", 36)
    assert biregular_double_centralizer(construct_group("sym3")).double_is_left_copy
    calls = []
    monkeypatch.setattr(FiniteGroup, "left_table", lambda self: calls.append(self))
    monkeypatch.setattr(schreier, "CELL_CAP", 35)
    with pytest.raises(CapExceededError, match="capped at 35 cells"):
        biregular_double_centralizer(construct_group("sym3"))
    assert calls == []


def test_biregular_cap_refuses_before_building_copies(monkeypatch):
    calls = []
    monkeypatch.setattr(FiniteGroup, "left_table", lambda self: calls.append(self))
    with pytest.raises(CapExceededError, match=f"capped at {schreier.CELL_CAP} cells"):
        biregular_double_centralizer(construct_group("sym8"))
    assert calls == []


# -- discreteness and class powers ----------------------------------------------------------

def test_right_copy_is_one_discrete():
    G = construct_group("alt4")
    assert one_discrete_check(right_copy_permutations(G))
    assert one_discrete_check(left_copy_permutations(G))


def test_one_discrete_counterexample_and_vacuous_cases():
    assert not one_discrete_check([identity(4), parse_permutation("(1 2)", degree=4)])
    assert one_discrete_check([])
    assert one_discrete_check([identity(4)])


def test_class_power_types_transposition_examples():
    S4 = construct_group("sym4")
    t = S4.index_of(parse_permutation("(1 2)", degree=4))

    def types(k):
        return {str(ct) for ct in class_power_types(S4, t, k)}

    assert types(1) == {"2^1 1^2"}
    # products of two transpositions hit exactly the even classes
    assert types(2) == {"1^4", "2^2", "3^1 1^1"}
    # three transpositions give exactly the odd classes
    assert types(3) == {"2^1 1^2", "4^1"}


def test_class_power_types_accepts_permutation_argument():
    S4 = construct_group("sym4")
    p = parse_permutation("(1 2 3)", degree=4)
    ts = class_power_types(S4, p, 1)
    assert ts == {p.cycle_type()}


def test_class_power_types_monotone_for_involutions():
    for name in ("sym4", "alt5", "dihedral8"):
        G = construct_group(name)
        involutions = [i for i in range(len(G)) if G.order_of(i) == 2]
        g = involutions[0]
        for k in (1, 2):
            assert class_power_types(G, g, k) <= class_power_types(G, g, k + 2)


def test_class_power_types_caps(monkeypatch):
    S4 = construct_group("sym4")
    with pytest.raises(ValueError):
        class_power_types(S4, 1, 0)
    with pytest.raises(ValueError):
        class_power_types(S4, 1, 7)
    monkeypatch.setattr(rigidity, "CLASS_POWER_GROUP_CAP", 23)
    with pytest.raises(CapExceededError, match="class power types capped at groups of size 23"):
        class_power_types(S4, 1, 2)
    monkeypatch.setattr(rigidity, "CLASS_POWER_GROUP_CAP", 24)
    assert class_power_types(S4, 1, 2)
