"""Schreier graph machinery: expansion, gaps, near-automorphisms, clusters."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permlab.errors import CapExceededError
from permlab.groups import construct_group, right_regular_permutation
from permlab.perms import Permutation, hamming_distance, identity, parse_permutation
from permlab.schreier import (
    ClusterScan, EXHAUSTIVE_CAP, LabeledSchreierGraph, adjacency_matrix,
    build_schreier_graph, cluster_scan, component_mass_profile, components,
    default_cluster_epsilon, directed_cycle_graph, edge_expansion,
    enumerate_eps_automorphisms, epsilon_defect, exact_automorphisms,
    graph_file_text, histogram_csv, is_epsilon_automorphism, parse_graph_text,
    read_graph_file, regular_action_graph, spectral_gap, symmetrized_degree,
    symmetrized_generators, write_graph_file)


def prism():
    # left-regular graph of Sym(3) on 6 vertices, generators (1 2) and (1 2 3)
    return regular_action_graph(construct_group("sym3"))


def pair_graph():
    # single involution on 4 points: components {1,2}, {3}, {4}
    return build_schreier_graph({"a": parse_permutation("(1 2)", degree=4)})


# -- construction ---------------------------------------------------------------

def test_build_validation():
    p = parse_permutation("(1 2)", degree=2)
    q = parse_permutation("(1 2 3)")
    with pytest.raises(ValueError):
        build_schreier_graph({})
    with pytest.raises(ValueError):
        build_schreier_graph([("a", p), ("b", q)])  # mixed degrees
    with pytest.raises(ValueError):
        build_schreier_graph([("a", p), ("a", p)])  # duplicate labels
    with pytest.raises(ValueError):
        build_schreier_graph([("a b", p)])  # space in label


def test_mapping_input_sorts_labels():
    p = parse_permutation("(1 2)", degree=3)
    g = build_schreier_graph({"zz": p, "aa": p})
    assert g.labels == ("aa", "zz")


def test_edges_and_counts():
    g = directed_cycle_graph(4)
    assert g.n == 4
    assert g.edge_count == 4
    assert sorted(g.edges()) == [(0, "s1", 1), (1, "s1", 2), (2, "s1", 3), (3, "s1", 0)]


def test_trivial_group_regular_graph_is_a_loop():
    g = regular_action_graph(construct_group("cyclic1"))
    assert g.n == 1
    assert g.images[0].is_identity()


# -- components -------------------------------------------------------------------

def test_components_and_mass_profile():
    g = pair_graph()
    assert [sorted(c) for c in components(g)] == [[0, 1], [2], [3]]
    assert component_mass_profile(g) == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    assert component_mass_profile(prism()) == [Fraction(1)]


def test_identity_image_gives_singleton_components():
    g = build_schreier_graph({"e": identity(5)})
    assert component_mass_profile(g) == [Fraction(1, 5)] * 5
    assert symmetrized_degree(g) == 1  # the self-loop counts once


def test_components_follow_forward_edges_only(monkeypatch):
    graphs = [pair_graph(), regular_action_graph(construct_group("alt5")),
              build_schreier_graph({"a": parse_permutation("(1 2 3)(4 5)"),
                                    "b": parse_permutation("(1 2)", degree=5)})]
    calls = []
    inverse = Permutation.inverse

    def counting_inverse(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Permutation, "inverse", counting_inverse)
    sizes = [[len(c) for c in components(g)] for g in graphs]
    assert sizes == [[2, 1, 1], [60], [3, 2]]
    assert calls == []


# -- symmetrization --------------------------------------------------------------------

def test_symmetrized_degree_counts_involutions_once():
    assert symmetrized_degree(prism()) == 3  # (1 2) once, (1 2 3) twice
    assert symmetrized_degree(directed_cycle_graph(4)) == 2
    assert symmetrized_degree(pair_graph()) == 1


def test_adjacency_is_symmetric_with_constant_row_sums():
    for g in (prism(), directed_cycle_graph(5), pair_graph()):
        a = adjacency_matrix(g)
        assert (a == a.T).all()
        assert set(a.sum(axis=1)) == {symmetrized_degree(g)}


# -- expansion and spectral gap -----------------------------------------------------------

def test_prism_spectrum_and_gap():
    g = prism()
    eigs = sorted(np.linalg.eigvalsh(adjacency_matrix(g).astype(float)), reverse=True)
    assert np.allclose(eigs, [3, 1, 0, 0, -2, -2], atol=1e-9)
    assert math.isclose(spectral_gap(g), 2 / 3, abs_tol=1e-9)
    assert edge_expansion(g) == Fraction(1, 3)


def test_prism_spectrum_exact_cross_check():
    sympy = pytest.importorskip("sympy")
    m = sympy.Matrix(adjacency_matrix(prism()).tolist())
    eigs = m.eigenvals()
    assert eigs == {sympy.Integer(3): 1, sympy.Integer(1): 1,
                    sympy.Integer(0): 2, sympy.Integer(-2): 2}


def test_four_cycle_gap_is_one():
    g = directed_cycle_graph(4)
    eigs = sorted(np.linalg.eigvalsh(adjacency_matrix(g).astype(float)), reverse=True)
    assert np.allclose(eigs, [2, 0, 0, -2], atol=1e-9)
    assert math.isclose(spectral_gap(g), 1.0, abs_tol=1e-9)
    assert edge_expansion(g) == Fraction(1, 2)


def test_disconnected_graph_has_zero_gap_and_expansion():
    g = pair_graph()
    assert abs(spectral_gap(g)) < 1e-9
    assert edge_expansion(g) == 0


def test_gap_positive_iff_connected():
    cases = [prism(), directed_cycle_graph(3), directed_cycle_graph(6), pair_graph(),
             build_schreier_graph({"e": identity(4)}),
             regular_action_graph(construct_group("alt4"))]
    for g in cases:
        connected = len(components(g)) == 1
        assert (spectral_gap(g) > 1e-9) == connected


def test_gap_stays_in_range():
    for g in (prism(), directed_cycle_graph(2), directed_cycle_graph(7), pair_graph()):
        assert -1e-9 <= spectral_gap(g) <= 2 + 1e-9


def test_cheeger_consistency_small():
    # on graphs with at most 12 vertices, positive expansion iff positive gap
    cases = [prism(), directed_cycle_graph(5), directed_cycle_graph(12), pair_graph(),
             regular_action_graph(construct_group("alt4")),
             regular_action_graph(construct_group("dihedral10")),
             build_schreier_graph({"a": parse_permutation("(1 2)(3 4 5)")})]
    for g in cases:
        assert (edge_expansion(g) > 0) == (spectral_gap(g) > 1e-9)


def test_expansion_cap():
    with pytest.raises(CapExceededError):
        edge_expansion(directed_cycle_graph(30))
    # a cycle splits best into two arcs: boundary 2 over deg 2 times n/2
    assert edge_expansion(directed_cycle_graph(14)) == Fraction(1, 7)


# -- epsilon defect ----------------------------------------------------------------------------

def test_rotation_preserves_cycle_edges():
    g = directed_cycle_graph(6)
    rot = g.images[0]
    assert epsilon_defect(g, rot) == 0
    assert is_epsilon_automorphism(g, rot, 0)


def test_reflection_of_directed_cycle_has_full_defect():
    # i -> -i reverses orientation, so no directed labeled edge survives
    g = directed_cycle_graph(6)
    refl = Permutation(tuple((6 - i) % 6 for i in range(6)))
    assert epsilon_defect(g, refl) == 1
    assert not is_epsilon_automorphism(g, refl, Fraction(99, 100))


def test_defect_degree_mismatch():
    with pytest.raises(ValueError):
        epsilon_defect(directed_cycle_graph(4), identity(5))


def test_zero_defect_closed_under_composition_and_inverse():
    g = prism()
    autos = exact_automorphisms(g)
    for p in autos:
        assert epsilon_defect(g, p.inverse()) == 0
        for q in autos:
            assert epsilon_defect(g, p * q) == 0


@given(st.integers(2, 7), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_defect_bounds(n, rng):
    from permlab.perms import random_permutation
    g = build_schreier_graph({"a": random_permutation(rng, n),
                              "b": random_permutation(rng, n)})
    rho = random_permutation(rng, n)
    d = epsilon_defect(g, rho)
    assert 0 <= d <= 1
    assert epsilon_defect(g, identity(n)) == 0


# -- enumeration -------------------------------------------------------------------------

def test_exhaustive_matches_backtracking_at_zero():
    for g in (prism(), directed_cycle_graph(5), pair_graph()):
        ex = enumerate_eps_automorphisms(g, 0, mode="exhaustive")
        bt = enumerate_eps_automorphisms(g, 0, mode="backtracking")
        assert [p.images for p in ex] == [p.images for p in bt]


def test_exhaustive_cap_and_mode_validation():
    g = regular_action_graph(construct_group("alt4"))  # n = 12
    with pytest.raises(CapExceededError):
        enumerate_eps_automorphisms(g, 0, mode="exhaustive")
    with pytest.raises(ValueError):
        enumerate_eps_automorphisms(g, Fraction(1, 2), mode="backtracking")
    with pytest.raises(ValueError):
        enumerate_eps_automorphisms(g, 0, mode="annealing")


def test_regular_graph_exact_automorphisms_are_right_multiplications():
    for name in ("cyclic5", "sym3", "alt4", "dihedral8"):
        G = construct_group(name)
        g = regular_action_graph(G)
        autos = exact_automorphisms(g)
        assert len(autos) == len(G)
        rights = sorted(right_regular_permutation(G, k).images for k in range(len(G)))
        assert rights == [p.images for p in autos]


def test_directed_six_cycle_has_exactly_the_rotations():
    g = directed_cycle_graph(6)
    rot = g.images[0]
    autos = exact_automorphisms(g)
    assert len(autos) == 6
    assert {p.images for p in autos} == {(rot ** k).images for k in range(6)}


def test_eps_enumeration_monotone_in_eps():
    g = directed_cycle_graph(4)
    small = {p.images for p in enumerate_eps_automorphisms(g, 0, mode="exhaustive")}
    mid = {p.images for p in
           enumerate_eps_automorphisms(g, Fraction(3, 4), mode="exhaustive")}
    large = {p.images for p in enumerate_eps_automorphisms(g, 1, mode="exhaustive")}
    assert small <= mid <= large
    assert len(small) == 4 and len(large) == 24
    assert len(mid) > 4  # e.g. fixing one vertex and rotating the rest


def test_local_search_recovers_exact_automorphisms():
    g = prism()
    found = enumerate_eps_automorphisms(g, 0, mode="local-search", restarts=10, seed=0)
    exact = {p.images for p in exact_automorphisms(g)}
    assert exact <= {p.images for p in found}
    again = enumerate_eps_automorphisms(g, 0, mode="local-search", restarts=10, seed=0)
    assert [p.images for p in found] == [p.images for p in again]


# -- cluster scans ---------------------------------------------------------------------------

def test_regular_alt4_cluster_scan_is_one_discrete():
    G = construct_group("alt4")
    g = regular_action_graph(G)
    autos = exact_automorphisms(g)
    scan = cluster_scan(autos, g)
    assert len(autos) == 12
    assert scan.histogram == ((Fraction(1), 66),)  # every pair at distance exactly 1
    assert len(scan.clusters) == 12
    assert all(len(c) == 1 for c in scan.clusters)
    assert scan.gap_interval == (Fraction(0), Fraction(1))
    assert all(d == 0 for _, d in scan.product_defects)
    assert sum(count for _, count in scan.histogram) == 66


def test_cluster_scan_partitions_and_threshold():
    g = prism()
    autos = exact_automorphisms(g)
    scan = cluster_scan(autos, g, threshold=Fraction(1))
    assert scan.clusters == (tuple(range(len(autos))),)
    covered = sorted(i for c in scan.clusters for i in c)
    assert covered == list(range(len(autos)))
    assert len(scan.product_defects) == 1


def test_cluster_scan_needs_two():
    g = prism()
    with pytest.raises(ValueError):
        cluster_scan([identity(6)], g)


def test_default_cluster_epsilon_tracks_gap():
    assert default_cluster_epsilon(pair_graph()) == 0
    e = default_cluster_epsilon(prism())
    assert 0 < e < Fraction(1, 1000)


# -- files --------------------------------------------------------------------------------

def test_graph_file_round_trip(tmp_path):
    for g in (prism(), directed_cycle_graph(6), pair_graph()):
        path = tmp_path / "g.txt"
        write_graph_file(g, path)
        assert read_graph_file(path) == g


def test_graph_file_text_is_one_based():
    text = graph_file_text(directed_cycle_graph(3))
    lines = text.splitlines()
    assert lines[0] == "n=3 labels=s1"
    assert lines[1:] == ["1 s1 2", "2 s1 3", "3 s1 1"]


def test_graph_file_parse_errors():
    good = graph_file_text(directed_cycle_graph(3))
    with pytest.raises(ValueError):
        parse_graph_text("")
    with pytest.raises(ValueError):
        parse_graph_text("m=3 labels=s1\n")
    with pytest.raises(ValueError):
        parse_graph_text(good + "1 s2 2\n")  # unknown label
    with pytest.raises(ValueError):
        parse_graph_text(good + "1 s1 2\n")  # duplicate out-edge
    with pytest.raises(ValueError):
        parse_graph_text("n=3 labels=s1\n1 s1 2\n")  # missing edges
    with pytest.raises(ValueError):
        parse_graph_text("n=3 labels=s1\n1 s1 9\n2 s1 1\n3 s1 2\n")


def test_histogram_csv_shape():
    g = regular_action_graph(construct_group("cyclic5"))
    scan = cluster_scan(exact_automorphisms(g), g)
    lines = histogram_csv(scan).splitlines()
    assert lines[0] == "numerator,denominator,count"
    assert lines[1] == "1,1,10"  # C(5,2) pairs, all at distance 1
