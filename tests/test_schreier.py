"""Schreier graph machinery: expansion, gaps, near-automorphisms, clusters."""

import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import permlab.groups as groups
import permlab.schreier as schreier
from permlab.cli import main
from permlab.errors import CapExceededError
from permlab.groups import construct_group, extend, right_regular_permutation
from permlab.perms import (Permutation, hamming_distance, identity, parse_permutation,
                           random_permutation)
from permlab.schreier import (
    ClusterScan, GAP_CAP, LabeledSchreierGraph, adjacency_matrix,
    build_schreier_graph, cluster_scan, component_mass_profile, components,
    default_cluster_epsilon, directed_cycle_graph, edge_expansion,
    enumerate_eps_automorphisms, epsilon_defect, exact_automorphisms,
    graph_file_text, histogram_csv, is_epsilon_automorphism, pairwise_distances,
    parse_graph_text, read_graph_file, regular_action_graph, spectral_gap,
    symmetrized_degree, symmetrized_generators, write_graph_file)


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


@st.composite
def label_rows(draw):
    """Image rows of 1-6 labels on n <= 7 points, drawn with repeats from a
    pool of permutations, their inverses and involutions (sigma = sigma^-1)."""
    n = draw(st.integers(1, 7))
    pool = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    pool += [tuple(np.argsort(p).tolist()) for p in pool]
    for p in draw(st.lists(st.permutations(range(n)), max_size=2)):
        inv = list(range(n))
        for t in range(draw(st.integers(0, n // 2))):  # swap p[2t] with p[2t + 1]
            inv[p[2 * t]], inv[p[2 * t + 1]] = p[2 * t + 1], p[2 * t]
        pool.append(tuple(inv))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))


@given(label_rows())
@settings(max_examples=200, deadline=None)
def test_symmetrized_rows_match_the_unique_rows_reference(rows):
    g = LabeledSchreierGraph(tuple(f"s{k}" for k in range(len(rows))), list(rows))
    reference = np.unique(np.concatenate([rows, np.argsort(rows, axis=1)]), axis=0)
    assert np.array_equal(schreier._symmetrized_rows(g), reference)


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


def dense_gap(g):
    """The oracle: 1 - lambda2/deg from a dense eigensolve of the adjacency."""
    eigs = np.linalg.eigvalsh(adjacency_matrix(g).astype(float))
    return 1.0 - eigs[-2] / symmetrized_degree(g)


@pytest.mark.parametrize("graph", [
    "alt5", "alt6", "alt7", "psl2(7)", "sym5", "sym6", "dihedral12", "prism",
    "pair", "two-cycles", *(f"cycle:{n}" for n in range(2, 41)),
    "cycle:97", "cycle:256", "cycle:500"])
def test_lanczos_gap_matches_the_dense_eigensolve(graph):
    # the referee for the fixed start vector: lambda2 has high multiplicity
    # on the regular graphs, and a structured start could miss it on cycles
    if graph == "prism":
        g = prism()
    elif graph == "pair":  # disconnected: components {1, 2}, {3}, {4}
        g = pair_graph()
    elif graph == "two-cycles":  # disconnected: a 5-cycle and a 7-cycle
        g = build_schreier_graph({"a": parse_permutation("(1 2 3 4 5)(6 7 8 9 10 11 12)")})
    elif graph.startswith("cycle:"):
        g = directed_cycle_graph(int(graph[6:]))
    else:
        g = regular_action_graph(construct_group(graph))
    assert abs(spectral_gap(g) - dense_gap(g)) <= 1e-12


def test_default_cluster_epsilon_of_the_bench_clusters_graph():
    # regular:alt5, the graph of the benchmark's clusters job: gap 1/3
    g = regular_action_graph(construct_group("alt5"))
    assert default_cluster_epsilon(g) == Fraction(33333333, 10 ** 12)


def test_lanczos_gap_does_not_depend_on_the_seed(tmp_path):
    gaps = []
    for seed in ("1", "7"):
        out = tmp_path / f"r{seed}.json"
        assert main(["schreier", "--graph", "regular:psl2(7)", "--mode", "report",
                     "--seed", seed, "-o", str(out)]) == 0
        gaps.append(json.loads(out.read_text(encoding="utf-8"))["spectral_gap"])
    assert gaps[0] == gaps[1]


def test_lanczos_stops_on_breakdown(monkeypatch):
    # on the mean-0 vectors, cycle:500 has 250 distinct eigenvalues
    # 2cos(2πj/500), so its Krylov space is exhausted after 250 steps; the
    # last tridiagonal eigensolve is that step's, and it is exact
    sizes, eigh = [], np.linalg.eigh

    def recording(t):
        sizes.append(len(t))
        return eigh(t)
    monkeypatch.setattr(np.linalg, "eigh", recording)
    g = directed_cycle_graph(500)
    assert abs(spectral_gap(g) - dense_gap(g)) <= 1e-12
    assert sizes[-1] == 250


def test_lanczos_falls_back_to_the_dense_gap(monkeypatch):
    g = regular_action_graph(construct_group("sym5"))
    monkeypatch.setattr(schreier, "_LANCZOS_STEPS", 3)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as dense:
        assert spectral_gap(g) == dense_gap(g)
    assert dense.call_count == 2  # the fallback's and the oracle's
    monkeypatch.setattr(schreier, "CELL_CAP", 100 ** 2)
    with pytest.raises(CapExceededError, match="Lanczos"):
        spectral_gap(g)


def test_disconnected_graphs_have_no_gap(tmp_path):
    two_cycles = Permutation(tuple(list(range(1, 50)) + [0] + list(range(51, 100)) + [50]))
    for g in (build_schreier_graph({"a": two_cycles}),
              build_schreier_graph({"e": identity(3000)})):
        assert abs(spectral_gap(g)) <= 1e-9
        path = tmp_path / "g.graph"
        write_graph_file(g, path)
        out = tmp_path / "r.json"
        assert main(["schreier", "--graph", f"file:{path}", "--mode", "report",
                     "-o", str(out)]) == 0
        rep = json.loads(out.read_text(encoding="utf-8"))
        assert rep["connected"] is False
        assert rep["checks"][0] == {"check": "positive gap iff connected", "pass": True}


def test_cheeger_consistency_small():
    # on graphs with at most 12 vertices, positive expansion iff positive gap
    cases = [prism(), directed_cycle_graph(5), directed_cycle_graph(12), pair_graph(),
             regular_action_graph(construct_group("alt4")),
             regular_action_graph(construct_group("dihedral10")),
             build_schreier_graph({"a": parse_permutation("(1 2)(3 4 5)")})]
    for g in cases:
        assert (edge_expansion(g) > 0) == (spectral_gap(g) > 1e-9)


def test_expansion_cap(monkeypatch):
    with pytest.raises(CapExceededError):
        edge_expansion(directed_cycle_graph(30))
    # a cycle splits best into two arcs: boundary 2 over deg 2 times n/2
    assert edge_expansion(directed_cycle_graph(14)) == Fraction(1, 7)
    monkeypatch.setattr(schreier, "EXPANSION_CAP", 13)
    with pytest.raises(CapExceededError, match="n capped at 13"):
        edge_expansion(directed_cycle_graph(14))
    assert edge_expansion(directed_cycle_graph(13)) == Fraction(1, 6)


@given(st.integers(2, 10), st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_edge_expansion_matches_a_scan_of_every_subset(n, labels, rng):
    g = LabeledSchreierGraph(tuple(f"s{k}" for k in range(labels)),
                             tuple(random_permutation(rng, n) for _ in range(labels)))
    gens = symmetrized_generators(g)
    expected = min(
        Fraction(sum(p.apply(u) not in A for u in A for p in gens), len(gens) * len(A))
        for size in range(1, n // 2 + 1)
        for A in map(set, itertools.combinations(range(n), size)))
    assert edge_expansion(g) == expected


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


def test_exhaustive_cap_and_mode_validation(monkeypatch):
    g = regular_action_graph(construct_group("alt4"))  # n = 12
    with pytest.raises(CapExceededError):
        enumerate_eps_automorphisms(g, 0, mode="exhaustive")
    monkeypatch.setattr(groups, "SYM_SCAN_CAP", 4)
    with pytest.raises(CapExceededError, match=r"Sym\(5\) are capped at degree 4"):
        enumerate_eps_automorphisms(directed_cycle_graph(5), 0, mode="exhaustive")
    assert len(enumerate_eps_automorphisms(directed_cycle_graph(4), 0, mode="exhaustive")) == 4
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


def test_exact_automorphisms_skip_components_already_hit(monkeypatch):
    # seven fixed points: every permutation is an automorphism.  Each root is
    # pushed through the kernel once with every vertex of its size class as a
    # target (7 × 7 = 49 targets), and the choices that hit a component twice
    # are dropped, so the kernel sees far fewer targets than the 7!/(7-k)!
    # extensions per level of a per-target search
    g = build_schreier_graph({"e": identity(7)})
    targets = 0
    spread = schreier.spread

    def counting_spread(edges, root, starts, step):
        nonlocal targets
        targets += len(starts)
        return spread(edges, root, starts, step)
    monkeypatch.setattr(schreier, "spread", counting_spread)
    autos = exact_automorphisms(g)
    assert len(autos) == math.factorial(7)
    assert [p.images for p in autos] == sorted(itertools.permutations(range(7)))
    assert targets <= sum(math.perm(7, k) for k in range(1, 8)) == 13_699
    assert targets == 49


# Per-target references for the batched kernel: every root target extended
# one at a time by the scalar `extend`, as the search did before batching.

def _extend_automorphisms(g):
    comps = components(g)
    comp_of = {v: ci for ci, c in enumerate(comps) for v in c}
    maps, results = g.point_maps(), []

    def backtrack(ci, partial, hit):
        if ci == len(comps):
            if len(set(partial)) == g.n:
                results.append(tuple(partial))
            return
        for target in range(g.n):
            if comp_of[target] in hit or \
                    len(comps[comp_of[target]]) != len(comps[ci]):
                continue
            trial = extend(partial[:], min(comps[ci]), target, maps, maps)
            if trial is not None:
                backtrack(ci + 1, trial, hit | {comp_of[target]})

    backtrack(0, [None] * g.n, set())
    return sorted(results)


def _extend_isomorphic(g1, g2):
    return g1.n == g2.n and any(
        (m := extend([None] * g1.n, 0, t, g1.point_maps(), g2.point_maps()))
        is not None and len(set(m)) == g1.n for t in range(g2.n))


def _kernel_graphs():
    # two isomorphic 3-cycle components (one wound the other way round) and a
    # third of the same size where label b moves too
    three = build_schreier_graph([
        ("a", parse_permutation("(1 2 3)(4 6 5)(7 8 9)", degree=9)),
        ("b", parse_permutation("(7 8 9)", degree=9))])
    return [regular_action_graph(construct_group(name))
            for name in ("psl2(7)", "alt5", "dihedral12")] + [
        directed_cycle_graph(6), build_schreier_graph({"e": identity(7)}), three]


@pytest.mark.parametrize("rows", [None, 3])
def test_kernel_automorphisms_match_per_target_extend(monkeypatch, rows):
    for g in _kernel_graphs():
        if rows is not None:  # a few targets per block: every boundary is hit
            monkeypatch.setattr(schreier, "_TARGET_BLOCK", rows * g.n + 1)
        assert [p.images for p in exact_automorphisms(g)] == _extend_automorphisms(g)
    assert len(exact_automorphisms(_kernel_graphs()[-1])) == 2 * 3 ** 3


@pytest.mark.parametrize("rows", [None, 3])
def test_kernel_isomorphism_matches_per_target_extend(monkeypatch, rows):
    rng = np.random.default_rng(5)
    for g in _kernel_graphs():
        if rows is not None:
            monkeypatch.setattr(schreier, "_TARGET_BLOCK", rows * g.n + 1)
        parts = [schreier.induced_component_graph(g, c) for c in components(g)]
        # the components, and a copy of each with its vertices renumbered
        relabel = [Permutation(tuple(rng.permutation(h.n).tolist())) for h in parts]
        parts += [LabeledSchreierGraph(h.labels, tuple(r * p * r.inverse()
                                                        for p in h.images))
                  for h, r in zip(parts, relabel)]
        # the whole graph too: a target graph with several components
        for g1 in parts:
            for g2 in parts + [g]:
                assert schreier.connected_label_isomorphic(g1, g2) == \
                    _extend_isomorphic(g1, g2)
    twice = build_schreier_graph({"s1": parse_permutation("(1 2 3)(4 5 6)")})
    assert not schreier.connected_label_isomorphic(directed_cycle_graph(6), twice)
    assert not _extend_isomorphic(directed_cycle_graph(6), twice)


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


def test_local_search_below_one_edge_runs_no_descent(monkeypatch):
    # eps * |E| < 1: only maps preserving every edge qualify, and those are
    # exactly the automorphisms already listed, so no start is descended
    g = regular_action_graph(construct_group("alt4"))
    E = g.edge_count
    calls = []
    real = schreier._descend

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(schreier, "_descend", counting)
    found = enumerate_eps_automorphisms(g, Fraction(1, E) - Fraction(1, 10 * E),
                                        mode="local-search", restarts=5, seed=0)
    assert not calls
    assert [p.images for p in found] == [p.images for p in exact_automorphisms(g)]
    enumerate_eps_automorphisms(g, Fraction(1, E), mode="local-search",
                                restarts=5, seed=0)
    assert len(calls) == 5


def test_local_search_matches_exhaustive_below_one_edge():
    for g in (prism(), pair_graph(), directed_cycle_graph(5)):
        E = g.edge_count
        for eps in (Fraction(-1), Fraction(-1, E), Fraction(-1, 10 * E), 0,
                    Fraction(1, 2 * E), Fraction(1, E) - Fraction(1, 10 * E)):
            local = enumerate_eps_automorphisms(g, eps, mode="local-search",
                                                restarts=5, seed=1)
            full = enumerate_eps_automorphisms(g, eps, mode="exhaustive")
            assert [p.images for p in local] == [p.images for p in full]


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


def test_graph_file_parse_errors(tmp_path, capsys):
    good = graph_file_text(directed_cycle_graph(3))
    malformed = [
        "",
        "m=3 labels=s1\n",
        good + "1 s2 2\n",  # unknown label
        good + "1 s1 2\n",  # duplicate out-edge
        "n=3 labels=s1\n1 s1 2\n",  # missing edges
        "n=3 labels=s1\n1 s1 9\n2 s1 1\n3 s1 2\n",  # vertex out of range
        "n=3 labels=s1\n1 s1 2\n2 s1 2\n3 s1 1\n",  # s1 is not a bijection
        "n=0 labels=s1\n",
        "n=-2 labels=s1\n",
    ]
    for k, text in enumerate(malformed):
        with pytest.raises(ValueError):
            parse_graph_text(text)
        path = tmp_path / f"bad{k}.graph"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["schreier", "--graph", f"file:{path}", "--mode", "report",
                     "-o", str(out)]) == 2, text
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(ValueError, match=r"not a permutation of 0\.\.2: \(1, 1, 0\)"):
        parse_graph_text(malformed[6])


def test_graphs_from_rows_and_from_permutations_agree():
    for g in (prism(), pair_graph(), directed_cycle_graph(5)):
        perms = [Permutation(tuple(row)) for row in g.image_array.tolist()]
        for h in (LabeledSchreierGraph(g.labels, perms, name="copy"),
                  LabeledSchreierGraph(g.labels, g.image_array.tolist()),
                  LabeledSchreierGraph(g.labels, g.image_array.astype(np.int64))):
            assert h == g and hash(h) == hash(g)
            assert h.images == g.images == tuple(perms)
            assert [h.sigma(s) for s in h.labels] == [g.sigma(s) for s in g.labels] == perms
            assert h.image_array.dtype == np.int32 and not h.image_array.flags.writeable
    g = prism()
    assert g != LabeledSchreierGraph(g.labels[::-1], g.image_array)
    assert g != LabeledSchreierGraph(g.labels, g.image_array[::-1])
    assert len({g, prism(), regular_action_graph(construct_group("sym3"))}) == 1


def test_image_rows_are_checked_like_permutations():
    for rows in ([[0, 0, 1]], [[0, 1, 3]], [[-1, 0, 1]], [[0.0, 1.0]], [[]], [[0, 1], [0]]):
        with pytest.raises(ValueError):
            LabeledSchreierGraph(("a", "b")[:len(rows)], rows)
    with pytest.raises(ValueError, match="one permutation per label"):
        LabeledSchreierGraph(("a", "b"), [[0, 1]])


def test_histogram_csv_shape():
    g = regular_action_graph(construct_group("cyclic5"))
    scan = cluster_scan(exact_automorphisms(g), g)
    lines = histogram_csv(scan).splitlines()
    assert lines[0] == "numerator,denominator,count"
    assert lines[1] == "1,1,10"  # C(5,2) pairs, all at distance 1


# -- integer count kernels against the per-Permutation definitions -----------------------

def defect_oracle(g, rho):
    """The edge-by-edge definition of epsilon_defect."""
    r = rho.images
    preserved = sum(1 for p in g.images for i in range(g.n)
                    if p.images[r[i]] == r[p.images[i]])
    return 1 - Fraction(preserved, g.edge_count)


def descent_oracle(g, start):
    """One swap at a time: passes over i < j, keep a swap when it strictly
    lowers the defect, stop after a pass that keeps none."""
    current = list(start)
    d = defect_oracle(g, Permutation(tuple(current)))
    improved = True
    while improved and d > 0:
        improved = False
        for i in range(g.n):
            for j in range(i + 1, g.n):
                current[i], current[j] = current[j], current[i]
                e = defect_oracle(g, Permutation(tuple(current)))
                if e < d:
                    d, improved = e, True
                else:
                    current[i], current[j] = current[j], current[i]
    return tuple(current), d


@st.composite
def labeled_graphs(draw, max_n=12):
    """1-3 labels on n <= max_n points; some labels are involutions with
    fixed points, or the identity."""
    n = draw(st.integers(1, max_n))
    images = []
    for _ in range(draw(st.integers(1, 3))):
        pts = draw(st.permutations(range(n)))
        if draw(st.booleans()):  # an involution pairing up a prefix of pts
            img = list(range(n))
            for k in range(0, 2 * draw(st.integers(0, n // 2)), 2):
                img[pts[k]], img[pts[k + 1]] = pts[k + 1], pts[k]
            pts = img
        images.append(Permutation(tuple(pts)))
    return build_schreier_graph([(f"s{k}", p) for k, p in enumerate(images)])


def digest(perms):
    return hashlib.sha256(repr([p.images for p in perms]).encode()).hexdigest()[:16]


def probes_digest(scan):
    probes = [(k, str(d)) for k, d in scan.product_defects]
    return hashlib.sha256(repr(probes).encode()).hexdigest()[:16]


@given(labeled_graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_swap_gains_match_full_recounts_along_descents(g, data):
    S = g.image_array
    T = np.argsort(S, axis=1)
    start = data.draw(st.permutations(range(g.n)))
    real = schreier._swap_gains
    calls = []

    def checked(S, T, r, i, j):
        # every gain equals the recount after the swap; the table is filled
        # once and redone once per taken swap, which raises the count
        calls.append(1)
        assert len(calls) <= g.n + g.edge_count
        gains = real(S, T, r, i, j)
        base = schreier._preserved(S, r)
        for x, y, gain in zip(*(a.ravel() for a in np.broadcast_arrays(i, j, gains))):
            if x != y:
                swapped = r.copy()
                swapped[[x, y]] = r[[y, x]]
                assert gain == schreier._preserved(S, swapped) - base
        return gains

    r = np.array(start)
    with mock.patch.object(schreier, "_swap_gains", checked):
        count = schreier._descend(S, T, r, int(schreier._preserved(S, r)))
    images, d = descent_oracle(g, start)
    assert tuple(r.tolist()) == images
    assert 1 - Fraction(count, g.edge_count) == d == defect_oracle(g, Permutation(images))


@given(labeled_graphs(max_n=6), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_defect_matches_definition(g, rng):
    rho = random_permutation(rng, g.n)
    assert epsilon_defect(g, rho) == defect_oracle(g, rho)


def test_exhaustive_batch_matches_definition_at_every_boundary():
    graphs = [prism(), pair_graph(), directed_cycle_graph(5),
              build_schreier_graph({"a": parse_permutation("(1 2)(3 4)", degree=6),
                                    "b": parse_permutation("(2 3 4 5 6)")})]
    for g in graphs:
        perms = [Permutation(images) for images in itertools.permutations(range(g.n))]
        defects = [defect_oracle(g, p) for p in perms]
        E = g.edge_count
        for k in range(E + 1):
            for eps in (Fraction(k, E), Fraction(k, E) - Fraction(1, 10 * E)):
                got = enumerate_eps_automorphisms(g, eps, mode="exhaustive")
                assert [p.images for p in got] == \
                    [p.images for p, d in zip(perms, defects) if d <= eps]


def test_pairwise_distances_match_hamming():
    g = directed_cycle_graph(5)
    autos = enumerate_eps_automorphisms(g, Fraction(3, 5), mode="exhaustive")
    hist, (a, b) = pairwise_distances(np.array([p.images for p in autos]),
                                      Fraction(2, 5))
    dists = {(i, j): hamming_distance(p, q) for i, p in enumerate(autos)
             for j, q in enumerate(autos) if i < j}
    counts = {}
    for d in dists.values():
        counts[d] = counts.get(d, 0) + 1
    assert hist == tuple(sorted(counts.items()))
    assert list(zip(a.tolist(), b.tolist())) == \
        [ij for ij, d in dists.items() if d <= Fraction(2, 5)]


# outputs recorded with the one-swap-at-a-time descent and per-pair distances:
# seed -> (maps, defects of the non-automorphisms, digest of the maps,
#          clusters, gap interval, digest of the product probes)
ALT5_LOCAL_SEARCH = {
    0: (63, ["11/18", "13/30", "1/2"], "5a790254234c4f76", 63, ("0", "1/2"),
        "cec0b640db5f703c"),
    1: (64, ["49/90", "3/5", "23/90", "31/60"], "f30ddb587f083651", 63,
        ("1/4", "13/20"), "1631dc098c486777"),
    2: (64, ["7/12", "13/30", "7/12", "25/36"], "5a132b1fe331ddf4", 64,
        ("0", "13/20"), "327a588db6eb8e38"),
    3: (64, ["1/6", "11/18", "59/180", "11/18"], "4f99a233148831f9", 63,
        ("3/20", "19/30"), "987c843f0b908fcd"),
}


@pytest.mark.parametrize("seed", sorted(ALT5_LOCAL_SEARCH))
def test_alt5_local_search_and_clusters_match_recorded(seed):
    count, defects, maps_digest, clusters, gap, probes = ALT5_LOCAL_SEARCH[seed]
    g = regular_action_graph(construct_group("alt5"))
    exact = {p.images for p in exact_automorphisms(g)}
    found = enumerate_eps_automorphisms(g, 1, mode="local-search", restarts=4, seed=seed)
    assert len(found) == count
    assert [str(epsilon_defect(g, p)) for p in found if p.images not in exact] == defects
    assert digest(found) == maps_digest
    scan = cluster_scan(found, g, epsilon=1)
    assert len(scan.clusters) == clusters
    assert tuple(map(str, scan.gap_interval)) == gap
    assert probes_digest(scan) == probes


def test_prism_local_search_matches_recorded():
    g = prism()
    exact = {p.images for p in exact_automorphisms(g)}
    recorded = {
        0: ["[1,6,3,5,4,2]", "[3,1,4,6,2,5]", "[4,3,2,1,5,6]", "[6,1,4,2,3,5]",
            "[6,5,1,2,3,4]"],
        1: ["[1,3,6,4,5,2]", "[3,1,4,6,2,5]", "[4,3,6,5,1,2]"],
        2: ["[2,5,4,6,3,1]", "[3,1,4,6,2,5]", "[6,5,1,2,3,4]"],
        3: ["[5,2,3,1,4,6]", "[6,5,1,2,3,4]"],
    }
    for seed, extra in recorded.items():
        found = enumerate_eps_automorphisms(g, Fraction(1, 2), mode="local-search",
                                            restarts=10, seed=seed)
        assert [p.to_one_line_string() for p in found
                if p.images not in exact] == extra
    found = enumerate_eps_automorphisms(g, Fraction(1, 2), mode="local-search",
                                        restarts=10, seed=0)
    scan = cluster_scan(found, g, epsilon=Fraction(1, 2))
    assert scan.histogram == ((Fraction(1, 2), 8), (Fraction(2, 3), 6), (Fraction(1), 41))
    assert scan.clusters == tuple((i,) for i in range(11))
    assert scan.gap_interval == (0, Fraction(1, 2))
    assert scan.product_defects[:4] == (((0, 0), 0), ((0, 1), Fraction(1, 2)),
                                        ((0, 2), 0), ((0, 3), Fraction(1, 2)))
    assert probes_digest(scan) == "6442838a8fbede26"


def test_cycle8_half_eps_cluster_scan_matches_recorded():
    g = directed_cycle_graph(8)
    autos = enumerate_eps_automorphisms(g, Fraction(1, 2), mode="exhaustive")
    assert len(autos) == 1016
    assert digest(autos) == "560b1c4911d3c78c"
    scan = cluster_scan(autos, g, epsilon=Fraction(1, 2))
    assert scan.histogram == (
        (Fraction(1, 4), 2784), (Fraction(3, 8), 5376), (Fraction(1, 2), 17264),
        (Fraction(5, 8), 36800), (Fraction(3, 4), 74176), (Fraction(7, 8), 140672),
        (Fraction(1), 238548))
    assert [len(c) for c in scan.clusters] == [1016]
    assert scan.gap_interval == (0, Fraction(1, 4))
    assert scan.product_defects == (((0, 0), 0),)


def test_local_search_builds_one_permutation_per_new_map(monkeypatch):
    g = regular_action_graph(construct_group("alt5"))
    built = []
    post_init = Permutation.__post_init__

    def counting(self):
        built.append(self.images)
        post_init(self)

    monkeypatch.setattr(Permutation, "__post_init__", counting)
    found = enumerate_eps_automorphisms(g, 1, mode="local-search", restarts=20, seed=3)
    assert len(built) <= len(found)


def test_dense_tables_are_capped():
    big = directed_cycle_graph(GAP_CAP + 1)
    with pytest.raises(CapExceededError):
        spectral_gap(big)
    with pytest.raises(CapExceededError):
        enumerate_eps_automorphisms(big, Fraction(1, 2), mode="local-search")


def two_cycles(m):
    # two directed m-cycles: C_m wr C_2, 2m² automorphisms of 2m points
    return build_schreier_graph(
        {"a": Permutation(tuple([*range(1, m), 0, *range(m + 1, 2 * m), m]))})


def test_identity_graph_on_eight_points_has_all_of_sym8():
    rows = schreier.automorphism_rows(build_schreier_graph({"e": identity(8)}))
    assert np.array_equal(rows, np.array(list(itertools.permutations(range(8)))))


def test_automorphism_search_refuses_targets_before_the_kernel(monkeypatch):
    # prism: one 6-point component, its root tried against 6 targets
    calls, label_maps = [], schreier._label_maps
    monkeypatch.setattr(schreier, "_label_maps",
                        lambda *a: calls.append(a) or label_maps(*a))
    monkeypatch.setattr(schreier, "CELL_CAP", 6 * 6)
    assert len(schreier.automorphism_rows(prism())) == 6 and len(calls) == 1
    calls.clear()
    monkeypatch.setattr(schreier, "CELL_CAP", 6 * 6 - 1)
    with pytest.raises(CapExceededError, match="capped at 35 cells"):
        schreier.automorphism_rows(prism())
    assert calls == []


def test_automorphism_search_refuses_partial_maps_before_concatenating(monkeypatch):
    # two 3-cycles: 3 × 6 target cells per root, then 18 maps of width 6
    g = two_cycles(3)
    monkeypatch.setattr(schreier, "CELL_CAP", 18 * 6)
    assert [p.images for p in exact_automorphisms(g)] == _extend_automorphisms(g)
    monkeypatch.setattr(schreier, "CELL_CAP", 18 * 6 - 1)
    with pytest.raises(CapExceededError, match="capped at 107 cells"):
        schreier.automorphism_rows(g)


def test_automorphism_search_over_the_cell_cap_allocates_no_table():
    # two 200-cycles: 80,000 maps of 400 points are 32 M int32 cells (128 MB)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match=f"capped at {schreier.CELL_CAP}"):
            schreier.automorphism_rows(two_cycles(200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("n", [100, 3000])
def test_automorphism_search_on_many_point_components_allocates_no_table(n):
    # n fixed points: step 3 at n = 100 would hold 970,200 maps, and step 2
    # at n = 3000 a 9 M × 3,000 hit table (27 GB); both are over CELL_CAP
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match=f"capped at {schreier.CELL_CAP}"):
            schreier.automorphism_rows(build_schreier_graph({"e": identity(n)}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20


def test_automorphism_search_refuses_the_free_target_mask_first(monkeypatch):
    # a 3-cycle, then ten 2-cycles: the 3 rotations × 20 targets of size 2
    # make a 60-cell mask, the first table of step 2 over a 59-cell budget
    swaps = [p + 1 if p % 2 else p - 1 for p in range(3, 23)]
    g = build_schreier_graph({"a": Permutation((1, 2, 0, *swaps))})
    cells, check = [], schreier._check_cells
    monkeypatch.setattr(schreier, "_check_cells",
                        lambda c, table: cells.append(c) or check(c, table))
    monkeypatch.setattr(schreier, "CELL_CAP", 59)
    with pytest.raises(CapExceededError, match="capped at 59 cells"):
        schreier.automorphism_rows(g)
    assert cells == [3 * 3, 1 * 3, 3 * 11, 20 * 2, 3 * 20]
    cells.clear()
    monkeypatch.setattr(schreier, "CELL_CAP", 60)  # the mask fits, its maps do not
    with pytest.raises(CapExceededError, match="capped at 60 cells"):
        schreier.automorphism_rows(g)
    assert cells[-2:] == [3 * 20, 3 * 20 * 11]


def test_pairwise_distances_refuse_before_any_block(monkeypatch):
    rows = np.array(list(itertools.permutations(range(4))))  # 276 pairs × 4 points
    monkeypatch.setattr(schreier, "PAIR_CAP", 276 * 4)
    assert sum(c for _, c in pairwise_distances(rows)[0]) == 276
    monkeypatch.setattr(schreier, "PAIR_CAP", 276 * 4 - 1)
    with mock.patch.object(np, "bincount", wraps=np.bincount) as blocks:
        with pytest.raises(CapExceededError, match="capped at 1103 compared cells"):
            pairwise_distances(rows)
    assert blocks.call_count == 0


def test_dense_tables_exactly_at_the_cell_cap_are_admitted(monkeypatch):
    g = prism()  # n = 6
    monkeypatch.setattr(schreier, "_LANCZOS_STEPS", 2)
    monkeypatch.setattr(schreier, "CELL_CAP", 6 * 6)
    assert spectral_gap(g) == dense_gap(g)
    assert len(enumerate_eps_automorphisms(g, 1, mode="local-search")) > 6
    monkeypatch.setattr(schreier, "CELL_CAP", 6 * 6 - 1)
    with pytest.raises(CapExceededError, match="dense spectral gap is capped at 35"):
        spectral_gap(g)
    with mock.patch.object(schreier, "_descend") as descents:
        with pytest.raises(CapExceededError, match="swap-gain table is capped at 35"):
            enumerate_eps_automorphisms(g, 1, mode="local-search")
    assert descents.call_count == 0
