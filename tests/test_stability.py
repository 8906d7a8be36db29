"""Almost-homomorphisms: defects, exact-homomorphism search, stability ratios."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permlab.errors import CapExceededError
from permlab.groups import FiniteGroup, construct_group, default_corpus, extend, \
    generated_subgroup, left_regular_permutation, spread
from permlab.perms import Permutation, evaluate_word, hamming_distance, identity, \
    parse_permutation
import permlab.stability as stability
from permlab.stability import (
    AlmostHom, ScanRow, almost_hom, almost_hom_file_text, builtin_presentation,
    enumerate_homs, identity_preserving_scan, is_homomorphism, local_defect,
    local_injectivity, nearest_hom, pad, parse_almost_hom_text,
    read_almost_hom_file, uniform_defect, uniform_defect_report,
    uniform_distance, write_almost_hom_file, STABILITY_BOUND)


def z3_example():
    # the running example: 1 -> (1 2 3), 2 -> (1 2), identity -> identity
    G = construct_group("cyclic3")
    return almost_hom(G, {1: parse_permutation("(1 2 3)"),
                          2: parse_permutation("(1 2)", degree=3)})


# -- construction -----------------------------------------------------------------

def test_construction_validation():
    G = construct_group("cyclic3")
    with pytest.raises(ValueError):
        AlmostHom(G, (identity(3), identity(3)))
    with pytest.raises(ValueError):
        AlmostHom(G, (identity(3), identity(3), identity(4)))
    with pytest.raises(ValueError):
        almost_hom(G, {})


def test_almost_hom_defaults_to_identity_images():
    s = z3_example()
    assert s.image_of(0).is_identity()
    assert s.degree == 3


def test_equal_maps_hash_equal_without_building_permutations(monkeypatch):
    s = z3_example()
    t = AlmostHom._of_array(s.domain, s.array.astype(np.int64))
    u = AlmostHom._of_array(s.domain, pad(s, 4).array[:, :3].copy())
    homs = enumerate_homs(construct_group("sym3"), 3)  # its relator check builds some
    built = []
    post_init = Permutation.__post_init__
    monkeypatch.setattr(Permutation, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    assert s == t == u and hash(s) == hash(t) == hash(u)
    assert len({s, t, u, pad(s, 4)}) == 2
    assert len(set(homs)) == len(homs)
    assert built == []


def test_pad_appends_fixed_points():
    s = z3_example()
    p = pad(s, 5)
    assert p.degree == 5
    assert p.image_of(1).to_cycle_string() == "(1 2 3)"
    assert pad(s, 3) is s
    with pytest.raises(ValueError):
        pad(s, 2)


# -- defects -----------------------------------------------------------------------

def test_z3_example_defect_report():
    rep = uniform_defect_report(z3_example())
    assert rep.defect == 1
    assert rep.argmax == ("(1 3 2)", "(1 3 2)")  # sigma(2)^2 = identity vs sigma(1)
    assert rep.injectivity == Fraction(2, 3)
    assert rep.degree == 3


def test_defect_zero_iff_homomorphism():
    G = construct_group("cyclic3")
    hom = enumerate_homs(G, 3)[1]
    assert is_homomorphism(hom)
    assert uniform_defect(hom) == 0
    assert not is_homomorphism(z3_example())


def test_local_defect_monotone_in_the_window():
    s = z3_example()
    assert local_defect(s, [0]) == 0
    assert local_defect(s, [0, 1]) <= local_defect(s, [0, 1, 2])
    assert local_defect(s, [0, 1, 2]) == uniform_defect(s) == 1


def test_local_injectivity_vacuous_below_two():
    s = z3_example()
    assert local_injectivity(s, [1]) == 1
    assert local_injectivity(s, []) == 1


def test_regular_representation_is_injective_homomorphism():
    G = construct_group("sym3")
    s = AlmostHom(G, tuple(left_regular_permutation(G, i) for i in range(len(G))))
    assert is_homomorphism(s)
    assert local_injectivity(s, range(len(G))) == 1


def test_uniform_distance_requires_matching_shapes():
    s = z3_example()
    with pytest.raises(ValueError):
        uniform_distance(s, pad(s, 4))
    other = almost_hom(construct_group("cyclic2"),
                       {1: parse_permutation("(1 2)", degree=3)})
    with pytest.raises(ValueError):
        uniform_distance(s, other)


def test_perturbing_a_homomorphism_bounds_the_defect():
    G = construct_group("cyclic4")
    hom = enumerate_homs(G, 4)[-1]
    for spot in range(1, 4):
        images = list(hom.images)
        images[spot] = images[spot] * parse_permutation("(1 2)", degree=4)
        s = AlmostHom(G, tuple(images))
        eps = uniform_distance(s, hom)
        assert uniform_defect(s) <= 3 * eps


# -- presentations and homomorphism enumeration ---------------------------------------

@pytest.mark.parametrize("name", ["cyclic2", "cyclic5", "dihedral6",
                                  "dihedral10", "sym3", "alt4"])
def test_builtin_presentations_hold_and_generate(name):
    G = construct_group(name)
    pres = builtin_presentation(G.spec)
    assert pres is not None
    env = dict(zip(pres.names, pres.images_in_group))
    for rel in pres.relators:
        assert evaluate_word(rel, env).is_identity()
    gen_indices = [G.index_of(p) for p in pres.images_in_group]
    assert len(generated_subgroup(G, gen_indices)) == len(G)


def test_no_presentation_for_other_kinds():
    assert builtin_presentation(construct_group("sym4").spec) is None
    assert builtin_presentation(None) is None


def test_hom_counts_against_kernel_arithmetic():
    # counts decompose over (normal kernel, embedding of the quotient)
    assert len(enumerate_homs(construct_group("cyclic2"), 3)) == 4
    assert len(enumerate_homs(construct_group("cyclic2"), 4)) == 10
    assert len(enumerate_homs(construct_group("cyclic4"), 3)) == 4
    assert len(enumerate_homs(construct_group("dihedral8"), 2)) == 4
    # Sym(3): 6 automorphisms + 3 sign maps + 1 trivial
    assert len(enumerate_homs(construct_group("sym3"), 3)) == 10


def test_alt4_to_sym3_has_three_homomorphisms():
    # the order-4 normal subgroup gives a cyclic quotient of order 3, which
    # embeds in Sym(3) two ways; with the trivial map that makes three
    G = construct_group("alt4")
    homs = enumerate_homs(G, 3)
    assert len(homs) == 3
    for h in homs:
        assert is_homomorphism(h)
    kernels = sorted(sum(1 for p in h.images if p.is_identity()) for h in homs)
    assert kernels == [4, 4, 12]
    for h in homs:
        image = {p.images for p in h.images}
        assert len(image) in (1, 3)


def test_enumerated_homs_are_homs_and_sorted():
    homs = enumerate_homs(construct_group("dihedral6"), 3)
    assert all(is_homomorphism(h) for h in homs)
    keys = [tuple(p.images for p in h.images) for h in homs]
    assert keys == sorted(keys)


def _homs_by_element(G, m):
    return {frozenset((G.element_tuple(i), p.images)
                      for i, p in enumerate(h.images))
            for h in enumerate_homs(G, m)}


def test_brute_path_matches_presentation_path():
    # the same group through a generated recipe has no stored presentation
    for spec, copy in [("cyclic3", "generated[(1 2 3)]"),
                       ("sym3", "generated[(1 2),(1 2 3)]"),
                       ("alt4", "generated[(1 2 3),(2 3 4)]"),
                       ("dihedral8", "generated[(1 2 3 4),(2 4)]")]:
        G1 = construct_group(spec)
        G2 = construct_group(copy)
        assert builtin_presentation(G1.spec) is not None
        assert G2.spec.kind == "generated"
        assert {G1.element_tuple(i) for i in range(len(G1))} == \
            {G2.element_tuple(i) for i in range(len(G2))}
        for m in (3, 4):
            assert _homs_by_element(G1, m) == _homs_by_element(G2, m)
    assert len(enumerate_homs(construct_group("cyclic3"), 4)) == 9


def test_enumerate_homs_is_memoized(monkeypatch):
    import permlab.stability as stability
    work = {"evaluate_word": 0, "spread": 0}

    def counted(name):
        fn = getattr(stability, name)

        def wrapper(*args, **kwargs):
            work[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in work:
        monkeypatch.setattr(stability, name, counted(name))
    stability._homs.cache_clear()
    G = construct_group("dihedral6")
    first = enumerate_homs(G, 3)
    assert work["evaluate_word"] > 0 and work["spread"] > 0
    done = dict(work)
    second = enumerate_homs(G, 3)
    assert work == done
    assert second == first and second is not first


def test_enumerate_homs_caps():
    with pytest.raises(CapExceededError):
        enumerate_homs(construct_group("sym5"), 3)
    with pytest.raises(CapExceededError):
        enumerate_homs(construct_group("cyclic2"), 7)


def test_homs_budget_counts_unpruned_assignments(monkeypatch):
    # Sym(4) -> Sym(6): 76 x 256 order-compatible images of (1 2), (1 2 3 4),
    # times 24 elements, are counted although 2,476 survive the pair prune
    G = construct_group("sym4")
    stability._homs.cache_clear()
    monkeypatch.setattr(stability, "HOM_BUDGET", 76 * 256 * 24 - 1)
    with pytest.raises(CapExceededError, match="budget exceeded"):
        stability._homs(G, 6)
    monkeypatch.setattr(stability, "HOM_BUDGET", 76 * 256 * 24)
    assert len(stability._homs(G, 6)) == 2476


def test_over_budget_homs_are_refused_before_any_assignment_array(monkeypatch):
    # Sym(4) -> Sym(7): 232 x 1,072 image pairs x 24 elements is past the
    # budget; the unpruned index array alone would take 4 MB
    monkeypatch.setattr(stability, "HOM_DEGREE_CAP", 7)
    G, sym7 = construct_group("sym4"), construct_group("sym7")
    for i in range(len(sym7)):  # element orders are cached outside the trace
        sym7.order_of(i)
    stability._homs.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="budget exceeded"):
            stability._homs(G, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name", ["sym1", "cyclic1"])
def test_zero_generator_domains_have_the_trivial_hom(name):
    G = construct_group(name)
    pres = builtin_presentation(G.spec)
    assert len(G) == 1 and (G.generators if pres is None else pres.names) == ()
    for m in (1, 3):
        homs = stability._homs(G, m)
        assert homs.tolist() == [[list(range(m))]]
        [hom] = enumerate_homs(G, m)
        assert is_homomorphism(hom)


def unpruned_homs(G, m):
    """Every homomorphism G -> Sym(m) by the edge check alone, as image rows
    in lexicographic order: every tuple of images of G's own generators with
    orders dividing theirs (the count HOM_BUDGET bounds) is spread from the
    identity and kept when every generator edge agrees."""
    sym_m, gens = construct_group(f"sym{m}"), list(G.generators)
    choice = np.array(list(itertools.product(*[
        [i for i in range(len(sym_m)) if G.order_of(g) % sym_m.order_of(i) == 0]
        for g in gens])), dtype=np.intp).reshape(-1, len(gens))
    images = sym_m.matrix[choice][None]  # 1 × assignments × generators × m
    edges = G.mul_many(np.array(gens, dtype=np.intp)[:, None], np.arange(len(G)))

    def step(j, values):  # the image of gens[j]·x is x_j composed after x's
        return np.take_along_axis(images[:, :, j], values, 2)
    start = np.broadcast_to(np.arange(m, dtype=np.int32), (len(choice), m))
    _, H = spread(edges, G.identity_index, start, step)
    ok = np.ones(len(choice), dtype=bool)
    for j in range(len(gens)):
        ok &= (H[edges[j]] == step(j, H)).all((0, 2))
    return sorted(H.transpose(1, 0, 2)[ok].reshape(int(ok.sum()), -1).tolist())


def test_pruned_homs_equal_the_unpruned_reference():
    cases = [(construct_group(spec), m) for spec in default_corpus()
             for m in range(1, 6) if len(construct_group(spec)) <= 24]
    # C6 on an involution and a 3-cycle: a², b³, (ab)⁶ present an infinite
    # group, so pairs like (1 2), (1 2 3) pass the prune and the edge check
    # must refuse them
    c6 = construct_group("generated[(1 2),(3 4 5)]")
    cases += [(construct_group("sym4"), 6)] + [(c6, m) for m in range(1, 6)]
    assert len(cases) == 17 * 5 + 6  # corpus groups of order <= 24, then the extras
    for G, m in cases:
        homs = stability._homs(G, m)
        assert homs.reshape(len(homs), -1).tolist() == unpruned_homs(G, m), (G.name, m)


@pytest.mark.parametrize("m", range(1, 7))
def test_element_orders_of_sym_match_order_of(m):
    # the candidate filter of _homs takes every order of Sym(m) in one batch
    sym_m = construct_group(f"sym{m}")
    assert stability._element_orders(sym_m).tolist() == \
        [sym_m.order_of(i) for i in range(len(sym_m))]


# -- nearest homomorphism ------------------------------------------------------------

def test_nearest_hom_refuses_an_over_cap_window_before_enumerating(monkeypatch):
    # degree 6 with window 1/6 reaches degree 7, above HOM_DEGREE_CAP
    s = almost_hom(construct_group("cyclic2"),
                   {1: parse_permutation("(1 2)", degree=6)})
    stability._homs.cache_clear()
    calls = []
    monkeypatch.setattr(stability, "spread", lambda *a: calls.append(a))
    with pytest.raises(CapExceededError, match="degree <= 6"):
        nearest_hom(s, window=Fraction(1, 6))
    assert calls == []


def test_nearest_hom_of_exact_hom_is_itself():
    G = construct_group("cyclic3")
    hom = enumerate_homs(G, 3)[1]
    rep = nearest_hom(hom)
    assert rep.distance == 0
    assert rep.defect == 0
    assert rep.ratio is None
    assert rep.within_bound
    assert rep.hom.images == hom.images


def test_z3_example_nearest_hom():
    rep = nearest_hom(z3_example())
    assert rep.degree == 3
    assert rep.distance == Fraction(2, 3)
    assert [p.to_cycle_string() for p in rep.hom.images] == \
        ["()", "(1 2 3)", "(1 3 2)"]
    assert rep.ratio == Fraction(2, 3)
    assert rep.within_bound


def test_padding_window_can_strictly_help():
    rep = nearest_hom(z3_example(), window=Fraction(1, 3))
    assert rep.degree == 4
    assert rep.distance == Fraction(1, 2)


def test_z2_three_cycle_in_sym4():
    G = construct_group("cyclic2")
    s = almost_hom(G, {1: parse_permutation("(1 2 3)", degree=4)})
    assert uniform_defect(s) == Fraction(3, 4)
    rep = nearest_hom(s)
    assert rep.distance == Fraction(1, 2)
    assert rep.ratio == Fraction(2, 3)
    assert [p.to_cycle_string() for p in rep.hom.images] == ["()", "(2 3)"]


# -- scans -----------------------------------------------------------------------------

def test_identity_preserving_scan_z2_sym3():
    scan = identity_preserving_scan(construct_group("cyclic2"), 3)
    assert len(scan.rows) == 6
    assert scan.max_ratio == Fraction(2, 3)
    assert scan.all_within_bound
    zero_rows = [r for r in scan.rows if r.defect == 0]
    assert len(zero_rows) == 4  # the four exact homomorphisms
    assert all(r.distance == 0 for r in zero_rows)
    assert scan.max_ratio < STABILITY_BOUND


def test_scan_cap(monkeypatch):
    # cyclic3's two non-identity elements each go anywhere in Sym(3): 6 ** 2 maps
    monkeypatch.setattr(stability, "SCAN_CAP", 35)
    with pytest.raises(CapExceededError, match="scan of 36 maps exceeds the cap 35"):
        identity_preserving_scan(construct_group("cyclic3"), 3)
    monkeypatch.setattr(stability, "SCAN_CAP", 36)
    assert len(identity_preserving_scan(construct_group("cyclic3"), 3).rows) == 36


# -- metric sanity ------------------------------------------------------------------------

@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_uniform_distance_is_a_metric(a, b, c):
    G = construct_group("cyclic3")
    S3 = construct_group("sym3")

    def build(x, y):
        return AlmostHom(G, (identity(3), S3.element(x), S3.element(y)))

    s1, s2, s3 = build(a, b), build(b, c), build(c, a)
    d12 = uniform_distance(s1, s2)
    assert d12 == uniform_distance(s2, s1)
    assert (d12 == 0) == (s1.images == s2.images)
    assert d12 <= uniform_distance(s1, s3) + uniform_distance(s3, s2)
    assert 0 <= uniform_defect(s1) <= 1


# -- files ---------------------------------------------------------------------------------

def test_almost_hom_file_round_trip(tmp_path):
    s = z3_example()
    path = tmp_path / "s.txt"
    write_almost_hom_file(s, path)
    back = read_almost_hom_file(path)
    assert back.images == s.images
    assert uniform_distance(back, s) == 0


def test_almost_hom_file_text_shape():
    text = almost_hom_file_text(z3_example())
    lines = text.splitlines()
    assert lines[0] == "group=cyclic(3) degree=3"
    assert lines[1] == "() -> ()"
    assert lines[2] == "(1 2 3) -> (1 2 3)"
    assert lines[3] == "(1 3 2) -> (1 2)"


def test_almost_hom_parse_errors():
    good = almost_hom_file_text(z3_example())
    with pytest.raises(ValueError):
        parse_almost_hom_text("")
    with pytest.raises(ValueError):
        parse_almost_hom_text("group=borscht(3) degree=3\n")
    with pytest.raises(ValueError):
        parse_almost_hom_text(good + "(1 2 3) -> (1 2)\n")  # duplicate
    with pytest.raises(ValueError):
        parse_almost_hom_text(good.rsplit("\n", 2)[0] + "\n")  # missing element
    with pytest.raises(ValueError):
        parse_almost_hom_text(good + "gibberish\n")


# -- brute-force oracles: per-Permutation loops over the same definitions -----------

@lru_cache(maxsize=None)
def oracle_homs(name, m):
    """All homomorphisms by the extend walk over every order-compatible
    assignment of images to the group's own generators, sorted by images."""
    G, sym_m = construct_group(name), construct_group(f"sym{m}")
    src = [partial(G.mul, g) for g in G.generators]
    out = []
    for assignment in itertools.product(*[
            [p for p in sym_m.elements() if G.order_of(g) % p.order() == 0]
            for g in G.generators]):
        mapped = extend([None] * len(G), G.identity_index, identity(m), src,
                        [partial(Permutation.__mul__, p) for p in assignment])
        if mapped is not None:
            out.append(tuple(mapped))
    return sorted(out, key=lambda images: tuple(p.images for p in images))


def oracle_defect(s, F):
    """(max defect over F x F, first pair attaining it, or the identity pair)."""
    G = s.domain
    worst, arg = Fraction(0), (G.identity_index, G.identity_index)
    for g in F:
        for h in F:
            d = hamming_distance(s.images[G.mul(g, h)], s.images[g] * s.images[h])
            if d > worst:
                worst, arg = d, (g, h)
    return worst, arg


def oracle_injectivity(s, F):
    return min((hamming_distance(s.images[g], s.images[h])
                for g, h in itertools.combinations(F, 2)), default=Fraction(1))


def oracle_distance(images1, images2):
    return max(hamming_distance(p, q) for p, q in zip(images1, images2))


def oracle_nearest(s, window):
    """(distance, degree, hom images) minimizing (distance, degree, images)."""
    n = s.degree
    best = None
    for m in range(n, math.ceil((1 + Fraction(window)) * n) + 1):
        padded = [Permutation(p.images + tuple(range(n, m))) for p in s.images]
        for hom in oracle_homs(s.domain.name, m):
            key = (oracle_distance(padded, hom), m, tuple(p.images for p in hom))
            if best is None or key < best[0]:
                best = (key, hom)
    (d, m, _), hom = best
    return d, m, hom


SMALL_GROUPS = ["cyclic2", "cyclic3", "cyclic4", "sym3", "dihedral6",
                "dihedral8", "alt4"]


@st.composite
def small_almost_homs(draw):
    G = construct_group(draw(st.sampled_from(SMALL_GROUPS)))
    m = draw(st.integers(1, 4))
    sym_m = construct_group(f"sym{m}")
    if draw(st.booleans()):
        images = (identity(m),) * len(G)  # an exact hom: defect 0
    else:
        images = tuple(sym_m.element(draw(st.integers(0, len(sym_m) - 1)))
                       for _ in range(len(G)))
    window = draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2)]))
    F = sorted(draw(st.sets(st.integers(0, len(G) - 1))))
    return AlmostHom(G, images), window, F


@given(small_almost_homs())
@settings(max_examples=150, deadline=None)
def test_kernels_match_the_oracles(case):
    s, window, F = case
    G = s.domain
    everything = range(len(G))
    defect, (g, h) = oracle_defect(s, everything)
    rep = uniform_defect_report(s)
    assert rep.defect == uniform_defect(s) == defect
    assert rep.argmax == (G.element(g).to_cycle_string(),
                          G.element(h).to_cycle_string())
    assert rep.injectivity == oracle_injectivity(s, everything)
    assert local_defect(s, F) == oracle_defect(s, F)[0]
    assert local_injectivity(s, F) == oracle_injectivity(s, F)
    d, m, hom = oracle_nearest(s, window)
    near = nearest_hom(s, window=window)
    assert (near.distance, near.degree, near.hom.images) == (d, m, hom)
    assert near.defect == defect
    assert uniform_distance(pad(s, m), near.hom) == d


def test_defect_free_report_names_the_identity_pair():
    # the identity is not element 0 here, so a default argmax of 0 would show
    G = FiniteGroup([(1, 0, 2), (0, 1, 2)], "c2")
    assert G.identity_index == 1
    s = AlmostHom(G, (identity(2), identity(2)))
    rep = uniform_defect_report(s)
    assert rep.defect == 0
    assert rep.argmax == ("()", "()")


@pytest.mark.parametrize("name", ["cyclic2", "cyclic4", "dihedral6", "sym3",
                                  "alt4", "generated[(1 2),(1 2 3)]",
                                  "generated[(1 2 3),(2 3 4)]",
                                  "generated[(1 2 3 4),(2 4)]"])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_enumerate_homs_equals_the_extend_walk(name, m):
    G = construct_group(name)
    assert [h.images for h in enumerate_homs(G, m)] == oracle_homs(name, m)


@pytest.mark.parametrize("name, m", [("cyclic2", 3), ("cyclic2", 4), ("cyclic3", 3)])
def test_scan_rows_match_per_map_oracle(name, m):
    G = construct_group(name)
    sym_m = construct_group(f"sym{m}")
    others = [i for i in range(len(G)) if i != G.identity_index]
    rows = []
    for choice in itertools.product(range(len(sym_m)), repeat=len(others)):
        images = [identity(m)] * len(G)
        for pos, el in zip(others, choice):
            images[pos] = sym_m.element(el)
        s = AlmostHom(G, tuple(images))
        defect, _ = oracle_defect(s, range(len(G)))
        distance, _, _ = oracle_nearest(s, 0)
        rows.append(ScanRow(images=tuple(p.to_cycle_string() for p in images),
                            defect=defect, distance=distance,
                            ratio=distance / defect if defect else None))
    scan = identity_preserving_scan(G, m)
    assert list(scan.rows) == rows
    ratios = [r.ratio for r in rows if r.ratio is not None]
    assert scan.max_ratio == (max(ratios) if ratios else None)
    assert scan.all_within_bound == all(
        r.distance <= STABILITY_BOUND * r.defect if r.defect else r.distance == 0
        for r in rows)


def test_nearest_hom_builds_permutations_only_for_the_result(monkeypatch):
    G = construct_group("sym4")
    rng = random.Random(5)
    images = [Permutation(p.images + (4,)) for p in G.elements()]
    for k in rng.sample(range(1, len(G)), 3):
        images[k] = Permutation(tuple(rng.sample(range(5), 5)))
    s = AlmostHom(G, tuple(images))
    construct_group("sym5"), construct_group("sym6")
    stability._homs.cache_clear()
    built = [0]
    check = Permutation.__post_init__

    def counted(self):
        built[0] += 1
        check(self)
    monkeypatch.setattr(Permutation, "__post_init__", counted)
    rep = nearest_hom(s, window=Fraction(1, 5))
    assert len(rep.hom.images) == len(G)
    assert built[0] <= len(G)
