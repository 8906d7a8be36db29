"""Almost-homomorphisms: defects, exact-homomorphism search, stability ratios."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permlab.errors import CapExceededError
from permlab.groups import construct_group, generated_subgroup, left_regular_permutation
from permlab.perms import Permutation, evaluate_word, hamming_distance, identity, \
    parse_permutation
from permlab.stability import (
    AlmostHom, almost_hom, almost_hom_file_text, builtin_presentation,
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
    work = {"evaluate_word": 0, "extend": 0}

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
    assert work["evaluate_word"] > 0 and work["extend"] > 0
    done = dict(work)
    second = enumerate_homs(G, 3)
    assert work == done
    assert second == first and second is not first


def test_enumerate_homs_caps():
    with pytest.raises(CapExceededError):
        enumerate_homs(construct_group("sym5"), 3)
    with pytest.raises(CapExceededError):
        enumerate_homs(construct_group("cyclic2"), 7)


# -- nearest homomorphism ------------------------------------------------------------

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


def test_scan_cap():
    with pytest.raises(CapExceededError):
        identity_preserving_scan(construct_group("cyclic3"), 3, cap=10)


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
