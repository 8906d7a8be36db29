"""The element store of FiniteGroup: one int32 matrix, ranked rows, batched
products, and the FO whole-domain scans built on them."""

import hashlib
import itertools
import json
import random
import re
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab import groups
from permlab.fo.evaluate import _Evaluator
from permlab.fo.syntax import And, Comm, Eq, Implies, Inv, Mul, Not, One, Or, Var
from permlab.groups import (FiniteGroup, TABLE_CAP, construct_group, default_corpus,
                            generated_subgroup, orbit)
from permlab.perms import parse_permutation
from permlab.schreier import regular_action_graph

# (matrix, table, classes, class representatives): the first 16 hex digits
# of the SHA-256 of each, taken before the element store became a matrix
# alone; the table is None above TABLE_CAP
DIGESTS = {
    "alt(4)": ("9caa5657c38e9040", "84c86047d6fdbbfd", "15ed5a273a44c3d9", "3c821b8ec14a520f"),
    "alt(5)": ("f48539fdd165c807", "48ebf0d3738b2fab", "4986c2cc2ff1678c", "36b205469861da5c"),
    "alt(6)": ("3e4ed31027b82a62", "df581173453746a9", "2d8773fd0f44e7ec", "fe2541ffc0dd2983"),
    "sym(3)": ("89d7ab8f87125dfd", "1ca6853d66d7466d", "9ea1fe3252b79f13", "e56aa131106b04e3"),
    "sym(4)": ("a55f0e2c18be47b3", "40f99a99ccae27c2", "2d6e9061a05a892e", "aa6337123d6d9800"),
    "sym(5)": ("0cdea16805cc1f5e", "b5de095d3ab867da", "8237e4c22886b01f", "a01ead302ed9b439"),
    "sym(6)": ("efdb472fecde6d68", "f88a0d5d0cc9e2e9", "9ade405fa928e9ff", "6a2287f47beeb86c"),
    "dihedral(8)": ("5d80dd076f992bec", "7f965b003a6e5753", "90956c84c855835c", "4039f7e4110c28e8"),
    "dihedral(10)": ("d7574641b7a1c045", "2b29d3af6a230136", "0328d42857e00df4", "52cb88c14b8f8188"),
    "dihedral(12)": ("5e65476d9557d4ce", "fc1a7bea39982648", "3335a50a6f38e810", "b7eb157a89bd2f51"),
    "cyclic(2)": ("8bd2fa7c6873c97e", "193ff04d751aa629", "9c731319e6f8d3c3", "923682bea6d517dc"),
    "cyclic(3)": ("6ced0cf01c15a0cf", "ddd820aadc8ee090", "e743549bc64d382c", "1d226b8db3e15d55"),
    "cyclic(4)": ("dda21c0c7eac5e11", "71453e3721aa2330", "40104c16b963f1ee", "02b6deebe10f247a"),
    "cyclic(5)": ("f27bc669f5be8e03", "82e250e13e162464", "8de5f4af6759819e", "86c1b3261036a829"),
    "cyclic(6)": ("84c95b76c6f1fb47", "f5cdcaccb7d90626", "c8c5f0a9bc985155", "b0229c06acf4d5c9"),
    "cyclic(7)": ("bdcd54e3dba14b50", "2f2b3e974a7588a9", "806e702b9ea0e9ef", "068ff0cf40cd49ec"),
    "cyclic(8)": ("c791d253f2d877a6", "605802fb30d0dd55", "6a0434e488e3d364", "809d533fc370950a"),
    "cyclic(9)": ("67c1a634009d74b8", "24046efcbb24d887", "05c39bf99e2d9ee2", "b4fd587ed6b9c523"),
    "cyclic(10)": ("f31c163b3a01d3cf", "26bfa3957f10c2fb", "e16be58a09795fdf", "a28bb79aa5ca8a5e"),
    "cyclic(11)": ("6db28184f73ebd0f", "85211d2a6c2c042d", "0a66520bc9b8a21b", "dae71516efe629c1"),
    "cyclic(12)": ("95e853c042436f11", "64db28284d898e46", "bb5f9d80fe927619", "8e0b0301e2b318f3"),
    "psl2(5)": ("9328bb85eaad2a4c", "7e8fb9375858328a", "b1d2661007aa79a1", "219e12fa2bd3f487"),
    "psl2(7)": ("dcefef7544d66b76", "db422aa344dde3b0", "c2c3f7912e654d46", "14ddb7d7054394c8"),
    "psl2(11)": ("9e0e41644fc148b7", "743bef1fbadf5ef8", "5d03cb19120e55a7", "4237809f7e52531b"),
    "sym7": ("4276567fb461ac1d", None, "0dc7babe531206cf", "709df0887dc70ec9"),
    "sym8": ("dd1f897b05874e86", None, "da8c3339e7a23e41", "7ac38e6170c55bb5"),
    "sym9": ("6a5125c086d16a4d", None, "6936e4e26850ae98", "d7f4f7f998f82460"),
    "alt7": ("8bbfaf5193b982e2", "467deb1855be6420", "d7da8cdf5ae64986", "d3e310abbbe58b27"),
    "alt8": ("726329a79b28d2f1", None, "a841299483a8e020", "22fdadbcfa4bd436"),
    "alt9": ("62a8200b55c11749", None, "25749e85efccf7f9", "79c93ab1a4e5a6b8"),
    "psl2(13)": ("55adbd2b2052c1c3", "3915f2f9cc60b50b", "1c6b00ba43071999", "728ee68a0991a0f9"),
    "generated[(1 2 3 4),(1 2),(16 17)]": ("a350139462e45ea0", "5eeeaf3d1234b01e", "c8fb719bc94ce521", "e137f8a708136684"),
    "image": ("a44253b3df548e3e", "db422aa344dde3b0", "c2c3f7912e654d46", "14ddb7d7054394c8"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _digest(g):
    table = g.table()
    return (
        _sha(np.ascontiguousarray(g.matrix, dtype="<i4").tobytes()),
        None if table is None else _sha(
            table[0].astype("<i4").tobytes() + table[1].astype("<i4").tobytes()),
        _sha(json.dumps([sorted(c) for c in g.conjugacy_classes()]).encode()),
        _sha(json.dumps(g.class_representatives()).encode()),
    )


def _group(name):
    if name == "image":
        return regular_action_graph(construct_group("psl2(7)")).image_group()
    return construct_group(name)


def test_digests_cover_the_corpus():
    assert {s.canonical_name() for s in default_corpus()} <= DIGESTS.keys()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_store_tables_and_classes_are_unchanged(name):
    assert _digest(_group(name)) == DIGESTS[name]


def test_matrix_is_one_read_only_int32_store():
    g = construct_group("alt5")
    assert g.matrix.dtype == np.int32 and g.matrix.flags.c_contiguous
    assert g.matrix.shape == (60, 5) and not g.matrix.flags.writeable
    assert [g.element_tuple(i) for i in range(len(g))] == \
        [tuple(r) for r in g.matrix.tolist()]
    rows = np.array(g.matrix)  # a writeable copy stays writeable
    h = FiniteGroup(rows, "copy")
    assert rows.flags.writeable and np.array_equal(h.matrix, g.matrix)
    assert h.identity_index == g.identity_index


# -- constructor checks ------------------------------------------------------

@pytest.mark.parametrize("elements, message", [
    ([], "a group needs at least the identity"),
    (np.zeros((0, 3), dtype=np.int32), "a group needs at least the identity"),
    ([(0, 1), (0, 1, 2)], "mixed degrees in element list"),
    ([(0, 1), (1, 0), (1, 0)], "duplicate element in element list"),
    (np.array([(1, 0), (0, 1), (1, 0)], dtype=np.int32),
     "duplicate element in element list"),
    ([(1, 0, 2), (0, 2, 1)], "identity missing from element list"),
    (np.array([(1, 0)], dtype=np.int32), "identity missing from element list"),
    ([(0, 1), (1, 2)], "element entries must lie in 0..1"),
    (np.array([(0, 1, 2), (0, 1, -1)], dtype=np.int32), "element entries must lie in 0..2"),
    ([tuple(range(17)), tuple(range(16)) + (17,)], "element entries must lie in 0..16"),
])
def test_constructor_errors_keep_their_messages(elements, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        FiniteGroup(elements, "bad")


# -- products against a tuple-composition oracle -----------------------------

@lru_cache(maxsize=None)
def _oracle(name):
    g = construct_group(name)
    tuples = [g.element_tuple(i) for i in range(len(g))]
    return g, tuples, {t: i for i, t in enumerate(tuples)}


def _compose(p, q):  # (p∘q)(i) = p(q(i)), the group's product a·b
    return tuple(p[j] for j in q)


def _inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["sym4", "psl2(7)", "sym7"]), data=st.data())
def test_products_match_tuple_composition(name, data):
    g, tuples, index = _oracle(name)
    assert (len(g) > TABLE_CAP) == (name == "sym7")
    elem = st.integers(0, len(g) - 1)
    a, b = data.draw(elem), data.draw(elem)
    xs = data.draw(st.lists(elem, min_size=1, max_size=12))
    ys = data.draw(st.lists(elem, min_size=1, max_size=12))

    def prod(i, j):
        return index[_compose(tuples[i], tuples[j])]
    assert g.mul(a, b) == prod(a, b)
    assert int(g.mul_many(a, b)) == prod(a, b)
    assert g.mul_many(a, xs).tolist() == [prod(a, x) for x in xs]
    assert g.mul_many(np.array(xs), b).tolist() == [prod(x, b) for x in xs]
    assert g.mul_many(np.array(xs)[:, None], np.array(ys)).tolist() == \
        [[prod(x, y) for y in ys] for x in xs]
    assert g.inv(a) == index[_inverse(tuples[a])]
    assert g.inverse_array()[xs].tolist() == [index[_inverse(tuples[x])] for x in xs]
    assert g.index_of(tuples[a]) == a and tuples[a] in g
    # rows that are no element: a wrong degree, a repeated point, and for
    # psl2(7) a permutation outside the group
    outsiders = [tuples[a] + (g.degree,), (0,) * g.degree]
    perm = data.draw(st.permutations(range(g.degree)).map(tuple))
    if perm not in index:
        outsiders.append(perm)
    for row in outsiders:
        assert row not in g
        with pytest.raises(ValueError, match=re.escape(f"not an element of {g.name}")):
            g.index_of(row)


# -- row keys: base-d digits up to degree 15, row bytes above it --------------

# Sym(4) × C2 on 15 and on 17 points, one group per key encoding
KEYED = ["generated[(1 2 3 4),(1 2),(14 15)]", "generated[(1 2 3 4),(1 2),(16 17)]"]


def _index(g, cycles):
    p = parse_permutation(cycles)
    return g.index_of(tuple(p.images) + tuple(range(p.degree, g.degree)))


@pytest.mark.parametrize("name, kind", zip(KEYED, [np.int64, np.void]))
def test_rank_matches_a_dict_of_element_tuples(name, kind):
    g, tuples, index = _oracle(name)
    assert len(g) == 48 and np.issubdtype(g._keys.dtype, kind)
    backwards = [index[t] for t in reversed(tuples)]
    assert g._rank(g.matrix[::-1]).tolist() == backwards
    # 288 rows: more than _search looks up in the given order
    assert g._rank(np.tile(g.matrix[::-1], (6, 1))).tolist() == backwards * 6
    assert g._rank(np.array(tuples[3])) == 3
    assert all(g.index_of(t) == i for t, i in index.items())
    cycle = tuple(range(1, g.degree)) + (0,)  # a permutation outside the group
    assert cycle not in index and cycle not in g


@pytest.mark.parametrize("name", ["sym4", *KEYED])
def test_rows_with_entries_outside_the_degree_are_no_elements(name):
    g = construct_group(name)
    d, ident = g.degree, tuple(range(g.degree))
    rows = [ident[:-1] + (d,), (-1,) + ident[1:], ident[:-1] + (2 ** 31 - 1,)]
    if d == 4:
        # base-4 digits equal to the identity's key 27, and two rows that
        # share the key 28
        rows += [(0, 1, 1, 7), (0, 2, -2, 3), (0, 1, 2, 4), (0, 1, 3, 0)]
        assert [sum(x * 4 ** (3 - i) for i, x in enumerate(r)) for r in rows[3:]] == \
            [27, 27, 28, 28]
    for row in rows:
        assert row not in g
        with pytest.raises(ValueError, match=re.escape(f"not an element of {g.name}: {row}")):
            g.index_of(row)
        with pytest.raises(ValueError, match=re.escape(f"not an element of {g.name}: {row}")):
            g._rank(np.array([ident, row, ident]))


def _scalar_orbit_labels(g, by, points):
    """Least member of each point's orbit under x ↦ b·x·b^-1, by `orbit`."""
    least = {}
    for x in points:
        if x not in least:
            members = orbit(x, [partial(g.conj, by=b) for b in by])
            least.update(dict.fromkeys(members, min(members)))
    return [least[x] for x in points]


@pytest.mark.parametrize("name", KEYED)
def test_conjugation_orbits_match_scalar_conj(name, monkeypatch):
    monkeypatch.setattr(groups, "_BLOCK", 5)  # many blocks per generator
    g = construct_group(name)
    # Sym(4) × 1 is normal, so conjugation by g's generators keeps it
    sub = generated_subgroup(g, [_index(g, "(1 2 3 4)"), _index(g, "(1 2)")])
    points = np.array(sorted(sub))
    for by in (g.generators, [_index(g, "(1 2)"), _index(g, "(2 3 4)")]):
        assert g.conjugation_orbits(by, points).tolist() == \
            _scalar_orbit_labels(g, by, points.tolist())
    assert g.conjugation_orbits(g.generators).tolist() == \
        _scalar_orbit_labels(g, g.generators, range(len(g)))


@pytest.mark.parametrize("name", KEYED)
def test_conjugation_orbits_refuse_points_not_closed_under_conjugation(name):
    rows, tabled = (FiniteGroup(construct_group(name).matrix, name) for _ in range(2))
    tabled.table()
    for g in (rows, tabled):  # the row path and the Cayley-table path
        points = np.array(sorted([g.identity_index, _index(g, "(1 2)")]))
        with pytest.raises(ValueError, match="a conjugate is missing from the points"):
            g.conjugation_orbits([_index(g, "(1 2 3 4)")], points)


def test_mul_builds_no_table_above_the_cap():
    g = construct_group("sym7")
    assert g.table() is None and g._table is None
    g.mul(5, 6)
    g.mul_many(np.arange(10), 3)
    assert g._table is None


# -- Sym(n) and Alt(n): built in place, sorted keys, no row order ---------------

def _parity(p):
    return sum(a > b for a, b in itertools.combinations(p, 2)) & 1


# generator indices of sym(n) and alt(n) as built before the in-place build
GENERATORS = {1: ((), ()), 2: ((1,), ()), 3: ((2, 3), (1,)), 4: ((6, 9), (4, 5)),
              5: ((24, 33), (15, 19, 22)), 6: ((120, 153), (72, 87, 100, 112)),
              7: ((720, 873), (420, 492, 555, 616, 676))}


@pytest.mark.parametrize("n", range(1, 8))
def test_sym_and_alt_rows_are_lexicographic_permutations(n):
    perms = [list(p) for p in itertools.permutations(range(n))]
    sym, alt = groups._build_sym_or_alt("sym", n), groups._build_sym_or_alt("alt", n)
    assert sym.matrix.tolist() == perms
    assert alt.matrix.tolist() == [p for p in perms if not _parity(p)]
    assert (sym.generators, alt.generators) == GENERATORS[n]
    # lexicographic rows have ascending int keys: no row order is kept
    assert sym._row_order is None and alt._row_order is None


def test_rows_in_key_order_with_a_repeat_are_still_duplicates():
    rows = construct_group("sym3").matrix
    with pytest.raises(ValueError, match="duplicate element in element list"):
        FiniteGroup(np.concatenate([rows[:2], rows[1:]]), "bad")


def _shuffled(g, seed=0):
    """A copy of g with its rows in a shuffled order, so that it keeps a row
    order, and pos: g's index i is the copy's index pos[i]."""
    at = list(range(len(g)))
    random.Random(seed).shuffle(at)
    pos = np.argsort(at)
    return FiniteGroup(g.matrix[at], "shuffled", pos[list(g.generators)].tolist()), pos


def test_sorted_keys_search_like_a_row_order_through_a_shuffle():
    g = construct_group("sym7")
    h, pos = _shuffled(g)
    assert g._row_order is None and h._row_order is not None and len(g) > TABLE_CAP
    rng = random.Random(1)
    a = np.array([rng.randrange(len(g)) for _ in range(300)])
    b = np.array([rng.randrange(len(g)) for _ in range(300)])
    assert h._rank(g.matrix[a]).tolist() == pos[a].tolist()
    assert g._rank(g.matrix[a]).tolist() == a.tolist()
    assert all(h.index_of(g.element_tuple(x)) == pos[x] for x in a[:20].tolist())
    assert h.identity_index == pos[g.identity_index]
    for row in [(0,) * 7, (1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, -1)]:
        for k in (g, h):
            with pytest.raises(ValueError, match=re.escape(f"not an element of {k.name}")):
                k._rank(np.array([g.matrix[3], row]))
    assert [pos[g.mul(x, y)] for x, y in zip(a.tolist(), b.tolist())] == \
        [h.mul(pos[x], pos[y]) for x, y in zip(a.tolist(), b.tolist())]
    assert pos[g.mul_many(a[:, None], b[:40])].tolist() == \
        h.mul_many(pos[a][:, None], pos[b[:40]]).tolist()
    by = [g.generators[0], a.item(0)]
    labels = g.conjugation_orbits(by)
    least = np.full(len(g), len(g))
    np.minimum.at(least, labels, pos)  # least[label] = least copy index in that orbit
    expected = np.empty(len(g), dtype=np.intp)
    expected[pos] = least[labels]
    assert h.conjugation_orbits(pos[by].tolist()).tolist() == expected.tolist()
    x = a.item(1)
    assert {pos[y] for y in g.centralizer_of((x,))} == h.centralizer_of((pos[x],))


@pytest.mark.parametrize("name", sorted({s.canonical_name() for s in default_corpus()}
                                        | {"psl2(13)", "alt(7)"}))
def test_inverses_read_from_the_table_equal_the_ranked_ones(name):
    ranked, tabled = (FiniteGroup(construct_group(name).matrix, name) for _ in range(2))
    T, inv = tabled.table()
    assert ranked._table is None and tabled.inverse_array() is inv
    assert inv.dtype == np.int32 and not inv.flags.writeable
    assert inv.tolist() == ranked.inverse_array().tolist()
    assert ranked._table is None  # the rank path builds no table
    assert (T[np.arange(len(T)), inv] == tabled.identity_index).all()


_MEMORY_GUARD = """
import json, tracemalloc
from permlab import groups
out = {}
for name in ("sym9", "alt9"):
    tracemalloc.start()
    groups.construct_group(name)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    out[name] = [held / 2 ** 20, peak / 2 ** 20]
g = groups.construct_group("sym7")
g.class_representatives()
out["long"] = [k for k, v in vars(g).items()
               if isinstance(v, (list, tuple, dict)) and len(v) > 64]
print(json.dumps(out))
"""


def test_large_groups_hold_only_their_rows_and_keys(fresh_python):
    # traced MB: Sym(9)'s rows are 12.5 and its keys 2.8, Alt(9)'s half that;
    # building either by concatenation and an argsort peaked at 26.2
    out = fresh_python(_MEMORY_GUARD)
    held, peak = out["sym9"]
    assert peak < 18 and held < 16
    assert out["alt9"][1] < 10
    # no per-element Python containers once the classes are known
    assert out["long"] == []


# -- FO scans on a group above the cap ------------------------------------------

VARS = ("x", "a", "b")


def _terms():
    leaf = st.sampled_from([Var(v) for v in VARS] + [One()])
    return st.recursive(leaf, lambda t: st.one_of(
        st.builds(Mul, t, t), st.builds(Inv, t), st.builds(Comm, t, t)),
        max_leaves=5)


def _bodies():
    eq = st.builds(Eq, _terms(), _terms())
    return st.recursive(eq, lambda f: st.one_of(
        st.builds(Not, f), st.builds(And, f, f), st.builds(Or, f, f),
        st.builds(Implies, f, f)), max_leaves=3)


def _term_value(t, env):
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, One):
        return tuple(range(len(next(iter(env.values())))))
    if isinstance(t, Mul):
        return _compose(_term_value(t.left, env), _term_value(t.right, env))
    if isinstance(t, Inv):
        return _inverse(_term_value(t.arg, env))
    a, b = _term_value(t.left, env), _term_value(t.right, env)
    return _compose(_compose(a, b), _compose(_inverse(a), _inverse(b)))


def _holds(f, env):
    if isinstance(f, Eq):
        return _term_value(f.lhs, env) == _term_value(f.rhs, env)
    if isinstance(f, Not):
        return not _holds(f.arg, env)
    left, right = _holds(f.left, env), _holds(f.right, env)
    if isinstance(f, And):
        return left and right
    if isinstance(f, Or):
        return left or right
    return (not left) or right


@settings(max_examples=30, deadline=None)
@given(body=_bodies(), kind=st.sampled_from(["exists", "forall"]), data=st.data())
def test_first_hit_on_sym7_matches_a_per_binding_walk(body, kind, data):
    g, tuples, _index = _oracle("sym7")
    elem = st.integers(0, len(g) - 1)
    env = {"a": data.draw(elem), "b": data.draw(elem)}
    domain = data.draw(st.one_of(
        st.just(range(len(g))),
        st.lists(elem, max_size=40, unique=True).map(sorted)))
    want = kind == "exists"
    expected = next((x for x in domain if _holds(body, {
        "x": tuples[x], **{v: tuples[i] for v, i in env.items()}}) == want), None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_BLOCK", 7)  # early exit across many blocks
        assert _Evaluator(g, "class").first_hit(kind, "x", domain, body, env) == expected
