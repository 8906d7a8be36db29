"""The per-group memo store: each routed query computes once per key, results
are pure, and no module outside `groups` touches FiniteGroup's private state."""

import ast
import tracemalloc
from pathlib import Path

import pytest

import permlab
from permlab import groups
from permlab.fo import evaluate_detailed, macros
from permlab.fo.evaluate import STRATEGIES, _orbit_reps
from permlab.groups import FiniteGroup, construct_group, is_subgroup
from permlab.perms import parse_permutation
from permlab.sentences import (congruence_sentence, felgner_phi, phi2,
                               prime_remark_sentence)


def fresh(kind, n):
    """A newly built group, so that no earlier test has filled its store."""
    return groups._build_sym_or_alt(kind, n)


def idx(group, cycles):
    return group.index_of(parse_permutation(f"{cycles} deg={group.degree}"))


def counting(monkeypatch, owner, name):
    """Wrap owner.name so that calls to it are counted in the returned list."""
    calls, inner = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_memoized_computes_once_per_query_and_key():
    g, runs = fresh("sym", 3), []

    def compute():
        runs.append(1)
        return len(runs)
    assert g.memoized("q", 1, compute) == g.memoized("q", 1, compute) == 1
    assert g.memoized("q", 2, compute) == 2
    assert g.memoized("r", 1, compute) == 3  # another query, another entry
    assert len(runs) == 3


def test_centralizer_computes_once_per_key(monkeypatch):
    # counted at the memo store: a one-element key runs no generating_subset
    g = fresh("sym", 5)
    a, b = idx(g, "(1 2)"), idx(g, "(1 2 3)")
    computes = computed(monkeypatch)
    first = g.centralizer_of({a})
    assert g.centralizer_of([a]) is first
    assert g.centralizer_of({a, b}) is g.centralizer_of((b, a))
    assert computes == ["centralizer", "centralizer"]


def test_every_central_key_shares_the_whole_group_set(monkeypatch):
    g = fresh("sym", 4)
    whole = g.centralizer_of({g.identity_index})
    assert whole == frozenset(range(len(g)))
    assert g.centralizer_of(()) is whole
    scans = counting(monkeypatch, groups, "generating_subset")
    assert g.centralizer_of({g.identity_index}) is whole
    assert not scans


def test_is_subgroup_computes_once_per_key(monkeypatch):
    g = fresh("alt", 5)
    scans = counting(monkeypatch, groups, "generating_subset")
    c = frozenset({g.identity_index, idx(g, "(1 2 3)"), idx(g, "(1 3 2)")})
    assert is_subgroup(g, c) and is_subgroup(g, sorted(c))
    assert not is_subgroup(g, c - {g.identity_index})  # decided without a scan
    assert not is_subgroup(g, c - {g.identity_index})
    assert len(scans) == 1


def test_subgroup_class_reps_compute_once_per_key(monkeypatch):
    g = fresh("sym", 4)
    W = g.centralizer_of({idx(g, "(1 2)")})
    scans = counting(monkeypatch, FiniteGroup, "conjugation_orbits")
    reps = groups._subgroup_class_reps(g, W)
    assert groups._subgroup_class_reps(g, W) is reps
    assert len(scans) == 1


def computed(monkeypatch):
    """Patch FiniteGroup.memoized so that the query of each computed (not
    looked up) result is recorded in the returned list."""
    runs, inner = [], FiniteGroup.memoized

    def memoized(self, query, key, compute):
        return inner(self, query, key, lambda: runs.append(query) or compute())
    monkeypatch.setattr(FiniteGroup, "memoized", memoized)
    return runs


def test_class_partition_and_classes_compute_once(monkeypatch):
    g = fresh("sym", 5)
    runs = computed(monkeypatch)
    orbits = counting(monkeypatch, FiniteGroup, "conjugation_orbits")
    classes = g.conjugacy_classes()
    assert g.conjugacy_classes() is classes
    assert len(g.class_representatives()) == len(classes) == 7
    assert g.are_conjugate(idx(g, "(1 2)"), idx(g, "(4 5)"))
    assert g.class_of(g.identity_index) == {g.identity_index}
    assert [q for q in runs if q in ("class_scan", "partition", "classes")] == \
        ["classes", "partition", "class_scan"]
    assert not orbits  # the classes come from the scan in index order


@pytest.mark.parametrize("kind", ["sym", "alt"])
def test_class_reps_and_conjugacy_of_degree_nine_build_no_partition(monkeypatch, kind):
    g = fresh(kind, 9)
    orbits = counting(monkeypatch, FiniteGroup, "conjugation_orbits")
    reps = g.class_representatives()
    nine_cycles = [r for r in reps if g.order_of(r) == 9]
    assert len(nine_cycles) == {"sym": 1, "alt": 2}[kind]  # the 9-cycles split in Alt(9)
    cycle = idx(g, "(1 2 3 4 5 6 7 8 9)")
    assert sum(g.are_conjugate(cycle, r) for r in nine_cycles) == 1
    assert g.are_conjugate(idx(g, "(1 2 3)"), idx(g, "(7 8 9)"))
    assert not g.are_conjugate(idx(g, "(1 2 3)"), idx(g, "(1 2 3)(4 5 6)"))
    assert not orbits
    assert not [key for key in g._memo if key[0] in ("partition", "classes")]


def test_alt_spectrum_is_computed_once(monkeypatch):
    construct_group("alt5")._memo.clear()
    scans = counting(monkeypatch, groups, "element_order_spectrum")
    spectrum = groups._alt_spectrum(5)
    assert groups._alt_spectrum(5) is spectrum
    assert spectrum == {1: 1, 2: 15, 3: 20, 5: 24}
    assert len(scans) == 1


def test_orbit_reps_are_keyed_by_the_centralizer(monkeypatch):
    g = fresh("sym", 4)
    scans = counting(monkeypatch, FiniteGroup, "conjugation_orbit_reps")
    reps = _orbit_reps(g, frozenset({idx(g, "(1 2 3)")}))
    # (1 3 2) has the same centralizer, so its orbits are not recomputed
    assert _orbit_reps(g, frozenset({idx(g, "(1 3 2)")})) is reps
    assert len(scans) == 1


def test_macro_and_set_function_calls_compute_once(monkeypatch):
    g = fresh("alt", 4)
    runs = []

    def wrap(registry, name):
        spec, impl = registry[name]

        def counted(G, resolved):
            runs.append(name)
            return impl(G, resolved)
        monkeypatch.setitem(registry, name, (spec, counted))
    wrap(macros.MACROS, "trivial")
    wrap(macros.SET_FUNCTIONS, "C")
    a, b = idx(g, "(1 2)(3 4)"), idx(g, "(1 2 3)")
    centralizer = macros.call_set_function(g, "C", (a,))
    assert macros.call_set_function(g, "C", (a,)) is centralizer
    assert centralizer == g.centralizer_of({a})
    assert macros.call_set_function(g, "C", (a, b)) == {g.identity_index}
    for _ in range(2):
        assert not macros.call_macro(g, "trivial", (centralizer,))
        assert macros.call_macro(g, "trivial", (frozenset({g.identity_index}),))
    assert runs == ["C", "C", "trivial", "trivial"]


def test_central_keys_build_no_whole_group_sets():
    # prime_remark's outer quantifier ranges over C(∅) and the identity's
    # commute rewrite over C(1); both are the whole group and need no set
    g = fresh("sym", 8)
    tracemalloc.start()
    try:
        result = evaluate_detailed(prime_remark_sentence(), g, "centralizer")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.value and result.witness == {"g": "(2 3 4 5 6 7 8)"}
    whole = [key for key, value in g._memo.items() if isinstance(value, frozenset)
             and len(value) == len(g) and key != ("centralizer", frozenset())]
    assert not whole
    # 2.0 MB measured against 5.3 MB when C(∅) and C(1) were built as sets
    assert peak < 3 * 2 ** 20


SENTENCES = [phi2(), congruence_sentence(1, 3), prime_remark_sentence(),
             felgner_phi("literal")]


@pytest.mark.parametrize("spec", ["alt5", "sym5", "psl2(7)"])
def test_a_cold_and_a_warm_store_give_equal_results(spec):
    g = construct_group(spec)
    runs = [(f, s) for f in SENTENCES for s in STRATEGIES]
    cold = []
    for f, s in runs:
        g._memo.clear()
        cold.append(evaluate_detailed(f, g, s))
    warm = [evaluate_detailed(f, g, s) for f, s in runs]
    assert warm == cold


# -- private state stays inside groups.py ------------------------------------------

PACKAGE = Path(permlab.__file__).parent


def _private_state() -> set[str]:
    """The private attribute names that FiniteGroup.__init__ assigns."""
    tree = ast.parse((PACKAGE / "groups.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "FiniteGroup")
    init = next(n for n in cls.body
                if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    return {node.attr for node in ast.walk(init)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            and node.attr.startswith("_")}


def test_private_group_state_is_only_touched_in_groups():
    private = _private_state()
    assert {"_memo", "_table", "_generators"} <= private
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "groups.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.relative_to(PACKAGE)}:{node.lineno} .{node.attr}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in private]
    assert not offenders
