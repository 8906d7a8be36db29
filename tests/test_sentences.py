"""Concrete sentences vs their independent oracles."""

import pytest

from permlab import groups
from permlab.cli import main
from permlab.errors import CapExceededError
from permlab.fo import evaluate, parse_formula, to_text
from permlab.groups import FiniteGroup, GroupSpec, construct_group, default_corpus
from permlab.sentences import (classify_nonabelian_simple,
                               commutator_coverage_bruteforce,
                               congruence_oracle_alt, congruence_sentence,
                               congruence_shift, felgner_corpus_report,
                               felgner_phi, felgner_report, holds_on_sym, phi1, phi2,
                               prime_remark_oracle, prime_remark_sentence,
                               satisfies_congruence, sentence_report)


def G(spec):
    return construct_group(spec)


# -- classifier ------------------------------------------------------------------

def test_classifier_examples():
    assert classify_nonabelian_simple(G("alt5"))
    assert not classify_nonabelian_simple(G("sym5"))
    assert not classify_nonabelian_simple(G("z5"))  # simple but abelian


def test_classifier_exact_on_default_corpus():
    expected_true = {"alt(5)", "alt(6)", "psl2(5)", "psl2(7)", "psl2(11)"}
    for spec in default_corpus():
        g = G(spec)
        assert classify_nonabelian_simple(g) == (spec.canonical_name() in expected_true)


# -- phi2 vs brute commutator coverage ----------------------------------------------

def brute_commutators(g):
    """Commutator indices from raw element tuples, sharing no group arithmetic."""
    elems = [g.element_tuple(i) for i in range(len(g))]
    index = {t: i for i, t in enumerate(elems)}

    def compose(p, q):
        return tuple(p[j] for j in q)

    def invert(p):
        inv = [0] * len(p)
        for i, j in enumerate(p):
            inv[j] = i
        return tuple(inv)
    return {index[compose(compose(a, b), compose(invert(a), invert(b)))]
            for a in elems for b in elems}


@pytest.mark.parametrize("spec", ["sym3", "sym4", "alt4", "alt5", "z6", "d8",
                                  "alt6"])
def test_phi2_matches_bruteforce(spec):
    g = G(spec)
    covered = brute_commutators(g) == set(range(len(g)))
    assert commutator_coverage_bruteforce(g) == covered
    assert evaluate(phi2(), g, "class") == covered


def test_phi2_corpus_invariant():
    for spec in default_corpus():
        g = G(spec)
        assert evaluate(phi2(), g, "class") == commutator_coverage_bruteforce(g)


def test_commutator_cap():
    with pytest.raises(CapExceededError):
        commutator_coverage_bruteforce(G("alt7"))


def test_phi1_shapes_and_readings():
    lit = phi1("literal")
    gen = phi1("generated")
    assert lit != gen
    assert "pow_stab" in to_text(lit)
    assert to_text(parse_formula(to_text(lit))) == to_text(lit)
    with pytest.raises(ValueError):
        phi1("sideways")
    both = felgner_phi("literal")
    assert to_text(both).count("forall") >= 3


def test_phi1_evaluates_on_small_groups():
    # exploratory: values are recorded, not asserted against the classifier
    for spec in ("sym3", "alt4", "z6"):
        for reading in ("literal", "generated"):
            value = evaluate(phi1(reading), G(spec), "class")
            assert value in (True, False)


# -- congruence sentences --------------------------------------------------------------

def test_congruence_shift():
    assert congruence_shift(1, 3) == 4
    assert congruence_shift(2, 3) == 5
    assert congruence_shift(0, 3) == 6  # two shifts needed
    assert congruence_shift(0, 5) == 5
    assert congruence_shift(4, 5) == 4
    assert congruence_shift(3, 7) == 10
    assert congruence_shift(4, 3) == 4  # l >= q allowed; only l mod q matters
    with pytest.raises(ValueError):
        congruence_shift(3, 4)
    with pytest.raises(ValueError):
        congruence_shift(-1, 3)
    with pytest.raises(ValueError):
        congruence_shift(0, 2)


def test_congruence_sentence_text():
    f = congruence_sentence(1, 3)
    assert to_text(f) == ("exists g. g*g*g = 1 & !(g = 1)"
                          " & alt_factor_index_le(C(g), 4, 2)")
    assert parse_formula(to_text(f)) == f


def test_congruence_oracle_examples():
    assert congruence_oracle_alt(11, 4, 7)
    assert not congruence_oracle_alt(12, 4, 7)
    assert not congruence_oracle_alt(4, 4, 3)  # no room for the 3-cycle
    assert congruence_oracle_alt(7, 1, 3)
    assert not congruence_oracle_alt(6, 1, 3)


def test_congruence_alt7_positive_example():
    assert satisfies_congruence(G("alt7"), 1, 3)


def test_congruence_alt6_negative_example():
    assert not satisfies_congruence(G("alt6"), 1, 3)


def test_congruence_trivial_group():
    assert not satisfies_congruence(G("cyclic1"), 1, 3)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_congruence_matches_oracle_small_degrees(n):
    g = G(f"alt{n}")
    for q in (3, 5):
        for l in range(q):
            assert satisfies_congruence(g, l, q) == congruence_oracle_alt(n, l, q), \
                (n, l, q)


def test_congruence_strategy_agreement_alt5():
    g = G("alt5")
    for q in (3, 5):
        for l in range(q):
            f = congruence_sentence(l, q)
            vals = {s: evaluate(f, g, s) for s in ("naive", "class", "centralizer")}
            assert len(set(vals.values())) == 1


# -- prime remark -------------------------------------------------------------------

def test_prime_remark_text_round_trip():
    f = prime_remark_sentence()
    assert parse_formula(to_text(f)) == f


def test_prime_remark_oracle_values():
    assert [prime_remark_oracle(n) for n in range(2, 10)] == \
        [True, True, True, True, True, True, True, False]
    assert prime_remark_oracle(12)  # 11 prime
    assert not prime_remark_oracle(10)
    assert prime_remark_oracle(13)
    with pytest.raises(ValueError):
        prime_remark_oracle(1)


@pytest.mark.parametrize("n", range(2, 8))
def test_prime_remark_matches_oracle(n):
    assert holds_on_sym(n) == prime_remark_oracle(n)


def test_prime_remark_strategy_agreement():
    f = prime_remark_sentence()
    for n in (2, 3, 4, 5):
        g = G(f"sym{n}")
        vals = {s: evaluate(f, g, s) for s in ("naive", "class", "centralizer")}
        assert len(set(vals.values())) == 1


def test_prime_remark_rejects_degenerate_degree():
    with pytest.raises(ValueError):
        holds_on_sym(1)


# -- reports -------------------------------------------------------------------------

def test_sentence_report_fields():
    g = G("sym3")
    r = sentence_report(g, "felgner.phi2", phi2(), "class",
                        oracle=commutator_coverage_bruteforce(g))
    assert r.group == "sym(3)" and r.sentence == "felgner.phi2"
    assert r.value is False and r.oracle is False
    assert r.agrees() is True


def test_felgner_corpus_report_subset():
    rows = felgner_corpus_report([GroupSpec("sym", 3), GroupSpec("alt", 5)])
    ids = {(r.group, r.sentence) for r in rows}
    assert ("sym(3)", "felgner.phi2") in ids
    assert ("alt(5)", "felgner.phi1.literal") in ids
    assert ("alt(5)", "felgner.phi1.generated") in ids
    assert len(rows) == 6
    assert rows == sorted(rows, key=lambda r: (r.group, r.sentence))
    phi2_rows = {r.group: r for r in rows if r.sentence == "felgner.phi2"}
    assert phi2_rows["alt(5)"].agrees() is True
    assert phi2_rows["sym(3)"].agrees() is True


def _count_simplicity_computations(monkeypatch):
    """Groups built afresh; the group names whose simplicity is computed,
    not read back from the memo store."""
    monkeypatch.setattr(groups, "_CONSTRUCT_CACHE", {})
    names, memoized = [], FiniteGroup.memoized
    monkeypatch.setattr(FiniteGroup, "memoized", lambda g, query, key, compute: memoized(
        g, query, key, (lambda: names.append(g.name) or compute())
        if query == "is_simple" else compute))
    return names


def test_felgner_corpus_report_classifies_each_group_once(monkeypatch):
    specs = [GroupSpec("sym", 3), GroupSpec("alt", 5)]
    expected = sorted((felgner_report(G(spec), sid) for spec in specs
                       for sid in ("felgner.phi2", "felgner.phi1.literal",
                                   "felgner.phi1.generated")),
                      key=lambda r: (r.group, r.sentence))
    computed = _count_simplicity_computations(monkeypatch)
    assert felgner_corpus_report(specs) == expected
    assert sorted(computed) == ["alt(5)", "sym(3)"]


def test_verify_both_phi1_readings_classify_each_group_once(monkeypatch, tmp_path):
    computed = _count_simplicity_computations(monkeypatch)
    assert main(["verify", "--groups", "sym3,alt5,psl2(7)", "--sentences",
                 "felgner.phi1.literal,felgner.phi1.generated",
                 "-o", str(tmp_path / "r.json")]) == 0
    assert computed == ["sym(3)", "alt(5)", "psl2(7)"]


def test_felgner_report_pairs_each_sentence_with_its_oracle():
    g = G("alt5")
    phi2_row = felgner_report(g, "felgner.phi2", "naive")
    assert (phi2_row.strategy, phi2_row.oracle) == \
        ("naive", commutator_coverage_bruteforce(g))
    for reading in ("literal", "generated"):
        row = felgner_report(g, f"felgner.phi1.{reading}")
        assert row == sentence_report(g, f"felgner.phi1.{reading}", phi1(reading),
                                      oracle=classify_nonabelian_simple(g))
    with pytest.raises(ValueError):
        felgner_report(g, "felgner.verdict")
