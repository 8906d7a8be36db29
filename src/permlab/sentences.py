"""The concrete sentence corpus and its independent oracles.

Three families:

* the simplicity sentence phi1 ∧ phi2 (commutator coverage plus the
  power-stabilization condition, under both readings of the power chain),
  evaluated for exploration only; the authoritative classifier is the
  brute-force non-abelian-simple check;
* the congruence sentences phi(l, q) that pin n mod q on alternating
  groups, with a pure arithmetic oracle;
* the prime remark sentence, true on Sym(n) exactly when n or n - 1 is
  prime, again with an arithmetic oracle.
"""

from __future__ import annotations

import numpy as np

from .arithmetic import is_prime
from .errors import CapExceededError
from .fo import And, evaluate_detailed, parse_formula
from .groups import (FiniteGroup, GroupSpec, construct_group, default_corpus,
                     is_abelian, is_simple_bruteforce)
from .record import Record

__all__ = [
    "phi1", "phi2", "felgner_phi", "classify_nonabelian_simple",
    "commutator_coverage_bruteforce",
    "congruence_shift", "congruence_sentence", "satisfies_congruence",
    "congruence_oracle_alt",
    "prime_remark_sentence", "holds_on_sym", "prime_remark_oracle",
    "SentenceReport", "sentence_report", "felgner_report",
    "felgner_corpus_report",
    "COMMUTATOR_CAP",
]

COMMUTATOR_CAP = 2000
_COVERAGE_BLOCK = 1 << 16  # commutators gathered per step of the coverage scan

PHI2_TEXT = "forall g. exists h1. exists h2. g = [h1, h2]"

_PHI1_TEMPLATE = (
    "forall g. forall h. !(g = 1) & !trivial(C(g, h)) -> "
    "trivial(pow_stab(prod(C(g, h), C(C(g, h))), {reading}))"
)

PRIME_REMARK_TEXT = (
    "exists g. forall h. g*h = h*g -> (h = 1 | (exists k. h*k = k*g))"
)


def phi2():
    """Every element is a commutator."""
    return parse_formula(PHI2_TEXT)


def phi1(reading: str = "literal"):
    """The power-stabilization condition on products of double centralizers.

    `reading` picks the interpretation of the stabilized power chain:
    'literal' intersects the power sets, 'generated' closes to the
    generated subgroup.  Exploratory only; never used as a classifier.
    """
    if reading not in ("literal", "generated"):
        raise ValueError(f"reading must be 'literal' or 'generated', got {reading!r}")
    return parse_formula(_PHI1_TEMPLATE.format(reading=reading))


def felgner_phi(reading: str = "literal"):
    """phi1(reading) ∧ phi2."""
    return And(phi1(reading), phi2())


def classify_nonabelian_simple(G: FiniteGroup) -> bool:
    """Authoritative: brute-force simple and non-abelian."""
    return is_simple_bruteforce(G) and not is_abelian(G)


def commutator_coverage_bruteforce(G: FiniteGroup) -> bool:
    """Direct check that {[a, b]} covers G; the oracle behind phi2."""
    if len(G) > COMMUTATOR_CAP:
        raise CapExceededError(
            f"commutator coverage scan capped at {COMMUTATOR_CAP} elements")
    n, inv = len(G), G.inverse_array()
    seen = np.zeros(n, dtype=bool)
    block = max(1, _COVERAGE_BLOCK // n)
    for start in range(0, n, block):
        a = np.arange(start, min(start + block, n))[:, None]
        # [a, b] = (a·b)·(a^-1·b^-1), one row of b's per a
        seen[G.mul_many(G.mul_many(a, np.arange(n)), G.mul_many(inv[a], inv))] = True
        if seen.all():
            return True
    return False


# -- congruence sentences -----------------------------------------------------

def congruence_shift(l: int, q: int) -> int:
    """The effective fixed-point count l': l raised by multiples of q to >= 4."""
    _check_congruence_params(l, q)
    lp = l
    while lp < 4:
        lp += q
    return lp


def _check_congruence_params(l: int, q: int):
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ValueError(f"q must be an odd prime >= 3, got {q}")
    # only l mod q matters for the congruence; l >= q just starts the
    # fixed-point count higher, so any l >= 0 is meaningful
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")


def congruence_sentence(l: int, q: int):
    """phi(l, q): some element of order q whose centralizer has an
    alternating factor of degree l' with co-small complement."""
    lp = congruence_shift(l, q)
    return parse_formula(
        f"exists g. {_power_text('g', q)} = 1 & !(g = 1)"
        f" & alt_factor_index_le(C(g), {lp}, 2)")


def _power_text(x: str, k: int) -> str:
    """x^k as a balanced product, the left half taking the ceiling, so the
    term is about log2(k) levels deep rather than k."""
    if k == 1:
        return x
    left, right = _power_text(x, k - k // 2), _power_text(x, k // 2)
    return f"{left}*{right}" if k // 2 == 1 else f"{left}*({right})"


def satisfies_congruence(G: FiniteGroup, l: int, q: int,
                         strategy: str = "class") -> bool:
    return evaluate_detailed(congruence_sentence(l, q), G, strategy).value


def congruence_oracle_alt(n: int, l: int, q: int) -> bool:
    """Arithmetic truth of phi(l, q) on Alt(n): n ≡ l (mod q) with room for
    at least one q-cycle next to l' fixed points."""
    lp = congruence_shift(l, q)
    return n % q == lp % q and n >= lp + q


# -- prime remark ---------------------------------------------------------------

def prime_remark_sentence():
    """Some g whose centralizer, modulo the identity, lies in its class."""
    return parse_formula(PRIME_REMARK_TEXT)


def holds_on_sym(n: int, strategy: str = "centralizer") -> bool:
    if n < 2:
        raise ValueError("the remark sentence is studied on Sym(n), n >= 2")
    G = construct_group(GroupSpec("sym", n))
    return evaluate_detailed(prime_remark_sentence(), G, strategy).value


def prime_remark_oracle(n: int) -> bool:
    if n < 2:
        raise ValueError("the oracle is defined for n >= 2")
    return is_prime(n) or is_prime(n - 1)


# -- reports -----------------------------------------------------------------------

class SentenceReport(Record):
    group: str
    sentence: str
    strategy: str
    value: bool
    oracle: bool | None
    witness: dict | None

    def agrees(self) -> bool | None:
        if self.oracle is None:
            return None
        return self.value == self.oracle


def sentence_report(G: FiniteGroup, sentence_id: str, formula,
                    strategy: str = "class",
                    oracle: bool | None = None) -> SentenceReport:
    r = evaluate_detailed(formula, G, strategy)
    return SentenceReport(group=G.name, sentence=sentence_id,
                          strategy=r.strategy, value=r.value, oracle=oracle,
                          witness=r.witness)


_FELGNER_SENTENCES = ("felgner.phi2", "felgner.phi1.literal",
                      "felgner.phi1.generated")


def _felgner_reports(G: FiniteGroup, sentence_ids,
                     strategy: str) -> list[SentenceReport]:
    """`felgner_report` for each id, running the classifier at most once."""
    rows, simple = [], None
    for sid in sentence_ids:
        if sid == "felgner.phi2":
            formula, oracle = phi2(), commutator_coverage_bruteforce(G)
        elif sid in _FELGNER_SENTENCES:
            if simple is None:
                simple = classify_nonabelian_simple(G)
            formula, oracle = phi1(sid.rsplit(".", 1)[1]), simple
        else:
            raise ValueError(f"unknown felgner sentence {sid!r}")
        rows.append(sentence_report(G, sid, formula, strategy, oracle=oracle))
    return rows


def felgner_report(G: FiniteGroup, sentence_id: str,
                   strategy: str = "class") -> SentenceReport:
    """One felgner sentence on G, paired with its oracle: commutator coverage
    for phi2, the brute-force classifier for the exploratory phi1 rows."""
    return _felgner_reports(G, (sentence_id,), strategy)[0]


def felgner_corpus_report(specs=None, strategy: str = "class") -> list[SentenceReport]:
    """Every felgner sentence across the corpus, paired as in
    `felgner_report`, with the classifier run once per group.  Ordered by
    (group, sentence id).  phi1 rows are exploratory: their oracle is the
    classifier, and disagreement is information, not failure."""
    rows = [row for spec in (default_corpus() if specs is None else specs)
            for row in _felgner_reports(construct_group(spec),
                                        _FELGNER_SENTENCES, strategy)]
    return sorted(rows, key=lambda r: (r.group, r.sentence))
