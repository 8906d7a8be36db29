"""Residue selectors, CRT, witness primes, factorial gaps."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab import arithmetic
from permlab.arithmetic import (SelectorProblem, alt_target_degrees,
                                crt_combine, factorial_gap_check,
                                factorial_half, find_witness_prime,
                                fourth_powers, is_prime, residue_pair)
from permlab.errors import CapExceededError


# -- primality ----------------------------------------------------------------

def test_is_prime_small_values():
    primes_below_100 = [n for n in range(100) if is_prime(n)]
    assert primes_below_100 == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83,
                                89, 97]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_is_prime_large_values_cross_checked():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(10 ** 6, 10 ** 13)
        assert is_prime(n) == sympy.isprime(n)
    # deterministic band boundaries
    for n in (10 ** 6 - 1, 10 ** 6, 10 ** 6 + 3, 2 ** 31 - 1, 28561):
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_past_twelve_bases_and_refused_at_thirteen():
    # psi_12, the least strong pseudoprime to the bases 2..37, and psi_13,
    # the same for 2..41 (Sorenson and Webster, Math. Comp. 86, 2017)
    psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    assert is_prime(psi13 - 168)  # the largest prime below psi_13 (sympy.prevprime)
    for n in (psi13, psi13 + 2, 10 ** 40):
        with pytest.raises(CapExceededError, match="primality is decided only below"):
            is_prime(n)


def test_28561_is_a_fourth_power_not_prime():
    assert 28561 == 13 ** 4
    assert not is_prime(28561)
    assert is_prime(13)


# -- fourth powers and residue pairs ----------------------------------------------

def test_fourth_powers_examples():
    assert fourth_powers(7) == {1, 2, 4}
    assert fourth_powers(11) == {1, 3, 4, 5, 9}
    # q = 5: units have exponent 4, every fourth power is 1
    assert fourth_powers(5) == {1}


def test_residue_pair_examples():
    r7 = residue_pair(7)
    assert (r7.c, r7.d, r7.a0, r7.a1, r7.b0, r7.b1) == (2, 2, 0, 1, 1, 2)
    r11 = residue_pair(11)
    assert (r11.c, r11.d, r11.a0, r11.a1, r11.b0, r11.b1) == (3, 4, 0, 2, 1, 4)


def test_residue_pair_rejects_small_or_composite():
    with pytest.raises(ValueError):
        residue_pair(5)  # fourth powers are {1}: provably no nontrivial c
    with pytest.raises(ValueError):
        residue_pair(9)
    with pytest.raises(ValueError):
        residue_pair(2)


def test_residue_pair_invariants_all_primes_to_499():
    for q in range(7, 500):
        if not is_prime(q):
            continue
        r = residue_pair(q)
        assert r.a0 == 0 and r.b0 == 1
        assert r.a0 != r.a1
        assert pow(r.d, 4, q) == r.c
        assert r.c not in (0, 1)
        assert r.a1 == (r.c - 1) % q
        # brute-force minimality of c and d
        image = {pow(x, 4, q) for x in range(1, q)}
        assert r.c == min(image - {1})
        assert r.d == min(x for x in range(1, q) if pow(x, 4, q) == r.c)


# -- CRT ---------------------------------------------------------------------------

def test_crt_examples():
    assert crt_combine({7: 2, 11: 4}) == (37, 77)
    assert crt_combine({7: 1}) == (1, 7)
    assert crt_combine({7: 2, 11: 2}) == (2, 77)


def test_crt_errors():
    with pytest.raises(ValueError):
        crt_combine({})
    with pytest.raises(ValueError):
        crt_combine({6: 1, 4: 2})  # not coprime
    with pytest.raises(ValueError):
        crt_combine({0: 0})


@given(st.integers(0, 7 * 11 * 13 - 1))
@settings(max_examples=200)
def test_crt_reconstructs_value(l):
    moduli = (7, 11, 13)
    out, m = crt_combine({q: l % q for q in moduli})
    assert m == 7 * 11 * 13
    assert out == l


# -- witness primes ------------------------------------------------------------------

def test_witness_prime_q7_selector_one():
    p = find_witness_prime(SelectorProblem.of({7: 1}))
    assert p == 23
    assert p % 7 == 2
    assert (p ** 4 - 1) % 7 == 1


def test_witness_prime_q7_selector_zero():
    p = find_witness_prime(SelectorProblem.of({7: 0}))
    assert p == 29
    assert (p ** 4 - 1) % 7 == 0


def test_witness_prime_q7_q11_both_one():
    p = find_witness_prime(SelectorProblem.of({7: 1, 11: 1}))
    assert p == 37
    assert (p ** 4 - 1) % 7 == 1
    assert (p ** 4 - 1) % 11 == 2


def test_witness_prime_verification_property():
    rng = random.Random(11)
    qs = [q for q in range(7, 60) if is_prime(q)]
    for _ in range(12):
        chosen = rng.sample(qs, rng.randrange(1, 4))
        gamma = {q: rng.randrange(2) for q in chosen}
        p = find_witness_prime(SelectorProblem.of(gamma))
        assert is_prime(p) and p >= 13
        for q, g in gamma.items():
            want = residue_pair(q).a(g)
            assert (p ** 4 - 1) % q == want


def test_witness_prime_distinct_selectors_give_distinct_residues():
    # the point of the construction: different gamma at the same q force
    # p**4 - 1 into different residue classes, so the witness sets are disjoint
    p1 = find_witness_prime(SelectorProblem.of({7: 1}))
    p0 = find_witness_prime(SelectorProblem.of({7: 0}))
    assert (p1 ** 4 - 1) % 7 != (p0 ** 4 - 1) % 7


def test_selector_problem_validation():
    with pytest.raises(ValueError):
        SelectorProblem.of({5: 1})
    with pytest.raises(ValueError):
        SelectorProblem.of({})
    with pytest.raises(ValueError):
        SelectorProblem(qs=(7,), gamma=(2,))
    with pytest.raises(ValueError):
        SelectorProblem(qs=(7, 7), gamma=(0, 1))


def test_scan_budget_failure_is_loud(monkeypatch):
    # the progression for {7: 1} from the floor 13 runs 16, 23, ...
    monkeypatch.setattr(arithmetic, "PRIME_SCAN_LIMIT", 1)
    with pytest.raises(CapExceededError, match="within 1 candidates"):
        find_witness_prime(SelectorProblem.of({7: 1}))
    monkeypatch.setattr(arithmetic, "PRIME_SCAN_LIMIT", 2)
    assert find_witness_prime(SelectorProblem.of({7: 1})) == 23


# -- target degrees and factorial gaps --------------------------------------------------

def test_alt_target_degrees():
    assert alt_target_degrees(13, 13) == [28560]
    assert alt_target_degrees(2, 13) == [15, 80, 624, 2400, 14640, 28560]
    with pytest.raises(ValueError):
        alt_target_degrees(10, 5)


def test_factorial_half_examples():
    assert factorial_half(5) == 60
    assert factorial_half(6) == 360
    assert factorial_half(2) == 1
    with pytest.raises(ValueError):
        factorial_half(1)


def test_factorial_gap_examples():
    assert factorial_gap_check(6, 5)  # ratio 6
    assert factorial_gap_check(9, 9)
    assert factorial_gap_check(5, 6)  # ratio 1/6


def test_factorial_gap_exhaustive_to_200():
    values = {n: factorial(n) // 2 for n in range(2, 201)}
    for n in range(2, 201):
        for m in range(2, 201):
            assert factorial_gap_check(n, m)
            if n != m:
                ratio = Fraction(values[n], values[m])
                assert not (Fraction(1, 2) < ratio < 2)
