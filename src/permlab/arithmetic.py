"""Fourth-power residue selectors, CRT, witness-prime search, factorial gaps.

Everything here is exact integer arithmetic.  The selector machinery picks,
for each prime q >= 7, two target residues a0 = 0 and a1 = c - 1 (c the
smallest nontrivial fourth power mod q) such that a prime p chosen by
congruence conditions lands p**4 - 1 on whichever of the two a-residues a
selector map requests, for every q simultaneously.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, isqrt
from typing import Mapping

from .errors import CapExceededError
from .record import Record

__all__ = [
    "is_prime", "fourth_powers", "ResiduePair", "residue_pair",
    "crt_combine", "SelectorProblem", "find_witness_prime",
    "alt_target_degrees", "factorial_half", "factorial_gap_check",
    "PRIME_SCAN_LIMIT",
]

PRIME_SCAN_LIMIT = 10 ** 7

_TRIAL_BOUND = 10 ** 6
# bases deciding primality below _MR_BOUND = psi_13 (Sorenson, Webster, Math. Comp. 86)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality below psi_13 ~ 3.3e24; CapExceededError above."""
    if n >= _MR_BOUND:
        raise CapExceededError(f"primality is decided only below {_MR_BOUND}, not for {n}")
    if n < 2:
        return False
    if n < _TRIAL_BOUND:
        if n < 4:
            return True
        if n % 2 == 0:
            return False
        f = 3
        r = isqrt(n)
        while f <= r:
            if n % f == 0:
                return False
            f += 2
        return True
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def fourth_powers(q: int) -> set[int]:
    """The image of x -> x**4 on the units mod q."""
    if q < 2 or not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    return {pow(x, 4, q) for x in range(1, q)}


class ResiduePair(Record):
    """Target residues (a0, a1) and matching prime residues (b0, b1) mod q.

    A prime p with p ≡ b_i (mod q) has p**4 - 1 ≡ a_i (mod q): b0 = 1 gives
    a0 = 0, and b1 = d (a fourth root of c) gives a1 = c - 1.
    """

    q: int
    a0: int
    a1: int
    b0: int
    b1: int
    c: int
    d: int

    def __post_init__(self):
        if self.a0 != 0 or self.b0 != 1:
            raise ValueError("the zero selector is pinned to a0 = 0, b0 = 1")
        if self.a0 == self.a1:
            raise ValueError("selector residues must differ")
        if self.c % self.q in (0, 1):
            raise ValueError("c must be a nontrivial fourth power")
        if pow(self.d, 4, self.q) != self.c % self.q:
            raise ValueError("d**4 must be c mod q")
        if (self.c - 1) % self.q != self.a1:
            raise ValueError("a1 must be c - 1 mod q")

    def a(self, gamma: int) -> int:
        return self.a1 if gamma else self.a0

    def b(self, gamma: int) -> int:
        return self.b1 if gamma else self.b0


def residue_pair(q: int) -> ResiduePair:
    """Smallest-representative residue pair for a prime q >= 7.

    q = 5 is genuinely impossible, not just unimplemented: the units mod 5
    form a group of exponent 4, so every fourth power is 1 and no
    nontrivial c exists.
    """
    if q < 7 or not is_prime(q):
        raise ValueError(f"residue pairs need a prime q >= 7, got {q}")
    powers = fourth_powers(q)
    nontrivial = sorted(powers - {1})
    c = nontrivial[0]
    d = min(x for x in range(1, q) if pow(x, 4, q) == c)
    return ResiduePair(q=q, a0=0, a1=(c - 1) % q, b0=1, b1=d, c=c, d=d)


def crt_combine(residues: Mapping[int, int]) -> tuple[int, int]:
    """Unique l in [0, M) with l ≡ r_q (mod q) for all q; returns (l, M)."""
    if not residues:
        raise ValueError("need at least one congruence")
    l, m = 0, 1
    for q, r in sorted(residues.items()):
        if q <= 0:
            raise ValueError(f"modulus must be positive, got {q}")
        if gcd(m, q) != 1:
            raise ValueError(f"moduli are not pairwise coprime at {q}")
        # solve x ≡ l (mod m), x ≡ r (mod q)
        inv = pow(m, -1, q)
        t = ((r - l) * inv) % q
        l = l + m * t
        m *= q
    return l % m, m


class SelectorProblem(Record):
    """A finite set of primes q >= 7 with a choice gamma(q) in {0, 1} each."""

    qs: tuple[int, ...]
    gamma: tuple[int, ...]

    def __post_init__(self):
        if not self.qs:
            raise ValueError("selector problems need at least one prime")
        if len(set(self.qs)) != len(self.qs):
            raise ValueError("selector primes must be distinct")
        if len(self.qs) != len(self.gamma):
            raise ValueError("one gamma value per prime required")
        for q in self.qs:
            if q < 7 or not is_prime(q):
                raise ValueError(f"selector primes must be primes >= 7, got {q}")
        for g in self.gamma:
            if g not in (0, 1):
                raise ValueError(f"gamma values are 0 or 1, got {g}")

    @classmethod
    def of(cls, mapping: Mapping[int, int]) -> "SelectorProblem":
        qs = tuple(sorted(mapping))
        return cls(qs=qs, gamma=tuple(mapping[q] for q in qs))

    def items(self):
        return tuple(zip(self.qs, self.gamma))


def find_witness_prime(problem: SelectorProblem, floor: int = 13) -> int:
    """Smallest prime p >= floor with p ≡ b_{q,gamma(q)} (mod q) for all q.

    The b-congruences force p**4 - 1 ≡ a_{q,gamma(q)} (mod q), which is
    re-verified before returning.  Dirichlet guarantees existence; a scan of
    at most PRIME_SCAN_LIMIT candidates turns the missing effective bound
    into a loud failure.
    """
    pairs = {q: residue_pair(q) for q in problem.qs}
    want_b = {q: pairs[q].b(g) for q, g in problem.items()}
    l, m = crt_combine(want_b)
    p = l if l >= floor else l + ((floor - l + m - 1) // m) * m
    for _ in range(PRIME_SCAN_LIMIT):
        if is_prime(p):
            for q, g in problem.items():
                if (pow(p, 4, q) - 1) % q != pairs[q].a(g):
                    raise AssertionError(
                        f"witness verification failed at q={q}")
            return p
        p += m
    raise CapExceededError(
        f"no witness prime within {PRIME_SCAN_LIMIT} candidates of the progression")


def alt_target_degrees(lo: int, hi: int) -> list[int]:
    """p**4 - 1 for every prime p in [lo, hi]."""
    if lo > hi:
        raise ValueError("empty range")
    return [p ** 4 - 1 for p in range(max(lo, 2), hi + 1) if is_prime(p)]


def factorial_half(n: int) -> int:
    """n!/2 exactly; defined for n >= 2."""
    if n < 2:
        raise ValueError("factorial_half needs n >= 2")
    return factorial(n) // 2


def factorial_gap_check(n: int, m: int) -> bool:
    """True iff n = m or the exact ratio f(n)/f(m) falls outside (1/2, 2)."""
    if n < 2 or m < 2:
        raise ValueError("gap check needs n, m >= 2")
    if n == m:
        return True
    ratio = Fraction(factorial_half(n), factorial_half(m))
    return not (Fraction(1, 2) < ratio < 2)
