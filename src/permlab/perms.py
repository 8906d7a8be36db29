"""Permutations of finite degree with the exact normalized Hamming metric.

Conventions used throughout the package:

* a permutation of degree n acts on the points 0..n-1 internally; all text
  I/O (cycle notation, one-line notation) is 1-based,
* inside the package a permutation is an image row (a sequence, or an int32
  row of an array); :class:`Permutation` objects are built where text is
  parsed or where a public function returns one,
* :func:`cycle_string` is the one writer of cycle notation, for image rows
  and Permutations alike,
* composition applies the right factor first: ``(p * q)(i) == p(q(i))``,
* all metric values are exact ``fractions.Fraction`` numbers,
* words (``evaluate_word``) are terms of the sentence language, parsed and
  evaluated by ``permlab.fo``, so its keywords ``forall`` and ``exists``
  are not valid symbol names.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Mapping

__all__ = [
    "Permutation",
    "CycleType",
    "LambdaProfile",
    "identity",
    "row_cycles",
    "cycle_string",
    "parse_permutation",
    "padded_rows",
    "random_permutation",
    "hamming_distance",
    "centralizer_order_sym",
    "conjugacy_test",
    "find_conjugator",
    "min_conjugate_distance",
    "evaluate_word",
]


@dataclass(frozen=True, slots=True)
class Permutation:
    """An element of Sym(n), stored as the tuple of images of 0..n-1."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n == 0:
            raise ValueError("degree must be at least 1")
        seen = [False] * n
        for x in self.images:
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {self.images}")
            seen[x] = True

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, i: int) -> int:
        """Image of the 0-based point i."""
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition, right factor applied first: (p*q)(i) = p(q(i))."""
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}")
        p = self.images
        return Permutation(tuple(p[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self, *, include_fixed: bool = False) -> list[tuple[int, ...]]:
        return row_cycles(self.images, include_fixed=include_fixed)

    def cycle_type(self) -> "CycleType":
        return CycleType.of(self.images)

    def is_even(self) -> bool:
        # parity = (degree - number of cycles) mod 2
        return (self.degree - len(self.cycles(include_fixed=True))) % 2 == 0

    def order(self) -> int:
        return lcm(*(length for length, _ in self.cycle_type().pairs)) if self.degree else 1

    def to_cycle_string(self) -> str:
        return cycle_string(self.images)

    def to_one_line_string(self) -> str:
        return "[" + ",".join(str(i + 1) for i in self.images) + "]"

    def __str__(self) -> str:
        return self.to_cycle_string()


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def row_cycles(row, *, include_fixed: bool = False) -> list[tuple[int, ...]]:
    """Disjoint cycles of the image row `row` as 0-based tuples, each
    starting at its least point."""
    seen, out = [False] * len(row), []
    for start, j in enumerate(row):
        if seen[start] or (j == start and not include_fixed):
            continue
        cyc = [start]
        seen[start] = True
        while j != start:
            seen[j] = True
            cyc.append(j)
            j = row[j]
        out.append(tuple(cyc))
    return out


@lru_cache(maxsize=8)
def _point_names(n: int) -> list[str]:
    return [str(i + 1) for i in range(n)]


def cycle_string(row) -> str:
    """1-based cycle notation of the image row `row`, fixed points omitted,
    the identity as '()': the one cycle-notation writer, with the point
    names of the row's degree cached."""
    names = _point_names(len(row))
    return "".join(["(" + " ".join([names[i] for i in c]) + ")"
                    for c in row_cycles(row)]) or "()"


_DEG_RE = re.compile(r"deg\s*=\s*(\d+)")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, degree: int | None = None) -> Permutation:
    """Parse 1-based cycle notation ``(1 2)(3 4)`` or one-line ``[2,1,4,3]``.

    The degree is the largest moved point unless given explicitly, either via
    the ``degree`` argument or a trailing ``deg=n`` attribute in the text.
    The bare identity ``()`` needs one of the two.
    """
    s = text.strip()
    m = _DEG_RE.search(s)
    if m:
        attr_deg = int(m.group(1))
        if degree is not None and degree != attr_deg:
            raise ValueError(
                f"conflicting degrees: deg={attr_deg} in text vs {degree}")
        degree = attr_deg
        s = s[:m.start()] + s[m.end():]
        s = s.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unterminated one-line permutation: {text!r}")
        body = s[1:-1].strip()
        if not body:
            raise ValueError("empty one-line permutation")
        try:
            images = [int(tok) - 1 for tok in body.replace(",", " ").split()]
        except ValueError:
            raise ValueError(f"bad one-line permutation: {text!r}") from None
        if degree is not None and degree != len(images):
            raise ValueError(
                f"one-line permutation has degree {len(images)}, expected {degree}")
        return Permutation(tuple(images))
    # cycle notation
    if s and (not s.startswith("(") or s.rstrip()[-1:] != ")"):
        raise ValueError(f"unrecognized permutation syntax: {text!r}")
    rest = _CYCLE_RE.sub("", s).strip()
    if rest:
        raise ValueError(f"stray text in cycle notation: {rest!r}")
    cycles = []
    maxpt = 0
    for m in _CYCLE_RE.finditer(s):
        body = m.group(1).replace(",", " ").split()
        if not body:
            continue  # "()" is the explicit identity cycle
        try:
            pts = [int(tok) for tok in body]
        except ValueError:
            raise ValueError(f"bad cycle {m.group(0)!r}") from None
        if any(p < 1 for p in pts):
            raise ValueError(f"points are 1-based, got {m.group(0)!r}")
        cycles.append([p - 1 for p in pts])
        maxpt = max(maxpt, max(pts))
    if degree is None:
        if maxpt == 0:
            raise ValueError(
                "degree of the identity is not inferable; pass degree or a deg=n attribute")
        degree = maxpt
    if maxpt > degree:
        raise ValueError(f"point {maxpt} exceeds degree {degree}")
    images = list(range(degree))
    touched = [False] * degree
    for cyc in cycles:
        for p in cyc:
            if touched[p]:
                raise ValueError(f"point {p + 1} repeated in {text!r}")
            touched[p] = True
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return Permutation(tuple(images))


def padded_rows(texts) -> list[tuple[int, ...]]:
    """The image rows of the permutation texts `texts`, each padded with
    fixed points to the largest of their degrees."""
    rows = [parse_permutation(t).images for t in texts]
    top = max(map(len, rows))
    return [r + tuple(range(len(r), top)) for r in rows]


def random_permutation(rng, n: int) -> Permutation:
    """Uniform element of Sym(n) drawn from the given random.Random."""
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# metric


def hamming_distance(p: Permutation, q: Permutation) -> Fraction:
    """Normalized Hamming distance |{i : p(i) != q(i)}| / n, exact."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    diff = sum(1 for a, b in zip(p.images, q.images) if a != b)
    return Fraction(diff, p.degree)


# ---------------------------------------------------------------------------
# cycle types


@dataclass(frozen=True, slots=True)
class CycleType:
    """Multiset of cycle lengths, stored as sorted (length, multiplicity) pairs.

    Fixed points are included, so the weighted lengths always sum to the degree.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 0
        for length, mult in self.pairs:
            if length <= last or mult < 1:
                raise ValueError(f"malformed cycle type: {self.pairs}")
            last = length

    @property
    def degree(self) -> int:
        return sum(length * mult for length, mult in self.pairs)

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def all_lengths_odd_and_distinct(self) -> bool:
        """The split criterion for conjugacy classes of even permutations."""
        return all(k % 2 == 1 and m == 1 for k, m in self.pairs)

    @classmethod
    def of(cls, row) -> "CycleType":
        """The cycle type of the image row `row`."""
        counts = Counter(map(len, row_cycles(row, include_fixed=True)))
        return cls(tuple(sorted(counts.items())))

    def __str__(self) -> str:
        return " ".join(f"{k}^{m}" for k, m in reversed(self.pairs))


@dataclass(frozen=True, slots=True)
class LambdaProfile:
    """Mass profile of a cycle type: length k carries weight k*m_k/n."""

    entries: tuple[tuple[int, Fraction], ...]
    degree: int

    @classmethod
    def of(cls, ct: CycleType) -> "LambdaProfile":
        n = ct.degree
        return cls(tuple((k, Fraction(k * m, n)) for k, m in ct.pairs), n)

    def fraction(self, length: int) -> Fraction:
        for k, f in self.entries:
            if k == length:
                return f
        return Fraction(0)

    @property
    def fixed_point_fraction(self) -> Fraction:
        return self.fraction(1)

    def total(self) -> Fraction:
        return sum((f for _, f in self.entries), Fraction(0))


def lambda_profile(p: Permutation) -> LambdaProfile:
    return LambdaProfile.of(p.cycle_type())


def centralizer_order_sym(ct: CycleType) -> int:
    """Order of the centralizer in Sym(n) of any element with this cycle type."""
    order = 1
    for k, m in ct.pairs:
        order *= k ** m * factorial(m)
    return order


# ---------------------------------------------------------------------------
# conjugacy


def find_conjugator(p: Permutation, q: Permutation) -> Permutation | None:
    """Some x with x p x^-1 = q, or None when the cycle types differ.

    The conjugator is built by aligning the cycles of equal length in a fixed
    order (a stable sort of each cycle list by length), so the result is
    deterministic.
    """
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    if p.cycle_type() != q.cycle_type():
        return None
    images = [0] * p.degree
    for cp, cq in zip(*(sorted(x.cycles(include_fixed=True), key=len) for x in (p, q))):
        for a, b in zip(cp, cq):
            images[a] = b
    return Permutation(tuple(images))


def conjugacy_test(p: Permutation, q: Permutation, ambient: str = "sym") -> bool:
    """Conjugacy inside Sym(n) or Alt(n).

    In Sym(n) this is cycle-type equality.  In Alt(n) both elements must be
    even; a class splits exactly when all cycle lengths are odd and distinct,
    and then the answer is decided by the parity of a conjugator (all
    conjugators share one parity in the split case).
    """
    if ambient not in ("sym", "alt"):
        raise ValueError(f"ambient must be 'sym' or 'alt', got {ambient!r}")
    x = find_conjugator(p, q)
    if x is None:
        return False
    if ambient == "sym":
        return True
    if not (p.is_even() and q.is_even()):
        raise ValueError("alt-conjugacy is only defined for even permutations")
    if not p.cycle_type().all_lengths_odd_and_distinct():
        return True  # the Sym-centralizer contains an odd element
    return x.is_even()


def min_conjugate_distance(g: Permutation, h: Permutation) -> Fraction:
    """min over x in Sym(n) of d(g, x h x^-1): the least count, over the rows
    x of `groups.sym_scan_rows(n)`, of the points i with x(h(i)) != g(x(i))."""
    import numpy as np

    from .groups import sym_scan_rows  # groups imports perms
    if g.degree != h.degree:
        raise ValueError(f"degree mismatch: {g.degree} vs {h.degree}")
    X = sym_scan_rows(g.degree)
    return Fraction(int((X[:, list(h.images)] != np.take(g.images, X)).sum(1).min()),
                    g.degree)


# ---------------------------------------------------------------------------
# word evaluation


class _PermOps:
    """The group operations `fo.eval_term` uses, on Permutation values."""

    mul = staticmethod(Permutation.__mul__)
    inv = staticmethod(Permutation.inverse)
    identity_index = property(lambda self: identity(self.degree))  # read for ``1`` only

    def __init__(self, degree: int):
        self.degree = degree


@lru_cache(maxsize=1024)
def _word_term(word: str):
    """The parsed term of a normalized word; fo terms are frozen, so shared."""
    from .fo import parse_term  # fo imports groups, which imports perms
    return parse_term(word)


def evaluate_word(word: str, assignment: Mapping[str, Permutation],
                  degree: int | None = None) -> Permutation:
    """Evaluate a word in the term grammar of the sentence language
    (symbols, ``*``, ``^-1``, ``1``, ``[a,b]``, parentheses).

    The commutator is ``[a,b] = a b a^-1 b^-1``.  All assigned permutations
    must share one degree.  Unicode ``·`` and ``⁻¹`` are accepted as aliases.
    """
    from .fo import eval_term  # fo imports groups, which imports perms

    degrees = {p.degree for p in assignment.values()}
    if degree is not None:
        degrees.add(degree)
    if len(degrees) > 1:
        raise ValueError(f"mixed degrees in assignment: {sorted(degrees)}")
    term = _word_term(word.replace("·", "*").replace("⁻¹", "^-1"))
    if not degrees:
        raise ValueError("an empty assignment needs an explicit degree")
    return eval_term(term, _PermOps(degrees.pop()), assignment)
