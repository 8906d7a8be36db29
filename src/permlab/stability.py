"""Almost-homomorphisms into symmetric groups and nearest-homomorphism search.

An almost-homomorphism assigns a degree-n permutation to every element of a
finite group; its defect is the largest normalized Hamming distance between
sigma(g*h) and sigma(g)*sigma(h).  The quantitative stability bound used in
reports says a defect-delta map is within 2039*delta of an exact
homomorphism after padding the degree by a bounded factor; searches here
compare the observed distance/defect ratio against that constant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Mapping

from .errors import CapExceededError
from .groups import (FiniteGroup, GroupSpec, construct_group, extend,
                     parse_group_spec)
from .perms import Permutation, evaluate_word, hamming_distance, identity, \
    parse_permutation

__all__ = [
    "AlmostHom", "almost_hom", "is_homomorphism",
    "local_defect", "local_injectivity",
    "DefectReport", "uniform_defect", "uniform_defect_report",
    "uniform_distance", "pad",
    "Presentation", "builtin_presentation", "enumerate_homs",
    "NearestHomReport", "nearest_hom",
    "ScanRow", "ScanReport", "identity_preserving_scan",
    "almost_hom_file_text", "parse_almost_hom_text",
    "write_almost_hom_file", "read_almost_hom_file",
    "STABILITY_BOUND", "HOM_GROUP_CAP", "HOM_DEGREE_CAP",
]

STABILITY_BOUND = 2039
HOM_GROUP_CAP = 24
HOM_DEGREE_CAP = 6
HOM_BUDGET = 10 ** 6
SCAN_CAP = 10 ** 4


@dataclass(frozen=True)
class AlmostHom:
    """A map from all elements of a finite group to permutations of one degree."""

    domain: FiniteGroup = field(compare=False, hash=False)
    images: tuple[Permutation, ...]

    def __post_init__(self):
        if len(self.images) != len(self.domain):
            raise ValueError("one image per group element required")
        if len({p.degree for p in self.images}) != 1:
            raise ValueError("mixed image degrees")

    @property
    def degree(self) -> int:
        return self.images[0].degree

    def image_of(self, i: int) -> Permutation:
        return self.images[i]


def almost_hom(G: FiniteGroup, mapping: Mapping[Permutation, Permutation] | Mapping[int, Permutation],
               degree: int | None = None) -> AlmostHom:
    """Build an AlmostHom from {element or index: image}; elements missing
    from the mapping default to the identity of the image degree."""
    by_index: dict[int, Permutation] = {}
    for key, img in mapping.items():
        idx = key if isinstance(key, int) else G.index_of(key)
        by_index[idx] = img
    if degree is None:
        if not by_index:
            raise ValueError("no images given and no degree to default to")
        degree = next(iter(by_index.values())).degree
    images = tuple(by_index.get(i, identity(degree)) for i in range(len(G)))
    return AlmostHom(G, images)


def is_homomorphism(s: AlmostHom) -> bool:
    return uniform_defect(s) == 0


# -- defects -------------------------------------------------------------------------

def local_defect(s: AlmostHom, F: Iterable[int]) -> Fraction:
    """max over pairs g, h in F of d(sigma(g*h), sigma(g)*sigma(h))."""
    F = sorted(set(F))
    G = s.domain
    worst = Fraction(0)
    for g in F:
        for h in F:
            d = hamming_distance(s.images[G.mul(g, h)], s.images[g] * s.images[h])
            if d > worst:
                worst = d
    return worst


def local_injectivity(s: AlmostHom, F: Iterable[int]) -> Fraction:
    """min over distinct g, h in F of d(sigma(g), sigma(h)); 1 when fewer
    than two elements are given (vacuously as separated as possible)."""
    F = sorted(set(F))
    best = Fraction(1)
    for i, g in enumerate(F):
        for h in F[i + 1:]:
            d = hamming_distance(s.images[g], s.images[h])
            if d < best:
                best = d
    return best


def uniform_defect(s: AlmostHom) -> Fraction:
    return local_defect(s, range(len(s.domain)))


@dataclass(frozen=True)
class DefectReport:
    defect: Fraction
    argmax: tuple[str, str]  # the offending pair, as domain cycle strings
    injectivity: Fraction
    degree: int


def uniform_defect_report(s: AlmostHom) -> DefectReport:
    G = s.domain
    worst = Fraction(0)
    arg = (G.identity_index, G.identity_index)
    for g in range(len(G)):
        for h in range(len(G)):
            d = hamming_distance(s.images[G.mul(g, h)], s.images[g] * s.images[h])
            if d > worst:
                worst = d
                arg = (g, h)
    return DefectReport(
        defect=worst,
        argmax=(G.element(arg[0]).to_cycle_string(),
                G.element(arg[1]).to_cycle_string()),
        injectivity=local_injectivity(s, range(len(G))),
        degree=s.degree)


def uniform_distance(s1: AlmostHom, s2: AlmostHom) -> Fraction:
    """max over g of d(sigma1(g), sigma2(g)); domains and degrees must match."""
    if s1.domain is not s2.domain and \
            s1.domain._elements != s2.domain._elements:
        raise ValueError("the two maps must share a domain")
    if s1.degree != s2.degree:
        raise ValueError("the two maps must share a degree")
    return max(hamming_distance(p, q) for p, q in zip(s1.images, s2.images))


def pad(s: AlmostHom, m: int) -> AlmostHom:
    """Extend every image to degree m with fixed points."""
    if m < s.degree:
        raise ValueError("padding cannot shrink the degree")
    if m == s.degree:
        return s
    return AlmostHom(s.domain, tuple(
        Permutation(p.images + tuple(range(p.degree, m))) for p in s.images))


# -- exact homomorphism enumeration ----------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    """Generators with defining relators, tied to concrete group elements."""

    names: tuple[str, ...]
    relators: tuple[str, ...]
    images_in_group: tuple[Permutation, ...]


def builtin_presentation(spec: GroupSpec | None) -> Presentation | None:
    """Defining presentations for the cyclic, dihedral, Sym(3) and Alt(4)
    constructor families; None when no presentation is on file."""
    if spec is None:
        return None
    if spec.kind == "cyclic":
        k = spec.n
        if k == 1:
            return Presentation((), (), ())
        rot = construct_group(spec).generator_permutations()[0]
        return Presentation(("a",), ("*".join(["a"] * k),), (rot,))
    if spec.kind == "dihedral":
        k = spec.n // 2
        G = construct_group(spec)
        r, s = G.generator_permutations()
        return Presentation(
            ("r", "s"),
            ("*".join(["r"] * k), "s*s", "s*r*s*r"),
            (r, s))
    if spec.kind == "sym" and spec.n == 3:
        return Presentation(
            ("a", "b"),
            ("a*a", "b*b", "a*b*a*b*a*b"),
            (parse_permutation("(1 2)", degree=3), parse_permutation("(2 3)")))
    if spec.kind == "alt" and spec.n == 4:
        return Presentation(
            ("x", "y"),
            ("x*x*x", "y*y*y", "x*y*x*y"),
            (parse_permutation("(1 2 3)", degree=4),
             parse_permutation("(1 2 4)")))
    return None


def enumerate_homs(G: FiniteGroup, m: int,
                   group_cap: int = HOM_GROUP_CAP,
                   degree_cap: int = HOM_DEGREE_CAP) -> list[AlmostHom]:
    """All homomorphisms G -> Sym(m), each returned as a defect-zero AlmostHom.

    Each generator's image ranges over the elements of Sym(m) whose order
    divides the generator's order; a stored presentation prunes those
    assignments through relator checks.  The output is sorted by image
    tuples, so enumeration order is deterministic.  Results are memoized
    per (G, m, caps); every call returns a fresh list.
    """
    return list(_homs(G, m, group_cap, degree_cap))


@lru_cache(maxsize=64)
def _homs(G: FiniteGroup, m: int, group_cap: int,
          degree_cap: int) -> tuple[AlmostHom, ...]:
    if len(G) > group_cap:
        raise CapExceededError(f"homomorphism search capped at |G| <= {group_cap}")
    if m > degree_cap:
        raise CapExceededError(f"homomorphism search capped at degree <= {degree_cap}")
    sym_m = construct_group(f"sym{m}")
    pres = builtin_presentation(getattr(G, "spec", None))
    gens = list(G.generators) if pres is None else \
        [G.index_of(p) for p in pres.images_in_group]
    if not gens:
        return (AlmostHom(G, (identity(m),) * len(G)),)
    candidate_lists = [[sym_m.element(i) for i in range(len(sym_m))
                        if G.order_of(g) % sym_m.order_of(i) == 0]
                       for g in gens]
    total = 1
    for lst in candidate_lists:
        total *= len(lst)
    if total * len(G) > HOM_BUDGET:
        raise CapExceededError("homomorphism search budget exceeded")
    # a map that agrees on every generator edge is multiplicative
    src = [partial(G.mul, g) for g in gens]
    out = []
    for assignment in itertools.product(*candidate_lists):
        if pres is not None:
            env = dict(zip(pres.names, assignment))
            if not all(evaluate_word(rel, env).is_identity()
                       for rel in pres.relators):
                continue
        mapped = extend([None] * len(G), G.identity_index, identity(m), src,
                        [partial(Permutation.__mul__, p) for p in assignment])
        if mapped is None:
            continue
        if None in mapped:
            raise ValueError("the given elements do not generate the group")
        out.append(AlmostHom(G, tuple(mapped)))
    out.sort(key=lambda s: tuple(p.images for p in s.images))
    return tuple(out)


# -- nearest homomorphism -----------------------------------------------------------------

@dataclass(frozen=True)
class NearestHomReport:
    hom: AlmostHom
    degree: int
    distance: Fraction
    defect: Fraction
    ratio: Fraction | None  # distance/defect; None for exact homomorphisms
    within_bound: bool  # distance <= STABILITY_BOUND * defect


def nearest_hom(s: AlmostHom, window=Fraction(0),
                degree_cap: int = HOM_DEGREE_CAP) -> NearestHomReport:
    """Closest exact homomorphism over padded degrees m in [n, ceil((1+w)n)].

    Ties break toward smaller distance, then smaller degree, then
    lexicographically smaller image tuples."""
    n = s.degree
    top = math.ceil((1 + Fraction(window)) * n)
    best = None
    for m in range(n, top + 1):
        padded = pad(s, m)
        for hom in enumerate_homs(s.domain, m, degree_cap=degree_cap):
            d = uniform_distance(padded, hom)
            key = (d, m, tuple(p.images for p in hom.images))
            if best is None or key < best[0]:
                best = (key, hom, m, d)
    if best is None:
        raise ValueError("no candidate degrees to search")
    _, hom, m, d = best
    defect = uniform_defect(s)
    ratio = d / defect if defect > 0 else None
    return NearestHomReport(
        hom=hom, degree=m, distance=d, defect=defect, ratio=ratio,
        within_bound=d <= STABILITY_BOUND * defect if defect > 0 else d == 0)


# -- scans --------------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    images: tuple[str, ...]
    defect: Fraction
    distance: Fraction
    ratio: Fraction | None


@dataclass(frozen=True)
class ScanReport:
    group: str
    degree: int
    rows: tuple[ScanRow, ...]
    max_ratio: Fraction | None  # empirical stability constant of the scan
    all_within_bound: bool


def identity_preserving_scan(G: FiniteGroup, m: int, window=Fraction(0),
                             cap: int = SCAN_CAP) -> ScanReport:
    """Every map sending the identity to the identity and the remaining
    elements anywhere in Sym(m): defect, nearest-homomorphism distance, and
    the worst observed distance/defect ratio."""
    sym_m = construct_group(f"sym{m}")
    others = [i for i in range(len(G)) if i != G.identity_index]
    total = len(sym_m) ** len(others)
    if total > cap:
        raise CapExceededError(f"scan of {total} maps exceeds the cap {cap}")
    rows = []
    max_ratio = None
    all_within = True
    for choice in itertools.product(range(len(sym_m)), repeat=len(others)):
        images = [identity(m)] * len(G)
        for pos, el in zip(others, choice):
            images[pos] = sym_m.element(el)
        s = AlmostHom(G, tuple(images))
        rep = nearest_hom(s, window=window)
        rows.append(ScanRow(
            images=tuple(p.to_cycle_string() for p in s.images),
            defect=rep.defect, distance=rep.distance, ratio=rep.ratio))
        if rep.ratio is not None and (max_ratio is None or rep.ratio > max_ratio):
            max_ratio = rep.ratio
        all_within = all_within and rep.within_bound
    return ScanReport(group=G.name, degree=m, rows=tuple(rows),
                      max_ratio=max_ratio, all_within_bound=all_within)


# -- files --------------------------------------------------------------------------------

def almost_hom_file_text(s: AlmostHom) -> str:
    spec = getattr(s.domain, "spec", None)
    if spec is None:
        raise ValueError("the domain has no constructor recipe to record")
    lines = [f"group={spec.canonical_name()} degree={s.degree}"]
    for i in range(len(s.domain)):
        lines.append(f"{s.domain.element(i).to_cycle_string()}"
                     f" -> {s.images[i].to_cycle_string()}")
    return "\n".join(lines) + "\n"


def parse_almost_hom_text(text: str) -> AlmostHom:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty almost-homomorphism file")
    parts = dict(item.split("=", 1) for item in lines[0].split())
    try:
        G = construct_group(parse_group_spec(parts["group"]))
        degree = int(parts["degree"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad header: {lines[0]!r}") from exc
    images: list[Permutation | None] = [None] * len(G)
    for ln in lines[1:]:
        if " -> " not in ln:
            raise ValueError(f"bad image line: {ln!r}")
        left, right = ln.split(" -> ", 1)
        idx = G.index_of(parse_permutation(left, degree=G.degree))
        if images[idx] is not None:
            raise ValueError(f"duplicate image for {left!r}")
        images[idx] = parse_permutation(right, degree=degree)
    missing = [i for i, p in enumerate(images) if p is None]
    if missing:
        raise ValueError(f"missing images for {len(missing)} elements")
    return AlmostHom(G, tuple(images))


def write_almost_hom_file(s: AlmostHom, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(almost_hom_file_text(s))


def read_almost_hom_file(path) -> AlmostHom:
    with open(path, encoding="utf-8") as fh:
        return parse_almost_hom_text(fh.read())
