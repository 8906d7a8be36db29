"""Almost-homomorphisms into symmetric groups and nearest-homomorphism search.

An almost-homomorphism assigns a degree-n permutation to every element of a
finite group; its defect is the largest normalized Hamming distance between
sigma(g*h) and sigma(g)*sigma(h).  The quantitative stability bound used in
reports says a defect-delta map is within 2039*delta of an exact
homomorphism after padding the degree by a bounded factor; searches here
compare the observed distance/defect ratio against that constant.

A map is held as a |G|×n int32 image array.  Defects, injectivity and
distances are numpy counts of disagreeing points over blocks of pairs and
batches of maps.  Homomorphisms are spread from the identity by
:func:`~permlab.groups.spread`, one block of generator images at a time,
and kept when every generator edge agrees; generator images whose pairwise
products have orders not dividing those of the generators' products are
dropped first.  Fractions are built only for results, Permutations only
for parsed text and `AlmostHom.images`; cycle strings are written from rows.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

import numpy as np

from .errors import CapExceededError
from .groups import (FiniteGroup, GroupSpec, _cycle_types, _void_rows,
                     construct_group, parse_group_spec, spread)
from .perms import (Permutation, cycle_string, evaluate_word, identity,
                    parse_permutation)
from .record import Record
from .schreier import pairwise_distances

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
_BLOCK = 1 << 18  # array elements per block of the batch kernels


class AlmostHom:
    """A map from all elements of a finite group to permutations of one degree.

    `array` holds the images as a |G|×n int32 array, row i the image of
    element i; `images`, the same map as Permutations, is built on first
    use.  Maps are equal when their images are, whatever their domains."""

    def __init__(self, domain: FiniteGroup, images: tuple[Permutation, ...]):
        if len(images) != len(domain):
            raise ValueError("one image per group element required")
        if len({p.degree for p in images}) != 1:
            raise ValueError("mixed image degrees")
        self.domain, self.images = domain, tuple(images)
        self.array = np.array([p.images for p in images], dtype=np.int32)

    @classmethod
    def _of_array(cls, domain: FiniteGroup, array: np.ndarray) -> AlmostHom:
        s = cls.__new__(cls)
        s.domain, s.array = domain, array
        return s

    @cached_property
    def images(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(row)) for row in self.array.tolist())

    @property
    def degree(self) -> int:
        return self.array.shape[1]

    def image_of(self, i: int) -> Permutation:
        return self.images[i]

    def __eq__(self, other):
        return isinstance(other, AlmostHom) and np.array_equal(self.array, other.array)

    def __hash__(self):  # equal arrays, equal hashes, whatever their dtype
        return hash((self.array.shape, self.array.astype(np.int32, copy=False).tobytes()))


def almost_hom(G: FiniteGroup, mapping: Mapping[Permutation, Permutation] | Mapping[int, Permutation],
               degree: int | None = None) -> AlmostHom:
    """Build an AlmostHom from {element or index: image}; elements missing
    from the mapping default to the identity of the image degree."""
    by_index = {key if isinstance(key, int) else G.index_of(key): img
                for key, img in mapping.items()}
    if degree is None:
        if not by_index:
            raise ValueError("no images given and no degree to default to")
        degree = next(iter(by_index.values())).degree
    return AlmostHom(G, tuple(by_index.get(i, identity(degree)) for i in range(len(G))))


def is_homomorphism(s: AlmostHom) -> bool:
    return uniform_defect(s) == 0


# -- defects -------------------------------------------------------------------------

def _worst_pairs(maps: np.ndarray, G: FiniteGroup,
                 F: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per map of the batch (B×|G|×n): the most points where sigma(g*h) and
    sigma(g)*sigma(h) differ over g, h in F, and the flat index into F×F of
    the first pair in row-major order with that many (0 if none differ)."""
    B, f = len(maps), len(F)
    on_F, worst, arg = maps[:, F], np.zeros(B, dtype=np.int64), np.zeros(B, dtype=np.intp)
    step = max(1, _BLOCK // max(1, on_F.size))  # rows of F per block
    for r0 in range(0, f, step):
        prod = G.mul_many(np.array(F[r0:r0 + step], dtype=np.intp)[:, None], F)
        rhs = np.take_along_axis(on_F[:, r0:r0 + step, None], on_F[:, None], 3)
        counts = (maps[:, prod] != rhs).sum(3).reshape(B, -1)
        at = counts.argmax(1)
        better = counts[np.arange(B), at] > worst
        worst[better], arg[better] = counts[better, at[better]], r0 * f + at[better]
    return worst, arg


def local_defect(s: AlmostHom, F: Iterable[int]) -> Fraction:
    """max over pairs g, h in F of d(sigma(g*h), sigma(g)*sigma(h))."""
    worst, _ = _worst_pairs(s.array[None], s.domain, sorted(set(F)))
    return Fraction(int(worst[0]), s.degree)


def local_injectivity(s: AlmostHom, F: Iterable[int]) -> Fraction:
    """min over distinct g, h in F of d(sigma(g), sigma(h)); 1 when fewer
    than two elements are given (vacuously as separated as possible)."""
    histogram, _ = pairwise_distances(s.array[sorted(set(F))])
    return histogram[0][0] if histogram else Fraction(1)


def uniform_defect(s: AlmostHom) -> Fraction:
    return local_defect(s, range(len(s.domain)))


class DefectReport(Record):
    defect: Fraction
    argmax: tuple[str, str]  # the offending pair, as domain cycle strings
    injectivity: Fraction
    degree: int


def uniform_defect_report(s: AlmostHom) -> DefectReport:
    G = s.domain
    worst, arg = _worst_pairs(s.array[None], G, list(range(len(G))))
    g, h = divmod(int(arg[0]), len(G)) if worst[0] else \
        (G.identity_index, G.identity_index)
    return DefectReport(
        defect=Fraction(int(worst[0]), s.degree),
        argmax=(cycle_string(G.element_tuple(g)), cycle_string(G.element_tuple(h))),
        injectivity=local_injectivity(s, range(len(G))),
        degree=s.degree)


def uniform_distance(s1: AlmostHom, s2: AlmostHom) -> Fraction:
    """max over g of d(sigma1(g), sigma2(g)); domains and degrees must match."""
    if s1.domain is not s2.domain and \
            not np.array_equal(s1.domain.matrix, s2.domain.matrix):
        raise ValueError("the two maps must share a domain")
    if s1.degree != s2.degree:
        raise ValueError("the two maps must share a degree")
    return Fraction(int((s1.array != s2.array).sum(1).max()), s1.degree)


def _pad(images: np.ndarray, m: int) -> np.ndarray:
    """Image arrays (..., n) extended to degree m with fixed points."""
    fixed = np.arange(images.shape[-1], m, dtype=np.int32)
    return np.concatenate([images, np.broadcast_to(fixed, images.shape[:-1] + fixed.shape)], -1)


def pad(s: AlmostHom, m: int) -> AlmostHom:
    """Extend every image to degree m with fixed points."""
    if m < s.degree:
        raise ValueError("padding cannot shrink the degree")
    if m == s.degree:
        return s
    return AlmostHom._of_array(s.domain, _pad(s.array, m))


# -- exact homomorphism enumeration ----------------------------------------------------

class Presentation(Record):
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


def enumerate_homs(G: FiniteGroup, m: int) -> list[AlmostHom]:
    """All homomorphisms G -> Sym(m), each returned as a defect-zero AlmostHom.

    Each generator's image ranges over the elements of Sym(m) whose order
    divides the generator's order.  Assignments are pruned where, for some
    generators g_i, g_j, the order of x_i·x_j does not divide that of
    g_i·g_j (exact for Sym(4), presented by a², b⁴, (ab)³), and where a
    stored presentation's relator fails; the edge check decides the rest.
    The output is sorted by image tuples, so enumeration order is
    deterministic.  Results are memoized per (G, m); every call returns a
    fresh list.
    """
    return [AlmostHom._of_array(G, h) for h in _homs(G, m)]


def _element_orders(G: FiniteGroup) -> np.ndarray:
    """ord(x) for every element x of G: the lcm of its cycle type's lengths."""
    kinds, at = _cycle_types(G.matrix)
    return np.array([math.lcm(*(k for k, _ in t.pairs)) for t in kinds])[at]


@lru_cache(maxsize=64)
def _homs(G: FiniteGroup, m: int) -> np.ndarray:
    """enumerate_homs as one read-only (homs × |G| × m) image array."""
    if len(G) > HOM_GROUP_CAP:
        raise CapExceededError(f"homomorphism search capped at |G| <= {HOM_GROUP_CAP}")
    if m > HOM_DEGREE_CAP:
        raise CapExceededError(f"homomorphism search capped at degree <= {HOM_DEGREE_CAP}")
    sym_m = construct_group(GroupSpec("sym", m))
    pres = builtin_presentation(getattr(G, "spec", None))
    gens = list(G.generators) if pres is None else \
        [G.index_of(p) for p in pres.images_in_group]
    orders = _element_orders(sym_m)
    candidate_lists = [np.flatnonzero(G.order_of(g) % orders == 0) for g in gens]
    if math.prod(map(len, candidate_lists)) * len(G) > HOM_BUDGET:
        raise CapExceededError("homomorphism search budget exceeded")
    # assignments (rows of image indices) grow one generator at a time; a
    # row stays when every product x_i·x_j has an order dividing that of
    # g_i·g_j, as under any homomorphism (ord(xy) = ord(yx): no convention)
    assignments = np.zeros((1, 0), dtype=np.intp)
    for j, candidates in enumerate(candidate_lists):
        assignments = np.column_stack([np.repeat(assignments, len(candidates), 0),
                                       np.tile(candidates, len(assignments))])
        for i in range(j):
            xy = np.take_along_axis(*sym_m.matrix[assignments[:, [i, j]].T], 1)
            power = xy
            for _ in range(G.order_of(G.mul(gens[i], gens[j])) - 1):
                power = np.take_along_axis(xy, power, 1)
            assignments = assignments[(power == np.arange(m)).all(1)]
    if pres is not None:
        perm = {i: sym_m.element(i) for i in set(assignments.ravel().tolist())}
        assignments = assignments[np.array([all(
            evaluate_word(rel, dict(zip(pres.names, map(perm.get, a)))).is_identity()
            for rel in pres.relators) for a in assignments.tolist()], dtype=bool)]
    # each block of generator images fixes maps spread from the identity along
    # x -> gens[j]*x; those agreeing on every edge are exactly the homomorphisms
    edges = G.mul_many(np.array(gens, dtype=np.intp)[:, None], np.arange(len(G)))
    rows = _BLOCK // (len(G) * m) + 1
    blocks = []  # the identity assignment always survives, so never empty
    for r0 in range(0, len(assignments), rows):
        images = sym_m.matrix[assignments[r0:r0 + rows]]
        b, k, _ = images.shape
        # images[a, j][p] is flat[j][a*m + p]: one gather composes a whole column
        flat = images.transpose(1, 0, 2).reshape(k, b * m)
        offset = np.arange(0, b * m, m, dtype=np.int32)[:, None]

        def step(j, H):
            return flat[j][H + offset]
        orbit, H = spread(edges, G.identity_index,
                          np.broadcast_to(np.arange(m, dtype=np.int32), (b, m)), step)
        if len(orbit) < len(G):
            raise ValueError("the given elements do not generate the group")
        ok = np.ones(b, dtype=bool)
        for j in range(k):
            ok &= (H[edges[j]] == step(j, H)).all((0, 2))
        blocks.append(H.transpose(1, 0, 2)[ok])
    homs = np.concatenate(blocks)
    homs = homs[np.argsort(_void_rows(homs.reshape(len(homs), -1), ">i4"))]
    homs.flags.writeable = False
    return homs


# -- nearest homomorphism -----------------------------------------------------------------

class NearestHomReport(Record):
    hom: AlmostHom
    degree: int
    distance: Fraction
    defect: Fraction
    ratio: Fraction | None  # distance/defect; None for exact homomorphisms
    within_bound: bool  # distance <= STABILITY_BOUND * defect


def _nearest(maps: np.ndarray, G: FiniteGroup,
             window) -> list[tuple[Fraction, int, AlmostHom]]:
    """(distance, degree, hom) of the closest exact homomorphism to each map
    of the batch (B×|G|×n) over padded degrees m in [n, ceil((1+w)n)]: least
    distance, then least degree, then first in (sorted) enumeration order."""
    n = maps.shape[2]
    best: list = [None] * len(maps)
    # top degree first, so an over-cap window is refused before any search
    for m in range(math.ceil((1 + Fraction(window)) * n), n - 1, -1):
        homs = enumerate_homs(G, m)  # the results are taken from this list
        H, padded = _homs(G, m), _pad(maps, m)  # ranked as its cached array
        step = max(1, _BLOCK // H.size)
        for b0 in range(0, len(maps), step):
            counts = (padded[b0:b0 + step, None] != H).sum(3).max(2)
            for i, a in enumerate(counts.argmin(1).tolist(), b0):
                d = Fraction(int(counts[i - b0, a]), m)
                if best[i] is None or d <= best[i][0]:
                    best[i] = (d, m, homs[a])
    if best[0] is None:
        raise ValueError("no candidate degrees to search")
    return best


def _report(hom: AlmostHom, m: int, d: Fraction, defect: Fraction) -> NearestHomReport:
    ratio = d / defect if defect > 0 else None
    return NearestHomReport(
        hom=hom, degree=m, distance=d, defect=defect, ratio=ratio,
        within_bound=d <= STABILITY_BOUND * defect if defect > 0 else d == 0)


def nearest_hom(s: AlmostHom, window=Fraction(0)) -> NearestHomReport:
    """Closest exact homomorphism over padded degrees m in [n, ceil((1+w)n)].

    Ties break toward smaller distance, then smaller degree, then
    lexicographically smaller image tuples."""
    [(d, m, hom)] = _nearest(s.array[None], s.domain, window)
    return _report(hom, m, d, uniform_defect(s))


# -- scans --------------------------------------------------------------------------------

class ScanRow(Record):
    images: tuple[str, ...]
    defect: Fraction
    distance: Fraction
    ratio: Fraction | None


class ScanReport(Record):
    group: str
    degree: int
    rows: tuple[ScanRow, ...]
    max_ratio: Fraction | None  # empirical stability constant of the scan
    all_within_bound: bool


def identity_preserving_scan(G: FiniteGroup, m: int, window=Fraction(0)) -> ScanReport:
    """Every map sending the identity to the identity and the remaining
    elements anywhere in Sym(m): defect, nearest-homomorphism distance, and
    the worst observed distance/defect ratio."""
    sym_m = construct_group(GroupSpec("sym", m))
    others = [i for i in range(len(G)) if i != G.identity_index]
    total = len(sym_m) ** len(others)
    if total > SCAN_CAP:
        raise CapExceededError(f"scan of {total} maps exceeds the cap {SCAN_CAP}")
    choice = np.full((total, len(G)), sym_m.identity_index, dtype=np.intp)
    choice[:, others] = np.array(list(itertools.product(
        range(len(sym_m)), repeat=len(others))), dtype=np.intp).reshape(total, -1)
    maps = sym_m.matrix[choice]
    nearest = _nearest(maps, G, window)
    worst, _ = _worst_pairs(maps, G, list(range(len(G))))
    names = [cycle_string(row) for row in sym_m.matrix.tolist()]
    reps = [_report(hom, k, d, Fraction(count, m))
            for count, (d, k, hom) in zip(worst.tolist(), nearest)]
    rows = tuple(ScanRow(images=tuple(names[c] for c in row), defect=r.defect,
                         distance=r.distance, ratio=r.ratio)
                 for row, r in zip(choice.tolist(), reps))
    return ScanReport(group=G.name, degree=m, rows=rows,
                      max_ratio=max((r.ratio for r in reps if r.ratio is not None),
                                    default=None),
                      all_within_bound=all(r.within_bound for r in reps))


# -- files --------------------------------------------------------------------------------

def almost_hom_file_text(s: AlmostHom) -> str:
    spec = getattr(s.domain, "spec", None)
    if spec is None:
        raise ValueError("the domain has no constructor recipe to record")
    lines = [f"group={spec.canonical_name()} degree={s.degree}"]
    for g, image in zip(s.domain.matrix.tolist(), s.array.tolist()):
        lines.append(f"{cycle_string(g)} -> {cycle_string(image)}")
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
