"""Labeled Schreier graphs: expansion, spectral gap, near-automorphisms.

A graph is a vertex set {0..n-1} with one permutation per generator label;
the directed labeled edge set is E = {(i, s, sigma_s(i))}.  It is stored as
one read-only L×n int32 image matrix, row s holding sigma_s, and every
kernel here (components, gaps, defects, automorphisms, file I/O) reads its
rows; Permutations are built only by the public functions that return
them.  Spectral and expansion quantities live on the symmetrized
multigraph whose generator set is the collection of distinct permutations
in {sigma_s} ∪ {sigma_s^-1} (an involution contributes once).  Text I/O is
1-based like all other surfaces of this package.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CapExceededError
from .groups import (FiniteGroup, _generated_group, _min_labels, _void_rows,
                     spread, sym_scan_rows)
from .perms import Permutation
from .record import Record

__all__ = [
    "LabeledSchreierGraph", "build_schreier_graph", "regular_action_graph",
    "directed_cycle_graph",
    "components", "component_mass_profile",
    "symmetrized_generators", "symmetrized_degree", "adjacency_matrix",
    "edge_expansion", "spectral_gap",
    "epsilon_defect", "is_epsilon_automorphism",
    "automorphism_rows", "exact_automorphisms", "enumerate_eps_automorphisms",
    "induced_component_graph", "connected_label_isomorphic",
    "ClusterScan", "cluster_scan", "pairwise_distances", "default_cluster_epsilon",
    "write_graph_file", "read_graph_file", "parse_graph_text",
    "graph_file_text", "histogram_csv",
    "EXPANSION_CAP", "CELL_CAP", "PAIR_CAP", "GAP_CAP",
    "CLUSTER_THRESHOLD",
]

EXPANSION_CAP = 24
# cells of any one dense table: an n×n eigensolve or swap-gain table (~19 s
# and 0.4 GB at the cap), a |G|×|G| biregular copy, the automorphism rows and
# their partial maps and hit table (Sym(7)'s regular graph: 100 MB of int32)
CELL_CAP = 5040 ** 2
# cells compared by pairwise_distances, k(k-1)/2 pairs × n points, at
# 1.2-1.8 ns per cell on a 2-vCPU Xeon: the automorphisms of regular:alt7
# (8.0e9 cells, 9.3 s) and of the 8-point identity graph (6.5e9, 11.4 s) pass,
# those of regular:sym7 (6.4e10) are refused
PAIR_CAP = 10 ** 10
GAP_CAP = 40320  # Sym(8); the Lanczos basis holds _LANCZOS_STEPS × n floats, 97 MB
_LANCZOS_STEPS = 300
CLUSTER_THRESHOLD = Fraction(3, 10)
_PAIR_BLOCK = 1 << 20  # cells per block of mismatch counts or swap gains
_TARGET_BLOCK = 1 << 20  # targets × points per block of root targets
_SUBSET_BLOCK = 1 << 16  # subset bitmasks per block of the expansion scan
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _check_cells(cells: int, table: str) -> None:
    """Refuse a dense table of more than CELL_CAP cells before it is built."""
    if cells > CELL_CAP:
        raise CapExceededError(f"{table} is capped at {CELL_CAP} cells")


class LabeledSchreierGraph:
    """Labelled permutations of one degree: a Schreier graph, or the
    generators of the action they define (named for reports).

    `image_array` is the one store: a read-only L×n int32 matrix, row s the
    images of 0..n-1 under sigma_s, checked once when the graph is built
    from Permutations or image rows.  `images` (Permutations, built on
    first use), `sigma`, `point_maps` and `edges` read it.  Graphs are equal
    when their labels and image matrices are, whatever their names."""

    def __init__(self, labels, images, name: str = ""):
        self.labels, self.name = tuple(labels), name
        if not self.labels:
            raise ValueError("a Schreier graph needs at least one label")
        if len(self.labels) != len(images):
            raise ValueError("one permutation per label required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        rows = [p.images if isinstance(p, Permutation) else p for p in images]
        degrees = {len(r) for r in rows}
        if len(degrees) != 1:
            raise ValueError(f"mixed degrees {sorted(degrees)}")
        for s in self.labels:
            if any(ch.isspace() for ch in s) or not s:
                raise ValueError(f"labels must be nonempty and space-free: {s!r}")
        if (n := degrees.pop()) == 0:
            raise ValueError("degree must be at least 1")
        S = np.array(rows)
        bad = S.dtype.kind not in "iu" or (np.sort(S, axis=1) != np.arange(n)).any(axis=1)
        if np.any(bad):
            row = np.asarray(rows[int(np.argmax(bad))]).tolist()
            raise ValueError(f"not a permutation of 0..{n - 1}: {tuple(row)}")
        self.image_array = S.astype(np.int32)
        self.image_array.flags.writeable = False

    @property
    def n(self) -> int:
        return self.image_array.shape[1]

    degree = n

    @property
    def edge_count(self) -> int:
        return self.image_array.size

    @cached_property
    def images(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(r)) for r in self.image_array.tolist())

    def sigma(self, label: str) -> Permutation:
        return self.images[self.labels.index(label)]

    def edges(self) -> Iterator[tuple[int, str, int]]:
        return ((i, s, j) for s, row in zip(self.labels, self.image_array.tolist())
                for i, j in enumerate(row))

    def point_maps(self) -> list:
        """One vertex map i ↦ sigma_s(i) per label, for the scalar `extend`;
        batched walks use `image_array`."""
        return [row.__getitem__ for row in self.image_array.tolist()]

    def is_transitive(self) -> bool:
        return len(components(self)) == 1

    def image_group(self) -> FiniteGroup:
        return _generated_group(self.image_array, f"image({self.name or 'action'})")

    def _key(self) -> tuple:
        return self.labels, self.image_array.shape, self.image_array.tobytes()

    def __eq__(self, other):
        return isinstance(other, LabeledSchreierGraph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def build_schreier_graph(images) -> LabeledSchreierGraph:
    """From {label: Permutation} or [(label, Permutation), ...]; label order
    is sorted for mappings, as given for sequences."""
    items = sorted(images.items()) if isinstance(images, Mapping) else list(images)
    return LabeledSchreierGraph([s for s, _ in items], [p for _, p in items])


def regular_action_graph(G: FiniteGroup) -> LabeledSchreierGraph:
    """Left-regular Schreier graph on G's elements, labels s1, s2, ...: the
    rows of x ↦ g·x, composed and ranked, so no Cayley table is filled.
    The trivial group gets a single identity loop so the graph is nonempty."""
    gens = list(G.generators)
    if not gens:
        return LabeledSchreierGraph(("s1",), [np.arange(len(G))])
    return LabeledSchreierGraph(tuple(f"s{k + 1}" for k in range(len(gens))),
                                G._rank(G.matrix[gens][:, G.matrix]))


def directed_cycle_graph(n: int, label: str = "s1") -> LabeledSchreierGraph:
    if n < 1:
        raise ValueError("cycle length must be positive")
    return LabeledSchreierGraph((label,), [(np.arange(n) + 1) % n])


# -- components ------------------------------------------------------------------

def components(g: LabeledSchreierGraph) -> list[frozenset[int]]:
    """Weakly connected components, largest first (ties by least vertex):
    the orbits of the labels, by min-label propagation over their rows and
    the inverse rows."""
    S = g.image_array
    labels = _min_labels([*S, *np.argsort(S, axis=1)], g.n)
    order = np.argsort(labels, kind="stable")
    least, starts, sizes = np.unique(labels[order], return_index=True,
                                     return_counts=True)
    parts = np.split(order, starts[1:])
    return [frozenset(parts[k].tolist()) for k in np.lexsort((least, -sizes))]


def component_mass_profile(g: LabeledSchreierGraph) -> list[Fraction]:
    return [Fraction(len(c), g.n) for c in components(g)]


# -- symmetrized multigraph quantities ----------------------------------------------

def _symmetrized_rows(g: LabeledSchreierGraph) -> np.ndarray:
    """The distinct rows of sigma_s and sigma_s^-1 images, sorted."""
    rows = np.concatenate([S := g.image_array, np.argsort(S, axis=1)])
    rows = rows[np.argsort(_void_rows(rows, ">i4"))]
    return rows[np.r_[True, (rows[1:] != rows[:-1]).any(1)]]


def symmetrized_generators(g: LabeledSchreierGraph) -> list[Permutation]:
    """Distinct permutations in {sigma_s} ∪ {sigma_s^-1}, sorted by images."""
    return [Permutation(tuple(row)) for row in _symmetrized_rows(g).tolist()]


def symmetrized_degree(g: LabeledSchreierGraph) -> int:
    return len(_symmetrized_rows(g))


def adjacency_matrix(g: LabeledSchreierGraph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.int64)
    np.add.at(a, (np.arange(g.n), _symmetrized_rows(g)), 1)
    return a


def edge_expansion(g: LabeledSchreierGraph) -> Fraction:
    """min over nonempty A, |A| <= n/2, of |boundary(A)| / (deg * |A|), exact.

    The subsets A are bitmasks, scanned in blocks of _SUBSET_BLOCK.  Per
    symmetrized generator p, per-byte tables give the mask of p^-1(A), and
    |boundary(A)| is the sum over p of popcount(A & ~p^-1(A)).  The least
    boundary b_s is kept per size s; the result is min over s of b_s/(deg*s).
    """
    n = g.n
    if n > EXPANSION_CAP:
        raise CapExceededError(f"edge expansion enumerates subsets; n capped at {EXPANSION_CAP}")
    if n < 2:
        raise ValueError("edge expansion needs at least two vertices")
    gens, nbytes = _symmetrized_rows(g), (n + 7) // 8

    def popcount(x):  # set bits per mask, by a 256-entry table
        return sum(_POPCOUNT[x >> 8 * b & 255] for b in range(nbytes))
    # tables[p, b, v]: the mask of the points that p sends into the bits v of byte b
    bits = np.zeros((len(gens), nbytes * 8), dtype=np.int64)
    bits[:, :n] = np.left_shift(1, np.argsort(gens, axis=1))
    on = np.arange(256) >> np.arange(8)[:, None] & 1  # on[k, v]: bit k of v
    tables = bits.reshape(len(gens), nbytes, 8) @ on
    best = np.full(n // 2 + 1, len(gens) * n, dtype=np.int32)
    for lo in range(0, 1 << n, _SUBSET_BLOCK):
        A = np.arange(lo, min(lo + _SUBSET_BLOCK, 1 << n), dtype=np.int64)
        size = popcount(A)
        keep = (size >= 1) & (size <= n // 2)
        A, size, boundary = A[keep], size[keep], np.zeros(np.count_nonzero(keep), np.int32)
        parts = [A >> 8 * b & 255 for b in range(nbytes)]
        for t in tables:  # the bytes' preimages are disjoint: their sum is their union
            boundary += popcount(A & ~sum(t[b][parts[b]] for b in range(nbytes)))
        np.minimum.at(best, size, boundary)
    return min(Fraction(int(b), len(gens) * s) for s, b in enumerate(best) if s)


def spectral_gap(g: LabeledSchreierGraph) -> float:
    """1 - lambda2/deg of the symmetrized adjacency; 0 iff disconnected
    (up to rounding).  lambda2, the top eigenvalue of x ↦ Σ_s x[sigma_s] on the
    vectors of mean 0, comes from Lanczos with full reorthogonalization and a
    fixed start, random.Random(0)'s first 4n bytes as uint32s / 2^32 (--seed
    never moves it).  It stops once the top Ritz residual |beta_k s_k| < 1e-13,
    or on breakdown, where the tridiagonal eigenvalues are exact.  Graphs that
    outrun _LANCZOS_STEPS (cycle:n needs ~n/2) take the dense eigensolve."""
    n, gens = g.n, _symmetrized_rows(g)
    if n < 2:
        raise ValueError("the spectral gap needs at least two vertices")
    if n > GAP_CAP:
        raise CapExceededError(f"the spectral gap is capped at n = {GAP_CAP}")
    deg, basis = len(gens), np.empty((min(_LANCZOS_STEPS, n - 1), n))
    T = np.zeros((len(basis) + 1, len(basis) + 1))
    v = np.frombuffer(random.Random(0).randbytes(4 * n), dtype=np.uint32) / 2.0 ** 32
    for k in range(len(basis)):
        v -= v.mean()
        basis[k] = v / np.linalg.norm(v)
        v = basis[k][gens].sum(0)
        for _ in range(2):  # twice is enough (Parlett); T[k, k] is alpha_k
            v -= (c := basis[:k + 1] @ v) @ basis[:k + 1]
            T[k, k] += c[k]
        T[k, k + 1] = T[k + 1, k] = beta = np.linalg.norm(v)
        # the top Ritz pair, every step at first and then ever more sparsely
        if beta < 1e-10 * deg or k % (k // 16 + 1) == 0:
            theta, s = np.linalg.eigh(T[:k + 1, :k + 1])
            if beta < 1e-10 * deg or beta * abs(s[-1, -1]) < 1e-13:
                return 1.0 - float(theta[-1]) / deg
    del basis  # before the dense fallback's n×n copies
    _check_cells(n * n, f"Lanczos ran out of {_LANCZOS_STEPS} steps and the"
                        " dense spectral gap")
    return 1.0 - float(np.linalg.eigvalsh(adjacency_matrix(g).astype(float))[-2]) / deg


# -- epsilon-automorphisms ------------------------------------------------------------

def _preserved(S: np.ndarray, rows: np.ndarray):
    """Edges (x, s) with sigma_s(r(x)) = r(sigma_s(x)), per index row r."""
    return sum((s[rows] == rows[..., s]).sum(-1) for s in S)


def _swap_gains(S: np.ndarray, T: np.ndarray, r: np.ndarray, i, j):
    """Change in the preserved-edge count when r(i) and r(j) are swapped, for
    broadcastable index arrays i != j; T holds the inverse images.  Only the
    edges (x, s) with x in {i, j} ∪ sigma_s^-1{i, j} change; each counts once."""
    gain, ri, rj = 0, r[i], r[j]
    for s, t in zip(S, T):
        f, si, sj, a, b = s[r], s[i], s[j], t[i], t[j]
        fi, fj, fa, fb, gi, gj = f[i], f[j], f[a], f[b], r[si], r[sj]
        new_i = np.where(si == i, rj, np.where(si == j, ri, gi))
        new_j = np.where(sj == j, ri, np.where(sj == i, rj, gj))
        ka, kb = (a != i) & (a != j), (b != i) & (b != j)
        gain = (gain + (fj == new_i) + (fi == new_j) - (fi == gi) - (fj == gj)
                + (ka & (fa == rj)) - (ka & (fa == ri))
                + (kb & (fb == ri)) - (kb & (fb == rj)))
    return gain


def _descend(S: np.ndarray, T: np.ndarray, r: np.ndarray, count: int) -> int:
    """First-improvement swap descent on r, in place; returns the final count.

    Passes over the pairs i < j in order, taking each swap that strictly
    raises the count until a pass takes none, always take next the first
    improving pair after the last one taken, in cyclic order: here it is read
    off an n×n gain table, redone after a swap at the vertices next to it."""
    n, ids = len(r), np.arange(len(r))
    gains = np.empty((n, n), dtype=np.int64)
    for i0 in range(0, n, step := max(1, _PAIR_BLOCK // (n * len(S)))):
        gains[i0:i0 + step] = _swap_gains(S, T, r, ids[i0:i0 + step, None], ids[None])
    upper, pos = ids[:, None] < ids, 0
    while count < S.size and (hits := np.flatnonzero(upper & (gains > 0))).size:
        k = int(hits[np.searchsorted(hits, pos) % hits.size])
        i, j = divmod(k, n)
        r[i], r[j] = r[j], r[i]
        count, pos = count + int(gains[i, j]), k + 1
        near = np.flatnonzero(np.bincount(np.r_[i, j, S[:, i], S[:, j], T[:, i], T[:, j]]))
        gains[near] = _swap_gains(S, T, r, near[:, None], ids[None])
        gains[:, near] = gains[near].T
    return count


def epsilon_defect(g: LabeledSchreierGraph, rho: Permutation) -> Fraction:
    """1 - (labeled directed edges preserved by rho) / |E|.

    An edge (i, s, j) is preserved when (rho(i), s, rho(j)) is also an edge,
    i.e. sigma_s(rho(i)) = rho(sigma_s(i)).  Loops count like any edge.
    """
    if rho.degree != g.n:
        raise ValueError(f"degree mismatch: graph {g.n}, permutation {rho.degree}")
    count = _preserved(g.image_array, np.array(rho.images, dtype=np.intp))
    return 1 - Fraction(int(count), g.edge_count)


def is_epsilon_automorphism(g: LabeledSchreierGraph, rho: Permutation,
                            eps) -> bool:
    return epsilon_defect(g, rho) <= eps


def _label_maps(src: np.ndarray, dst: np.ndarray, root: int,
                targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label-respecting maps from the component of `root` under the index
    rows `src` into those of `dst`, root ↦ each target that has one:
    (component points, targets kept, their image rows over those points).
    Targets go through :func:`spread` in blocks of _TARGET_BLOCK targets ×
    points, kept when every labelled edge agrees: one comparison per label."""
    kept, rows = [], []
    for t0 in range(0, len(targets), step := max(1, _TARGET_BLOCK // src.shape[1])):
        block = targets[t0:t0 + step]
        comp, values = spread(src, root, block, lambda j, v: np.take(dst[j], v))
        on, ok = np.take(values, comp, 0), np.ones(len(block), dtype=bool)
        for s, d in zip(src, dst):
            ok &= (np.take(values, s[comp], 0) == np.take(d, on)).all(0)
        kept.append(block[ok])
        rows.append(on[:, ok].T)
    return comp, np.concatenate(kept), np.concatenate(rows)


def automorphism_rows(g: LabeledSchreierGraph) -> np.ndarray:
    """All label-respecting graph automorphisms as one int32 array: row r
    holds the images of the vertices 0..n-1 under automorphism r, and rows
    are in lexicographic order.

    Per component, the image of one root vertex determines the rest, and it
    is the whole component of that image.  So each root is tried against
    every vertex of the components of its size at once (`_label_maps`), and
    an automorphism picks one map per component, hitting each once.  Each
    step is refused before it allocates a table of more than CELL_CAP cells:
    targets × component points before `_label_maps`, partial maps × targets
    before the mask of free targets, and the extended maps × their new width
    or × the component count before the concatenation and the hit table.
    """
    comps = components(g)
    comp_of = np.empty(g.n, dtype=np.intp)
    for ci, c in enumerate(comps):
        comp_of[list(c)] = ci
    S = g.image_array
    size = np.array([len(c) for c in comps])[comp_of]
    # partial maps over the components done so far and the components they
    # hit, each extended by every map of the next root into a free component
    maps, points = np.zeros((1, 0), dtype=np.int32), []
    hit = np.zeros((1, len(comps)), dtype=bool)
    for c in comps:
        targets = np.flatnonzero(size == len(c)).astype(np.int32)
        _check_cells(len(targets) * len(c), "the exact automorphism search")
        comp, targets, images = _label_maps(S, S, min(c), targets)
        _check_cells(len(maps) * len(targets), "the exact automorphism search")
        free = ~hit[:, comp_of[targets]]
        _check_cells(np.count_nonzero(free) * max(maps.shape[1] + len(c), len(comps)),
                     "the exact automorphism search")
        at, pick = np.nonzero(free)
        maps, hit = np.concatenate([maps[at], images[pick]], 1), hit[at]
        hit[np.arange(len(hit)), comp_of[targets[pick]]] = True
        points.append(comp)
    maps = np.take(maps, np.argsort(np.concatenate(points)), 1)
    return maps[np.argsort(_void_rows(maps, ">i4"), kind="stable")]


def exact_automorphisms(g: LabeledSchreierGraph) -> list[Permutation]:
    """All label-respecting graph automorphisms, sorted by image tuple:
    the rows of :func:`automorphism_rows` as Permutations."""
    return [Permutation(tuple(row)) for row in automorphism_rows(g).tolist()]


def enumerate_eps_automorphisms(g: LabeledSchreierGraph, eps,
                                mode: str = "exhaustive",
                                restarts: int = 20,
                                seed: int = 0) -> list[Permutation]:
    """Automorphism-like maps with defect <= eps.

    exhaustive    complete scan of `groups.sym_scan_rows(n)`, maps in
                  lexicographic order; refused above groups.SYM_SCAN_CAP.
    backtracking  exact automorphisms only; complete precisely when eps = 0.
    local-search  exact automorphisms plus hill-climbing descents from seeded
                  random starts, none when eps·|E| < 1; a sample, not an enumeration.
    """
    eps = Fraction(eps)
    S, edges = g.image_array, g.edge_count
    need = edges - eps * edges // 1  # defect <= eps iff count >= need
    if mode == "exhaustive":
        rows = sym_scan_rows(g.n)
        return [Permutation(tuple(row))
                for row in rows[_preserved(S, rows) >= need].tolist()]
    if mode == "backtracking":
        if eps != 0:
            raise ValueError("backtracking mode enumerates exact automorphisms;"
                             " it is only complete for eps = 0")
        return exact_automorphisms(g)
    if mode != "local-search":
        raise ValueError(f"unknown mode {mode!r}")
    _check_cells(g.n * g.n, "the local search's n×n swap-gain table")
    found = {p.images: p for p in exact_automorphisms(g)} if need <= edges else {}
    if need >= edges:  # only exact automorphisms qualify: a descent adds none
        return list(found.values())
    T = np.argsort(S, axis=1)
    rng = random.Random(seed)
    for _ in range(restarts):
        current = list(range(g.n))
        rng.shuffle(current)
        r = np.array(current, dtype=np.intp)
        if _descend(S, T, r, int(_preserved(S, r))) >= need and \
                (key := tuple(r.tolist())) not in found:
            found[key] = Permutation(key)
    return [found[k] for k in sorted(found)]


def induced_component_graph(g: LabeledSchreierGraph,
                            comp: Iterable[int]) -> LabeledSchreierGraph:
    """Restriction of every label to a component, vertices renumbered in
    sorted order: one gather through the vertices' new positions (-1 off
    the set).  Components are generator-invariant, so this is total."""
    verts = np.array(sorted(comp), dtype=np.intp)
    pos = np.full(g.n, -1, dtype=np.int32)
    pos[verts] = np.arange(len(verts))
    rows = pos[g.image_array[:, verts]]
    if (rows < 0).any():
        raise ValueError("vertex set is not generator-invariant")
    return LabeledSchreierGraph(g.labels, rows)


def connected_label_isomorphic(g1: LabeledSchreierGraph,
                               g2: LabeledSchreierGraph) -> bool:
    """Whether a label-respecting isomorphism g1 -> g2 exists; g1 connected.

    Such a map sends g1 onto the component of its root's image, so it is a
    bijection exactly when g2 is connected too; the root is then tried
    against every vertex of g2 at once (`_label_maps`)."""
    if g1.labels != g2.labels:
        raise ValueError("the graphs must share one label list")
    if g1.n != g2.n:
        return False
    if len(components(g1)) != 1:
        raise ValueError("the first graph must be connected")
    if len(components(g2)) != 1:
        return False
    targets = np.arange(g2.n, dtype=np.int32)
    return len(_label_maps(g1.image_array, g2.image_array, 0, targets)[1]) > 0


# -- cluster scans ----------------------------------------------------------------------

class ClusterScan(Record):
    epsilon: Fraction
    threshold: Fraction
    automorphisms: tuple[Permutation, ...]
    histogram: tuple[tuple[Fraction, int], ...]  # (distance, pair count)
    clusters: tuple[tuple[int, ...], ...]  # indices into automorphisms
    gap_interval: tuple[Fraction, Fraction]
    product_defects: tuple[tuple[tuple[int, int], Fraction], ...]


def pairwise_distances(rows: np.ndarray, threshold=0):
    """Normalized Hamming distances over the pairs i < j of the k×n index
    rows: their sorted (distance, pair count) histogram and the index arrays
    of the pairs at distance <= threshold, from mismatch counts in bounded
    row blocks.  Above PAIR_CAP compared cells it is refused before any
    block runs."""
    k, n = rows.shape
    if k * (k - 1) // 2 * n > PAIR_CAP:
        raise CapExceededError(f"pairwise distances are capped at {PAIR_CAP}"
                               f" compared cells; {k} rows of {n} points need more")
    limit, hist = Fraction(threshold) * n // 1, np.zeros(n + 1, dtype=np.intp)
    close, cols = [np.zeros((2, 0), dtype=np.intp)], np.ascontiguousarray(rows.T)
    for i0 in range(0, k, step := max(1, _PAIR_BLOCK // max(1, k * n))):
        # summed over the middle axis: whole contiguous rows of flags at a time
        counts = (rows[i0:i0 + step, :, None] != cols[None, :, i0:]).sum(1, dtype=np.int32)
        upper = np.arange(len(counts))[:, None] < np.arange(k - i0)
        hist = hist + np.bincount(counts[upper], minlength=n + 1)
        close.append(np.array(np.nonzero(upper & (counts <= limit))) + i0)
    return (tuple((Fraction(d, n), int(c)) for d, c in enumerate(hist) if c),
            np.concatenate(close, axis=1))


def cluster_scan(autos: Sequence[Permutation], g: LabeledSchreierGraph,
                 epsilon=Fraction(0), threshold=CLUSTER_THRESHOLD) -> ClusterScan:
    """Pairwise-distance histogram, distance-<=threshold clusters, the widest
    empty distance interval, and product-defect probes between clusters."""
    autos = list(autos)
    if len(autos) < 2:
        raise ValueError("cluster scans need at least two automorphisms")
    rows = np.array([p.images for p in autos], dtype=np.intp)
    histogram, (a, b) = pairwise_distances(rows, threshold)
    # clusters: components of the close pairs by min-label propagation, where
    # labels never rise and stay in their component, so each ends at its least
    labels, before = np.arange(len(autos)), None
    while not np.array_equal(labels, before):
        before = labels.copy()
        np.minimum.at(labels, a, before[b])
        np.minimum.at(labels, b, before[a])
        labels = labels[labels]
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    clusters = tuple(tuple(c.tolist()) for c in np.split(order, cuts))
    # widest open interval between consecutive observed values (0, 1 anchored)
    points = sorted({Fraction(0), Fraction(1)} | {d for d, _ in histogram})
    gap = max(zip(points, points[1:]), key=lambda pair: pair[1] - pair[0])
    # representative-product probes, pairs of clusters in order, counted on
    # the composed index rows rep_c(rep_d(x))
    S, reps = g.image_array, rows[[c[0] for c in clusters]]
    probes = [((c, c + d), Fraction(g.edge_count - int(count), g.edge_count))
              for c in range(len(clusters))
              for d, count in enumerate(_preserved(S, reps[c][reps[c:]]))]
    return ClusterScan(Fraction(epsilon), Fraction(threshold), tuple(autos),
                       histogram, clusters, gap, tuple(probes))


def default_cluster_epsilon(g: LabeledSchreierGraph) -> Fraction:
    """The measured spectral gap scaled by 1e-4, as an exact snapshot."""
    gap = spectral_gap(g)
    return Fraction(int(round(gap * 10 ** 8)), 10 ** 12)


# -- text I/O ------------------------------------------------------------------------------

def graph_file_text(g: LabeledSchreierGraph) -> str:
    lines = [f"n={g.n} labels={','.join(g.labels)}"]
    lines += [f"{i + 1} {s} {j + 1}" for i, s, j in g.edges()]
    return "\n".join(lines) + "\n"


def write_graph_file(g: LabeledSchreierGraph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_file_text(g))


def parse_graph_text(text: str) -> LabeledSchreierGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    header = lines[0]
    parts = dict(item.split("=", 1) for item in header.split())
    try:
        n = int(parts["n"])
        labels = tuple(parts["labels"].split(","))
    except (KeyError, ValueError):
        raise ValueError(f"bad header: {header!r}") from None
    images = {s: [-1] * n for s in labels}
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 3:
            raise ValueError(f"bad edge line: {ln!r}")
        i, s, j = fields
        if s not in images:
            raise ValueError(f"unknown label {s!r} in edge line")
        iv, jv = int(i) - 1, int(j) - 1
        if not (0 <= iv < n and 0 <= jv < n):
            raise ValueError(f"vertex out of range in {ln!r}")
        if images[s][iv] != -1:
            raise ValueError(f"duplicate edge for vertex {i}, label {s}")
        images[s][iv] = jv
    for s, imgs in images.items():
        if -1 in imgs:
            raise ValueError(f"label {s!r} is missing edges")
    return LabeledSchreierGraph(labels, [images[s] for s in labels])


def read_graph_file(path) -> LabeledSchreierGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def histogram_csv(scan: ClusterScan) -> str:
    lines = ["numerator,denominator,count"]
    for d, count in scan.histogram:
        lines.append(f"{d.numerator},{d.denominator},{count}")
    return "\n".join(lines) + "\n"
