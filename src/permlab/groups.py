"""Enumerated finite permutation groups and their definable-set algebra.

A :class:`FiniteGroup` stores its elements in one read-only C-contiguous
int32 matrix (:attr:`FiniteGroup.matrix`, one row of images per element),
indexed 0..order-1 with the identity first for constructor groups.  Rows
are looked up by one rank function, a binary search over one sorted key
per row (its base-d digits up to degree 15, its bytes above).  Products go
through :meth:`FiniteGroup.mul_many`: a gather from the int32 Cayley table
(:meth:`FiniteGroup.table`, built on first use) for groups of at most
TABLE_CAP elements, composed and ranked rows above it; scalar `mul` and
`inv` read the same table and inverse array.  No other module knows how
elements are stored; :class:`~permlab.perms.Permutation` objects appear only
at API boundaries.  Groups are immutable after construction, so sharing
them between callers is safe: every pure query result that is kept
(centralizers, subgroup tests, the class scan and partition, the FO
evaluator's orbit representatives and macro values) goes through one memo store,
:meth:`FiniteGroup.memoized`.

Closures of generators run breadth first over element rows in `_closure`
(constructor groups, image groups, Alt(l) subgroups, and subgroups of a group
that has no table yet); within a built table, `_generate` grows subgroups and
generating subsets by table gathers.  The scalar :func:`orbit` stays as the
tests' reference.
Values pushed along generator edges go through one batched kernel,
:func:`spread`: Cayley-table rows, homomorphisms from blocks of generator
images, automorphisms and isomorphisms from blocks of root targets (the
scalar :func:`extend` is their reference and the :func:`are_isomorphic`
oracle's walk).  Orbits do not walk: `_min_labels` partitions by numpy
min-label propagation over index maps, the labels of a Schreier graph
(`schreier.components`) or, in :meth:`FiniteGroup.conjugation_orbits` (the
FO evaluator's orbit representatives, class representatives of subgroups),
each generator's conjugates of the points keyed and searched in blocks.
Conjugacy classes come from `_class_scan`, in index order: each class's least
member, certified by |G|/|C_G(r)| or listed by its conjugates, until the sizes
sum to |G|.  The class index and the frozensets of `conjugacy_classes` are
built only on request.
Centralizers compare each generator's Cayley-table row with its column
within a built table.  Otherwise they eliminate candidates, seeded by the
rows of C_Sym(d)(g) for one generator g of the key when there are fewer of
those than |G|: each moved point of each generator keeps the rows that
commute there.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from functools import partial
from math import factorial, lcm
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CapExceededError
from .perms import (CycleType, Permutation, centralizer_order_sym,
                    padded_rows, parse_permutation, row_cycles)
from .record import Record

__all__ = [
    "FiniteGroup",
    "GroupSpec",
    "parse_group_spec",
    "construct_group",
    "default_corpus",
    "set_product",
    "generated_subgroup",
    "generating_subset",
    "is_subgroup",
    "subgroup_index",
    "iterated_product_stabilization",
    "internal_direct_factor_check",
    "subgroup_as_group",
    "element_order_spectrum",
    "is_abelian",
    "is_simple_bruteforce",
    "iter_alt_subgroups",
    "subgroup_search_iso_alt",
    "are_isomorphic",
    "sym_scan_rows",
    "left_regular_permutation",
    "right_regular_permutation",
]

ELEMENT_CAP = 10 ** 6
TABLE_CAP = 5000
SIMPLICITY_CAP = 10 ** 5
ISOMORPHISM_CAP = 10 ** 6  # generator-image tuples tried by are_isomorphic
SYM_SCAN_CAP = 8  # degree of the largest Sym(n) a brute-force scan lists
_BLOCK = 1 << 14  # rows per block of row gathers (conjugation orbits, class scan, FO scans)


def orbit(seed, gens, cap: int | None = None) -> list | None:
    """Orbit of `seed` under the point maps `gens`, breadth first.

    Points come out in FIFO discovery order, the order in which `_closure`
    indexes the elements of every group it builds.  Only forward maps are
    needed: a permutation of a finite set has finite order, so its inverse
    is one of its powers.  Returns None once the orbit would exceed `cap`
    points.
    """
    out = [seed]
    seen = {seed}
    for x in out:
        for g in gens:
            y = g(x)
            if y not in seen:
                if len(out) == cap:
                    return None
                seen.add(y)
                out.append(y)
    return out


def extend(mapping: list, root, target, src_gens, dst_gens) -> list | None:
    """Extend a partial map by root ↦ target along forward generator edges.

    `mapping` is indexed by source points, None where unset (at least over
    the orbit of `root`), and is filled in place over that orbit.  For every
    pair (s, d) of `src_gens` and `dst_gens`, each edge x → s(x) must go to
    the edge f(x) → d(f(x)); the map is returned when all of them agree,
    None at the first edge that does not.
    """
    mapping[root] = target
    queue = [root]
    for x in queue:
        fx = mapping[x]
        for s, d in zip(src_gens, dst_gens):
            y, fy = s(x), d(fx)
            old = mapping[y]
            if old is None:
                mapping[y] = fy
                queue.append(y)
            elif old != fy:
                return None
    return mapping


def spread(edges: np.ndarray, root: int, starts: np.ndarray,
           step) -> tuple[np.ndarray, np.ndarray]:
    """Push the block of values `starts` from `root` along a breadth-first
    tree of the edges x → edges[j, x] (k×n, each row a permutation): the
    value at edges[j, x] is step(j, value at x), for a stack of values at
    once.  Returns the orbit of `root` (ascending) and `values`, set at the
    orbit's points.  A caller that needs every edge to agree compares
    values[edges[j, orbit]] with step(j, values[orbit])."""
    values = np.empty((edges.shape[1],) + starts.shape, dtype=starts.dtype)
    values[root] = starts
    seen = np.zeros(edges.shape[1], dtype=bool)
    seen[root] = True
    level = np.array([root])
    while level.size:
        new = []
        for j, heads in enumerate(edges[:, level]):
            fresh = ~seen[heads]  # one row maps distinct points apart
            heads = heads[fresh]
            seen[heads] = True
            values[heads] = step(j, values[level[fresh]])
            new.append(heads)
        level = np.concatenate([level[:0], *new])
    return np.flatnonzero(seen), values


def _void_rows(rows: np.ndarray, dtype=np.int32) -> np.ndarray:
    """Each row of an int matrix as one fixed-width bytes value: the row keys
    above degree 15, and with dtype ">i4" (big-endian), in the lexicographic
    order of nonnegative rows, `schreier`'s sort of automorphism rows."""
    rows = np.ascontiguousarray(rows, dtype=dtype)
    return rows.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel()


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per row of an n×d int32 matrix, the one place the key
    encoding is chosen; ValueError if an entry lies outside 0..d-1, where it
    could alias a valid key.  Up to d = 15 the key is the int64 of the row's
    base-d digits (d^d < 2^63), so numeric order is lexicographic row order,
    read off the columns with no n×d temporary; above, the row's bytes."""
    d = rows.shape[1]
    if 0 < d <= 15:  # ValueError at an entry outside 0..d-1
        return np.ravel_multi_index(tuple(rows.T), (d,) * d)
    if rows.view(np.uint32).max(initial=0) >= d:  # negative entries read as huge
        raise ValueError(f"an entry lies outside 0..{d - 1}")
    return _void_rows(rows)


def _search(keys: np.ndarray, order: np.ndarray, wanted: np.ndarray):
    """(order[position of each wanted key in the sorted `keys`], mask of the
    wanted keys that are not there).  Many keys are searched in ascending
    order, which keeps the binary searches in cache (3× faster on 10^5)."""
    ask = np.argsort(wanted) if len(wanted) > 256 else slice(None)
    at = np.empty(len(wanted), dtype=np.intp)
    at[ask] = np.minimum(np.searchsorted(keys, wanted[ask]), len(keys) - 1)
    return order[at], keys[at] != wanted


def _sym_centralizer_rows(row) -> np.ndarray:
    """The centralizer_order_sym(CycleType.of(row)) int32 rows of
    C_Sym(d)(p) for the image row `row` of p: the x that map each cycle
    (c_0 … c_l-1) of p onto one of equal length, c_i ↦ c'_(i+r) for some r.
    The product of one block per length l with m cycles (m! cycle maps ×
    l^m rotations)."""
    by_len: dict[int, list] = {}
    for c in row_cycles(row, include_fixed=True):
        by_len.setdefault(len(c), []).append(c)
    rows = np.arange(len(row), dtype=np.int32)[None]
    for length, cycs in by_len.items():
        cyc, m = np.array(cycs, dtype=np.int32), len(cycs)
        onto = np.array(list(itertools.permutations(range(m))))[:, None, :, None]
        turn = np.indices((length,) * m).reshape(m, -1).T[None, :, :, None]
        block = cyc[onto, (np.arange(length) + turn) % length].reshape(-1, cyc.size)
        rows = np.repeat(rows, len(block), axis=0)
        rows[:, cyc.ravel()] = np.tile(block, (len(rows) // len(block), 1))
    return rows


def _cycle_types(rows: np.ndarray) -> tuple[list[CycleType], np.ndarray]:
    """(the distinct cycle types of the permutation rows `rows`, each row's
    position among them).  The least point of each point's cycle is the
    least of a window of 2^k points along it, doubled by squaring the rows
    until 2^k ≥ d; the cycle lengths counted from it are sorted and keyed."""
    n, d = rows.shape
    power = (rows + np.arange(0, n * d, d, dtype=np.int32)[:, None]).ravel()
    least = np.arange(n * d, dtype=np.int32)
    for _ in range((d - 1).bit_length()):
        np.minimum(least, least[power], out=least)
        power = power[power]
    del power  # the typing arrays are |rows|·d each: keep few alive at once
    lengths = np.bincount(least, minlength=n * d).astype(np.int32)[least].reshape(n, d)
    lengths.sort(axis=1)
    lengths -= 1
    _keys, first, at = np.unique(_row_keys(lengths), return_index=True, return_inverse=True)
    return [CycleType.of(rows[f].tolist()) for f in first.tolist()], at


def _min_labels(maps: list[np.ndarray], n: int) -> np.ndarray:
    """The least point of each point's orbit under the index maps `maps`
    (permutations of 0..n-1, each given with its inverse).

    Min-label propagation: every round lowers each label to the least label
    one edge away, then pointer jumping (label ↦ label[label]) shortcuts
    chains.  Labels stay inside their orbit and never rise, so at the fixed
    point, where labels agree along every edge, each is the orbit minimum.
    """
    labels = np.arange(n, dtype=np.int32)
    before, step = np.empty_like(labels), np.empty_like(labels)
    while True:
        np.copyto(before, labels)
        for m in maps:
            np.minimum(labels, np.take(labels, m, out=step), out=labels)
        while not np.array_equal(np.take(labels, labels, out=step), labels):
            labels, step = step, labels
        if np.array_equal(labels, before):
            return labels


def _size_order(labels: np.ndarray):
    """(reps, sizes, order) of the orbits labelled by `labels`: least members
    ascending, their orbit sizes, and the permutation of both into (size,
    least member) order."""
    reps, sizes = np.unique(labels, return_counts=True)
    return reps, sizes, np.lexsort((reps, sizes))


class FiniteGroup:
    """A finite group of permutations of one degree, fully enumerated."""

    def __init__(self, elements: Sequence[tuple] | np.ndarray, name: str,
                 generator_indices: Sequence[int] | None = None):
        if len(elements) == 0:
            raise ValueError("a group needs at least the identity")
        if not isinstance(elements, np.ndarray) and len(set(map(len, elements))) != 1:
            raise ValueError("mixed degrees in element list")
        self.name = name
        # a view, so that freezing it leaves a caller's array writeable
        self.matrix = np.ascontiguousarray(elements, dtype=np.int32).view()
        self.matrix.flags.writeable = False
        self.degree = self.matrix.shape[1]
        # the row keys in ascending order, which `_rank` and
        # `conjugation_orbits` search, and the row index of each
        try:
            keys = _row_keys(self.matrix)
        except ValueError:
            raise ValueError(f"element entries must lie in 0..{self.degree - 1}") from None
        self._row_order = np.argsort(keys).astype(np.int32)
        self._keys = keys = keys[self._row_order]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate element in element list")
        try:
            self.identity_index = self.index_of(range(self.degree))
        except ValueError:
            raise ValueError("identity missing from element list") from None
        self._generators = (tuple(generator_indices)
                            if generator_indices is not None else None)
        self._table: tuple | None = None
        self._inverse: np.ndarray | None = None
        self._orders: list[int] = [0] * len(self)
        self._memo: dict[tuple, object] = {}  # see `memoized`
        self.spec: GroupSpec | None = None  # set by construct_group

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.matrix)

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.name} order {len(self)} degree {self.degree}>"

    def element(self, i: int) -> Permutation:
        return Permutation(self.element_tuple(i))

    def element_tuple(self, i: int) -> tuple:
        return tuple(self.matrix[i].tolist())

    def _rank(self, rows) -> np.ndarray:
        """Indices of the element rows `rows` (shape (..., degree)), by binary
        search over the sorted row keys; ValueError names a row that is not
        an element."""
        rows = np.asarray(rows, dtype=np.int32)
        flat = rows.reshape(-1, self.degree)
        try:
            wanted = _row_keys(flat)
        except ValueError:  # rows with an entry outside 0..degree-1
            missing = (flat.view(np.uint32) >= self.degree).any(axis=1)
        else:
            found, missing = _search(self._keys, self._row_order, wanted)
        if missing.any():
            row = tuple(flat[np.argmax(missing)].tolist())
            raise ValueError(f"not an element of {self.name}: {row}")
        return found.reshape(rows.shape[:-1])

    def index_of(self, p: Permutation | tuple) -> int:
        t = p.images if isinstance(p, Permutation) else tuple(p)
        if len(t) != self.degree:
            raise ValueError(f"not an element of {self.name}: {t}")
        return int(self._rank(t))

    def __contains__(self, p) -> bool:
        try:
            self.index_of(p)
        except (ValueError, OverflowError):  # OverflowError: no int32 row
            return False
        return True

    def elements(self) -> Iterator[Permutation]:
        return (self.element(i) for i in range(len(self)))

    @property
    def generators(self) -> tuple[int, ...]:
        if self._generators is None:
            self._generators = tuple(generating_subset(self))
        return self._generators

    def generator_permutations(self) -> list[Permutation]:
        return [self.element(i) for i in self.generators]

    def memoized(self, query: str, key, compute):
        """compute(), run once per (query, key) on this group: the one store
        of its pure query results.  `query` names what is asked and `key` is
        a hashable argument, such as a frozenset of element indices."""
        try:
            return self._memo[query, key]
        except KeyError:
            result = self._memo[query, key] = compute()
            return result

    # -- arithmetic ---------------------------------------------------------

    def left_table(self) -> np.ndarray:
        """The int32 Cayley table T[i, j] = index of i·j at any order (`table`
        keeps it within TABLE_CAP): row i is x ↦ i·x, column j is x ↦ x·j.
        Only generator rows are ranked compositions; every other row follows
        from row(g·y) = row_g[row(y)], spread from the identity."""
        mat, n = self.matrix, len(self)
        # (g·x)(i) = g(x(i)) for every x
        rows = np.array([self._rank(mat[g][mat]) for g in self.generators],
                        dtype=np.int32).reshape(-1, n)
        return spread(rows, self.identity_index, np.arange(n, dtype=np.int32),
                      lambda j, T: rows[j][T])[1]

    def table(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(T, inv): int32 arrays with T = `left_table()` and inv[i] the index
        of i^-1, or None for groups above TABLE_CAP.  Built on first use."""
        if self._table is None and len(self) <= TABLE_CAP:
            self._table = self.left_table(), self.inverse_array()
        return self._table

    def mul_many(self, a, b) -> np.ndarray:
        """Indices of the products a·b of index arrays, broadcast like T[a, b]:
        a Cayley-table gather within TABLE_CAP, else composed rows, ranked."""
        if (table := self._table or self.table()) is not None:
            return table[0][a, b]
        a, b = np.broadcast_arrays(a, b)
        return self._rank(np.take_along_axis(self.matrix[a], self.matrix[b], -1))

    def mul(self, i: int, j: int) -> int:
        if (table := self._table or self.table()) is None:
            return int(self._rank(self.matrix[i][self.matrix[j]]))
        return table[0].item(i, j)

    def inverse_array(self) -> np.ndarray:
        """Read-only int32 array: inverse_array()[i] is the index of i^-1."""
        if self._inverse is None:
            # a permutation row's argsort is its inverse
            self._inverse = self._rank(np.argsort(self.matrix, axis=1))
            self._inverse.flags.writeable = False
        return self._inverse

    def inv(self, i: int) -> int:
        return self.inverse_array().item(i)

    def conj(self, i: int, by: int) -> int:
        """by · i · by^-1."""
        return self.mul(self.mul(by, i), self.inv(by))

    def power(self, i: int, k: int) -> int:
        acc = self.identity_index
        for _ in range(k % self.order_of(i)):
            acc = self.mul(acc, i)
        return acc

    def order_of(self, i: int) -> int:
        o = self._orders[i]
        if o == 0:
            o = self._orders[i] = lcm(*map(len, row_cycles(
                self.element_tuple(i), include_fixed=True)))
        return o

    # -- conjugacy ----------------------------------------------------------

    def conjugation_orbits(self, by: Iterable[int],
                           points: np.ndarray | None = None) -> np.ndarray:
        """Orbit labels of conjugation x ↦ g·x·g^-1 by the elements `by`.

        `points` is a sorted index array closed under those maps (default:
        the whole group).  The result holds, for each point in order, the
        least point of its orbit.

        The points' row keys are sorted once.  For each g and each block of
        _BLOCK points, the rows of the conjugates g·x·g^-1 are keyed and
        found among them by binary search, which gives the index map; a
        conjugate outside `points` raises ValueError.  The partition is
        `_min_labels` over the maps.
        """
        mat = self.matrix
        if points is None:
            rows, keys, order = mat, self._keys, self._row_order
        else:
            rows = mat[points]
            order = np.argsort(keys := _row_keys(rows))
            keys = keys[order]
        n = len(rows)
        maps = []
        for g in by:
            gt = mat[g]
            g_inv = np.argsort(gt)
            fwd = np.empty(n, dtype=np.int32)
            for s in range(0, n, _BLOCK):  # (g·x·g^-1)(i) = g(x(g^-1(i)))
                conj = gt[rows[s:s + _BLOCK][:, g_inv]]
                fwd[s:s + _BLOCK], missing = _search(keys, order, _row_keys(conj))
                if missing.any():
                    raise ValueError(
                        f"{self.name}: a conjugate is missing from the points")
            bwd = np.empty_like(fwd)
            bwd[fwd] = np.arange(n, dtype=np.int32)
            maps += [fwd, bwd]
        labels = _min_labels(maps, n)
        return labels if points is None else np.asarray(points)[labels]

    def conjugation_orbit_reps(self, by: Iterable[int]) -> list[int]:
        """Least members of the orbits of conjugation by `by` on the whole
        group, in (orbit size, least member) order."""
        reps, _sizes, order = _size_order(self.conjugation_orbits(by))
        return reps[order].tolist()

    def _conjugates(self, x: int) -> np.ndarray:
        """The class of x, ascending: y·x·y^-1 for every element y by two
        table gathers within TABLE_CAP; above, breadth first under
        conjugation by the generators, whose rows (g·c·g^-1)(i) =
        g(c(g^-1(i))) are ranked; sorted and deduplicated by hand."""
        seen = np.zeros(len(self), dtype=bool)
        if (table := self._table or self.table()) is not None:
            seen[table[0][table[0][:, x], table[1]]] = True
            return np.flatnonzero(seen)
        gens, level = self.matrix[list(self.generators)], np.array([x])
        seen[x] = True
        while level.size:
            rows = self.matrix[level]
            conj = self._rank(np.concatenate([g[rows[:, h]] for g, h in
                                              zip(gens, np.argsort(gens, axis=1))]))
            fresh = np.sort(conj[~seen[conj]])
            level = fresh[np.diff(fresh, prepend=-1) != 0]
            seen[level] = True
        return np.flatnonzero(seen)

    def _class_scan(self) -> tuple[list[int], np.ndarray, dict]:
        """(least member of each class, in (size, least member) order; the
        least member of each element's class where marked, else -1; that of
        the one unmarked class of each cycle type that has one).

        Rows are scanned in index order, _BLOCK at a time, by cycle type; a
        row in no known class is the least member of a new one.  The rows of
        a type are skipped once its classes hold all its d!/|C_Sym(d)(type)|
        permutations.  A class that may complete its type (what is left of
        that count divides |G|) has |G|/|C_G(r)| elements; any other is
        listed by `_conjugates` and marked, as is a class that leaves its
        type incomplete, so each type has at most one unmarked class.  Within
        TABLE_CAP all rows share one type that never completes.  ValueError
        if some |C_G(r)| does not divide |G| or the sizes never sum to |G|."""
        def compute():
            n, table = len(self), self._table or self.table()
            unseen = {None: -1}  # per type, its permutations in no known class
            label = np.full(n, -1, dtype=np.int32)
            found, unmarked, left = [], {}, n
            for start in range(0, n, _BLOCK):
                marks = label[start:start + _BLOCK]
                kinds, at = ([None], np.zeros(len(marks), dtype=np.intp)) if table \
                    else _cycle_types(self.matrix[start:start + _BLOCK])
                unseen |= {t: factorial(self.degree) // centralizer_order_sym(t)
                           for t in kinds if t not in unseen}
                todo = (marks < 0) & np.array([unseen[t] != 0 for t in kinds])[at]
                while left and todo.any():
                    x, t = start + (i := int(todo.argmax())), kinds[at[i]]
                    if table or n % unseen[t]:  # its class cannot complete its type
                        members = self._conjugates(x)
                        size, label[members] = len(members), x
                    else:
                        size, rest = divmod(n, n if self.is_central((x,))
                                            else len(self.centralizer_of((x,))))
                        if rest:
                            raise ValueError(
                                f"{self.name}: a centralizer order does not divide {n}")
                    found.append((size, x))
                    left, unseen[t] = left - size, unseen[t] - size
                    if not unseen[t]:
                        unmarked[t] = x
                        todo &= at != at[i]
                        continue
                    if label[x] < 0:
                        label[self._conjugates(x)] = x
                    todo &= marks < 0
                if not left:
                    break
            if left:
                raise ValueError(f"{self.name}: the class sizes sum to {n - left}, not {n}")
            return [x for _size, x in sorted(found)], label, unmarked
        return self.memoized("class_scan", None, compute)

    def _partition(self) -> tuple[np.ndarray, list[int]]:
        """(class index of every element, int32; least member of each class),
        classes in (size, least member) order: `_class_scan`'s marks, and
        elsewhere the one unmarked class of the row's cycle type."""
        def compute():
            reps, marks, unmarked = self._class_scan()
            least = marks.copy()
            for start in range(0, len(self), _BLOCK):
                if (block := least[start:start + _BLOCK]).min() < 0:
                    kinds, at = _cycle_types(self.matrix[start:start + _BLOCK])
                    np.copyto(block, np.array([unmarked.get(t, -1) for t in kinds],
                                              dtype=np.int32)[at], where=block < 0)
            rank = np.zeros(len(self), dtype=np.int32)
            rank[reps] = np.arange(len(reps))
            return rank[least], reps
        return self.memoized("partition", None, compute)

    def conjugacy_classes(self) -> tuple[frozenset, ...]:
        """Conjugacy classes, sorted by (size, least member); the sets are
        built on first request, from the partition."""
        def compute():
            class_of = self._partition()[0]
            members = np.argsort(class_of, kind="stable")
            ends = np.cumsum(np.bincount(class_of))[:-1]
            return tuple(frozenset(m.tolist()) for m in np.split(members, ends))
        return self.memoized("classes", None, compute)

    def class_representatives(self) -> list[int]:
        """Least member of each class, in (class size, member) order."""
        return list(self._class_scan()[0])

    def class_of(self, i: int) -> frozenset:
        return self.conjugacy_classes()[self._partition()[0][i]]

    def are_conjugate(self, i: int, j: int) -> bool:
        """Whether elements i and j lie in one conjugacy class: one marked
        class of `_class_scan`, or both unmarked and of one cycle type."""
        label = self._class_scan()[1]
        if label.item(i) >= 0 or label.item(j) >= 0:
            return label.item(i) == label.item(j)
        return CycleType.of(self.element_tuple(i)) == CycleType.of(self.element_tuple(j))

    # -- centralizers -------------------------------------------------------

    def is_central(self, indices: Iterable[int]) -> bool:
        """Whether every element of `indices` commutes with every generator,
        i.e. lies in the center; compares composed rows, so no table."""
        mat = self.matrix
        return all(np.array_equal(mat[a][mat[g]], mat[g][mat[a]])
                   for a in indices for g in self.generators)

    def centralizer_of(self, indices: Iterable[int]) -> frozenset:
        """Centralizer {x : xs = sx for all s in the given set} as index set.

        A group that holds its Cayley table T keeps the x with T[g, x] =
        T[x, g] for each generator g of the key.  Otherwise
        C_G(g) = G ∩ C_Sym(d)(g): the generator of the key with the least
        |C_Sym(d)(g)|, counted exactly, seeds the candidates with those of
        its rows that are in G when that count is below |G|, else all rows
        are candidates.  Per other generator g and point i moved by g, keep
        the rows x with x(g(i)) = g(x(i)).  Those x map fix(g) onto itself,
        so fixed points need no test."""
        key = frozenset(indices)

        def compute():
            mat, cand = self.matrix, np.arange(len(self))
            gens = generating_subset(self, key)
            if self._table is not None:  # g·x = x·g: row g against column g
                T, keep = self._table[0], np.ones(len(self), dtype=bool)
                for g in gens:
                    keep &= T[g] == T[:, g]
                cand, gens = np.flatnonzero(keep), []  # nothing left to eliminate
            sizes = [centralizer_order_sym(CycleType.of(self.element_tuple(g)))
                     for g in gens]
            if gens and min(sizes) < len(self):
                seed = gens.pop(sizes.index(min(sizes)))
                rows = _sym_centralizer_rows(self.element_tuple(seed))
                found, missing = _search(self._keys, self._row_order, _row_keys(rows))
                cand = np.sort(found[~missing])
            for g in gens:
                garr = mat[g]
                for i in np.flatnonzero(garr != np.arange(self.degree)).tolist():
                    cand = cand[mat[cand, garr[i]] == garr[mat[cand, i]]]
            if len(cand) < len(self):
                return frozenset(cand.tolist())
            # one whole-group set serves the empty key and every central one
            return self.memoized("centralizer", frozenset(),
                                 lambda: frozenset(range(len(self))))
        return self.memoized("centralizer", key, compute)


# ---------------------------------------------------------------------------
# group specs and constructors


class GroupSpec(Record):
    """Recipe for a constructor group, as a frozen record.

    kind ∈ {sym, alt, cyclic, dihedral, psl2, generated}; `n` is the degree
    for sym/alt, the order for cyclic/dihedral, the odd prime p for psl2;
    `gens` holds cycle strings for kind=generated.
    """

    kind: str
    n: int = 0
    gens: tuple[str, ...] = ()

    def canonical_name(self) -> str:
        if self.kind == "generated":
            return "generated[" + ",".join(self.gens) + "]"
        return f"{self.kind}({self.n})"

    def as_dict(self) -> dict:
        if self.kind == "generated":
            return {"kind": "generated", "generators": list(self.gens)}
        return {"kind": self.kind, "n": self.n}


_SPEC_RE = re.compile(
    r"^(sym|alt|cyclic|dihedral|psl2)\s*[\s(:_]?\s*(\d+)\s*\)?$")
_ALIAS_RE = re.compile(r"^(z|d)\s*(\d+)$")


def parse_group_spec(spec) -> GroupSpec:
    """Accept GroupSpec, compact strings ('alt5', 'sym(4)', 'z6', 'd8',
    'psl2(7)', 'generated[(1 2 3),(2 3 4)]'), or dicts ({'kind': 'alt', 'n': 5})."""
    if isinstance(spec, GroupSpec):
        return spec
    if isinstance(spec, Mapping):
        kind = spec.get("kind")
        if kind == "generated":
            gens = spec.get("generators") or spec.get("gens")
            if not gens:
                raise ValueError("generated spec needs a 'generators' list")
            return GroupSpec("generated", 0, tuple(str(g).strip() for g in gens))
        if kind not in ("sym", "alt", "cyclic", "dihedral", "psl2"):
            raise ValueError(f"unknown group kind {kind!r}")
        return GroupSpec(kind, int(spec["n"]))
    text = str(spec).strip()
    low = text.lower()
    if low.startswith("generated"):
        body = text[len("generated"):].strip()
        if not (body.startswith("[") and body.endswith("]")) and \
           not (body.startswith("{") and body.endswith("}")):
            raise ValueError(f"bad generated spec: {spec!r}")
        inner = body[1:-1].strip()
        if not inner:
            raise ValueError("generated spec needs at least one generator")
        gens = tuple(part.strip() for part in inner.split(",") if part.strip())
        return GroupSpec("generated", 0, gens)
    m = _SPEC_RE.match(low)
    if m:
        return GroupSpec(m.group(1), int(m.group(2)))
    m = _ALIAS_RE.match(low)
    if m:
        kind = "cyclic" if m.group(1) == "z" else "dihedral"
        return GroupSpec(kind, int(m.group(2)))
    raise ValueError(f"unrecognized group spec: {spec!r}")


def _closure(gen_rows: np.ndarray, cap: int | None = None) -> np.ndarray | None:
    """Rows of the group generated by the permutation rows `gen_rows` (k×d),
    breadth first from the identity; None once it would exceed `cap` rows.

    One level at a time: the next level holds the products g·x of each row x
    of the last level with each generator g, ordered by x first and then by
    g, first occurrence kept, rows already seen dropped.  That is the FIFO
    order in which `orbit` would discover them.
    """
    d = gen_rows.shape[1]
    width = 4 * d  # bytes per row
    level = np.arange(d, dtype=np.int32)[None]
    found = [level.tobytes()]
    seen = set(found)
    while len(level):
        products = gen_rows[:, level].swapaxes(0, 1).tobytes()
        new = [key for i in range(0, len(products), width)
               if (key := products[i:i + width]) not in seen and not seen.add(key)]
        if cap is not None and len(seen) > cap:
            return None
        found += new
        level = np.frombuffer(b"".join(new), dtype=np.int32).reshape(-1, d)
    return np.frombuffer(b"".join(found), dtype=np.int32).reshape(-1, d)


def _generated_group(gen_tuples: list[tuple], name: str,
                     cap: int | None = None) -> FiniteGroup:
    """The group generated by image tuples of one degree, its elements in
    `_closure` order from the identity; `cap` defaults to ELEMENT_CAP."""
    cap = ELEMENT_CAP if cap is None else cap
    gen_rows = np.array(gen_tuples, dtype=np.int32)
    rows = _closure(gen_rows, cap)
    if rows is None:
        raise CapExceededError(f"closure exceeded the element cap {cap}")
    G = FiniteGroup(rows, name)
    G._generators = tuple(G._rank(gen_rows).tolist())
    return G


def _build_sym_or_alt(kind: str, n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("degree must be at least 1")
    if factorial(n) > 2 * ELEMENT_CAP:
        raise CapExceededError(f"{kind}({n}) exceeds the element cap {ELEMENT_CAP}")
    # the permutations of 0..m-1 in lexicographic order, from those of
    # 0..m-2: each leading value f, then the rest renumbered around it; the
    # leading f adds f inversions to the parity of the rest
    mat, odd = np.zeros((1, 0), dtype=np.int32), np.zeros(1, dtype=bool)
    for m in range(1, n + 1):
        mat = np.concatenate([np.concatenate(
            [np.full((len(mat), 1), f, dtype=np.int32), mat + (mat >= f)], 1)
            for f in range(m)])
        odd = np.concatenate([odd ^ bool(f & 1) for f in range(m)])
    if kind == "sym":  # (1 2) and (1 2 ... n), as far as the degree allows
        gens = [[1, 0, *range(2, n)], [*range(1, n), 0]][:n - 1]
    else:  # the even rows, generated by the 3-cycles (1 2 k) for k = 3..n
        mat = mat[~odd]
        gens = [[1, k, *range(2, k), 0, *range(k + 1, n)] for k in range(2, n)]
    g = FiniteGroup(mat, f"{kind}({n})")
    g._generators = tuple(g._rank(np.array(gens, dtype=np.int32).reshape(-1, n)).tolist())
    return g


def _build_cyclic(k: int) -> FiniteGroup:
    if k < 1:
        raise ValueError("cyclic order must be at least 1")
    if k == 1:
        return FiniteGroup([(0,)], "cyclic(1)", [])
    return _generated_group([tuple(list(range(1, k)) + [0])], f"cyclic({k})")


def _build_dihedral(order: int) -> FiniteGroup:
    if order % 2 or order < 6:
        raise ValueError("dihedral order must be even and at least 6")
    k = order // 2
    rot = tuple(list(range(1, k)) + [0])
    refl = tuple((k - i) % k for i in range(k))
    G = _generated_group([rot, refl], f"dihedral({order})")
    if len(G) != order:
        raise RuntimeError("dihedral construction produced the wrong order")
    return G


_PSL2_PRIMES = (5, 7, 11, 13)


def _build_psl2(p: int) -> FiniteGroup:
    if p not in _PSL2_PRIMES:
        raise ValueError(f"psl2 supports p in {_PSL2_PRIMES}, got {p}")
    inf = p  # point p is the projective point at infinity
    shift = tuple([(x + 1) % p for x in range(p)] + [inf])
    neg_inv = [0] * (p + 1)
    neg_inv[0] = inf
    neg_inv[inf] = 0
    for x in range(1, p):
        neg_inv[x] = (-pow(x, p - 2, p)) % p
    G = _generated_group([shift, tuple(neg_inv)], f"psl2({p})")
    expected = p * (p * p - 1) // 2
    if len(G) != expected:
        raise RuntimeError(f"psl2({p}) closure has order {len(G)}, expected {expected}")
    return G


def _build_generated(gens: tuple[str, ...]) -> FiniteGroup:
    return _generated_group(padded_rows(gens), "generated[" + ",".join(gens) + "]")


_CONSTRUCT_CACHE: dict[GroupSpec, FiniteGroup] = {}


def construct_group(spec) -> FiniteGroup:
    """Build (and cache) the group described by a GroupSpec / string / dict."""
    gspec = parse_group_spec(spec)
    cached = _CONSTRUCT_CACHE.get(gspec)
    if cached is not None:
        return cached
    if gspec.kind == "sym" or gspec.kind == "alt":
        g = _build_sym_or_alt(gspec.kind, gspec.n)
    elif gspec.kind == "cyclic":
        g = _build_cyclic(gspec.n)
    elif gspec.kind == "dihedral":
        g = _build_dihedral(gspec.n)
    elif gspec.kind == "psl2":
        g = _build_psl2(gspec.n)
    else:
        g = _build_generated(gspec.gens)
    g.spec = gspec
    _CONSTRUCT_CACHE[gspec] = g
    return g


def sym_scan_rows(n: int) -> np.ndarray:
    """All of Sym(n) for a brute-force scan, refused above SYM_SCAN_CAP: the
    read-only int32 rows of `construct_group`'s Sym(n), in lexicographic order."""
    if n > SYM_SCAN_CAP:
        raise CapExceededError(f"scans of all of Sym({n}) are capped at degree {SYM_SCAN_CAP}")
    return construct_group(GroupSpec("sym", n)).matrix


def default_corpus() -> list[GroupSpec]:
    """The default verification corpus of constructor groups."""
    specs = [GroupSpec("alt", n) for n in (4, 5, 6)]
    specs += [GroupSpec("sym", n) for n in (3, 4, 5, 6)]
    specs += [GroupSpec("dihedral", n) for n in (8, 10, 12)]
    specs += [GroupSpec("cyclic", n) for n in range(2, 13)]
    specs += [GroupSpec("psl2", p) for p in (5, 7, 11)]
    return specs


# ---------------------------------------------------------------------------
# element-set algebra (ElementSet = frozenset of element indices)


def set_product(G: FiniteGroup, A: Iterable[int], B: Iterable[int]) -> frozenset:
    """{a·b : a ∈ A, b ∈ B} as an index set."""
    a = np.fromiter(A, dtype=np.intp)
    return frozenset(G.mul_many(a[:, None], np.fromiter(B, dtype=np.intp)).ravel().tolist())


def _generate(G: FiniteGroup, S: Iterable[int] | None,
              cap: int | None) -> tuple[list[int], np.ndarray] | None:
    """(greedy generating subset of ⟨S⟩, the member indices of ⟨S⟩), or
    None once ⟨S⟩ would exceed `cap` elements; see `generating_subset`.
    Each chosen generator closes its subgroup by `_closure`, or by Cayley
    table gathers and a membership mask once G holds its table (never
    built here: `G.generators` may be what a table is waiting for)."""
    members = np.array(sorted(S) if S is not None else range(len(G)), dtype=np.intp)
    inside = np.zeros(len(G), dtype=bool)
    inside[G.identity_index] = True
    gens: list[int] = []
    while (outside := members[~inside[members]]).size:
        gens.append(int(outside[0]))
        if G._table is None:
            rows = _closure(G.matrix[gens], cap)
            if rows is None:
                return None
            inside[G._rank(rows)] = True
            continue
        # H = inside is closed under the old generators: grow it from g·H
        T, at, hit = G._table[0], np.array(gens)[:, None], np.empty_like(inside)
        level = T[gens[-1], inside]
        while level.size:
            inside[level] = True
            if cap is not None and np.count_nonzero(inside) > cap:
                return None
            hit[:] = False
            hit[T[at, level]] = True
            level = np.flatnonzero(hit & ~inside)
    return gens, np.flatnonzero(inside)


def generating_subset(G: FiniteGroup, S: Iterable[int] | None = None,
                      cap: int | None = None) -> list[int] | None:
    """Greedy generating subset (least indices first) of the subgroup ⟨S⟩.

    With S omitted, a generating subset of the whole group (used when a
    group was built from a bare element list).  None once ⟨S⟩ would exceed
    `cap` elements.
    """
    found = _generate(G, S, cap)
    return None if found is None else found[0]


def generated_subgroup(G: FiniteGroup, S: Iterable[int]) -> frozenset:
    """Subgroup generated by S (the empty set generates the trivial subgroup)."""
    return frozenset(_generate(G, S, None)[1].tolist())


def is_subgroup(G: FiniteGroup, S: Iterable[int]) -> bool:
    """1 ∈ S and ⟨S⟩ has at most |S| elements.

    ⟨S⟩ contains S, so the bound makes it equal to S.  Closing a generating
    subset under the cap takes O(|S|·gens) products, not the |S|² of the
    pairwise closure test.
    """
    key = frozenset(S)
    return G.memoized("is_subgroup", key, lambda: G.identity_index in key and
                      generating_subset(G, key, cap=len(key)) is not None)


def subgroup_index(G: FiniteGroup, H: Iterable[int]) -> int:
    Hs = frozenset(H)
    if not is_subgroup(G, Hs):
        raise ValueError("index is only defined for subgroups")
    return len(G) // len(Hs)


def iterated_product_stabilization(G: FiniteGroup, A: Iterable[int],
                                   reading: str) -> frozenset:
    """Stabilized power chain of A under one of two readings.

    'literal':   the intersection of all powers A, A·A, A·A·A, …
    'generated': the subgroup generated by A (the limit of the ascending
                  chain whenever 1 ∈ A).
    """
    As = frozenset(A)
    if not As:
        raise ValueError("power chain of the empty set is undefined")
    if reading == "generated":
        return generated_subgroup(G, As)
    if reading != "literal":
        raise ValueError(f"unknown reading {reading!r}")
    current = As
    meet = set(As)
    seen = {current}
    while True:
        current = set_product(G, current, As)
        meet &= current
        if current in seen:
            return frozenset(meet)
        seen.add(current)


def internal_direct_factor_check(G: FiniteGroup, H: Iterable[int],
                                 A: Iterable[int], B: Iterable[int]) -> bool:
    """True iff A∩B = {1}, A and B commute elementwise, and A·B = H exactly."""
    Hs, As, Bs = frozenset(H), frozenset(A), frozenset(B)
    if not is_subgroup(G, Hs):
        raise ValueError("H must be a subgroup")
    if As & Bs != {G.identity_index}:
        return False
    for a in As:
        for b in Bs:
            if G.mul(a, b) != G.mul(b, a):
                return False
    prod = set_product(G, As, Bs)
    return len(prod) == len(As) * len(Bs) and prod == Hs


def subgroup_as_group(G: FiniteGroup, S: Iterable[int],
                      name: str | None = None) -> FiniteGroup:
    """Package a subgroup's index set as a standalone FiniteGroup."""
    idxs = sorted(frozenset(S))
    return FiniteGroup(G.matrix[idxs], name or f"sub({G.name},{len(idxs)})")


def element_order_spectrum(G: FiniteGroup,
                           S: Iterable[int] | None = None) -> Counter:
    members = range(len(G)) if S is None else S
    return Counter(G.order_of(x) for x in members)


def is_abelian(G: FiniteGroup) -> bool:
    return G.is_central(G.generators)


def is_simple_bruteforce(G: FiniteGroup) -> bool:
    """Abstract simplicity: the normal closure of every nontrivial class is G.

    The trivial group is not simple.  Abelianness is NOT consulted here;
    Z/p is simple, and the non-abelian-simple classifier layers the extra
    check on top.
    """
    if len(G) > SIMPLICITY_CAP:
        raise CapExceededError(f"simplicity check capped at {SIMPLICITY_CAP} elements")
    if len(G) == 1:
        return False
    return all(len(generated_subgroup(G, cls)) == len(G)
               for cls in G.conjugacy_classes() if G.identity_index not in cls)


# ---------------------------------------------------------------------------
# Alt(l) subgroup search


def _alt_spectrum(l: int) -> Counter:
    A = construct_group(GroupSpec("alt", l))
    return A.memoized("order_spectrum", None, lambda: element_order_spectrum(A))


def _subgroup_class_reps(G: FiniteGroup, W: frozenset) -> tuple[int, ...]:
    """Conjugacy-class representatives of the subgroup W, computed within G."""
    def compute():
        points = np.array(sorted(W))
        labels = G.conjugation_orbits(generating_subset(G, W), points)
        return tuple(points[labels == points].tolist())  # least members
    return G.memoized("subgroup_class_reps", W, compute)


def iter_alt_subgroups(G: FiniteGroup, l: int,
                       within: Iterable[int] | None = None) -> Iterator[frozenset]:
    """Subgroups recognized as Alt(l) inside `within`, distinct as sets.

    Search: generating pairs in index order, the first generator restricted
    to conjugacy-class representatives of the ambient subgroup.  That prunes
    soundly for any conjugation-covariant use: the stream covers every
    conjugacy orbit of Alt(l)-subgroups of `within`, though not necessarily
    every individual copy.  Recognition: order l!/2, element-order spectrum
    match, brute-force simplicity for l >= 5.  Alt(4) is not simple, but
    {1: 1, 2: 3, 3: 8} is the spectrum of no other order-12 group, so order
    plus spectrum already decides l = 4.
    """
    if l < 4:
        raise ValueError("alt-subgroup search needs l >= 4")
    W = frozenset(within) if within is not None else frozenset(range(len(G)))
    target = factorial(l) // 2
    if target > len(W) or len(W) % target != 0:
        return
    if not is_subgroup(G, W):
        raise ValueError("the search region must be a subgroup")
    ref = _alt_spectrum(l)
    allowed = set(ref)
    reps = [r for r in _subgroup_class_reps(G, W)
            if r != G.identity_index and G.order_of(r) in allowed]
    members = [b for b in sorted(W)
               if b != G.identity_index and G.order_of(b) in allowed]
    seen: set[frozenset] = set()
    for a in reps:
        for b in members:
            rows = _closure(G.matrix[[a, b]], target)
            if rows is None or len(rows) != target:
                continue
            fs = frozenset(G._rank(rows).tolist())
            if fs in seen:
                continue
            seen.add(fs)
            if Counter(G.order_of(x) for x in fs) != ref:
                continue
            if l >= 5 and not is_simple_bruteforce(subgroup_as_group(G, fs)):
                continue
            yield fs


def subgroup_search_iso_alt(G: FiniteGroup, l: int,
                            within: Iterable[int] | None = None) -> frozenset | None:
    """First subgroup isomorphic to Alt(l), or None."""
    return next(iter_alt_subgroups(G, l, within), None)


# ---------------------------------------------------------------------------
# isomorphism oracle (slow path, small groups only)


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    """Generator-image backtracking; intended as a test oracle for |G| ≤ ~10³."""
    if len(G) != len(H):
        return False
    if element_order_spectrum(G) != element_order_spectrum(H):
        return False
    gens = list(G.generators) or [G.identity_index]
    by_order: dict[int, list[int]] = {}
    for x in range(len(H)):
        by_order.setdefault(H.order_of(x), []).append(x)
    candidate_lists = [by_order.get(G.order_of(g), []) for g in gens]
    total = 1
    for lst in candidate_lists:
        total *= len(lst)
        if total > ISOMORPHISM_CAP:
            raise CapExceededError("isomorphism search budget exceeded")
    src = [partial(G.mul, g) for g in gens]
    for images in itertools.product(*candidate_lists):
        mapped = extend([None] * len(G), G.identity_index, H.identity_index,
                        src, [partial(H.mul, h) for h in images])
        if mapped is not None and len(set(mapped)) == len(G):
            return True
    return False


# ---------------------------------------------------------------------------
# regular representations


def left_regular_permutation(G: FiniteGroup, i: int) -> Permutation:
    """x ↦ i·x on element indices (degree |G|)."""
    return Permutation(tuple(G.mul_many(i, np.arange(len(G))).tolist()))


def right_regular_permutation(G: FiniteGroup, i: int) -> Permutation:
    """x ↦ x·i on element indices (degree |G|)."""
    return Permutation(tuple(G.mul_many(np.arange(len(G)), i).tolist()))
