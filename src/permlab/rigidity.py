"""Rigidity probes: two-sided actions with inversion and double centralizers.

For a finite group G, the extended two-sided action on the elements of G is
generated by left translations x -> g*x, right translations x -> x*g^-1, and
the inversion flip x -> x^-1.  The flip conjugates each left translation to
the matching right translation, and the centralizer of the left-regular copy
inside the full symmetric group on G is exactly the right-regular copy, so
double centralizing recovers the left copy (Dixon and Mortimer,
*Permutation Groups*, ch. 4).  The centralizer of any action, transitive
or not, is the label-respecting automorphism group of its Schreier graph
(`schreier.automorphism_rows`): on each orbit a commuting permutation is
determined by the image of one point, pushed along generator edges for
every candidate image at once, and the int32 rows go straight into a
FiniteGroup.  Both stages of a double centralizer take this one path; the
brute-force scan of `groups.sym_scan_rows` is its oracle at small degrees.
The biregular check compares row sets: the left copy is the Cayley table,
the right copy its transpose, the flip the inverse array.  Actions and both
stages of a double centralizer take generator rows, such as
``G.matrix[list(G.generators)]``; Permutations are built only by the
public functions that return them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError
from .groups import FiniteGroup, set_product, sym_scan_rows
from .perms import CycleType, Permutation
from .record import Record
from .schreier import (LabeledSchreierGraph, _check_cells, automorphism_rows,
                       components, pairwise_distances)

__all__ = [
    "GroupAction", "action_from_group",
    "left_copy_permutations", "right_copy_permutations", "flip_permutation",
    "biregular_action",
    "centralizer_transitive_action", "centralizer_in_sym_bruteforce",
    "action_centralizer",
    "DoubleCentralizerReport", "double_centralizer_check",
    "BiregularReport", "biregular_double_centralizer",
    "is_regular_via_centralizer", "one_discrete_check", "class_power_types",
    "CLASS_POWER_GROUP_CAP", "CLASS_POWER_EXPONENT_CAP",
]

CLASS_POWER_GROUP_CAP = 10 ** 4
CLASS_POWER_EXPONENT_CAP = 6


GroupAction = LabeledSchreierGraph


def action_from_group(G: FiniteGroup) -> GroupAction:
    """G acting on its own points through its stored permutations: the
    rows of its generators, or the identity row of the trivial group."""
    rows = G.matrix[list(G.generators) or [G.identity_index]]
    return GroupAction(tuple(f"g{k + 1}" for k in range(len(rows))), rows, name=G.name)


# -- the two-sided action -----------------------------------------------------------

def left_copy_permutations(G: FiniteGroup) -> list[Permutation]:
    """x ↦ i·x for every i: the rows of the Cayley table."""
    return [Permutation(tuple(row)) for row in G.left_table().tolist()]


def right_copy_permutations(G: FiniteGroup) -> list[Permutation]:
    """x ↦ x·i for every i: the columns of the Cayley table."""
    return [Permutation(tuple(row)) for row in G.left_table().T.tolist()]


def flip_permutation(G: FiniteGroup) -> Permutation:
    """x ↦ x^-1: the inverse array."""
    return Permutation(tuple(G.inverse_array().tolist()))


def biregular_action(G: FiniteGroup) -> GroupAction:
    """The action generated by left translations, inverse right translations,
    and the flip, on the |G| elements of G.

    Labels: L<k> for x -> g_k*x, R<k> for x -> x*g_k^-1, t for x -> x^-1;
    the construction checks t*L<k>*t = R<k> pointwise.
    """
    if len(G) > CLASS_POWER_GROUP_CAP:
        raise CapExceededError("two-sided action capped at groups of size"
                               f" {CLASS_POWER_GROUP_CAP}")
    t, gens, mat = G.inverse_array(), list(G.generators), G.matrix
    # (g·x)(i) = g(x(i)) and (x·g^-1)(i) = x(g^-1(i)), ranked: no Cayley table
    left = G._rank(mat[gens][:, mat]).reshape(-1, len(G))
    right = G._rank(mat[:, mat[t[gens]]].swapaxes(0, 1)).reshape(-1, len(G))
    if not np.array_equal(t[left[:, t]], right):  # (t·L·t)(x) = t(L(t(x)))
        raise AssertionError("flip conjugation identity failed")
    labels = [f"{side}{k + 1}" for k in range(len(gens)) for side in "LR"]
    rows = np.stack([left, right], 1).reshape(-1, len(G))
    return GroupAction((*labels, "t"), [*rows, t], name=f"twosided({G.name})")


# -- centralizers of actions ---------------------------------------------------------

def action_centralizer(action: GroupAction) -> FiniteGroup:
    """Centralizer in Sym(n) of an action, transitive or not: the permutations
    commuting with every generator are exactly the label-respecting
    automorphisms of the action's Schreier graph, maps between isomorphic
    orbits included.  Elements come in lexicographic image order."""
    return FiniteGroup(automorphism_rows(action), name=f"C({action.name or 'action'})")


def centralizer_transitive_action(action: GroupAction) -> FiniteGroup:
    """:func:`action_centralizer` of a transitive action; ValueError on an
    intransitive one."""
    if len(components(action)) != 1:
        raise ValueError("the action is intransitive; use action_centralizer")
    return action_centralizer(action)


def centralizer_in_sym_bruteforce(perms: Sequence[Permutation]) -> list[Permutation]:
    """Scan all of Sym(n) (`groups.sym_scan_rows`, refused above degree
    `groups.SYM_SCAN_CAP`) for permutations commuting with every given one,
    in lexicographic order."""
    perms = list(perms)
    if not perms:
        raise ValueError("at least one permutation is required")
    S = _perm_action(perms).image_array
    rows = sym_scan_rows(S.shape[1])
    for a in S:
        rows = rows[(a[rows] == rows[:, a]).all(1)]
    return [Permutation(tuple(row)) for row in rows.tolist()]


# -- double centralizers ---------------------------------------------------------------

def _perm_action(perms) -> GroupAction:
    """The action of Permutations or image rows, labelled p1, p2, ..."""
    return GroupAction(tuple(f"p{k + 1}" for k in range(len(perms))), perms)


def _double_centralizer(gens) -> tuple[FiniteGroup, FiniteGroup]:
    """C = C(gens) and C(C) in Sym(n), for generator Permutations or rows.
    The second stage centralizes the rows of a generating subset of C,
    which has the same centralizer as all of C."""
    C = action_centralizer(_perm_action(gens))
    return C, action_centralizer(_perm_action(
        C.matrix[list(C.generators) or [C.identity_index]]))


class DoubleCentralizerReport(Record):
    subgroup: tuple[Permutation, ...]
    centralizer: tuple[Permutation, ...]
    double: tuple[Permutation, ...]
    closes: bool


def double_centralizer_check(perms: Iterable[Permutation]) -> DoubleCentralizerReport:
    """Close the input under composition, centralize twice in Sym(n), and
    report whether the double centralizer equals the generated subgroup."""
    gens = list(perms)
    if not gens:
        raise ValueError("at least one permutation is required")
    action = _perm_action(gens)
    subgroup, (C, CC) = action.image_group(), _double_centralizer(action.image_array)
    return DoubleCentralizerReport(  # CC's rows are in lexicographic order
        subgroup=tuple(sorted(subgroup.elements(), key=lambda p: p.images)),
        centralizer=tuple(C.elements()), double=tuple(CC.elements()),
        closes=sorted(subgroup.matrix.tolist()) == CC.matrix.tolist())


class BiregularReport(Record):
    group: str
    centralizer_is_right_copy: bool
    double_is_left_copy: bool
    flip_conjugates_centralizer_to_left: bool
    generator_identities: bool
    centralizer_order: int


def _is_copy(rows: np.ndarray, copy: np.ndarray, e: int) -> bool:
    """Whether distinct permutation rows are those of `copy`, a regular copy
    whose row i sends e to i: each must be the copy's row with its image of e."""
    return rows.shape == copy.shape and np.array_equal(rows, copy[rows[:, e]])


def biregular_double_centralizer(G: FiniteGroup) -> BiregularReport:
    """Verify, on the left-regular copy of G, that the centralizer is the
    right-regular copy, that double centralizing returns the left copy, and
    that the flip conjugates the centralizer onto the left copy.

    Groups with more than CELL_CAP cells in a |G|×|G| table are refused
    before any such copy exists."""
    _check_cells(len(G) ** 2, "the biregular check's |G|×|G| table")
    left = G.left_table()  # row i: x -> i*x
    right = left.T  # row i: x -> x*i
    t, e = G.inverse_array(), G.identity_index  # the flip x -> x^-1
    C, CC = _double_centralizer(left[list(G.generators) or [e]])
    return BiregularReport(
        group=G.name,
        centralizer_is_right_copy=_is_copy(C.matrix, right, e),
        double_is_left_copy=_is_copy(CC.matrix, left, e),
        # (t*c*t)(x) = t(c(t(x))), row by row
        flip_conjugates_centralizer_to_left=_is_copy(t[C.matrix[:, t]], left, e),
        generator_identities=all(np.array_equal(t[left[g][t]], right[t[g]])
                                 for g in G.generators),
        centralizer_order=len(C))


def is_regular_via_centralizer(action: GroupAction) -> bool:
    """A transitive action is regular exactly when its centralizer in the
    full symmetric group has order equal to the degree."""
    return len(centralizer_transitive_action(action)) == action.degree


def one_discrete_check(perms: Sequence[Permutation]) -> bool:
    """Whether all pairwise normalized Hamming distances equal one, i.e. the
    set is as spread out as permutations can be.  Vacuous below two entries."""
    rows = np.array([p.images for p in perms], dtype=np.intp)
    return len(rows) < 2 or all(d == 1 for d, _ in pairwise_distances(rows)[0])


def class_power_types(G: FiniteGroup, g, k: int) -> set[CycleType]:
    """Cycle types of all products of k conjugates of g.

    The k-fold product set of the conjugacy class is grown one factor at a
    time; |G| and k are capped because the intermediate sets can reach |G|.
    """
    if not 1 <= k <= CLASS_POWER_EXPONENT_CAP:
        raise ValueError(f"k must lie in 1..{CLASS_POWER_EXPONENT_CAP}")
    if len(G) > CLASS_POWER_GROUP_CAP:
        raise CapExceededError("class power types capped at groups of size"
                               f" {CLASS_POWER_GROUP_CAP}")
    cl = G.class_of(g if isinstance(g, int) else G.index_of(g))
    current = frozenset(cl)
    for _ in range(k - 1):
        current = set_product(G, current, cl)
    return {CycleType.of(row) for row in G.matrix[sorted(current)].tolist()}
