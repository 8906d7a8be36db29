"""Typed registries for set functions and formula-level macro atoms.

A set function turns resolved arguments into a frozenset of element
indices; a macro turns them into a truth value.  Argument kinds:

    ELEM         a group element (index), written as a term
    SET          a set expression (call to a registered set function)
    INT          an integer literal
    READING      one of the identifiers 'literal' / 'generated'
    ELEM_OR_SET  either of the first two; elements are upgraded to singletons

Arity specs are either a tuple of kinds or ("*", kind) for one-or-more
variadic arguments.  Implementations receive the ambient FiniteGroup and
the resolved argument list; results are memoized on the group keyed by
(name, resolved arguments), under their own query tag of
`FiniteGroup.memoized`, so repeated sentence evaluations over one group
reuse all subgroup searches.
"""

from __future__ import annotations

from enum import Enum

from ..groups import (FiniteGroup, generated_subgroup,
                      internal_direct_factor_check, is_subgroup,
                      iter_alt_subgroups, iterated_product_stabilization,
                      set_product, subgroup_search_iso_alt)

__all__ = ["ArgKind", "SET_FUNCTIONS", "MACROS", "call_set_function",
           "call_macro", "signature_of"]


class ArgKind(Enum):
    ELEM = "elem"
    SET = "set"
    INT = "int"
    READING = "reading"
    ELEM_OR_SET = "elem_or_set"


def _as_index_set(G: FiniteGroup, arg) -> frozenset:
    if isinstance(arg, frozenset):
        return arg
    return frozenset((arg,))


# -- set functions ------------------------------------------------------------

def _sf_centralizer(G: FiniteGroup, args) -> frozenset:
    union: set[int] = set()
    for a in args:
        union |= _as_index_set(G, a)
    return G.centralizer_of(union)


def _sf_prod(G: FiniteGroup, args) -> frozenset:
    return set_product(G, args[0], args[1])


def _sf_gen(G: FiniteGroup, args) -> frozenset:
    union: set[int] = set()
    for a in args:
        union |= _as_index_set(G, a)
    return generated_subgroup(G, union)


def _sf_pow_stab(G: FiniteGroup, args) -> frozenset:
    return iterated_product_stabilization(G, args[0], args[1])


SET_FUNCTIONS = {
    "C": (("*", ArgKind.ELEM_OR_SET), _sf_centralizer),
    "prod": ((ArgKind.SET, ArgKind.SET), _sf_prod),
    "gen": (("*", ArgKind.ELEM_OR_SET), _sf_gen),
    "pow_stab": ((ArgKind.SET, ArgKind.READING), _sf_pow_stab),
}


# -- macros ---------------------------------------------------------------------

def _m_trivial(G: FiniteGroup, args) -> bool:
    return args[0] == frozenset((G.identity_index,))


def _m_subgroup_iso_alt(G: FiniteGroup, args) -> bool:
    S, l = args
    if not is_subgroup(G, S):
        return False
    return subgroup_search_iso_alt(G, l, within=S) is not None


def _m_alt_factor_index_le(G: FiniteGroup, args) -> bool:
    """Some A ≅ Alt(l) inside H with [H : A·C_H(A)] <= k.

    B = C_H(A) intersects A trivially and centralizes it, so A·B is a
    subgroup of order |A|·|B| and the index is |H|/(|A|·|B|).  The
    condition is conjugation-covariant, so scanning the pruned subgroup
    stream is sound.
    """
    H, l, k = args
    if not is_subgroup(G, H):
        return False
    for A in iter_alt_subgroups(G, l, within=H):
        B = G.centralizer_of(A) & H
        if A & B != frozenset((G.identity_index,)):
            continue
        if len(H) % (len(A) * len(B)):
            continue
        if len(H) // (len(A) * len(B)) <= k:
            return True
    return False


def _m_index_le(G: FiniteGroup, args) -> bool:
    H, S, k = args
    if not (is_subgroup(G, H) and is_subgroup(G, S)):
        return False
    if not H <= S:
        return False
    return len(S) // len(H) <= k


def _m_direct_factor(G: FiniteGroup, args) -> bool:
    H, A, B = args
    if not is_subgroup(G, H):
        return False
    return internal_direct_factor_check(G, H, A, B)


MACROS = {
    "trivial": ((ArgKind.SET,), _m_trivial),
    "subgroup_iso_alt": ((ArgKind.SET, ArgKind.INT), _m_subgroup_iso_alt),
    "alt_factor_index_le": ((ArgKind.SET, ArgKind.INT, ArgKind.INT),
                            _m_alt_factor_index_le),
    "index_le": ((ArgKind.SET, ArgKind.SET, ArgKind.INT), _m_index_le),
    "direct_factor": ((ArgKind.SET, ArgKind.SET, ArgKind.SET), _m_direct_factor),
}


def signature_of(name: str):
    """(argspec, impl, is_macro) for a registered name, else None."""
    if name in MACROS:
        spec, impl = MACROS[name]
        return spec, impl, True
    if name in SET_FUNCTIONS:
        spec, impl = SET_FUNCTIONS[name]
        return spec, impl, False
    return None


def call_set_function(G: FiniteGroup, name: str, resolved: tuple) -> frozenset:
    impl = SET_FUNCTIONS[name][1]
    return G.memoized("fo.call", (name, resolved), lambda: impl(G, resolved))


def call_macro(G: FiniteGroup, name: str, resolved: tuple) -> bool:
    impl = MACROS[name][1]
    return G.memoized("fo.call", (name, resolved), lambda: impl(G, resolved))
