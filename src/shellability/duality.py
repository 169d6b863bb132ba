"""Nonface ideals, combinatorial Alexander duality, and linear quotients.

Everything here lives in the squarefree world: a monomial is identified with
its support face, so colon ideals reduce to support differences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    Face,
    Kind,
    SimplicialComplex,
    VertexSet,
    facet_permutation,
    from_nonfaces,
    minimal_hitting_sets,
)
from .errors import InvalidComplex, VoidDual
from .shelling import _walk


@dataclass(frozen=True)
class MonomialSet:
    """Ordered squarefree monomials over a ground set.  The order matters:
    linear-quotient checks are order-sensitive."""

    ground: VertexSet
    gens: tuple[Face, ...]


def minimal_nonfaces(cplx: SimplicialComplex) -> MonomialSet:
    """Inclusion-minimal vertex subsets that are not faces, in canonical face
    order.  A set is a nonface exactly when it meets the complement of every
    facet, so these are the minimal transversals of the facet complements
    (:func:`~shellability.complexes.minimal_hitting_sets`)."""
    full = cplx.vertices.full_face
    gens = minimal_hitting_sets(full ^ f for f in cplx.facets)
    return MonomialSet(cplx.vertices, tuple(gens))


def alexander_dual(cplx: SimplicialComplex) -> SimplicialComplex:
    """Complex whose facets are the complements of the minimal nonfaces.  Its
    minimal nonfaces are the complements of the facets, so it is built from
    those by :func:`~shellability.complexes.from_nonfaces`."""
    full = cplx.vertices.full_face
    if cplx.facets == (full,):
        raise VoidDual("the full simplex has a void dual")
    return from_nonfaces(cplx.vertices, [full ^ f for f in cplx.facets])


def dual_ideal_generators(cplx: SimplicialComplex) -> MonomialSet:
    """Complements of the facets, in facet order.  As a set this equals the
    minimal nonfaces of the Alexander dual."""
    if cplx.kind is not Kind.PROPER:
        raise InvalidComplex("dual ideal generators require a proper complex")
    full = cplx.vertices.full_face
    return MonomialSet(cplx.vertices, tuple(full ^ f for f in cplx.facets))


def _check_generators(gens: tuple[Face, ...], full: Face) -> None:
    if not gens:
        raise ValueError("generator list must be nonempty")
    for i, g in enumerate(gens):
        if g & ~full:
            raise ValueError("generators must lie in the ground set")
        for h in gens[i + 1 :]:
            if g & ~h == 0 or h & ~g == 0:
                raise ValueError("generators must be pairwise incomparable")


def has_linear_quotients(mset: MonomialSet) -> bool:
    """True when every successive colon ideal is generated by single vertices:
    for each generator, the minimal support differences against all earlier
    generators must all be singletons.

    With C the complement of each generator in the ground set, g_j minus g_i
    equals C(g_i) minus C(g_j), so this is the shelling step test on the
    complements."""
    gens = mset.gens
    full = mset.ground.full_face
    _check_generators(gens, full)
    return None not in _walk([full ^ g for g in gens], mset.ground.n)


def linear_quotients_from_shelling(
    cplx: SimplicialComplex, order: list[Face]
) -> list[tuple[str, ...]]:
    """Per-step quotient vertex sets induced by a facet order.

    Step i lists the vertices x for which order[i] minus some earlier facet
    is exactly {x}.  They come ordered by the first earlier facet order[j]
    with x in order[i] minus order[j], then by the first earlier facet
    order[k] with order[i] minus order[k] equal to {x}.  Each step costs
    O(i): one pass records the one-vertex differences, a second walks j
    upward until every one is placed.
    """
    seq = facet_permutation(cplx, order)
    labels = cplx.vertices.labels
    steps: list[tuple[str, ...]] = []
    for i in range(1, len(seq)):
        facet = seq[i]
        diffs = (facet & ~prev for prev in seq[:i])
        # one-vertex differences, deduplicated, in the order of their first k
        singles = list(dict.fromkeys(d for d in diffs if d.bit_count() == 1))
        rest = sum(singles)  # distinct single bits, so the sum is their union
        hits: list[Face] = []
        for prev in seq[:i]:
            if not rest:
                break
            new = rest & ~prev
            if new:
                hits.extend(d for d in singles if d & new)
                rest &= prev
        steps.append(tuple(labels[d.bit_length() - 1] for d in hits))
    return steps
