"""Nonface ideals, combinatorial Alexander duality, and linear quotients.

Everything here lives in the squarefree world: a monomial is identified with
its support face, so colon ideals reduce to support differences.
"""

from __future__ import annotations

from itertools import islice

from .complexes import Face, SimplicialComplex, VertexSet, _Value
from .errors import VoidDual
from .shelling import _walk, is_shelling_order


class MonomialSet(_Value):
    """Ordered squarefree monomials over a ground set.  The order matters:
    linear-quotient checks are order-sensitive."""

    __match_args__ = ("ground", "gens")

    def __init__(self, ground: VertexSet, gens: tuple[Face, ...]) -> None:
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "gens", gens)


def minimal_nonfaces(cplx: SimplicialComplex) -> MonomialSet:
    """Inclusion-minimal vertex subsets that are not faces, in canonical face
    order.  A set is a nonface exactly when it meets the complement of every
    facet, so these are the minimal transversals of the facet complements
    (:func:`~shellability.complexes.minimal_hitting_sets`)."""
    return MonomialSet(cplx.vertices, cplx._minimal_nonfaces)


def alexander_dual(cplx: SimplicialComplex) -> SimplicialComplex:
    """Complex whose facets are the complements of the minimal nonfaces
    (:func:`minimal_nonfaces`).  Its minimal nonfaces are the complements of
    the facets.  The full simplex has no nonface, so its dual would be void
    and raises :class:`VoidDual`."""
    full = cplx.vertices.full_face
    if cplx.facets == (full,):
        raise VoidDual("the full simplex has a void dual")
    return SimplicialComplex(cplx.vertices, [full ^ g for g in cplx._minimal_nonfaces])


def dual_ideal_generators(cplx: SimplicialComplex) -> MonomialSet:
    """Complements of the facets, in facet order, for every complex.  As a
    set this equals the minimal nonfaces of the Alexander dual; the
    irrelevant complex gives the full face alone."""
    full = cplx.vertices.full_face
    return MonomialSet(cplx.vertices, tuple(full ^ f for f in cplx.facets))


def has_linear_quotients(mset: MonomialSet) -> bool:
    """True when every successive colon ideal is generated by single vertices:
    for each generator, the minimal support differences against all earlier
    generators must all be singletons.

    With C the complement of each generator in the ground set, g_j minus g_i
    equals C(g_i) minus C(g_j), so this is :func:`is_shelling_order` on the
    complements, in the generators' order, as facets of a complex over the
    ground set.  Complementing reverses inclusion, so the generators are
    pairwise incomparable exactly when the complex keeps every complement as
    a facet.  An empty set is the zero ideal, which has linear quotients
    (there is no colon ideal to test)."""
    full = mset.ground.full_face
    if any(g & ~full for g in mset.gens):
        raise ValueError("generators must lie in the ground set")
    if not mset.gens:
        return True
    complements = [full ^ g for g in mset.gens]
    cplx = SimplicialComplex(mset.ground, complements)
    # the constructor keeps a repeated complement once and drops one inside another
    if len(cplx.facets) != len(complements):
        raise ValueError("generators must be pairwise incomparable")
    return is_shelling_order(cplx, complements)


def linear_quotients_from_shelling(
    cplx: SimplicialComplex, order: list[Face]
) -> list[tuple[str, ...]]:
    """Per-step quotient vertex sets induced by a facet order.

    Step i lists the vertices x for which order[i] minus some earlier facet
    is exactly {x}: the restriction face of order[i] against the facets
    before it, which the walk's sieve finds for the shelling step
    (:func:`~shellability.shelling._walk`).  They come ordered by the first
    earlier facet order[j] with x in order[i] minus order[j], then by the
    first earlier facet order[k] with order[i] minus order[k] equal to {x};
    each key is the lowest bit of a bitmask of earlier facets.  A step costs
    O(|F|) bitmask operations, whatever the number of earlier facets.
    """
    labels = cplx.vertices.labels
    steps: list[tuple[str, ...]] = []
    for holders, placed, verts, once in islice(_walk(cplx, order), 1, None):
        keyed = []
        for v in verts:
            missed = placed ^ holders[v]  # the earlier facets missing v
            alone = once & missed  # those missing v alone
            if alone:
                keyed.append((missed & -missed, alone & -alone, labels[v]))
        steps.append(tuple(label for _, _, label in sorted(keyed)))
    return steps
