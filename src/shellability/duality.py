"""Nonface ideals, combinatorial Alexander duality, and linear quotients.

Everything here lives in the squarefree world: a monomial is identified with
its support face, so colon ideals reduce to support differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .complexes import (
    Face,
    SimplicialComplex,
    VertexSet,
    _maximal,
    facet_permutation,
    minimal_hitting_sets,
)
from .errors import VoidDual
from .shelling import _sieve, _step, _walk


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
    """Complex whose facets are the complements of the minimal nonfaces
    (:func:`minimal_nonfaces`).  Its minimal nonfaces are the complements of
    the facets.  The full simplex has no nonface, so its dual would be void
    and raises :class:`VoidDual`."""
    full = cplx.vertices.full_face
    if cplx.facets == (full,):
        raise VoidDual("the full simplex has a void dual")
    return SimplicialComplex(cplx.vertices, [full ^ g for g in minimal_nonfaces(cplx).gens])


def dual_ideal_generators(cplx: SimplicialComplex) -> MonomialSet:
    """Complements of the facets, in facet order, for every complex.  As a
    set this equals the minimal nonfaces of the Alexander dual; the
    irrelevant complex gives the full face alone."""
    full = cplx.vertices.full_face
    return MonomialSet(cplx.vertices, tuple(full ^ f for f in cplx.facets))


def _check_generators(gens: tuple[Face, ...], ground: VertexSet) -> None:
    if any(g & ~ground.full_face for g in gens):
        raise ValueError("generators must lie in the ground set")
    # a repeated generator, or one under another, is not maximal among them
    if len(_maximal(gens, ground.n)) != len(gens):
        raise ValueError("generators must be pairwise incomparable")


def has_linear_quotients(mset: MonomialSet) -> bool:
    """True when every successive colon ideal is generated by single vertices:
    for each generator, the minimal support differences against all earlier
    generators must all be singletons.

    With C the complement of each generator in the ground set, g_j minus g_i
    equals C(g_i) minus C(g_j), so this is the shelling step test on the
    complements.  An empty set is the zero ideal, which has linear quotients
    (there is no colon ideal to test)."""
    gens = mset.gens
    full = mset.ground.full_face
    _check_generators(gens, mset.ground)
    complements = [full ^ g for g in gens]
    return all(_step(*step) is not None for step in _walk(complements, mset.ground.n))


def linear_quotients_from_shelling(
    cplx: SimplicialComplex, order: list[Face]
) -> list[tuple[str, ...]]:
    """Per-step quotient vertex sets induced by a facet order.

    Step i lists the vertices x for which order[i] minus some earlier facet
    is exactly {x}: the restriction face of order[i] against the facets
    before it, which the shelling step's sieve finds on the same walk
    (:func:`~shellability.shelling._sieve`).  They come ordered by the first
    earlier facet order[j] with x in order[i] minus order[j], then by the
    first earlier facet order[k] with order[i] minus order[k] equal to {x};
    each key is the lowest bit of a bitmask of earlier facets.  A step costs
    O(|F|) bitmask operations, whatever the number of earlier facets.
    """
    seq = facet_permutation(cplx, order)
    labels = cplx.vertices.labels
    steps: list[tuple[str, ...]] = []
    for holders, placed, verts in islice(_walk(seq, cplx.vertices.n), 1, None):
        once = _sieve(holders, placed, verts)
        keyed = []
        for v in verts:
            missed = placed & ~holders[v]  # the earlier facets missing v
            alone = once & missed  # those missing v alone
            if alone:
                keyed.append((missed & -missed, alone & -alone, labels[v]))
        steps.append(tuple(label for _, _, label in sorted(keyed)))
    return steps
