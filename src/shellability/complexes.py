"""Simplicial complexes over a fixed labelled vertex set.

Faces are plain ``int`` bitmasks whose set bits are vertex positions, so the
whole library runs on machine-word operations.  A complex stores only its
inclusion-maximal faces (facets), kept in a canonical order that makes
equality, hashing, and search results reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from .errors import InvalidNonface, InvalidOrder, InvalidVertex, VoidComplex

Face = int
FVector = tuple[int, ...]
HVector = tuple[int, ...]

MAX_VERTICES = 64  # one machine word per face

_RESERVED_TOKENS = {"()"}  # "()" prints the empty face in the file format


def face_dim(face: Face) -> int:
    """Dimension of a face: cardinality minus one (the empty face has -1)."""
    return face.bit_count() - 1


def face_bits(face: Face) -> Iterator[int]:
    """Yield the set bit positions of ``face`` in ascending order."""
    while face:
        low = face & -face
        yield low.bit_length() - 1
        face ^= low


def submasks(face: Face) -> Iterator[Face]:
    """Yield every subset of ``face``, including ``face`` itself and 0."""
    sub = face
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & face


def facet_sort_key(face: Face) -> tuple[int, int]:
    """Canonical facet order: cardinality descending, then bit pattern."""
    return (-face.bit_count(), face)


def face_sort_key(face: Face) -> tuple[int, int]:
    """Canonical face order: cardinality ascending, then bit pattern."""
    return (face.bit_count(), face)


@dataclass(frozen=True)
class VertexSet:
    """Ordered ground set of named vertices; positions index bitmask bits."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) > MAX_VERTICES:
            raise ValueError(
                f"at most {MAX_VERTICES} vertices are supported, got {len(self.labels)}"
            )
        seen: set[str] = set()
        for label in self.labels:
            if (
                not label
                or label in _RESERVED_TOKENS
                or "/" in label
                or "#" in label
                or any(ch.isspace() for ch in label)
            ):
                raise ValueError(f"invalid vertex label {label!r}")
            if label in seen:
                raise ValueError(f"duplicate vertex label {label!r}")
            seen.add(label)

    @cached_property
    def index(self) -> dict[str, int]:
        return {label: pos for pos, label in enumerate(self.labels)}

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_face(self) -> Face:
        return (1 << self.n) - 1

    def face(self, labels: Iterable[str]) -> Face:
        """Bitmask of the face spanned by ``labels``."""
        mask = 0
        for label in labels:
            pos = self.index.get(label)
            if pos is None:
                raise InvalidVertex(f"unknown vertex {label!r}")
            mask |= 1 << pos
        return mask

    def face_labels(self, face: Face) -> tuple[str, ...]:
        """Labels of a face, in position order."""
        if face < 0 or face & ~self.full_face:
            raise InvalidVertex("face uses positions outside the vertex set")
        return tuple(self.labels[b] for b in face_bits(face))


class Kind(Enum):
    VOID = "void"  # no faces at all
    IRRELEVANT = "irrelevant"  # only the empty face
    PROPER = "proper"


@dataclass(frozen=True)
class SimplicialComplex:
    """Canonical facet list; build via :func:`from_facets` or :func:`from_nonfaces`."""

    vertices: VertexSet
    facets: tuple[Face, ...]
    kind: Kind

    def dimension(self) -> int:
        if self.kind is Kind.VOID:
            raise VoidComplex("the void complex has no dimension")
        return max(face_dim(f) for f in self.facets)

    def is_face(self, face: Face) -> bool:
        return any(face & ~facet == 0 for facet in self.facets)

    def facet_labels(self) -> list[tuple[str, ...]]:
        return [self.vertices.face_labels(f) for f in self.facets]


def _maximal(faces: Iterable[Face]) -> list[Face]:
    pool = set(faces)
    return [f for f in pool if not any(g != f and f & ~g == 0 for g in pool)]


def from_facets(vertices: VertexSet, raw: Iterable[Face]) -> SimplicialComplex:
    """Canonical complex generated by ``raw``: inclusion-maximal faces only,
    deduplicated and canonically sorted.  No faces at all gives the void
    complex; the empty face alone gives the irrelevant complex ``{()}``."""
    full = vertices.full_face
    cleaned = []
    for face in raw:
        if face < 0 or face & ~full:
            raise InvalidVertex(
                f"face uses vertex positions outside 0..{vertices.n - 1}"
            )
        cleaned.append(face)
    facets = sorted(_maximal(cleaned), key=facet_sort_key)
    if not facets:
        kind = Kind.VOID
    elif facets == [0]:
        kind = Kind.IRRELEVANT
    else:
        kind = Kind.PROPER
    return SimplicialComplex(vertices, tuple(facets), kind)


def from_nonfaces(vertices: VertexSet, nonfaces: Iterable[Face]) -> SimplicialComplex:
    """Complex whose faces are exactly the subsets containing no listed nonface.

    Starts from the full simplex; each nonface N replaces every facet F that
    contains it with the faces F minus one vertex of N, re-maximalising after
    each step.
    """
    full = vertices.full_face
    facets: set[Face] = {full}
    for nonface in nonfaces:
        if nonface == 0:
            raise InvalidNonface(
                "the empty face cannot be a nonface; use the void complex explicitly"
            )
        if nonface < 0 or nonface & ~full:
            raise InvalidVertex(
                f"nonface uses vertex positions outside 0..{vertices.n - 1}"
            )
        step: set[Face] = set()
        for facet in facets:
            if nonface & ~facet == 0:
                step.update(facet & ~(1 << b) for b in face_bits(nonface))
            else:
                step.add(facet)
        facets = set(_maximal(step))
    return from_facets(vertices, facets)


def face_set(cplx: SimplicialComplex) -> set[Face]:
    """All faces of the complex.  The void complex has none, not even the
    empty face."""
    seen: set[Face] = set()
    for facet in cplx.facets:
        seen.update(submasks(facet))
    return seen


def f_vector(cplx: SimplicialComplex) -> FVector:
    """Face counts by cardinality, from the empty face up to top dimension."""
    if cplx.kind is Kind.VOID:
        raise VoidComplex("the void complex has no f-vector")
    d = cplx.dimension() + 1
    counts = [0] * (d + 1)
    for face in face_set(cplx):
        counts[face.bit_count()] += 1
    return tuple(counts)


def h_vector(cplx: SimplicialComplex) -> HVector:
    """Alternating binomial transform of the f-vector, in exact integer
    arithmetic: entry j sums (-1)^(j-i) C(d-i, j-i) f_(i-1) over i <= j."""
    if cplx.kind is Kind.VOID:
        raise VoidComplex("the void complex has no h-vector")
    f = f_vector(cplx)
    d = cplx.dimension() + 1
    return tuple(
        sum((-1) ** (j - i) * math.comb(d - i, j - i) * f[i] for i in range(j + 1))
        for j in range(d + 1)
    )


def is_pure(cplx: SimplicialComplex) -> bool:
    """True when all facets have equal cardinality."""
    if cplx.kind is Kind.VOID:
        raise VoidComplex("purity is undefined for the void complex")
    return len({f.bit_count() for f in cplx.facets}) <= 1


def is_simplex(cplx: SimplicialComplex) -> bool:
    """True when the complex has exactly one facet (the irrelevant complex
    counts; the void complex does not)."""
    return len(cplx.facets) == 1


def all_faces(cplx: SimplicialComplex, k: int) -> list[Face]:
    """Nonempty faces of dimension at most ``k``, in canonical face order.

    Lists the occupied vertices, then the subsets of two to k + 1 vertices
    of each facet, so a facet F costs C(|F|, 2) + ... + C(|F|, k + 1) sets,
    not 2^|F|."""
    if cplx.kind is Kind.VOID:
        raise VoidComplex("the void complex has no faces")
    if k < 0:
        raise ValueError("k must be >= 0")
    occupied = 0
    for facet in cplx.facets:
        occupied |= facet
    vertices = [1 << b for b in face_bits(occupied)]
    larger: set[Face] = set()
    for facet in cplx.facets:
        bits = [1 << b for b in face_bits(facet)]
        for size in range(2, min(k + 1, len(bits)) + 1):
            larger.update(map(sum, combinations(bits, size)))
    return vertices + sorted(larger, key=face_sort_key)


def facet_permutation(cplx: SimplicialComplex, order: Iterable[Face]) -> list[Face]:
    """Validate that ``order`` lists exactly the facets; return it as a list."""
    seq = list(order)
    if sorted(seq) != sorted(cplx.facets):
        raise InvalidOrder("order must be a permutation of the facet list")
    return seq


def relabelled(
    cplx: SimplicialComplex, positions: Iterable[int]
) -> SimplicialComplex:
    """Copy of the complex with vertex positions permuted: old position ``p``
    becomes ``positions[p]``.  Labels keep their new positions."""
    perm = list(positions)
    if sorted(perm) != list(range(cplx.vertices.n)):
        raise ValueError("positions must permute 0..n-1")
    remapped = [
        sum(1 << perm[b] for b in face_bits(facet)) for facet in cplx.facets
    ]
    return from_facets(cplx.vertices, remapped)
