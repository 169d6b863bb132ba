"""Simplicial complexes over a fixed labelled vertex set.

Faces are plain ``int`` bitmasks whose set bits are vertex positions, so the
whole library runs on machine-word operations.  A complex stores only its
inclusion-maximal faces (facets), kept in a canonical order that makes
equality, hashing, and search results reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .errors import InvalidNonface, InvalidOrder, InvalidVertex, VoidComplex

Face = int
FVector = tuple[int, ...]
HVector = tuple[int, ...]

MAX_VERTICES = 64  # one machine word per face

EMPTY_FACE_TOKEN = "()"  # prints the empty face in the file format


def face_bits(face: Face) -> list[int]:
    """The set bit positions of ``face`` in ascending order.  The result is a
    list, so it can be iterated as often as needed.  A negative ``face`` has
    infinitely many set bits and raises :class:`ValueError`."""
    if face < 0:
        raise ValueError(f"a face is a nonnegative bitmask, got {face}")
    out = []
    while face:
        low = face & -face
        out.append(low.bit_length() - 1)
        face ^= low
    return out


def _holders(vertex_lists: Iterable[list[int]], n: int) -> list[int]:
    """The per-vertex incidence index of a family given by its members'
    vertex lists (over ``n`` vertices): entry v is the bitmask of the
    positions in the family whose members hold vertex v."""
    holders = [0] * n
    for i, verts in enumerate(vertex_lists):
        for v in verts:
            holders[v] |= 1 << i
    return holders


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
                or label == EMPTY_FACE_TOKEN
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
    """The irrelevant complex has only the empty face; every other complex is
    proper.  There is no void kind: :class:`SimplicialComplex` refuses no
    faces."""

    IRRELEVANT = "irrelevant"  # only the empty face
    PROPER = "proper"


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex stored as its facets, in canonical order.

    The constructor is the one gate every complex passes, whether its faces
    come from outside the program or from another complex.  It takes the
    faces as any iterable, raises :class:`InvalidVertex` on a face outside
    the vertex set, keeps the inclusion-maximal faces once each, in
    canonical facet order, and refuses an empty result (the void complex)
    with :class:`VoidComplex`.  So every complex has at least one facet,
    hence at least the empty face, and its facets are an antichain within
    its vertex set."""

    vertices: VertexSet
    facets: tuple[Face, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "facets", tuple(_maximal(self.facets, self.vertices.n)))
        if not self.facets:
            raise VoidComplex("no faces given: the void complex is not supported")

    @property
    def kind(self) -> Kind:
        """Irrelevant when the only face is the empty one, else proper."""
        return Kind.IRRELEVANT if self.facets == (0,) else Kind.PROPER

    def dimension(self) -> int:
        return max(f.bit_count() for f in self.facets) - 1

    def is_face(self, face: Face) -> bool:
        return any(face & ~facet == 0 for facet in self.facets)

    def facet_labels(self) -> list[tuple[str, ...]]:
        return [self.vertices.face_labels(f) for f in self.facets]


def _maximal(faces: Iterable[Face], n: int) -> list[Face]:
    """The inclusion-maximal members of ``faces`` (over ``n`` vertices), once
    each, in canonical facet order: cardinality descending, then bit pattern.
    A face outside the vertex set raises :class:`InvalidVertex`.

    One pass over the distinct faces, largest first: a face can only lie in
    a larger kept face, so the faces of the top size (every face of a pure
    input) are kept untested.  When the size drops, the faces kept since the
    last drop are added to per-vertex bitmasks of the kept faces, so testing
    a face costs |F| ANDs of those, not a pass over the kept faces."""
    pool = sorted(set(faces))
    if pool and (pool[0] < 0 or pool[-1] >> n):  # sorted by value: the ends bound every face
        raise InvalidVertex(f"face uses vertex positions outside 0..{n - 1}")
    pool.sort(key=int.bit_count, reverse=True)  # stable, so ties keep bit order
    out: list[Face] = []
    holders = [0] * n  # entry v: the bitmask of the positions in out[:larger] holding v
    larger = 0  # out[:larger] are the kept faces larger than this one
    for face in pool:
        if len(out) > larger and face.bit_count() < out[-1].bit_count():
            for i in range(larger, len(out)):
                for v in face_bits(out[i]):
                    holders[v] |= 1 << i
            larger = len(out)
        over = (1 << larger) - 1  # the larger kept faces holding this one's vertices so far
        if over:
            for v in face_bits(face):
                over &= holders[v]
                if not over:
                    break
        if not over:
            out.append(face)
    return out


def from_facets(vertices: VertexSet, raw: Iterable[Face]) -> SimplicialComplex:
    """Complex generated by ``raw``, as the :class:`SimplicialComplex`
    constructor builds it: faces outside the vertex set raise
    :class:`InvalidVertex`, only the inclusion-maximal faces are kept, once
    each, the empty face alone gives the irrelevant complex ``{()}``, and no
    faces at all raise :class:`VoidComplex`."""
    return SimplicialComplex(vertices, raw)


def minimal_hitting_sets(sets: Iterable[int]) -> list[int]:
    """Inclusion-minimal transversals of a family of bitmask sets, in
    canonical face order.

    This is MMCS (Murakami and Uno, *Efficient algorithms for dualizing
    large-scale hypergraphs*, 2014).  It branches on the unhit member with the
    fewest candidate vertices.  A chosen vertex is kept only while some
    member is hit by it alone (its critical member), so every transversal it
    reaches is minimal.  The vertices of the branched member leave the
    candidates and each comes back only after its own subtree, so each
    minimal transversal is reached once.  Sets of members are bitmasks over
    their positions in the family.

    The empty family has the single minimal transversal 0; a family holding
    the empty set has none.
    """
    family = list(sets)
    holders = _holders(map(face_bits, family), max(family, default=0).bit_length())
    found: list[int] = []

    def mmcs(chosen: int, cand: int, unhit: int, crit: list[int]) -> None:
        # crit holds, per chosen vertex, the members it alone hits
        if not unhit:
            found.append(chosen)
            return
        # bit i of planes[p] is bit p of unhit member i's candidate count
        planes: list[int] = []
        for b in face_bits(cand):
            carry = holders[b] & unhit
            for p, plane in enumerate(planes):
                planes[p] = plane ^ carry
                carry &= plane
            if carry:
                planes.append(carry)
        fewest = unhit
        for plane in reversed(planes):
            if fewest & ~plane:
                fewest &= ~plane
        branch = cand & family[(fewest & -fewest).bit_length() - 1]
        cand &= ~branch
        for b in face_bits(branch):
            hit = holders[b]
            kept = [c & ~hit for c in crit]
            if all(kept):
                mmcs(chosen | 1 << b, cand, unhit & ~hit, kept + [unhit & hit])
            cand |= 1 << b

    mmcs(0, sum(1 << b for b, h in enumerate(holders) if h), (1 << len(family)) - 1, [])
    return sorted(found, key=face_sort_key)


def from_nonfaces(vertices: VertexSet, nonfaces: Iterable[Face]) -> SimplicialComplex:
    """Complex whose faces are exactly the subsets containing no listed nonface.

    A set is a face when its complement meets every nonface, so the facets
    are the complements of the minimal transversals of the nonfaces
    (:func:`minimal_hitting_sets`).  No nonfaces give the full simplex.
    """
    full = vertices.full_face
    checked: list[Face] = []
    for nonface in nonfaces:
        if nonface == 0:
            raise InvalidNonface(
                "the empty face cannot be a nonface: it would leave no faces at all"
            )
        if nonface < 0 or nonface & ~full:
            raise InvalidVertex(
                f"nonface uses vertex positions outside 0..{vertices.n - 1}"
            )
        checked.append(nonface)
    return SimplicialComplex(vertices, [full ^ t for t in minimal_hitting_sets(checked)])


def f_vector(cplx: SimplicialComplex) -> FVector:
    """Face counts by cardinality, from the empty face up to top dimension.

    Collects the nonempty subsets of every facet; the empty face, which
    every complex has, is counted once."""
    seen: set[Face] = set()
    for facet in cplx.facets:
        sub = facet
        while sub:
            seen.add(sub)
            sub = (sub - 1) & facet
    counts = [1] + [0] * (cplx.dimension() + 1)
    for face in seen:
        counts[face.bit_count()] += 1
    return tuple(counts)


def h_vector(cplx: SimplicialComplex) -> HVector:
    """Alternating binomial transform of the f-vector, in exact integer
    arithmetic: entry j sums (-1)^(j-i) C(d-i, j-i) f_(i-1) over i <= j."""
    return _h_from_f(f_vector(cplx))


def _h_from_f(f: FVector) -> HVector:
    """The h-vector of a complex with f-vector ``f`` (see :func:`h_vector`),
    for callers that need both.

    With F(x) the sum of f_(i-1) x^(d-i), the sum of h_j x^(d-j) is
    F(x - 1), so h is a Taylor shift of f by -1: each pass is a synthetic
    division by x + 1 (left to right, each entry less the new one before
    it), whose remainder fixes one more entry from the right."""
    h = list(f)
    for top in range(len(h) - 1, 0, -1):
        for j in range(1, top + 1):
            h[j] -= h[j - 1]
    return tuple(h)


def is_pure(cplx: SimplicialComplex) -> bool:
    """True when all facets have equal cardinality."""
    return len({f.bit_count() for f in cplx.facets}) <= 1


def is_simplex(cplx: SimplicialComplex) -> bool:
    """True when the complex has exactly one facet (the irrelevant complex
    counts)."""
    return len(cplx.facets) == 1


def all_faces(cplx: SimplicialComplex, k: int) -> list[Face]:
    """Nonempty faces of dimension at most ``k``, in canonical face order.

    Lists the occupied vertices, then the subsets of two to k + 1 vertices
    of each facet, so a facet F costs C(|F|, 2) + ... + C(|F|, k + 1) sets,
    not 2^|F|."""
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
    return SimplicialComplex(cplx.vertices, remapped)
