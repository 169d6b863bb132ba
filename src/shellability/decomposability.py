"""Shedding faces, vertex-decomposability, and k-decomposability.

A face σ sheds when deleting it loses no facet: every facet of the deletion
is already a facet of the complex.  That holds exactly when, for each facet
F containing σ and each v in σ, F minus v lies in another facet, that is,
when σ lies in the restriction face of every facet F containing it against
all the other facets (Björner and Wachs, *Shellable nonpure complexes and
posets I*, 1996).  The shelling step's sieve (:func:`shelling._sieve`)
computes those restriction faces from ``holders[v]``, the bitmask of the
facets holding vertex v, so the test builds no deletion.

A complex is k-decomposable when it is a simplex, or when some face of
dimension at most k sheds and its deletion and its link are both
k-decomposable; k = 0 is vertex-decomposability.  After σ sheds, the
deletion is just the facets not containing σ, and the link is F minus σ for
the facets F containing σ (Provan and Billera, 1980).  One recursion,
:func:`_decomposable`, answers every k.  Its nodes are tuples of facet
bitmasks compressed onto their occupied vertices 0..r-1; compressing keeps
the bit order, so the canonical facet order survives, and so does taking the
facets of a deletion or a link.  Such a tuple is both the complex and its
memo key, and no node builds a :class:`SimplicialComplex`.  Candidates are
tried in canonical face order, the deletion before the link, and verdicts
are memoised per top-level call.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from .complexes import Face, SimplicialComplex, _holders, face_bits
from .face_ops import _check_deletable
from .shelling import _sieve

_Memo = dict[tuple[Face, ...], bool]


def _packed(facets: Sequence[Face]) -> tuple[Face, ...]:
    """The facets compressed onto their occupied vertices, order kept."""
    occupied = 0
    for f in facets:
        occupied |= f
    gaps = ((1 << occupied.bit_length()) - 1) ^ occupied
    while gaps:  # close the highest run of unoccupied vertices
        top = gaps.bit_length()
        start = (((1 << top) - 1) ^ gaps).bit_length()
        low = (1 << start) - 1
        facets = [f & low | f >> top - start & ~low for f in facets]
        gaps &= low
    return tuple(facets)


class _Shedding:
    """The shedding test on a facet list in canonical order.

    ``bad[v]`` is the bitmask of the facets F holding v for which F minus v
    lies in no other facet; ``rests[i]`` lists the vertices of facet i's
    restriction face against all the others, as one-vertex faces.  A face
    sheds iff no facet containing it has one of its vertices in ``bad``."""

    def __init__(self, facets: Sequence[Face]) -> None:
        n = max(facets).bit_length()
        verts = [face_bits(f) for f in facets]
        self.holders = holders = _holders(verts, n)
        everyone = (1 << len(facets)) - 1
        self.bad = bad = [0] * n
        self.rests: list[list[Face]] = []
        for i, vs in enumerate(verts):
            once = _sieve(holders, everyone ^ 1 << i, vs)
            rest = []
            for v in vs:
                if once & ~holders[v]:
                    rest.append(1 << v)
                else:
                    bad[v] |= 1 << i
            self.rests.append(rest)

    def sheds(self, face: Face) -> bool:
        inside, worse = -1, 0
        for v in face_bits(face):
            inside &= self.holders[v]
            worse |= self.bad[v]
        return not inside & worse

    def faces(self, k: int) -> Iterator[Face]:
        """The shedding faces of at most k + 1 vertices, in canonical face
        order; a face of two or more lies in the restriction face of every
        facet holding it, so only their subsets are tried."""
        for v, (h, b) in enumerate(zip(self.holders, self.bad)):
            if h and not b:
                yield 1 << v
        for size in range(2, k + 2):
            tried = {sum(c) for rest in self.rests for c in combinations(rest, size)}
            if not tried:
                return
            yield from sorted(f for f in tried if self.sheds(f))


def is_shedding_face(cplx: SimplicialComplex, face: Face) -> bool:
    """Whether deleting ``face`` loses no facet of the complex.  Raises
    :class:`EmptyFace` or :class:`NotAFace` as :func:`face_deletion` does."""
    _check_deletable(cplx, face)
    return _Shedding(cplx.facets).sheds(face)


def _decomposable(facets: Sequence[Face], k: int, memo: _Memo) -> bool:
    if len(facets) == 1:
        return True
    node = _packed(facets)
    cached = memo.get(node)
    if cached is None:
        cached = memo[node] = any(
            _decomposes_at(node, face, k, memo) for face in _Shedding(node).faces(k)
        )
    return cached


def _decomposes_at(facets: Sequence[Face], face: Face, k: int, memo: _Memo) -> bool:
    # for a shedding ``face``: whether its deletion and link are both k-decomposable
    return _decomposable([f for f in facets if face & ~f], k, memo) and _decomposable(
        [f ^ face for f in facets if not face & ~f], k, memo
    )


def is_vertex_decomposable(cplx: SimplicialComplex) -> bool:
    """Recursive test: a simplex, or some shedding vertex whose link and
    deletion are both vertex-decomposable."""
    return _decomposable(cplx.facets, 0, {})


def is_shedding_vertex(cplx: SimplicialComplex, vertex: Face) -> bool:
    """Whether ``vertex`` can start a vertex decomposition: it sheds, and its
    link and deletion are both vertex-decomposable.  Raises
    :class:`NotAFace` as :func:`face_deletion` does."""
    if vertex.bit_count() != 1:
        raise ValueError("expected a single-vertex face")
    return is_shedding_face(cplx, vertex) and _decomposes_at(cplx.facets, vertex, 0, {})


def is_k_decomposable(cplx: SimplicialComplex, k: int) -> bool:
    """Decomposability by shedding faces of dimension at most ``k``; k = 0 is
    vertex-decomposability."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _decomposable(cplx.facets, k, {})


def shedding_faces(cplx: SimplicialComplex, k: int) -> list[Face]:
    """All faces of dimension at most ``k`` that shed, in canonical face order."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return list(_Shedding(cplx.facets).faces(k))


def shedding_vertices(cplx: SimplicialComplex) -> list[Face]:
    """Vertices passing :func:`is_shedding_vertex`, in position order."""
    memo: _Memo = {}
    return [
        v
        for v in _Shedding(cplx.facets).faces(0)
        if _decomposes_at(cplx.facets, v, 0, memo)
    ]
