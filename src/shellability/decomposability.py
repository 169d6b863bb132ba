"""Shedding faces, vertex-decomposability, and k-decomposability.

A face sheds when deleting it loses no facet: every facet of the deletion is
already a facet of the complex.  For a vertex this is equivalent to "no facet
of the link is a facet of the deletion".  A complex is k-decomposable when it
is a simplex, or when some face of dimension at most k sheds and its deletion
and its link are both k-decomposable; k = 0 is vertex-decomposability.  One
recursion, :func:`_decomposable`, answers every k.  It tries the candidates
in canonical face order, recursing into the deletion before the link, and
memoises verdicts per top-level call on facet lists compressed to their
occupied vertices.
"""

from __future__ import annotations

from .complexes import Face, SimplicialComplex, all_faces, face_bits
from .face_ops import face_deletion, link

_Memo = dict[tuple[Face, ...], bool]


def _loses_no_facet(cplx: SimplicialComplex, deleted: SimplicialComplex) -> bool:
    return set(deleted.facets) <= set(cplx.facets)


def is_shedding_face(cplx: SimplicialComplex, face: Face) -> bool:
    """Whether deleting ``face`` loses no facet of the complex.  Raises
    :class:`EmptyFace` or :class:`NotAFace` as :func:`face_deletion` does."""
    return _loses_no_facet(cplx, face_deletion(cplx, face))


def _key(cplx: SimplicialComplex) -> tuple[Face, ...]:
    # compress onto occupied vertices so complexes differing only by unused
    # vertices share memo entries; packing keeps the bit order, so the packed
    # facets stay in canonical order
    occupied = 0
    for facet in cplx.facets:
        occupied |= facet
    remap = {b: i for i, b in enumerate(face_bits(occupied))}
    packed = []
    for facet in cplx.facets:
        mask = 0
        for b in face_bits(facet):
            mask |= 1 << remap[b]
        packed.append(mask)
    return tuple(packed)


def _decomposable(cplx: SimplicialComplex, k: int, memo: _Memo) -> bool:
    if len(cplx.facets) == 1:
        return True
    key = _key(cplx)
    cached = memo.get(key)
    if cached is None:
        cached = memo[key] = any(
            _decomposes_at(cplx, face, k, memo) for face in all_faces(cplx, k)
        )
    return cached


def _decomposes_at(cplx: SimplicialComplex, face: Face, k: int, memo: _Memo) -> bool:
    # ``face`` sheds, and its deletion and link are both k-decomposable
    deleted = face_deletion(cplx, face)
    return (
        _loses_no_facet(cplx, deleted)
        and _decomposable(deleted, k, memo)
        and _decomposable(link(cplx, face), k, memo)
    )


def is_vertex_decomposable(cplx: SimplicialComplex) -> bool:
    """Recursive test: a simplex, or some shedding vertex whose link and
    deletion are both vertex-decomposable."""
    return _decomposable(cplx, 0, {})


def is_shedding_vertex(cplx: SimplicialComplex, vertex: Face) -> bool:
    """Whether ``vertex`` can start a vertex decomposition: it sheds, and its
    link and deletion are both vertex-decomposable.  Raises
    :class:`NotAFace` as :func:`face_deletion` does."""
    if vertex.bit_count() != 1:
        raise ValueError("expected a single-vertex face")
    return _decomposes_at(cplx, vertex, 0, {})


def is_k_decomposable(cplx: SimplicialComplex, k: int) -> bool:
    """Decomposability by shedding faces of dimension at most ``k``; k = 0 is
    vertex-decomposability."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _decomposable(cplx, k, {})


def shedding_faces(cplx: SimplicialComplex, k: int) -> list[Face]:
    """All faces of dimension at most ``k`` that shed, in canonical face order."""
    return [f for f in all_faces(cplx, k) if is_shedding_face(cplx, f)]


def shedding_vertices(cplx: SimplicialComplex) -> list[Face]:
    """Vertices passing :func:`is_shedding_vertex`, in position order."""
    memo: _Memo = {}
    return [v for v in all_faces(cplx, 0) if _decomposes_at(cplx, v, 0, memo)]
