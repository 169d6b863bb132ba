"""Face-local constructions: links and face deletions.

Results stay on the parent vertex set so faces remain comparable between a
complex, its links and its deletions; vertices outside every facet simply
never occur.
Both results are read off the parent's facets and handed to the
:class:`~shellability.complexes.SimplicialComplex` constructor, which keeps
the maximal ones in canonical order.
"""

from __future__ import annotations

from .complexes import Face, SimplicialComplex, face_bits
from .errors import EmptyFace, NotAFace


def link(cplx: SimplicialComplex, face: Face) -> SimplicialComplex:
    """Subcomplex of faces disjoint from ``face`` whose union with it is a
    face.  The link of the empty face is the complex itself.

    Its facets are F minus ``face`` for the facets F containing ``face``;
    one of them under another would put F under another facet."""
    if not cplx.is_face(face):
        raise NotAFace("link requires a face of the complex")
    return SimplicialComplex(
        cplx.vertices, [f & ~face for f in cplx.facets if face & ~f == 0]
    )


def face_deletion(cplx: SimplicialComplex, face: Face) -> SimplicialComplex:
    """Maximal faces of the complex not containing ``face``.

    These are the facets not containing ``face`` (kept), and each F minus v
    (F containing ``face``, v in ``face``) that lies in no kept facet: the
    constructor drops the others.  Such an F minus v lies under no other one
    and over no kept facet, since F would then lie under another facet.  So
    ``face`` sheds exactly when no F minus v survives, and
    :func:`~shellability.decomposability.is_shedding_face` tests just that."""
    if face == 0:
        raise EmptyFace("cannot delete the empty face")
    if not cplx.is_face(face):
        raise NotAFace("face deletion requires a face of the complex")
    kept = [f for f in cplx.facets if face & ~f]
    cut = [f & ~(1 << b) for f in cplx.facets if not face & ~f for b in face_bits(face)]
    return SimplicialComplex(cplx.vertices, kept + cut)
