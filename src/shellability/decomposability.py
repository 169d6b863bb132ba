"""Shedding faces, vertex-decomposability, and k-decomposability.

A face σ sheds when deleting it loses no facet: every facet of the deletion
is already a facet of the complex.  That holds exactly when, for each facet
F containing σ and each v in σ, F minus v lies in another facet, that is,
when σ lies in the restriction face of every facet F containing it against
all the other facets (Björner and Wachs, *Shellable nonpure complexes and
posets I*, 1996).  :func:`is_shedding_face` tests one face by building
its deletion.  The recursion needs every shedding face of a node instead,
so :func:`_shedding_faces` computes all the restriction faces at once with
the shelling step's sieve (:func:`shelling._sieve`), from ``holders[v]``,
the bitmask of the facets holding vertex v, and builds no deletion.

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
tried in canonical face order, the link before the deletion, and verdicts
are memoised per top-level call.

Every link of a k-decomposable complex is k-decomposable (Provan and
Billera, 1980, for pure complexes; Björner and Wachs, *Shellable nonpure
complexes and posets II*, 1997, Section 11, for nonpure ones).  So a
candidate whose link is not k-decomposable refutes its node at once, and
:func:`shedding_vertices` stops at such a vertex with none found.  Proof, by
induction along a decomposition in which σ sheds with deletion D and link
L: the link of a face τ is D's link of τ when τ ∪ σ is not a face, and L's
link of τ minus σ when τ holds σ; otherwise σ minus τ sheds from it, with
D's link of τ as deletion and L's link of τ minus σ as link.

A cone v∗L is k-decomposable iff its base L is, so :func:`_packed` drops
the vertices that every facet of a node holds, and the closed forms below
then answer, say, a cone over a graph.  Proof: a face σ of L sheds in v∗L
iff it sheds in L, and its deletion and link there are the cones over its
deletion and link in L, so a decomposition of L is one of v∗L; conversely
L is the link of v.  Two facets differ outside the vertices they share, so
dropping those keeps the canonical order.

A node of one facet is a simplex.  A node of two facets F and G is answered
in closed form, before any packing or memo entry: it is k-decomposable, for
every k, iff F minus G or G minus F is a single vertex.  Proof: a face σ
inside both facets does not shed, since F minus v for v in σ lies in G only
if F minus G is empty.  A face σ in F alone sheds iff F minus v lies in G
for each v in σ, that is, iff σ = F minus G is a single vertex v.  Then the
deletion is G and the link is F minus v, both simplices.

A node of dimension at most 1, a graph and maybe some isolated points, is
answered in closed form as well, with no memo entry: it is k-decomposable,
for every k, iff its edges form one connected graph (no edges count as
one).  Canonical order puts the largest facet first, so the first facet
tells such a node.  Proof, by induction on the facets: an isolated vertex
sheds, its link is {∅}, and its deletion keeps the edges.  In a connected
graph of two or more edges, a leaf v of a spanning tree sheds, since none
of v's neighbours is a leaf of the graph; the deletion stays connected, and
the link is a set of points.  Conversely a k-decomposable complex is
shellable, and the pure 1-skeleton of a shellable complex is shellable
(Björner and Wachs 1996), so its edges are connected.

A d-dimensional complex is k-decomposable for some k ≥ d iff it is
shellable: every face is then a candidate, and d-decomposability is
shellability (Provan and Billera, 1980, for pure complexes; Björner and
Wachs, *Shellable nonpure complexes and posets II*, 1997, Section 11, for
nonpure ones).  So :func:`is_k_decomposable` hands a top-level call with
k ≥ d ≥ 2 to the shelling search, whose memo of refuted placed sets keeps
it far cheaper than this recursion, and :func:`is_shellable` is
k-decomposability at k = ``MAX_VERTICES``, past every dimension: the
search on a complex of dimension 2 or more, the connectivity test above on
a graph.

Each complex keeps one verdict record (see :class:`SimplicialComplex`): two
bounds on a key, the greatest key known to be a no and the least known to
be a yes.  The record only compares keys; :func:`_key` is the one place a
k is mapped to its key.  Three facts let one answer settle others:

* a k-decomposable complex is (k+1)-decomposable, since a face of
  dimension at most k is one of dimension at most k + 1 (Provan and
  Billera, 1980), so a yes at k settles every larger k and a no every
  smaller one, and vertex-decomposability is the least k;
* a k-decomposable complex is shellable, and a d-dimensional one is
  k-decomposable for k ≥ d iff it is shellable (Provan and Billera, 1980,
  for pure complexes; Björner and Wachs, *Shellable nonpure complexes and
  posets II*, 1997, Section 11, for nonpure ones), so a shelling refutation
  is a no for every k and a shelling a yes for every k ≥ d;
* on a complex of dimension at most 1 every k is the one connectivity test
  above, so any verdict there settles every k.

So every k ≥ d, and every k when d ≤ 1, is kept under one key,
``MAX_VERTICES``, the key the shelling search writes, and every other k
under itself.  A dimension is below ``MAX_VERTICES``, so the keys keep the
order of the k's, and a yes at a key settles every larger key, a no every
smaller one.  A fresh record's no bound lies below every key and its yes
bound above every key, so it settles none.

The record has two readers and three writers, and is read only in this
module.  :func:`is_k_decomposable` reads it, and every yes/no verdict goes
through it: :func:`is_vertex_decomposable` is k = 0 and
:func:`is_shellable` is k = ``MAX_VERTICES``.  On a miss it hands
k ≥ d ≥ 2 to :func:`~shellability.shelling.shelling_order`, the first
writer, which records its own answer, or else runs the recursion and
records that, the second.  ``shelling_order``, which returns a witness,
always searches.  :func:`shedding_vertices` reads the k = 0 key, through
:func:`_key` as well: a no leaves no vertex to start a decomposition, and
a yes leaves only the deletions to decide, since every link of a
vertex-decomposable complex is.  On a miss its walk decides
vertex-decomposability, and it records that, the third writer.
:func:`is_shedding_vertex` neither reads nor writes the record.  The
recursion's node memo stays per call: kept on the complex it would hold
search-sized memory as long as the complex lives.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations

from .complexes import MAX_VERTICES, Face, SimplicialComplex, _holders, face_bits
from .face_ops import face_deletion
from .shelling import _sieve, shelling_order

_Memo = dict[tuple[Face, ...], bool]


def _packed(facets: Sequence[Face]) -> tuple[Face, ...]:
    """The facets without the vertices they all share, compressed onto the
    vertices left, order kept."""
    occupied, apex = 0, -1
    for f in facets:
        occupied |= f
        apex &= f
    gaps = ((1 << occupied.bit_length()) - 1) ^ occupied | apex
    while gaps:  # close the highest run of dropped vertices
        top = gaps.bit_length()
        start = (((1 << top) - 1) ^ gaps).bit_length()
        low = (1 << start) - 1
        facets = [f & low | f >> top - start & ~low for f in facets]
        gaps &= low
    return tuple(facets)


def _shedding_faces(facets: Sequence[Face], k: int) -> Iterator[Face]:
    """The shedding faces of at most k + 1 vertices of a facet list in
    canonical order, in canonical face order.

    ``bad[v]`` is the bitmask of the facets F holding v for which F minus v
    lies in no other facet, and a face sheds iff no facet containing it has
    one of its vertices in ``bad``.  So a face of two or more vertices lies
    in the restriction face of every facet holding it, facet i's being its
    vertices v with bit i clear in ``bad[v]``, and only subsets of those are
    tried, one size at a time.  Vertices need no restriction face, so k = 0
    derives none."""
    n = max(facets).bit_length()
    verts = [face_bits(f) for f in facets]
    holders = _holders(verts, n)
    everyone = (1 << len(facets)) - 1
    # bad is written in the pass that sieves each facet; building it with
    # _holders would take a second pass
    bad = [0] * n
    for i, vs in enumerate(verts):
        once = _sieve(holders, everyone ^ 1 << i, vs)
        for v in vs:
            if once & holders[v] == once:
                bad[v] |= 1 << i
    for v, (h, b) in enumerate(zip(holders, bad)):
        if h and not b:
            yield 1 << v
    if k < 1:
        return
    rests = [[1 << v for v in vs if not bad[v] >> i & 1] for i, vs in enumerate(verts)]
    for size in range(2, k + 2):
        tried = {sum(c) for rest in rests for c in combinations(rest, size)}
        if not tried:
            return
        shed = []
        for face in tried:
            inside, worse = -1, 0
            for v in face_bits(face):
                inside &= holders[v]
                worse |= bad[v]
            if not inside & worse:
                shed.append(face)
        yield from sorted(shed)


def is_shedding_face(cplx: SimplicialComplex, face: Face) -> bool:
    """Whether deleting ``face`` loses no facet of the complex.  Raises
    :class:`EmptyFace` or :class:`NotAFace` as :func:`face_deletion` does."""
    return set(face_deletion(cplx, face).facets) <= set(cplx.facets)


def _decomposable(facets: Sequence[Face], k: int, memo: _Memo) -> bool:
    if len(facets) == 1:
        return True
    if len(facets) == 2:  # the only shedding face is v with F - G = {v}
        f, g = facets
        return (f & ~g).bit_count() == 1 or (g & ~f).bit_count() == 1
    if facets[0].bit_count() > 2:  # pack, reducing a cone to its base
        facets = _packed(facets)
    if facets[0].bit_count() <= 2:  # a graph: decomposable iff connected
        return _connected([f for f in facets if f.bit_count() == 2])
    cached = memo.get(facets)
    if cached is None:
        cached = memo[facets] = any(_starts(facets, _shedding_faces(facets, k), k, memo))
    return cached


def _connected(edges: Sequence[Face]) -> bool:
    """Whether the edges form one connected graph; no edges count as one."""
    reach, rest = (edges[0] if edges else 0), edges[1:]
    while rest:
        far = []
        for e in rest:
            if e & reach:
                reach |= e
            else:
                far.append(e)
        if len(far) == len(rest):
            return False
        rest = far
    return True


def _starts(
    facets: Sequence[Face], faces: Iterable[Face], k: int, memo: _Memo
) -> Iterator[Face]:
    """The shedding ``faces`` whose link and deletion are both k-decomposable,
    in turn.  A link that is not stops the walk: the complex is then not
    k-decomposable, so no face starts a decomposition."""
    for face in faces:
        if not _decomposable([f ^ face for f in facets if not face & ~f], k, memo):
            return
        if _decomposable([f for f in facets if face & ~f], k, memo):
            yield face


def is_vertex_decomposable(cplx: SimplicialComplex) -> bool:
    """Recursive test: a simplex, or some shedding vertex whose link and
    deletion are both vertex-decomposable; :func:`is_k_decomposable` at
    k = 0."""
    return is_k_decomposable(cplx, 0)


def is_shellable(cplx: SimplicialComplex) -> bool:
    """Whether some shelling order exists: :func:`is_k_decomposable` at
    k = ``MAX_VERTICES``, past every dimension, so the shelling search
    answers when the dimension is 2 or more, and one connectivity test
    answers on a graph."""
    return is_k_decomposable(cplx, MAX_VERTICES)


def is_shedding_vertex(cplx: SimplicialComplex, vertex: Face) -> bool:
    """Whether ``vertex`` can start a vertex decomposition: it sheds, and its
    link and deletion are both vertex-decomposable.  Raises
    :class:`NotAFace` as :func:`face_deletion` does."""
    if vertex < 0 or vertex.bit_count() != 1:  # -1 and -2 have one bit too
        raise ValueError("expected a single-vertex face")
    return is_shedding_face(cplx, vertex) and any(_starts(cplx.facets, [vertex], 0, {}))


def _key(d: int, k: int) -> int:
    """The verdict record's key for k on a complex of dimension d: k ≥ d,
    and every k when d ≤ 1, is kept under the shelling search's key
    ``MAX_VERTICES``, every other k under itself, which keeps the order of
    the k's."""
    return k if k < d and d >= 2 else MAX_VERTICES


def is_k_decomposable(cplx: SimplicialComplex, k: int) -> bool:
    """Decomposability by shedding faces of dimension at most ``k``; k = 0 is
    vertex-decomposability.  For k at least the dimension d this is
    shellability (Provan and Billera for pure complexes, Björner and Wachs
    for nonpure ones), so the shelling search answers when d ≥ 2; a
    complex of dimension at most 1 is k-decomposable iff its edges form one
    connected graph.

    A verdict the complex already records (see :func:`_key`) answers without
    a search, and a verdict searched for joins the record."""
    if k < 0:
        raise ValueError("k must be >= 0")
    d = cplx.dimension()
    key = _key(d, k)
    known = cplx._known(key)
    if known is not None:
        return known
    if k >= d >= 2:
        return shelling_order(cplx) is not None  # which records its answer
    return cplx._learn(key, _decomposable(cplx.facets, k, {}))


def shedding_faces(cplx: SimplicialComplex, k: int) -> list[Face]:
    """All faces of dimension at most ``k`` that shed, in canonical face order."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return list(_shedding_faces(cplx.facets, k))


def shedding_vertices(cplx: SimplicialComplex) -> list[Face]:
    """Vertices passing :func:`is_shedding_vertex`, in position order.

    The verdict record's answer to vertex-decomposability settles part of
    the question: on a complex recorded not VD no vertex starts a
    decomposition, so the list is empty; on one recorded VD every link is
    VD, so a shedding vertex starts one iff its deletion is VD.  Otherwise
    the walk decides each vertex, and its answer joins the record: the
    complex is VD iff some vertex starts a decomposition or it is a
    simplex."""
    facets = cplx.facets
    key = _key(cplx.dimension(), 0)
    known = cplx._known(key)
    if known is False:
        return []
    memo: _Memo = {}
    if known:
        return [
            v
            for v in _shedding_faces(facets, 0)
            if _decomposable([f for f in facets if v & ~f], 0, memo)
        ]
    found = list(_starts(facets, _shedding_faces(facets, 0), 0, memo))
    cplx._learn(key, bool(found) or len(facets) == 1)
    return found
