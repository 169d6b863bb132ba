"""Simplicial complexes over a fixed labelled vertex set.

Faces are plain ``int`` bitmasks whose set bits are vertex positions, so the
whole library runs on machine-word operations.  A complex stores only its
inclusion-maximal faces (facets), kept in a canonical order that makes
equality, hashing, and search results reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .errors import InvalidNonface, InvalidOrder, InvalidVertex, VoidComplex

Face = int
FVector = tuple[int, ...]
HVector = tuple[int, ...]

MAX_VERTICES = 64  # one machine word per face

EMPTY_FACE_TOKEN = "()"  # prints the empty face in the file format

# a k past every dimension: k-decomposability there is shellability
_SHELLABLE = MAX_VERTICES


def _byte_table(low: int) -> list[tuple[int, ...]]:
    """Entry b: the set positions of byte b, taken as the byte whose lowest
    bit is position ``low``, in ascending order.  Built by doubling: each bit
    appends a copy of the table so far with that bit added."""
    table: list[tuple[int, ...]] = [()]
    for bit in range(low, low + 8):
        table += [t + (bit,) for t in table]
    return table


_BITS = [_byte_table(low) for low in range(0, 64, 8)]  # one table per byte of a word


def face_bits(face: Face) -> list[int]:
    """The set bit positions of ``face`` in ascending order.  The result is a
    list, so it can be iterated as often as needed.  A negative ``face`` has
    infinitely many set bits and raises :class:`ValueError`.

    Each byte is one lookup in a table of its 256 bit patterns (``_BITS``,
    built once at import), so no loop runs per bit; past 64 bits the rest of
    the face is decoded the same way, 64 positions up."""
    if face < 0:
        raise ValueError(f"a face is a nonnegative bitmask, got {face}")
    if face < 256:
        return list(_BITS[0][face])
    out: list[int] = []
    for table in _BITS:
        if not face:
            break
        out += table[face & 255]
        face >>= 8
    return out + [b + 64 for b in face_bits(face)] if face else out


def _valid_label(label: str) -> bool:
    """A vertex label is one token of the file format: nonempty, not ``()``,
    and free of whitespace, of ``/`` and ``#``, which separate faces and
    start comments, and of ``,``, which separates the labels of ``--face``."""
    reserved = "/" in label or "#" in label or "," in label
    return label.split() == [label] and label != EMPTY_FACE_TOKEN and not reserved


def _holders(vertex_lists: Iterable[list[int]], n: int) -> list[int]:
    """The positional bitmask index of a family given by its members' key
    lists, keys in 0..n-1: entry v is the bitmask of the positions in the
    family whose members hold key v.  The keys are vertices for an incidence
    index, or any small key, such as each member's size."""
    holders = [0] * n
    for i, verts in enumerate(vertex_lists):
        bit = 1 << i  # an i-bit int: shifting per key would cost as much as the OR
        for v in verts:
            holders[v] |= bit
    return holders


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
            if not _valid_label(label):
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
        if face < 0 or face >> self.n:
            raise InvalidVertex("face uses positions outside the vertex set")
        return tuple(map(self.labels.__getitem__, face_bits(face)))


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
    its vertex set.  The largest facet comes first and the smallest last,
    so :meth:`dimension` and :func:`is_pure` read them off the ends, and
    :attr:`kind` is the string ``"irrelevant"`` when the empty face is the
    only facet, else ``"proper"`` (there is no void kind).

    Two values are computed on first use and kept on the instance: the
    f-vector (read by :func:`f_vector` and :func:`h_vector`) and the minimal
    nonfaces (read by :func:`~shellability.duality.minimal_nonfaces` and
    :func:`~shellability.duality.alexander_dual`).  A third is a verdict
    record: the greatest k for which the complex is known not to be
    k-decomposable and the least k for which it is known to be, written by
    the shelling search and the decomposability tests (see
    :mod:`~shellability.decomposability`) and read by the verdict functions
    before they search.  A class-level pair settles nothing until a verdict
    replaces it whole on the instance, so a complex costs nothing more to
    build, and two racing writes can lose a fact but never record a false
    one.  None of the three is a field, so equality, hashing and ``repr``
    see the vertices and facets alone."""

    vertices: VertexSet
    facets: tuple[Face, ...]
    # (greatest k known not k-decomposable, least k known k-decomposable);
    # not annotated, so not a dataclass field.  Each k is kept as
    # min(k, top): every k ≥ d of a complex of dimension d ≥ 2 is
    # shellability, kept under top = d, and every k of a graph or less is
    # one connectivity test, kept under top = 0.  The shelling search writes
    # this record on every call, so the two methods below inline that clamp
    # and dimension() rather than call them.
    _verdicts = (-1, MAX_VERTICES)

    def __post_init__(self) -> None:
        object.__setattr__(self, "facets", tuple(_maximal(self.facets, self.vertices.n)))
        if not self.facets:
            raise VoidComplex("no faces given: the void complex is not supported")

    @property
    def kind(self) -> str:
        """``"irrelevant"`` when the only face is the empty one, else
        ``"proper"``."""
        return "irrelevant" if self.facets == (0,) else "proper"

    def dimension(self) -> int:
        """One less than the size of the first facet, which canonical facet
        order makes a largest one."""
        return self.facets[0].bit_count() - 1

    def is_face(self, face: Face) -> bool:
        return any(face & ~facet == 0 for facet in self.facets)

    def _known(self, k: int) -> bool | None:
        """Whether the complex is k-decomposable, when the record says."""
        no, yes = self._verdicts
        top = self.facets[0].bit_count() - 1
        top = top if top >= 2 else 0
        k = k if k < top else top
        return False if k <= no else True if k >= yes else None

    def _learn(self, k: int, holds: bool) -> bool:
        """Record that the complex is k-decomposable, or not; return
        ``holds``.  k = ``_SHELLABLE`` records shellability."""
        no, yes = self._verdicts
        top = self.facets[0].bit_count() - 1
        top = top if top >= 2 else 0
        k = k if k < top else top
        # written to __dict__ as cached_property writes: object.__setattr__
        # costs a call more
        self.__dict__["_verdicts"] = (
            (no, yes if yes < k else k) if holds else (no if no > k else k, yes)
        )
        return holds

    @cached_property
    def _f_vector(self) -> FVector:
        # the nonempty subsets of every facet, plus the empty face once
        seen: set[Face] = set()
        for facet in self.facets:
            sub = facet
            while sub:
                seen.add(sub)
                sub = (sub - 1) & facet
        counts = [1] + [0] * (self.dimension() + 1)
        for face in seen:
            counts[face.bit_count()] += 1
        return tuple(counts)

    @cached_property
    def _minimal_nonfaces(self) -> tuple[Face, ...]:
        # a set is a nonface iff it meets the complement of every facet
        full = self.vertices.full_face
        return tuple(minimal_hitting_sets(full ^ f for f in self.facets))


def _maximal(faces: Iterable[Face], n: int) -> list[Face]:
    """The inclusion-maximal members of ``faces`` (over ``n`` vertices), once
    each, in canonical facet order: cardinality descending, then bit pattern.
    A face outside the vertex set raises :class:`InvalidVertex`.

    One pass over the distinct faces, largest first: a face can only lie in
    a larger kept face, so the faces of the top size (every face of a pure
    input) are kept untested.  When the size drops, :func:`_holders` indexes
    the faces kept since the last drop, and that batch, shifted to their
    positions, joins the per-vertex bitmasks of the kept faces, so testing a
    face costs |F| ANDs of those, not a pass over the kept faces.  Shifting
    the batch in, rather than indexing every kept face again at each drop,
    keeps each kept face indexed once."""
    pool = sorted(set(faces))
    if pool and (pool[0] < 0 or pool[-1] >> n):  # sorted by value: the ends bound every face
        raise InvalidVertex(f"face uses vertex positions outside 0..{n - 1}")
    pool.sort(key=int.bit_count, reverse=True)  # stable, so ties keep bit order
    out: list[Face] = []
    holders: list[int] = []  # entry v: bitmask of the positions in out[:larger] holding v
    larger = 0  # out[:larger] are the kept faces larger than this one
    for face in pool:
        if len(out) > larger and face.bit_count() < out[-1].bit_count():
            batch = _holders(map(face_bits, out[larger:]), n)
            holders = [h | b << larger for h, b in zip(holders, batch)] if larger else batch
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
    large-scale hypergraphs*, 2014).  It sorts the family by size once and
    branches on the first unhit member in that order.  Branching on any unhit
    member gives the same transversals; the size order puts small members,
    which branch least, first, so the cost does not hang on the order the
    caller lists the members in.  A chosen vertex is kept only while some
    member is hit by it alone (its critical member), so every transversal it
    reaches is minimal.  The vertices of the branched member leave the
    candidates and each comes back only after its own subtree, so each
    minimal transversal is reached once.  Sets of members are bitmasks over
    their positions in the family.  The candidates start as the members'
    union, whose length sizes the per-vertex index, and the transversals are
    put in canonical face order by two stable sorts on C-level keys (value,
    then size).

    The empty family has the single minimal transversal 0; a family holding
    the empty set has none; a negative member raises :class:`ValueError`.
    """
    family = sorted(sets, key=int.bit_count)
    union = 0  # the candidate vertices: those of some member
    for member in family:
        union |= member
    if union < 0:
        raise ValueError("a set is a nonnegative bitmask, got a negative member")
    holders = _holders(map(face_bits, family), union.bit_length())
    found: list[int] = []

    def mmcs(chosen: int, cand: int, unhit: int, crit: list[int]) -> None:
        # crit holds, per chosen vertex, the members it alone hits
        if not unhit:
            found.append(chosen)
            return
        branch = cand & family[(unhit & -unhit).bit_length() - 1]
        cand &= ~branch
        for b in face_bits(branch):
            hit = holders[b]
            # c ^ c & hit costs the length of c; c & ~hit would build the
            # complement of hit, as long as the family, for every c
            kept = [c ^ c & hit for c in crit]
            if all(kept):
                kept.append(unhit & hit)
                mmcs(chosen | 1 << b, cand, unhit ^ unhit & hit, kept)
            cand |= 1 << b

    mmcs(0, union, (1 << len(family)) - 1, [])
    return sorted(sorted(found), key=int.bit_count)  # stable: canonical face order


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
    every complex has, is counted once.  The counts are kept on the
    complex, so they are collected once per complex."""
    return cplx._f_vector


def h_vector(cplx: SimplicialComplex) -> HVector:
    """Alternating binomial transform of the f-vector, in exact integer
    arithmetic: entry j sums (-1)^(j-i) C(d-i, j-i) f_(i-1) over i <= j.

    With F(x) the sum of f_(i-1) x^(d-i), the sum of h_j x^(d-j) is
    F(x - 1), so h is a Taylor shift of f by -1: each pass is a synthetic
    division by x + 1 (left to right, each entry less the new one before
    it), whose remainder fixes one more entry from the right."""
    h = list(cplx._f_vector)
    for top in range(len(h) - 1, 0, -1):
        for j in range(1, top + 1):
            h[j] -= h[j - 1]
    return tuple(h)


def is_pure(cplx: SimplicialComplex) -> bool:
    """True when all facets have equal cardinality: canonical facet order
    puts a largest facet first and a smallest last, so those two decide."""
    return cplx.facets[0].bit_count() == cplx.facets[-1].bit_count()


def is_simplex(cplx: SimplicialComplex) -> bool:
    """True when the complex has exactly one facet (the irrelevant complex
    counts)."""
    return len(cplx.facets) == 1


def all_faces(cplx: SimplicialComplex, k: int) -> list[Face]:
    """Nonempty faces of dimension at most ``k``, in canonical face order.

    Lists the subsets of one to k + 1 vertices of each facet, so a facet F
    costs C(|F|, 1) + ... + C(|F|, k + 1) sets, not 2^|F|."""
    if k < 0:
        raise ValueError("k must be >= 0")
    faces: set[Face] = set()
    for facet in cplx.facets:
        bits = [1 << b for b in face_bits(facet)]
        for size in range(1, min(k + 1, len(bits)) + 1):
            faces.update(map(sum, combinations(bits, size)))
    return sorted(sorted(faces), key=int.bit_count)  # stable: canonical face order


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
