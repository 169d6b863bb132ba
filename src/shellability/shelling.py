"""Shelling orders: verification, restriction faces, and a backtracking search.

Every caller uses one step test, :func:`_step`.  The facets are indices in
a bitmask, the facets placed so far are a bitmask ``placed``, and
``holders[v]`` is a bitmask of facets that contain vertex v, among them
every placed one.  Facet F extends the placed facets when its restriction
face, the set R of vertices x for which F minus x lies in a placed facet,
lies in no placed facet itself; R is then the unique minimal face that F
adds.  By Björner and Wachs (*Shellable nonpure complexes and posets I*,
1996) this form holds for pure and non-pure complexes alike.  A step costs
O(|F|) bitmask operations, whatever the number of placed facets.

A given order is read with one walk, :func:`_walk`, which checks that the
order lists the facets and hands each facet its vertices, the placed set and
an index that holds exactly the placed facets: it indexes each facet after
its step, so a caller that stops at a failed step indexes nothing past it.
Verification, restriction faces and (in :mod:`~shellability.duality`) linear
quotients all run on it, and the linear-quotient test is verification on
the generators' complements, so each restriction face is computed one way.
The search builds its index once, for every facet: a step reads it only
inside ``placed``, through ANDs with subsets of ``placed``, and never
inverts an entry, so each operation costs the length of the placed set, not
of the whole index, and taking a facet back is clearing one bit of
``placed``; its candidates come from a second index built the same way,
keyed by facet size.  A candidate F none of whose ridges (F minus one
vertex) lies in a placed facet has an empty restriction face, which every
placed facet holds, so once something is placed the search skips F without
a step test.  From a facet's first failure on (a failed step, a skip or a
refuted set), the search keeps its ridge mask, the other facets that hold
one of its ridges (its sieve against all of them), so each later sieve of
that facet is one AND with ``placed``.  A search that never fails keeps no
mask, so the masks grow with the work done, like the memo below.

The search remembers every placed set it has refuted, as the
decomposability recursion remembers every node: at most one set per
exhausted node, so the memo grows with the work done and never past it.
The step test depends only on the *set* of earlier facets, and the facets
tried next (the largest remaining ones, in the given order) only on the
remaining set, so a refuted set is refuted wherever the search meets it
again, and skipping it changes no answer: the first order found stays the
same.  A memo that stopped recording at some size would hold a subset of
this one, so it could only add step tests: on a non-shellable pure
2-complex with 20 facets on 8 vertices, full recording answers after
449,730 step tests and 143,343 refuted sets, where a cap of 131,072 sets
made over 24 million step tests (without the skip) and had no answer yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# minimal_hitting_sets lives in complexes; it is re-exported here only because
# bench/spans.py looks its span up in this module
from .complexes import (
    _SHELLABLE,
    Face,
    HVector,
    SimplicialComplex,
    _holders,
    face_bits,
    facet_permutation,
    minimal_hitting_sets,
)
from .errors import InvalidOrder

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ShellingOrder:
    """A facet order together with each step's unique minimal new face."""

    facets: tuple[Face, ...]
    restrictions: tuple[Face, ...]


def _sieve(holders: list[int], among: int, verts: list[int]) -> int:
    """The facets in bitmask ``among`` that miss exactly one of the vertices
    ``verts``, where ``holders[v]`` is the bitmask of the facets holding
    vertex v, read only inside ``among``.  The vertices they miss form the
    restriction face of the facet on ``verts`` against ``among``."""
    none, once = among, 0  # facets missing no vertex / one vertex so far
    for v in verts:
        h = holders[v]
        hit = none & h
        once = once & h | none ^ hit
        none = hit
    return once


def _step(holders: list[int], placed: int, verts: list[int], once: int) -> Face | None:
    """Restriction face of the facet on vertices ``verts`` placed after the
    facets in bitmask ``placed``, or ``None`` when that step does not shell.

    ``holders[v]`` is the bitmask of the facets that contain vertex v, read
    only inside ``placed``, and ``once`` is :func:`_sieve` of the facet
    against ``placed``: the placed facets that miss exactly one of its
    vertices.  The vertices they miss form the restriction face R, and the
    step shells iff no placed facet holds all of R.  An empty ``once`` makes
    R empty, and every placed facet holds the empty face, so such a step
    fails whenever anything is placed: a facet with no placed facet on one
    of its ridges cannot come next."""
    rest, over = 0, placed  # over: the placed facets holding all of R so far
    for v in verts:
        h = holders[v]
        if once & h != once:
            rest |= 1 << v
            over &= h
    return None if over else rest


def _walk(cplx: SimplicialComplex, order: Sequence[Face]):
    """Yield ``(holders, placed, verts, once)`` for each facet along
    ``order``, a permutation of the complex's facets (else
    :class:`InvalidOrder` on the first ``next()``): ``placed`` is the
    bitmask of the facets before this one, ``holders[v]`` the bitmask of
    those among them holding vertex v, ``verts`` this facet's vertices and
    ``once`` the earlier facets that miss exactly one of them (its
    :func:`_sieve`), ready for :func:`_step`.  Past the first facet an empty
    ``once`` means no earlier facet holds a ridge of this one, so its
    restriction face is empty and its step fails.  A facet joins the index
    only after its step, so a caller that stops early indexes nothing past
    its stop.  The index grows here rather than in
    :func:`~shellability.complexes._holders`, the builder of every
    whole-family index, because indexing the whole order first would make a
    refutation at step 1 pay for every facet.  The walk never stops
    itself."""
    holders = [0] * cplx.vertices.n
    placed = 0
    for i, facet in enumerate(facet_permutation(cplx, order)):
        verts = face_bits(facet)
        yield holders, placed, verts, _sieve(holders, placed, verts)
        bit = 1 << i
        for v in verts:
            holders[v] |= bit
        placed |= bit


def is_shelling_order(cplx: SimplicialComplex, order: Sequence[Face]) -> bool:
    """Whether ``order`` shells the complex, pure or not."""
    return all(_step(*step) is not None for step in _walk(cplx, order))


def restriction_faces(cplx: SimplicialComplex, order: Sequence[Face]) -> list[Face]:
    """The unique minimal new face of each step of a shelling order of the
    complex, pure or not (the empty face at position 0)."""
    out = []
    for step in _walk(cplx, order):
        rest = _step(*step)
        if rest is None:
            raise InvalidOrder(f"not a shelling order at step {len(out) + 1}")
        out.append(rest)
    return out


def h_from_shelling(cplx: SimplicialComplex, order: Sequence[Face]) -> HVector:
    """h-vector read off a shelling order, pure or not.

    The faces split into the intervals [R_i, F_i] from each step's
    restriction face to its facet, and the faces of one interval add
    t^|R_i| (1 - t)^(d - |F_i|) to h(t), where d = dim + 1.  On a pure
    complex every |F_i| = d, so entry j counts the steps whose restriction
    face has j vertices."""
    seq = list(order)  # restriction_faces validates it
    d = cplx.dimension() + 1
    h = [0] * (d + 1)
    for facet, r in zip(seq, restriction_faces(cplx, seq)):
        low, gap = r.bit_count(), d - facet.bit_count()
        for k in range(gap + 1):
            h[low + k] += (-1) ** k * math.comb(gap, k)
    return tuple(h)


def _splitmix64(seed: int):
    # stable across platforms and Python versions, unlike random.shuffle
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def shuffled_facets(cplx: SimplicialComplex, seed: int) -> list[Face]:
    """The facets in a seeded random order, for :func:`shelling_order`.

    The shuffle draws from splitmix64 on ``seed`` mod 2**64, so a seed gives
    the same order on every platform and Python version."""
    out = list(cplx.facets)
    stream = _splitmix64(seed)
    for i in range(len(out) - 1, 0, -1):
        j = next(stream) % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def shelling_order(
    cplx: SimplicialComplex, order: Sequence[Face] | None = None
) -> ShellingOrder | None:
    """Depth-first search for a shelling order; ``None`` if there is none.

    The facets are tried first-fit in ``order`` (the canonical facet order
    when ``None``), one facet at a time, backtracking on failure.  Only
    facets of maximal remaining cardinality are candidates (vacuous for pure
    complexes), so returned orders have weakly decreasing dimension.  Every
    set of placed facets found to have no completion is remembered (one per
    exhausted node) and skipped when met again, and so is a candidate with
    no placed facet on any of its ridges; neither changes any answer.
    Deterministic for a fixed order.  Raises :class:`InvalidOrder` when
    ``order`` is not a permutation of the facets.

    The search is complete whatever ``order`` is, so its answer is recorded
    on the complex as its shellability (see
    :mod:`~shellability.decomposability`); being asked for a witness, it
    always searches and never reads the record.
    """
    arranged = list(cplx.facets) if order is None else facet_permutation(cplx, order)
    n = len(arranged)
    verts = [face_bits(f) for f in arranged]
    # bitmasks of the facet indices of each size, largest size first
    by_size = _holders([[len(vs)] for vs in verts], cplx.vertices.n + 1)
    levels = [m for m in reversed(by_size) if m]
    holders = _holders(verts, cplx.vertices.n)
    everyone = (1 << n) - 1
    dead: set[int] = set()  # placed sets with no shelling completion
    # facet index -> the other facets that hold one of its ridges, kept
    # from that facet's first failure on
    ridges: dict[int, int] = {}
    placed = 0
    path: list[int] = []  # the depth-first path, as indices into arranged
    rests: list[Face] = []
    start = 0  # first index to try at the current depth
    while len(path) < n:
        free = ~placed
        for cands in levels:  # the unplaced facets of the largest remaining size
            cands &= free
            if cands:
                break
        cands &= -(1 << start)
        while cands:
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            vs = verts[i]
            ridge = ridges.get(i)
            once = _sieve(holders, placed, vs) if ridge is None else ridge & placed
            # an empty once fails the step once anything is placed
            if (once or not placed) and placed | low not in dead:
                rest = _step(holders, placed, vs, once)
                if rest is not None:
                    break
            if ridge is None:
                ridges[i] = _sieve(holders, everyone ^ low, vs)
        else:
            dead.add(placed)
            if not path:
                cplx._learn(_SHELLABLE, False)
                return None
            i = path.pop()
            placed ^= 1 << i
            rests.pop()
            start = i + 1
            continue
        placed |= low
        path.append(i)
        rests.append(rest)
        start = 0
    cplx._learn(_SHELLABLE, True)
    return ShellingOrder(tuple(arranged[i] for i in path), tuple(rests))


def is_shellable(cplx: SimplicialComplex) -> bool:
    """Whether some shelling order exists (searched in canonical order,
    unless the complex's verdict record already says)."""
    known = cplx._known(_SHELLABLE)
    return shelling_order(cplx) is not None if known is None else known
