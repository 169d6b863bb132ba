"""Shelling orders: verification, restriction faces, and a backtracking search.

Every caller uses one step test, :func:`_step`.  The facets placed so far are
indices in a bitmask, and ``holders[v]`` is the bitmask of the placed facets
that contain vertex v.  Facet F extends them when its restriction face, the
set R of vertices x for which F minus x lies in a placed facet, lies in no
placed facet itself; R is then the unique minimal face that F adds.  By
Björner and Wachs (*Shellable nonpure complexes and posets I*, 1996) this
form holds for pure and non-pure complexes alike.  A step costs O(|F|)
bitmask operations, whatever the number of placed facets.

A given order is read with one walk, :func:`_walk`, which hands each facet
its ``holders`` and placed set; verification, restriction faces and (in
:mod:`~shellability.duality`) linear quotients and the linear-quotient test
all run on it, so each restriction face is computed one way.  The search
keeps its own ``holders``, since it also takes facets back.

The search remembers the placed sets it has refuted.  The step test depends
only on the *set* of earlier facets, and the facets tried next (the largest
remaining ones, in the given order) only on the remaining set, so a refuted
set is refuted wherever the search meets it again, and skipping it changes
no answer: the first order found stays the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# minimal_hitting_sets lives in complexes; it is re-exported here only because
# bench/spans.py looks its span up in this module
from .complexes import (
    Face,
    HVector,
    SimplicialComplex,
    face_bits,
    facet_permutation,
    minimal_hitting_sets,
)
from .errors import InvalidOrder

_MASK64 = (1 << 64) - 1
# the most refuted sets one search remembers (about 12 MB when a set is a
# bitmask of under 64 facets, 28 MB of 1,140); past it the search records no
# more, so it may redo work but gives the same answer
_DEAD_SETS_CAP = 1 << 17


@dataclass(frozen=True)
class ShellingOrder:
    """A facet order together with each step's unique minimal new face."""

    facets: tuple[Face, ...]
    restrictions: tuple[Face, ...]


def _sieve(holders: list[int], among: int, verts: list[int]) -> int:
    """The facets in bitmask ``among`` that miss exactly one of the vertices
    ``verts``, where ``holders[v]`` is the bitmask of the facets holding
    vertex v.  The vertices they miss form the restriction face of the facet
    on ``verts`` against ``among``."""
    none, once = among, 0  # facets missing no vertex / one vertex so far
    for v in verts:
        h = holders[v]
        once = once & h | none & ~h
        none &= h
    return once


def _step(holders: list[int], placed: int, verts: list[int]) -> Face | None:
    """Restriction face of the facet on vertices ``verts`` placed after the
    facets in bitmask ``placed``, or ``None`` when that step does not shell.

    ``holders[v]`` is the bitmask of the placed facets that contain vertex v.
    :func:`_sieve` finds the placed facets that miss exactly one vertex of
    the facet; the vertices they miss form the restriction face R, and the
    step shells iff no placed facet holds all of R."""
    once = _sieve(holders, placed, verts)
    rest, over = 0, placed  # over: the placed facets holding all of R so far
    for v in verts:
        h = holders[v]
        if once & ~h:
            rest |= 1 << v
            over &= h
    return None if over else rest


def _walk(seq: Sequence[Face], n: int):
    """Yield ``(holders, placed, verts)`` for each facet along ``seq`` (faces
    over ``n`` vertices): ``placed`` is the bitmask of the facets before it,
    ``holders[v]`` the bitmask of those holding vertex v, and ``verts`` the
    facet's vertices, ready for :func:`_step` or :func:`_sieve`.  The walk
    never stops itself and ``holders`` is updated in place, so read each step
    before taking the next."""
    holders = [0] * n
    for i, facet in enumerate(seq):
        verts = face_bits(facet)
        yield holders, (1 << i) - 1, verts
        for v in verts:
            holders[v] |= 1 << i


def is_shelling_order(cplx: SimplicialComplex, order: Sequence[Face]) -> bool:
    """Whether ``order`` shells the complex, pure or not."""
    seq = facet_permutation(cplx, order)
    return all(_step(*step) is not None for step in _walk(seq, cplx.vertices.n))


def restriction_faces(cplx: SimplicialComplex, order: Sequence[Face]) -> list[Face]:
    """The unique minimal new face of each step of a shelling order of the
    complex, pure or not (the empty face at position 0)."""
    seq = facet_permutation(cplx, order)
    out = []
    for step in _walk(seq, cplx.vertices.n):
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
    complexes), so returned orders have weakly decreasing dimension.  Sets
    of placed facets already refuted are skipped (up to ``_DEAD_SETS_CAP``
    of them are remembered), which changes no answer.  Deterministic for a
    fixed order.  Raises :class:`InvalidOrder` when ``order`` is not a
    permutation of the facets.
    """
    arranged = list(cplx.facets) if order is None else facet_permutation(cplx, order)
    n = len(arranged)
    verts = [face_bits(f) for f in arranged]
    # bitmasks of the facet indices of each size, largest size first
    of_size: dict[int, int] = {}
    for i, vs in enumerate(verts):
        of_size[len(vs)] = of_size.get(len(vs), 0) | 1 << i
    levels = [of_size[z] for z in sorted(of_size, reverse=True)]
    level = 0  # index into levels of the largest remaining size
    holders = [0] * cplx.vertices.n
    dead: set[int] = set()  # placed sets with no shelling completion
    placed = 0
    path: list[int] = []  # the depth-first path, as indices into arranged
    rests: list[Face] = []
    start = 0  # first index to try at the current depth
    while len(path) < n:
        if not levels[level] & ~placed:
            level += 1
        cands = levels[level] & ~placed & -(1 << start)
        while cands:
            low = cands & -cands
            cands ^= low
            if placed | low not in dead:
                i = low.bit_length() - 1
                rest = _step(holders, placed, verts[i])
                if rest is not None:
                    break
        else:
            if len(dead) < _DEAD_SETS_CAP:
                dead.add(placed)
            if not path:
                return None
            i = path.pop()
            low = 1 << i
            placed ^= low
            for v in verts[i]:
                holders[v] ^= low
            rests.pop()
            if not levels[level] & low:
                level -= 1
            start = i + 1
            continue
        placed |= low
        for v in verts[i]:
            holders[v] |= low
        path.append(i)
        rests.append(rest)
        start = 0
    return ShellingOrder(tuple(arranged[i] for i in path), tuple(rests))


def is_shellable(cplx: SimplicialComplex) -> bool:
    """Whether some shelling order exists (searched in canonical order)."""
    return shelling_order(cplx) is not None
