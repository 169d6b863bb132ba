"""Shelling orders: verification, restriction faces, and a backtracking search.

Every caller uses one step test, :func:`_step`.  Facet F extends a shelling
when each difference F minus G with an earlier facet G contains a vertex x
for which F minus x lies in an earlier facet, that is, a vertex that is itself
a one-vertex difference.  The union of those vertices is the restriction face,
the unique minimal face that F adds.  By Björner and Wachs (*Shellable nonpure
complexes and posets I*, 1996) this form holds for pure and non-pure complexes
alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# minimal_hitting_sets moved to complexes, whose from_nonfaces needs it and
# which cannot import this module; it is still importable from here
from .complexes import (
    Face,
    HVector,
    SimplicialComplex,
    facet_permutation,
    is_pure,
    minimal_hitting_sets,
)
from .errors import InvalidOrder, NotPure

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ShellingOrder:
    """A facet order together with each step's unique minimal new face."""

    facets: tuple[Face, ...]
    restrictions: tuple[Face, ...]


def _step(prefix: Sequence[Face], facet: Face) -> Face | None:
    """Restriction face of ``facet`` placed after ``prefix``, or ``None`` when
    that step does not shell."""
    rest = 0
    wide: list[Face] = []
    for prev in prefix:
        d = facet & ~prev
        if d.bit_count() == 1:
            rest |= d
        else:
            wide.append(d)
    for d in wide:
        if not d & rest:
            return None
    return rest


def is_shelling_order(cplx: SimplicialComplex, order: Sequence[Face]) -> bool:
    """Whether ``order`` shells the complex, pure or not."""
    seq = facet_permutation(cplx, order)
    return all(_step(seq[:i], seq[i]) is not None for i in range(1, len(seq)))


def restriction_faces(cplx: SimplicialComplex, order: Sequence[Face]) -> list[Face]:
    """The unique minimal new face of each step of a shelling order of a pure
    complex (the empty face at position 0)."""
    seq = facet_permutation(cplx, order)
    if not is_pure(cplx):
        raise NotPure("restriction faces are defined for pure complexes")
    out: list[Face] = []
    for i, facet in enumerate(seq):
        rest = _step(seq[:i], facet)
        if rest is None:
            raise InvalidOrder(f"not a shelling order at step {i + 1}")
        out.append(rest)
    return out


def h_from_shelling(cplx: SimplicialComplex, order: Sequence[Face]) -> HVector:
    """h-vector read off a shelling order: entry j counts the steps whose
    restriction face has j vertices."""
    rests = restriction_faces(cplx, order)
    d = cplx.dimension() + 1
    h = [0] * (d + 1)
    for r in rests:
        h[r.bit_count()] += 1
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
    complexes), so returned orders have weakly decreasing dimension.
    Deterministic for a fixed order.  Raises :class:`InvalidOrder` when
    ``order`` is not a permutation of the facets.
    """
    arranged = list(cplx.facets) if order is None else facet_permutation(cplx, order)
    n = len(arranged)
    sizes = [f.bit_count() for f in arranged]
    used = [False] * n
    placed: list[int] = []  # the depth-first path, as indices into arranged
    prefix: list[Face] = []
    rests: list[Face] = []
    start = 0  # first index to try at the current depth
    while len(placed) < n:
        largest = max(sizes[i] for i in range(n) if not used[i])
        for i in range(start, n):
            if not used[i] and sizes[i] == largest:
                rest = _step(prefix, arranged[i])
                if rest is not None:
                    break
        else:
            if not placed:
                return None
            i = placed.pop()
            used[i] = False
            prefix.pop()
            rests.pop()
            start = i + 1
            continue
        used[i] = True
        placed.append(i)
        prefix.append(arranged[i])
        rests.append(rest)
        start = 0
    return ShellingOrder(tuple(prefix), tuple(rests))


def is_shellable(cplx: SimplicialComplex) -> bool:
    """Whether some shelling order exists (searched in canonical order)."""
    return shelling_order(cplx) is not None
