"""Answers for the benchmark's correctness checks, computed without the library.

Nothing here imports ``shellability``.  Faces are plain ``int`` bitmasks over
vertex positions, and every answer comes straight from a definition: faces by
enumerating the subsets of each facet, shellability by dynamic programming
over sets of facets, decomposability by the shedding recursions of
Provan and Billera written out again.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

Face = int


def bits(mask: int) -> list[int]:
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def facet_key(face: Face) -> tuple[int, int]:
    return (-face.bit_count(), face)


def face_key(face: Face) -> tuple[int, int]:
    return (face.bit_count(), face)


def canonical(faces: Iterable[Face]) -> tuple[Face, ...]:
    """Inclusion-maximal faces, largest first, then by bit pattern."""
    pool = sorted(set(faces), key=facet_key)
    kept: list[Face] = []
    for f in pool:
        if not any(f & ~g == 0 for g in kept):
            kept.append(f)
    return tuple(sorted(kept, key=facet_key))


def permute(face: Face, perm: Sequence[int]) -> Face:
    """Move the vertex at position ``p`` to position ``perm[p]``."""
    out = 0
    for b in bits(face):
        out |= 1 << perm[b]
    return out


def faces_of(facets: Iterable[Face]) -> set[Face]:
    out: set[Face] = set()
    for facet in facets:
        sub = facet
        while True:
            out.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & facet
    return out


def f_vector(facets: Sequence[Face]) -> tuple[int, ...]:
    top = max(f.bit_count() for f in facets)
    counts = [0] * (top + 1)
    for face in faces_of(facets):
        counts[face.bit_count()] += 1
    return tuple(counts)


def h_vector(f: Sequence[int]) -> tuple[int, ...]:
    d = len(f) - 1
    return tuple(
        sum((-1) ** (j - i) * math.comb(d - i, j - i) * f[i] for i in range(j + 1))
        for j in range(d + 1)
    )


def minimal_nonfaces(facets: Sequence[Face], n: int) -> list[Face]:
    """Every minimal nonface is a face plus one vertex; keep those whose
    one-smaller subsets are all faces.  Sorted by size, then bit pattern."""
    faces = faces_of(facets)
    found: set[Face] = set()
    for face in faces:
        for v in range(n):
            cand = face | 1 << v
            if cand == face or cand in faces or cand in found:
                continue
            if all(cand & ~(1 << u) in faces for u in bits(cand)):
                found.add(cand)
    return sorted(found, key=face_key)


def link(facets: Sequence[Face], face: Face) -> tuple[Face, ...]:
    return canonical(f & ~face for f in facets if face & ~f == 0)


def deletion(facets: Sequence[Face], face: Face) -> tuple[Face, ...]:
    out: list[Face] = []
    for f in facets:
        if face & ~f:
            out.append(f)
        else:
            out.extend(f & ~(1 << b) for b in bits(face))
    return canonical(out)


def restriction(earlier: Iterable[Face], facet: Face) -> Face:
    """Vertices v of ``facet`` with facet minus v inside an earlier facet."""
    rest = 0
    for g in earlier:
        d = facet & ~g
        if d.bit_count() == 1:
            rest |= d
    return rest


def step_ok(earlier: Sequence[Face], facet: Face) -> bool:
    """The faces the facet shares with earlier facets form a pure complex one
    dimension down: each shared face lies in some facet-minus-a-vertex that an
    earlier facet covers."""
    if not earlier:
        return True
    rest = restriction(earlier, facet)
    return all((facet & ~g) & rest for g in earlier)


def check_shelling(
    facets: Sequence[Face], order: Sequence[Face], restrictions: Sequence[Face] | None
) -> str | None:
    """Reason the order is not a shelling of the complex, or None."""
    if sorted(order) != sorted(facets):
        return "order is not a permutation of the facets"
    for i, facet in enumerate(order):
        if not step_ok(order[:i], facet):
            return f"step {i + 1} does not shell"
        if restrictions is not None and restrictions[i] != restriction(order[:i], facet):
            return f"wrong restriction face at step {i + 1}"
    return None


def shelling_profile(
    facets: Sequence[Face], node_limit: int | None = None
) -> tuple[bool | None, int]:
    """Whether the complex is shellable, and how many ordered prefixes pass
    every step test (the node count of an exhaustive first-fit search).
    Past ``node_limit`` nodes it stops and answers None.

    Dynamic programming over sets of facets: the step test depends only on
    the set of earlier facets, so a set is reachable when some member extends
    a reachable set.  Meant for at most 16 facets.
    """
    m = len(facets)
    if m > 16:
        raise ValueError("the subset oracle handles at most 16 facets")
    ways = [0] * (1 << m)
    ways[0] = 1
    nodes = 0
    for s in range(1 << m):
        if not ways[s]:
            continue
        nodes += ways[s]
        if node_limit is not None and nodes > node_limit:
            return None, nodes
        earlier = [facets[j] for j in range(m) if s >> j & 1]
        for i in range(m):
            if not s >> i & 1 and step_ok(earlier, facets[i]):
                ways[s | 1 << i] += ways[s]
    return ways[-1] > 0, nodes


def sheds(facets: Sequence[Face], face: Face) -> bool:
    """Deleting ``face`` loses no facet: each facet minus a vertex of the face
    lies in some facet that does not contain the face."""
    avoiding = [g for g in facets if face & ~g]
    for f in facets:
        if face & ~f:
            continue
        for b in bits(face):
            smaller = f & ~(1 << b)
            if not any(smaller & ~g == 0 for g in avoiding):
                return False
    return True


def small_faces(facets: Sequence[Face], k: int) -> list[Face]:
    """Nonempty faces of dimension at most k, by size then bit pattern."""
    return sorted(
        (f for f in faces_of(facets) if 0 < f.bit_count() <= k + 1), key=face_key
    )


def is_k_decomposable(facets: tuple[Face, ...], k: int, memo: dict) -> bool:
    if len(facets) == 1:
        return True
    key = (facets, k)
    if key not in memo:
        memo[key] = any(
            sheds(facets, face)
            and is_k_decomposable(link(facets, face), k, memo)
            and is_k_decomposable(deletion(facets, face), k, memo)
            for face in small_faces(facets, k)
        )
    return memo[key]


def shedding_vertices(facets: tuple[Face, ...], memo: dict) -> list[Face]:
    occupied = 0
    for f in facets:
        occupied |= f
    return [
        1 << v
        for v in bits(occupied)
        if sheds(facets, 1 << v)
        and is_k_decomposable(link(facets, 1 << v), 0, memo)
        and is_k_decomposable(deletion(facets, 1 << v), 0, memo)
    ]
