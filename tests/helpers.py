"""Shared builders, random generators, and brute-force oracles for the tests.

The oracles deliberately avoid the library's own algorithms: faces are found
by filtering all 2^n subsets, shelling steps by enumerating the subsets of
each facet (and the first shelling order by a memo-free depth-first search
on those steps, and shellability by the same search keeping its refuted
sets), transversals by scanning the whole power set of the universe,
linear quotients by comparing every pair of earlier generators or facets,
and decomposability by recursing on brute face sets (deletion and link by
filtering, each face set's verdict kept for the rest of the top-level call).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import strategies as st

from shellability import (
    Face,
    SimplicialComplex,
    VertexSet,
    from_facets,
)

LETTERS = "abcdefghij"

DEMO_FACETS = "ceg beg aeg bdg adg cef bef aef"
DEMO_NONFACES = "ab ac bc cd de df fg"
O1 = DEMO_FACETS
O2 = "beg aeg adg bef cef aef ceg bdg"
O3 = "bdg beg aeg ceg adg cef bef aef"
Q1 = [("b",), ("a",), ("d",), ("d", "a"), ("f",), ("f", "b"), ("f", "a")]
Q2 = [("a",), ("d",), ("f",), ("c",), ("f", "a"), ("c", "g"), ("d", "b")]
Q3 = [("e",), ("a",), ("c",), ("a", "d"), ("f",), ("f", "b"), ("f", "a")]


def vset(labels: str) -> VertexSet:
    return VertexSet(tuple(labels))


def cx(labels: str, facets: str) -> SimplicialComplex:
    """Complex from single-character labels; facets as 'abc bd ...'."""
    vs = vset(labels)
    return from_facets(vs, [vs.face(tuple(word)) for word in facets.split()])


def fresh(cplx: SimplicialComplex) -> SimplicialComplex:
    """An equal copy of ``cplx`` with nothing decided on it.  A complex
    keeps a record of the verdicts decided on it, and a later verdict may be
    read off that record, so a test that compares two verdicts computes each
    on its own copy."""
    return from_facets(cplx.vertices, cplx.facets)


def fc(cplx: SimplicialComplex, word: str) -> Face:
    return cplx.vertices.face(tuple(word))


def faces_of(cplx: SimplicialComplex, words: str) -> list[Face]:
    return [fc(cplx, w) for w in words.split()]


def words(cplx: SimplicialComplex, faces) -> list[str]:
    return ["".join(cplx.vertices.face_labels(f)) for f in faces]


def label_sets(cplx: SimplicialComplex, faces) -> set[frozenset[str]]:
    return {frozenset(cplx.vertices.face_labels(f)) for f in faces}


def demo_complex() -> SimplicialComplex:
    return cx("abcdefg", DEMO_FACETS)


def bowtie(m: int) -> SimplicialComplex:
    """Two fans of m triangles on v0..v(2m+2) sharing only their apex v0:
    pure and connected but not shellable, and a first-fit search over the
    canonical order refutes it only after trying many prefixes."""
    vs = VertexSet(tuple(f"v{i}" for i in range(2 * m + 3)))
    facets = []
    for start in (1, m + 2):
        facets.extend(1 | 1 << i | 1 << (i + 1) for i in range(start, start + m))
    return from_facets(vs, facets)


def two_large_facets() -> SimplicialComplex:
    """Two 40-vertex facets on v0..v40 sharing v1..v39: far too many
    subsets per facet to list them all."""
    vs = VertexSet(tuple(f"v{i}" for i in range(41)))
    return from_facets(vs, [(1 << 40) - 1, ((1 << 41) - 1) ^ 1])


def twenty_facets() -> SimplicialComplex:
    """A pure 2-complex on 8 vertices that is not shellable; refuting it
    takes the shelling search 449,730 step tests and 143,343 refuted sets."""
    facets = [19, 41, 49, 50, 56, 67, 70, 73, 81, 82, 84, 88, 97, 112, 137,
              138, 168, 200, 208, 224]
    return from_facets(VertexSet(tuple("abcdefgh")), facets)


def shellable_not_vd() -> SimplicialComplex:
    """A pure 2-complex on 7 vertices with 13 triangles and h = (1, 4, 8, 0)
    that is shellable and 1-decomposable but not vertex-decomposable."""
    facets = [7, 19, 21, 26, 28, 41, 42, 56, 67, 73, 82, 97, 112]
    return from_facets(VertexSet(tuple("abcdefg")), facets)


def eleven_triangles() -> SimplicialComplex:
    """A pure 2-complex on 7 vertices with 11 triangles and h = (1, 4, 6, 0)
    that is not shellable and no vertex lies in every triangle, so the
    decomposability recursion has to search it."""
    return cx("abcdefg", "abd acd ade bde acf def bdg beg afg dfg efg")


def two_skeleton(n: int) -> SimplicialComplex:
    """Every triangle on v0..v(n-1): the 2-skeleton of the (n-1)-simplex."""
    vs = VertexSet(tuple(f"v{i}" for i in range(n)))
    return from_facets(vs, [sum(1 << b for b in t) for t in combinations(range(n), 3)])


def graph(n: int, edges) -> SimplicialComplex:
    """The graph on v0..v(n-1) with the given (i, j) edges."""
    vs = VertexSet(tuple(f"v{i}" for i in range(n)))
    return from_facets(vs, [1 << i | 1 << j for i, j in edges])


# --- work counts ----------------------------------------------------------

@contextmanager
def counted_calls(module, name: str, limit: int):
    """Count the calls to ``module.name`` inside the block, in the yielded
    one-item list.  Past ``limit`` calls it raises, so a search that loses
    its memo or a shortcut fails in seconds instead of hanging."""
    calls = [0]
    inner = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        if calls[0] > limit:
            raise AssertionError(f"over {limit:,} calls to {name}")
        return inner(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, counted)
        yield calls


# --- deterministic random generators -------------------------------------

def random_complex(rng: random.Random, max_vertices=7, max_faces=8) -> SimplicialComplex:
    n = rng.randint(1, max_vertices)
    vs = VertexSet(tuple(LETTERS[:n]))
    m = rng.randint(1, max_faces)
    return from_facets(vs, [rng.randint(1, (1 << n) - 1) for _ in range(m)])


def random_pure_complex(
    rng: random.Random, max_vertices=7, max_facets=6
) -> SimplicialComplex:
    n = rng.randint(2, max_vertices)
    k = rng.randint(1, n)
    pool = [sum(1 << b for b in c) for c in combinations(range(n), k)]
    m = rng.randint(1, min(max_facets, len(pool)))
    return from_facets(VertexSet(tuple(LETTERS[:n])), rng.sample(pool, m))


def antichains(n: int):
    """Every nonempty antichain of subsets of n vertices, {0} included: the
    subsets are taken largest first, and each joins only if no chosen one
    holds it."""
    pool = sorted(range(1 << n), key=int.bit_count, reverse=True)

    def extend(i, chosen):
        if i == len(pool):
            if chosen:
                yield chosen
            return
        yield from extend(i + 1, chosen)
        if not any(pool[i] & ~t == 0 for t in chosen):
            yield from extend(i + 1, [*chosen, pool[i]])

    return extend(0, [])


# --- hypothesis strategies ------------------------------------------------

@st.composite
def complexes(draw, max_vertices=6, max_faces=6):
    n = draw(st.integers(1, max_vertices))
    masks = draw(
        st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_faces)
    )
    return from_facets(VertexSet(tuple(LETTERS[:n])), masks)


@st.composite
def pure_complexes(draw, max_vertices=6, max_facets=6):
    n = draw(st.integers(2, max_vertices))
    k = draw(st.integers(1, n))
    pool = [sum(1 << b for b in c) for c in combinations(range(n), k)]
    m = draw(st.integers(1, min(max_facets, len(pool))))
    chosen = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m, unique=True))
    return from_facets(VertexSet(tuple(LETTERS[:n])), chosen)


# --- brute-force oracles ----------------------------------------------------

def _subsets(mask: int) -> set[int]:
    bits = [1 << b for b in range(mask.bit_length()) if mask >> b & 1]
    return {sum(c) for r in range(len(bits) + 1) for c in combinations(bits, r)}


def brute_maximal(faces) -> set[Face]:
    """Inclusion-maximal members of a set of faces."""
    return {s for s in faces if not any(t != s and s & ~t == 0 for t in faces)}


def brute_face_set(cplx: SimplicialComplex) -> set[Face]:
    """All faces by filtering every subset of the vertex set."""
    n = cplx.vertices.n
    return {
        s
        for s in range(1 << n)
        if any(s & ~facet == 0 for facet in cplx.facets)
    }


def brute_minimal_nonfaces(cplx: SimplicialComplex) -> set[Face]:
    n = cplx.vertices.n
    faces = brute_face_set(cplx)
    nonfaces = [s for s in range(1 << n) if s not in faces]
    return {
        s
        for s in nonfaces
        if not any(t != s and t & ~s == 0 for t in nonfaces)
    }


def brute_from_nonfaces(vs: VertexSet, nonfaces) -> SimplicialComplex:
    n = vs.n
    faces = [
        s
        for s in range(1 << n)
        if not any(nf & ~s == 0 for nf in nonfaces)
    ]
    return from_facets(vs, brute_maximal(faces))


def brute_step_restriction(prefix, facet) -> Face | None:
    """Unique minimal new face of a shelling step, or None if non-unique."""
    covered: set[Face] = set()
    for prev in prefix:
        covered.update(_subsets(prev))
    new = [s for s in _subsets(facet) if s not in covered]
    minimal = [s for s in new if not any(t != s and t & ~s == 0 for t in new)]
    return minimal[0] if len(minimal) == 1 else None


def brute_is_shelling_order(order) -> bool:
    return all(
        brute_step_restriction(order[:i], order[i]) is not None
        for i in range(1, len(order))
    )


def brute_first_shelling(order) -> tuple[list[Face], list[Face]] | None:
    """The first shelling order (facets, restriction faces) that a memo-free
    first-fit depth-first search meets, or None: at each depth the remaining
    facets of largest size are tried in their ``order`` sequence, each step
    checked by :func:`brute_step_restriction`."""

    def extend(prefix, rests, remaining):
        if not remaining:
            return prefix, rests
        largest = max(f.bit_count() for f in remaining)
        for i, facet in enumerate(remaining):
            if facet.bit_count() != largest:
                continue
            rest = brute_step_restriction(prefix, facet)
            if rest is not None:
                found = extend(
                    [*prefix, facet], [*rests, rest], remaining[:i] + remaining[i + 1 :]
                )
                if found is not None:
                    return found
        return None

    return extend([], [], list(order))


def brute_is_shellable(facets) -> bool:
    """Whether some order of ``facets`` shells, by a depth-first search that
    places a largest remaining facet next, each step checked by
    :func:`brute_step_restriction`, and keeps every set of placed facets
    found to have no completion.  A step depends only on the set of earlier
    facets, so a refuted set is refuted wherever it is met again, and a
    shellable complex has a shelling of weakly decreasing facet size
    (Björner and Wachs, 1996), so trying the largest facets first loses no
    shelling."""
    facets = list(facets)
    refuted: set[frozenset[Face]] = set()

    def extend(placed: frozenset[Face]) -> bool:
        if len(placed) == len(facets):
            return True
        if placed in refuted:
            return False
        remaining = [f for f in facets if f not in placed]
        largest = max(f.bit_count() for f in remaining)
        for facet in remaining:
            if (
                facet.bit_count() == largest
                and brute_step_restriction(placed, facet) is not None
                and extend(placed | {facet})
            ):
                return True
        refuted.add(placed)
        return False

    return extend(frozenset())


def brute_restriction_faces(order) -> list[Face]:
    out = [0]
    for i in range(1, len(order)):
        rest = brute_step_restriction(order[:i], order[i])
        assert rest is not None, "order is not a shelling order"
        out.append(rest)
    return out


def brute_minimal_hitting_sets(family) -> set[int]:
    universe = 0
    for member in family:
        universe |= member
    hitting = [
        t
        for t in _subsets(universe)
        if all(member & t for member in family)
    ]
    return {
        t
        for t in hitting
        if not any(u != t and u & ~t == 0 for u in hitting)
    }


def brute_has_linear_quotients(gens) -> bool:
    """Every minimal difference g_j minus g_i (j < i) is a single vertex."""
    for i in range(1, len(gens)):
        diffs = [gens[j] & ~gens[i] for j in range(i)]
        minimal = [d for d in diffs if not any(e != d and e & ~d == 0 for e in diffs)]
        if any(d.bit_count() != 1 for d in minimal):
            return False
    return True


def brute_linear_quotients(cplx: SimplicialComplex, order) -> list[tuple[str, ...]]:
    """Quotient labels of each step by the pair scan: for j, then k, before
    i, every x with order[i] minus order[k] = {x} inside order[i] minus
    order[j], first occurrences only."""
    labels = cplx.vertices.labels
    steps = []
    for i in range(1, len(order)):
        hits: list[int] = []
        for j in range(i):
            diff_j = order[i] & ~order[j]
            for k in range(i):
                diff_k = order[i] & ~order[k]
                if diff_k.bit_count() == 1 and diff_k & ~diff_j == 0:
                    x = diff_k.bit_length() - 1
                    if x not in hits:
                        hits.append(x)
        steps.append(tuple(labels[x] for x in hits))
    return steps


def brute_sheds(faces: set[Face], facets: set[Face], sigma: Face) -> bool:
    """Every maximal face of the deletion (the faces not containing
    ``sigma``) is one of ``facets``, the maximal faces of ``faces``."""
    deletion = {t for t in faces if sigma & ~t}
    return brute_maximal(deletion) <= facets


def brute_link(faces: set[Face], sigma: Face) -> set[Face]:
    """The faces missing ``sigma`` whose union with it is a face."""
    return {t for t in faces if t & sigma == 0 and t | sigma in faces}


def _brute_decomposes_at(
    faces: set[Face], facets: set[Face], sigma: Face, k: int, memo: dict
) -> bool:
    return (
        brute_sheds(faces, facets, sigma)
        and _brute_decomposable({t for t in faces if sigma & ~t}, k, memo)
        and _brute_decomposable(brute_link(faces, sigma), k, memo)
    )


def _brute_decomposable(faces: set[Face], k: int, memo: dict) -> bool:
    key = frozenset(faces)
    if key not in memo:
        facets = brute_maximal(faces)
        memo[key] = len(facets) == 1 or any(
            _brute_decomposes_at(faces, facets, sigma, k, memo)
            for sigma in faces
            if 0 < sigma.bit_count() <= k + 1
        )
    return memo[key]


def brute_decomposable(faces: set[Face], k: int) -> bool:
    """k-decomposability of a set of faces, by recursion: a simplex, or a
    face of at most k + 1 vertices that sheds and whose deletion and link
    are both k-decomposable."""
    return _brute_decomposable(faces, k, {})


def brute_is_k_decomposable(cplx: SimplicialComplex, k: int) -> bool:
    """:func:`brute_decomposable` on every face of the complex."""
    return brute_decomposable(brute_face_set(cplx), k)


def brute_shedding_faces(cplx: SimplicialComplex, k: int) -> list[Face]:
    faces = brute_face_set(cplx)
    facets = brute_maximal(faces)
    return sorted(
        (s for s in faces if 0 < s.bit_count() <= k + 1 and brute_sheds(faces, facets, s)),
        key=lambda s: (s.bit_count(), s),
    )


def brute_shedding_vertices(cplx: SimplicialComplex) -> list[Face]:
    faces = brute_face_set(cplx)
    facets = brute_maximal(faces)
    memo: dict = {}
    return sorted(
        s for s in faces if s.bit_count() == 1 and _brute_decomposes_at(faces, facets, s, 0, memo)
    )
