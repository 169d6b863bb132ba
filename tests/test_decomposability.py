import random
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    antichains,
    bowtie,
    brute_decomposable,
    brute_face_set,
    brute_first_shelling,
    brute_is_k_decomposable,
    brute_is_shellable,
    brute_link,
    brute_shedding_faces,
    brute_shedding_vertices,
    complexes,
    counted_calls,
    cx,
    demo_complex,
    eleven_triangles,
    fc,
    fresh,
    graph,
    random_complex,
    random_pure_complex,
    shellable_not_vd,
    twenty_facets,
    two_large_facets,
    vset,
    words,
)
from shellability import decomposability, shelling
from shellability import (
    MAX_VERTICES,
    EmptyFace,
    NotAFace,
    VertexSet,
    all_faces,
    face_deletion,
    from_facets,
    h_vector,
    is_k_decomposable,
    is_shedding_face,
    is_shedding_vertex,
    is_shellable,
    is_vertex_decomposable,
    link,
    relabelled,
    shedding_faces,
    shedding_vertices,
    shelling_order,
)


class TestIsVertexDecomposable:
    def test_demo(self, demo):
        assert is_vertex_decomposable(demo)

    def test_simplices(self, full3):
        assert is_vertex_decomposable(full3)
        assert is_vertex_decomposable(from_facets(vset("ab"), [0]))

    def test_two_edges(self, two_edges):
        assert not is_vertex_decomposable(two_edges)

    def test_paths_and_cycles(self):
        assert is_vertex_decomposable(cx("abc", "ab bc"))
        assert is_vertex_decomposable(cx("abcd", "ab bc cd da"))


class TestIsSheddingVertex:
    def test_demo_vertices(self, demo):
        verdicts = {
            lab: is_shedding_vertex(demo, fc(demo, lab)) for lab in "abcdefg"
        }
        assert verdicts == {
            "a": True, "b": True, "c": True, "d": True,
            "e": False, "f": True, "g": False,
        }

    def test_link_of_demo(self, demo):
        e = link(demo, fc(demo, "f"))
        assert [lab for lab in "abcde" if e.is_face(fc(e, lab))] == list("abce")
        verdicts = {lab: is_shedding_vertex(e, fc(e, lab)) for lab in "abce"}
        assert verdicts == {"a": True, "b": True, "c": True, "e": False}

    def test_simplex_vertices_do_not_shed(self, full3):
        # deleting a simplex vertex drops the facet, so nothing sheds even
        # though link and deletion are simplices
        for lab in "abc":
            assert not is_shedding_vertex(full3, fc(full3, lab))

    def test_requires_a_vertex(self, demo):
        with pytest.raises(ValueError):
            is_shedding_vertex(demo, fc(demo, "ae"))
        c = cx("abc", "ab")
        with pytest.raises(NotAFace):
            is_shedding_vertex(c, fc(c, "c"))
        for vertex in (-1, -2):  # one bit each by bit_count, but no face
            with pytest.raises(ValueError, match="single-vertex"):
                is_shedding_vertex(demo, vertex)


class TestIsSheddingFace:
    def test_demo_f(self, demo):
        assert is_shedding_face(demo, fc(demo, "f"))

    def test_simplex_vertex(self, full3):
        assert not is_shedding_face(full3, fc(full3, "a"))

    def test_triangle_boundary_vertex(self, tri_boundary):
        assert is_shedding_face(tri_boundary, fc(tri_boundary, "a"))

    def test_errors(self, demo):
        with pytest.raises(EmptyFace):
            is_shedding_face(demo, 0)
        with pytest.raises(NotAFace):
            is_shedding_face(demo, fc(demo, "fg"))

    @settings(max_examples=80)
    @given(complexes(max_vertices=6))
    def test_vertex_equivalence_with_link_condition(self, c):
        # "every deletion facet is a facet" == "no link facet is a deletion facet"
        for v in all_faces(c, 0):
            deletion = face_deletion(c, v)
            no_overlap = not any(
                f in set(deletion.facets) for f in link(c, v).facets
            )
            assert is_shedding_face(c, v) == no_overlap


class TestIsKDecomposable:
    def test_demo_matches_vertex_decomposability(self, demo):
        assert is_k_decomposable(fresh(demo), 0)
        assert is_k_decomposable(fresh(demo), 0) == is_vertex_decomposable(fresh(demo))

    def test_simplex_for_every_k(self, full3):
        for k in range(4):
            assert is_k_decomposable(fresh(full3), k)

    def test_two_edges_not_one_decomposable(self, two_edges):
        assert not is_k_decomposable(two_edges, 1)

    def test_errors(self, demo):
        with pytest.raises(ValueError):
            is_k_decomposable(demo, -1)
        with pytest.raises(ValueError):
            shedding_faces(demo, -1)

    @settings(max_examples=50)
    @given(complexes(max_vertices=6))
    def test_zero_equals_vertex_decomposable(self, c):
        assert is_k_decomposable(fresh(c), 0) == is_vertex_decomposable(fresh(c))

    @settings(max_examples=40)
    @given(complexes(max_vertices=6))
    def test_monotone_in_k(self, c):
        previous = None
        for k in range(c.dimension() + 2):
            current = is_k_decomposable(fresh(c), k)
            if previous is not None:
                assert not (previous and not current)
            previous = current


class TestSheddingLists:
    def test_demo_shedding_vertices(self, demo):
        assert words(demo, shedding_vertices(demo)) == list("abcdf")
        assert words(demo, shedding_faces(demo, 0)) == list("abcdf")

    def test_link_shedding_vertices(self, demo):
        e = link(demo, fc(demo, "f"))
        assert words(e, shedding_vertices(e)) == list("abc")

    def test_point_has_no_shedding_faces(self):
        point = cx("a", "a")
        assert shedding_faces(point, 0) == []
        assert shedding_vertices(point) == []

    def test_faces_returned_pass_the_predicate(self, demo):
        for f in shedding_faces(demo, 1):
            assert is_shedding_face(demo, f)

    def test_large_facets(self):
        # only the two vertices outside the shared 39 shed; either one
        # leaves a simplex as deletion and as link
        c = two_large_facets()
        assert shedding_faces(c, 0) == [1, 1 << 40]
        assert is_k_decomposable(c, 1)


def _traversal(monkeypatch, cplx, k) -> tuple[bool, int, int]:
    # a work count, not a time: the verdict, the recursion's calls and the
    # memo classes it leaves pin the traversal (cones reduced to their base,
    # candidates in canonical face order, the link before the deletion, a
    # failed link refuting its node, one memo entry per packed complex of
    # three or more facets that is not a graph)
    memos = []  # the memo each call was given
    recurse = decomposability._decomposable

    def counted(*args):
        memos.append(args[-1])
        return recurse(*args)

    monkeypatch.setattr(decomposability, "_decomposable", counted)
    verdict = is_k_decomposable(cplx, k)
    assert len({id(memo) for memo in memos}) == 1
    return verdict, len(memos), len(memos[0])


class TestTraversal:
    @pytest.mark.parametrize("m, k", [(7, 0), (5, 1)])
    def test_bowtie_work_counts(self, monkeypatch, m, k):
        # a bowtie is a cone over two disjoint paths, so the top-level call
        # answers by the graph closed form; the search before the cone
        # reduction made 1,598 calls and 284 classes at m = 7, k = 0, and
        # 686 calls and 122 classes at m = 5, k = 1
        assert _traversal(monkeypatch, bowtie(m), k) == (False, 1, 0)

    @pytest.mark.parametrize("k, calls, classes", [(0, 27, 9), (1, 4789, 615)])
    def test_non_cone_work_counts(self, monkeypatch, k, calls, classes):
        # no vertex lies in every triangle, so this one is searched; with
        # the deletion tried first and no refutation by a link it took 31
        # calls and 12 classes at k = 0, and 3,455 calls and 721 classes at
        # k = 1 (fewer calls there, but more shedding-face enumerations)
        c = eleven_triangles()
        assert h_vector(c) == (1, 4, 6, 0)
        assert not brute_is_k_decomposable(c, k)
        assert _traversal(monkeypatch, c, k) == (False, calls, classes)

    def test_twenty_facets_one_decomposable(self):
        # a failed link refutes its node at once: the search that tried the
        # deletion first enumerated shedding faces 29,517 times here (about
        # 1.9 s)
        with counted_calls(decomposability, "_shedding_faces", 10) as calls:
            assert not is_k_decomposable(twenty_facets(), 1)
        assert calls[0] == 2


class TestTwoFacets:
    def test_closed_form_against_brute_force(self):
        # every antichain of two facets on five vertices, every k up to
        # dim + 1: F, G is k-decomposable iff F - G or G - F is one vertex
        vs = vset("abcde")
        cases = 0
        for f, g in combinations(range(1, 1 << vs.n), 2):
            if not (f & ~g and g & ~f):
                continue
            c = from_facets(vs, [f, g])
            rule = (f & ~g).bit_count() == 1 or (g & ~f).bit_count() == 1
            for k in range(c.dimension() + 2):
                assert brute_is_k_decomposable(c, k) == rule
                assert is_k_decomposable(fresh(c), k) == rule
                cases += 1
            assert is_vertex_decomposable(fresh(c)) == rule
        assert cases == 1110


def _one_component(edges) -> bool:
    # the oracle: each edge merges the components it touches
    parts: list[int] = []
    for e in edges:
        merged = e
        for p in parts:
            if p & e:
                merged |= p
        parts = [p for p in parts if not p & e] + [merged]
    return len(parts) <= 1


class TestGraphs:
    def test_closed_form_against_brute_force(self):
        # every complex of dimension <= 1 on five vertices (an edge set and
        # some points outside it), every k up to 2: k-decomposable iff the
        # edges form one connected graph (no edges counting as one)
        vs = vset("abcde")
        pairs = [1 << a | 1 << b for a, b in combinations(range(vs.n), 2)]
        cases = 0
        for chosen in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if chosen >> i & 1]
            covered = reduce(or_, edges, 0)
            free = [1 << v for v in range(vs.n) if not covered >> v & 1]
            rule = _one_component(edges)
            for r in range(len(free) + 1):
                for points in combinations(free, r):
                    if not edges and not points:
                        continue
                    c = from_facets(vs, edges + list(points))
                    for k in range(3):
                        assert brute_is_k_decomposable(c, k) == rule
                        assert is_k_decomposable(fresh(c), k) == rule
                        cases += 1
                    assert shedding_vertices(fresh(c)) == brute_shedding_vertices(c)
        assert cases == 4347

    def test_work_counts(self):
        # a work count, not a time: a graph node enumerates no shedding
        # faces, so VD on a path does so at no node and shedding_vertices on
        # a cycle only at the root; the exhaustive recursion did so 8,326
        # times on this path and did not finish on the cycle
        n = 22  # vertex 0 sits mid-path
        path = graph(n, [((p - n // 2) % n, (p + 1 - n // 2) % n) for p in range(n - 1)])
        with counted_calls(decomposability, "_shedding_faces", 10) as calls:
            assert is_vertex_decomposable(path)
        assert calls[0] == 0
        cycle = graph(64, [(i, (i + 1) % 64) for i in range(64)])
        with counted_calls(decomposability, "_shedding_faces", 10) as calls:
            assert shedding_vertices(cycle) == [1 << i for i in range(64)]
        assert calls[0] == 1

    def test_is_shellable_answers_a_graph_without_the_search(self):
        # a work count: is_shellable is k-decomposability past every
        # dimension, one connectivity test on a graph, so the shelling search
        # sieves nothing; the search itself agrees on fresh copies
        cycle = graph(64, [(i, (i + 1) % 64) for i in range(64)])
        apart = cx("abcde", "ab cd e")  # two disjoint edges and a point
        for c, verdict in ((cycle, True), (apart, False)):
            with counted_calls(shelling, "_sieve", 0) as calls:
                assert is_shellable(c) == verdict
            assert calls[0] == 0
            assert (shelling_order(fresh(c)) is not None) == verdict


class TestHandOff:
    def test_top_dimension_is_shellability(self):
        # k >= dim: k-decomposable iff shellable, pure or not
        rng = random.Random(3)
        for i in range(1500):
            c = (random_pure_complex if i % 2 else random_complex)(rng, max_vertices=6)
            shellable = is_shellable(c)
            for k in (c.dimension(), c.dimension() + 1):
                assert is_k_decomposable(fresh(c), k) == shellable == brute_is_k_decomposable(c, k)

    def test_twenty_facet_complex(self):
        # the recursion took about a minute here; the shelling search makes
        # exactly the step tests of its own refutation (a candidate skipped
        # for having no placed facet on a ridge is not one; with them it
        # made 527,822)
        with counted_calls(decomposability, "_decomposable", 0), counted_calls(
            shelling, "_step", 600_000
        ) as steps:
            assert not is_k_decomposable(twenty_facets(), 2)
        assert steps[0] == 449_730


class TestHierarchy:
    def test_shellable_but_not_vertex_decomposable(self):
        # the verdicts come from the brute oracles; a non-VD complex has no
        # vertex that starts a decomposition, so it sheds none
        c = shellable_not_vd()
        assert h_vector(c) == (1, 4, 8, 0)
        assert brute_first_shelling(list(c.facets)) is not None
        assert not brute_is_k_decomposable(c, 0)
        assert brute_is_k_decomposable(c, 1)
        assert brute_shedding_vertices(c) == []
        assert is_shellable(fresh(c))
        assert not is_vertex_decomposable(fresh(c))
        assert is_k_decomposable(fresh(c), 1)
        assert shedding_vertices(fresh(c)) == []

    def test_census_on_five_vertices(self):
        # every complex on five labelled vertices: shellability and VD
        # coincide there, so the counts are equal
        vs = vset("abcde")
        cases = shellable = vd = 0
        for facets in antichains(vs.n):
            c = from_facets(vs, facets)
            brute = (
                brute_first_shelling(list(c.facets)) is not None,
                brute_is_k_decomposable(c, 0),
            )
            assert (is_shellable(c), is_vertex_decomposable(fresh(c))) == brute
            # is_shellable answers a graph by connectivity, so the search is
            # checked here on every complex, graphs included
            assert (shelling_order(fresh(c)) is not None) == brute[0]
            cases += 1
            shellable += brute[0]
            vd += brute[1]
        assert (cases, shellable, vd) == (7580, 6908, 6908)

    def test_census_sample_one_decomposable(self):
        # a seeded fifth of the census at k = 1, the brute oracle's share of
        # the whole census kept to about a second
        vs = vset("abcde")
        sample = random.Random(41).sample(list(antichains(vs.n)), 1500)
        yes = 0
        for facets in sample:
            c = from_facets(vs, facets)
            verdict = brute_is_k_decomposable(c, 1)
            assert is_k_decomposable(c, 1) == verdict
            yes += verdict
            # shedding vertices read off the recorded VD verdict, yes or no,
            # and walked on a fresh copy
            shed = brute_shedding_vertices(c)
            is_vertex_decomposable(c)
            assert shedding_vertices(c) == shed
            assert shedding_vertices(fresh(c)) == shed
        assert yes == 1361

    def test_census_top_dimension_without_hand_off(self):
        # the recursion itself, not handed to the shelling search, agrees
        # with is_shellable at every k >= dim: the hand-off to the search
        # rests on this for nonpure complexes
        vs = vset("abcde")
        pairs = 0
        for facets in antichains(vs.n):
            c = from_facets(vs, facets)
            d, shellable = c.dimension(), is_shellable(c)
            for k in range(max(d, 0), d + 2):
                assert decomposability._decomposable(c.facets, k, {}) == shellable
                pairs += 1
        assert pairs == 15_159


class TestLemmas:
    # the two facts the recursion's shortcuts rest on, checked by the brute
    # oracles alone

    @settings(max_examples=60, deadline=None)
    @given(complexes(max_vertices=5))
    def test_cone_is_decomposable_iff_its_base_is(self, c):
        apex = 1 << c.vertices.n
        cone = from_facets(
            VertexSet((*c.vertices.labels, "z")), [f | apex for f in c.facets]
        )
        for k in range(3):
            verdict = brute_is_k_decomposable(c, k)
            assert brute_is_k_decomposable(cone, k) == verdict
            assert is_k_decomposable(fresh(cone), k) == verdict

    def test_links_of_a_decomposable_complex_are_decomposable(self):
        # every link of a face of at most k + 1 vertices, which is every
        # face that can shed
        rng = random.Random(41)
        decomposable = links = 0
        for i in range(500):
            c = (random_pure_complex if i % 2 else random_complex)(rng, max_vertices=6)
            faces = brute_face_set(c)
            for k in range(3):
                if not brute_decomposable(faces, k):
                    continue
                decomposable += 1
                for sigma in faces:
                    if 0 < sigma.bit_count() <= k + 1:
                        assert brute_decomposable(brute_link(faces, sigma), k)
                        links += 1
        assert (decomposable, links) == (1425, 9157)


class TestAgainstBruteForce:
    @settings(deadline=None)
    @given(complexes(max_vertices=6))
    def test_verdicts_and_shedding_lists(self, c):
        for k in range(c.dimension() + 2):
            assert is_k_decomposable(fresh(c), k) == brute_is_k_decomposable(c, k)
            shed = brute_shedding_faces(c, k)
            assert shedding_faces(c, k) == shed
            assert [f for f in all_faces(c, k) if is_shedding_face(c, f)] == shed
        expected = brute_shedding_vertices(c)
        assert shedding_vertices(fresh(c)) == expected
        assert [v for v in all_faces(c, 0) if is_shedding_vertex(fresh(c), v)] == expected


class TestStructuralInvariants:
    def test_vertex_decomposable_implies_shellable_and_nonnegative_h(self):
        rng = random.Random(6060)
        for _ in range(80):
            c = random_pure_complex(rng, max_vertices=6)
            if is_vertex_decomposable(c):
                assert is_shellable(fresh(c))
                assert all(entry >= 0 for entry in h_vector(c))

    def test_top_dimensional_decomposability_implies_shellable(self):
        rng = random.Random(6161)
        for _ in range(60):
            c = random_pure_complex(rng, max_vertices=6)
            if is_k_decomposable(c, c.dimension()):
                assert is_shellable(fresh(c))

    def test_relabelling_invariance(self):
        rng = random.Random(6262)
        for _ in range(60):
            c = random_complex(rng, max_vertices=6, max_faces=6)
            n = c.vertices.n
            mapped = relabelled(c, rng.sample(range(n), n))
            assert is_vertex_decomposable(mapped) == is_vertex_decomposable(c)
            assert is_shellable(fresh(mapped)) == is_shellable(fresh(c))
            for k in range(min(c.dimension(), 2) + 1):
                assert is_k_decomposable(fresh(mapped), k) == is_k_decomposable(fresh(c), k)


def _verdict_calls(c):
    """Every verdict procedure, and the shelling search, that can be asked
    about ``c``, by name."""
    calls = [
        ("shelling_order", shelling_order),
        ("is_shellable", is_shellable),
        ("is_vertex_decomposable", is_vertex_decomposable),
        ("shedding_vertices", shedding_vertices),
    ]
    calls += [
        (f"is_k_decomposable k={k}", lambda x, k=k: is_k_decomposable(x, k))
        for k in range(c.dimension() + 2)
    ]
    calls += [
        (f"is_shedding_vertex {v}", lambda x, v=v: is_shedding_vertex(x, v))
        for v in all_faces(c, 0)
    ]
    return calls


class TestVerdictRecord:
    # a complex records the verdicts decided on it, and the verdict
    # functions read that record before they search

    @settings(max_examples=150, deadline=None)
    @given(complexes(max_vertices=6), st.data())
    def test_answers_do_not_depend_on_what_was_asked_before(self, c, data):
        calls = _verdict_calls(c)
        for i in data.draw(st.permutations(range(len(calls)))):
            name, call = calls[i]
            assert call(c) == call(fresh(c)), name

    @pytest.mark.parametrize(
        "c",
        [shellable_not_vd(), eleven_triangles(), demo_complex(), bowtie(3)],
        ids=["shellable_not_vd", "eleven_triangles", "demo", "bowtie3"],
    )
    def test_answers_after_each_first_call(self, c):
        # each call first, then every call in turn, on one copy: a shelling
        # or a verdict at one k must not settle a k it does not decide, as
        # on a complex that is shellable but not vertex-decomposable
        calls = _verdict_calls(c)
        expected = [call(fresh(c)) for _, call in calls]
        for _, first in calls:
            copy = fresh(c)
            first(copy)
            assert [call(copy) for _, call in calls] == expected

    def test_shelling_refutation_settles_decomposability(self):
        # a work count: once the shelling search has refuted the complex,
        # VD and k = 1 enumerate no shedding faces; on a fresh copy k = 1
        # still searches
        c = twenty_facets()
        assert not is_shellable(c)
        with counted_calls(decomposability, "_shedding_faces", 0) as calls:
            assert not is_vertex_decomposable(c)
            assert not is_k_decomposable(c, 1)
            assert shedding_vertices(c) == []
        assert calls[0] == 0
        with counted_calls(decomposability, "_shedding_faces", 10) as calls:
            assert not is_k_decomposable(fresh(c), 1)
        assert calls[0] == 2

    def test_vertex_decomposition_settles_every_k(self):
        demo = demo_complex()
        assert is_vertex_decomposable(demo)
        with counted_calls(decomposability, "_decomposable", 0) as calls:
            assert is_k_decomposable(demo, 1)
        assert calls[0] == 0
        with counted_calls(shelling, "_sieve", 0) as calls:
            assert is_shellable(demo)
        assert calls[0] == 0
        assert is_shellable(fresh(demo))

    def test_vertex_decomposition_leaves_only_deletions(self):
        # a work count: once VD is recorded, every link is VD, so
        # shedding_vertices decides only the deletions of the shedding
        # vertices; on a fresh copy it first decides VD, the root's search,
        # and then the same deletions with that search's memo
        demo = demo_complex()
        assert is_vertex_decomposable(demo)
        with counted_calls(decomposability, "_decomposable", 9) as calls:
            assert words(demo, shedding_vertices(demo)) == list("abcdf")
        assert calls[0] == 9
        with counted_calls(decomposability, "_decomposable", 12) as calls:
            assert words(demo, shedding_vertices(fresh(demo))) == list("abcdf")
        assert calls[0] == 12

    @pytest.mark.parametrize(
        "c, verdict",
        [
            (demo_complex(), True),
            (shellable_not_vd(), False),
            (eleven_triangles(), False),
            (cx("abc", "abc"), True),
            (from_facets(vset("ab"), [0]), True),
            (graph(64, [(i, (i + 1) % 64) for i in range(64)]), True),
            (cx("abcde", "ab cd e"), False),
        ],
        ids=["demo", "shellable_not_vd", "eleven_triangles", "simplex", "irrelevant",
             "cycle64", "two_edges_and_a_point"],
    )
    def test_shedding_vertices_records_vertex_decomposability(self, c, verdict):
        # shedding_vertices decides VD first and records it, so VD then
        # reads the record; the brute oracle does not finish on the
        # 64-vertex cycle, a connected graph
        if c.vertices.n < 64:
            assert brute_is_k_decomposable(c, 0) == verdict
        copy = fresh(c)
        shedding_vertices(copy)
        with counted_calls(decomposability, "_decomposable", 0) as calls:
            assert is_vertex_decomposable(copy) == verdict
        assert calls[0] == 0

    def test_verdict_then_deletions_on_the_census(self):
        # a work count: with nothing recorded, shedding_vertices on every
        # complex on five labelled vertices decides VD first, then only the
        # deletions of the shedding vertices of a VD complex, with one memo
        vs = vset("abcde")
        with counted_calls(decomposability, "_decomposable", 10**6) as calls, counted_calls(
            decomposability, "_shedding_faces", 10**6
        ) as enumerations:
            for facets in antichains(vs.n):
                shedding_vertices(from_facets(vs, facets))
        assert (calls[0], enumerations[0]) == (46_329, 17_487)

    def test_shelling_order_refutation_is_read_back(self):
        # a work count: shelling_order writes its refutation to the record,
        # and is_shellable and the hand-off at k = dim read it back without
        # a sieve or a shedding enumeration
        c = eleven_triangles()
        assert shelling_order(c) is None
        with counted_calls(shelling, "_sieve", 0) as sieves, counted_calls(
            decomposability, "_shedding_faces", 0
        ) as shedding:
            assert not is_shellable(c)
            assert not is_k_decomposable(c, 2)
        assert sieves[0] == shedding[0] == 0
        assert not is_shellable(fresh(c))
        assert not is_k_decomposable(fresh(c), 2)

    @pytest.mark.parametrize(
        "c",
        [eleven_triangles(), shellable_not_vd(), graph(5, [(0, 1), (1, 2), (3, 4)])],
        ids=["eleven_triangles", "shellable_not_vd", "disconnected_graph"],
    )
    def test_fresh_bounds_settle_no_key(self, c):
        # a fresh complex knows nothing: neither bound may settle any k, past
        # the dimension and past MAX_VERTICES included, where every k is the
        # shelling key
        d = c.dimension()
        shellable = brute_is_shellable(c.facets)
        for k in (0, 1, d, d + 1, MAX_VERTICES, MAX_VERTICES + 1, 10**6):
            expected = shellable if k >= d else brute_is_k_decomposable(c, k)
            assert is_k_decomposable(fresh(c), k) == expected, k

    def test_found_shelling_is_read_back(self):
        # a work count: shelling_order writes the shelling it finds to the
        # record, so every k >= dim reads yes without a sieve or a shedding
        # enumeration, while k = 0, which a shelling does not settle, still
        # runs the recursion and answers no
        c = shellable_not_vd()
        d = c.dimension()
        assert shelling_order(c) is not None
        with counted_calls(shelling, "_sieve", 0) as sieves, counted_calls(
            decomposability, "_shedding_faces", 0
        ) as shedding:
            for k in (d, MAX_VERTICES, 10**6):
                assert is_k_decomposable(c, k), k
        assert sieves[0] == shedding[0] == 0
        with counted_calls(decomposability, "_decomposable", 10_000) as calls:
            assert not is_k_decomposable(c, 0)
        assert calls[0] > 0

    def test_shelling_order_always_searches(self):
        # the witness search never reads the record: refuting a complex
        # already known not to be shellable costs what it costs on a copy
        c = eleven_triangles()
        assert not is_shellable(c)
        with counted_calls(shelling, "_sieve", 100_000) as known:
            assert shelling_order(c) is None
        with counted_calls(shelling, "_sieve", 100_000) as first:
            assert shelling_order(fresh(c)) is None
        assert known[0] == first[0] > 0

    def test_record_is_not_seen_by_equality_hash_or_repr(self):
        c = demo_complex()
        copy = fresh(c)
        before = (hash(c), repr(c))
        assert is_vertex_decomposable(c)
        assert c._verdicts != copy._verdicts  # a verdict was recorded
        assert c == copy
        assert (hash(c), repr(c)) == before == (hash(copy), repr(copy))
        assert type(c)._verdicts == copy._verdicts  # the class-level pair is untouched
