import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    O1,
    O2,
    O3,
    bowtie,
    brute_first_shelling,
    brute_is_shelling_order,
    brute_minimal_hitting_sets,
    brute_restriction_faces,
    brute_step_restriction,
    complexes,
    cx,
    faces_of,
    pure_complexes,
    random_complex,
    random_pure_complex,
    vset,
    words,
)
from shellability import (
    InvalidOrder,
    NotPure,
    VertexSet,
    VoidComplex,
    from_facets,
    h_from_shelling,
    h_vector,
    is_pure,
    is_shellable,
    is_shelling_order,
    minimal_hitting_sets,
    restriction_faces,
    serialize_complex,
    shelling_order,
    shuffled_facets,
)
from shellability import shelling
from shellability.cli import main

# shellable 2-complexes on six vertices with a partial shelling that no
# remaining facet extends (bef aef bcf cdf, and bef abf acf abd)
NON_EXTENDABLE = (
    "abc abd acd ade bde bcf cdf aef bef",
    "abd bcd ace bce ade cde abf acf bef",
)


class TestMinimalHittingSets:
    def test_singleton(self):
        assert minimal_hitting_sets([0b001]) == [0b001]

    def test_one_pair(self):
        assert minimal_hitting_sets([0b011]) == [0b001, 0b010]

    def test_two_overlapping(self):
        assert minimal_hitting_sets([0b011, 0b101]) == [0b001, 0b110]

    def test_empty_family(self):
        assert minimal_hitting_sets([]) == [0]

    def test_unhittable(self):
        assert minimal_hitting_sets([0b011, 0]) == []

    def test_against_brute_force(self):
        rng = random.Random(4242)
        for _ in range(400):
            n = rng.randint(1, 8)
            family = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 7))]
            expected = sorted(
                brute_minimal_hitting_sets(family), key=lambda t: (t.bit_count(), t)
            )
            assert minimal_hitting_sets(family) == expected


class TestIsShellingOrder:
    def test_session_orders(self, demo):
        for order_words in (O1, O2, O3):
            assert is_shelling_order(demo, faces_of(demo, order_words))

    def test_two_edges_fail_both_ways(self, two_edges):
        ab, cd = two_edges.facets
        assert not is_shelling_order(two_edges, [ab, cd])
        assert not is_shelling_order(two_edges, [cd, ab])

    def test_single_facet(self, full3):
        assert is_shelling_order(full3, list(full3.facets))

    def test_invalid_order_rejected(self, demo):
        with pytest.raises(InvalidOrder):
            is_shelling_order(demo, list(demo.facets[:-1]))

    @settings(max_examples=80)
    @given(complexes(max_vertices=6, max_faces=6))
    def test_steps_and_restrictions_match_brute_force(self, c):
        # every prefix of a shuffled order, pure or not, against the
        # subset-enumerating oracle; then every found order's restrictions
        rng = random.Random(1)
        seq = list(c.facets)
        rng.shuffle(seq)
        shells = True
        for i, facet in enumerate(seq):
            shells = shells and brute_step_restriction(seq[:i], facet) is not None
            prefix = seq[: i + 1]
            assert is_shelling_order(from_facets(c.vertices, prefix), prefix) == shells
        order = shelling_order(c, shuffled_facets(c, rng.randrange(1 << 32)))
        if order is not None:
            expected = brute_restriction_faces(list(order.facets))
            assert list(order.restrictions) == expected

    @settings(max_examples=60)
    @given(complexes(max_vertices=6, max_faces=5))
    def test_agrees_with_brute_force_on_pure(self, c):
        rng = random.Random(2)
        seq = list(c.facets)
        rng.shuffle(seq)
        assert is_shelling_order(c, seq) == brute_is_shelling_order(seq)


class TestRestrictionFaces:
    def test_session_order(self, demo):
        order = faces_of(demo, O1)
        got = restriction_faces(demo, order)
        assert words(demo, got) == ["", "b", "a", "d", "ad", "f", "bf", "af"]
        assert got == brute_restriction_faces(order)

    def test_triangle_boundary_cycle_order(self, tri_boundary):
        order = faces_of(tri_boundary, "ab bc ca")
        expected = brute_restriction_faces(order)
        got = restriction_faces(tri_boundary, order)
        assert got == expected
        assert words(tri_boundary, got) == ["", "c", "ac"]

    def test_single_facet(self, full3):
        assert restriction_faces(full3, list(full3.facets)) == [0]

    def test_invalid_order(self, two_edges, demo):
        with pytest.raises(InvalidOrder, match=r"at step 2$"):
            restriction_faces(two_edges, list(two_edges.facets))
        # canonical order: aef bef cef adg ...; adg shares no edge with the
        # facets before it, so it is the first step that does not shell
        with pytest.raises(InvalidOrder, match=r"at step 4$"):
            restriction_faces(demo, list(demo.facets))

    def test_not_pure_rejected(self):
        c = cx("abc", "ab c")
        with pytest.raises(NotPure):
            restriction_faces(c, list(c.facets))

    @settings(max_examples=60)
    @given(pure_complexes())
    def test_matches_brute_force_on_found_orders(self, c):
        order = shelling_order(c)
        if order is None:
            return
        seq = list(order.facets)
        assert restriction_faces(c, seq) == brute_restriction_faces(seq)
        assert restriction_faces(c, seq) == list(order.restrictions)


class TestHFromShelling:
    def test_session_order(self, demo):
        assert h_from_shelling(demo, faces_of(demo, O1)) == (1, 4, 3, 0)
        assert h_from_shelling(demo, faces_of(demo, O1)) == h_vector(demo)

    def test_single_facet(self):
        c = cx("abcd", "abcd")
        assert h_from_shelling(c, list(c.facets)) == (1, 0, 0, 0, 0)

    def test_triangle_boundary(self, tri_boundary):
        assert h_from_shelling(tri_boundary, faces_of(tri_boundary, "ab bc ca")) == (
            1, 1, 1,
        )

    @settings(max_examples=60)
    @given(pure_complexes())
    def test_equals_h_vector_for_found_orders(self, c):
        order = shelling_order(c)
        if order is None:
            return
        assert h_from_shelling(c, list(order.facets)) == h_vector(c)


class TestShellingOrderSearch:
    def test_default_finds_valid_order(self, demo):
        order = shelling_order(demo)
        assert order is not None
        assert is_shelling_order(demo, list(order.facets))

    def test_two_edges_have_none(self, two_edges):
        assert shelling_order(two_edges) is None
        assert shelling_order(two_edges, shuffled_facets(two_edges, 7)) is None
        assert shelling_order(two_edges, [two_edges.facets[i] for i in (1, 0)]) is None

    def test_single_facet(self, full3):
        order = shelling_order(full3)
        assert order.facets == full3.facets and order.restrictions == (0,)

    def test_permutation_reproduces_session_orders(self, demo):
        # positions in the canonical facet list, chosen so the arranged list
        # matches each session order before the search begins
        cases = [
            ((7, 6, 5, 4, 3, 2, 1, 0), O1),
            ((6, 5, 3, 1, 2, 0, 7, 4), O2),
            ((4, 5, 6, 7, 3, 2, 1, 0), O3),
        ]
        for perm, expected in cases:
            order = shelling_order(demo, [demo.facets[i] for i in perm])
            assert list(order.facets) == faces_of(demo, expected)

    def test_random_is_deterministic(self, demo):
        first = shelling_order(demo, shuffled_facets(demo, 42))
        second = shelling_order(demo, shuffled_facets(demo, 42))
        assert first == second

    def test_seeded_shuffle_is_pinned(self, demo):
        # splitmix64 gives the same shuffle on every platform and Python
        # version; the seed is taken mod 2**64, so 2**64 + 42 acts as 42
        cases = {
            0: [2, 5, 0, 3, 4, 6, 1, 7],
            42: [3, 1, 6, 2, 4, 0, 7, 5],
            -1: [7, 3, 5, 4, 2, 6, 1, 0],
            2**64 + 42: [3, 1, 6, 2, 4, 0, 7, 5],
        }
        for seed, indices in cases.items():
            assert shuffled_facets(demo, seed) == [demo.facets[i] for i in indices]

    def test_invalid_permutations(self, demo):
        facets = list(demo.facets)
        repeated = [facets[0], *facets[:-1]]
        short = facets[:2]
        non_facet = [*facets[1:], facets[0] | facets[1]]
        for order in (repeated, short, non_facet):
            with pytest.raises(InvalidOrder):
                shelling_order(demo, order)

    def test_void_rejected(self):
        with pytest.raises(VoidComplex):
            shelling_order(from_facets(vset("ab"), []))
        with pytest.raises(VoidComplex):
            is_shellable(from_facets(vset("ab"), []))

    def test_restriction_invariants(self, demo):
        order = shelling_order(demo, shuffled_facets(demo, 5))
        assert order.restrictions[0] == 0
        for facet, rest in zip(order.facets, order.restrictions):
            assert rest & ~facet == 0

    @staticmethod
    def assert_first_order(c, order):
        # the search returns exactly the order a memo-free first-fit DFS
        # over the same facet sequence meets first, or None with it
        found = shelling_order(c, order)
        got = None if found is None else (list(found.facets), list(found.restrictions))
        assert got == brute_first_shelling(order)

    @settings(max_examples=150)
    @given(st.one_of(complexes(), pure_complexes()), st.integers(0, 2**32))
    def test_first_order_matches_reference_dfs(self, c, seed):
        for order in (list(c.facets), shuffled_facets(c, seed)):
            self.assert_first_order(c, order)

    @settings(max_examples=60)
    @given(st.one_of(complexes(), pure_complexes()), st.integers(0, 2**32))
    def test_full_memo_keeps_the_first_order(self, c, seed):
        # a memo with no room (or room for one refuted set) stops recording
        # at once, and the search must still meet the same first order
        for cap in (0, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(shelling, "_DEAD_SETS_CAP", cap)
                for order in (list(c.facets), shuffled_facets(c, seed)):
                    self.assert_first_order(c, order)

    @pytest.mark.parametrize("cap", [0, 1, None])
    def test_backtracking_orders_match_reference_dfs(self, monkeypatch, cap):
        # a triangle with a disjoint edge makes the search back up from the
        # edges into the triangles; bowties are refuted only after many
        # backtracks; each NON_EXTENDABLE complex has a partial shelling that
        # no facet extends, so a first-fit search over some of these orders
        # backtracks before it succeeds.  cap None keeps the memo's bound
        if cap is not None:
            monkeypatch.setattr(shelling, "_DEAD_SETS_CAP", cap)
        c = cx("abcde", "abc de")
        self.assert_first_order(c, list(c.facets))
        for m in range(3, 7):
            c = bowtie(m)
            self.assert_first_order(c, list(c.facets))
        for facets in NON_EXTENDABLE:
            c = cx("abcdef", facets)
            for seed in range(50):
                self.assert_first_order(c, shuffled_facets(c, seed))

    def test_bowtie_refutation_work(self, monkeypatch):
        # a work count, not a time: without the memo of refuted placed sets
        # the search makes 228,696 step tests on bowtie m=12, with it 2,908
        calls = 0
        step = shelling._step

        def counted(*args):
            nonlocal calls
            calls += 1
            return step(*args)

        monkeypatch.setattr(shelling, "_step", counted)
        assert shelling_order(bowtie(12)) is None
        assert calls <= 5000

    @settings(max_examples=60)
    @given(complexes())
    def test_soundness(self, c):
        order = shelling_order(c)
        if order is not None:
            assert is_shelling_order(c, list(order.facets))

    def test_strategy_invariance_of_verdict(self):
        rng = random.Random(2024)
        for _ in range(40):
            c = random_complex(rng, max_vertices=6, max_faces=6)
            base = shelling_order(c) is not None
            for seed in (0, 1, 99):
                assert (shelling_order(c, shuffled_facets(c, seed)) is not None) == base
            n = len(c.facets)
            perm = tuple(reversed(range(n)))
            assert (shelling_order(c, [c.facets[i] for i in perm]) is not None) == base

    def test_completeness_against_permutation_brute_force(self):
        rng = random.Random(808)
        for _ in range(60):
            c = random_pure_complex(rng, max_vertices=6, max_facets=6)
            brute = any(
                brute_is_shelling_order(list(p)) for p in permutations(c.facets)
            )
            assert is_shellable(c) == brute

    def test_nonpure_orders_have_decreasing_dimension(self):
        rng = random.Random(313)
        seen = 0
        for _ in range(80):
            c = random_complex(rng, max_vertices=6, max_faces=6)
            if is_pure(c):
                continue
            order = shelling_order(c, shuffled_facets(c, 3))
            if order is None:
                continue
            seen += 1
            sizes = [f.bit_count() for f in order.facets]
            assert sizes == sorted(sizes, reverse=True)
        assert seen > 0

    def test_deep_search_keeps_to_the_heap(self, tmp_path, capsys):
        # the 2-skeleton of the 20-vertex simplex: 1,140 facets, so the
        # search goes 1,140 placements deep
        vs = VertexSet(tuple(f"v{i}" for i in range(20)))
        triples = [sum(1 << b for b in t) for t in combinations(range(20), 3)]
        c = from_facets(vs, triples)
        order = shelling_order(c)
        assert order is not None and is_shelling_order(c, list(order.facets))
        doc = tmp_path / "skeleton.cplx"
        doc.write_text(serialize_complex(c))
        assert main(["shellable", str(doc)]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_isolated_points_are_shellable(self):
        for k in range(1, 6):
            c = from_facets(vset("abcdef"[:k]), [1 << i for i in range(k)])
            assert is_shellable(c)
