import random
import tracemalloc
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
    brute_has_linear_quotients,
    brute_is_shellable,
    brute_is_shelling_order,
    brute_linear_quotients,
    brute_minimal_hitting_sets,
    brute_restriction_faces,
    brute_step_restriction,
    complexes,
    counted_calls,
    cx,
    eleven_triangles,
    faces_of,
    pure_complexes,
    random_complex,
    random_pure_complex,
    shellable_not_vd,
    twenty_facets,
    two_skeleton,
    vset,
    words,
)
from shellability import (
    InvalidOrder,
    MonomialSet,
    VertexSet,
    from_facets,
    h_from_shelling,
    h_vector,
    has_linear_quotients,
    is_pure,
    is_shellable,
    is_shelling_order,
    linear_quotients_from_shelling,
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

    def test_positions_spread_across_bytes(self):
        # members on at most 10 positions drawn from 0..139, so the
        # candidates and the per-vertex index reach past one byte and one word
        rng = random.Random(4343)
        for _ in range(200):
            positions = rng.sample(range(140), rng.randint(1, 10))
            family = [
                sum(1 << b for b in rng.sample(positions, rng.randint(1, len(positions))))
                for _ in range(rng.randint(1, 7))
            ]
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

    def test_refutation_stops_at_the_failed_step(self):
        # two disjoint triangles first in the 9,880 of the 40-vertex
        # 2-skeleton: the walk reads the vertices of those two facets alone
        c = two_skeleton(40)
        order = [0b111, 0b111000] + [f for f in c.facets if f not in (0b111, 0b111000)]
        with counted_calls(shelling, "face_bits", 2):
            assert not is_shelling_order(c, order)
        with counted_calls(shelling, "face_bits", 2):
            with pytest.raises(InvalidOrder, match="at step 2"):
                restriction_faces(c, order)

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

    def test_nonpure_order(self):
        # ab then c: c meets ab in the empty face, so its restriction face is
        # c itself, and the intervals [0, ab] and [c, c] give h = 1 + t - t^2
        c = cx("abc", "ab c")
        order = list(c.facets)
        assert words(c, restriction_faces(c, order)) == ["", "c"]
        assert h_from_shelling(c, order) == h_vector(c) == (1, 1, -1)

    @settings(max_examples=60)
    @given(complexes())
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
    @given(complexes())
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

    def test_oracles_above_sixty_facets(self):
        # the 2-skeleton of the 9-vertex simplex has 84 facets, so every
        # placed set past 60 facets spans three 30-bit digits
        vs = VertexSet(tuple("abcdefghi"))
        c = from_facets(vs, [sum(1 << b for b in t) for t in combinations(range(9), 3)])
        assert len(c.facets) == 84
        full = vs.full_face
        for order in [list(c.facets)] + [shuffled_facets(c, seed) for seed in range(3)]:
            self.assert_first_order(c, order)
            assert is_shelling_order(c, order) == brute_is_shelling_order(order)
            found = list(shelling_order(c, order).facets)
            assert restriction_faces(c, found) == brute_restriction_faces(found)
            assert linear_quotients_from_shelling(c, found) == brute_linear_quotients(
                c, found
            )
            for gens in (order, found):
                complements = tuple(full ^ f for f in gens)
                assert has_linear_quotients(
                    MonomialSet(vs, complements)
                ) == brute_has_linear_quotients(complements)

    @pytest.mark.parametrize("seed", [0, 1, None])
    def test_backtracking_orders_match_reference_dfs(self, seed):
        # a triangle with a disjoint edge makes the search back up from the
        # edges into the triangles; bowties are refuted only after many
        # backtracks; each NON_EXTENDABLE complex has a partial shelling that
        # no facet extends, so a first-fit search over some of these orders
        # backtracks before it succeeds.  seed None tries the first two
        # kinds in their own facet order, a seed in that shuffle of it
        def order(c):
            return list(c.facets) if seed is None else shuffled_facets(c, seed)

        c = cx("abcde", "abc de")
        self.assert_first_order(c, order(c))
        for m in range(3, 7):
            c = bowtie(m)
            self.assert_first_order(c, order(c))
        for facets in NON_EXTENDABLE:
            c = cx("abcdef", facets)
            for seed in range(50):
                self.assert_first_order(c, shuffled_facets(c, seed))

    @staticmethod
    def refutation_work(c, order=None):
        # the step tests the search makes to refute c; a candidate skipped
        # because no placed facet lies on one of its ridges is not one
        with counted_calls(shelling, "_step", 600_000) as calls:
            assert shelling_order(c, order) is None
        return calls[0]

    def test_bowtie_refutation_work(self):
        # a work count, not a time: without the memo of refuted placed sets
        # the search makes 16,356 step tests on bowtie m=12, with it 156
        # (228,696 and 2,908 when a candidate with no placed facet on a
        # ridge was still tested).  The counts are exact, so a change to the
        # order in which the search tries facets shows here; bowtie m=20 has
        # 40 facets, so its placed sets span two 30-bit digits
        assert self.refutation_work(bowtie(12)) == 156
        assert self.refutation_work(bowtie(20)) == 420

    def test_twenty_facet_refutation_work(self):
        # a non-shellable pure 2-complex on 8 vertices whose refutation
        # needs 143,343 refuted placed sets; a memo that stopped recording
        # at 131,072 made over 24 million step tests without an answer.
        # Testing the skipped candidates too made 527,822
        c = twenty_facets()
        for order in (None, shuffled_facets(c, 0)):
            assert self.refutation_work(c, order) == 449_730

    @pytest.mark.parametrize(
        "c, shellable",
        [
            (eleven_triangles(), False),
            (shellable_not_vd(), True),
            *((bowtie(m), False) for m in range(3, 9)),
        ],
        ids=["eleven_triangles", "shellable_not_vd", *(f"bowtie{m}" for m in range(3, 9))],
    )
    def test_verdict_matches_refutation_oracle(self, c, shellable):
        # the memo-free reference DFS is too slow to refute these (19 s on
        # eleven_triangles); the oracle keeps its refuted sets
        assert brute_is_shellable(c.facets) == shellable
        assert (shelling_order(c) is not None) == shellable

    @settings(max_examples=150)
    @given(st.one_of(complexes(), pure_complexes()))
    def test_verdict_matches_refutation_oracle_on_draws(self, c):
        assert (shelling_order(c) is not None) == brute_is_shellable(c.facets)

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
        c = two_skeleton(20)
        order = shelling_order(c)
        assert order is not None and is_shelling_order(c, list(order.facets))
        doc = tmp_path / "skeleton.cplx"
        doc.write_text(serialize_complex(c))
        assert main(["shellable", str(doc)]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_search_memory_stays_with_the_work(self):
        # the 2-skeleton of the 40-vertex simplex shells without a failed
        # step, so the search keeps no ridge mask: traced peak 2.05 MB, as
        # before ridge masks were kept at all, against 15.5 MB with a ridge
        # mask built for every facet up front
        c = two_skeleton(40)
        tracemalloc.start()
        try:
            assert shelling_order(c) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_isolated_points_are_shellable(self):
        for k in range(1, 6):
            c = from_facets(vset("abcdef"[:k]), [1 << i for i in range(k)])
            assert is_shellable(c)
