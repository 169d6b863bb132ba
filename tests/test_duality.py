import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    O1,
    O2,
    O3,
    Q1,
    Q2,
    Q3,
    brute_has_linear_quotients,
    brute_linear_quotients,
    brute_minimal_nonfaces,
    complexes,
    cx,
    faces_of,
    label_sets,
    pure_complexes,
    random_pure_complex,
    vset,
    words,
)
from shellability import (
    InvalidComplex,
    InvalidOrder,
    Kind,
    MonomialSet,
    VertexSet,
    VoidComplex,
    VoidDual,
    alexander_dual,
    dual_ideal_generators,
    face_bits,
    from_facets,
    from_nonfaces,
    has_linear_quotients,
    linear_quotients_from_shelling,
    minimal_nonfaces,
    shelling_order,
)


class TestMinimalNonfaces:
    def test_demo(self, demo):
        gens = minimal_nonfaces(demo).gens
        assert words(demo, gens) == ["ab", "ac", "bc", "cd", "de", "df", "fg"]

    def test_full_simplex(self, full3):
        assert minimal_nonfaces(full3).gens == ()

    def test_triangle_boundary(self, tri_boundary):
        assert words(tri_boundary, minimal_nonfaces(tri_boundary).gens) == ["abc"]

    def test_unused_vertices_are_nonfaces(self):
        c = cx("abcd", "ab")
        assert words(c, minimal_nonfaces(c).gens) == ["c", "d"]

    def test_void_rejected(self):
        with pytest.raises(VoidComplex):
            minimal_nonfaces(from_facets(vset("ab"), []))

    @given(complexes(max_vertices=6))
    def test_matches_brute_force(self, c):
        assert set(minimal_nonfaces(c).gens) == brute_minimal_nonfaces(c)


def _canonical(faces) -> list[int]:
    return sorted(faces, key=lambda f: (f.bit_count(), f))


class TestSixtyFourVertices:
    """Inputs at the advertised vertex limit, with few facets or nonfaces."""

    VS = VertexSet(tuple(f"v{i}" for i in range(64)))

    def random_faces(self, seed, count, size):
        rng = random.Random(seed)
        return [sum(1 << b for b in rng.sample(range(64), size)) for _ in range(count)]

    def test_two_large_facets(self):
        low, high = (1 << 40) - 1, ((1 << 64) - 1) ^ ((1 << 24) - 1)
        c = from_facets(self.VS, [low, high])
        gens = minimal_nonfaces(c).gens
        # one vertex outside each facet; the two complements are disjoint
        assert len(gens) == 576
        assert set(gens) == {
            1 << x | 1 << y for x in range(40, 64) for y in range(24)
        }
        assert from_nonfaces(self.VS, gens) == c
        assert alexander_dual(alexander_dual(c)) == c

    def test_five_random_large_facets(self):
        c = from_facets(self.VS, self.random_faces(1, 5, 50))
        gens = minimal_nonfaces(c).gens
        assert len(gens) == 6010
        assert list(gens) == _canonical(set(gens))
        for g in gens:
            assert not c.is_face(g)
            assert all(c.is_face(g & ~(1 << b)) for b in face_bits(g))
        assert from_nonfaces(self.VS, gens) == c
        assert alexander_dual(alexander_dual(c)) == c

    def test_few_nonfaces(self):
        nonfaces = self.random_faces(4, 12, 3)
        c = from_nonfaces(self.VS, nonfaces)
        assert len(c.facets) == 9225
        assert list(minimal_nonfaces(c).gens) == _canonical(nonfaces)


class TestAlexanderDual:
    def test_demo(self, demo):
        dual = alexander_dual(demo)
        assert label_sets(dual, dual.facets) == {
            frozenset(w)
            for w in ("cdefg", "bdefg", "adefg", "abefg", "abcfg", "abceg", "abcde")
        }

    def test_triangle_boundary_dual_is_irrelevant(self, tri_boundary):
        assert alexander_dual(tri_boundary).kind is Kind.IRRELEVANT

    def test_full_simplex_rejected(self, full3):
        with pytest.raises(VoidDual):
            alexander_dual(full3)

    def test_void_rejected(self):
        with pytest.raises(VoidComplex):
            alexander_dual(from_facets(vset("ab"), []))

    @given(complexes(max_vertices=7))
    def test_involution(self, c):
        if c.kind is not Kind.PROPER or c.facets == (c.vertices.full_face,):
            return
        assert alexander_dual(alexander_dual(c)) == c


class TestDualIdealGenerators:
    def test_demo_set_and_alignment(self, demo):
        gens = dual_ideal_generators(demo)
        assert label_sets(demo, gens.gens) == {
            frozenset(w)
            for w in ("abdf", "acdf", "bcdf", "acef", "bcef", "abdg", "acdg", "bcdg")
        }
        full = demo.vertices.full_face
        assert gens.gens == tuple(full ^ f for f in demo.facets)

    def test_single_facet(self):
        c = cx("abc", "ab")
        assert words(c, dual_ideal_generators(c).gens) == ["c"]

    def test_requires_proper(self):
        with pytest.raises(InvalidComplex):
            dual_ideal_generators(from_facets(vset("ab"), [0]))

    @given(complexes(max_vertices=6))
    def test_equals_dual_nonfaces_as_set(self, c):
        if c.kind is not Kind.PROPER or c.facets == (c.vertices.full_face,):
            return
        gens = set(dual_ideal_generators(c).gens)
        assert gens == set(minimal_nonfaces(alexander_dual(c)).gens)


class TestHasLinearQuotients:
    def test_order_induced_by_shelling(self, demo):
        full = demo.vertices.full_face
        gens = tuple(full ^ f for f in faces_of(demo, O1))
        assert has_linear_quotients(MonomialSet(demo.vertices, gens))

    def test_single_generator(self):
        vs = vset("abc")
        assert has_linear_quotients(MonomialSet(vs, (vs.face("ab"),)))

    def test_disjoint_pair_fails_both_ways(self):
        vs = vset("abcd")
        ab, cd = vs.face("ab"), vs.face("cd")
        assert not has_linear_quotients(MonomialSet(vs, (ab, cd)))
        assert not has_linear_quotients(MonomialSet(vs, (cd, ab)))

    def test_precondition_violations(self):
        vs = vset("abc")
        ab = vs.face("ab")
        with pytest.raises(ValueError, match="nonempty"):
            has_linear_quotients(MonomialSet(vs, ()))
        for gens in [(ab, vs.face("a")), (ab, ab), (ab, 0)]:
            with pytest.raises(ValueError, match="incomparable"):
                has_linear_quotients(MonomialSet(vs, gens))
        # a generator outside the ground set is named first, even when it is
        # also comparable with another
        for gens in [(ab, 0b1000), (ab, ab | 0b1000)]:
            with pytest.raises(ValueError, match="ground set"):
                has_linear_quotients(MonomialSet(vs, gens))

    @given(complexes(max_vertices=7, max_faces=8), st.randoms(use_true_random=False))
    def test_matches_minimal_difference_oracle(self, c, rnd):
        # the facets of a random complex are pairwise incomparable
        gens = list(c.facets)
        rnd.shuffle(gens)
        mset = MonomialSet(c.vertices, tuple(gens))
        assert has_linear_quotients(mset) == brute_has_linear_quotients(gens)


class TestLinearQuotientsFromShelling:
    def test_session_orders_reproduce(self, demo):
        assert linear_quotients_from_shelling(demo, faces_of(demo, O1)) == Q1
        assert linear_quotients_from_shelling(demo, faces_of(demo, O2)) == Q2
        assert linear_quotients_from_shelling(demo, faces_of(demo, O3)) == Q3

    def test_invalid_order(self, demo):
        with pytest.raises(InvalidOrder):
            linear_quotients_from_shelling(demo, list(demo.facets[:-1]))
        with pytest.raises(InvalidOrder):
            linear_quotients_from_shelling(demo, list(demo.facets) + [demo.facets[0]])

    @settings(max_examples=60)
    @given(pure_complexes())
    def test_found_orders_induce_linear_quotients(self, c):
        order = shelling_order(c)
        if order is None:
            return
        full = c.vertices.full_face
        induced = MonomialSet(c.vertices, tuple(full ^ f for f in order.facets))
        assert has_linear_quotients(induced)
        steps = linear_quotients_from_shelling(c, list(order.facets))
        assert all(step for step in steps)

    @given(complexes(max_vertices=7, max_faces=8), st.randoms(use_true_random=False))
    def test_matches_pair_scan_oracle(self, c, rnd):
        # any facet order, a shelling or not; the label order must match too
        order = list(c.facets)
        rnd.shuffle(order)
        assert linear_quotients_from_shelling(c, order) == brute_linear_quotients(c, order)

    def test_label_order_on_seeded_pure_orders(self):
        # pure complexes often put several quotient vertices in one step
        rng = random.Random(2718)
        for _ in range(300):
            c = random_pure_complex(rng, max_vertices=7, max_facets=10)
            order = list(c.facets)
            rng.shuffle(order)
            assert linear_quotients_from_shelling(c, order) == brute_linear_quotients(
                c, order
            )
