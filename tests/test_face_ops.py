import random

import pytest
from hypothesis import given

from helpers import (
    brute_face_set,
    brute_maximal,
    complexes,
    cx,
    fc,
    label_sets,
    random_complex,
    words,
)
from shellability import (
    EmptyFace,
    NotAFace,
    all_faces,
    f_vector,
    face_deletion,
    link,
    relabelled,
)


def canonical_facets(faces) -> tuple[int, ...]:
    """Inclusion-maximal faces, cardinality descending, then bit pattern."""
    return tuple(sorted(brute_maximal(faces), key=lambda f: (-f.bit_count(), f)))


class TestLink:
    def test_demo_by_f(self, demo):
        e = link(demo, fc(demo, "f"))
        assert label_sets(e, e.facets) == {frozenset(w) for w in ("ae", "be", "ce")}

    def test_iterated_link_is_point(self, demo):
        e = link(demo, fc(demo, "f"))
        f = link(e, fc(e, "c"))
        assert words(f, f.facets) == ["e"]

    @given(complexes())
    def test_link_of_empty_face_is_identity(self, c):
        assert link(c, 0) == c

    def test_not_a_face(self, demo):
        with pytest.raises(NotAFace):
            link(demo, fc(demo, "fg"))

    @given(complexes(max_vertices=5))
    def test_face_characterisation(self, c):
        # link faces are exactly those disjoint from the face whose union is a face
        faces = sorted(brute_face_set(c))
        if not faces:
            return
        rng = random.Random(5)
        for sigma in rng.sample(faces, min(4, len(faces))):
            lk = link(c, sigma)
            expected = {
                t for t in brute_face_set(c) if t & sigma == 0 and c.is_face(t | sigma)
            }
            assert brute_face_set(lk) == expected
            assert lk.facets == canonical_facets(expected)


class TestFaceDeletion:
    def test_demo_by_f(self, demo):
        d = face_deletion(demo, fc(demo, "f"))
        assert label_sets(d, d.facets) == {
            frozenset(w) for w in ("ceg", "beg", "aeg", "bdg", "adg")
        }

    def test_full_simplex(self, full3):
        d = face_deletion(full3, fc(full3, "a"))
        assert words(d, d.facets) == ["bc"]

    def test_triangle_boundary_edge(self, tri_boundary):
        d = face_deletion(tri_boundary, fc(tri_boundary, "ab"))
        assert label_sets(d, d.facets) == {frozenset("ac"), frozenset("bc")}

    def test_empty_face_rejected(self, demo):
        with pytest.raises(EmptyFace):
            face_deletion(demo, 0)

    def test_not_a_face(self, demo):
        with pytest.raises(NotAFace):
            face_deletion(demo, fc(demo, "abc"))

    def test_deleting_last_vertex_leaves_irrelevant(self):
        point = cx("a", "a")
        assert face_deletion(point, fc(point, "a")).kind == "irrelevant"

    @given(complexes(max_vertices=5))
    def test_faces_are_those_not_containing_sigma(self, c):
        faces = sorted(f for f in brute_face_set(c) if f)
        if not faces:
            return
        rng = random.Random(7)
        for sigma in rng.sample(faces, min(4, len(faces))):
            got = face_deletion(c, sigma)
            expected = {t for t in brute_face_set(c) if sigma & ~t != 0}
            assert brute_face_set(got) == expected
            assert got.facets == canonical_facets(expected)


class TestDecompositionIdentity:
    @given(complexes(max_vertices=6))
    def test_vertex_split_counts(self, c):
        # faces(C) splits into faces avoiding v and link faces joined with v
        for v in all_faces(c, 0):
            total = len(brute_face_set(c))
            deleted = len(brute_face_set(face_deletion(c, v)))
            linked = len(brute_face_set(link(c, v)))
            assert total == deleted + linked


class TestRelabelling:
    def test_operations_commute_with_relabelling(self):
        rng = random.Random(99)
        for _ in range(60):
            c = random_complex(rng, max_vertices=6, max_faces=6)
            n = c.vertices.n
            perm = rng.sample(range(n), n)
            mapped = relabelled(c, perm)
            faces = [f for f in sorted(brute_face_set(c)) if f]
            if not faces:
                continue
            sigma = rng.choice(faces)
            sigma_mapped = sum(1 << perm[b] for b in range(n) if sigma >> b & 1)
            assert relabelled(link(c, sigma), perm) == link(mapped, sigma_mapped)
            assert relabelled(face_deletion(c, sigma), perm) == face_deletion(
                mapped, sigma_mapped
            )
            assert f_vector(mapped) == f_vector(c)

    def test_requires_a_permutation(self):
        c = cx("abc", "ab bc")
        for positions in ([0, 1], [0, 1, 1], [0, 1, 3]):
            with pytest.raises(ValueError):
                relabelled(c, positions)
