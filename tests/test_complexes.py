import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DEMO_NONFACES,
    LETTERS,
    brute_face_set,
    brute_from_nonfaces,
    brute_maximal,
    complexes,
    cx,
    fresh,
    label_sets,
    pure_complexes,
    random_pure_complex,
    two_large_facets,
    vset,
    words,
)
from shellability import (
    InvalidNonface,
    InvalidVertex,
    SimplicialComplex,
    VertexSet,
    VoidComplex,
    all_faces,
    f_vector,
    face_bits,
    from_facets,
    from_nonfaces,
    h_vector,
    is_pure,
    is_shellable,
    is_simplex,
    is_vertex_decomposable,
    minimal_nonfaces,
    parse_complex,
)


class TestFaceBits:
    def test_ascending_positions(self):
        assert face_bits(0) == []
        assert face_bits(0b10110) == [1, 2, 4]
        assert face_bits(1 << 63) == [63]

    @staticmethod
    def oracle(x):
        return [i for i in range(x.bit_length()) if x >> i & 1]

    @pytest.mark.parametrize(
        "x", [255, 256, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**200 | 2**64 | 5]
    )
    def test_byte_and_word_edges(self, x):
        # the last one-byte face, the first two-byte one, the top bit of a
        # word, a full word, and the first faces past 64 bits
        assert face_bits(x) == self.oracle(x)

    @settings(max_examples=300)
    @given(st.integers(0, 2**130))
    def test_matches_bit_by_bit_oracle(self, x):
        assert face_bits(x) == self.oracle(x)

    # a negative member after one with a higher bit: its union is -2, whose
    # length is too short to index the first member's vertex 3
    @pytest.mark.parametrize(
        "call", ["face_bits(-1)", "minimal_hitting_sets([-2])", "minimal_hitting_sets([8, -2])"]
    )
    def test_negative_raises(self, call):
        # a child process with a timeout, since a loop that misses the guard
        # never returns
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "from shellability import face_bits, minimal_hitting_sets\n"
            f"try:\n    {call}\nexcept ValueError:\n    print('ValueError')\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=20
        )
        assert (run.returncode, run.stdout) == (0, "ValueError\n")


class TestVertexSet:
    def test_basic(self):
        vs = vset("abc")
        assert vs.n == 3
        assert vs.index == {"a": 0, "b": 1, "c": 2}
        assert vs.face("ac") == 0b101
        assert vs.face_labels(0b101) == ("a", "c")
        assert VertexSet(["a", "b"]).labels == ("a", "b")

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError):
            VertexSet(("a", "a"))

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            VertexSet(("a", ""))

    def test_reserved_characters_rejected(self):
        # '()' is the empty face, '/' and '#' separate faces and start
        # comments, ',' separates --face labels, whitespace separates labels
        for label in ("()", "a/b", "a#", ",", "a,b", "a b", "a\tb", "\u00a0"):
            with pytest.raises(ValueError, match="invalid vertex label"):
                VertexSet(("a", label))

    def test_capacity(self):
        VertexSet(tuple(f"v{i}" for i in range(64)))
        with pytest.raises(ValueError):
            VertexSet(tuple(f"v{i}" for i in range(65)))

    def test_unknown_label(self):
        with pytest.raises(InvalidVertex):
            vset("abc").face("ad")
        for face in (0b1000, -1):
            with pytest.raises(InvalidVertex):
                vset("abc").face_labels(face)


class TestFromFacets:
    def test_demo_facets(self, demo):
        assert demo.kind == "proper"
        assert label_sets(demo, demo.facets) == {
            frozenset(w) for w in "ceg beg aeg bdg adg cef bef aef".split()
        }

    def test_canonical_order(self, demo):
        # cardinality descending, then bit pattern ascending
        assert words(demo, demo.facets) == [
            "aef", "bef", "cef", "adg", "bdg", "aeg", "beg", "ceg",
        ]

    def test_maximalisation(self):
        c = cx("ab", "ab a b")
        assert words(c, c.facets) == ["ab"]

    def test_void(self):
        # every route to a complex with no faces at all meets the constructor,
        # so no function taking a complex ever sees the void one
        for build in (
            lambda: from_facets(vset("abc"), []),
            lambda: from_facets(vset("abc"), iter(())),
            lambda: SimplicialComplex(vset("abc"), ()),
            lambda: parse_complex("vertices: a b c\nfacets:\n"),
            lambda: parse_complex("facets:"),
        ):
            with pytest.raises(VoidComplex):
                build()

    def test_constructor_sorts(self):
        c = SimplicialComplex(vset("abcd"), iter((0b1000, 0b0110, 0b0101)))
        assert c.facets == (0b0101, 0b0110, 0b1000)
        assert c.kind == "proper"
        assert SimplicialComplex(vset("ab"), [0]).kind == "irrelevant"

    def test_constructor_maximalises(self):
        # ab and its own vertex a, given as facets: the faces are those of
        # the simplex ab, so the constructor keeps ab alone and the
        # verdicts are the simplex's
        c = SimplicialComplex(VertexSet(("a", "b")), [0b11, 0b01])
        assert c.facets == (0b11,)
        assert is_simplex(c) and is_pure(c)
        assert is_shellable(c) and is_vertex_decomposable(fresh(c))

    def test_irrelevant(self):
        c = from_facets(vset("abc"), [0])
        assert c.kind == "irrelevant" and c.facets == (0,)

    def test_empty_face_absorbed(self):
        c = from_facets(vset("abc"), [0, 0b001])
        assert c.kind == "proper" and c.facets == (0b001,)

    def test_out_of_range_face(self):
        with pytest.raises(InvalidVertex):
            from_facets(vset("abc"), [0b1000])
        for face in (0b100, -1):
            with pytest.raises(InvalidVertex, match=r"outside 0\.\.1"):
                SimplicialComplex(vset("ab"), [0b01, face])

    @given(st.one_of(complexes(), st.just(from_facets(vset("ab"), [0]))), st.data())
    def test_idempotent(self, c, data):
        # facets handed over in any order; dimension, purity and kind read
        # the ends of the canonical order, so check them against every facet
        given = data.draw(st.permutations(c.facets))
        rebuilt = from_facets(c.vertices, given)
        assert rebuilt == c
        sizes = {f.bit_count() for f in given}
        assert rebuilt.dimension() == max(sizes) - 1
        assert is_pure(rebuilt) == (len(sizes) == 1)
        assert rebuilt.kind == ("irrelevant" if given == [0] else "proper")

    @given(st.data())
    def test_matches_brute_maximal(self, data):
        # pools with repeats, faces nested in other drawn faces, and the
        # empty face
        n = data.draw(st.integers(1, 7))
        faces = st.integers(0, (1 << n) - 1)
        pool = data.draw(st.lists(faces, min_size=1, max_size=10))
        nested = data.draw(st.lists(st.tuples(st.sampled_from(pool), faces), max_size=6))
        pool += [f & mask for f, mask in nested]
        pool += data.draw(st.lists(st.sampled_from(pool), max_size=4))
        pool += data.draw(st.sampled_from([[], [0]]))
        vs = vset(LETTERS[:n])
        # canonical facet order: cardinality descending, then bit pattern
        expected = tuple(sorted(brute_maximal(pool), key=lambda f: (-f.bit_count(), f)))
        assert from_facets(vs, pool).facets == expected
        assert SimplicialComplex(vs, pool).facets == expected
        assert SimplicialComplex(vs, iter(pool)).facets == expected

    def test_many_larger_faces_match_brute_maximal(self):
        # many larger kept faces and a size drop after each size: 17 to 40
        # of the 4-sets on nine vertices, then smaller faces of which some
        # lie in none of them and so join the index at the next drop
        rng = random.Random(14)
        vs = vset(LETTERS[:9])
        quads = [sum(1 << b for b in c) for c in combinations(range(9), 4)]
        for _ in range(40):
            pool = rng.sample(quads, rng.randint(17, 40))
            pool += [sum(1 << b for b in rng.sample(range(9), rng.randint(0, 3)))
                     for _ in range(15)]
            expected = sorted(brute_maximal(pool), key=lambda f: (-f.bit_count(), f))
            assert SimplicialComplex(vs, pool).facets == tuple(expected)
        # masks wider than a machine word: 40 random faces of each of sizes
        # 6, 5 and 4 on 64 vertices, which are all kept, then proper subsets
        # of 90 of them (many lie only in kept faces at positions past 64)
        # and 30 random faces of one to three vertices, some inside a kept
        # face and some outside them all
        vs = VertexSet(tuple(f"v{i}" for i in range(64)))
        tops = [sum(1 << b for b in rng.sample(range(64), size))
                for size in (6, 5, 4) for _ in range(40)]
        pool = tops + [sum(1 << b for b in rng.sample(face_bits(f), f.bit_count() - 1))
                       for f in rng.sample(tops, 90)]
        pool += [sum(1 << b for b in rng.sample(range(64), rng.randint(1, 3)))
                 for _ in range(30)]
        expected = sorted(brute_maximal(pool), key=lambda f: (-f.bit_count(), f))
        assert len(expected) > 64 and {f.bit_count() for f in expected} >= {4, 5, 6}
        assert SimplicialComplex(vs, pool).facets == tuple(expected)


class TestFromNonfaces:
    def test_demo(self, demo):
        vs = vset("abcdefg")
        built = from_nonfaces(vs, [vs.face(tuple(w)) for w in DEMO_NONFACES.split()])
        assert built == demo

    def test_no_constraints_full_simplex(self):
        vs = vset("abc")
        c = from_nonfaces(vs, [])
        assert c.facets == (0b111,)

    def test_triangle_boundary(self, tri_boundary):
        vs = vset("abc")
        c = from_nonfaces(vs, [0b111])
        assert c == tri_boundary
        assert c == brute_from_nonfaces(vs, [0b111])

    def test_empty_nonface_rejected(self):
        with pytest.raises(InvalidNonface):
            from_nonfaces(vset("abc"), [0])

    def test_out_of_range_nonface(self):
        with pytest.raises(InvalidVertex):
            from_nonfaces(vset("abc"), [0b1000])

    @given(complexes(max_vertices=5))
    def test_matches_brute_filter(self, c):
        # treat the facets of a random complex as a nonface list
        nonfaces = list(c.facets)
        if any(nf == 0 for nf in nonfaces):
            return
        vs = c.vertices
        assert from_nonfaces(vs, nonfaces) == brute_from_nonfaces(vs, nonfaces)

    @given(complexes(max_vertices=7))
    def test_round_trip_with_minimal_nonfaces(self, c):
        if c.kind != "proper":
            return
        assert from_nonfaces(c.vertices, minimal_nonfaces(c).gens) == c


class TestFVector:
    def test_full_simplex(self, full3):
        assert f_vector(full3) == (1, 3, 3, 1)

    def test_triangle_boundary(self, tri_boundary):
        assert f_vector(tri_boundary) == (1, 3, 3)

    def test_demo(self, demo):
        assert f_vector(demo) == (1, 7, 14, 8)

    def test_irrelevant(self):
        assert f_vector(from_facets(vset("ab"), [0])) == (1,)

    @given(complexes())
    def test_matches_brute_enumeration(self, c):
        f = f_vector(c)
        by_size = {}
        for s in brute_face_set(c):
            by_size[s.bit_count()] = by_size.get(s.bit_count(), 0) + 1
        assert list(f) == [by_size.get(i, 0) for i in range(len(f))]


class TestHVector:
    def test_full_simplex(self, full3):
        assert h_vector(full3) == (1, 0, 0, 0)

    def test_triangle_boundary(self, tri_boundary):
        assert h_vector(tri_boundary) == (1, 1, 1)

    def test_demo(self, demo):
        assert h_vector(demo) == (1, 4, 3, 0)

    @given(complexes())
    def test_length_and_leading_entry(self, c):
        h = h_vector(c)
        assert len(h) == c.dimension() + 2
        assert h[0] == 1

    @given(st.one_of(complexes(), pure_complexes()))
    def test_matches_face_sum(self, c):
        # h(t) is the sum over the faces s of t^|s| (1 - t)^(d - |s|),
        # d = dim + 1, expanded one factor (1 - t) at a time
        d = c.dimension() + 1
        h = [0] * (d + 1)
        for s in brute_face_set(c):
            term = [0] * s.bit_count() + [1]
            for _ in range(d - s.bit_count()):
                term = [a - b for a, b in zip(term + [0], [0] + term)]
            for j, a in enumerate(term):
                h[j] += a
        assert h_vector(c) == tuple(h)

    @given(pure_complexes())
    def test_sum_is_facet_count_when_pure(self, c):
        assert sum(h_vector(c)) == len(c.facets)

    @settings(max_examples=20)
    @given(complexes())
    def test_sum_rule_on_seeded_pure_instances(self, c):
        # extra deterministic coverage alongside the hypothesis pure strategy
        rng = random.Random(11)
        for _ in range(20):
            p = random_pure_complex(rng)
            assert sum(h_vector(p)) == len(p.facets)


class TestPurityAndSimplex:
    def test_demo_is_pure(self, demo):
        assert is_pure(demo)

    def test_mixed_dimensions(self):
        assert not is_pure(cx("abc", "ab c"))

    def test_irrelevant_is_pure(self):
        assert is_pure(from_facets(vset("ab"), [0]))

    def test_is_simplex(self, demo, full3):
        assert is_simplex(full3)
        assert not is_simplex(demo)
        assert is_simplex(from_facets(vset("ab"), [0]))
        assert is_simplex(cx("abcde", "e"))


class TestAllFaces:
    def test_demo_vertices(self, demo):
        assert words(demo, all_faces(demo, 0)) == list("abcdefg")

    def test_triangle_boundary(self, tri_boundary):
        assert words(tri_boundary, all_faces(tri_boundary, 1)) == [
            "a", "b", "c", "ab", "ac", "bc",
        ]

    def test_k_caps_at_dimension(self):
        c = cx("ab", "ab")
        assert words(c, all_faces(c, 5)) == ["a", "b", "ab"]

    def test_excludes_empty_face(self):
        c = from_facets(vset("ab"), [0])
        assert all_faces(c, 3) == []

    @given(complexes())
    def test_matches_brute_face_set(self, c):
        faces = sorted(brute_face_set(c), key=lambda f: (f.bit_count(), f))
        for k in range(3):
            assert all_faces(c, k) == [f for f in faces if 0 < f.bit_count() <= k + 1]

    def test_large_facets_list_only_small_faces(self):
        c = two_large_facets()
        edges = [
            (1 << i) | (1 << j) for j in range(41) for i in range(j) if (i, j) != (0, 40)
        ]
        assert all_faces(c, 1) == [1 << i for i in range(41)] + sorted(edges)

    def test_errors(self, demo):
        with pytest.raises(ValueError):
            all_faces(demo, -1)


class TestDimension:
    def test_values(self, demo):
        assert demo.dimension() == 2
        assert from_facets(vset("ab"), [0]).dimension() == -1
