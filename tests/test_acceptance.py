"""Acceptance gate: the end-to-end criteria the package must meet.

Each test prints one pass/fail line (run with ``pytest -s`` to see them on
success).  Expected values are exact; the randomised criteria use fixed seeds
and demand zero violations.
"""

import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

from helpers import (
    DEMO_NONFACES,
    O1,
    O2,
    O3,
    Q1,
    Q2,
    Q3,
    brute_is_shelling_order,
    faces_of,
    fc,
    fresh,
    label_sets,
    random_complex,
    random_pure_complex,
    vset,
    words,
)
from shellability import (
    InvalidOrder,
    MonomialSet,
    alexander_dual,
    dual_ideal_generators,
    from_facets,
    from_nonfaces,
    h_from_shelling,
    h_vector,
    is_k_decomposable,
    is_pure,
    is_shellable,
    is_shelling_order,
    is_simplex,
    is_vertex_decomposable,
    linear_quotients_from_shelling,
    link,
    minimal_nonfaces,
    relabelled,
    shedding_vertices,
    shelling_order,
    shuffled_facets,
)

DATA = Path(__file__).parent / "data"


def _gate(number: int, name: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"criterion {number} [{name}]: FAIL")
        raise
    print(f"criterion {number} [{name}]: PASS")


def _demo_from_nonfaces():
    vs = vset("abcdefg")
    return from_nonfaces(vs, [vs.face(tuple(w)) for w in DEMO_NONFACES.split()])


def test_criterion_1_session_replay_exact():
    def check():
        demo = _demo_from_nonfaces()
        assert label_sets(demo, demo.facets) == {
            frozenset(w) for w in O1.split()
        }, "facets differ from the session output"
        assert is_pure(demo)
        gens = minimal_nonfaces(demo).gens
        assert label_sets(demo, gens) == {
            frozenset(w) for w in DEMO_NONFACES.split()
        }
        assert len(gens) == 7

    _gate(1, "session replay", check)


def test_criterion_2_shelling_orders_and_quotients():
    def check():
        demo = _demo_from_nonfaces()
        for order_words, expected in ((O1, Q1), (O2, Q2), (O3, Q3)):
            order = faces_of(demo, order_words)
            assert is_shelling_order(demo, order), order_words
            steps = linear_quotients_from_shelling(demo, order)
            assert [set(s) for s in steps] == [set(s) for s in expected], order_words
        found = shelling_order(demo)
        assert found is not None
        assert is_shelling_order(demo, list(found.facets))

    _gate(2, "shelling orders", check)


def test_criterion_3_decomposability_replay():
    def check():
        demo = _demo_from_nonfaces()
        assert is_vertex_decomposable(demo)
        assert words(demo, shedding_vertices(demo)) == list("abcdf")
        linked = link(demo, fc(demo, "f"))
        assert label_sets(linked, linked.facets) == {
            frozenset(w) for w in ("ae", "be", "ce")
        }
        assert words(linked, shedding_vertices(linked)) == list("abc")
        point = link(linked, fc(linked, "c"))
        assert is_simplex(point)
        assert words(point, point.facets) == ["e"]

    _gate(3, "decomposability replay", check)


def test_criterion_4_invariant_suite_on_random_complexes():
    def check():
        rng = random.Random(0x5EED)
        total = pure_count = nonpure_count = 0
        for step in range(520):
            cplx = (
                random_pure_complex(rng)
                if step % 2
                else random_complex(rng)
            )
            total += 1
            pure = is_pure(cplx)
            if pure:
                pure_count += 1
            else:
                nonpure_count += 1

            # (a) dual involution
            if cplx.kind == "proper" and cplx.facets != (
                cplx.vertices.full_face,
            ):
                assert alexander_dual(alexander_dual(cplx)) == cplx

            vd = is_vertex_decomposable(cplx)

            # (b) h from any found shelling order, pure or not, matches the
            # formula
            order = shelling_order(cplx)
            if order is not None:
                assert h_from_shelling(cplx, list(order.facets)) == h_vector(cplx)
            # (c) vertex-decomposable => shellable, and for pure complexes
            # shellable => nonnegative h; vd was the first verdict asked of
            # cplx and shelling_order always searches, so both are computed,
            # and from (d) on each verdict is asked of a fresh copy, so none
            # is read off another's record
            shellable = order is not None
            if vd:
                assert shellable
            if pure and shellable:
                assert all(entry >= 0 for entry in h_vector(cplx))

            # (d) 0-decomposability is vertex-decomposability
            assert is_k_decomposable(fresh(cplx), 0) == vd

            # (e) monotone in the shedding-face budget
            dim = cplx.dimension()
            verdicts = [is_k_decomposable(fresh(cplx), k) for k in range(dim + 1)]
            for earlier, later in zip(verdicts, verdicts[1:]):
                assert not (earlier and not later)

            # (f) relabelling invariance of all verdicts
            n = cplx.vertices.n
            mapped = relabelled(cplx, rng.sample(range(n), n))
            assert is_shellable(fresh(mapped)) == is_shellable(fresh(cplx))
            assert is_vertex_decomposable(fresh(mapped)) == vd
            assert [
                is_k_decomposable(fresh(mapped), k) for k in range(dim + 1)
            ] == verdicts
        assert total >= 500
        assert pure_count > 0 and nonpure_count > 0

    _gate(4, "invariant suite", check)


def test_criterion_5_oracle_equivalence():
    def check():
        rng = random.Random(0xACE5)
        for _ in range(100):
            cplx = random_pure_complex(rng, max_vertices=6, max_facets=6)
            fast = is_shellable(cplx)
            brute = any(
                brute_is_shelling_order(list(p)) for p in permutations(cplx.facets)
            )
            assert fast == brute
            gens = dual_ideal_generators(cplx).gens
            exists_linear = any(
                has_lq
                for has_lq in (
                    _linear(cplx, p) for p in permutations(gens)
                )
            )
            assert exists_linear == fast

    def _linear(cplx, gen_order):
        from shellability import has_linear_quotients

        return has_linear_quotients(MonomialSet(cplx.vertices, tuple(gen_order)))

    _gate(5, "oracle equivalence", check)


def test_criterion_6_negative_controls():
    def check():
        two_edges = from_facets(vset("abcd"), [0b0011, 0b1100])
        assert not is_shellable(fresh(two_edges))
        assert not is_vertex_decomposable(fresh(two_edges))
        assert not is_k_decomposable(fresh(two_edges), 1)
        demo = _demo_from_nonfaces()
        assert h_vector(demo) == (1, 4, 3, 0)
        assert h_from_shelling(demo, faces_of(demo, O1)) == (1, 4, 3, 0)

    _gate(6, "negative controls", check)


def test_criterion_7_determinism():
    def check():
        demo = _demo_from_nonfaces()
        assert shelling_order(demo, shuffled_facets(demo, 42)) == shelling_order(
            demo, shuffled_facets(demo, 42)
        )
        facets = list(demo.facets)
        for order in (
            [facets[0], *facets[:-1]],
            facets[:2],
            [*facets[1:], facets[0] | facets[1]],
        ):
            try:
                shelling_order(demo, order)
            except InvalidOrder:
                pass
            else:
                raise AssertionError("non-permutation accepted")

        env = dict(os.environ)
        src = str(DATA.parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        base = [sys.executable, "-m", "shellability"]
        cmd = base + [
            "shelling-order", "--random", "--seed", "42", str(DATA / "demo.cplx")
        ]
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == 0
        assert first.stdout == second.stdout and first.stdout
        bad = subprocess.run(
            base
            + [
                "shelling-order", "--permutation", "0,0,1,2,3,4,5,6",
                str(DATA / "demo.cplx"),
            ],
            capture_output=True,
            env=env,
        )
        assert bad.returncode == 3

    _gate(7, "determinism", check)
