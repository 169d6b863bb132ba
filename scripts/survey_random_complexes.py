#!/usr/bin/env python3
"""Survey shellability and decomposability rates over random complexes.

Generates seeded random complexes, tabulates how often each property holds,
and double-checks the expected implications along the way: vertex-decomposable
implies shellable on every instance, pure or not (Björner and Wachs,
*Shellable nonpure complexes and posets II*, 1997), and shellable implies a
nonnegative h-vector on pure instances.  A complex keeps a record of the
verdicts decided on it, and a later verdict may be read off that record, so
each verdict is computed on its own fresh copy of the complex: otherwise the
implications would hold by construction.

    python scripts/survey_random_complexes.py --count 300 --max-vertices 6
"""

from __future__ import annotations

import argparse
import random
import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from shellability import (
    VertexSet,
    from_facets,
    h_vector,
    is_k_decomposable,
    is_pure,
    is_shellable,
    is_vertex_decomposable,
)

LETTERS = "abcdefghij"


def random_complex(rng: random.Random, max_vertices: int, pure: bool):
    if pure:
        n = rng.randint(2, max_vertices)
        k = rng.randint(1, n)
        pool = [sum(1 << b for b in c) for c in combinations(range(n), k)]
        m = rng.randint(1, min(6, len(pool)))
        return from_facets(VertexSet(tuple(LETTERS[:n])), rng.sample(pool, m))
    n = rng.randint(1, max_vertices)
    m = rng.randint(1, 8)
    return from_facets(
        VertexSet(tuple(LETTERS[:n])),
        [rng.randint(1, (1 << n) - 1) for _ in range(m)],
    )


def fresh(cplx):
    """An equal copy of ``cplx`` with nothing decided on it yet."""
    return from_facets(cplx.vertices, cplx.facets)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=300)
    parser.add_argument("--max-vertices", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    tally = {"pure": 0, "shellable": 0, "vd": 0, "k1": 0}
    violations = 0
    for step in range(args.count):
        cplx = random_complex(rng, args.max_vertices, pure=bool(step % 2))
        pure = is_pure(cplx)
        shellable = is_shellable(fresh(cplx))
        vd = is_vertex_decomposable(fresh(cplx))
        k1 = is_k_decomposable(fresh(cplx), min(1, cplx.dimension() + 1))
        tally["pure"] += pure
        tally["shellable"] += shellable
        tally["vd"] += vd
        tally["k1"] += k1
        if vd and not shellable:
            violations += 1
        if pure and shellable and any(entry < 0 for entry in h_vector(cplx)):
            violations += 1
        if vd and not k1:
            violations += 1

    total = args.count
    print(f"instances          {total}")
    for key, label in (
        ("pure", "pure"),
        ("shellable", "shellable"),
        ("vd", "vertex-decomposable"),
        ("k1", "1-decomposable"),
    ):
        print(f"{label:<19}{tally[key]:>5}  ({tally[key] / total:5.1%})")
    print(f"implication violations: {violations}")
    return 0 if violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
