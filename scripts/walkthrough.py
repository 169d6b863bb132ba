#!/usr/bin/env python3
"""End-to-end tour of the library on a seven-vertex example complex.

Builds an eight-triangle complex from its minimal nonfaces, prints the basic
invariants, derives linear-quotient chains from several shelling orders, and
walks a shedding-vertex chain of links down to a single point.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from shellability import (
    VertexSet,
    f_vector,
    from_nonfaces,
    h_vector,
    is_pure,
    is_simplex,
    is_vertex_decomposable,
    linear_quotients_from_shelling,
    link,
    minimal_nonfaces,
    shedding_vertices,
    shelling_order,
    shuffled_facets,
)

NONFACES = ("ab", "ac", "bc", "cd", "de", "df", "fg")


def show(cplx, faces):
    return " / ".join(
        " ".join(cplx.vertices.face_labels(f)) or "()" for f in faces
    )


def quotient_chain(cplx, order):
    steps = linear_quotients_from_shelling(cplx, list(order.facets))
    return "  order:      " + show(cplx, order.facets) + "\n" + \
           "  quotients:  " + " / ".join(" ".join(s) for s in steps)


def main() -> int:
    vs = VertexSet(tuple("abcdefg"))
    cplx = from_nonfaces(vs, [vs.face(tuple(w)) for w in NONFACES])

    print("facets:      ", show(cplx, cplx.facets))
    print("pure:        ", is_pure(cplx))
    print("f-vector:    ", f_vector(cplx))
    print("h-vector:    ", h_vector(cplx))
    print("min nonfaces:", show(cplx, minimal_nonfaces(cplx).gens))
    print()

    print("default search:")
    print(quotient_chain(cplx, shelling_order(cplx)))
    print("seeded shuffle (seed 42):")
    print(quotient_chain(cplx, shelling_order(cplx, shuffled_facets(cplx, 42))))
    print("fixed permutation (4,5,6,7,3,2,1,0):")
    fixed = [cplx.facets[i] for i in (4, 5, 6, 7, 3, 2, 1, 0)]
    print(quotient_chain(cplx, shelling_order(cplx, fixed)))
    print()

    print("vertex-decomposable:", is_vertex_decomposable(cplx))
    current = cplx
    while not is_simplex(current):
        sheds = shedding_vertices(current)
        labels = [current.vertices.face_labels(v)[0] for v in sheds]
        chosen = sheds[-1]
        print(
            f"shedding vertices: {labels}; "
            f"linking by {current.vertices.face_labels(chosen)[0]}"
        )
        current = link(current, chosen)
        print("  ->", show(current, current.facets))
    print("reached a simplex")
    return 0


if __name__ == "__main__":
    sys.exit(main())
