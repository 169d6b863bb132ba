"""A fixed piece of work that gauges how fast the machine runs right now.

On a shared VM the same Python code runs up to twice as slow for tens of
seconds at a time, while other tenants load the host; the process is not
descheduled (no steal time), its instructions just take longer.  A whole run
can fall into such a spell, and then no statistic over the run's own samples
recovers the quiet figure.  So the benchmark runs ``reference()`` between its
queries and reports each query's time scaled to the reference's quiet time:

    scaled = measured * REFERENCE_S / (time of the references around it)

The reference is the benchmark's own code and never changes between the two
commits a comparison measures, so a change to the library moves the scaled
figures exactly as it moves the measured ones.  It mixes the kinds of work the
library does (int bit operations, lists, sets, tuple sorting, dicts, string
formatting and JSON), because those slow down together under contention while
a bare arithmetic loop slows down less.
"""

from __future__ import annotations

import json
import time

import oracle

# The reference's time on a quiet 2-vCPU Intel Xeon VM under Python 3.11;
# only a unit, so that scaled figures read as seconds at that speed.
REFERENCE_S = 0.00066

# two fans of 5 triangles on apex 0 and an edge joining their rims: 11
# facets on 13 vertices, so the subset search has 2,048 states
_FACETS = oracle.canonical(
    [1 | 1 << i | 1 << (i + 1) for i in (1, 2, 3, 4, 5, 7, 8, 9, 10, 11)] + [1 << 6 | 1 << 12]
)


def reference() -> int:
    shellable, nodes = oracle.shelling_profile(_FACETS)
    faces = sorted(oracle.faces_of(_FACETS), key=oracle.face_key)
    rows = {f"f{face:x}": oracle.bits(face) for face in faces}
    text = json.dumps(rows, sort_keys=True)
    return nodes + len(json.loads(text)) + len(text.split(",")) + (not shellable)


def timed_reference() -> float:
    t = time.perf_counter()
    reference()
    return time.perf_counter() - t
