"""The three workloads: seeded inputs, the queries run on them, and the checks.

Each workload comes in three steps.  ``make(seed)`` generates the inputs and
their expected answers with the benchmark's own code (``oracle``).
``prepare(spec, pass_index)`` lays out one pass: names, plain-data inputs and
checks.  Neither touches the library.  ``build(sh, items)`` turns a pass into
library objects and queries; it is the library's share of set-up, and the
benchmark times it.  A query's ``call`` looks its library function up on the
module at call time, so the traced run sees the call.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Callable, Sequence

import oracle
from oracle import canonical, face_key, permute

LETTERS = "abcdefg"


@dataclass(frozen=True)
class Raised:
    """A query that raised instead of answering."""

    kind: str
    message: str = field(compare=False)


@dataclass
class Query:
    name: str
    call: Callable[[], Any]
    # reason the answer is wrong, or None; never sees a Raised
    check: Callable[[Any], str | None]
    # the last (answer, reason) checked, reused while the answer repeats
    verified: tuple[Any, str | None] | None = None


# --- complex families, as facet bitmasks ---------------------------------


def skeleton(n: int, k: int) -> list[int]:
    """The k-skeleton of the simplex on n vertices: shellable and VD."""
    return [sum(1 << b for b in c) for c in combinations(range(n), k + 1)]


def cross_polytope(d: int) -> list[int]:
    """Boundary of the d-dimensional cross-polytope on vertices 0..2d-1, with
    antipodal pairs (2i, 2i+1): shellable and VD."""
    return [
        sum(1 << (2 * i + (pick >> i & 1)) for i in range(d)) for pick in range(1 << d)
    ]


def bowtie(m: int) -> list[int]:
    """Two fans of m triangles sharing only their apex, vertex 0; the paths
    are 1..m+1 and m+2..2m+2.  Pure and connected, but the first triangle of
    the second fan meets everything before it in a vertex, so it is not
    shellable, hence neither vertex- nor 1-decomposable."""
    out = []
    for start in (1, m + 2):
        out.extend(1 | 1 << i | 1 << (i + 1) for i in range(start, start + m))
    return out


def stacked(n: int, d: int, rng: random.Random) -> list[int]:
    """A tree of d-simplices: each new vertex is coned over a ridge of an
    earlier simplex.  Every new simplex meets the earlier ones in exactly that
    ridge, so the construction order is a shelling."""
    facets = [(1 << (d + 1)) - 1]
    for v in range(d + 1, n):
        parent = rng.choice(facets)
        facets.append(parent & ~(1 << rng.choice(oracle.bits(parent))) | 1 << v)
    return facets


def random_pure(rng: random.Random, n: int, m: int, k: int) -> list[int]:
    pool = [sum(1 << b for b in c) for c in combinations(range(n), k)]
    return rng.sample(pool, m)


# --- shared checks ---------------------------------------------------------


def check_order(facets: Sequence[int], shellable: bool) -> Callable[[Any], str | None]:
    def check(out) -> str | None:
        if not shellable:
            return None if out is None else "returned an order for a non-shellable complex"
        if out is None:
            return "returned no order for a shellable complex"
        return oracle.check_shelling(facets, out.facets, out.restrictions)

    return check


def check_equal(expected) -> Callable[[Any], str | None]:
    return lambda out: None if out == expected else f"expected {expected!r}, got {out!r}"


# --- search ------------------------------------------------------------------

# Sizes step up so that the costs double from one size to the next, and stop
# where one query takes about 0.2 s (probes on the unmodified package:
# shelling_order on bowtie m=11 0.2 s, VD on m=7 0.12 s, 1-decomposability
# on m=5 0.07 s), so that a pass is short and a run has many of them.
# Bowties keep their constructed vertex order: the VD recursion's cost
# depends on it by more than 10x, and the seed must not move the figures.
SHELL_BOWTIES = range(6, 12)
VD_BOWTIES = range(4, 8)
K1_BOWTIES = range(2, 6)
# the 2-skeleton on 20 vertices is shellable, but its 1,140 facets exceed the
# recursion depth of the shelling search: it stays as a known failure
SHELL_SKELETA = range(10, 21)
VD_SKELETA = range(6, 10)
SHELL_CROSS = range(3, 7)
VD_CROSS = range(3, 6)
K1_CROSS = range(3, 5)
# Random pure complexes with 9-10 facets on 6-7 vertices.  An exhaustive
# search costs from microseconds to seconds on them, so non-shellable ones
# are drawn with a search tree of RANDOM_NODES nodes: the seed changes the
# instances but not the work.  Shellable ones are found in well under a
# millisecond.
RANDOM_SHELLABLE = 30
RANDOM_NONSHELLABLE = 40
RANDOM_NODES = (1000, 1300)
OPERATIONS = {"shell": "shelling_order", "vd": "is_vertex_decomposable",
              "k1": "is_k_decomposable(k=1)"}


def _random_instances(rng: random.Random):
    shellable, hard = [], []
    for _ in range(100_000):
        if len(shellable) == RANDOM_SHELLABLE and len(hard) == RANDOM_NONSHELLABLE:
            return shellable + hard
        n, m, k = rng.choice((6, 7)), rng.choice((9, 10)), rng.choice((3, 4))
        facets = canonical(random_pure(rng, n, m, k))
        # a shellable complex has many valid prefixes, so cap the count only
        # once no more shellable instances are wanted
        cap = RANDOM_NODES[1] if len(shellable) == RANDOM_SHELLABLE else None
        ok, nodes = oracle.shelling_profile(facets, cap)
        if ok and len(shellable) < RANDOM_SHELLABLE:
            shellable.append((n, facets, True))
        elif ok is False and RANDOM_NODES[0] <= nodes <= RANDOM_NODES[1]:
            if len(hard) < RANDOM_NONSHELLABLE:
                hard.append((n, facets, False))
    raise RuntimeError("could not draw the random search instances")


def make_search(seed: int):
    rng = random.Random(seed)
    items = []  # (name, operation, vertices, facets, expected)
    for op, sizes in (("shell", SHELL_BOWTIES), ("vd", VD_BOWTIES), ("k1", K1_BOWTIES)):
        items += [(f"bowtie m={m}", op, 2 * m + 3, bowtie(m), False) for m in sizes]
    for op, sizes in (("shell", SHELL_SKELETA), ("vd", VD_SKELETA)):
        items += [(f"2-skeleton n={n}", op, n, skeleton(n, 2), True) for n in sizes]
    for op, dims in (("shell", SHELL_CROSS), ("vd", VD_CROSS), ("k1", K1_CROSS)):
        for d in dims:
            perm = rng.sample(range(2 * d), 2 * d)
            facets = [permute(f, perm) for f in cross_polytope(d)]
            items.append((f"cross-polytope d={d}", op, 2 * d, facets, True))
    for i, (n, facets, ok) in enumerate(_random_instances(rng)):
        items.append((f"random #{i} n={n} m={len(facets)}", "shell", n, facets, ok))
    return [
        (f"{OPERATIONS[op]} {name}", op, n, canonical(facets), exp)
        for name, op, n, facets, exp in items
    ]


def prepare_search(spec, pass_index: int):
    del pass_index  # every pass repeats the same queries
    return [
        (name, op, n, facets, check_order(facets, exp) if op == "shell" else check_equal(exp))
        for name, op, n, facets, exp in spec
    ]


def build_search(sh, items) -> list[Query]:
    queries = []
    for name, op, n, facets, check in items:
        c = sh.from_facets(sh.VertexSet(tuple(f"v{i}" for i in range(n))), facets)
        if op == "shell":
            call = lambda c=c: sh.shelling_order(c)
        elif op == "vd":
            call = lambda c=c: sh.is_vertex_decomposable(c)
        else:
            call = lambda c=c: sh.is_k_decomposable(c, 1)
        queries.append(Query(name, call, check))
    return queries


# --- survey --------------------------------------------------------------------

# Each pass runs the same complexes under a fresh vertex relabelling, so no
# query repeats an earlier input.
SURVEY_COMPLEXES = 3000
SURVEY_MAX_FACETS = 7
# Pure non-shellable complexes with 6-7 facets cost ten times the median
# (exhaustive shelling search, then 1-decomposability) and make the survey's
# tail.  Drawn freely they are about 1.5% of the survey, so the p99 would
# sit on the edge of their group and swing with its size; a fixed 3% puts
# it inside the group.  Their costs spread over 1-12 ms, so the group itself
# is fixed too (drawn from SURVEY_HARD_SEED); the seed relabels them like the
# rest, and the p99 does not move with the seed.
SURVEY_HARD = 90
SURVEY_HARD_SEED = 2010


def _survey_complex(rng: random.Random, pure: bool, n: int, m: int):
    if pure:
        k = rng.randint(1, n)
        return canonical(random_pure(rng, n, min(m, math.comb(n, k)), k))
    return canonical(rng.randint(1, (1 << n) - 1) for _ in range(m))


def _survey_complexes(rng: random.Random):
    easy, hard = [], []
    while len(easy) < SURVEY_COMPLEXES - SURVEY_HARD:
        pure = len(easy) % 2 == 1
        n = rng.randint(4, 7)
        facets = _survey_complex(rng, pure, n, rng.randint(1, SURVEY_MAX_FACETS))
        shellable = oracle.shelling_profile(facets)[0]
        if not (pure and not shellable and len(facets) >= 6):
            easy.append((n, facets, shellable))
    fixed = random.Random(SURVEY_HARD_SEED)
    while len(hard) < SURVEY_HARD:
        n = fixed.randint(6, 7)
        facets = _survey_complex(fixed, True, n, fixed.randint(6, SURVEY_MAX_FACETS))
        shellable = oracle.shelling_profile(facets)[0]
        if not shellable and len(facets) >= 6:
            hard.append((n, facets, shellable))
    return easy + hard


def make_survey(seed: int):
    rng = random.Random(seed)
    spec = []
    for n, facets, shellable in _survey_complexes(rng):
        memo: dict = {}
        f = oracle.f_vector(facets)
        nonfaces = oracle.minimal_nonfaces(facets, n)
        full = (1 << n) - 1
        spec.append({
            "n": n,
            "facets": facets,
            "pure": len({x.bit_count() for x in facets}) == 1,
            "f": f,
            "h": oracle.h_vector(f),
            "shellable": shellable,
            "vd": oracle.is_k_decomposable(facets, 0, memo),
            "k1": oracle.is_k_decomposable(facets, 1, memo),
            "shedding": oracle.shedding_vertices(facets, memo),
            "nonfaces": nonfaces,
            "dual": None if facets == (full,) else canonical(full ^ g for g in nonfaces),
        })
    return {"seed": seed, "complexes": spec}


def _battery(sh, c, pure: bool):
    """One survey query: the whole battery of invariants on one complex."""
    f = sh.f_vector(c)
    h = sh.h_vector(c)
    order = sh.shelling_order(c)
    from_order = None
    if order is not None and pure:
        seq = list(order.facets)
        from_order = (
            sh.is_shelling_order(c, seq),
            sh.h_from_shelling(c, seq),
            sh.linear_quotients_from_shelling(c, seq),
        )
    vd = sh.is_vertex_decomposable(c)
    k1 = sh.is_k_decomposable(c, 1)
    shedding = tuple(sh.shedding_vertices(c))
    nonfaces = sh.minimal_nonfaces(c).gens
    try:
        dual = sh.alexander_dual(c).facets
    except sh.VoidDual:
        dual = None
    return f, h, order, from_order, vd, k1, shedding, nonfaces, dual


def _check_battery(item, perm):
    facets = canonical(permute(x, perm) for x in item["facets"])
    shedding = tuple(sorted(permute(v, perm) for v in item["shedding"]))
    nonfaces = tuple(sorted((permute(g, perm) for g in item["nonfaces"]), key=face_key))
    dual = None if item["dual"] is None else canonical(permute(x, perm) for x in item["dual"])

    def check(out) -> str | None:
        f, h, order, from_order, vd, k1, shed, nf, du = out
        if (f, h) != (item["f"], item["h"]):
            return f"f/h-vector {f} {h}, expected {item['f']} {item['h']}"
        reason = check_order(facets, item["shellable"])(order)
        if reason:
            return f"shelling_order: {reason}"
        if (from_order is None) != (order is None or not item["pure"]):
            return "shelling-derived queries run on the wrong complexes"
        if from_order is not None:
            is_order, h_order, quotients = from_order
            if not is_order:
                return "is_shelling_order rejects the order shelling_order returned"
            if h_order != item["h"]:
                return f"h_from_shelling {h_order}, expected {item['h']}"
            for i, step in enumerate(quotients, start=1):
                mask = sum(1 << LETTERS.index(x) for x in step)
                if len(set(step)) != len(step) or mask != oracle.restriction(
                    order.facets[:i], order.facets[i]
                ):
                    return f"linear quotient step {i} is {step}"
        if (vd, k1) != (item["vd"], item["k1"]):
            return f"VD/1-dec {vd}/{k1}, expected {item['vd']}/{item['k1']}"
        if shed != shedding:
            return f"shedding vertices {shed}, expected {shedding}"
        if tuple(nf) != nonfaces:
            return f"minimal nonfaces {nf}, expected {nonfaces}"
        if du != dual:
            return f"Alexander dual {du}, expected {dual}"
        return None

    return facets, check


def prepare_survey(spec, pass_index: int):
    rng = random.Random(spec["seed"] * 1_000_003 + pass_index)
    items = []
    for i, item in enumerate(spec["complexes"]):
        n = item["n"]
        facets, check = _check_battery(item, rng.sample(range(n), n))
        raw = list(facets)
        rng.shuffle(raw)
        items.append((f"battery #{i}", n, raw, item["pure"], check))
    return items


def build_survey(sh, items) -> list[Query]:
    queries = []
    for name, n, raw, pure, check in items:
        c = sh.from_facets(sh.VertexSet(tuple(LETTERS[:n])), raw)
        queries.append(Query(name, lambda c=c, pure=pure: _battery(sh, c, pure), check))
    return queries


# --- cli ------------------------------------------------------------------------

CLI_COMMANDS = (
    ("info", "--json"),
    ("shelling-order", "--json"),
    ("linear-quotients",),
    ("shedding", "--k", "1"),
    ("nonfaces",),
    ("dual",),
    ("link",),
    ("delete",),
)

# (name, vertices, form, family, dimension): 13 documents of 9 to 14
# vertices, so that 104 queries give a p90 with ten queries beyond it, and
# no query takes much more than 0.1 s.  The
# 2-skeleta carry the O(i^3) linear-quotient scan and the shedding scan, the
# nonface-form skeleta carry from_nonfaces, the stacked complexes carry the
# 2^n nonface scan, and the bowties give exit code 1.
CLI_DOCUMENTS = (
    ("2-skeleton n=9", 9, "facets", "skeleton", 2),
    ("2-skeleton n=10", 10, "facets", "skeleton", 2),
    ("2-skeleton n=9 as nonfaces", 9, "nonfaces", "skeleton", 2),
    ("1-skeleton n=10 as nonfaces", 10, "nonfaces", "skeleton", 1),
    ("cross-polytope d=5 as nonfaces", 10, "nonfaces", "cross", 4),
    ("cross-polytope d=6 as nonfaces", 12, "nonfaces", "cross", 5),
    ("stacked 3-balls n=12", 12, "facets", "stacked", 3),
    ("stacked 3-balls n=13", 13, "facets", "stacked", 3),
    ("stacked 3-balls n=14", 14, "facets", "stacked", 3),
    ("stacked 2-balls n=14", 14, "facets", "stacked", 2),
    ("bowtie m=3", 9, "facets", "bowtie", 2),
    ("bowtie m=4", 11, "facets", "bowtie", 2),
    ("bowtie m=5", 13, "facets", "bowtie", 2),
)


def _structure(kind: str, dim: int, n: int):
    """Facets, closed-form f-vector and closed-form minimal nonfaces (None
    where the oracle enumerates them)."""
    comb = math.comb
    if kind == "skeleton":
        return skeleton(n, dim), tuple(comb(n, i) for i in range(dim + 2)), skeleton(n, dim + 1)
    if kind == "cross":
        d = dim + 1
        return (
            cross_polytope(d),
            tuple(2**i * comb(d, i) for i in range(d + 1)),
            [3 << (2 * i) for i in range(d)],
        )
    if kind == "stacked":
        # a fixed tree per size, for the same reason as the fixed positions
        facets = stacked(n, dim, random.Random(100 * n + dim))
        m = len(facets)
        f = tuple(comb(dim + 1, i) + (m - 1) * comb(dim, i - 1) if i else 1 for i in range(dim + 2))
        return facets, f, None
    m = (n - 3) // 2
    return bowtie(m), (1, n, 2 * (2 * m + 1), 2 * m), None


def _faces_text(labels: Sequence[str], faces: Sequence[int], rng: random.Random) -> str:
    groups = []
    for face in faces:
        names = [labels[b] for b in oracle.bits(face)]
        rng.shuffle(names)
        groups.append(" ".join(names) if names else "()")
    return " / ".join(groups)


def make_cli(seed: int):
    rng = random.Random(seed)
    docs = []
    for name, n, form, kind, dim in CLI_DOCUMENTS:
        facets, f, nonfaces = _structure(kind, dim, n)
        facets = canonical(facets)
        nonfaces = sorted(nonfaces or oracle.minimal_nonfaces(facets, n), key=face_key)
        # The seed names the vertices and orders the lists.  Vertex positions
        # (the order of the vertices line) follow the structure, because the
        # nonface scan's cost depends on them and the seed must not move it.
        labels = rng.sample([f"v{i}" for i in range(n)], n)
        listed = list(facets if form == "facets" else nonfaces)
        rng.shuffle(listed)
        text = f"vertices: {' '.join(labels)}\n{form}: {_faces_text(labels, listed, rng)}\n"
        first = facets[0]
        vertex = 1 << oracle.bits(first)[0]
        edge = sum(1 << b for b in oracle.bits(first)[:2])
        full = (1 << n) - 1
        docs.append({
            "name": name, "n": n, "text": text, "labels": labels, "facets": facets,
            "f": f, "h": oracle.h_vector(f), "nonfaces": nonfaces,
            "dual": canonical(full ^ g for g in nonfaces),
            "shellable": kind != "bowtie",
            "shedding": [s for s in oracle.small_faces(facets, 1) if oracle.sheds(facets, s)],
            "link": (vertex, oracle.link(facets, vertex)),
            "delete": (edge, oracle.deletion(facets, edge)),
        })
    return docs


def _parse_faces(payload: str, index: dict[str, int]) -> list[int]:
    out = []
    for group in payload.split("/"):
        names = group.split()
        if not names:
            continue
        out.append(0 if names == ["()"] else sum(1 << index[x] for x in names))
    return out


def _text_lines(stdout: str) -> dict[str, str]:
    return {k.strip(): v.strip() for k, _, v in (ln.partition(":") for ln in stdout.splitlines())}


def _check_report(doc, report: dict, index) -> str | None:
    facets = [sum(1 << index[x] for x in face) for face in report["facets"]]
    got = (report["vertices"], tuple(facets), tuple(report["f_vector"]), tuple(report["h_vector"]))
    want = (doc["labels"], doc["facets"], doc["f"], doc["h"])
    if got != want or report["kind"] != "proper" or report["pure"] is not True:
        return f"report {got}, expected {want}"
    if report["dimension"] != len(doc["f"]) - 2:
        return f"dimension {report['dimension']}"
    return None


def _check_cli(doc, command: str):
    index = {x: i for i, x in enumerate(doc["labels"])}
    shellable = doc["shellable"]

    def faces_line(stdout: str, key: str) -> list[int]:
        return _parse_faces(_text_lines(stdout).get(key, ""), index)

    def check(out) -> str | None:
        rc, stdout, stderr = out
        want_rc = 1 if command in ("shelling-order", "linear-quotients") and not shellable else 0
        if rc != want_rc or stderr:
            return f"exit {rc}, expected {want_rc}; stderr {stderr.strip()!r}"
        if command == "info":
            return _check_report(doc, json.loads(stdout), index)
        if command == "shelling-order":
            report = json.loads(stdout)
            reason = _check_report(doc, report, index)
            if reason or not shellable:
                return reason or (None if report["shelling_order"] is None else "order for a bowtie")
            to_masks = lambda faces: [sum(1 << index[x] for x in f) for f in faces]
            return oracle.check_shelling(
                doc["facets"], to_masks(report["shelling_order"]), to_masks(report["restrictions"])
            )
        if command == "linear-quotients":
            if not shellable:
                return None if stdout == "no shelling order\n" else f"stdout {stdout!r}"
            order = faces_line(stdout, "order")
            reason = oracle.check_shelling(doc["facets"], order, None)
            if reason:
                return reason
            steps = _text_lines(stdout)["quotients"].split(" / ")
            for i, step in enumerate(steps, start=1):
                names = step.split()
                mask = sum(1 << index[x] for x in names)
                if len(set(names)) != len(names) or mask != oracle.restriction(order[:i], order[i]):
                    return f"quotient step {i} is {step!r}"
            return None if len(steps) == len(order) - 1 else f"{len(steps)} quotient steps"
        if command == "shedding":
            got = faces_line(stdout, "shedding faces")
            return None if got == doc["shedding"] else f"shedding faces {got}"
        if command == "nonfaces":
            got = faces_line(stdout, "nonfaces")
            return None if got == doc["nonfaces"] else f"nonfaces {got}"
        want = {"dual": doc["dual"], "link": doc["link"][1], "delete": doc["delete"][1]}[command]
        got = tuple(faces_line(stdout, "facets"))
        return None if got == tuple(want) else f"{command} facets {got}, expected {want}"

    return check


def _run_main(cli, argv: list[str], text: str):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def prepare_cli(spec, pass_index: int):
    del pass_index  # every pass repeats the same documents
    items = []
    for doc in spec:
        labels = doc["labels"]
        for command in CLI_COMMANDS:
            argv = list(command)
            if command[0] == "link":
                argv += ["--face", labels[oracle.bits(doc["link"][0])[0]]]
            if command[0] == "delete":
                argv += ["--face", " ".join(labels[b] for b in oracle.bits(doc["delete"][0]))]
            argv.append("-")
            name = f"{' '.join(command)} {doc['name']}"
            items.append((name, argv, doc["text"], _check_cli(doc, command[0])))
    return items


def build_cli(sh, items) -> list[Query]:
    # the set-up a user of the library would do: parse each document once
    for text in dict.fromkeys(text for _, _, text, _ in items):
        sh.parse_complex(text)
    return [
        Query(name, lambda argv=argv, text=text: _run_main(sh.cli, argv, text), check)
        for name, argv, text, check in items
    ]


# name -> (make, prepare, build, whether every pass repeats the same queries)
WORKLOADS = {
    "search": (make_search, prepare_search, build_search, True),
    "survey": (make_survey, prepare_survey, build_survey, False),
    "cli": (make_cli, prepare_cli, build_cli, True),
}
