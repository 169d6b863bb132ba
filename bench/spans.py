"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function wherever a package module
binds it, so calls between layers are seen too, for example
``decomposability`` -> ``face_ops.link`` -> ``complexes.from_facets``.
Spans stay in memory (id, parent, name, start, end) until the run ends.  A
span's self time is its duration minus the time its child spans cover; one
thread makes one stack, so children never overlap.

The shelling search runs its depth-first loop inside ``shelling_order``
without calling a public function, so the trace cannot count its nodes or
backtracks.
"""

from __future__ import annotations

import ast
import gzip
import importlib
import io
import statistics
import tokenize
from array import array
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("cli", "complexes", "face_ops", "duality", "shelling", "decomposability")

# span name -> (defining module, functions it covers)
SPANS = {
    "cli.main": ("cli", ("main",)),
    "cli.parse": ("cli", ("parse_complex", "parse_complex_with_order")),
    "cli.serialize": ("cli", ("serialize_complex", "serialize_nonfaces")),
    "complexes.from_facets": ("complexes", ("from_facets",)),
    "complexes.from_nonfaces": ("complexes", ("from_nonfaces",)),
    "complexes.f_vector": ("complexes", ("f_vector",)),
    "complexes.h_vector": ("complexes", ("h_vector",)),
    "complexes.all_faces": ("complexes", ("all_faces",)),
    "face_ops.link": ("face_ops", ("link",)),
    "face_ops.face_deletion": ("face_ops", ("face_deletion",)),
    "duality.minimal_nonfaces": ("duality", ("minimal_nonfaces",)),
    "duality.alexander_dual": ("duality", ("alexander_dual",)),
    "duality.linear_quotients_from_shelling": ("duality", ("linear_quotients_from_shelling",)),
    "shelling.shelling_order": ("shelling", ("shelling_order",)),
    "shelling.is_shelling_order": ("shelling", ("is_shelling_order",)),
    "shelling.restriction_faces": ("shelling", ("restriction_faces",)),
    "shelling.h_from_shelling": ("shelling", ("h_from_shelling",)),
    "shelling.minimal_hitting_sets": ("shelling", ("minimal_hitting_sets",)),
    "decomposability.is_vertex_decomposable": ("decomposability", ("is_vertex_decomposable",)),
    "decomposability.is_k_decomposable": ("decomposability", ("is_k_decomposable",)),
    "decomposability.shedding_vertices": ("decomposability", ("shedding_vertices",)),
    "decomposability.shedding_faces": ("decomposability", ("shedding_faces",)),
}
BINDERS = ("",) + tuple("." + layer for layer in LAYERS)


class Tracer:
    def __init__(self) -> None:
        self.names = list(SPANS)
        self.parent = array("q")
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.commands: list[str] = []  # argv[0] of each cli.main span, in order
        self.faces_in = 0
        self.facets_kept = 0
        self.faces_counted = 0
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, fn, index: int):
        parent, name, start, end, stack = self.parent, self.name, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(index)
            end.append(0)
            stack.append(sid)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()

        return traced

    def _counted(self, span: str, fn):
        """The function with the span's counters added, or itself."""
        if span == "complexes.from_facets":
            def from_facets(vertices, raw):
                raw = list(raw)
                out = fn(vertices, raw)
                self.faces_in += len(raw)
                self.facets_kept += len(out.facets)
                return out
            return from_facets
        if span == "complexes.f_vector":
            def f_vector(cplx):
                out = fn(cplx)
                self.faces_counted += sum(out)
                return out
            return f_vector
        if span == "cli.main":
            def main(argv=None):
                self.commands.append(argv[0])
                return fn(argv)
            return main
        return fn

    def install(self) -> None:
        binders = [importlib.import_module("shellability" + b) for b in BINDERS]
        for index, (span, (module, functions)) in enumerate(SPANS.items()):
            home = importlib.import_module(f"shellability.{module}")
            for attr in functions:
                original = getattr(home, attr)
                wrapper = self._span(self._counted(span, original), index)
                for binder in binders:
                    if getattr(binder, attr, None) is original:
                        setattr(binder, attr, wrapper)
                        self._undo.append((binder, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            binder, attr, original = self._undo.pop()
            setattr(binder, attr, original)

    def root_ns(self) -> int:
        """Time covered by outermost spans: everything inside the package."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def summary(self, passes: int) -> dict[str, float]:
        """Per-pass figures: calls and self time per span, the counters, and
        the decomposability ratios."""
        k = len(self.names)
        calls = [0] * k
        self_ns = [0] * k
        index = {name: i for i, name in enumerate(self.names)}
        decomp = {i for name, i in index.items() if name.startswith("decomposability.")}
        in_decomp = bytearray(len(self.start))
        deletions = links = ff_under_ns = decomp_ns = 0
        main_ms: dict[str, list[float]] = {}
        commands = iter(self.commands)
        for i, (p, n, s, e) in enumerate(zip(self.parent, self.name, self.start, self.end)):
            d = e - s
            calls[n] += 1
            self_ns[n] += d
            under = p >= 0 and in_decomp[p]
            if p >= 0:
                self_ns[self.name[p]] -= d
            if n in decomp and not under:
                decomp_ns += d
            in_decomp[i] = under or n in decomp
            if under:
                deletions += n == index["face_ops.face_deletion"]
                links += n == index["face_ops.link"]
                if n == index["complexes.from_facets"]:
                    ff_under_ns += d
            if n == index["cli.main"]:
                main_ms.setdefault(next(commands), []).append(d / 1e6)
        out: dict[str, float] = {}
        for name, i in index.items():
            out[f"{name}.calls"] = calls[i] // passes
            out[f"{name}.self_s"] = self_ns[i] / passes / 1e9
        out["complexes.from_facets.faces_in"] = self.faces_in // passes
        out["complexes.from_facets.kept_ratio"] = (
            self.facets_kept / self.faces_in if self.faces_in else 0.0
        )
        out["complexes.f_vector.faces_counted"] = self.faces_counted // passes
        out["decomposability.candidates_tried"] = deletions // passes
        out["decomposability.shed_ratio"] = links / deletions if deletions else 0.0
        out["decomposability.from_facets_share"] = ff_under_ns / decomp_ns if decomp_ns else 0.0
        for command, values in main_ms.items():
            out[f"cli.cmd.{command}.p50_ms"] = statistics.median(values)
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: id, parent, name, start ns, end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (p, n, s, e) in enumerate(zip(self.parent, self.name, self.start, self.end)):
                fh.write(f"{i}\t{p}\t{self.names[n]}\t{s}\t{e}\n")


def source_lines(path: Path) -> int:
    """Lines holding code: no blank lines, comments or docstrings."""
    text = path.read_text()
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)
