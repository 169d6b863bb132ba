"""The line-oriented complex file format: parsing and serialisation.

    vertices: a b c d e f g
    facets: c e g / b e g / a e f

``#`` starts a comment.  One ``facets:`` or ``nonfaces:`` line is required.
Faces are ``/``-separated groups of whitespace-separated labels; ``()``
denotes the empty face.  The ``vertices:`` line is optional for facet input
(labels are then collected in first-occurrence order) and required for
nonface input.  An empty ``facets:`` line would be the void complex, which
the :class:`~shellability.complexes.SimplicialComplex` constructor refuses
with ``VoidComplex``.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

# complexes are built through the module, so wrappers installed on it
# (bench/spans.py) see the construction as its own layer
from . import complexes
from .complexes import EMPTY_FACE_TOKEN, Face, SimplicialComplex, VertexSet
from .errors import ParseError

_TOKENS = re.compile(r"[^\s/]+|/")


def _parse_tokens(payload: str, lineno: int, offset: int):
    """Split a directive payload into face segments of (token, column) pairs."""
    segments: list[list[tuple[str, int]]] = [[]]
    for match in _TOKENS.finditer(payload):
        token = match.group()
        column = offset + match.start() + 1
        if token == "/":
            segments.append([])
        else:
            segments[-1].append((token, column))
    for segment in segments:
        if len(segment) > 1 and any(tok == EMPTY_FACE_TOKEN for tok, _ in segment):
            raise ParseError(
                f"{EMPTY_FACE_TOKEN!r} must stand alone in its face", lineno, segment[0][1]
            )
    return [s for s in segments if s]


def _parse_vertex_labels(payload: str, lineno: int, offset: int) -> list[str]:
    labels: list[str] = []
    seen: set[str] = set()
    for match in _TOKENS.finditer(payload):
        token = match.group()
        column = offset + match.start() + 1
        if token == "/":
            raise ParseError("'/' is not allowed in the vertex list", lineno, column)
        if token in seen:
            raise ParseError(f"duplicate vertex label {token!r}", lineno, column)
        seen.add(token)
        labels.append(token)
    return labels


def _vertex_set(labels: Sequence[str], lineno: int) -> VertexSet:
    try:
        return VertexSet(tuple(labels))
    except ValueError as exc:
        raise ParseError(str(exc), lineno, 1) from exc


def _face_from_segment(vset: VertexSet, segment, lineno: int) -> Face:
    if len(segment) == 1 and segment[0][0] == EMPTY_FACE_TOKEN:
        return 0
    mask = 0
    for token, column in segment:
        pos = vset.index.get(token)
        if pos is None:
            raise ParseError(f"unknown vertex label {token!r}", lineno, column)
        mask |= 1 << pos
    return mask


def parse_complex_with_order(text: str) -> tuple[SimplicialComplex, tuple[Face, ...]]:
    """Parse, also returning the facets in first-appearance order (canonical
    order for nonface input, which lists no facets)."""
    vertex_labels: list[str] | None = None
    vertex_line = 0
    body: tuple[str, str, int, int] | None = None
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        line = raw if cut < 0 else raw[:cut]
        if not line.strip():
            continue
        head, sep, rest = line.partition(":")
        key = head.strip()
        column = len(head) - len(head.lstrip()) + 1
        if not sep or key not in ("vertices", "facets", "nonfaces"):
            raise ParseError(
                "expected a 'vertices:', 'facets:' or 'nonfaces:' line", lineno, column
            )
        if key == "vertices":
            if vertex_labels is not None:
                raise ParseError("duplicate 'vertices:' line", lineno, column)
            vertex_labels = _parse_vertex_labels(rest, lineno, len(head) + 1)
            vertex_line = lineno
        else:
            if body is not None:
                raise ParseError("duplicate face list", lineno, column)
            body = (key, rest, lineno, len(head) + 1)
    if body is None:
        raise ParseError("missing 'facets:' or 'nonfaces:' line", max(lineno, 1), 1)

    kind, payload, body_line, offset = body
    segments = _parse_tokens(payload, body_line, offset)
    if kind == "facets":
        if vertex_labels is None:
            vertex_labels = []
            seen: set[str] = set()
            for segment in segments:
                for token, _ in segment:
                    if token != EMPTY_FACE_TOKEN and token not in seen:
                        seen.add(token)
                        vertex_labels.append(token)
            vertex_line = body_line
        vset = _vertex_set(vertex_labels, vertex_line)
        faces = [_face_from_segment(vset, s, body_line) for s in segments]
        cplx = complexes.from_facets(vset, faces)
        surviving = set(cplx.facets)
        return cplx, tuple(dict.fromkeys(f for f in faces if f in surviving))

    if vertex_labels is None:
        raise ParseError("nonface input requires a 'vertices:' line", body_line, 1)
    vset = _vertex_set(vertex_labels, vertex_line)
    nonfaces = [_face_from_segment(vset, s, body_line) for s in segments]
    cplx = complexes.from_nonfaces(vset, nonfaces)
    return cplx, cplx.facets


def parse_complex(text: str) -> SimplicialComplex:
    """Parse the line-oriented complex format."""
    return parse_complex_with_order(text)[0]


def _faces_text(faces: Iterable[Sequence[str]]) -> str:
    """Faces given by their labels, in the file format's notation."""
    return " / ".join(" ".join(f) or EMPTY_FACE_TOKEN for f in faces)


def _line(key: str, value: str) -> str:
    return f"{key}:" + (f" {value}" if value else "")


def _document(cplx: SimplicialComplex, key: str, faces: Sequence[Face]) -> str:
    labels = (cplx.vertices.face_labels(f) for f in faces)
    return (
        _line("vertices", " ".join(cplx.vertices.labels)) + "\n"
        + _line(key, _faces_text(labels)) + "\n"
    )


def serialize_complex(cplx: SimplicialComplex) -> str:
    """Canonical two-line document; round-trips through :func:`parse_complex`."""
    return _document(cplx, "facets", cplx.facets)


def serialize_nonfaces(cplx: SimplicialComplex, gens: Sequence[Face]) -> str:
    """Vertices plus nonface list; parses back to the complex they present."""
    return _document(cplx, "nonfaces", gens)
