"""The line-oriented complex file format: parsing and serialisation.

    vertices: a b c d e f g
    facets: c e g / b e g / a e f

``#`` starts a comment.  One ``facets:`` or ``nonfaces:`` line is required.
Faces are ``/``-separated groups of whitespace-separated labels; empty groups
are skipped, and ``()`` denotes the empty face.  The ``vertices:`` line is
optional for facet input (labels are then collected in first-occurrence
order) and required for nonface input.  An empty ``facets:`` line would be
the void complex, which the :class:`~shellability.complexes.SimplicialComplex`
constructor refuses with ``VoidComplex``.

A :class:`~shellability.errors.ParseError` gives a 1-based line and a 1-based
character column (a tab is one column).  Every CLI call parses its document
first, and only a malformed one needs a position, so the parser splits the
text with ``str.split`` and computes a column only when it raises.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

# complexes are built through the module, so wrappers installed on it
# (bench/spans.py) see the construction as its own layer
from . import complexes
from .complexes import EMPTY_FACE_TOKEN, MAX_VERTICES, Face, SimplicialComplex, VertexSet
from .errors import ParseError


def _column(payload: str, offset: int, group: int, label: int) -> int:
    """1-based column of label ``label`` of ``/``-group ``group`` of a
    directive's payload, which starts after ``offset`` characters."""
    groups = payload.split("/")
    start = offset + sum(len(g) + 1 for g in groups[:group])
    text = groups[group]  # split's last piece starts at label ``label``
    return start + len(text) - len(text.split(None, label)[label]) + 1


def parse_complex_with_order(text: str) -> tuple[SimplicialComplex, tuple[Face, ...]]:
    """Parse, also returning the facets in first-appearance order (canonical
    order for nonface input, which lists no facets)."""
    vertex_labels: list[str] | None = None
    vertex_at: tuple[str, int, int] = ("", 0, 0)  # payload, offset, line of the labels
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
        offset = len(head) + 1  # the payload's start, counted from 0
        if not sep or key not in ("vertices", "facets", "nonfaces"):
            raise ParseError(
                "expected a 'vertices:', 'facets:' or 'nonfaces:' line", lineno, column
            )
        if key == "vertices":
            if vertex_labels is not None:
                raise ParseError("duplicate 'vertices:' line", lineno, column)
            labels = rest.split("/")[0].split()
            if len(set(labels)) < len(labels):
                j = next(j for j, label in enumerate(labels) if label in labels[:j])
                column = _column(rest, offset, 0, j)
                raise ParseError(f"duplicate vertex label {labels[j]!r}", lineno, column)
            if "/" in rest:
                column = offset + rest.index("/") + 1
                raise ParseError("'/' is not allowed in the vertex list", lineno, column)
            vertex_labels, vertex_at = labels, (rest, offset, lineno)
        else:
            if body is not None:
                raise ParseError("duplicate face list", lineno, column)
            body = (key, rest, lineno, offset)
    if body is None:
        raise ParseError("missing 'facets:' or 'nonfaces:' line", max(lineno, 1), 1)

    kind, payload, body_line, offset = body
    groups = [group.split() for group in payload.split("/")]
    for i, group in enumerate(groups):
        if len(group) > 1 and EMPTY_FACE_TOKEN in group:
            message = f"{EMPTY_FACE_TOKEN!r} must stand alone in its face"
            raise ParseError(message, body_line, _column(payload, offset, i, 0))
    if vertex_labels is None:
        if kind == "nonfaces":
            raise ParseError("nonface input requires a 'vertices:' line", body_line, 1)
        # the labels in first-occurrence order
        seen = dict.fromkeys(v for group in groups for v in group if v != EMPTY_FACE_TOKEN)
        vertex_labels, vertex_at = list(seen), (payload, offset, body_line)
    try:
        vset = VertexSet(tuple(vertex_labels))
    except ValueError as exc:
        # the label refused, the first past the limit or else the first
        # invalid one, at its first occurrence on the line the labels came from
        refused = [v for v in vertex_labels if not complexes._valid_label(v)]
        label = (vertex_labels[MAX_VERTICES:] or refused)[0]
        source, source_offset, line = vertex_at
        split = [group.split() for group in source.split("/")]
        i = next(i for i, group in enumerate(split) if label in group)
        column = _column(source, source_offset, i, split[i].index(label))
        raise ParseError(str(exc), line, column) from exc
    index = vset.index
    faces: list[Face] = []
    for i, group in enumerate(groups):
        if group == [EMPTY_FACE_TOKEN]:
            faces.append(0)
        elif group:
            mask = 0
            for label in group:
                pos = index.get(label)
                if pos is None:
                    # the first unknown label is that label's first occurrence
                    column = _column(payload, offset, i, group.index(label))
                    raise ParseError(f"unknown vertex label {label!r}", body_line, column)
                mask |= 1 << pos
            faces.append(mask)
    if kind == "nonfaces":
        cplx = complexes.from_nonfaces(vset, faces)
        return cplx, cplx.facets
    cplx = complexes.from_facets(vset, faces)
    surviving = set(cplx.facets)
    return cplx, tuple(dict.fromkeys(f for f in faces if f in surviving))


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
