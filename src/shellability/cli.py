"""Command-line interface: run one query on a complex file, print text or JSON.

Every command is one entry of ``_COMMANDS``: its help, its flag groups, a
compute step that returns the report's fields in order, and a text renderer
of those fields.  With ``--json`` the fields go out as one JSON report, where
a complex-valued field stands for the complex's description (vertices,
facets, kind, dimension, purity, f- and h-vector).  The file format is that
of :mod:`shellability.fileformat`.

Exit codes: 1 when the query answers no (a false verdict, or no shelling
order), otherwise 0; 2 flags usage or parse errors, 3 domain errors.

The argument parser is built on the first :func:`main` call and shared by
every later one in the process (:func:`build_parser`); each call parses its
own argv into a fresh namespace.  Callers must not mutate the shared parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .complexes import Face, SimplicialComplex, f_vector, h_vector, is_pure
from .decomposability import (
    is_k_decomposable,
    is_vertex_decomposable,
    shedding_faces,
    shedding_vertices,
)
from .duality import alexander_dual, linear_quotients_from_shelling, minimal_nonfaces
from .errors import ComplexError, InvalidPermutation, ParseError
from .face_ops import face_deletion, link
from .fileformat import (  # parse_complex is re-exported, not used here
    _faces_text,
    _line,
    parse_complex,
    parse_complex_with_order,
    serialize_complex,
    serialize_nonfaces,
)
from .shelling import is_shellable, shelling_order, shuffled_facets


def _bool_str(value: bool) -> str:
    return "true" if value else "false"


def _label_lists(cplx: SimplicialComplex, faces: Sequence[Face]) -> list[list[str]]:
    return [list(cplx.vertices.face_labels(f)) for f in faces]


def _describe(cplx: SimplicialComplex) -> dict:
    return {
        "vertices": list(cplx.vertices.labels),
        "facets": [list(f) for f in cplx.facet_labels()],
        "kind": cplx.kind.value,
        "dimension": cplx.dimension(),
        "pure": is_pure(cplx),
        "f_vector": list(f_vector(cplx)),
        "h_vector": list(h_vector(cplx)),
    }


def _report(fields: dict) -> dict:
    report: dict = {}
    for key, value in fields.items():
        if isinstance(value, SimplicialComplex):
            report.update(_describe(value))
        else:
            report[key] = value
    return report


def _load(args) -> tuple[SimplicialComplex, tuple[Face, ...], str]:
    if args.source == "-":
        text, name = sys.stdin.read(), "<stdin>"
    else:
        text, name = Path(args.source).read_text(), Path(args.source).name
    return (*parse_complex_with_order(text), name)


def _order(args, cplx: SimplicialComplex, parsed_order) -> list[Face] | None:
    if args.permutation is not None:
        indices = args.permutation
        if sorted(indices) != list(range(len(parsed_order))):
            raise InvalidPermutation(
                f"expected a permutation of 0..{len(parsed_order) - 1}, got {indices}"
            )
        return [parsed_order[p] for p in indices]
    if args.random:
        return shuffled_facets(cplx, args.seed)
    return None


def _face_flag(cplx: SimplicialComplex, value: str) -> Face:
    labels = [tok for tok in re.split(r"[\s,]+", value.strip()) if tok]
    return cplx.vertices.face(labels)


# --- compute steps: (args, complex, facets as parsed) -> report fields ----

def _searched(key: str, detail: Callable) -> Callable:
    """Fields of a shelling-order search, with ``detail`` of the order found."""

    def compute(args, cplx, parsed_order) -> dict:
        found = shelling_order(cplx, _order(args, cplx, parsed_order))
        if found is None:
            return {"complex": cplx, "shelling_order": None, key: None}
        return {
            "complex": cplx,
            "shelling_order": _label_lists(cplx, found.facets),
            key: detail(cplx, found),
        }

    return compute


def _shedding(args, cplx, _) -> dict:
    fields = {
        "complex": cplx,
        "k": args.k,
        "shedding_faces": _label_lists(cplx, shedding_faces(cplx, args.k)),
    }
    if args.k == 0:
        fields["shedding_vertices"] = _label_lists(cplx, shedding_vertices(cplx))
    return fields


def _at_face(operation: str, op: Callable, args, cplx) -> dict:
    face = _face_flag(cplx, args.face)
    return {
        "operation": operation,
        "face": list(cplx.vertices.face_labels(face)),
        "complex": op(cplx, face),
    }


def _quotients(cplx, found) -> list[list[str]]:
    return [list(s) for s in linear_quotients_from_shelling(cplx, list(found.facets))]


# --- text renderers: (input complex, fields) -> output lines --------------

def _info_text(cplx, fields) -> Iterable[str]:
    info = _describe(cplx)
    yield f"name: {fields['name']}"
    yield _line("vertices", " ".join(info["vertices"]))
    yield f"kind: {info['kind']}"
    yield f"dimension: {info['dimension']}"
    yield f"pure: {_bool_str(info['pure'])}"
    yield _line("facets", _faces_text(info["facets"]))
    yield _line("f-vector", " ".join(map(str, info["f_vector"])))
    yield _line("h-vector", " ".join(map(str, info["h_vector"])))


def _verdict_text(key: str) -> Callable:
    return lambda cplx, fields: [_bool_str(fields[key])]


def _order_text(key: str, label: str) -> Callable:
    def text(cplx, fields) -> list[str]:
        if fields["shelling_order"] is None:
            return ["no shelling order"]
        return [
            _line("order", _faces_text(fields["shelling_order"])),
            _line(label, _faces_text(fields[key])),
        ]

    return text


def _shedding_text(cplx, fields) -> Iterable[str]:
    yield _line("shedding faces", _faces_text(fields["shedding_faces"]))
    if "shedding_vertices" in fields:
        yield _line("shedding vertices", " ".join(v[0] for v in fields["shedding_vertices"]))


def _complex_text(cplx, fields) -> list[str]:
    return serialize_complex(fields["complex"]).splitlines()


def _nonfaces_text(cplx, fields) -> list[str]:
    return serialize_nonfaces(cplx, minimal_nonfaces(cplx).gens).splitlines()


@dataclass(frozen=True)
class _Command:
    help: str
    flags: tuple[str, ...]
    compute: Callable[..., dict]
    text: Callable[..., Iterable[str]]


_COMMANDS = {
    "info": _Command(
        "print the complex and its invariants", (),
        lambda args, cplx, _: {"complex": cplx},
        _info_text,
    ),
    "shellable": _Command(
        "exit 0 if shellable, 1 if not", (),
        lambda args, cplx, _: {"complex": cplx, "shellable": is_shellable(cplx)},
        _verdict_text("shellable"),
    ),
    "shelling-order": _Command(
        "search for a shelling order", ("order",),
        _searched("restrictions", lambda c, found: _label_lists(c, found.restrictions)),
        _order_text("restrictions", "restrictions"),
    ),
    "vertex-decomposable": _Command(
        "exit 0 if vertex-decomposable, 1 if not", (),
        lambda args, cplx, _: {
            "complex": cplx, "vertex_decomposable": is_vertex_decomposable(cplx),
        },
        _verdict_text("vertex_decomposable"),
    ),
    "k-decomposable": _Command(
        "exit 0 if k-decomposable, 1 if not", ("k",),
        lambda args, cplx, _: {
            "complex": cplx, "k": args.k,
            "k_decomposable": is_k_decomposable(cplx, args.k),
        },
        _verdict_text("k_decomposable"),
    ),
    "shedding": _Command(
        "list shedding faces (and vertices when --k 0)", ("k",),
        _shedding, _shedding_text,
    ),
    "dual": _Command(
        "print the Alexander dual complex", (),
        lambda args, cplx, _: {"operation": "dual", "complex": alexander_dual(cplx)},
        _complex_text,
    ),
    "nonfaces": _Command(
        "print the minimal nonfaces", (),
        lambda args, cplx, _: {
            "complex": cplx,
            "minimal_nonfaces": _label_lists(cplx, minimal_nonfaces(cplx).gens),
        },
        _nonfaces_text,
    ),
    "link": _Command(
        "print the link by --face", ("face",),
        lambda args, cplx, _: _at_face("link", link, args, cplx),
        _complex_text,
    ),
    "delete": _Command(
        "print the face deletion by --face", ("face",),
        lambda args, cplx, _: _at_face("delete", face_deletion, args, cplx),
        _complex_text,
    ),
    "linear-quotients": _Command(
        "linear quotient steps of a found shelling order", ("order",),
        _searched("linear_quotients", _quotients),
        _order_text("linear_quotients", "quotients"),
    ),
}


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from exc


# flag group -> (flag, argparse keywords) pairs
_FLAGS = {
    "order": (
        ("--random", dict(action="store_true", help="shuffle the facets before searching")),
        ("--seed", dict(type=int, default=0, help="64-bit seed for --random (default 0)")),
        ("--permutation", dict(
            type=_csv_ints, default=None, metavar="CSV",
            help="facet permutation; indices refer to the facets as parsed",
        )),
    ),
    "k": (
        ("--k", dict(type=int, default=0, help="maximum shedding-face dimension (default 0)")),
    ),
    "face": (
        ("--face", dict(
            default="", metavar="LABELS",
            help="face given as space- or comma-separated labels",
        )),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command and its flags, built once per process:
    later calls return the same object, so callers must not mutate it.
    Parsing leaves it unchanged, and each ``parse_args`` call returns a new
    namespace."""
    parser = argparse.ArgumentParser(
        prog="shellability",
        description="Shellability and decomposability of finite simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("source", help="complex file, or - for stdin")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        for group in command.flags:
            for flag, options in _FLAGS[group]:
                p.add_argument(flag, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        cplx, parsed_order, name = _load(args)
        fields = {"name": name, **command.compute(args, cplx, parsed_order)}
        # every line is built before the first is printed, so an error
        # leaves stdout empty
        if args.json:
            lines = [json.dumps(_report(fields), indent=2)]
        else:
            lines = list(command.text(cplx, fields))
        for line in lines:
            print(line)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 1 if any(v is False or v is None for v in fields.values()) else 0
