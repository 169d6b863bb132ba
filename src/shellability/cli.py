"""Command-line interface: run one query on a complex file, print text or JSON.

Every command is one entry of ``_COMMANDS``: its help, its flag groups, a
compute step that returns the report's fields in order, and a text renderer
of those fields.  Commands of one shape (a verdict, a shelling-order search,
an operation at a face) come from one builder, which writes both steps, so
each report key, text label and operation name is given once, in that
command's builder call.  With ``--json`` the fields go out as one JSON
report, where a complex-valued field stands for the complex's description
(vertices, facets, kind, dimension, purity, f- and h-vector).  The file
format is that of :mod:`shellability.fileformat`.

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
from .errors import ComplexError, InvalidOrder, ParseError
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
        "facets": _label_lists(cplx, cplx.facets),
        "kind": cplx.kind,
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
            raise InvalidOrder(
                f"expected a permutation of 0..{len(parsed_order) - 1}, got {indices}"
            )
        return [parsed_order[p] for p in indices]
    if args.random:
        return shuffled_facets(cplx, args.seed)
    return None


@dataclass(frozen=True)
class _Command:
    help: str
    flags: tuple[str, ...]
    compute: Callable[..., dict]  # (args, complex, facets as parsed) -> report fields
    text: Callable[..., Iterable[str]]  # (input complex, fields) -> output lines


# --- builders, one per command shape: each returns a whole command ---------

def _verdict(key: str, decide: Callable, flags: tuple[str, ...] = ()) -> _Command:
    """A yes/no answer ``decide(args, cplx)`` under ``key``.  Each of
    ``flags`` is a group of one flag named like it, whose value the report
    shows before the answer."""

    def compute(args, cplx, _) -> dict:
        given = {flag: getattr(args, flag) for flag in flags}
        return {"complex": cplx, **given, key: decide(args, cplx)}

    help = f"exit 0 if {key.replace('_', '-')}, 1 if not"
    return _Command(help, flags, compute, lambda cplx, fields: [_bool_str(fields[key])])


def _searched(help: str, key: str, label: str, detail: Callable) -> _Command:
    """A shelling-order search, with ``detail(cplx, found)`` of the order
    found, faces as label sequences, under ``key`` and printed as ``label``."""

    def compute(args, cplx, parsed_order) -> dict:
        found = shelling_order(cplx, _order(args, cplx, parsed_order))
        if found is None:
            return {"complex": cplx, "shelling_order": None, key: None}
        return {
            "complex": cplx,
            "shelling_order": _label_lists(cplx, found.facets),
            key: [list(face) for face in detail(cplx, found)],
        }

    def text(cplx, fields) -> list[str]:
        if fields["shelling_order"] is None:
            return ["no shelling order"]
        return [
            _line("order", _faces_text(fields["shelling_order"])),
            _line(label, _faces_text(fields[key])),
        ]

    return _Command(help, ("order",), compute, text)


def _at_face(operation: str, noun: str, op: Callable) -> _Command:
    """The complex ``op(cplx, face)`` at the ``--face`` labels, printed as a
    document."""

    def compute(args, cplx, _) -> dict:
        face = cplx.vertices.face(args.face.replace(",", " ").split())
        return {
            "operation": operation,
            "face": list(cplx.vertices.face_labels(face)),
            "complex": op(cplx, face),
        }

    return _Command(f"print the {noun} by --face", ("face",), compute, _complex_text)


# --- the other commands' compute steps and text renderers -------------------

def _shedding(args, cplx, _) -> dict:
    fields = {
        "complex": cplx,
        "k": args.k,
        "shedding_faces": _label_lists(cplx, shedding_faces(cplx, args.k)),
    }
    if args.k == 0:
        fields["shedding_vertices"] = _label_lists(cplx, shedding_vertices(cplx))
    return fields


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


def _shedding_text(cplx, fields) -> Iterable[str]:
    yield _line("shedding faces", _faces_text(fields["shedding_faces"]))
    if "shedding_vertices" in fields:
        yield _line("shedding vertices", " ".join(v[0] for v in fields["shedding_vertices"]))


def _complex_text(cplx, fields) -> list[str]:
    return serialize_complex(fields["complex"]).splitlines()


def _nonfaces_text(cplx, fields) -> list[str]:
    return serialize_nonfaces(cplx, minimal_nonfaces(cplx).gens).splitlines()


# Library functions are called from lambdas, so each is looked up in this
# module when its command runs, and a wrapper installed here (bench/spans.py)
# sees the call.
_COMMANDS = {
    "info": _Command(
        "print the complex and its invariants", (),
        lambda args, cplx, _: {"complex": cplx}, _info_text,
    ),
    "shellable": _verdict("shellable", lambda args, cplx: is_shellable(cplx)),
    "shelling-order": _searched(
        "search for a shelling order", "restrictions", "restrictions",
        lambda cplx, found: map(cplx.vertices.face_labels, found.restrictions),
    ),
    "vertex-decomposable": _verdict(
        "vertex_decomposable", lambda args, cplx: is_vertex_decomposable(cplx)
    ),
    "k-decomposable": _verdict(
        "k_decomposable", lambda args, cplx: is_k_decomposable(cplx, args.k), ("k",)
    ),
    "shedding": _Command(
        "list shedding faces (and vertices when --k 0)", ("k",), _shedding, _shedding_text
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
    "link": _at_face("link", "link", lambda cplx, face: link(cplx, face)),
    "delete": _at_face(
        "delete", "face deletion", lambda cplx, face: face_deletion(cplx, face)
    ),
    "linear-quotients": _searched(
        "linear quotient steps of a found shelling order", "linear_quotients", "quotients",
        lambda cplx, found: linear_quotients_from_shelling(cplx, list(found.facets)),
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
