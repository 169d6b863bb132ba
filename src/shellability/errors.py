"""Exception types shared across the package."""

from __future__ import annotations


class ComplexError(Exception):
    """Base class for domain errors: well-formed inputs that a particular
    operation cannot accept."""


class InvalidVertex(ComplexError):
    """A face or label refers to a vertex outside the ground set."""


class InvalidNonface(ComplexError):
    """The empty set was offered as a nonface."""


class VoidComplex(ComplexError):
    """No faces were given: the void complex is not a value of the library."""


class VoidDual(ComplexError):
    """The full simplex has a void dual."""


class NotAFace(ComplexError):
    """The given subset is not a face of the complex."""


class EmptyFace(ComplexError):
    """The operation requires a nonempty face."""


class InvalidOrder(ComplexError):
    """A facet sequence is not a permutation of the facets, or fails to shell;
    or a CLI ``--permutation`` does not permute the indices 0..n-1 of the
    facets as parsed."""


class ParseError(Exception):
    """Syntax error in the complex file format, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
