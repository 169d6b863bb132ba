import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import pytest

from helpers import cx, demo_complex

# Each test gets its own complexes: a complex records the verdicts decided on
# it, so a shared one would let one test's verdict answer another's query.


@pytest.fixture
def demo():
    """The running example: eight triangles on seven vertices."""
    return demo_complex()


@pytest.fixture
def two_edges():
    """Two disjoint edges; pure but not shellable."""
    return cx("abcd", "ab cd")


@pytest.fixture
def tri_boundary():
    """Boundary of a triangle."""
    return cx("abc", "ab ac bc")


@pytest.fixture
def full3():
    """Full simplex on three vertices."""
    return cx("abc", "abc")
