"""The value contract of the public classes: ``VertexSet``,
``SimplicialComplex``, ``ShellingOrder`` and ``MonomialSet``.

Each is an immutable value: two instances built from equal fields are equal
and hash alike, an instance equals nothing of another class, ``repr`` reads
``Name(field=value, ...)``, the constructor takes its fields by position or
by keyword, no attribute can be assigned or deleted, ``pickle`` and
``copy.deepcopy`` give an equal instance back, and a class pattern matches
the fields by position.
"""

import copy
import pickle

import pytest

from shellability import (
    MonomialSet,
    ShellingOrder,
    SimplicialComplex,
    VertexSet,
    f_vector,
    is_shellable,
    minimal_nonfaces,
    shelling_order,
)

ABC = ("a", "b", "c")


def path():
    """The path a - b - c: facets ab (3) and bc (6)."""
    return SimplicialComplex(VertexSet(ABC), [0b011, 0b110])


# (builder, field names, exact repr)
CASES = {
    "VertexSet": (
        lambda: VertexSet(ABC),
        ("labels",),
        "VertexSet(labels=('a', 'b', 'c'))",
    ),
    "SimplicialComplex": (
        path,
        ("vertices", "facets"),
        "SimplicialComplex(vertices=VertexSet(labels=('a', 'b', 'c')), facets=(3, 6))",
    ),
    "ShellingOrder": (
        lambda: ShellingOrder((3, 6), (0, 4)),
        ("facets", "restrictions"),
        "ShellingOrder(facets=(3, 6), restrictions=(0, 4))",
    ),
    "MonomialSet": (
        lambda: MonomialSet(VertexSet(ABC), (5,)),
        ("ground", "gens"),
        "MonomialSet(ground=VertexSet(labels=('a', 'b', 'c')), gens=(5,))",
    ),
}

each = pytest.mark.parametrize("case", list(CASES))


def fields(value, names):
    return tuple(getattr(value, name) for name in names)


@each
def test_equal_fields_give_equal_values_and_hashes(case):
    make, names, _ = CASES[case]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@each
def test_no_other_class_is_equal(case):
    make, names, _ = CASES[case]
    value = make()
    assert value != fields(value, names)
    assert fields(value, names) != value
    assert value != object()
    assert value.__eq__(fields(value, names)) is NotImplemented


@each
def test_repr(case):
    make, _, text = CASES[case]
    assert repr(make()) == text


@each
def test_keyword_construction(case):
    make, names, _ = CASES[case]
    value = make()
    assert type(value)(**dict(zip(names, fields(value, names)))) == value


@each
def test_fields_cannot_be_assigned_or_deleted(case):
    make, names, text = CASES[case]
    value = make()
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@each
@pytest.mark.parametrize("round_trip", [
    lambda v: pickle.loads(pickle.dumps(v)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_round_trip(case, round_trip):
    make, names, text = CASES[case]
    value = make()
    back = round_trip(value)
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value) and repr(back) == text


@each
def test_class_pattern_matches_fields_by_position(case):
    make, names, _ = CASES[case]
    value = make()
    match value:
        case VertexSet(labels):
            got = (labels,)
        case SimplicialComplex(vertices, facets):
            got = (vertices, facets)
        case ShellingOrder(facets, restrictions):
            got = (facets, restrictions)
        case MonomialSet(ground, gens):
            got = (ground, gens)
    assert got == fields(value, names)


def test_keyword_construction_passes_the_gate():
    # the constructor is the one gate, whichever way the fields are given
    vs = VertexSet(labels=iter(ABC))
    assert vs.labels == ABC
    c = SimplicialComplex(vertices=vs, facets=iter([0b111, 0b011, 0b111]))
    assert c.facets == (0b111,)
    with pytest.raises(ValueError):
        VertexSet(labels=("a", "a"))


def test_kept_values_survive_a_round_trip():
    # values computed on first use and the verdict record are no fields, and
    # a copy keeps them
    c = path()
    assert f_vector(c) == (1, 3, 2)
    assert shelling_order(c) is not None
    assert minimal_nonfaces(c).gens == (5,)
    for back in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert repr(back) == CASES["SimplicialComplex"][2]
        assert back._verdicts == c._verdicts != type(c)._verdicts
        assert f_vector(back) == (1, 3, 2) and is_shellable(back)
