"""The package's value types are immutable tuples that behave as frozen
records: no attribute can be set, ``_replace`` validates as the
constructor does, each repr names the class and its fields (or, for a
ring value, writes the element), equal values hash equal, and a ring
value neither equals nor combines with a plain tuple or a value of
another ring."""

import operator

import pytest

from gwfloor.checks import CheckResult, SuiteResult
from gwfloor.diagrams import FloorDiagram, MergedDiagram
from gwfloor.fields import ClosedClass, FqClass, RealClass
from gwfloor.local_factors import TwinTreeDescriptor
from gwfloor.springer import DiagonalForm
from gwfloor.univ import RES_EPS, ResidualElement, ResidualTilde, TildeElement, UnivElement
from gwfloor.wallcross import FieldCheck, ResidualReport, TransferCheck, WallCrossReport

# (builder of one value of each class, its repr)
VALUES = {
    "UnivElement": (lambda: UnivElement(1, 2, -3), "<1> + 2h - 3<2>"),
    "ResidualElement": (lambda: ResidualElement(3, 1), "1 + eps"),
    "RealClass": (lambda: RealClass(2, 0), "RealClass(rank=2, sig=0)"),
    "FqClass": (lambda: FqClass(3, 3), "FqClass(rank=3, disc=1)"),
    "ClosedClass": (lambda: ClosedClass(4), "ClosedClass(rank=4)"),
    "DiagonalForm": (
        lambda: DiagonalForm(1, ((8, 1), (-1, 0))),
        "DiagonalForm(nvars=1, entries=((-1, 0), (2, 1)))",
    ),
    "TwinTreeDescriptor": (
        lambda: TwinTreeDescriptor(2, 1, (1, 2)),
        "TwinTreeDescriptor(t=2, m_circ=1, labels=(1, 2), bounded_edges=())",
    ),
    "FloorDiagram": (
        lambda: FloorDiagram(2, ((1, 2, 1),)),
        "FloorDiagram(d=2, elevators=((1, 2, 1),))",
    ),
    "MergedDiagram": (
        lambda: MergedDiagram(
            FloorDiagram(1, ()), (("floor", 1), ("end", 1, 0)), (1,), (("R", "ends"),)
        ),
        "MergedDiagram(diagram=FloorDiagram(d=1, elevators=()), marking=(('floor', 1),"
        " ('end', 1, 0)), cfg=(1,), classes=(('R', 'ends'),), joins=())",
    ),
    "FieldCheck": (
        lambda: FieldCheck("real", "+-", True),
        "FieldCheck(model='real', assign='+-', ok=True)",
    ),
    "WallCrossReport": (
        lambda: WallCrossReport(
            2, (1,), (2,), TildeElement.variable(1, 1), UnivElement(0, 0, 2),
            (TildeElement.zero(1),), 0, 2, 0, True, True, True,
            (FieldCheck("closed", "", True),), None, True,
        ),
        "WallCrossReport(d=2, cfg_from=(1,), cfg_to=(2,), delta=(<1>)x1, coefficient=2<2>,"
        " witnesses=(0,), n1=0, n2=2, m=0, rank_zero=True, broccoli=True, parity=True,"
        " field_checks=(FieldCheck(model='closed', assign='', ok=True),), first_witness=None,"
        " reconstruction=True)",
    ),
    "TransferCheck": (
        lambda: TransferCheck((1, 3), (1, 4), 0, 1),
        "TransferCheck(target_from=(1, 3), target_to=(1, 4), lhs=0, rhs=1)",
    ),
    "ResidualReport": (
        lambda: ResidualReport(
            2, (1,), (2,), ResidualTilde(1, {frozenset({1}): RES_EPS}), RES_EPS, False, ()
        ),
        "ResidualReport(d=2, cfg_from=(1,), cfg_to=(2,), residual_delta=(eps)x1, top=eps,"
        " base_zero=False, transfers=(), unsupported=())",
    ),
    "CheckResult": (
        lambda: CheckResult("counts.anchor", True),
        "CheckResult(check_id='counts.anchor', passed=True, detail='', elapsed=0.0)",
    ),
    "SuiteResult": (
        lambda: SuiteResult("counts", (CheckResult("counts.anchor", False, "off by h", 0.5),)),
        "SuiteResult(suite='counts', checks=(CheckResult(check_id='counts.anchor',"
        " passed=False, detail='off by h', elapsed=0.5),))",
    ),
}

# The ring values of VALUES, each with a value of another ring: one with the
# same coordinates where a ring has as many.
RINGS = {
    "UnivElement": ResidualElement(1, 0),
    "ResidualElement": FqClass(1, 1),
    "RealClass": FqClass(2, 0),
    "FqClass": RealClass(3, 1),
    "ClosedClass": RealClass(4, 0),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_is_immutable(name):
    value = VALUES[name][0]()
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], 0)
    with pytest.raises(AttributeError):
        value.extra = 0


@pytest.mark.parametrize("name", VALUES)
def test_repr_is_unchanged(name):
    build, text = VALUES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_hash_equal(name):
    a, b = VALUES[name][0](), VALUES[name][0]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", RINGS)
def test_ring_value_is_not_its_coordinate_tuple(name):
    value = VALUES[name][0]()
    coords = tuple(value)
    assert value != coords and coords != value
    assert not value == coords and not coords == value
    other = RINGS[name]
    assert value != other and not value == other
    assert len({value, coords, other}) == 3


@pytest.mark.parametrize("name", RINGS)
def test_ring_value_is_never_repeated_or_concatenated(name):
    value = VALUES[name][0]()
    if name == "UnivElement":
        assert 2 * value == value * 2 == UnivElement(2, 4, -6)
    else:
        for scale in (lambda: 2 * value, lambda: value * 2):
            with pytest.raises(TypeError):
                scale()
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(value, tuple(value))
        with pytest.raises(TypeError):
            op(value, (1,))


@pytest.mark.parametrize("name", RINGS)
def test_ring_value_rejects_another_ring(name):
    value, other = VALUES[name][0](), RINGS[name]
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(value, other)
        with pytest.raises(TypeError):
            op(other, value)


def test_replace_goes_through_the_constructor():
    """``_replace`` normalises and validates as the constructor does."""
    assert ResidualElement(1, 0)._replace(b=3) == ResidualElement(1, 1)
    assert FqClass(1, 0)._replace(disc=3) == FqClass(1, 1)
    form = DiagonalForm(1, ((1, 0),))._replace(entries=((8, 1), (-1, 0)))
    assert form == VALUES["DiagonalForm"][0]()
    with pytest.raises(ValueError):
        VALUES["TwinTreeDescriptor"][0]()._replace(t=0)
    with pytest.raises(ValueError):
        VALUES["FloorDiagram"][0]()._replace(elevators=((2, 1, 1),))
