"""The immutable value classes: construction, equality, hash and repr.

Every value type exported by ``galefan`` is checked against the
behaviour of a frozen record: fields are its annotated attributes in
order, it equals only an instance of its own class with equal fields,
hashes as the tuple of its fields, prints as ``Name(field=value, ...)``
and rejects assignment and deletion.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import galefan
from galefan import (
    AbelianGroup,
    AdmissibilityResult,
    ClassificationReport,
    ConnectednessResult,
    DegenerateConfigurationError,
    DemazureRoot,
    ElementCollection,
    FanReport,
    FanViolation,
    GSet,
    IntMatrix,
    LinearSystem,
    Link,
    ShapeReport,
    SimplicialFan,
    StrongRegularityResult,
    SuitabilityResult,
    VectorConfiguration,
    direct_sum,
    group_from_cokernel,
    smith_normal_form,
    solve_diophantine,
)
from galefan._record import Record

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _samples():
    group = AbelianGroup(1, (2,))
    elem = group.element((1,), (1,))
    coll = ElementCollection(group, (elem, group.element((-1,), (0,)), group.element((0,), (1,))))
    z = AbelianGroup(1)
    pair = ElementCollection(z, (z.element((1,)), z.element((1,))))
    config = VectorConfiguration(1, ((1,), (-1,)))
    root = DemazureRoot((1,), 1)
    return [
        group,
        elem,
        coll,
        group_from_cokernel(IntMatrix([[1, 0], [1, 2]])),
        AdmissibilityResult(False, True, 2),
        Link(0, frozenset({1, 2}), (1, 3)),
        direct_sum(AbelianGroup(0, (2,)), AbelianGroup(0, (3,))),
        smith_normal_form(IntMatrix([[2, 4], [6, 8]])),
        solve_diophantine(IntMatrix([[2, 4]]), (6,)),
        LinearSystem(2, equalities=(((1, 0), 1),), inequalities=(((0, 1), 0),)),
        config,
        SimplicialFan(config, frozenset({frozenset({0}), frozenset({1})})),
        root,
        FanViolation("nonprimitive-ray", (0,), "ray 1 is not primitive"),
        FanReport(False, (FanViolation("missing-ray-cone", (1,), "index 2 has no one-dimensional cone"),)),
        SuitabilityResult(True, ((-1,), (1,)), None),
        StrongRegularityResult(True, ((frozenset({1}), frozenset(), root),), None),
        GSet(pair, frozenset({frozenset({0, 1}), frozenset({0})})),
        ConnectednessResult(False, ("C1", 0)),
        ClassificationReport(False, True, True, ((0, 1),), 2, True, True),
        ShapeReport(False, ((0,), (1, 2)), None, None),
    ]


def _fields(x):
    return tuple(type(x).__annotations__)


def _values(x):
    return tuple(getattr(x, name) for name in _fields(x))


def test_samples_cover_every_exported_value_type():
    exported = {
        name
        for name in galefan.__all__
        if isinstance(getattr(galefan, name), type) and issubclass(getattr(galefan, name), Record)
    }
    assert exported == {type(x).__name__ for x in _samples()}
    assert len(exported) == 21


@pytest.mark.parametrize("x", _samples(), ids=lambda x: type(x).__name__)
def test_equality_hash_and_repr(x):
    cls, fields, values = type(x), _fields(x), _values(x)
    assert fields and len(set(fields)) == len(fields)
    twin = cls(*values)
    assert twin == x and not (twin != x) and twin is not x
    assert hash(x) == hash(values) == hash(twin)
    assert cls(**dict(zip(fields, values))) == x
    # equality needs the same class: the field tuple itself is not equal
    assert x != values
    assert x.__eq__(values) is NotImplemented
    body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(x) == f"{cls.__qualname__}({body})"
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x
    assert {x, twin} == {x}


@pytest.mark.parametrize("x", _samples(), ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned_or_deleted(x):
    for name in _fields(x) + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)


def test_unequal_fields_are_unequal():
    group = AbelianGroup(1, (2,))
    assert group.element((1,), (0,)) != group.element((1,), (1,))
    assert group.element((1,), (0,)) != AbelianGroup(2, (2,)).element((1, 0), (0,))
    assert DemazureRoot((1,), 0) != DemazureRoot((1,), 1)
    # equal field tuples, different classes
    assert FanReport(True, None) != ConnectednessResult(True, None)
    assert AdmissibilityResult(True, True, None) != SuitabilityResult(True, True, None)


def test_defaults_and_keyword_construction():
    assert AbelianGroup(3) == AbelianGroup(3, ()) == AbelianGroup(torsion=(), free_rank=3)
    system = LinearSystem(2)
    assert (system.equalities, system.inequalities) == ((), ())
    assert LinearSystem(1, inequalities=(((1,), 0),)).equalities == ()
    assert AdmissibilityResult(True, True).failing_index is None
    assert FanReport(True).violations == ()
    assert SuitabilityResult(False).witnesses is None
    assert SuitabilityResult(False).failing_index is None
    assert StrongRegularityResult(True) == StrongRegularityResult(True, (), None)
    assert ConnectednessResult(True).violation is None
    assert DemazureRoot(distinguished_ray=1, covector=(1,)) == DemazureRoot((1,), 1)


def test_bad_construction_raises_type_error():
    with pytest.raises(TypeError):
        DemazureRoot((1,))
    with pytest.raises(TypeError):
        DemazureRoot((1,), 0, 5)
    with pytest.raises(TypeError):
        DemazureRoot((1,), ray=0)
    with pytest.raises(TypeError):
        DemazureRoot((1,), 0, covector=(1,))


def test_post_init_normalises_and_validates():
    group = AbelianGroup(1, [2])
    assert group.torsion == (2,) and hash(group) == hash((1, (2,)))
    assert LinearSystem(1, equalities=[([True], 1)]).equalities == (((1,), 1),)
    fan = SimplicialFan(VectorConfiguration(1, ((1,), (-1,))), [[0]])
    assert fan.cones == frozenset({frozenset(), frozenset({0})})
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        LinearSystem(2, equalities=(((1,), 0),))
    with pytest.raises(DegenerateConfigurationError):
        VectorConfiguration(1, ((0,),))
    with pytest.raises(ValueError):
        ElementCollection(AbelianGroup(1), (AbelianGroup(2).zero(),))
    with pytest.raises(ValueError):
        SimplicialFan(VectorConfiguration(1, ((1,),)), [[3]])
    z = AbelianGroup(1)
    with pytest.raises(ValueError):
        GSet(ElementCollection(z, (z.element((1,)),)), frozenset({frozenset()}))


def test_cli_import_loads_every_module_without_dataclasses():
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import galefan.cli\n"
        "print('dataclasses' in sys.modules)\n"
        "print(sorted(m for m in sys.modules if m.startswith('galefan.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    )
    absent, loaded = out.stdout.splitlines()
    assert absent == "False"
    package = os.path.join(SRC, "galefan")
    modules = sorted(
        "galefan." + name[:-3]
        for name in os.listdir(package)
        if name.endswith(".py") and name != "__init__.py"
    )
    assert loaded == repr(modules)
