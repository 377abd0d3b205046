"""The frozen value types keep the dataclass behaviour of their generated
``__init__``: fields, equality, hash, repr, copies, pickling, immutability
and the errors on invalid input.  Each type declares ``init=False`` and an
``__init__`` that stores its fields straight into the instance
``__dict__``; ``bench/workloads.plain`` reads every result through
``dataclasses.fields``."""

import copy
import dataclasses
import pickle

import pytest

from qforms.cube import Cube
from qforms.errors import OutOfRange, ZeroForm
from qforms.forms import Form, FormClass, Mat2
from qforms.lattice import KleinPair, Plane

M = Mat2(1, 2, 3, 4)
N = Mat2(0, -1, 1, 0)

# one instance of each type, its field names in order, an equal instance
# built with keywords, an unequal one, and its repr
CASES = [
    (Form(1, 2, 3), ["a", "b", "c"], Form(a=1, b=2, c=3), Form(1, 2, 4), "Form(1, 2, 3)"),
    (M, ["m11", "m12", "m21", "m22"], Mat2(m11=1, m12=2, m21=3, m22=4), N,
     "Mat2(m11=1, m12=2, m21=3, m22=4)"),
    (FormClass(Form(1, 1, 6), -23), ["representative", "disc"],
     FormClass(representative=Form(1, 1, 6), disc=-23), FormClass(Form(2, 1, 3), -23), "[1,1,6]"),
    (Plane(M, N), ["v1", "v2"], Plane(v1=M, v2=N), Plane(N, M),
     "Plane(v1=Mat2(m11=1, m12=5, m21=0, m22=4), v2=Mat2(m11=0, m12=-1, m21=1, m22=0))"),
    (KleinPair(M, N), ["a1", "a2"], KleinPair(a1=M, a2=N), KleinPair(N, M),
     "KleinPair(a1=Mat2(m11=1, m12=2, m21=3, m22=4), a2=Mat2(m11=0, m12=-1, m21=1, m22=0))"),
    (Cube((1, 2, 3, 4, 5, 6, 7, 8)), ["entries"], Cube(entries=(1, 2, 3, 4, 5, 6, 7, 8)),
     Cube((8, 7, 6, 5, 4, 3, 2, 1)), "Cube(entries=(1, 2, 3, 4, 5, 6, 7, 8))"),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("value, names, same, other, text", CASES, ids=IDS)
class TestValueType:
    def test_fields_equality_hash_repr(self, value, names, same, other, text):
        assert dataclasses.is_dataclass(value)
        assert [f.name for f in dataclasses.fields(value)] == names
        assert type(value).__match_args__ == tuple(names)
        assert value == same and hash(value) == hash(same)
        assert value != other
        assert hash(value) == hash(tuple(getattr(value, n) for n in names))
        assert repr(value) == text
        assert dataclasses.astuple(value) == dataclasses.astuple(same)

    def test_copies_and_pickles(self, value, names, same, other, text):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert dataclasses.replace(value) == value

    def test_immutable(self, value, names, same, other, text):
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.extra = 0
        assert value == same

    def test_arguments(self, value, names, same, other, text):
        cls = type(value)
        args = [getattr(value, n) for n in names]
        with pytest.raises(TypeError):
            cls(*args, 0)
        with pytest.raises(TypeError):
            cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args[1:], **{names[0]: args[0], "extra": 0})


def test_zero_form_rejected():
    for build in (lambda: Form(0, 0, 0), lambda: Form(a=0, b=0, c=0),
                  lambda: dataclasses.replace(Form(1, 0, 0), a=0)):
        with pytest.raises(ZeroForm, match="the zero form is not allowed"):
            build()
    assert Form(0, 1, 0).coeffs() == (0, 1, 0)


@pytest.mark.parametrize("entries", [[1] * 8, (1,) * 7, (1,) * 9, (True,) * 8, (1.0,) + (1,) * 7, None])
def test_cube_entries_checked(entries):
    with pytest.raises(OutOfRange, match="a cube holds a tuple of eight ints"):
        Cube(entries)
    with pytest.raises(OutOfRange):
        dataclasses.replace(Cube((0,) * 8), entries=entries)
