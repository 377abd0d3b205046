"""The integer paths of lattice and cube against their object paths.

``verify_composition_identity``, ``q_of_plane``, ``cube_law_check`` and
``cube_from_forms`` read q_L, the slicings and the cube off integer
coordinates.  ``klein_oracle.py`` keeps the Mat2, Plane, Form and
FormClass computations they replaced; these tests compare return values
and error codes at coefficients up to about 10^40, for D < 0, D > 0 not
a square and D a square, primitive and not.
"""

from hypothesis import assume, given, settings, strategies as st

import klein_oracle
from conftest import mat_add, mat_scale, outcome, regime_forms
from qforms import compose, cube, forms, lattice
from qforms.cube import Cube, cube_from_forms, cube_law_check, negate_layer, reflect
from qforms.forms import Form, FormClass
from qforms.lattice import KleinPair, Mat2, Plane, gross, klein_inverse, q_of_plane, verify_composition_identity

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)
HUGE = 10**40


@st.composite
def klein_pairs(draw):
    """The Klein pairs (A(f1), A(f2)) of regime_forms, and pairs that fail
    validation: common multiples, mismatched determinants, a
    discriminant-0 form and matrices off the Gross lattice."""
    f1, f2 = draw(regime_forms())
    pair = KleinPair(gross(f1), gross(f2))
    kind = draw(st.sampled_from(("valid", "valid", "valid", "multiple", "mismatched", "zero-det", "not-gross")))
    if kind == "multiple":
        k = draw(st.sampled_from((2, 3, -6)))
        pair = KleinPair(mat_scale(pair.a1, k), mat_scale(pair.a2, k))
    elif kind == "mismatched":
        pair = KleinPair(pair.a1, mat_add(pair.a2, Mat2(2, 0, 0, -2)))
    elif kind == "zero-det":
        x, y = draw(st.integers(-50, 50)), draw(st.integers(1, 50))
        zero = gross(Form(x * x, 2 * x * y, y * y))
        pair = KleinPair(zero, zero)
    elif kind == "not-gross":
        pair = KleinPair(pair.a1, mat_add(pair.a2, draw(st.sampled_from((Mat2(0, 1, 0, 0), Mat2(0, 0, 0, 1))))))
    return pair


class TestCompositionIdentity:
    @PROPERTY
    @given(pair=klein_pairs())
    def test_against_object_path(self, pair):
        got = outcome(verify_composition_identity, pair)
        assert got == outcome(klein_oracle.verify_composition_identity, pair)
        if got[0] == "ok":
            assert got[1][2] is True

    @PROPERTY
    @given(forms=regime_forms())
    def test_q_of_plane(self, forms):
        plane = klein_inverse(KleinPair(gross(forms[0]), gross(forms[1])))
        assert q_of_plane(plane) == klein_oracle.q_of_plane(plane)
        assert q_of_plane(plane.opposite()) == klein_oracle.q_of_plane(plane.opposite())

    @PROPERTY
    @given(v=st.tuples(*[st.integers(-9, 9) | st.integers(-HUGE, HUGE)] * 8))
    def test_q_of_plane_from_basis(self, v):
        # random summands, and the zero form of an isotropic plane
        plane = outcome(Plane.from_basis, Mat2(*v[:4]), Mat2(*v[4:]))[1]
        assume(isinstance(plane, Plane))
        assert outcome(q_of_plane, plane) == outcome(klein_oracle.q_of_plane, plane)

    def test_isotropic_plane(self):
        plane = Plane.from_basis(Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0))
        assert outcome(q_of_plane, plane) == outcome(klein_oracle.q_of_plane, plane) == ("err", "zero-form")


@st.composite
def cubes(draw):
    """Cubes of cube_from_forms on regime_forms, reflected or with a layer
    negated; small random cubes (degenerate slicings, discriminant 0 and
    every regime among them); and their multiples, whose slicing contents
    share a factor."""
    kind = draw(st.sampled_from(("forms", "forms", "random", "multiple")))
    if kind == "forms":
        box = cube_from_forms(*draw(regime_forms()))
        move = draw(st.sampled_from(("none", "reflect", "negate")))
        if move == "reflect":
            box = reflect(box)
        elif move == "negate":
            box = negate_layer(box, draw(st.integers(1, 3)), draw(st.integers(0, 1)))
        return box
    box = Cube(tuple(draw(st.integers(-4, 4)) for _ in range(8)))
    if kind == "multiple":
        box = Cube(tuple(draw(st.sampled_from((2, 3))) * e for e in box.entries))
    return box


class TestCube:
    @PROPERTY
    @given(box=cubes())
    def test_law_against_object_path(self, box):
        got = outcome(cube_law_check, box)
        assert got == outcome(klein_oracle.cube_law_check, box)
        assert outcome(cube.slicings, box) == outcome(klein_oracle.slicings, box)

    @PROPERTY
    @given(forms=regime_forms())
    def test_from_forms_against_plane_path(self, forms):
        box = cube_from_forms(*forms)
        assert box == klein_oracle.cube_from_plane(*forms)
        assert box == klein_oracle.cube_from_forms(*forms)
        assert cube_law_check(box) is True

    @PROPERTY
    @given(forms=regime_forms(), k=st.sampled_from((2, 3)), swap=st.booleans())
    def test_from_forms_errors(self, forms, k, swap):
        f1, f2 = forms
        bad = [(Form(k * f1.a, k * f1.b, k * f1.c), Form(k * f2.a, k * f2.b, k * f2.c)),  # common content
               (f1, Form(k * f2.a, k * f2.b, k * f2.c)),  # mismatched discriminants
               (f1, Form(1, 2, 1))]  # discriminant 0
        for q1, q2 in bad:
            if swap:
                q1, q2 = q2, q1
            assert outcome(cube_from_forms, q1, q2) == outcome(klein_oracle.cube_from_plane, q1, q2)
            assert outcome(cube_from_forms, q1, q2)[0] == "err"


def test_integer_paths_build_no_intermediate_objects(monkeypatch):
    # verify_composition_identity builds only the two Forms and FormClasses
    # it returns, cube_law_check no object and cube_from_forms only its Cube
    pairs = [KleinPair(gross(Form(2, 1, 3)), gross(Form(3, -1, 2))),  # D = -23
             KleinPair(gross(Form(2, 4 * 10**9 + 1, 2 * 10**18 + 10**9 + 3)), gross(Form(3, 1, 2))),
             KleinPair(gross(Form(1, 1, -1)), gross(Form(-1, 1, 1))),  # D = 5
             KleinPair(gross(Form(3, 5, -2)), gross(Form(-2, 5, 3))),  # D = 49
             KleinPair(gross(Form(2, 0, -6)), gross(Form(3, 6, -1)))]  # D = 48, contents 2 and 1
    form_pairs = [(Form(2, 1, 3), Form(3, -1, 2)), (Form(1, 1, -1), Form(-1, 1, 1)),
                  (Form(4, 4, 0), Form(3, 4, 0))]  # D = 16, contents 4 and 1
    want_identity = [verify_composition_identity(p) for p in pairs]
    want_cubes = [cube_from_forms(*fs) for fs in form_pairs]
    want_law = [cube_law_check(box) for box in want_cubes]
    built = []

    def counted(cls):
        def make(*args):
            built.append(cls.__name__)
            return cls(*args)
        return make

    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError(f"{args} built an object")

    for module in (forms, compose, lattice, cube):
        for name in ("Form", "Mat2", "FormClass", "Plane"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, Refused)
    monkeypatch.setattr(lattice, "Form", counted(Form))
    monkeypatch.setattr(lattice, "FormClass", counted(FormClass))
    assert [verify_composition_identity(p) for p in pairs] == want_identity
    assert built == ["Form", "FormClass", "Form", "FormClass"] * len(pairs)
    built.clear()
    monkeypatch.setattr(cube, "Cube", counted(Cube))
    assert [cube_from_forms(*fs) for fs in form_pairs] == want_cubes
    assert [cube_law_check(box) for box in want_cubes] == want_law
    assert built == ["Cube"] * len(form_pairs)
