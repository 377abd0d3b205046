import pytest
from hypothesis import given, settings, strategies as st

import klein_oracle
from conftest import (GEN_S, cube_from_dict, forms_of_disc, large_sl2_matrices, mat_from_rows, mat_identity, outcome,
                      random_form, random_sl2, same_disc_pairs)

from qforms.compose import class_bar, class_compose
from qforms.cube import (
    Cube,
    cube_from_forms,
    cube_law_check,
    negate_layer,
    reflect,
    slicings,
)
from qforms.errors import MismatchedDiscriminant, NotPairPrimitive, OutOfRange, ZeroForm
from qforms.forms import Form, FormClass, act, bar, content, discriminant, form_class, neg
from qforms.lattice import Mat2, Plane, form_of, klein_map, q_of_plane

PLANE_23 = Plane.from_basis(mat_identity(), Mat2(1, -6, 1, 0))


def primitive_pair(rng, bound=6):
    """Two primitive forms of equal nonzero discriminant."""
    while True:
        f1 = random_form(rng, -bound, bound)
        if content(f1) != 1:
            continue
        for f2 in forms_of_disc(discriminant(f1), bound):
            if content(f2) == 1:
                return f1, f2


class TestSlicings:
    def test_cube_from_worked_plane(self):
        v1, v2 = PLANE_23.v1, PLANE_23.v2
        box = klein_oracle.cube_from_layers(v1, v2)
        q1, q2, q3 = slicings(box)
        ql = q_of_plane(PLANE_23)
        assert q1 == neg(bar(ql))
        pair = klein_map(PLANE_23)
        assert q3 == form_of(pair.a1)
        assert q2 == neg(act(GEN_S, form_of(pair.a2)))
        assert cube_law_check(box)

    def test_zero_cube_rejected(self):
        with pytest.raises(ZeroForm):
            slicings(Cube((0,) * 8))

    def test_equal_discriminants(self, rng):
        checked = 0
        while checked < 200:
            box = Cube(tuple(rng.randint(-5, 5) for _ in range(8)))
            try:
                q1, q2, q3 = slicings(box)
            except ZeroForm:
                continue
            checked += 1
            assert discriminant(q1) == discriminant(q2) == discriminant(q3)


class TestCubeFromForms:
    def test_inputs_recovered_verbatim(self):
        box = cube_from_forms(Form(2, 1, 3), Form(2, 1, 3))
        q1, q2, q3 = slicings(box)
        assert q3 == Form(2, 1, 3)
        assert q2 == Form(2, 1, 3)
        assert FormClass.of(q1) == class_bar(class_compose(form_class(2, 1, 3),
                                                           form_class(2, 1, 3)))
        assert cube_law_check(box)

    def test_composing_with_identity(self):
        box = cube_from_forms(Form(1, 1, 6), Form(2, -1, 3))
        assert FormClass.of(slicings(box)[0]) == class_bar(form_class(2, -1, 3))
        assert cube_law_check(box)

    def test_minus_71_composition(self):
        box = cube_from_forms(Form(3, 1, 6), Form(2, 1, 9))
        expected = class_bar(class_compose(form_class(3, 1, 6), form_class(2, 1, 9)))
        assert FormClass.of(slicings(box)[0]) == expected
        assert cube_law_check(box)

    def test_rejects_mismatched_disc(self):
        with pytest.raises(MismatchedDiscriminant):
            cube_from_forms(Form(1, 1, 6), Form(1, 1, 5))

    def test_rejects_common_content(self):
        with pytest.raises(NotPairPrimitive):
            cube_from_forms(Form(2, 0, 12), Form(2, 4, 14))

    def test_law_on_random_pairs(self, rng):
        for _ in range(60):
            f1, f2 = primitive_pair(rng)
            assert cube_law_check(cube_from_forms(f1, f2))

    def test_law_invariant_under_transform(self, rng):
        v1, v2 = PLANE_23.v1, PLANE_23.v2
        for _ in range(40):
            g1 = mat_from_rows(random_sl2(rng).rows())
            g2 = mat_from_rows(random_sl2(rng).rows())
            box = klein_oracle.cube_from_layers(g1 @ v1 @ g2.bar(), g1 @ v2 @ g2.bar())
            assert cube_law_check(box)


class TestSymmetries:
    def test_reflect_involutive(self, rng):
        box = Cube(tuple(rng.randint(-5, 5) for _ in range(8)))
        assert reflect(reflect(box)) == box

    def test_reflect_bars_all_classes(self, rng):
        for _ in range(40):
            f1, f2 = primitive_pair(rng)
            box = cube_from_forms(f1, f2)
            for orig, refl in zip(slicings(box), slicings(reflect(box))):
                assert FormClass.of(refl) == class_bar(FormClass.of(orig))

    def test_negate_layer_raw_pattern(self):
        v1, v2 = PLANE_23.v1, PLANE_23.v2
        box = klein_oracle.cube_from_layers(v1, v2)
        base = slicings(box)
        for axis in (1, 2, 3):
            for side in (0, 1):
                out = slicings(negate_layer(box, axis, side))
                for i, (orig, new) in enumerate(zip(base, out), start=1):
                    if i == axis:
                        assert new == bar(orig)
                    else:
                        assert new == neg(orig)

    def test_negated_cubes_still_satisfy_law(self, rng):
        for _ in range(30):
            f1, f2 = primitive_pair(rng)
            box = cube_from_forms(f1, f2)
            for axis in (1, 2, 3):
                assert cube_law_check(negate_layer(box, axis, 0))
            assert cube_law_check(reflect(box))

    def test_negate_layer_rejects_bad_axis_or_side(self):
        box = klein_oracle.cube_from_layers(PLANE_23.v1, PLANE_23.v2)
        for axis, side in ((0, 0), (4, 0), (1, 2)):
            with pytest.raises(OutOfRange) as err:
                negate_layer(box, axis, side)
            assert err.value.code == "out-of-range"


class TestCubeLargeCoefficients:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(forms=same_disc_pairs(300), g1=large_sl2_matrices(10**7), g2=large_sl2_matrices(10**7))
    def test_from_forms(self, forms, g1, g2):
        # q1 and q2 scrambled to coefficients of about 10^30
        q1, q2 = act(g1, forms[0]), act(g2, forms[1])
        box = cube_from_forms(q1, q2)
        _, s2, s3 = slicings(box)
        assert (s3, s2) == (q1, q2)
        assert cube_law_check(box)


class TestSlicingsFromEntries:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(entries=st.tuples(*[st.integers(-2, 2) | st.integers(-10**20, 10**20)] * 8))
    def test_forms_of_the_slicing_pairs(self, entries):
        # the closed form in the eight entries is -det(xM - yN) of each pair
        # (M, N), -det(M) x^2 + tr(M adj(N)) xy - det(N) y^2, and the
        # degenerate cubes raise ZeroForm
        box = Cube(entries)
        expected = [(-m.det(), (m @ n.bar()).trace(), -n.det())
                    for m, n in klein_oracle.slicing_pairs(box)]
        if (0, 0, 0) in expected:
            with pytest.raises(ZeroForm):
                slicings(box)
        else:
            assert slicings(box) == tuple(Form(*t) for t in expected)


class TestMalformedCubes:
    @pytest.mark.parametrize("entries", [(1, 2, 3), (), (0,) * 9, (0,) * 7 + (1.0,),
                                         (0,) * 7 + (True,), (0,) * 7 + ("1",), (0,) * 7 + (None,)])
    def test_rejected_with_code(self, entries):
        for make in (Cube, lambda e: cube_from_dict({"entries": list(e)})):
            with pytest.raises(OutOfRange) as err:
                make(entries)
            assert err.value.code == "out-of-range"

    def test_entries_must_be_a_tuple(self):
        # a list would make an unhashable cube that never equals its tuple twin
        with pytest.raises(OutOfRange):
            Cube([0] * 8)
        assert cube_from_dict({"entries": [0] * 8}) == Cube((0,) * 8)


HUGE = 10**40
huge_ints = st.integers(-9, 9) | st.integers(-HUGE, HUGE)
PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def scaled(f, k):
    return Form(k * f.a, k * f.b, k * f.c)


@st.composite
def cube_form_pairs(draw):
    """Inputs to cube_from_forms with coefficients up to about 10^40: two
    primitive forms of one discriminant D, or contents 2 and 1 (2 q1 and
    (1, 0, -D)), or a common content, or a discriminant-0 form, or
    discriminants that differ; each form moved by an SL2(Z) element with
    entries of about 10^20."""
    kind = draw(st.sampled_from(("valid", "content-2", "common-content", "zero-disc", "mismatched")))
    if kind == "zero-disc":
        x, y = draw(st.integers(-50, 50)), draw(st.integers(1, 50))
        f1 = scaled(Form(x * x, 2 * x * y, y * y), draw(st.integers(1, 3)))
        f2 = f1 if draw(st.booleans()) else draw(same_disc_pairs(1000))[0]
    else:
        f1, f2 = draw(same_disc_pairs(1000))
        if kind == "content-2":
            f1, f2 = scaled(f1, 2), Form(1, 0, -discriminant(f1))
        elif kind == "common-content":
            k = draw(st.sampled_from((2, 3, -6)))
            f1, f2 = scaled(f1, k), scaled(f2, k)
        elif kind == "mismatched":
            a, b, c = draw(huge_ints.filter(bool)), draw(huge_ints), draw(huge_ints)
            f2 = scaled(f2, 3) if draw(st.booleans()) else Form(a, b, c)
    if draw(st.booleans()):
        f1, f2 = f2, f1
    return act(draw(large_sl2_matrices(10**10)), f1), act(draw(large_sl2_matrices(10**10)), f2)


class TestCubeAgainstRoundTrip:
    """cube_from_forms, reflect and negate_layer against the Klein-pair round
    trip and the entry-by-entry maps of klein_oracle.py, error codes
    included."""

    @PROPERTY
    @given(forms=cube_form_pairs())
    def test_cube_from_forms(self, forms):
        assert outcome(cube_from_forms, *forms) == outcome(klein_oracle.cube_from_forms, *forms)

    @PROPERTY
    @given(entries=st.tuples(*[huge_ints] * 8), axis=st.integers(1, 3) | st.integers(-1, 5),
           side=st.integers(0, 1) | st.integers(-1, 2))
    def test_reflect_and_negate_layer(self, entries, axis, side):
        box = Cube(entries)
        assert reflect(box) == klein_oracle.reflect(box)
        assert outcome(negate_layer, box, axis, side) == outcome(klein_oracle.negate_layer, box, axis, side)
