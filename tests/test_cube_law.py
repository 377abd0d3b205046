"""One law per primitive cube, and reduced factors in the composition identity.

``cube_law_check`` checks one law, [q2] * [q3] = bar[q1], when all three
slicing forms are primitive: their classes lie in a group where bar is
the inverse, so each law says [q1][q2][q3] = 1.  Other cubes check every
coprime-content pair.  ``klein_oracle.cube_law_check`` checks every pair
on FormClass objects, and these tests hold the two together on cubes of
every regime, primitive or not.  ``verify_composition_identity`` composes
Gauss-reduced factors for D < 0 and the given ones for D > 0;
``klein_oracle.verify_composition_identity`` composes the unreduced
factors.
"""

from math import gcd, isqrt

from hypothesis import assume, given, settings, strategies as st

import klein_oracle
from conftest import outcome, regime_forms
from qforms import compose, cube, forms
from qforms.cube import Cube, cube_from_forms, cube_law_check, negate_layer, reflect
from qforms.forms import Form
from qforms.lattice import KleinPair, gross, verify_composition_identity

PROPERTY = settings(derandomize=True, database=None, max_examples=250, deadline=None)


def _slicing_discriminant(entries):
    e0, e1, e2, e3, e4, e5, e6, e7 = entries
    a, b, c = e1 * e2 - e0 * e3, e0 * e7 + e3 * e4 - e1 * e6 - e2 * e5, e5 * e6 - e4 * e7
    return b * b - 4 * a * c


@st.composite
def cubes(draw):
    """Cubes of every regime: cube_from_forms on regime_forms (contents up
    to (3, 4), coefficients near 10^40), reflected or with a layer negated;
    random cubes with entries up to 9 (degenerate, discriminant 0 and every
    regime) and up to 10^6 (D < 0 or a square: a positive non-square D that
    large has cycles too long to walk here).  Then, at random, one layer or
    the whole cube is multiplied by k, which makes slicing contents
    non-primitive or shared."""
    kind = draw(st.sampled_from(("forms", "forms", "small", "large")))
    if kind == "forms":
        box = cube_from_forms(*draw(regime_forms()))
        move = draw(st.sampled_from(("none", "reflect", "negate")))
        if move == "reflect":
            box = reflect(box)
        elif move == "negate":
            box = negate_layer(box, draw(st.integers(1, 3)), draw(st.integers(0, 1)))
    else:
        bound = 9 if kind == "small" else 10**6
        box = Cube(tuple(draw(st.integers(-bound, bound)) for _ in range(8)))
        if kind == "large":
            d = _slicing_discriminant(box.entries)
            assume(d < 0 or isqrt(d) ** 2 == d)
    k = draw(st.sampled_from((1, 1, 2, 3, 6)))
    scale = draw(st.sampled_from(("layer", "layer", "whole")))
    bit = draw(st.sampled_from((1, 2, 4)))  # the layer k = 1, j = 1 or i = 1
    return Cube(tuple(k * e if scale == "whole" or n & bit else e for n, e in enumerate(box.entries)))


def _contents(box):
    return [gcd(*f.coeffs()) for f in cube.slicings(box)]


class TestOneLawAgainstEveryPair:
    @PROPERTY
    @given(box=cubes())
    def test_against_every_pair(self, box):
        # the same answer or error code as the oracle, with one composition
        # for a primitive cube and one per coprime pair otherwise
        calls = []
        real = cube._compose_reduced

        def spy(t1, t2, D):
            calls.append((t1, t2))
            return real(t1, t2, D)

        cube._compose_reduced = spy
        try:
            got = outcome(cube_law_check, box)
        finally:
            cube._compose_reduced = real
        assert got == outcome(klein_oracle.cube_law_check, box)
        if got == ("ok", True):
            m = _contents(box)
            coprime = sum(gcd(m[j], m[k]) == 1 for j, k in ((1, 2), (2, 0), (0, 1)))
            assert len(calls) == (1 if m == [1, 1, 1] else coprime)

    def test_strategy_reaches_every_case(self):
        # the strategy draws primitive and non-primitive cubes of every
        # regime, and cubes with no coprime pair
        seen = set()

        @PROPERTY
        @given(box=cubes())
        def record(box):
            got = outcome(cube_law_check, box)
            d = _slicing_discriminant(box.entries)
            regime = "neg" if d < 0 else "zero" if d == 0 else "square" if isqrt(d) ** 2 == d else "pos"
            seen.add((regime, _contents(box) == [1, 1, 1]) if got[0] == "ok" else got[1])

        record()
        assert {("neg", True), ("neg", False), ("pos", True), ("pos", False),
                ("square", True), ("square", False), "no-coprime-pair"} <= seen

    def test_wrong_composition_is_caught(self, monkeypatch):
        # q3 = q2 = g of order 3 at D = -23, so q1 = g and the one law is
        # g * g = bar(g); a composition that returns the bar of the product
        # gives g instead of g^-1 = (2, -1, 3)
        box = cube_from_forms(Form(2, 1, 3), Form(2, 1, 3))
        assert _contents(box) == [1, 1, 1]
        assert cube_law_check(box) is True
        real = compose._compose_reduced
        monkeypatch.setattr(cube, "_compose_reduced",
                            lambda t1, t2, D: forms._canonical_bar(*real(t1, t2, D), D))
        assert cube_law_check(box) is False
        assert klein_oracle.cube_law_check(box) is True  # the oracle composes with compose's own


class TestCompositionIdentityFactors:
    @PROPERTY
    @given(fs=regime_forms())
    def test_against_unreduced_composition(self, fs):
        # equal to the oracle, which composes bar(q_a1) and q_a2 unreduced;
        # for D > 0 not a square two cycle walks, one per side, as when no
        # factor was reduced, and none for D < 0 or a square
        pair = KleinPair(gross(fs[0]), gross(fs[1]))
        walks = []
        real = forms._walk

        def spy(*args, **kwargs):
            walks.append(args[3])
            return real(*args, **kwargs)

        forms._walk = spy
        try:
            got = outcome(verify_composition_identity, pair)
        finally:
            forms._walk = real
        assert got == outcome(klein_oracle.verify_composition_identity, pair)
        d = gross(fs[0]).m11 ** 2 + gross(fs[0]).m12 * gross(fs[0]).m21
        if got[0] == "ok":
            assert got[1][2] is True
            assert len(walks) == (2 if d > 0 and isqrt(d) ** 2 != d else 0)

    def test_definite_factors_are_reduced_first(self, monkeypatch):
        # the composite of two 18-digit factors would have about 36 digits;
        # composed after reduction it stays near |D|
        f1 = forms.act(forms.Mat2(10**9 + 7, 10**9 + 6, 1, 1), Form(2, 1, 3))
        f2 = forms.act(forms.Mat2(1, 10**9, 0, 1), Form(3, -1, 2))
        composed = []
        real = compose._compose
        monkeypatch.setattr("qforms.lattice._compose",
                            lambda *args: composed.append(args) or real(*args))
        via_plane, via_compose, ok = verify_composition_identity(KleinPair(gross(f1), gross(f2)))
        assert ok and via_plane == via_compose
        assert max(abs(x) for x in composed[0][:6]) <= 23
