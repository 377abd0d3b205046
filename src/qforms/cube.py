"""2x2x2 integer cubes and the composition law of their slicings.

A cube holds entries e(i, j, k), i, j, k in {0, 1}, serialized in binary
order e000..e111.  Each of the three axis-parallel slicings yields a pair
(M, N) of 2x2 matrices and hence a form q = -det(x M - y N):

    slicing 1: M[j][k] = e(0, j, k),  N[j][k] = e(1, j, k)
    slicing 2: M[i][j] = e(i, j, 0),  N[i][j] = e(i, j, 1)
    slicing 3: M[k][i] = e(i, 0, k),  N[k][i] = e(i, 1, k)

The ordering of slicings 2 and 3 is fixed so that for a cube whose first
slicing pair is an oriented basis (v1, v2) of a plane with Klein vectors
(a1, a2), the three forms are exactly

    q1 = -bar(q_L),  q2 = -S.q_{a2},  q3 = q_{a1}      (S = [[0,-1],[1,0]])

verified symbolically; with it, [q1]*[q2]*[q3] = 1 whenever defined.

``cube_from_forms(q1, q2)`` slices the plane of the pair (A(q1), -A(S.q2)),
whose Plucker coordinates (P01, P02, P03, P12, P13, P23) are, for
q_i = (a_i, b_i, c_i), ((b1 + b2)/2, a2, -a1, -c1, c2, (b2 - b1)/2); the
entries are the ``lattice._hermite`` coordinates of that plane, from the
Bezout kernel ``compose._plane_basis`` that ``compose._compose`` reads the
composite of q1 and q2 off.
``cube_law_check`` reduces and composes the slicings as integer triples,
checking one law when all three are primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .compose import _compose_reduced
from .errors import NoCoprimePair, NotPairPrimitive, OutOfRange, ZeroDiscriminant, ZeroForm
from .forms import Form, _canonical, _canonical_bar, _common_disc, content, discriminant
from .lattice import _hermite


@dataclass(frozen=True, init=False)
class Cube:
    """Eight integers indexed by (i, j, k); e(i, j, k) = entries[4i + 2j + k].

    Raises OutOfRange unless ``entries`` is a tuple of eight ints.
    """

    entries: tuple[int, int, int, int, int, int, int, int]

    def __init__(self, entries: tuple[int, int, int, int, int, int, int, int]) -> None:
        if type(entries) is not tuple or len(entries) != 8 or not all(type(v) is int for v in entries):
            raise OutOfRange(f"a cube holds a tuple of eight ints, not {entries!r}")
        self.__dict__["entries"] = entries


def _slicing_triples(e: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    # the coefficients of the three slicing forms of the entries e; for each
    # slicing pair (M, N), -det(xM - yN) = -det(M) x^2 + tr(M adj(N)) xy - det(N) y^2
    e0, e1, e2, e3, e4, e5, e6, e7 = e
    triples = ((e1 * e2 - e0 * e3, e0 * e7 + e3 * e4 - e1 * e6 - e2 * e5, e5 * e6 - e4 * e7),
               (e2 * e4 - e0 * e6, e0 * e7 + e1 * e6 - e2 * e5 - e3 * e4, e3 * e5 - e1 * e7),
               (e1 * e4 - e0 * e5, e0 * e7 + e2 * e5 - e1 * e6 - e3 * e4, e3 * e6 - e2 * e7))
    if (0, 0, 0) in triples:
        raise ZeroForm("degenerate cube: a slicing vanishes identically")
    return triples


def slicings(cube: Cube) -> tuple[Form, Form, Form]:
    """The three forms q_i = -det(x M_i - y N_i); equal discriminants."""
    t1, t2, t3 = _slicing_triples(cube.entries)
    return Form(*t1), Form(*t2), Form(*t3)


def cube_law_check(cube: Cube) -> bool:
    """Bhargava's cube law: [q_j] * [q_k] = bar[q_i] for every pair (j, k)
    of slicing forms with coprime contents, i the third slicing.

    When all three forms are primitive their classes lie in a group where
    bar is the inverse, and each of the three laws says [q1][q2][q3] = 1,
    so one law, [q2] * [q3] = bar[q1], is checked.  Otherwise every pair
    with coprime contents is checked.  Raises when no pair has coprime
    contents, or when the common discriminant vanishes.  Each slicing is
    reduced once, and the bar side is ``forms._canonical_bar`` of the
    reduced triple.
    """
    qs = _slicing_triples(cube.entries)
    # the three slicing discriminants are one polynomial in the entries,
    # Cayley's hyperdeterminant of the cube, so the first is the common one
    a, b, c = qs[0]
    d1 = b * b - 4 * a * c
    if d1 == 0:
        raise ZeroDiscriminant("cube slicings have discriminant 0")
    m = [gcd(*q) for q in qs]
    if m == [1, 1, 1]:
        pairs = [(0, 1, 2)]
    else:
        pairs = [(i, j, k) for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) if gcd(m[j], m[k]) == 1]
        if not pairs:
            raise NoCoprimePair("no two slicing forms have coprime contents")
    t = [_canonical(*q, d1) for q in qs]
    return all(_compose_reduced(t[j], t[k], d1) == _canonical_bar(*t[i], d1) for i, j, k in pairs)


def cube_from_forms(q1: Form, q2: Form) -> Cube:
    """A cube realizing [q1] and [q2] among its slicings.

    Its first slicing pair is the plane of the Klein pair (A(q1), -A(S.q2)),
    read off P as in the module docstring; the third slicing form is q1,
    the second q2, and the first composes with them to the identity.
    Requires equal nonzero discriminants and coprime contents.
    """
    _common_disc(discriminant(q1), discriminant(q2))
    if gcd(content(q1), content(q2)) != 1:
        raise NotPairPrimitive("a common prime divides the contents of q1 and q2")
    (x0, x1, x2, x3), (y0, y1, y2, y3) = _hermite((q1.b + q2.b) // 2, q2.a, -q1.a, -q1.c, q2.c,
                                                  (q2.b - q1.b) // 2)
    return Cube((x0, x3, -x2, x1, y0, y3, -y2, y1))  # the layers v1, v2 of the Hermite basis


def reflect(cube: Cube) -> Cube:
    """Reflection through the center; all three slicing classes get barred."""
    return Cube(cube.entries[::-1])


def negate_layer(cube: Cube, axis: int, side: int) -> Cube:
    """Negate one layer of slicing ``axis`` (1, 2 or 3; side 0 or 1).

    The form of that slicing is replaced by its bar and the other two by
    their negatives.  Raises OutOfRange for any other axis or side.
    """
    if axis not in (1, 2, 3) or side not in (0, 1):
        raise OutOfRange("axis must be 1..3 and side 0..1")
    bit = (4, 1, 2)[axis - 1]  # the index bit of i, k or j in 4i + 2j + k
    return Cube(tuple(-e if bool(n & bit) == side else e for n, e in enumerate(cube.entries)))

