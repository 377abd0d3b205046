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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .compose import _compose_reduced
from .errors import (
    MismatchedDiscriminant,
    NoCoprimePair,
    OutOfRange,
    ZeroDiscriminant,
    ZeroForm,
)
from .forms import GEN_S, Form, Mat2, _canonical, act, content, discriminant
from .lattice import KleinPair, gross, klein_inverse


@dataclass(frozen=True)
class Cube:
    """Eight integers indexed by (i, j, k); entry(i, j, k) = e[4i + 2j + k]."""

    entries: tuple[int, int, int, int, int, int, int, int]

    def entry(self, i: int, j: int, k: int) -> int:
        return self.entries[4 * i + 2 * j + k]

    @staticmethod
    def from_entry_fn(fn) -> "Cube":
        return Cube(tuple(fn(i, j, k) for i in range(2) for j in range(2) for k in range(2)))

    @staticmethod
    def from_layers(m1: Mat2, n1: Mat2) -> "Cube":
        rows_m, rows_n = m1.rows(), n1.rows()
        return Cube.from_entry_fn(lambda i, j, k: (rows_m if i == 0 else rows_n)[j][k])

    def slicing_pairs(self) -> tuple[tuple[Mat2, Mat2], ...]:
        e000, e001, e010, e011, e100, e101, e110, e111 = self.entries
        s1 = (Mat2(e000, e001, e010, e011), Mat2(e100, e101, e110, e111))
        s2 = (Mat2(e000, e010, e100, e110), Mat2(e001, e011, e101, e111))
        s3 = (Mat2(e000, e100, e001, e101), Mat2(e010, e110, e011, e111))
        return (s1, s2, s3)

    def to_dict(self) -> dict:
        return {"entries": list(self.entries)}

    @staticmethod
    def from_dict(doc: dict) -> "Cube":
        return Cube(tuple(int(v) for v in doc["entries"]))


def slicings(cube: Cube) -> tuple[Form, Form, Form]:
    """The three forms q_i = -det(x M_i - y N_i); equal discriminants.

    For each slicing pair (M, N), -det(xM - yN) = -det(M) x^2
    + tr(M adj(N)) xy - det(N) y^2, written out in the eight entries.
    """
    e0, e1, e2, e3, e4, e5, e6, e7 = cube.entries
    forms = []
    for a, b, c in ((e1 * e2 - e0 * e3, e0 * e7 + e3 * e4 - e1 * e6 - e2 * e5, e5 * e6 - e4 * e7),
                    (e2 * e4 - e0 * e6, e0 * e7 + e1 * e6 - e2 * e5 - e3 * e4, e3 * e5 - e1 * e7),
                    (e1 * e4 - e0 * e5, e0 * e7 + e2 * e5 - e1 * e6 - e3 * e4, e3 * e6 - e2 * e7)):
        if a == b == c == 0:
            raise ZeroForm("degenerate cube: a slicing vanishes identically")
        forms.append(Form(a, b, c))
    return tuple(forms)


def cube_law_check(cube: Cube) -> bool:
    """Verify [q_j] * [q_k] = bar[q_i] for every coprime-content pair (j, k).

    Raises when no pair of the three slicing forms has coprime contents,
    or when the common discriminant vanishes.  Each slicing is reduced once
    to its canonical triple, and the pairs compose on those triples.
    """
    q1, q2, q3 = slicings(cube)
    d = discriminant(q1)
    if d == 0:
        raise ZeroDiscriminant("cube slicings have discriminant 0")
    if not (discriminant(q2) == discriminant(q3) == d):
        raise MismatchedDiscriminant("slicing discriminants disagree")
    qs = (q1, q2, q3)
    pairs = [(i, j, k) for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
             if gcd(content(qs[j]), content(qs[k])) == 1]
    if not pairs:
        raise NoCoprimePair("no two slicing forms have coprime contents")
    t = [_canonical(q.a, q.b, q.c, d) for q in qs]
    return all(_compose_reduced(t[j], t[k], d) == _canonical(t[i][0], -t[i][1], t[i][2], d)
               for i, j, k in pairs)


def cube_from_forms(q1: Form, q2: Form) -> Cube:
    """A cube realizing [q1] and [q2] among its slicings.

    Built from the plane of the Klein pair (A(q1), -A(S.q2)); the third
    slicing then composes with them to the identity by the cube law.
    Requires equal nonzero discriminants and coprime contents.
    """
    d1, d2 = discriminant(q1), discriminant(q2)
    if d1 == 0 or d2 == 0:
        raise ZeroDiscriminant("cube construction requires nonzero discriminants")
    if d1 != d2:
        raise MismatchedDiscriminant(f"{d1} != {d2}")
    a1 = gross(q1)
    a2 = -gross(act(GEN_S, q2))
    plane = klein_inverse(KleinPair(a1, a2))  # raises NotPairPrimitive if needed
    v1, v2 = plane.basis()
    return Cube.from_layers(v1, v2)


def reflect(cube: Cube) -> Cube:
    """Reflection through the center; all three slicing classes get barred."""
    return Cube.from_entry_fn(lambda i, j, k: cube.entry(1 - i, 1 - j, 1 - k))


def negate_layer(cube: Cube, axis: int, side: int) -> Cube:
    """Negate one layer of slicing ``axis`` (1, 2 or 3; side 0 or 1).

    The form of that slicing is replaced by its bar and the other two by
    their negatives.  Raises OutOfRange for any other axis or side.
    """
    if axis not in (1, 2, 3) or side not in (0, 1):
        raise OutOfRange("axis must be 1..3 and side 0..1")
    coord = {1: lambda i, j, k: i, 2: lambda i, j, k: k, 3: lambda i, j, k: j}[axis]
    return Cube.from_entry_fn(
        lambda i, j, k: -cube.entry(i, j, k) if coord(i, j, k) == side else cube.entry(i, j, k)
    )

