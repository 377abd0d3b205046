"""The Klein correspondence by integer kernels and Hermite forms.

This is how ``qforms.lattice`` computed planes before it read them off
the Plucker coordinates.  ``klein_inverse`` finds the solution lattice of
a1 x = x a2 as the integer kernel of the 4x4 map x -> a1 x - x a2, and
orients it by (a1 g, g) for a g in the plane with det(g) > 0, or by
(g, a1 g) when only det(g) < 0 is available.  A plane is stored by the
row Hermite basis of its two vectors with the sign of the transform
folded into the second one.  The tests hold the closed forms against it,
error codes included.

The second part keeps the round trips through a Klein pair that the
complements, the cube recipe and the cube symmetries took before they
were read off the Plucker coordinates: Phi of the plane, a change of
the pair, and Psi back (``lattice.klein_map`` and ``lattice.klein_inverse``,
with full pair validation); and the cube maps written entry by entry.

The third part is the object path that ``lattice`` and ``cube`` took
before they read q_L, the composition identity, the cube of two forms
and the cube law off integer coordinates: Mat2 products for q_L and the
slicing pairs, ``FormClass.of`` and ``class_compose`` for the classes.
The composition identity composes through a concordant pair
(``concordant_oracle``), since the library composes through the same
plane whose q_L it compares with.

The last part holds the ambient forms Q(x, y) = tr(x bar(y)) and
theta(x, y) = tr(x j bar(y)) on M2(Z), j = diag(1, -1), as matrix
entries: the definitions that the orthogonal and symplectic complements
are checked against.
"""

from math import gcd

from concordant_oracle import compose_by_concordant_pair
from hnf_oracle import kernel_basis, row_hnf_xgcd
from qforms import lattice
from qforms.compose import class_compose
from qforms.cube import Cube
from qforms.errors import (
    MismatchedDiscriminant,
    NoCoprimePair,
    NotASummand,
    NotPairPrimitive,
    NotSymplectic,
    OutOfRange,
    ZeroDeterminant,
    ZeroDiscriminant,
)
from conftest import GEN_S, mat_add, mat_identity, mat_scale, mat_sub
from qforms.forms import Form, FormClass, Mat2, act, bar, content, discriminant
from qforms.lattice import KleinPair, Plane, _pair_plucker, form_of, gross


def plane_from_basis(v1, v2):
    """The canonical Plane of the oriented basis (v1, v2)."""
    rows = [list(v1.coords()), list(v2.coords())]
    g = 0
    for j in range(4):
        for k in range(j + 1, 4):
            g = gcd(g, rows[0][j] * rows[1][k] - rows[0][k] * rows[1][j])
    if g == 0:
        raise NotASummand("basis vectors are linearly dependent")
    if g != 1:
        raise NotASummand("basis does not span a direct summand of Z^4")
    h, _, det_u = row_hnf_xgcd(rows)
    b1 = Mat2.from_coords(*h[0])
    b2 = Mat2.from_coords(*h[1])
    # stored as computed here: Plane(...) would re-derive the basis with the
    # library's own Hermite reduction, the code under test
    plane = object.__new__(Plane)
    plane.__dict__.update(v1=b1, v2=-b2 if det_u < 0 else b2)
    return plane


def contains(plane, x):
    """x lies in the plane: the third row of the Hermite form of (v1, v2, x) is zero."""
    rows = [list(plane.v1.coords()), list(plane.v2.coords()), list(x.coords())]
    h, _, _ = row_hnf_xgcd(rows)
    return all(v == 0 for v in h[2])


def klein_map(plane):
    """The Klein vectors as matrix products of the stored basis."""
    if discriminant(q_of_plane(plane)) == 0:
        raise ZeroDiscriminant("Klein vectors require disc(q_L) != 0")
    v1, v2 = plane.v1, plane.v2
    t = (v1 @ v2.bar()).trace()
    a1 = mat_sub(mat_scale(v1 @ v2.bar(), 2), mat_scale(mat_identity(), t))
    a2 = mat_sub(mat_scale(v2.bar() @ v1, 2), mat_scale(mat_identity(), t))
    return KleinPair(a1, a2)


def map_matrix(a1, a2):
    """The matrix of x -> a1 x - x a2 on Z^4, for traceless a1 and a2.

    Row i holds the i-th coordinate of the image as a function of the
    coordinates (m11, m22, -m21, m12) of x.
    """
    (p1, q1), (r1, _) = a1.rows()
    (p2, q2), (r2, _) = a2.rows()
    return [[p1 - p2, 0, -q1, -r2],
            [0, p2 - p1, q2, r1],
            [-r1, r2, -p1 - p2, 0],
            [-q2, q1, 0, p1 + p2]]


def orientation_sign(basis, ref):
    """+1 when ref = C @ basis over Q with det(C) > 0, else -1.

    Every 2x2 minor of the coordinate matrices scales by det(C), so one
    nonzero minor pair gives the sign.
    """
    wrows = [basis[0].coords(), basis[1].coords()]
    rrows = [ref[0].coords(), ref[1].coords()]
    for j in range(4):
        for k in range(j + 1, 4):
            mw = wrows[0][j] * wrows[1][k] - wrows[0][k] * wrows[1][j]
            if mw != 0:
                mr = rrows[0][j] * rrows[1][k] - rrows[0][k] * rrows[1][j]
                if mr == 0:
                    raise AssertionError(f"{ref} does not span the plane of {basis}")
                return ((mr > 0) - (mr < 0)) * ((mw > 0) - (mw < 0))
    raise ZeroDeterminant("degenerate basis")


def klein_inverse(p):
    """The oriented solution plane of a1 x = x a2, by an exact kernel."""
    _pair_plucker(p)
    kern = kernel_basis(map_matrix(p.a1, p.a2), hnf=row_hnf_xgcd)
    if len(kern) != 2:
        raise ZeroDeterminant(f"solution lattice has rank {len(kern)}, expected 2")
    w1 = Mat2.from_coords(*kern[0])
    w2 = Mat2.from_coords(*kern[1])
    g = next(c for c in (w1, w2, mat_add(w1, w2)) if c.det() != 0)
    ref = (p.a1 @ g, g) if g.det() > 0 else (g, p.a1 @ g)
    if orientation_sign((w1, w2), ref) < 0:
        w2 = -w2
    return plane_from_basis(w1, w2)


# ---------------------------------------------------------------------------
# Round trips through the Klein pair


def orth_complement(plane):
    """L^perp as L_{-a1,a2}."""
    p = lattice.klein_map(plane)
    return lattice.klein_inverse(KleinPair(-p.a1, p.a2))


def is_symplectic(plane):
    """a2(L) has diagonal (1, -1)."""
    return lattice.klein_map(plane).a2.m11 == 1


def symplectic_complement(plane):
    """L^pperp as L_{-a1,[[1,-alpha],[-gamma,-1]]}."""
    p = lattice.klein_map(plane)
    if p.a2.m11 != 1:
        raise NotSymplectic("symplectic complement requires a symplectic plane")
    return lattice.klein_inverse(KleinPair(-p.a1, Mat2(1, -p.a2.m12, -p.a2.m21, -1)))


def opposite(plane):
    """The plane of the swapped basis."""
    return Plane.from_basis(plane.v2, plane.v1)


def _cube_from_entry_fn(fn):
    return Cube(tuple(fn(i, j, k) for i in range(2) for j in range(2) for k in range(2)))


def cube_from_forms(q1, q2):
    """The cube whose layers are the plane of the pair (A(q1), -A(S.q2))."""
    d1, d2 = discriminant(q1), discriminant(q2)
    if d1 == 0 or d2 == 0:
        raise ZeroDiscriminant("cube construction requires nonzero discriminants")
    if d1 != d2:
        raise MismatchedDiscriminant(f"{d1} != {d2}")
    plane = lattice.klein_inverse(KleinPair(gross(q1), -gross(act(GEN_S, q2))))
    layers = (plane.v1.rows(), plane.v2.rows())
    return _cube_from_entry_fn(lambda i, j, k: layers[i][j][k])


def reflect(cube):
    """e(1 - i, 1 - j, 1 - k)."""
    e = cube.entries
    return _cube_from_entry_fn(lambda i, j, k: e[4 * (1 - i) + 2 * (1 - j) + (1 - k)])


def negate_layer(cube, axis, side):
    """Negate the entries whose coordinate i, k or j (axis 1, 2 or 3) is side."""
    if axis not in (1, 2, 3) or side not in (0, 1):
        raise OutOfRange("axis must be 1..3 and side 0..1")
    coord = {1: lambda i, j, k: i, 2: lambda i, j, k: k, 3: lambda i, j, k: j}[axis]
    e = cube.entries
    return _cube_from_entry_fn(
        lambda i, j, k: -e[4 * i + 2 * j + k] if coord(i, j, k) == side else e[4 * i + 2 * j + k])


# ---------------------------------------------------------------------------
# The object path of q_L, the composition identity and the cube


def q_of_plane(plane):
    """q_L(x, y) = det(v1) x^2 + tr(v1 bar(v2)) xy + det(v2) y^2."""
    v1, v2 = plane.v1, plane.v2
    return Form(v1.det(), (v1 @ v2.bar()).trace(), v2.det())


def verify_composition_identity(p):
    """[q_L] of the plane of p, and bar[q_a1] * [q_a2] through a concordant pair."""
    ql = q_of_plane(lattice.klein_inverse(p))  # validates the pair first
    via_plane = FormClass.of(ql)
    q1, q2 = form_of(p.a1), form_of(p.a2)
    via_compose = FormClass.of(compose_by_concordant_pair(bar(q1), q2))
    ok = via_plane == via_compose and content(ql) == content(q1) * content(q2)
    return via_plane, via_compose, ok


def cube_from_layers(m1, n1):
    """The cube with e(0, j, k) = m1[j][k] and e(1, j, k) = n1[j][k]."""
    return Cube((m1.m11, m1.m12, m1.m21, m1.m22, n1.m11, n1.m12, n1.m21, n1.m22))


def cube_from_plane(q1, q2):
    """cube_from_forms through the Plane of its Plucker coordinates."""
    d1, d2 = discriminant(q1), discriminant(q2)
    if d1 == 0 or d2 == 0:
        raise ZeroDiscriminant("cube construction requires nonzero discriminants")
    if d1 != d2:
        raise MismatchedDiscriminant(f"{d1} != {d2}")
    if gcd(content(q1), content(q2)) != 1:
        raise NotPairPrimitive("a common prime divides the contents of q1 and q2")
    plane = lattice._plane_from_plucker((q1.b + q2.b) // 2, q2.a, -q1.a, -q1.c, q2.c, (q2.b - q1.b) // 2)
    return cube_from_layers(plane.v1, plane.v2)


def slicing_pairs(cube):
    """The pairs (M_i, N_i) of the three slicings, as in the cube module docstring."""
    e000, e001, e010, e011, e100, e101, e110, e111 = cube.entries
    s1 = (Mat2(e000, e001, e010, e011), Mat2(e100, e101, e110, e111))
    s2 = (Mat2(e000, e010, e100, e110), Mat2(e001, e011, e101, e111))
    s3 = (Mat2(e000, e100, e001, e101), Mat2(e010, e110, e011, e111))
    return (s1, s2, s3)


def slicings(cube):
    """-det(x M - y N) = -det(M) x^2 + tr(M bar(N)) xy - det(N) y^2 per pair."""
    return tuple(Form(-m.det(), (m @ n.bar()).trace(), -n.det()) for m, n in slicing_pairs(cube))


def cube_law_check(cube):
    """[q_j] * [q_k] == bar[q_i] on classes, for every coprime-content pair."""
    qs = slicings(cube)
    d = discriminant(qs[0])
    if d == 0:
        raise ZeroDiscriminant("cube slicings have discriminant 0")
    if not (discriminant(qs[1]) == discriminant(qs[2]) == d):
        raise MismatchedDiscriminant("slicing discriminants disagree")
    pairs = [(i, j, k) for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
             if gcd(content(qs[j]), content(qs[k])) == 1]
    if not pairs:
        raise NoCoprimePair("no two slicing forms have coprime contents")
    return all(class_compose(FormClass.of(qs[j]), FormClass.of(qs[k])) == FormClass.of(bar(qs[i]))
               for i, j, k in pairs)


# ---------------------------------------------------------------------------
# The ambient forms on M2(Z)


def quad_q(x, y):
    """The symmetric bilinear form Q(x, y) = tr(x bar(y))."""
    return x.m11 * y.m22 - x.m12 * y.m21 - x.m21 * y.m12 + x.m22 * y.m11


def sympl_theta(x, y):
    """The symplectic form theta(x, y) = tr(x j bar(y)), j = diag(1, -1)."""
    return x.m11 * y.m22 + x.m12 * y.m21 - x.m21 * y.m12 - x.m22 * y.m11
