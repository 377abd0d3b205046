import time
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import hnf_oracle
import klein_oracle
from conftest import (GEN_S, large_sl2_matrices, mat_add, mat_from_rows, mat_identity, mat_scale, mat_sub,
                      pair_from_dict, plane_from_dict, random_form, random_klein_pair, random_sl2, same_disc_pairs)
from klein_oracle import quad_q, sympl_theta
from qforms.compose import class_compose, dirichlet_compose
from qforms.errors import (
    DomainError,
    MismatchedDeterminant,
    NotASummand,
    NotGross,
    NotPairPrimitive,
    NotSymplectic,
    NotUnimodular,
    ZeroDeterminant,
)
from qforms.forms import Form, FormClass, act, bar, content, discriminant, form_class, neg
from qforms.lattice import (
    KleinPair,
    Mat2,
    Plane,
    form_of,
    gross,
    gross_content,
    is_gross,
    is_symplectic,
    klein_inverse,
    klein_map,
    orth_complement,
    pair_to_dict,
    plane_to_dict,
    q_of_plane,
    symplectic_complement,
    transform_plane,
    verify_composition_identity,
)

from hnf_oracle import kernel_basis, row_hnf_xgcd

# the worked plane of discriminant -23: span(I, [[1, -6], [1, 0]])
PLANE_23 = Plane.from_basis(mat_identity(), Mat2(1, -6, 1, 0))
A_23 = Mat2(-1, 12, -2, 1)


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


class TestIntegerLinearAlgebra:
    def test_hnf_transform_relation(self, rng):
        for _ in range(100):
            m = rng.randint(1, 4)
            n = rng.randint(1, 5)
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            h, u, det_u = row_hnf_xgcd(mat)
            assert matmul(u, mat) == h
            assert det_u in (1, -1)
            if m == 2:
                assert u[0][0] * u[1][1] - u[0][1] * u[1][0] == det_u

    def test_hnf_shape(self, rng):
        for _ in range(100):
            mat = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
            h, _, _ = row_hnf_xgcd(mat)
            pivots = []
            for row in h:
                nz = [j for j, v in enumerate(row) if v]
                if nz:
                    pivots.append(nz[0])
                    assert row[nz[0]] > 0
            assert pivots == sorted(pivots)  # staircase, zero rows at bottom
            for r, j in enumerate(pivots):
                for i in range(r):
                    assert 0 <= h[i][j] < h[r][j]

    def test_hnf_canonical_for_row_lattice(self, rng):
        # unimodular row mixes never change the Hermite form
        for _ in range(60):
            mat = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(2)]
            g = random_sl2(rng)
            (p, q), (r, s) = g.rows()
            mixed = [[p * mat[0][j] + q * mat[1][j] for j in range(4)],
                     [r * mat[0][j] + s * mat[1][j] for j in range(4)]]
            assert row_hnf_xgcd(mat)[0] == row_hnf_xgcd(mixed)[0]

    def test_kernel(self, rng):
        for _ in range(100):
            mat = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
            kern = kernel_basis(mat, hnf=row_hnf_xgcd)
            for v in kern:
                assert all(sum(mat[i][j] * v[j] for j in range(4)) == 0
                           for i in range(4))
            # rank-nullity against a rational rank computation
            h, _, _ = row_hnf_xgcd(mat)
            rank = sum(1 for row in h if any(row))
            assert len(kern) == 4 - rank


class TestMat2:
    def test_bar_involution_and_det(self, rng):
        for _ in range(50):
            m = Mat2(*(rng.randint(-9, 9) for _ in range(4)))
            assert m.bar().bar() == m
            prod = m @ m.bar()
            assert prod == Mat2(m.det(), 0, 0, m.det())

    def test_coords_round_trip(self, rng):
        for _ in range(20):
            m = Mat2(*(rng.randint(-9, 9) for _ in range(4)))
            assert Mat2.from_coords(*m.coords()) == m

    def test_q_is_twice_det(self, rng):
        for _ in range(50):
            m = Mat2(*(rng.randint(-9, 9) for _ in range(4)))
            assert quad_q(m, m) == 2 * m.det()

    def test_theta_standard_values(self):
        e = [Mat2.from_coords(*(1 if i == j else 0 for j in range(4))) for i in range(4)]
        expect = {(0, 1): 1, (1, 0): -1, (2, 3): 1, (3, 2): -1}
        for i in range(4):
            for j in range(4):
                assert sympl_theta(e[i], e[j]) == expect.get((i, j), 0)


class TestGross:
    def test_round_trip(self, rng):
        for _ in range(50):
            f = random_form(rng)
            v = gross(f)
            assert is_gross(v)
            assert form_of(v) == f

    def test_not_gross_rejected(self):
        with pytest.raises(NotGross):
            form_of(Mat2(0, 1, 1, 0))


class TestPlane:
    def test_dependent_basis_rejected(self):
        with pytest.raises(NotASummand):
            Plane.from_basis(Mat2(1, 0, 0, 1), Mat2(2, 0, 0, 2))

    def test_non_summand_rejected(self):
        with pytest.raises(NotASummand):
            Plane.from_basis(Mat2(2, 0, 0, 0), Mat2(0, 0, 0, 2))

    def test_canonical_storage(self, rng):
        # any oriented basis of the same plane produces the same object
        for _ in range(50):
            p = klein_inverse(random_klein_pair(rng))
            v1, v2 = p.v1, p.v2
            g = random_sl2(rng)
            (a, b), (c, d) = g.rows()
            w1 = mat_add(mat_scale(v1, a), mat_scale(v2, b))
            w2 = mat_add(mat_scale(v1, c), mat_scale(v2, d))
            assert Plane.from_basis(w1, w2) == p

    def test_opposite_reverses(self):
        assert PLANE_23.opposite().opposite() == PLANE_23
        assert PLANE_23.opposite() != PLANE_23

    def test_json_round_trip(self):
        assert plane_from_dict(plane_to_dict(PLANE_23)) == PLANE_23


class TestQOfPlane:
    def test_worked_example(self):
        assert FormClass.of(q_of_plane(PLANE_23)) == form_class(1, 1, 6)
        assert discriminant(q_of_plane(PLANE_23)) == -23

    def test_opposite_is_bar(self, rng):
        for _ in range(50):
            p = klein_inverse(random_klein_pair(rng))
            assert (FormClass.of(q_of_plane(p.opposite()))
                    == FormClass.of(bar(q_of_plane(p))))

    def test_split_diagonal_plane(self):
        p = Plane.from_basis(Mat2(1, 0, 0, 0), Mat2(0, 0, 0, 1))
        assert q_of_plane(p) == Form(0, 1, 0)


class TestKleinMap:
    def test_worked_example(self):
        pair = klein_map(PLANE_23)
        assert pair.a1 == A_23 and pair.a2 == A_23
        assert pair.a1.det() == 23

    def test_opposite_negates(self, rng):
        for _ in range(50):
            p = klein_inverse(random_klein_pair(rng))
            pair, opp = klein_map(p), klein_map(p.opposite())
            assert opp.a1 == -pair.a1 and opp.a2 == -pair.a2

    def test_det_equals_minus_disc(self, rng):
        for _ in range(100):
            p = klein_inverse(random_klein_pair(rng))
            pair = klein_map(p)
            d = discriminant(q_of_plane(p))
            assert pair.a1.det() == pair.a2.det() == -d

    def test_output_pair_primitive(self, rng):
        for _ in range(50):
            p = klein_inverse(random_klein_pair(rng))
            pair = klein_map(p)
            assert is_gross(pair.a1) and is_gross(pair.a2)
            assert gcd(gross_content(pair.a1), gross_content(pair.a2)) == 1


class TestKleinInverse:
    def test_identity_in_diagonal_pair_plane(self):
        plane = klein_inverse(KleinPair(A_23, A_23))
        assert plane.contains(mat_identity())
        assert FormClass.of(q_of_plane(plane)) == form_class(1, 1, 6)

    def test_round_trips(self, rng):
        for _ in range(200):
            pair = random_klein_pair(rng)
            plane = klein_inverse(pair)
            back = klein_map(plane)
            assert back.a1 == pair.a1 and back.a2 == pair.a2
        count = 0
        while count < 200:
            plane = klein_inverse(random_klein_pair(rng))
            plane = transform_plane(plane, random_sl2(rng), random_sl2(rng))
            if discriminant(q_of_plane(plane)) == 0:
                continue
            count += 1
            assert klein_inverse(klein_map(plane)) == plane

    def test_validation(self):
        a = gross(Form(1, 1, 6))
        with pytest.raises(MismatchedDeterminant):
            klein_inverse(KleinPair(a, gross(Form(2, 1, 9))))
        with pytest.raises(ZeroDeterminant):
            klein_inverse(KleinPair(gross(Form(1, 2, 1)), gross(Form(1, 2, 1))))
        with pytest.raises(NotPairPrimitive):
            klein_inverse(KleinPair(mat_scale(a, 2), mat_scale(a, 2)))
        with pytest.raises(NotGross):
            klein_inverse(KleinPair(Mat2(0, 1, 1, 0), Mat2(0, 1, 1, 0)))

    def test_equivariance(self, rng):
        for _ in range(100):
            pair = random_klein_pair(rng)
            plane = klein_inverse(pair)
            g1, g2 = random_sl2(rng), random_sl2(rng)
            moved = klein_map(transform_plane(plane, g1, g2))
            m1, m2 = mat_from_rows(g1.rows()), mat_from_rows(g2.rows())
            assert moved.a1 == m1 @ pair.a1 @ m1.bar()
            assert moved.a2 == m2 @ pair.a2 @ m2.bar()

    def test_transform_requires_sl2(self):
        flip = Mat2(0, 1, 1, 0)
        for g1, g2 in ((flip, mat_identity()), (mat_identity(), flip)):
            with pytest.raises(NotUnimodular):
                transform_plane(PLANE_23, g1, g2)

    def test_json_round_trip(self, rng):
        pair = random_klein_pair(rng)
        assert pair_from_dict(pair_to_dict(pair)) == pair


class TestComplements:
    def test_orthogonality(self, rng):
        for _ in range(100):
            plane = klein_inverse(random_klein_pair(rng))
            perp = orth_complement(plane)
            for x in (plane.v1, plane.v2):
                for y in (perp.v1, perp.v2):
                    assert quad_q(x, y) == 0
            assert (discriminant(q_of_plane(perp))
                    == discriminant(q_of_plane(plane)))
            pp = klein_map(perp)
            p = klein_map(plane)
            assert pp.a1 == -p.a1 and pp.a2 == p.a2

    def test_orth_composition_corollary(self, rng):
        for _ in range(100):
            pair = random_klein_pair(rng)
            perp = orth_complement(klein_inverse(pair))
            lhs = FormClass.of(q_of_plane(perp))
            rhs = FormClass.of(dirichlet_compose(bar(neg(form_of(pair.a1))),
                                                 form_of(pair.a2)))
            assert lhs == rhs

    def test_id_a_perp_is_minus_square(self, rng):
        for _ in range(100):
            while True:
                f = random_form(rng, -8, 8)
                if content(f) == 1:
                    break
            a = gross(f)
            if f.b % 2:
                half = Mat2((1 + a.m11) // 2, a.m12 // 2, a.m21 // 2, (1 + a.m22) // 2)
            else:
                half = Mat2(a.m11 // 2, a.m12 // 2, a.m21 // 2, a.m22 // 2)
            plane = Plane.from_basis(mat_identity(), half)
            assert klein_map(plane).a1 == -a and klein_map(plane).a2 == -a
            lhs = FormClass.of(q_of_plane(orth_complement(plane)))
            square = class_compose(FormClass.of(f), FormClass.of(f))
            assert lhs == FormClass.of(neg(square.representative))


def random_symplectic_plane(rng):
    while True:
        f1 = random_form(rng)
        d = discriminant(f1)
        if d % 4 != 1:
            continue
        ac = (1 - d) // 4
        if ac == 0:
            continue
        divs = [v for v in range(1, abs(ac) + 1) if ac % v == 0]
        a = rng.choice(divs)
        pair = KleinPair(gross(f1), gross(Form(a, 1, ac // a)))
        return klein_inverse(pair)


class TestSymplectic:
    def test_worked_example_orientations(self):
        assert not is_symplectic(PLANE_23)
        assert is_symplectic(PLANE_23.opposite())

    def test_symplectic_iff_theta_one(self, rng):
        for _ in range(100):
            plane = klein_inverse(random_klein_pair(rng))
            v1, v2 = plane.v1, plane.v2
            assert is_symplectic(plane) == (sympl_theta(v1, v2) == 1)

    def test_complement_properties(self, rng):
        for _ in range(100):
            plane = random_symplectic_plane(rng)
            comp = symplectic_complement(plane)
            for x in (plane.v1, plane.v2):
                for y in (comp.v1, comp.v2):
                    assert sympl_theta(x, y) == 0
            assert symplectic_complement(comp) == plane
            perp = orth_complement(plane)
            assert (FormClass.of(q_of_plane(comp))
                    == FormClass.of(neg(bar(q_of_plane(perp)))))
            pair = klein_map(plane)
            expect = FormClass.of(dirichlet_compose(form_of(pair.a1), form_of(pair.a2)))
            assert FormClass.of(q_of_plane(comp)) == expect

    def test_complement_klein_vectors(self, rng):
        for _ in range(50):
            plane = random_symplectic_plane(rng)
            p = klein_map(plane)
            pp = klein_map(symplectic_complement(plane))
            assert pp.a1 == -p.a1
            assert pp.a2 == Mat2(1, -p.a2.m12, -p.a2.m21, -1)

    def test_requires_symplectic(self):
        with pytest.raises(NotSymplectic):
            symplectic_complement(PLANE_23)


class TestStabilizerCorollary:
    def test_empirical_direction(self, rng):
        # For primitive q_L the stabilizer criterion collapses to squares
        # being trivial.  Empirically (400/400 random symplectic planes,
        # and by cancelling [q_a2] in the composition identities) the
        # direction that holds is
        #     [q_L] == [q_Lpp]      iff  [q_a1]^2 = 1
        #     [q_L] == bar[q_Lpp]   iff  [q_a2]^2 = 1
        # i.e. EQUALITY iff the square is trivial; the reverse reading is
        # inconsistent with the composition identity.
        checked = 0
        while checked < 150:
            plane = random_symplectic_plane(rng)
            ql = q_of_plane(plane)
            if content(ql) != 1:
                continue
            checked += 1
            qpp = q_of_plane(symplectic_complement(plane))
            p = klein_map(plane)
            s1, s2 = FormClass.of(form_of(p.a1)), FormClass.of(form_of(p.a2))
            e = FormClass.of(Form(1, 1, (1 - discriminant(ql)) // 4))
            sq1_trivial = class_compose(s1, s1) == e
            sq2_trivial = class_compose(s2, s2) == e
            assert (FormClass.of(ql) == FormClass.of(qpp)) == sq1_trivial
            assert (FormClass.of(ql) == FormClass.of(bar(qpp))) == sq2_trivial


class TestCompositionIdentity:
    def test_worked_example(self):
        c1, c2, ok = verify_composition_identity(KleinPair(A_23, A_23))
        assert ok and c1 == form_class(1, 1, 6) and c2 == form_class(1, 1, 6)

    def test_diagonal_pair_is_identityish(self, rng):
        # (A(q), A(q)) gives bar[q] * [q], the identity for primitive q
        for _ in range(30):
            while True:
                f = random_form(rng)
                if content(f) == 1:
                    break
            a = gross(f)
            c1, c2, ok = verify_composition_identity(KleinPair(a, a))
            assert ok
            d = discriminant(f)
            assert c1 == (form_class(1, 1, (1 - d) // 4) if d % 4 == 1
                          else form_class(1, 0, -d // 4))

    def test_random_pairs(self, rng):
        for _ in range(200):
            c1, c2, ok = verify_composition_identity(random_klein_pair(rng))
            assert ok and c1 == c2


# fixed, reproducible Hypothesis runs
PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def det(mat):
    """Determinant by cofactor expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j] * det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)))


@st.composite
def integer_matrices(draw):
    """1-4 x 1-5 matrices with entries up to 10^30, often rank-deficient."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    big = st.builds(lambda x, sign: sign * x, st.integers(10**29, 10**30), st.sampled_from((1, -1)))
    entry = st.one_of(st.just(0), st.integers(-9, 9), big)
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):  # zero columns
        for row in rows:
            row[j] = 0
    if m > 1 and draw(st.booleans()):  # a repeated row, a multiple of one, or a zero row
        i = draw(st.integers(1, m - 1))
        k = draw(st.sampled_from((1, -1, 2, 0)))
        rows[i] = [k * v for v in rows[draw(st.integers(0, i - 1))]]
    return rows


class TestHnfAgainstOracle:
    """The extended-gcd elimination against the Euclid elimination it replaced."""

    @PROPERTY
    @given(mat=integer_matrices())
    def test_row_hnf(self, mat):
        h, u, det_u = row_hnf_xgcd(mat)
        oracle_h, oracle_u, oracle_det_u = hnf_oracle.row_hnf(mat)
        assert h == oracle_h
        assert matmul(u, mat) == h
        assert det(u) == det_u
        if all(any(row) for row in h):
            # full row rank makes U unique; otherwise the rows of U over the
            # zero rows of H are just some kernel basis, and det_U may differ
            assert (u, det_u) == (oracle_u, oracle_det_u)

    @PROPERTY
    @given(mat=integer_matrices())
    def test_kernel_spans_oracle_kernel(self, mat):
        kern = kernel_basis(mat, hnf=row_hnf_xgcd)
        expect = hnf_oracle.kernel_basis(mat)
        assert len(kern) == len(expect)
        for v in kern:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in mat)
        if kern:
            assert row_hnf_xgcd(kern)[0] == row_hnf_xgcd(expect)[0]

    def test_map_matrix_matches_mat2_products(self, rng):
        units = [Mat2.from_coords(*(1 if i == j else 0 for j in range(4))) for i in range(4)]
        for _ in range(2000):
            p1, q1, r1, p2, q2, r2 = (rng.randint(-10**30, 10**30) for _ in range(6))
            a1, a2 = Mat2(p1, q1, r1, -p1), Mat2(p2, q2, r2, -p2)
            images = [mat_sub(a1 @ e, e @ a2).coords() for e in units]
            # column i of the matrix is the image of the i-th basis vector
            assert klein_oracle.map_matrix(a1, a2) == [[images[i][j] for i in range(4)] for j in range(4)]


def scramble(rng, f, digits):
    """f moved by a random SL2(Z) word until a coefficient has ``digits`` digits."""
    shears = [Mat2(1, k, 0, 1) for k in range(-9, 10) if k]
    while max(abs(f.a), abs(f.b), abs(f.c)) < 10**digits:
        f = act(GEN_S, act(rng.choice(shears), f))
    return f


def definite_pair(rng, max_abs_disc):
    """Two primitive positive definite forms of one discriminant |D| <= max_abs_disc."""
    while True:
        a = rng.randint(1, 1000)
        f1 = Form(a, rng.randint(-a, a), rng.randint(a, max(a, max_abs_disc // (4 * a))))
        if content(f1) == 1:
            break
    d = discriminant(f1)
    b2 = rng.randrange(d % 2, 4000, 2)
    m = (b2 * b2 - d) // 4
    a2 = rng.choice([a for a in range(1, 300) if m % a == 0])
    return f1, Form(a2, b2, m // a2)


class TestKleinLargeCoefficients:
    """Klein round trips on pair-primitive pairs with coefficients of about 10^30."""

    @PROPERTY
    @given(forms=same_disc_pairs(1000), g1=large_sl2_matrices(10**7), g2=large_sl2_matrices(10**7))
    def test_map_of_inverse(self, forms, g1, g2):
        pair = KleinPair(gross(act(g1, forms[0])), gross(act(g2, forms[1])))
        assert klein_map(klein_inverse(pair)) == pair

    @PROPERTY
    @given(forms=same_disc_pairs(1000), g1=large_sl2_matrices(10**7), g2=large_sl2_matrices(10**7))
    def test_inverse_of_map_and_double_complement(self, forms, g1, g2):
        plane = klein_inverse(KleinPair(gross(forms[0]), gross(forms[1])))
        plane = transform_plane(plane, g1, g2)
        assert klein_inverse(klein_map(plane)) == plane
        assert orth_complement(orth_complement(plane)) == plane

    def test_klein_inverse_large_coefficients_within_budget(self, rng):
        # 60-digit scrambles of definite pairs with |D| <= 10^12: 0.06-0.08 s
        # (median 0.07) with one extended-gcd step per row pair, 0.24-0.51 s
        # (median 0.40) with the Euclid elimination of hnf_oracle.py, on a
        # 2-vCPU host
        pairs = []
        for _ in range(200):
            f1, f2 = definite_pair(rng, 10**12)
            pairs.append(KleinPair(gross(scramble(rng, f1, 60)), gross(scramble(rng, f2, 60))))
        t0 = time.perf_counter()
        planes = [klein_inverse(p) for p in pairs]
        assert time.perf_counter() - t0 < 0.2
        assert all(klein_map(plane) == p for plane, p in zip(planes, pairs))


def outcome(fn, *args):
    """("ok", value) or ("err", the DomainError code)."""
    try:
        return ("ok", fn(*args))
    except DomainError as exc:
        return ("err", exc.code)


HUGE = 10**40
huge_ints = st.one_of(st.integers(-9, 9), st.integers(-HUGE, HUGE))


@st.composite
def huge_klein_pairs(draw):
    """Gross pairs with coefficients up to about 10^40: valid pairs moved by
    SL2(Z) elements with entries near 10^20, their multiples (not
    pair-primitive), zero-determinant pairs, random Gross matrices (whose
    determinants mostly differ) and matrices just off the Gross lattice."""
    kind = draw(st.sampled_from(("valid", "multiple", "zero-det", "random", "not-gross")))
    if kind in ("random", "not-gross"):
        p1, q1, r1, p2, q2, r2 = (draw(huge_ints) for _ in range(6))
        pair = KleinPair(Mat2(p1, 2 * q1, 2 * r1, -p1), Mat2(p2, 2 * q2, 2 * r2, -p2))
        if kind == "not-gross":  # an odd off-diagonal entry or a nonzero trace
            odd = draw(st.sampled_from((Mat2(0, 1, 0, 0), Mat2(0, 0, 1, 0), Mat2(0, 0, 0, 1))))
            pair = KleinPair(mat_add(pair.a1, odd), pair.a2) if draw(st.booleans()) else KleinPair(pair.a1, mat_add(pair.a2, odd))
        return pair
    if kind == "zero-det":
        x, y = draw(st.integers(-50, 50)), draw(st.integers(1, 50))
        f1 = f2 = Form(x * x, 2 * x * y, y * y)  # discriminant 0
    else:
        f1, f2 = draw(same_disc_pairs(1000))
    g1, g2 = draw(large_sl2_matrices(10**10)), draw(large_sl2_matrices(10**10))
    pair = KleinPair(gross(act(g1, f1)), gross(act(g2, f2)))
    if kind == "multiple":
        k = draw(st.sampled_from((2, 3, -6)))
        pair = KleinPair(mat_scale(pair.a1, k), mat_scale(pair.a2, k))
    return pair


@st.composite
def huge_bases(draw):
    """Bases with entries up to about 10^40: random pairs of vectors, dependent
    pairs and non-summands; and unimodular mixes of the basis of a plane
    moved by SL2(Z) x SL2(Z), from a Klein plane, a plane with
    q_L = x^2 + 2xy + y^2 (discriminant 0) or one with q_L = 0."""
    kind = draw(st.sampled_from(("random", "dependent", "scaled", "klein", "plane")))
    if kind in ("klein", "plane"):
        if kind == "klein":
            f1, f2 = draw(same_disc_pairs(1000))
            plane = klein_inverse(KleinPair(gross(f1), gross(f2)))
        else:
            plane = draw(st.sampled_from((Plane.from_basis(mat_identity(), Mat2(1, 1, 0, 1)),
                                          Plane.from_basis(Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0)))))
        plane = transform_plane(plane, draw(large_sl2_matrices(10**5)), draw(large_sl2_matrices(10**5)))
        (a, b), (c, d) = draw(large_sl2_matrices(10**10)).rows()
        return (mat_add(mat_scale(plane.v1, a), mat_scale(plane.v2, b)),
                mat_add(mat_scale(plane.v1, c), mat_scale(plane.v2, d)))
    v1 = Mat2(*(draw(huge_ints) for _ in range(4)))
    v2 = Mat2(*(draw(huge_ints) for _ in range(4)))
    if kind == "dependent":
        v2 = mat_scale(v1, draw(st.integers(-3, 3)))
    elif kind == "scaled":
        v2 = mat_scale(v2, draw(st.sampled_from((2, 5))))
    return v1, v2


@st.composite
def late_pivot_bases(draw):
    """Bases whose first coordinate, or first two, are zero in both vectors,
    so that the Hermite basis has its pivot in column 1 or 2, with entries
    up to about 10^40: random pairs (most of them summands when one
    coordinate is zero) and, with two zero coordinates, the rows of an
    SL2(Z) element with entries near 10^40 in either orientation."""
    zeros = draw(st.sampled_from((1, 2)))
    if zeros == 2 and draw(st.booleans()):
        (a, b), (c, d) = draw(large_sl2_matrices(10**20)).rows()
        k = draw(st.sampled_from((1, -1)))
        x, y = (0, 0, a, b), (0, 0, k * c, k * d)
    else:
        x, y = ((0,) * zeros + tuple(draw(huge_ints) for _ in range(4 - zeros)) for _ in range(2))
    return Mat2.from_coords(*x), Mat2.from_coords(*y)


class TestClosedFormAgainstKernelOracle:
    """The Plucker closed forms against the kernel-and-orientation code of
    klein_oracle.py, error codes included, at coefficients up to 10^40."""

    @PROPERTY
    @given(pair=huge_klein_pairs())
    def test_klein_inverse(self, pair):
        got = outcome(klein_inverse, pair)
        assert got == outcome(klein_oracle.klein_inverse, pair)
        if got[0] == "ok":
            assert klein_map(got[1]) == pair

    @PROPERTY
    @given(basis=huge_bases())
    def test_from_basis_and_klein_map(self, basis):
        got = outcome(Plane.from_basis, *basis)
        assert got == outcome(klein_oracle.plane_from_basis, *basis)
        if got[0] == "ok":
            plane = got[1]
            assert outcome(klein_map, plane) == outcome(klein_oracle.klein_map, plane)

    @PROPERTY
    @given(basis=late_pivot_bases())
    def test_from_basis_late_pivots(self, basis):
        got = outcome(Plane.from_basis, *basis)
        assert got == outcome(klein_oracle.plane_from_basis, *basis)
        if got[0] == "ok":
            plane = got[1]
            assert plane.v1.coords()[0] == 0
            assert plane.opposite() == klein_oracle.opposite(plane)

    @PROPERTY
    @given(basis=huge_bases(), k1=huge_ints, k2=huge_ints, x=st.tuples(*[huge_ints] * 4))
    def test_contains(self, basis, k1, k2, x):
        plane = outcome(Plane.from_basis, *basis)[1]
        if isinstance(plane, str):  # not a summand
            return
        inside = mat_add(mat_scale(plane.v1, k1), mat_scale(plane.v2, k2))
        for v in (inside, mat_add(inside, Mat2(*x)), Mat2(*x), mat_scale(inside, 3)):
            assert plane.contains(v) == klein_oracle.contains(plane, v)
        assert plane.contains(inside)

    def test_contains_on_coordinate_planes(self):
        # each of the four 3x3 minors of x ^ P is the only nonzero one for
        # some coordinate plane and unit vector
        units = [Mat2.from_coords(*(1 if i == j else 0 for j in range(4))) for i in range(4)]
        for s in range(4):
            for t in range(4):
                if s != t:
                    plane = Plane.from_basis(units[s], units[t])
                    for x in units + [mat_add(units[0], units[3]), mat_sub(units[1], units[2])]:
                        assert plane.contains(x) == klein_oracle.contains(plane, x)

    def test_isotropic_plane_keeps_zero_form(self):
        # q_L = 0 on span(b1, b4): klein_map reports the zero form first
        plane = Plane.from_basis(Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0))
        assert outcome(klein_map, plane) == outcome(klein_oracle.klein_map, plane) == ("err", "zero-form")


@st.composite
def huge_planes(draw):
    """Planes with coefficients up to about 10^40: the summands among
    huge_bases (planes with q_L = 0 or disc(q_L) = 0 among them), and the
    symplectic planes of the pairs

        a1 = [[2kp - 1, 2q], [-2np, 1 - 2kp]],  a2 = [[1, 2p], [2(k^2 p - k - nq), -1]]

    for any integers p, q, k, n, in either orientation (the opposite one
    has a2.m11 = -1, so it is not symplectic)."""
    if draw(st.booleans()):
        plane = outcome(Plane.from_basis, *draw(huge_bases()))[1]
        assume(isinstance(plane, Plane))
        return plane
    p, q, k, n = (draw(st.integers(-9, 9) | st.integers(-10**13, 10**13)) for _ in range(4))
    a1 = Mat2(2 * k * p - 1, 2 * q, -2 * n * p, 1 - 2 * k * p)
    a2 = Mat2(1, 2 * p, 2 * (k * k * p - k - n * q), -1)
    plane = klein_inverse(KleinPair(a1, a2))
    return plane.opposite() if draw(st.booleans()) else plane


class TestComplementsAgainstRoundTrip:
    """The complements and the orientation flip, read off the Plucker
    coordinates, against the Klein-pair round trips of klein_oracle.py,
    error codes included, at coefficients up to 10^40."""

    @PROPERTY
    @given(plane=huge_planes())
    def test_complements_and_opposite(self, plane):
        assert outcome(orth_complement, plane) == outcome(klein_oracle.orth_complement, plane)
        assert outcome(is_symplectic, plane) == outcome(klein_oracle.is_symplectic, plane)
        got = outcome(symplectic_complement, plane)
        assert got == outcome(klein_oracle.symplectic_complement, plane)
        if got[0] == "ok":
            assert symplectic_complement(got[1]) == plane
        assert plane.opposite() == klein_oracle.opposite(plane)
        assert plane.opposite().opposite() == plane
