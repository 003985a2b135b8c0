import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bianchimax.field
import bianchimax.orthogonal
from bianchimax import (
    ExtendedMatrix,
    KElement,
    LiftError,
    OrthoMap,
    atkin_lehner,
    bezout_pair,
    classify_coset,
    dual_basis,
    dual_lattice_index,
    field_params,
    gram_matrix,
    in_discriminant_kernel,
    in_dual_lattice,
    k_square_root,
    preserves_lattice,
    sign_normalize,
    spin_lift,
    spin_map,
    squarefree_divisors,
    squarefree_part,
)
from bianchimax.orthogonal import (
    _anchor_products,
    _det4,
    _first_entry_sign,
    _lift_raw,
)
from bianchimax.sampling import (
    integral_matrices_with_det,
    matrix_from_coords,
    random_ambient_element,
    random_coset_element,
    random_unimodular,
    random_zero_corner_element,
)


# The fixed basis H1..H4 in its own coordinates.
BASIS = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
DIAG_2111 = OrthoMap(1, ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
# Fields with theta trace t = 0 (m = 1, 2 mod 4) and t = 1 (m = 3 mod 4).
NINE_FIELDS = [1, 2, 3, 5, 6, 7, 10, 11, 15]


def k(m, x, y=0):
    return KElement(m, x, y)


def j_matrix(m):
    params = field_params(m)
    return ExtendedMatrix.from_integral(
        1, ((params.integer(0), params.integer(-1)), (params.integer(1), params.integer(0)))
    )


def det4_oracle(a):
    """Determinant by Gaussian elimination over Fractions with row swaps."""
    rows = [[Fraction(x) for x in r] for r in a]
    det = Fraction(1)
    for col in range(4):
        pivot = next((r for r in range(col, 4) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, 4):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def signature(gram):
    """Sylvester signature of a symmetric rational matrix by congruence reduction."""
    mat = [list(row) for row in gram]
    n = len(mat)
    pos = neg = 0
    for i in range(n):
        if mat[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if mat[j][j] != 0), None)
            if swap is None:
                mix = next(
                    (j for j in range(i + 1, n) if mat[i][j] != 0), None
                )
                if mix is None:
                    continue
                for r in range(n):
                    mat[r][i] += mat[r][mix]
                for c in range(n):
                    mat[i][c] += mat[mix][c]
            else:
                mat[i], mat[swap] = mat[swap], mat[i]
                for row in mat:
                    row[i], row[swap] = row[swap], row[i]
        pivot = mat[i][i]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            factor = Fraction(mat[j][i], pivot)
            if factor:
                for c in range(n):
                    mat[j][c] -= factor * mat[i][c]
                for r in range(n):
                    mat[r][j] -= factor * mat[r][i]
    return pos, neg


def hermitian(params, v):
    """The entries (s1, s2, s) of the Hermitian matrix [[s1, s], [conj(s), s2]]
    with fixed-basis coordinates v."""
    return Fraction(v[0]), Fraction(v[1]), params.from_theta_coords(v[2], v[3])


def hermitian_coords(s1, s2, s):
    return (s1, s2) + s.theta_coords()


def q(s1, s2, s):
    """The quadratic form det H = s1*s2 - N(s)."""
    return s1 * s2 - s.norm()


def conjugate_hermitian(mat, h):
    """Oracle: A H conj(A)^tr / f for mat = (1/sqrt(f))A, by KElement products."""
    a, b, c, d = mat.entries
    params = field_params(mat.m)
    s1, s2, s = h
    h11, h12, h21, h22 = params.element(s1, 0), s, s.conjugate(), params.element(s2, 0)
    p11, p12 = a * h11 + b * h21, a * h12 + b * h22
    p21, p22 = c * h11 + d * h21, c * h12 + d * h22
    r11 = p11 * a.conjugate() + p12 * b.conjugate()
    r12 = p11 * c.conjugate() + p12 * d.conjugate()
    r22 = p21 * c.conjugate() + p22 * d.conjugate()
    assert r11.y == 0 and r22.y == 0
    return r11.x / mat.f, r22.x / mat.f, r12 / mat.f


def spin_map_oracle(mat):
    """spin_map recomputed by conjugating each basis matrix."""
    params = field_params(mat.m)
    cols = [hermitian_coords(*conjugate_hermitian(mat, hermitian(params, v))) for v in BASIS]
    return OrthoMap(mat.m, tuple(tuple(cols[j][i] for j in range(4)) for i in range(4)))


def hermitian_entries(h):
    """The four entries (h11, h12, h21, h22) of h = (s1, s2, s) as K-elements."""
    s1, s2, s = h
    return (k(s.m, s1), s, s.conjugate(), k(s.m, s2))


def trace_product(s, h):
    """trace(S*H) for Hermitian S, H as an element of K (must come out rational)."""
    s11, s12, s21, s22 = hermitian_entries(s)
    h11, h12, h21, h22 = hermitian_entries(h)
    total = s11 * h11 + s12 * h21 + s21 * h12 + s22 * h22
    assert total.y == 0
    return total.x


def pairing(params, u, v):
    """The trace pairing 2B(u, v) = q(u + v) - q(u) - q(v), by determinants."""
    w = tuple(a + b for a, b in zip(u, v))
    return q(*hermitian(params, w)) - q(*hermitian(params, u)) - q(*hermitian(params, v))


def sigma_dual_basis(params):
    """Oracle: a Z-basis of the dual lattice from the inverse different.

    The diagonal part is Z H1 + Z H2.  The off-diagonal part is
    (1/sqrt(d_K)) O_K, and sqrt(d_K) = scale*sqrt(-m) with scale**2 = |d_K|/m,
    so it is spanned by sigma and sigma*theta with sigma = sqrt(-m)/(scale*m).
    """
    m = params.m
    scale = isqrt(abs(params.d_K) // m)
    sigma = k(m, 0, Fraction(1, scale * m))
    return (
        BASIS[0],
        BASIS[1],
        hermitian_coords(0, 0, sigma),
        hermitian_coords(0, 0, sigma * params.theta),
    )


def dual_kernel_oracle(phi_map):
    """Oracle: P v - v is integral for every vector v of the dual basis."""
    cols = tuple(zip(*phi_map.rows))
    for v in dual_basis(field_params(phi_map.m)):
        for i in range(4):
            if (sum(x * col[i] for x, col in zip(v, cols)) - v[i]).denominator != 1:
                return False
    return True


def theta_system_oracle(phi_map):
    """The anchor products e*conj(y)/f of _lift_raw for y = a, b, c, d, by
    K-element arithmetic on the columns: each system X + Y = plain,
    theta*X + conj(theta)*Y = twisted is solved by division."""
    params = field_params(phi_map.m)
    theta = params.theta
    theta_bar = theta.conjugate()

    def solve(plain, twisted):
        x = (theta_bar * plain - twisted) / (theta_bar - theta)
        return x, plain - x

    c1, c2, c3, c4 = zip(*phi_map.rows)
    a_bbar, _ = solve(params.element(c3[0], 0), params.element(c4[0], 0))
    a_dbar, b_cbar = solve(params.from_theta_coords(*c3[2:]), params.from_theta_coords(*c4[2:]))
    if c1[0] != 0:
        return (params.element(c1[0], 0), a_bbar, params.from_theta_coords(*c1[2:]), a_dbar)
    return (a_bbar.conjugate(), params.element(c2[0], 0), b_cbar, params.from_theta_coords(*c2[2:]))


def fraction_sqrt_oracle(r):
    """The nonnegative rational square root of r, or None."""
    num, den = isqrt(max(r.numerator, 0)), isqrt(r.denominator)
    if r.numerator < 0 or num * num != r.numerator or den * den != r.denominator:
        return None
    return Fraction(num, den)


def k_square_root_oracle(z):
    """k_square_root by K-element and Fraction arithmetic: s = |z| from the
    norm of z = p + q*sqrt(-m), then f and the real part a of the root from
    (p + s)/2 with b = f*q/(2a), or f and b from -p/m when p + s = 0; the
    root is certified by squaring it."""
    m, p, q = z.m, z.x, z.y
    if z.is_zero():
        return (1, KElement(m, 0, 0))
    s = fraction_sqrt_oracle(p * p + m * q * q)
    if s is None:
        return None

    def squarefree_scaling(r):
        f = squarefree_part(r.numerator * r.denominator)
        return f, fraction_sqrt_oracle(f * r)

    if p + s > 0:
        f, a = squarefree_scaling((p + s) / 2)
        root = KElement(m, a, f * q / (2 * a))
    else:
        f, b = squarefree_scaling(-p / m)
        root = KElement(m, 0, b)
    if root * root != KElement(m, f * p, f * q):
        return None
    return f, root


def lift_raw_oracle(phi_map):
    """_lift_raw by K-element arithmetic: the anchor products p_y of
    theta_system_oracle, the root x/sqrt(f) of p_a*p_d - p_b*p_c by
    k_square_root_oracle, and each entry y = conj(p_y)*f/conj(x), validated
    by the ExtendedMatrix constructor."""
    p_a, p_b, p_c, p_d = products = theta_system_oracle(phi_map)
    try:
        root = k_square_root_oracle(p_a * p_d - p_b * p_c)
    except ValueError as exc:
        raise LiftError("root", f"anchor entry squared: {exc}") from exc
    if root is None:
        raise LiftError("root", "anchor entry squared has no root of the form x/sqrt(f)")
    f, x = root
    if x.is_zero():
        raise LiftError("root", "anchor entry vanished despite a nonzero norm")
    scale = x.conjugate().inverse() * f
    a, b, c, d = (p.conjugate() * scale for p in products)
    try:
        return ExtendedMatrix(f, ((a, b), (c, d)))
    except ValueError as exc:
        raise LiftError("verification", f"recovered matrix is inconsistent: {exc}") from exc


def lift_outcome(lift, phi_map):
    """The matrix lift returns, or the type and LiftError stage of what it raises."""
    try:
        return lift(phi_map)
    except Exception as exc:  # the type is the outcome
        return type(exc), getattr(exc, "stage", None)


def first_entry_sign_oracle(mat):
    """The sign of the first nonzero (x, y) over the K-element entries, row-major."""
    for z in mat.entries:
        if z.x != 0:
            return 1 if z.x > 0 else -1
        if z.y != 0:
            return 1 if z.y > 0 else -1
    return 1


def imaginary_unit(m):
    """(1/sqrt(m)) * diag(sqrt(-m), -sqrt(-m)), which is diag(i, -i): it
    turns real entries into purely imaginary ones."""
    params = field_params(m)
    zero = params.integer(0)
    return ExtendedMatrix(m, ((params.element(0, 1), zero), (zero, params.element(0, -1))))


def random_element(rng, params, kind):
    """A coset, ambient or zero-corner element of the field, drawn from rng."""
    if kind == "coset":
        return random_coset_element(rng, params, rng.choice(squarefree_divisors(params.d_K)))
    if kind == "ambient":
        return random_ambient_element(rng, params)
    return random_zero_corner_element(rng, params, rng.choice((1, 2)))


def diagonal_image(f):
    """diag(f, 1/f, 1, 1) for m = 1, the spin image of (1/sqrt(f))*diag(f, 1)."""
    return OrthoMap(1, ((f, 0, 0, 0), (0, Fraction(1, f), 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def mat_mul_oracle(a, b):
    """The product of two 4x4 matrices over Fractions, entry by entry."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)) for i in range(4)
    )


def inverse_oracle(phi_map):
    """G^-1 P^t G over Fractions: G from the trace pairing of the basis, and
    its inverse by Gauss-Jordan elimination."""
    params = field_params(phi_map.m)
    gram = [[pairing(params, u, v) / 2 for v in BASIS] for u in BASIS]
    aug = [row + [Fraction(int(i == j)) for j in range(4)] for i, row in enumerate(gram)]
    for col in range(4):
        pivot = next(r for r in range(col, 4) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(4):
            factor = aug[r][col]
            if r != col and factor:
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    gram_inverse = [row[4:] for row in aug]
    return mat_mul_oracle(mat_mul_oracle(gram_inverse, tuple(zip(*phi_map.rows))), gram)


def gram_q(m, v):
    """q(v) = v^t G v through the library's Gram matrix."""
    gram = gram_matrix(m)
    return sum(v[i] * gram[i][j] * v[j] for i in range(4) for j in range(4))


def identity_rows_with(value, i=0, j=0):
    return tuple(
        tuple(value if (r, c) == (i, j) else int(r == c) for c in range(4)) for r in range(4)
    )


class TestOnlyExactEntries:
    NOT_EXACT = [0.5, "1/2", True, Decimal("0.5"), None]
    # The two functions that read a coordinate vector from the caller.
    VECTOR_READERS = pytest.mark.parametrize(
        "read",
        [lambda v: OrthoMap.identity(3).apply(v), lambda v: in_dual_lattice(field_params(3), v)],
        ids=["OrthoMap.apply", "in_dual_lattice"],
    )

    @pytest.mark.parametrize("bad", NOT_EXACT, ids=repr)
    @pytest.mark.parametrize(
        "build", [lambda v: OrthoMap(1, identity_rows_with(v))], ids=["OrthoMap.rows"]
    )
    def test_rejected_with_the_value_named(self, build, bad):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            build(bad)

    @pytest.mark.parametrize("bad", NOT_EXACT, ids=repr)
    @pytest.mark.parametrize("i", range(4))
    @VECTOR_READERS
    def test_vector_entry_rejected_with_the_value_named(self, read, i, bad):
        v = tuple(bad if j == i else 0 for j in range(4))
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            read(v)

    @pytest.mark.parametrize("v", [(), (1, 0, 0), (1, 0, 0, 0, 0)], ids=lambda v: f"len{len(v)}")
    @VECTOR_READERS
    def test_vector_of_wrong_length_rejected(self, read, v):
        with pytest.raises(ValueError, match="4 entries"):
            read(v)

    @pytest.mark.parametrize("i", range(4))
    @pytest.mark.parametrize("j", range(4))
    def test_every_orthomap_entry_checked(self, i, j):
        with pytest.raises(TypeError, match="0.5"):
            OrthoMap(2, identity_rows_with(0.5, i, j))

    def test_int_and_fraction_accepted(self):
        assert OrthoMap(1, identity_rows_with(Fraction(1))) == OrthoMap.identity(1)
        image = OrthoMap.identity(1).apply((Fraction(1, 2), 3, 0, 1))
        assert image == (Fraction(1, 2), Fraction(3), 0, 1)
        assert all(type(x) is Fraction for x in image)
        # for m = 1 the off-diagonal dual part is (1/2)Z[i]
        assert in_dual_lattice(field_params(1), (1, Fraction(-2), 0, Fraction(1, 2)))


class TestQuadraticForm:
    def test_q_of_identity_matrix(self):
        e = (1, 1, 0, 0)
        assert q(*hermitian(field_params(1), e)) == gram_q(1, e) == 1

    def test_q_of_offdiag_theta_m1(self):
        h4 = BASIS[3]
        assert q(*hermitian(field_params(1), h4)) == gram_q(1, h4) == -1

    def test_gram_m1_frozen(self):
        half = Fraction(1, 2)
        assert gram_matrix(1) == (
            (0, half, 0, 0),
            (half, 0, 0, 0),
            (0, 0, -1, 0),
            (0, 0, 0, -1),
        )

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 11])
    def test_gram_reproduces_q(self, m):
        params = field_params(m)
        rng = Random(f"gram:{m}")
        for _ in range(20):
            coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)]
            assert gram_q(m, coords) == q(*hermitian(params, coords))

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 11, 15])
    def test_signature_1_3(self, m):
        assert signature(gram_matrix(m)) == (1, 3)


class TestSpinMap:
    def test_identity(self):
        assert spin_map(ExtendedMatrix.identity(1)) == OrthoMap.identity(1)

    def test_minus_identity_in_kernel(self):
        assert spin_map(-ExtendedMatrix.identity(1)) == OrthoMap.identity(1)

    def test_j_frozen_m1(self):
        # J swaps the diagonal basis vectors, negates H3 and fixes H4;
        # fixing H4 (not negating it) is forced by det = +1.
        image = spin_map(j_matrix(1))
        assert image.rows == (
            (0, 1, 0, 0),
            (1, 0, 0, 0),
            (0, 0, -1, 0),
            (0, 0, 0, 1),
        )
        assert image.determinant() == 1

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 10, 11, 15])
    def test_homomorphism_on_random_pairs(self, m):
        params = field_params(m)
        rng = Random(f"hom:{m}")
        for _ in range(60):
            p = random_ambient_element(rng, params)
            q = random_ambient_element(rng, params)
            assert spin_map(p * q) == spin_map(p) * spin_map(q)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 10, 11, 15])
    def test_closed_form_matches_conjugation_oracle(self, m):
        params = field_params(m)
        rng = Random(f"oracle:{m}")
        mats = [random_ambient_element(rng, params) for _ in range(30)]
        assert any(mat.g > 1 for mat in mats)
        mats += [
            random_coset_element(rng, params, d)
            for d in squarefree_divisors(params.d_K)
            for _ in range(3)
        ]
        mats += [random_zero_corner_element(rng, params, f) for f in (1, 2) for _ in range(3)]
        for mat in mats:
            assert spin_map(mat) == spin_map_oracle(mat), mat

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_images_in_special_orthogonal_component(self, m):
        params = field_params(m)
        rng = Random(f"so:{m}")
        for _ in range(30):
            image = spin_map(random_ambient_element(rng, params))
            assert image.is_orthogonal()
            assert image.determinant() == 1
            assert image.maps_positive_cone()

    def test_kernel_on_small_enumeration(self):
        params = field_params(1)
        identity = OrthoMap.identity(1)
        plus = ExtendedMatrix.identity(1)
        hits = 0
        for det, coords in integral_matrices_with_det(params, 1, {1}):
            mat = matrix_from_coords(params, coords, det)
            if spin_map(mat) == identity:
                hits += 1
                assert mat in (plus, -plus)
        assert hits == 2

    def test_kernel_negation_collapse(self):
        params = field_params(5)
        rng = Random("neg")
        for _ in range(10):
            p = random_ambient_element(rng, params)
            assert spin_map(-p) == spin_map(p)


class TestLatticeAutomorphisms:
    def test_identity_preserves(self):
        assert preserves_lattice(OrthoMap.identity(1))

    def test_involution_image_preserves(self):
        assert preserves_lattice(spin_map(atkin_lehner(field_params(1), 2)))

    def test_non_integral_map_rejected(self):
        rows = [list(row) for row in OrthoMap.identity(1).rows]
        rows[2][2] = Fraction(1, 2)
        assert not preserves_lattice(OrthoMap(1, tuple(tuple(r) for r in rows)))

    def test_zero_map_rejected(self):
        zero = tuple((0, 0, 0, 0) for _ in range(4))
        assert not preserves_lattice(OrthoMap(1, zero))

    def test_swap_with_determinant_minus_one_preserves(self):
        swap = OrthoMap(1, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        assert swap.is_orthogonal() and swap.determinant() == -1
        assert preserves_lattice(swap)

    def test_integral_map_with_determinant_two_rejected(self):
        assert not preserves_lattice(DIAG_2111)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_coset_images_preserve_lattice(self, m):
        params = field_params(m)
        rng = Random(f"lattice:{m}")
        for d in squarefree_divisors(params.d_K):
            for _ in range(6):
                image = spin_map(random_coset_element(rng, params, d))
                assert preserves_lattice(image)


def det4(a):
    return OrthoMap(1, a).determinant()


class TestDeterminant:
    """OrthoMap.determinant expands the integer numerators in closed form;
    det4_oracle eliminates over Fractions."""

    def random_rational(self, rng, zero_share=0.0):
        return tuple(
            tuple(
                Fraction(0) if rng.random() < zero_share
                else Fraction(rng.randint(-20, 20), rng.randint(1, 60))
                for _ in range(4)
            )
            for _ in range(4)
        )

    def test_random_rational_matrices(self):
        rng = Random("det4")
        for _ in range(200):
            a = self.random_rational(rng)
            assert det4(a) == det4_oracle(a)

    def test_sparse_matrices_with_zero_pivots(self):
        rng = Random("det4:sparse")
        swaps = singular = 0
        for _ in range(300):
            a = self.random_rational(rng, zero_share=0.6)
            swaps += a[0][0] == 0
            det = det4(a)
            singular += det == 0
            assert det == det4_oracle(a)
        assert swaps > 100 and singular > 50

    def test_zero_leading_pivot_needs_a_row_swap(self):
        a = (
            (0, 2, 1, 3),
            (Fraction(1, 3), 0, 0, 1),
            (0, 0, 5, 0),
            (0, 1, 0, Fraction(-7, 60)),
        )
        assert det4(a) == det4_oracle(a) != 0

    def test_zero_pivot_after_the_first_step(self):
        # the (2,2) entry vanishes only after eliminating the first column
        a = ((1, 2, 0, 0), (1, 2, 1, 0), (0, 1, 0, 0), (0, 0, 0, Fraction(1, 2)))
        assert det4(a) == det4_oracle(a) == Fraction(-1, 2)

    def test_singular(self):
        rng = Random("det4:singular")
        for _ in range(20):
            r0, r1, r2, _ = self.random_rational(rng)
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 60))
            r3 = tuple(x + c * y for x, y in zip(r0, r2))
            assert det4((r0, r1, r2, r3)) == 0 == det4_oracle((r0, r1, r2, r3))


class TestOrthoMapInverse:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_inverse_of_spin_images(self, m):
        params = field_params(m)
        rng = Random(f"orthoinverse:{m}")
        mats = [random_ambient_element(rng, params) for _ in range(6)]
        mats += [random_coset_element(rng, params, d) for d in squarefree_divisors(params.d_K)]
        mats += [random_zero_corner_element(rng, params, f) for f in (1, 2)]
        for mat in mats:
            phi = spin_map(mat)
            inverse = phi.inverse()
            assert phi * inverse == OrthoMap.identity(m)
            assert inverse == spin_map(mat.inverse())

    def test_map_not_preserving_the_form_raises(self):
        with pytest.raises(ValueError, match="quadratic form"):
            DIAG_2111.inverse()


class TestOrthoMapStorage:
    """An OrthoMap is held as (den, num) with num/den its matrix; the Fraction
    oracles above run on the derived rows."""

    def test_storage_of_a_rational_map(self):
        phi = OrthoMap(1, identity_rows_with(Fraction(-3, 4), 1, 2))
        assert (phi.den, phi.num[1]) == (4, (0, 4, -3, 0))
        assert phi.rows == identity_rows_with(Fraction(-3, 4), 1, 2)
        assert not phi.is_integral() and phi.determinant() == 1

    @settings(max_examples=200)
    @given(
        st.sampled_from(NINE_FIELDS),
        st.sampled_from(["coset", "ambient", "zero_corner"]),
        st.sampled_from(["coset", "ambient", "zero_corner"]),
        st.integers(0, 2**32),
    )
    def test_integer_storage_matches_the_fraction_oracle(self, m, kind, other_kind, seed):
        """Spin images, their products and inverses, and a map with one entry
        moved by 1/2: each is canonical and rebuilt equal from its rows, and
        * and inverse agree with Fraction arithmetic on the rows."""
        params = field_params(m)
        rng = Random(seed)
        phi = spin_map(random_element(rng, params, kind))
        psi = spin_map(random_element(rng, params, other_kind))
        rows = [list(row) for row in phi.rows]
        rows[rng.randrange(4)][rng.randrange(4)] += Fraction(1, 2)
        shifted = OrthoMap(m, rows)
        for x, y in ((phi, psi), (psi, phi), (phi, shifted), (shifted, psi)):
            assert (x * y).rows == mat_mul_oracle(x.rows, y.rows)
        maps = [phi, psi, phi * psi, shifted, shifted * phi]
        for x in maps[:3]:
            maps.append(x.inverse())
            assert maps[-1].rows == inverse_oracle(x)
        if shifted.is_orthogonal():
            assert shifted.inverse().rows == inverse_oracle(shifted)
        else:
            with pytest.raises(ValueError, match="quadratic form"):
                shifted.inverse()
        for x in maps:
            rebuilt = OrthoMap(m, x.rows)
            assert rebuilt == x and hash(rebuilt) == hash(x)
            assert x.den >= 1 and gcd(x.den, *(v for row in x.num for v in row)) == 1


class TestDualLattice:
    @pytest.mark.parametrize(
        "m,index",
        [(1, 4), (2, 8), (3, 3), (5, 20), (7, 7), (10, 40), (6, 24), (11, 11), (15, 15)],
    )
    def test_index_equals_discriminant(self, m, index):
        params = field_params(m)
        assert dual_lattice_index(params) == abs(params.d_K) == index

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 10])
    def test_trace_pairing_oracle(self, m):
        # every dual generator pairs integrally with every lattice generator
        params = field_params(m)
        for s in dual_basis(params):
            for h in BASIS:
                assert trace_product(hermitian(params, s), hermitian(params, h)).denominator == 1

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_dual_membership_matches_trace_condition(self, m):
        # brute grid: s1, s2 integers are forced; scan off-diagonal denominators
        params = field_params(m)
        denominator = 2 * m * abs(params.d_K)
        theta_bar = params.theta.conjugate()
        rng = Random(f"dualgrid:{m}")
        for _ in range(120):
            s = params.element(
                Fraction(rng.randint(-12, 12), denominator),
                Fraction(rng.randint(-12, 12), denominator),
            )
            v = hermitian_coords(rng.randint(-2, 2), rng.randint(-2, 2), s)
            by_trace = (
                s.trace().denominator == 1
                and (s * theta_bar).trace().denominator == 1
            )
            assert in_dual_lattice(params, v) == by_trace

    @pytest.mark.parametrize("m", NINE_FIELDS)
    def test_dual_basis_pairs_to_delta(self, m):
        # 2B(dual_i, H_j) = delta_ij: the basis is dual to H1..H4
        params = field_params(m)
        for i, dual in enumerate(dual_basis(params)):
            for j, h in enumerate(BASIS):
                assert pairing(params, dual, h) == (i == j)

    @pytest.mark.parametrize("m", NINE_FIELDS)
    def test_sigma_oracle_spans_the_same_lattice(self, m):
        params = field_params(m)
        duals = dual_basis(params)
        oracle = sigma_dual_basis(params)
        # Column c holds the coordinates of oracle[c] on dual_basis, which are
        # its pairings with H1..H4; the lattices agree when this transition
        # matrix is integral and unimodular.
        transition = tuple(tuple(pairing(params, h, o) for o in oracle) for h in BASIS)
        for c, o in enumerate(oracle):
            combination = tuple(
                sum(transition[j][c] * duals[j][i] for j in range(4)) for i in range(4)
            )
            assert combination == o
        assert all(x.denominator == 1 for row in transition for x in row)
        assert abs(det4_oracle(transition)) == 1

    def test_m1_offdiagonal_denominator(self):
        # for m = 1 the off-diagonal dual part is (1/2)Z[i]
        params = field_params(1)
        offdiag = [hermitian(params, v)[2] for v in dual_basis(params)[2:]]
        assert {abs(s.x) + abs(s.y) for s in offdiag} == {Fraction(1, 2)}

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_lattice_preserving_maps_fix_dual(self, m):
        params = field_params(m)
        rng = Random(f"dualstab:{m}")
        for d in squarefree_divisors(params.d_K):
            image = spin_map(random_coset_element(rng, params, d))
            for g in dual_basis(params):
                assert in_dual_lattice(params, image.apply(g))


class TestDiscriminantKernel:
    def test_identity_in_kernel(self):
        assert in_discriminant_kernel(OrthoMap.identity(1))

    def test_integral_images_in_kernel(self):
        params = field_params(1)
        rng = Random("kernel")
        for _ in range(8):
            assert in_discriminant_kernel(spin_map(random_unimodular(rng, params)))

    def test_involution_image_not_in_kernel(self):
        assert not in_discriminant_kernel(spin_map(atkin_lehner(field_params(1), 2)))

    def test_requires_lattice_preservation(self):
        rows = [list(row) for row in OrthoMap.identity(1).rows]
        rows[2][2] = Fraction(1, 2)
        bad = OrthoMap(1, tuple(tuple(r) for r in rows))
        with pytest.raises(ValueError, match="lattice"):
            in_discriminant_kernel(bad)

    @settings(max_examples=300)
    @given(
        st.sampled_from(NINE_FIELDS),
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4)),
            min_size=1,
            max_size=10,
        ),
    )
    def test_closed_form_matches_dual_oracle_on_unimodular_matrices(self, m, ops):
        """Integral matrices with det +-1 from elementary row operations: an
        operation (i, j, c) adds c times row j to row i, or swaps rows i and
        i + 1 (mod 4) when i == j.  Dropping the swaps and scaling every c by
        |d_K| gives a product congruent to I mod |d_K|, which is in the kernel."""
        disc = abs(field_params(m).d_K)

        def product(scale):
            rows = [list(row) for row in BASIS]
            for i, j, c in ops:
                if i == j:
                    if scale == 1:
                        nxt = (i + 1) % 4
                        rows[i], rows[nxt] = rows[nxt], rows[i]
                else:
                    rows[i] = [x + c * scale * y for x, y in zip(rows[i], rows[j])]
            return tuple(tuple(row) for row in rows)

        for scale in (1, disc):
            rows = product(scale)
            det = _det4([list(row) for row in rows])
            assert det == det4_oracle(rows) and abs(det) == 1
            phi = OrthoMap(m, rows)
            assert preserves_lattice(phi)
            assert in_discriminant_kernel(phi) == dual_kernel_oracle(phi)
        assert in_discriminant_kernel(phi)

    @pytest.mark.parametrize("m", NINE_FIELDS)
    def test_kernel_iff_trivial_coset(self, m):
        # the closed form and the dual-basis oracle agree, and hold exactly for d = 1
        params = field_params(m)
        rng = Random(f"disc:{m}")
        for d in squarefree_divisors(params.d_K):
            for _ in range(8):
                image = spin_map(random_coset_element(rng, params, d))
                assert in_discriminant_kernel(image) == dual_kernel_oracle(image) == (d == 1)


class TestKSquareRoot:
    def test_i_needs_denominator_two(self):
        assert k_square_root(k(1, 0, 1)) == (2, k(1, 1, 1))

    def test_perfect_square(self):
        assert k_square_root(k(7, 4)) == (1, k(7, 2))

    def test_half(self):
        assert k_square_root(k(3, Fraction(1, 2))) == (2, k(3, 1))

    def test_zero(self):
        assert k_square_root(k(2, 0)) == (1, k(2, 0))

    def test_negative_rational(self):
        f, root = k_square_root(k(2, -1))
        assert (f, root) == (2, k(2, 0, 1))

    def test_two_i_is_square_in_k(self):
        assert k_square_root(k(1, 0, 2)) == (1, k(1, 1, 1))

    def test_norm_not_square_gives_none(self):
        assert k_square_root(k(1, 1, 1)) is None

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_round_trip_on_random_squares(self, m):
        rng = Random(f"roots:{m}")
        for _ in range(40):
            x = KElement(
                m,
                Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
                Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
            )
            f = rng.choice([1, 2, 3, 5, 6, 7, 10])
            z = (x * x) / f
            found = k_square_root(z)
            assert found is not None
            got_f, got_x = found
            assert (got_x * got_x) == z * got_f
            # uniqueness of the squarefree denominator
            if not x.is_zero():
                assert got_f == 1 or got_f > 1

    @pytest.mark.parametrize("m", NINE_FIELDS)
    def test_root_of_a_square_is_the_root_up_to_sign(self, m):
        # (f, w) for w/sqrt(f) is unique up to the sign of w, which the
        # convention fixes: real part > 0, or real part 0 and imaginary part > 0
        rng = Random(f"kroot:{m}")
        imaginary = 0
        for i in range(40):
            x = 0 if i % 4 == 0 else Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            w = k(m, x, Fraction(rng.randint(-8, 8), rng.randint(1, 3)))
            if w.is_zero():
                continue
            imaginary += w.x == 0
            f = rng.choice([1, 2, 3, 5, 6, 7, 10, 11, 15])
            expected = w if (w.x, w.y) > (0, 0) else -w
            assert k_square_root(w * w / f) == (f, expected), (w, f)
        assert imaginary > 0

    def test_minimality_of_f(self):
        # 2i/3 requires exactly f = 3 (not 12 or 1)
        found = k_square_root(k(1, 0, Fraction(2, 3)))
        assert found is not None
        assert found[0] == 3

    @settings(max_examples=400)
    @given(
        st.sampled_from(NINE_FIELDS),
        st.sampled_from(["square", "imaginary", "any", "zero", "beyond_limit"]),
        st.integers(-40, 40),
        st.integers(-40, 40),
        st.integers(1, 12),
        st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 15, 30, 105]),
    )
    def test_integer_root_matches_the_k_element_oracle(self, m, kind, x, y, den, f):
        """w*w/f for w = (x + y*sqrt(-m))/den, the same with x = 0 (a purely
        imaginary root), any z (mostly no root), zero, and w*w/f times a prime
        beyond prime_factors' reach: the same (f, root), the same None or the
        same ValueError text as k_square_root_oracle.  For that last kind the
        trial-division limit is cut from 2**22 to 2**10, so that the prime
        2**31 - 1 is out of reach after microseconds instead of half a second."""
        w = k(m, Fraction(0 if kind == "imaginary" else x, den), Fraction(y, den))
        z = {
            "square": w * w / f,
            "imaginary": w * w / f,
            "any": w,
            "zero": k(m, 0),
            "beyond_limit": w * w * f * (2**31 - 1) if x or y else k(m, 2**31 - 1),
        }[kind]
        limit = 2**10 if kind == "beyond_limit" else bianchimax.field._TRIAL_DIVISION_LIMIT
        outcomes = []
        with patch.object(bianchimax.field, "_TRIAL_DIVISION_LIMIT", limit):
            for root in (k_square_root, k_square_root_oracle):
                try:
                    outcomes.append(root(z))
                except ValueError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if kind in ("square", "imaginary") and not w.is_zero():
            assert outcomes[0] == (f, w if (w.x, w.y) > (0, 0) else -w)
        if kind == "beyond_limit":
            assert outcomes[0].startswith("cannot factor")


class TestTwistedRoute:
    """J = [[0, -1], [1, 0]] swaps the first row's entries: A*J has upper-left
    entry b.  So the lift anchored on a of phi*spin_map(J) must agree with the
    lift anchored on b of phi, and J's action on the image columns has the
    closed form H1, H2, H3, H4 -> H2, H1, -H3, H4 - t*H3."""

    @pytest.mark.parametrize("m", NINE_FIELDS)
    def test_closed_form_columns_match_the_product(self, m):
        params = field_params(m)
        t = params.theta_trace
        rng = Random(f"twisted:{m}")
        j = j_matrix(m)
        j_image = spin_map(j)
        mats = [random_ambient_element(rng, params) for _ in range(6)]
        mats += [random_zero_corner_element(rng, params, f) for f in (1, 2) for _ in range(3)]
        for mat in mats:
            phi = spin_map(mat)
            c1, c2, c3, c4 = zip(*phi.rows)
            twisted = (c2, c1, tuple(-x for x in c3), tuple(x - t * y for x, y in zip(c4, c3)))
            assert twisted == tuple(zip(*(phi * j_image).rows))
            assert spin_lift(phi * j_image) == sign_normalize(spin_lift(phi) * j)


class TestSpinLift:
    def test_identity(self):
        assert spin_lift(OrthoMap.identity(1)) == ExtendedMatrix.identity(1)

    def test_involution_round_trip(self):
        v = atkin_lehner(field_params(1), 2)
        assert spin_lift(spin_map(v)) == sign_normalize(v)

    def test_sign_determinism(self):
        params = field_params(1)
        rng = Random("sign")
        for _ in range(10):
            mat = random_ambient_element(rng, params)
            assert spin_lift(spin_map(mat)) == spin_lift(spin_map(-mat))

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_round_trip_random(self, m):
        params = field_params(m)
        rng = Random(f"lift:{m}")
        for _ in range(25):
            mat = random_ambient_element(rng, params)
            assert spin_lift(spin_map(mat)) == sign_normalize(mat)

    @pytest.mark.parametrize("m", NINE_FIELDS)
    def test_round_trip_zero_corner(self, m):
        params = field_params(m)
        rng = Random(f"liftzero:{m}")
        for f in (1, 2):
            for _ in range(5):
                mat = random_zero_corner_element(rng, params, f)
                assert mat.entries[0].is_zero()
                assert spin_lift(spin_map(mat)) == sign_normalize(mat)

    def test_gamma_hat_element_with_inert_denominator(self):
        # (1/sqrt(5)) [[5, 1+2i], [1-2i, 2]] lies outside the maximal discrete
        # extension (5 does not divide d_K = -4) yet lifts exactly
        params = field_params(1)
        mat = ExtendedMatrix.from_integral(
            5, ((k(1, 5), k(1, 1, 2)), (k(1, 1, -2), k(1, 2)))
        )
        assert spin_lift(spin_map(mat)) == sign_normalize(mat)

    def test_rejects_wrong_determinant(self):
        # diag(1,1,1,-1) is orthogonal for m=1 but has det -1
        rows = [list(row) for row in OrthoMap.identity(1).rows]
        rows[3][3] = Fraction(-1)
        bad = OrthoMap(1, tuple(tuple(r) for r in rows))
        with pytest.raises(LiftError) as err:
            spin_lift(bad)
        assert err.value.stage == "determinant"

    def test_rejects_non_orthogonal(self):
        rows = [list(row) for row in OrthoMap.identity(1).rows]
        rows[0][1] = Fraction(1)
        bad = OrthoMap(1, tuple(tuple(r) for r in rows))
        with pytest.raises(LiftError) as err:
            spin_lift(bad)
        assert err.value.stage == "orthogonality"

    def test_rejects_wrong_component(self):
        # the antipodal map is orthogonal with det +1 in dimension 4 but
        # exchanges the two cones
        rows = tuple(
            tuple(-x for x in row) for row in OrthoMap.identity(1).rows
        )
        bad = OrthoMap(1, rows)
        with pytest.raises(LiftError) as err:
            spin_lift(bad)
        assert err.value.stage == "component"

    def test_rejects_rational_rotation_off_the_form(self):
        # a rational rotation of the off-diagonal coordinates (a, b) does not
        # preserve -a**2 - 2*b**2 for m = 2: c**2 + 2*s**2 = 41/25
        c, s = Fraction(3, 5), Fraction(4, 5)
        rows = (
            (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), c, -s),
            (Fraction(0), Fraction(0), s, c),
        )
        bad = OrthoMap(2, rows)
        with pytest.raises(LiftError) as err:
            spin_lift(bad)
        assert err.value.stage == "orthogonality"

    @settings(max_examples=300)
    @given(
        st.sampled_from(NINE_FIELDS),
        st.sampled_from(["coset", "ambient", "zero_corner"]),
        st.booleans(),
        st.integers(0, 2**32),
    )
    def test_integer_route_matches_the_k_element_oracles(self, m, kind, imaginary, seed):
        """Coset, ambient and zero-corner elements, optionally times diag(i, -i)
        so that a zero upper-left entry is followed by a purely imaginary one."""
        params = field_params(m)
        rng = Random(seed)
        mat = random_element(rng, params, kind)
        if imaginary:
            mat = imaginary_unit(m) * mat
        phi = spin_map(mat)
        q, pairs = _anchor_products(phi)
        products = tuple(params.from_theta_coords(Fraction(a, q), Fraction(b, q)) for a, b in pairs)
        assert products == theta_system_oracle(phi)
        for signed in (mat, -mat):
            assert _first_entry_sign(signed) == first_entry_sign_oracle(signed)
        assert spin_lift(phi) == sign_normalize(mat)

    @settings(max_examples=300)
    @given(
        st.sampled_from(NINE_FIELDS),
        st.sampled_from(["coset", "ambient", "zero_corner"]),
        st.booleans(),
        st.sampled_from([None, "shift", "double", "negate"]),
        st.integers(0, 2**32),
    )
    def test_integer_recovery_matches_the_k_element_oracle(
        self, m, kind, imaginary, perturb, seed
    ):
        """_lift_raw against lift_raw_oracle on spin images, optionally twisted
        by diag(i, -i), and on maps perturbed off the image: one entry moved
        by 1/2 (often no root), the map times 2 or times -I (same lift up to
        sign).  Both must give the same matrix or fail the same way."""
        params = field_params(m)
        rng = Random(seed)
        mat = random_element(rng, params, kind)
        if imaginary:
            mat = imaginary_unit(m) * mat
        rows = [list(row) for row in spin_map(mat).rows]
        if perturb == "shift":
            rows[rng.randrange(4)][rng.randrange(4)] += Fraction(1, 2)
        elif perturb is not None:
            factor = 2 if perturb == "double" else -1
            rows = [[factor * x for x in row] for row in rows]
        phi = OrthoMap(m, rows)
        got = lift_outcome(_lift_raw, phi)
        assert got == lift_outcome(lift_raw_oracle, phi)
        if perturb != "shift":
            assert sign_normalize(got) == sign_normalize(mat)

    def test_root_stage_on_a_map_that_fails_the_gates(self):
        # the m = 2 rotation of test_rejects_rational_rotation_off_the_form:
        # called directly, _lift_raw finds no root for its anchor square
        c, s = Fraction(3, 5), Fraction(4, 5)
        bad = OrthoMap(2, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, c, -s), (0, 0, s, c)))
        assert not bad.is_orthogonal()
        for lift in (_lift_raw, lift_raw_oracle):
            with pytest.raises(LiftError) as err:
                lift(bad)
            assert err.value.stage == "root"

    def test_f_above_the_cap_fails_at_verification(self):
        # diag(f, 1/f, 1, 1) is the image of (1/sqrt(f))*diag(f, 1) and passes
        # all three gates; f = 2**66 + 1 = 5*13*397*2113*312709*4327489 is
        # squarefree but above the cap, so only the recovered matrix fails
        f = 2**66 + 1
        phi = OrthoMap(1, ((f, 0, 0, 0), (0, Fraction(1, f), 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        assert phi.is_orthogonal() and phi.determinant() == 1 and phi.maps_positive_cone()
        for lift in (spin_lift, _lift_raw, lift_raw_oracle):
            with pytest.raises(LiftError, match=r"below 2\*\*66") as err:
                lift(phi)
            assert type(err.value) is LiftError and err.value.stage == "verification"

    def test_prime_beyond_the_factoring_limit_fails_at_root(self):
        # diag(p, 1/p, 1, 1) passes all three gates, but its anchor square has
        # the factor p = (2**31 - 1)*(2**61 - 1): two primes past trial
        # division, whose product is not a square and not below 2**66
        phi = diagonal_image((2**31 - 1) * (2**61 - 1))
        assert phi.is_orthogonal() and phi.determinant() == 1 and phi.maps_positive_cone()
        for lift in (spin_lift, _lift_raw, lift_raw_oracle):
            with pytest.raises(LiftError, match="cannot factor") as err:
                lift(phi)
            assert type(err.value) is LiftError and err.value.stage == "root"

    def test_a_prime_past_trial_division_below_2_pow_66_lifts(self):
        # the cofactor 2**61 - 1 left by trial division is below 2**66 and not
        # a square, so it is squarefree, and f = 2**61 - 1
        f = 2**61 - 1
        for lift in (spin_lift, _lift_raw):
            lifted = lift(diagonal_image(f))
            assert (lifted.f, lifted.g, lifted.coords) == (f, 1, (f, 0, 0, 0, 0, 0, 1, 0))

    @settings(max_examples=8)
    @given(
        st.sampled_from(NINE_FIELDS),
        st.sampled_from(["unimodular", "coset"]),
        st.sampled_from([4194319, 2**31 - 1, 2**61 - 1, 2**89 - 1]),
        st.sampled_from([1, 4194319, 2**31 - 1]),
        st.integers(0, 15),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    def test_members_with_large_prime_factors_lift(self, m, kind, p, q, index, z0, z1):
        """spin_lift(spin_map(A)) is +-A for members whose anchor entry has
        prime factors above 2**22: [[a, 1], [a*z - 1, z]] in SL2(O_K) with
        a = p*q, and V_d from the Bezout pair whose u is a multiple of p, so
        that trial division leaves a square cofactor of the anchor square."""
        params = field_params(m)
        divisors = squarefree_divisors(params.d_K)
        d = divisors[index % len(divisors)]
        if kind == "unimodular":
            z = params.from_theta_coords(z0, z1)
            a = params.integer(p * q)
            mat = ExtendedMatrix.from_integral(1, ((a, params.integer(1)), (a * z - 1, z)))
        else:
            u, n = bezout_pair(params, d)[0], params.norm_omega // d
            mat = atkin_lehner(params, d, -u * pow(n, -1, p) % p)
            assert mat.coords[0] % p == 0
        assert spin_lift(spin_map(mat)) == sign_normalize(mat)

    def test_the_lift_factors_f_once(self, monkeypatch):
        # k_square_root finds f as a squarefree part, so the lift does not
        # factor it again to check that it is squarefree
        f = 4194301 * 8796093022151
        factored = []
        trial_division = bianchimax.field._trial_division
        monkeypatch.setattr(
            bianchimax.field,
            "_trial_division",
            lambda n: factored.append(n) or trial_division(n),
        )
        lifted = spin_lift(diagonal_image(f))
        assert (lifted.f, lifted.g, lifted.coords) == (f, 1, (f, 0, 0, 0, 0, 0, 1, 0))
        assert factored == [f]

    @pytest.mark.parametrize("m", NINE_FIELDS)
    def test_lift_after_the_gates_runs_on_integers(self, m, monkeypatch):
        # with no K-element and no Fraction to be had, _lift_raw still lifts
        # coset, ambient and zero-corner images, also twisted by diag(i, -i)
        params = field_params(m)
        rng = Random(f"intlift:{m}")
        mats = [random_element(rng, params, kind) for kind in ("coset", "ambient", "zero_corner")]
        mats += [imaginary_unit(m) * mat for mat in mats]
        phis = [spin_map(mat) for mat in mats]

        def forbidden(*args):
            raise AssertionError("the lift built a KElement or a Fraction")

        monkeypatch.setattr(KElement, "_new", forbidden)
        monkeypatch.setattr(bianchimax.orthogonal, "Fraction", forbidden)
        lifted = [_lift_raw(phi) for phi in phis]
        monkeypatch.undo()
        assert [sign_normalize(x) for x in lifted] == [sign_normalize(x) for x in mats]

    @pytest.mark.parametrize("m", [1, 5])
    def test_lift_of_image_products_classifies(self, m):
        params = field_params(m)
        rng = Random(f"prodlift:{m}")
        for d in squarefree_divisors(params.d_K):
            product = spin_map(random_coset_element(rng, params, d)) * spin_map(
                random_unimodular(rng, params)
            )
            assert classify_coset(spin_lift(product)) == d
