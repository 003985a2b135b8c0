"""The Hermitian quadratic space of signature (1,3) and the spin homomorphism.

Hermitian 2x2 matrices H = [[s1, s], [conj(s), s2]] with the determinant as
quadratic form carry a fixed Z-basis

    H1 = diag(1, 0),  H2 = diag(0, 1),  H3 = offdiag(1),  H4 = offdiag(theta),

whose Z-span is the lattice of integral Hermitian matrices.  Every Hermitian
matrix in this module is its coordinate 4-vector (s1, s2, a, b) on that
basis, where s = a + b*theta, and a map of the space is the 4x4 matrix that
acts on those coordinates; q(v) = v^t G v with G the Gram matrix.  Conjugation
H -> M H conj(M)^tr by a unit-determinant matrix M = (1/sqrt(f))*A acts on
this basis through exact rational 4x4 matrices (the sqrt(f) cancels); the
map is the 2-to-1 spin homomorphism onto the identity component of the
orthogonal group, with kernel {+-E}.  This module computes that action, the
lattice and dual-lattice automorphism tests, the discriminant kernel test
and the exact inverse (lift) of the homomorphism.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Any, Sequence

from .field import (
    FieldParams,
    KElement,
    _cancel,
    _Frozen,
    _least_denominator,
    _require_exact,
    _same_field,
    basis_conjugate,
    basis_from_sqrt,
    basis_norm,
    basis_to_scaled_sqrt,
    basis_trace,
    field_params,
    perfect_square_root,
    squarefree_part,
    theta_product,
)
from .matrices import ExtendedMatrix, _check_det

Vec4 = tuple[Fraction, Fraction, Fraction, Fraction]
Mat4 = tuple[Vec4, Vec4, Vec4, Vec4]
_IntMat4 = tuple[tuple[int, ...], ...]


def _require_vec4(v: Vec4) -> None:
    if len(v) != 4:
        raise ValueError(f"Hermitian coordinate vectors have 4 entries, got {len(v)}")
    _require_exact(*v)


class LiftError(ValueError):
    """Lift failure with the stage that rejected the input."""

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(message)
        self.stage = stage


@lru_cache(maxsize=None)
def _twice_gram(m: int) -> tuple[_IntMat4, _IntMat4]:
    """(T, U) = (2G, |d_K|*(2G)^-1), the quadratic form as two integer matrices.

    2G is block diagonal, [[0, 1], [1, 0]] beside B = [[-2, -t], [-t, -2n]],
    and det B = 4n - t**2 = |d_K|.  So U is |d_K|*[[0, 1], [1, 0]] beside the
    adjugate [[-2n, t], [t, -2]] of B, and T*U = |d_K|*I.
    """
    params = field_params(m)
    t, n, disc = params.theta_trace, params.theta_norm, abs(params.d_K)
    twice_gram = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -2, -t), (0, 0, -t, -2 * n))
    scaled_inverse = ((0, disc, 0, 0), (disc, 0, 0, 0), (0, 0, -2 * n, t), (0, 0, t, -2))
    return twice_gram, scaled_inverse


@lru_cache(maxsize=None)
def gram_matrix(m: int) -> Mat4:
    """Polar form of q on the fixed basis; q(v) = v^t G v exactly."""
    gram = tuple(tuple(Fraction(x, 2) for x in row) for row in _twice_gram(m)[0])
    return gram  # type: ignore[return-value]


def _mat_mul(a: Sequence[Sequence[Any]], b: Sequence[Sequence[Any]]) -> Any:
    """The product of two 4x4 matrices, of ints or of Fractions."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)) for i in range(4)
    )


def _transpose(a: Sequence[Sequence[Any]]) -> Any:
    return tuple(tuple(a[j][i] for j in range(4)) for i in range(4))


def _rows4(flat: tuple[int, ...]) -> _IntMat4:
    """The 4x4 matrix with the given 16 entries, row-major."""
    return tuple(flat[i : i + 4] for i in range(0, 16, 4))


def _det4(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a 4x4 matrix by Laplace expansion along rows 1-2: the
    six 2x2 minors of rows 1-2 times their complementary minors in rows 3-4."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = matrix
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


class OrthoMap(_Frozen):
    """Exact rational 4x4 matrix P acting on fixed-basis coordinates.

    P is held as num/den: `den` >= 1 is the least common denominator of its
    entries and `num` the integer rows of den*P, so gcd(den, *num) == 1.  The
    pair is as unique as P, so equality and hashing compare integers, and
    products, inverses and the lattice tests run on Python ints.  The
    Fraction entries are the derived view `rows`.
    """

    __slots__ = ("m", "den", "num")

    def __new__(cls, m: int, rows: Mat4) -> OrthoMap:
        field_params(m)  # validates m
        frozen = tuple(tuple(row) for row in rows)
        if len(frozen) != 4 or any(len(r) != 4 for r in frozen):
            raise ValueError("OrthoMap requires a 4x4 matrix")
        entries = tuple(x for row in frozen for x in row)
        _require_exact(*entries)
        den, num = _least_denominator(entries)
        return cls._new(m, den, _rows4(num))

    @classmethod
    def _reduced(cls, m: int, den: int, num: _IntMat4) -> "OrthoMap":
        """The map num/den for den >= 1, after cancelling common factors of den and num."""
        den, flat = _cancel(den, tuple(x for row in num for x in row))
        return cls._new(m, den, _rows4(flat))

    @classmethod
    def identity(cls, m: int) -> "OrthoMap":
        field_params(m)  # validates m
        return cls._reduced(m, 1, tuple(tuple(int(i == j) for j in range(4)) for i in range(4)))

    @property
    def rows(self) -> Mat4:
        rows = tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)
        return rows  # type: ignore[return-value]

    def __repr__(self) -> str:
        return f"OrthoMap(m={self.m}, rows={self.rows})"

    def __mul__(self, other: object) -> "OrthoMap":
        if not isinstance(other, OrthoMap):
            return NotImplemented
        _same_field(self.m, other.m)
        return OrthoMap._reduced(self.m, self.den * other.den, _mat_mul(self.num, other.num))

    def inverse(self) -> "OrthoMap":
        """G^-1 P^t G, the inverse of a map that preserves the form.

        With P = num/den and (T, U) from _twice_gram, G^-1 P^t G =
        (2G)^-1 P^t (2G) = U num^t T / (den*|d_K|).
        """
        if not self.is_orthogonal():
            raise ValueError("inverse requires a map that preserves the quadratic form")
        twice_gram, scaled_inverse = _twice_gram(self.m)
        num = _mat_mul(_mat_mul(scaled_inverse, _transpose(self.num)), twice_gram)
        return OrthoMap._reduced(self.m, self.den * abs(field_params(self.m).d_K), num)

    def apply(self, v: Vec4) -> Vec4:
        """The coordinates of the image of the Hermitian matrix with coordinates v."""
        _require_vec4(v)
        image = tuple(Fraction(sum(x * y for x, y in zip(row, v)), self.den) for row in self.num)
        return image  # type: ignore[return-value]

    def determinant(self) -> Fraction:
        """det P = det(num) / den**4."""
        return Fraction(_det4(self.num), self.den**4)

    def is_orthogonal(self) -> bool:
        g, rows = gram_matrix(self.m), self.rows
        return _mat_mul(_mat_mul(_transpose(rows), g), rows) == g

    def maps_positive_cone(self) -> bool:
        """Identity-component test: the image c1 + c2 of E = H1 + H2 has positive trace."""
        (s1_h1, s1_h2, _, _), (s2_h1, s2_h2, _, _) = self.num[:2]
        return s1_h1 + s1_h2 + s2_h1 + s2_h2 > 0

    def is_integral(self) -> bool:
        return self.den == 1


def spin_map(mat: ExtendedMatrix) -> OrthoMap:
    """The orthogonal action H -> M H conj(M)^tr of M on the fixed basis.

    For M = (1/sqrt(f))*A the sqrt(f) cancels.  Writing A = [[alpha, beta],
    [gamma, delta]] and a Hermitian matrix as (s1, s2, s), f times the images
    of the basis are

        H1 -> (N alpha, N gamma, alpha*conj(gamma)),
        H2 -> (N beta, N delta, beta*conj(delta)),
        H3 -> (Tr alpha*conj(beta), Tr gamma*conj(delta),
               beta*conj(gamma) + alpha*conj(delta)),
        H4 -> (Tr theta*alpha*conj(beta), Tr theta*gamma*conj(delta),
               conj(theta)*beta*conj(gamma) + theta*alpha*conj(delta)).

    These are quadratic in A, so they are evaluated on the integer
    coordinates of g*A and the map is their matrix over f*g**2.  Columns of
    the result are the coordinates of the images of H1..H4.
    """
    params = field_params(mat.m)
    t, n = params.theta_trace, params.theta_norm
    a0, a1, b0, b1, c0, c1, d0, d1 = mat.coords
    bbar, cbar, dbar = (basis_conjugate(t, *y) for y in ((b0, b1), (c0, c1), (d0, d1)))
    a_cbar = theta_product(t, n, a0, a1, *cbar)
    b_dbar = theta_product(t, n, b0, b1, *dbar)
    a_bbar = theta_product(t, n, a0, a1, *bbar)
    c_dbar = theta_product(t, n, c0, c1, *dbar)
    b_cbar = theta_product(t, n, b0, b1, *cbar)
    a_dbar = theta_product(t, n, a0, a1, *dbar)
    theta_a_bbar = theta_product(t, n, 0, 1, *a_bbar)
    theta_c_dbar = theta_product(t, n, 0, 1, *c_dbar)
    theta_a_dbar = theta_product(t, n, 0, 1, *a_dbar)
    thetabar_b_cbar = theta_product(t, n, *basis_conjugate(t, 0, 1), *b_cbar)
    h3 = b_cbar[0] + a_dbar[0], b_cbar[1] + a_dbar[1]
    h4 = thetabar_b_cbar[0] + theta_a_dbar[0], thetabar_b_cbar[1] + theta_a_dbar[1]
    cols = (
        (basis_norm(t, n, a0, a1), basis_norm(t, n, c0, c1)) + a_cbar,
        (basis_norm(t, n, b0, b1), basis_norm(t, n, d0, d1)) + b_dbar,
        (basis_trace(t, *a_bbar), basis_trace(t, *c_dbar)) + h3,
        (basis_trace(t, *theta_a_bbar), basis_trace(t, *theta_c_dbar)) + h4,
    )
    return OrthoMap._reduced(mat.m, mat.f * mat.g * mat.g, tuple(zip(*cols)))


def preserves_lattice(phi_map: OrthoMap) -> bool:
    """Whether the map and its inverse both keep integral coordinates integral.

    An integral matrix has an integral inverse exactly when its determinant
    is a unit, so this is: integral with determinant +-1.
    """
    return phi_map.den == 1 and abs(_det4(phi_map.num)) == 1


def dual_basis(params: FieldParams) -> Mat4:
    """The Z-basis of the dual lattice dual to H1..H4, as coordinates.

    A vector v is in the dual lattice under the trace pairing 2B(u, v) =
    2 u^t G v when 2G v is integral, so the dual lattice is (2G)^-1 Z^4 and
    the columns of (2G)^-1 = U/|d_K| are the basis dual to H1..H4.  U is
    symmetric, so its rows are its columns.
    """
    disc = abs(params.d_K)
    basis = tuple(tuple(Fraction(x, disc) for x in row) for row in _twice_gram(params.m)[1])
    return basis  # type: ignore[return-value]


def in_dual_lattice(params: FieldParams, v: Vec4) -> bool:
    """Membership in the dual lattice: 2G v is integral."""
    _require_vec4(v)
    return all(
        sum(x * y for x, y in zip(row, v)).denominator == 1 for row in _twice_gram(params.m)[0]
    )


def dual_lattice_index(params: FieldParams) -> int:
    """Index of the integral Hermitian lattice in its dual: |det 2G| = |d_K|."""
    return abs(_det4(_twice_gram(params.m)[0]))


def in_discriminant_kernel(phi_map: OrthoMap) -> bool:
    """Whether a lattice automorphism acts as the identity on dual/lattice.

    Raises ValueError unless the map preserves the lattice.  P acts trivially
    on dual/lattice when (P - I)(2G)^-1 = (P - I)U/|d_K| is integral, with U
    from _twice_gram.  P is integral and the first block of U is |d_K| times
    a unimodular one, so only the columns through its second block matter:
    with u and w the third and fourth entries of row i of P - I, the test is
    that (u, w) times that block is divisible by |d_K| for every row i.
    """
    if not preserves_lattice(phi_map):
        raise ValueError("discriminant kernel test requires a lattice-preserving map")
    (_, disc, _, _), _, (_, _, b11, b12), (_, _, b21, b22) = _twice_gram(phi_map.m)[1]
    for i, row in enumerate(phi_map.num):
        u = row[2] - (i == 2)
        w = row[3] - (i == 3)
        if (u * b11 + w * b21) % disc or (u * b12 + w * b22) % disc:
            return False
    return True


def _square_root_coords(
    params: FieldParams, z0: int, z1: int, den: int
) -> tuple[int, int, int, int] | None:
    """k_square_root on integers: z = (z0 + z1*theta)/den for den >= 1.

    Returns (f, x0, x1, xd) for the root x/sqrt(f) with x = (x0 + x1*theta)/xd,
    or None.  In sqrt(-m) coordinates z = (P + R*sqrt(-m))/D with D = (1 + t)*den,
    so |z| = S/D for S = isqrt(P**2 + m*R**2), which must be exact.  When
    P + S > 0, f is the squarefree part of the reduced (P + S)/(2D) = u/v, and
    x = ((P + S) + R*sqrt(-m))/xd with xd = gcd(P + S, 2D)*sqrt(u*v/f).
    Otherwise R = 0 and P < 0, and f is the squarefree part of the reduced
    -P/(m*D), with x = -P*sqrt(-m)/xd the same way.  The root is certified
    by squaring it: (x0 + x1*theta)**2 * den == f*(z0 + z1*theta)*xd**2.
    """
    if z0 == 0 and z1 == 0:
        return 1, 0, 0, 1
    m, t, n = params.m, params.theta_trace, params.theta_norm
    (p, r), d = basis_to_scaled_sqrt(t, z0, z1), (1 + t) * den
    s = perfect_square_root(p * p + m * r * r)
    if s is None:
        return None
    if p + s > 0:
        re, im, scale = p + s, r, 2 * d
    else:
        re, im, scale = 0, -p, m * d
    top = re or im  # P + S, or -P when P + S = 0
    g = gcd(top, scale)
    uv = (top // g) * (scale // g)
    f = squarefree_part(uv)
    xd = g * isqrt(uv // f)
    x0, x1 = basis_from_sqrt(t, re, im)
    sq0, sq1 = theta_product(t, n, x0, x1, x0, x1)
    if (sq0 * den, sq1 * den) != (f * z0 * xd * xd, f * z1 * xd * xd):
        return None
    return f, x0, x1, xd


def k_square_root(z: KElement) -> tuple[int, KElement] | None:
    """Solve (x / sqrt(f))**2 = z exactly, f squarefree positive and minimal.

    Writing z = p + q*sqrt(-m) and x = a + b*sqrt(-m), the equations are
    a**2 - m*b**2 = f*p and 2ab = f*q, so N(z) = p**2 + m*q**2 must be the
    square of a rational s = |z|, and a**2 = f*(p + s)/2.  When p + s > 0
    that pins f down as the squarefree part of (p + s)/2, and b = f*q/(2a).
    Otherwise q = 0 and p < 0, the root is purely imaginary and b**2 =
    f*(-p/m) pins f down the same way.  The pair (f, x) representing a fixed
    complex number is unique, so this f is the only candidate; the root
    returned has a > 0, or a = 0 and b > 0, and is certified by squaring it.
    All of this runs on Python ints, in _square_root_coords, on the integer
    theta-coordinates of z over their least common denominator; K-elements
    are built only for z and the root.
    """
    den, (z0, z1) = _least_denominator((z.a, z.b))
    root = _square_root_coords(field_params(z.m), z0, z1, den)
    if root is None:
        return None
    f, x0, x1, xd = root
    return f, KElement._raw(z.m, Fraction(x0, xd), Fraction(x1, xd))


def _first_entry_sign(mat: ExtendedMatrix) -> int:
    """The sign of the first nonzero rational coordinate pair (x, y), row-major.

    An entry (a + b*theta)/g has (x, y) = basis_to_scaled_sqrt(t, a, b)/((1 + t)*g),
    so, since g > 0, the signs are read off those integer coordinates.
    """
    t, c = field_params(mat.m).theta_trace, mat.coords
    v = next((v for i in range(0, 8, 2) for v in basis_to_scaled_sqrt(t, c[i], c[i + 1]) if v), 1)
    return 1 if v > 0 else -1


def sign_normalize(mat: ExtendedMatrix) -> ExtendedMatrix:
    """Pick the representative of {M, -M} whose first nonzero entry is positive.

    Positivity of an entry means lexicographic positivity of its rational
    coordinate pair (x, y); scanning is row-major.  The signs are read off
    the integer coordinates of g*A, with no K-element built.
    """
    return mat if _first_entry_sign(mat) > 0 else -mat


def _anchor_products(phi_map: OrthoMap) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(q, pairs): q*e*conj(y)/f in theta-coordinates, for y = a, b, c, d in turn.

    The anchor e and the products are those of _lift_raw.  D = phi_map.den, so
    the columns of P = D*phi_map are those of phi_map.num, integral.  The
    products a*conj(b)/f and a*conj(d)/f are the X of a system X + Y = p/D,
    theta*X + conj(theta)*Y = w/D read off the columns, whose Y is
    conj(a)*b/f and b*conj(c)/f.  Since (conj(theta) - theta)**2 = t**2 - 4n
    = d_K, its solution is X = (conj(theta)*p - w)*(conj(theta) - theta) /
    (D*d_K), with conj(theta) = (t, -1) and conj(theta) - theta = (t, -2) in
    theta-coordinates.  So every product has the denominator q = D*d_K.
    """
    params = field_params(phi_map.m)
    t, n, d_K = params.theta_trace, params.theta_norm, params.d_K
    thetabar = basis_conjugate(t, 0, 1)
    c1, c2, c3, c4 = zip(*phi_map.num)

    def solve(p: tuple[int, int], w: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
        u0, u1 = theta_product(t, n, *thetabar, *p)
        x = theta_product(t, n, u0 - w[0], u1 - w[1], thetabar[0], thetabar[1] - 1)
        return x, (p[0] * d_K - x[0], p[1] * d_K - x[1])

    a_bbar, abar_b = solve((c3[0], 0), (c4[0], 0))
    a_dbar, b_cbar = solve(c3[2:], c4[2:])
    if c1[0] != 0:
        pairs = ((c1[0] * d_K, 0), a_bbar, (c1[2] * d_K, c1[3] * d_K), a_dbar)
    else:
        pairs = (abar_b, (c2[0] * d_K, 0), b_cbar, (c2[2] * d_K, c2[3] * d_K))
    return phi_map.den * d_K, pairs


def _lift_raw(phi_map: OrthoMap) -> ExtendedMatrix:
    """A matrix whose spin image is phi_map, anchored on an entry e of its first row.

    By spin_map's formulas the image columns c1..c4 of H1..H4 hold every product
    of two entries of A = [[a, b], [c, d]] divided by f = det A: |a|^2, a*conj(c),
    |b|^2 and b*conj(d) in c1, c2; a*conj(b) in the first coordinates of c3, c4;
    a*conj(d) and b*conj(c) in their off-diagonal parts.  Take e = a if |a|^2 != 0,
    else e = b (a zero first row would make det A vanish).  Then p_y = e*conj(y)/f
    has p_a*p_d - p_b*p_c = e**2/f, whose root x/sqrt(f) stands for e, and each
    entry y is conj(p_y)*f/conj(x).  _anchor_products finds P_y = q*p_y on
    integers, the anchor square is formed on them over q**2, and
    _square_root_coords, k_square_root's integer core, returns its root as
    (f, X, xd) with x = X/xd for an integer pair X.  Unless a check fails, no
    K-element or Fraction is built.  Since 1/conj(x) = X*xd/N(X),

        y = conj(P_y)*X * f*xd / (q*N(X)),

    and g*A has the integer coordinates conj(P_y)*X*(f*xd/c) with
    g = q*N(X)/c, where c = -gcd(f*xd, q*N(X)) has the sign of q.
    The root factors the anchor square once, and a square that
    squarefree_part cannot reduce is a LiftError at "root".  Its f is a
    squarefree part, so of the constructor's checks only det A = f runs on that
    (f, g, g*A), and 0 < f < 2**66 when the common factor of g and g*A is
    cancelled; any failure is a LiftError at "verification".
    """
    params = field_params(phi_map.m)
    t, n = params.theta_trace, params.theta_norm
    q, pairs = _anchor_products(phi_map)
    p_a, p_b, p_c, p_d = pairs
    ad0, ad1 = theta_product(t, n, *p_a, *p_d)
    bc0, bc1 = theta_product(t, n, *p_b, *p_c)
    try:
        root = _square_root_coords(params, ad0 - bc0, ad1 - bc1, q * q)
    except ValueError as exc:
        raise LiftError("root", f"anchor entry squared: {exc}") from exc
    if root is None:
        raise LiftError("root", "anchor entry squared has no root of the form x/sqrt(f)")
    f, x0, x1, xd = root
    if x0 == 0 and x1 == 0:
        raise LiftError("root", "anchor entry vanished despite a nonzero norm")
    den = q * basis_norm(t, n, x0, x1)
    c = -gcd(f * xd, den)  # q = D*d_K is negative, so g = den/c is positive
    g, scale = den // c, f * xd // c
    coords = tuple(
        y * scale for p in pairs for y in theta_product(t, n, *basis_conjugate(t, *p), x0, x1)
    )
    try:
        _check_det(phi_map.m, g, coords, "A", "f", f)  # type: ignore[arg-type]
        return ExtendedMatrix._reduced(phi_map.m, f, g, coords)  # type: ignore[arg-type]
    except ValueError as exc:
        raise LiftError("verification", f"recovered matrix is inconsistent: {exc}") from exc


def spin_lift(phi_map: OrthoMap) -> ExtendedMatrix:
    """Exact inverse of spin_map, up to the {+-E} kernel ambiguity.

    The images of the basis give back the products e*conj(y) of one anchor
    entry e with every entry y, where e is the upper-left entry, or the
    upper-right one when the upper-left vanishes; since the determinant is 1,
    e**2 equals (e*conj(a))*(e*conj(d)) minus (e*conj(b))*(e*conj(c)), and an
    exact square root x/sqrt(f) recovers the matrix.  The result is
    sign-normalized and verified by mapping it back; failures raise LiftError
    with the offending stage.
    """
    if not phi_map.is_orthogonal():
        raise LiftError("orthogonality", "matrix does not preserve the quadratic form")
    if _det4(phi_map.num) != phi_map.den**4:
        raise LiftError("determinant", "matrix has determinant != 1")
    if not phi_map.maps_positive_cone():
        raise LiftError("component", "matrix does not map the positive cone to itself")
    lifted = sign_normalize(_lift_raw(phi_map))
    if spin_map(lifted) != phi_map:
        raise LiftError(
            "verification",
            "orthogonal matrix is rational but not in the image of the spin map",
        )
    return lifted
