"""Independent oracles: symbolic recomputation of the core maps via sympy,
and stress cases at larger field parameters."""

from fractions import Fraction
from random import Random

import pytest

from bianchimax import (
    ExtendedMatrix,
    KElement,
    atkin_lehner,
    bezout_pair,
    classify_coset,
    coset_law,
    extension_index,
    field_params,
    in_maximal_extension,
    k_square_root,
    spin_lift,
    spin_map,
    squarefree_divisors,
)
from bianchimax.sampling import random_ambient_element, random_coset_element

sympy = pytest.importorskip("sympy")


def to_sympy(z: KElement):
    return (
        sympy.Rational(z.x.numerator, z.x.denominator)
        + sympy.Rational(z.y.numerator, z.y.denominator) * sympy.sqrt(-z.m)
    )


def sympy_coords(params, s1, s2, s):
    """Fixed-basis coordinates of a symbolic Hermitian matrix [[s1, s], [conj(s), s2]]."""
    root = sympy.sqrt(-params.m)
    x = sympy.expand((s + sympy.conjugate(s)) / 2)
    y = sympy.expand((s - sympy.conjugate(s)) / (2 * root))
    if params.m % 4 == 3:
        a, b = x - y, 2 * y
    else:
        a, b = x, y
    return [sympy.nsimplify(v) for v in (s1, s2, a, b)]


class TestSpinMapAgainstSympy:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_basis_images_match_symbolic_conjugation(self, m):
        params = field_params(m)
        rng = Random(f"sympyoracle:{m}")
        theta = to_sympy(params.theta)
        hermitians = [
            (sympy.Integer(1), sympy.Integer(0), sympy.Integer(0)),
            (sympy.Integer(0), sympy.Integer(1), sympy.Integer(0)),
            (sympy.Integer(0), sympy.Integer(0), sympy.Integer(1)),
            (sympy.Integer(0), sympy.Integer(0), theta),
        ]
        for _ in range(4):
            mat = random_ambient_element(rng, params, max_d=6, length=2, height=1)
            scale = 1 / sympy.sqrt(mat.f)
            entries = [scale * to_sympy(z) for z in mat.entries]
            sym = sympy.Matrix([[entries[0], entries[1]], [entries[2], entries[3]]])
            sym_ct = sym.conjugate().T
            image = spin_map(mat)
            for j, (s1, s2, s) in enumerate(hermitians):
                h = sympy.Matrix([[s1, s], [sympy.conjugate(s), s2]])
                out = sympy.expand(sym * h * sym_ct)
                coords = sympy_coords(params, out[0, 0], out[1, 1], out[0, 1])
                for i in range(4):
                    got = image.rows[i][j]
                    expected = coords[i]
                    assert sympy.simplify(
                        expected - sympy.Rational(got.numerator, got.denominator)
                    ) == 0, (m, mat, i, j)


class TestKSquareRootAgainstSympy:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_root_squares_back_symbolically(self, m):
        rng = Random(f"sympyroot:{m}")
        for _ in range(20):
            x = KElement(
                m,
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            )
            f = rng.choice([1, 2, 3, 5, 7, 10])
            z = (x * x) / f
            found = k_square_root(z)
            assert found is not None
            got_f, got_x = found
            symbolic = to_sympy(got_x) / sympy.sqrt(got_f)
            assert sympy.simplify(symbolic**2 - to_sympy(z)) == 0


class TestLargeParameters:
    def test_sixteen_cosets_for_m165(self):
        # m = 165 = 3*5*11, d_K = -660, four prime divisors
        params = field_params(165)
        assert params.d_K == -660
        divisors = squarefree_divisors(params.d_K)
        assert len(divisors) == 16
        assert extension_index(params) == 16
        labels = set()
        for d in divisors:
            v = atkin_lehner(params, d)
            assert in_maximal_extension(v)
            labels.add(classify_coset(v))
            assert (v * v).is_integral()
        assert labels == set(divisors)

    def test_product_law_spot_checks_m165(self):
        params = field_params(165)
        for d, e in ((6, 10), (33, 22), (165, 330), (110, 165)):
            prod = atkin_lehner(params, d) * atkin_lehner(params, e)
            assert classify_coset(prod) == coset_law(d, e)

    def test_bezout_at_scale(self):
        params = field_params(165)
        for d in squarefree_divisors(params.d_K):
            pair = bezout_pair(params, d)
            assert pair.u * d - pair.v * (params.norm_omega // d) == 1

    def test_spin_round_trip_m165(self):
        params = field_params(165)
        rng = Random("large:165")
        for d in (1, 330):
            mat = random_coset_element(rng, params, d, length=2)
            image = spin_map(mat)
            assert image.is_orthogonal()
            assert spin_lift(image) in (mat, -mat)

    def test_big_entries_stay_exact(self):
        # entries around 2**64 exercise arbitrary-precision arithmetic
        params = field_params(2)
        n = 2**64
        rows = (
            (params.integer(1), params.element(n, n)),
            (params.integer(0), params.integer(1)),
        )
        mat = ExtendedMatrix.from_integral(1, rows)
        assert (mat * mat.inverse()) == ExtendedMatrix.identity(2)
        image = spin_map(mat)
        assert image.is_orthogonal()
        assert spin_lift(image) in (mat, -mat)


class TestOperatorCoercions:
    def test_int_and_fraction_mixing(self):
        z = KElement(3, Fraction(1, 2), Fraction(1, 2))
        assert 1 + z == KElement(3, Fraction(3, 2), Fraction(1, 2))
        assert 2 - z == KElement(3, Fraction(3, 2), Fraction(-1, 2))
        assert 3 * z == KElement(3, Fraction(3, 2), Fraction(3, 2))
        assert z / 2 == KElement(3, Fraction(1, 4), Fraction(1, 4))
        assert z + Fraction(1, 2) == KElement(3, 1, Fraction(1, 2))
        assert 1 / z == KElement(3, Fraction(1, 2), Fraction(-1, 2))
        assert Fraction(1, 2) / z == KElement(3, Fraction(1, 4), Fraction(-1, 4))
        with pytest.raises(ZeroDivisionError):
            1 / KElement(3, 0, 0)

    def test_equality_against_plain_numbers(self):
        assert KElement(5, 7, 0) == 7
        assert KElement(5, Fraction(1, 2), 0) == Fraction(1, 2)
        assert KElement(5, 7, 1) != 7
