import re
from fractions import Fraction
from random import Random

import pytest

from bianchimax import (
    ExtendedMatrix,
    KElement,
    field_params,
    is_algebraic_integer,
    squarefree_divisors,
)
from bianchimax.sampling import random_ambient_element, random_coset_element


def k(m, x, y=0):
    return KElement(m, x, y)


HUGE = 10**3999


def diagonal(top_left):
    """The m = 1 matrix [[top_left, 0], [0, 1]]."""
    return ((k(1, top_left), k(1, 0)), (k(1, 0), k(1, 1)))


class TestCanonicalForm:
    def test_identity(self):
        params = field_params(1)
        mat = ExtendedMatrix.from_integral(
            1, ((params.integer(1), params.integer(0)), (params.integer(0), params.integer(1)))
        )
        assert mat == ExtendedMatrix.identity(1)
        assert mat.f == 1

    def test_squarefree_det_kept(self):
        rows = ((k(1, 2), k(1, 1, 1)), (k(1, 1, -1), k(1, 2)))
        mat = ExtendedMatrix.from_integral(2, rows)
        assert mat.f == 2
        assert mat.rows == rows

    def test_square_factor_removed(self):
        rows = ((k(1, 2), k(1, 0)), (k(1, 0), k(1, 2)))
        mat = ExtendedMatrix.from_integral(4, rows)
        assert mat == ExtendedMatrix.identity(1)
        assert (mat.g, mat.coords) == (1, (1, 0, 0, 0, 0, 0, 1, 0))

    def test_half_integer_coordinates_m3_canonical(self):
        # theta = (1 + sqrt(-3))/2 has half-integer {1, sqrt(-3)} coordinates
        # but integral theta-coordinates (0, 1); doubling it leaves a
        # non-minimal scale that canonicalization must cancel.
        params = field_params(3)
        theta, theta_bar = params.theta, params.theta.conjugate()
        rows = ((theta, k(3, 0)), (k(3, 0), theta_bar))
        direct = ExtendedMatrix(1, rows)
        assert (direct.g, direct.coords) == (1, (0, 1, 0, 0, 0, 0, 1, -1))
        doubled = ExtendedMatrix.from_integral(
            4, ((theta * 2, k(3, 0)), (k(3, 0), theta_bar * 2))
        )
        assert doubled == direct and hash(doubled) == hash(direct)
        assert (doubled.g, doubled.coords) == (direct.g, direct.coords)
        halved = ExtendedMatrix(1, ((k(3, 1), theta / 2), (k(3, 0), k(3, 1))))
        assert (halved.g, halved.coords) == (2, (2, 0, 0, 1, 0, 0, 2, 0))

    def test_det_mismatch_raises(self):
        rows = ((k(1, 5), k(1, 2)), (k(1, 2), k(1, 1)))
        with pytest.raises(ValueError, match="det"):
            ExtendedMatrix.from_integral(5, rows)

    def test_nonpositive_d_raises(self):
        rows = ((k(1, 1), k(1, 0)), (k(1, 0), k(1, 1)))
        with pytest.raises(ValueError, match="positive"):
            ExtendedMatrix.from_integral(0, rows)

    def test_non_integral_entry_raises(self):
        rows = ((k(1, Fraction(1, 2)), k(1, 0)), (k(1, 0), k(1, 2)))
        with pytest.raises(ValueError, match="integral"):
            ExtendedMatrix.from_integral(1, rows)

    @pytest.mark.parametrize(
        "build,prefix",
        [
            (lambda: ExtendedMatrix.from_integral(1, diagonal(HUGE)), "det M = KElement(m=1, 1000"),
            (lambda: ExtendedMatrix.from_integral(1, diagonal(Fraction(HUGE, 3))),
             "matrix entry KElement(m=1, 1000"),
            (lambda: ExtendedMatrix.from_integral(-HUGE, diagonal(1)),
             "d must be a positive integer"),
            (lambda: ExtendedMatrix(1, diagonal(HUGE)), "det A = KElement(m=1, 1000"),
        ],
        ids=["det-M", "entry", "d", "det-A"],
    )
    def test_huge_values_are_quoted_briefly(self, build, prefix):
        with pytest.raises(ValueError) as info:
            build()
        message = str(info.value)
        assert message.startswith(prefix)
        assert len(message) < 200 and "... (length 40" in message

    def test_determinant_past_the_digit_limit_is_quoted_briefly(self):
        # each entry prints, but det A = 10**4400 has more digits than an int may print
        entry = field_params(1).integer(10**2200)
        zero = field_params(1).integer(0)
        with pytest.raises(ValueError) as info:
            ExtendedMatrix(1, ((entry, zero), (zero, entry)))
        message = str(info.value)
        assert message.startswith("det A = KElement(m=1, 1000")
        assert message.endswith("... (length 4419) does not match f = 1") and len(message) < 200

    def test_f_at_or_above_the_cap_raises(self):
        # the cap comes before factoring f, which could take seconds
        for f in (2**66, 2 * HUGE + 1):
            with pytest.raises(ValueError, match=r"^denominator part must be below 2\*\*66, got \d"):
                ExtendedMatrix(f, diagonal(f))

    def test_f_just_below_the_cap_is_accepted(self):
        # 2**66 - 3 = 61*5147*19813*11861659991 is squarefree
        f = 2**66 - 3
        mat = ExtendedMatrix(f, diagonal(f))
        assert (mat.f, mat.g) == (f, 1)

    def test_no_route_builds_f_at_or_above_the_cap(self):
        # from_integral and products pass through the same cap as the constructor
        f = 2**66 + 1  # 5 * 13 * 397 * 2113 * 312709 * 4327489, squarefree
        with pytest.raises(ValueError, match=r"^denominator part must be below 2\*\*66"):
            ExtendedMatrix.from_integral(f, diagonal(f))
        # 2**34 - 1 and 2**34 + 1 are coprime and squarefree; their product is 2**68 - 1
        low, high = (ExtendedMatrix(f, diagonal(f)) for f in (2**34 - 1, 2**34 + 1))
        with pytest.raises(ValueError, match=r"^denominator part must be below 2\*\*66"):
            low * high

    @pytest.mark.parametrize("d", [2 * HUGE + 1, 2**132], ids=["2*10**3999+1", "2**132"])
    def test_huge_d_fails_fast_with_a_short_message(self, d, monkeypatch):
        # the bound comes before factoring d: 2*10**3999 + 1 took 9.5 s of trial division
        def no_factoring(n):
            raise AssertionError("d was factored")

        monkeypatch.setattr("bianchimax.matrices.squarefree_part", no_factoring)
        with pytest.raises(ValueError, match=r"^d must be below 2\*\*132, got \d") as info:
            ExtendedMatrix.from_integral(d, diagonal(d))
        assert len(str(info.value)) < 200

    def test_d_just_below_the_bound_is_accepted(self):
        # 2**131 = (2**65)**2 * 2: f = 2 and g = 2**65
        mat = ExtendedMatrix.from_integral(2**131, diagonal(2**131))
        assert (mat.f, mat.g) == (2, 2**65)

    @pytest.mark.parametrize(
        "f,shown", [(True, "True (bool)"), (2.0, "2.0 (float)"), (Fraction(1), "Fraction(1, 1) (Fraction)")]
    )
    def test_f_that_is_not_an_int_raises_type_error(self, f, shown):
        # each of these equals an int, so det A = f held and the matrix was built
        # with a non-canonical f that matrix_to_json could not write back
        with pytest.raises(TypeError, match=rf"^denominator part must be an int, got {re.escape(shown)}$"):
            ExtendedMatrix(f, diagonal(int(f)))

    @pytest.mark.parametrize(
        "d,shown", [(True, "True (bool)"), (2.0, "2.0 (float)"), (Fraction(2), "Fraction(2, 1) (Fraction)")]
    )
    def test_d_that_is_not_an_int_raises_type_error(self, d, shown):
        with pytest.raises(TypeError, match=rf"^d must be an int, got {re.escape(shown)}$"):
            ExtendedMatrix.from_integral(d, diagonal(int(d)))

    def test_non_squarefree_f_raises(self):
        rows = ((k(1, 4), k(1, 0)), (k(1, 0), k(1, 1)))
        with pytest.raises(ValueError, match="squarefree"):
            ExtendedMatrix(4, rows)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_scaling_does_not_change_canonical_form(self, m):
        params = field_params(m)
        rng = Random(f"canon:{m}")
        for _ in range(25):
            mat = random_ambient_element(rng, params)
            d, entries = mat.integral_representative()
            for g in (1, 2, 3, 6):
                scaled = tuple(z * g for z in entries)
                rebuilt = ExtendedMatrix.from_integral(
                    g * g * d, ((scaled[0], scaled[1]), (scaled[2], scaled[3]))
                )
                assert rebuilt == mat
            # The same element reached through every constructor and group
            # operation is equal and hashes equal.
            routes = (
                ExtendedMatrix(mat.f, mat.rows),
                mat * ExtendedMatrix.identity(m),
                ExtendedMatrix.identity(m) * mat,
                mat.inverse().inverse(),
                -(-mat),
                (mat * mat) * mat.inverse(),
                rebuilt,
            )
            for route in routes:
                assert route == mat
                assert hash(route) == hash(mat)
                assert (route.f, route.g, route.coords) == (mat.f, mat.g, mat.coords)


class TestGroupOperations:
    def test_multiply_by_identity(self):
        params = field_params(2)
        rng = Random("ident")
        mat = random_ambient_element(rng, params)
        assert mat * ExtendedMatrix.identity(2) == mat

    def test_involution_square_frozen(self):
        # (1/2) * [[2, 1+i], [1-i, 2]]**2 = [[3, 2+2i], [2-2i, 3]]
        v = ExtendedMatrix(2, ((k(1, 2), k(1, 1, 1)), (k(1, 1, -1), k(1, 2))))
        expected = ExtendedMatrix(
            1, ((k(1, 3), k(1, 2, 2)), (k(1, 2, -2), k(1, 3)))
        )
        assert v * v == expected

    def test_inverse_frozen(self):
        v = ExtendedMatrix(2, ((k(1, 2), k(1, 1, 1)), (k(1, 1, -1), k(1, 2))))
        expected = ExtendedMatrix(2, ((k(1, 2), k(1, -1, -1)), (k(1, -1, 1), k(1, 2))))
        assert v.inverse() == expected
        assert v * v.inverse() == ExtendedMatrix.identity(1)

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_group_laws_random(self, m):
        params = field_params(m)
        rng = Random(f"laws:{m}")
        for _ in range(30):
            p = random_ambient_element(rng, params)
            q = random_ambient_element(rng, params)
            r = random_ambient_element(rng, params)
            assert (p * q) * r == p * (q * r)
            assert p * p.inverse() == ExtendedMatrix.identity(m)
            assert p.inverse().inverse() == p
            assert (p * q).inverse() == q.inverse() * p.inverse()

    def test_det_always_equals_f(self):
        params = field_params(7)
        rng = Random("detf")
        for _ in range(25):
            p = random_ambient_element(rng, params)
            a, b, c, d = p.entries
            assert a * d - b * c == p.f

    def test_mixed_fields_raise(self):
        with pytest.raises(ValueError, match="mixed"):
            ExtendedMatrix.identity(1) * ExtendedMatrix.identity(2)


class TestIntegralMembership:
    def test_identity_is_integral(self):
        assert ExtendedMatrix.identity(1).is_integral()

    def test_involution_square_is_integral(self):
        mat = ExtendedMatrix(1, ((k(1, 3), k(1, 2, 2)), (k(1, 2, -2), k(1, 3))))
        assert mat.is_integral()

    def test_nontrivial_denominator_not_integral(self):
        v = ExtendedMatrix(2, ((k(1, 2), k(1, 1, 1)), (k(1, 1, -1), k(1, 2))))
        assert not v.is_integral()

    def test_integral_representative(self):
        params = field_params(3)
        half = params.theta  # (1 + sqrt(-3))/2 has theta-coords (0, 1)
        mat = ExtendedMatrix.from_integral(
            4, ((params.integer(2), half), (params.integer(0), params.integer(2)))
        )
        assert mat.f == 1
        d, entries = mat.integral_representative()
        assert d == 4
        assert all(z.is_integral() for z in entries)


class TestMinimalPolynomials:
    """is_algebraic_integer(z, f) tests whether w = z/sqrt(f) has a monic
    integer minimal polynomial, through w**2 = z*z/f lying in O_K."""

    def test_one_over_sqrt2(self):
        # t**2 - 1/2
        assert not is_algebraic_integer(k(1, 1), 2)

    def test_sqrt2(self):
        # t**2 - 2
        assert is_algebraic_integer(k(1, 2), 2)

    def test_eighth_root_of_unity(self):
        # (1 + i)/sqrt(2) is a root of t**4 + 1
        assert is_algebraic_integer(k(1, 1, 1), 2)

    def test_rational_degree_one(self):
        assert not is_algebraic_integer(k(5, Fraction(7, 3)), 1)
        assert is_algebraic_integer(k(5, -7), 1)

    def test_zero(self):
        assert is_algebraic_integer(k(5, 0), 5)

    def test_integral_element_f1(self):
        params = field_params(3)
        assert is_algebraic_integer(params.theta, 1)
        assert not is_algebraic_integer(params.theta, 2)

    def test_purely_imaginary_over_sqrt(self):
        # (2*sqrt(-5)/sqrt(2))**2 = -10, but (sqrt(-5)/sqrt(2))**2 = -5/2
        assert is_algebraic_integer(k(5, 0, 2), 2)
        assert not is_algebraic_integer(k(5, 0, 1), 2)

    @pytest.mark.parametrize("f", [HUGE, 2 * 10**30 + 1], ids=["10**3999", "2*10**30+1"])
    def test_huge_f_fails_fast_with_a_short_message(self, f, monkeypatch):
        # the cap comes before factoring f: 2*10**30 + 1 took 0.7 s of trial division
        def no_factoring(n):
            raise AssertionError("f was factored")

        monkeypatch.setattr("bianchimax.field._trial_division", no_factoring)
        with pytest.raises(ValueError, match=r"^denominator part must be below 2\*\*66, got \d") as info:
            is_algebraic_integer(k(1, 1), f)
        assert len(str(info.value)) < 200

    def test_non_positive_or_non_squarefree_f_raises(self):
        for f, error in (
            (0, r"^denominator part must be a positive integer, got 0$"),
            (-HUGE, r"^denominator part must be a positive integer, got -1000"),
            (12, r"^denominator part must be squarefree, but 2\*\*2 divides 12$"),
        ):
            with pytest.raises(ValueError, match=error) as info:
                is_algebraic_integer(k(1, 1), f)
            assert len(str(info.value)) < 200

    def test_bool_f_raises_type_error(self):
        # True == 1 passed every check of an int f before
        with pytest.raises(TypeError, match=r"^denominator part must be an int, got True \(bool\)$"):
            is_algebraic_integer(k(1, 1), True)

    def test_invalid_f_raises(self):
        with pytest.raises(ValueError):
            is_algebraic_integer(k(1, 1), 4)
        with pytest.raises(ValueError):
            is_algebraic_integer(k(1, 1), 0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_against_sympy_oracle(self, m):
        # Oracle: sympy's monic minimal polynomial has integer coefficients.
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = Random(f"minpoly:{m}")
        outcomes = []
        for _ in range(20):
            x = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            y = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            f = rng.choice([1, 2, 3, 5, 6, 7])
            # scaling by f makes w = z/sqrt(f) integral whenever x + y*sqrt(-m) is
            z = KElement(m, x, y) * rng.choice([1, f])
            value = (
                sympy.Rational(z.x.numerator, z.x.denominator)
                + sympy.Rational(z.y.numerator, z.y.denominator) * sympy.sqrt(-m)
            ) / sympy.sqrt(f)
            monic = sympy.Poly(sympy.minimal_polynomial(value, t), t).monic()
            expected = all(c.is_Integer for c in monic.all_coeffs())
            assert is_algebraic_integer(z, f) == expected, (m, z, f)
            outcomes.append(expected)
        assert set(outcomes) == {True, False}

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_coset_entries_are_algebraic_integers(self, m):
        params = field_params(m)
        rng = Random(f"remark:{m}")
        for d in squarefree_divisors(params.d_K):
            for _ in range(8):
                mat = random_coset_element(rng, params, d)
                assert mat.f == d
                for z in mat.entries:
                    assert is_algebraic_integer(z, d)
