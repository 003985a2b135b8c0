import operator
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt, prod
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bianchimax import (
    ExtendedMatrix,
    FieldParams,
    IdealHNF,
    KElement,
    OrthoMap,
    field_params,
    prime_factors,
    squarefree_divisors,
    squarefree_part,
    units_of,
)
from bianchimax.field import (
    _check_squarefree,
    _quote,
    basis_conjugate,
    basis_from_sqrt,
    basis_norm,
    basis_to_scaled_sqrt,
    basis_trace,
    theta_product,
)
from bianchimax.sampling import random_integral_element

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
# Primes just past the trial-division limit 2**22, and the two largest below
# 2**33, whose product is just below the 2**66 bound of the cofactor rule.
LARGE_PRIME = st.sampled_from((4194319, 4194329, 4194353, 8589934567, 8589934583))

ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def covolume(pairs):
    """Independent lattice covolume: gcd of all 2x2 minors of the generators."""
    g = 0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            g = gcd(g, pairs[i][0] * pairs[j][1] - pairs[j][0] * pairs[i][1])
    return abs(g)


def z_generator_pairs(params, gens):
    pairs = []
    for z in gens:
        for w in (z, params.theta * z):
            a, b = w.theta_coords()
            pairs.append((int(a), int(b)))
    return pairs


def ideals_equal_oracle(params, gens_a, gens_b):
    """Mutual-inclusion test via covolumes, no HNF involved."""
    pa = z_generator_pairs(params, gens_a)
    pb = z_generator_pairs(params, gens_b)
    ca, cb, cab = covolume(pa), covolume(pb), covolume(pa + pb)
    return ca != 0 and ca == cb == cab


def in_z_span(basis, a, b):
    """Whether (a, b) lies in Z*(h11, h21) + Z*(0, h22), by back substitution."""
    h11, h21, h22 = basis
    x = a / h11
    return x.denominator == 1 and ((b - x * h21) / h22).denominator == 1


def assert_canonical_ideal(params, ideal):
    """A nonzero ideal's HNF is canonical and its Z-span is closed under theta."""
    (h11, h21), (zero, h22) = (g.theta_coords() for g in ideal.generators())
    assert zero == 0
    assert h11 > 0 and h22 > 0 and 0 <= h21 < h22
    for gen in ideal.generators():
        assert in_z_span((h11, h21, h22), *(params.theta * gen).theta_coords())


class SqrtCoordsOracle:
    """x + y*sqrt(-m) with arithmetic on {1, sqrt(-m)}-coordinates, an
    independent reference for KElement, which stores {1, theta}-coordinates."""

    def __init__(self, m, x, y):
        self.m, self.x, self.y = m, Fraction(x), Fraction(y)

    @classmethod
    def from_theta_coords(cls, m, a, b):
        a, b = Fraction(a), Fraction(b)
        if m % 4 == 3:
            return cls(m, a + b / 2, b / 2)
        return cls(m, a, b)

    def __add__(self, other):
        return SqrtCoordsOracle(self.m, self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return SqrtCoordsOracle(self.m, self.x - other.x, self.y - other.y)

    def __mul__(self, other):
        return SqrtCoordsOracle(
            self.m,
            self.x * other.x - self.m * self.y * other.y,
            self.x * other.y + self.y * other.x,
        )

    def __truediv__(self, other):
        return self * other.inverse()

    def conjugate(self):
        return SqrtCoordsOracle(self.m, self.x, -self.y)

    def norm(self):
        return self.x * self.x + self.m * self.y * self.y

    def trace(self):
        return 2 * self.x

    def inverse(self):
        n = self.norm()
        return SqrtCoordsOracle(self.m, self.x / n, -self.y / n)

    def theta_coords(self):
        if self.m % 4 == 3:
            return self.x - self.y, 2 * self.y
        return self.x, self.y

    def is_integral(self):
        return all(q.denominator == 1 for q in self.theta_coords())


def assert_matches_oracle(z, o):
    assert (z.m, z.x, z.y) == (o.m, o.x, o.y)
    assert z.theta_coords() == o.theta_coords()
    assert z.is_integral() == o.is_integral()
    assert all(type(q) is Fraction for q in (z.x, z.y) + z.theta_coords())


ORACLE_MS = [1, 2, 3, 5, 6, 7, 10, 11, 15]
# theta-coordinates of integral elements: zero, units of some field (+-1, and
# i or theta for m = 1 and 3), small ones and large ones
integral_coords = st.one_of(
    st.sampled_from([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1)]),
    st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    st.tuples(st.integers(-(2**64), 2**64), st.integers(-(2**64), 2**64)),
)
small_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
rational_pairs = st.tuples(small_rationals, small_rationals)


class TestAgainstSqrtCoordsOracle:
    """The {1, theta} storage against the {1, sqrt(-m)} arithmetic it replaced."""

    @settings(max_examples=300)
    @given(st.sampled_from(ORACLE_MS), rational_pairs, rational_pairs)
    def test_arithmetic(self, m, p, q):
        z, w = KElement(m, *p), KElement(m, *q)
        oz, ow = SqrtCoordsOracle(m, *p), SqrtCoordsOracle(m, *q)
        assert_matches_oracle(z, oz)
        assert_matches_oracle(z + w, oz + ow)
        assert_matches_oracle(z - w, oz - ow)
        assert_matches_oracle(z * w, oz * ow)
        assert_matches_oracle(z.conjugate(), oz.conjugate())
        assert z.norm() == oz.norm()
        assert z.trace() == oz.trace()
        if oz.norm() != 0:
            assert_matches_oracle(z.inverse(), oz.inverse())
        if ow.norm() != 0:
            assert_matches_oracle(z / w, oz / ow)

    @settings(max_examples=150)
    @given(st.sampled_from(ORACLE_MS), rational_pairs, small_rationals)
    def test_mixed_with_rationals(self, m, p, r):
        z, oz, orr = KElement(m, *p), SqrtCoordsOracle(m, *p), SqrtCoordsOracle(m, r, 0)
        assert_matches_oracle(z + r, oz + orr)
        assert_matches_oracle(r + z, oz + orr)
        assert_matches_oracle(z - r, oz - orr)
        assert_matches_oracle(r - z, orr - oz)
        assert_matches_oracle(z * r, oz * orr)
        assert_matches_oracle(r * z, oz * orr)
        if r != 0:
            assert_matches_oracle(z / r, oz / orr)

    @settings(max_examples=150)
    @given(st.sampled_from(ORACLE_MS), rational_pairs)
    def test_from_theta_coords(self, m, ab):
        z = field_params(m).from_theta_coords(*ab)
        assert_matches_oracle(z, SqrtCoordsOracle.from_theta_coords(m, *ab))
        assert z.theta_coords() == ab

    @settings(max_examples=150)
    @given(st.sampled_from(ORACLE_MS), st.tuples(st.integers(-30, 30), st.integers(-30, 30)))
    def test_integral_elements(self, m, ab):
        z = field_params(m).from_theta_coords(*ab)
        assert_matches_oracle(z, SqrtCoordsOracle.from_theta_coords(m, *ab))
        assert z.is_integral()
        assert (z * z).is_integral() and z.norm().denominator == 1


int_pairs = st.tuples(st.integers(-40, 40), st.integers(-40, 40))
# Two coordinate pairs of one type: both int or both Fraction.
same_type_pairs = st.sampled_from([int_pairs, rational_pairs]).flatmap(lambda s: st.tuples(s, s))


class TestBasisFormulas:
    """field.py's {1, theta} formulas, which KElement and the integer paths
    share, against the {1, sqrt(-m)} oracle on int and Fraction coordinates."""

    @settings(max_examples=400)
    @given(st.sampled_from(ORACLE_MS), same_type_pairs)
    def test_against_sqrt_coords_oracle(self, m, pairs):
        p, q = pairs
        params = field_params(m)
        t, n = params.theta_trace, params.theta_norm
        op = SqrtCoordsOracle.from_theta_coords(m, *p)
        oq = SqrtCoordsOracle.from_theta_coords(m, *q)
        results = [
            theta_product(t, n, *p, *q),
            basis_conjugate(t, *p),
            (basis_norm(t, n, *p), basis_trace(t, *p)),
            basis_to_scaled_sqrt(t, *p),
            basis_from_sqrt(t, *q),  # q read as {1, sqrt(-m)}-coordinates
        ]
        assert results == [
            (op * oq).theta_coords(),
            op.conjugate().theta_coords(),
            (op.norm(), op.trace()),
            ((1 + t) * op.x, (1 + t) * op.y),
            SqrtCoordsOracle(m, *q).theta_coords(),
        ]
        # int coordinates stay int, for the integer paths; Fractions stay Fraction
        assert all(type(v) is type(p[0]) for pair in results for v in pair)


class TestHashMatchesEquality:
    @pytest.mark.parametrize("m", [1, 3])
    def test_rational_elements_collapse_with_their_values(self, m):
        params = field_params(m)
        assert {params.integer(3), 3} == {3}
        assert len({params.integer(3), 3, Fraction(3)}) == 1
        half = params.element(Fraction(1, 2), 0)
        assert len({half, Fraction(1, 2)}) == 1
        table = {3: "three", Fraction(1, 2): "half"}
        assert table[params.integer(3)] == "three"
        assert table[half] == "half"
        assert {params.integer(3): "k"}[3] == "k"
        assert {params.integer(0): "zero"}[0] == "zero"

    @settings(max_examples=150)
    @given(st.sampled_from(ORACLE_MS), rational_pairs)
    def test_equal_values_hash_equal(self, m, p):
        z = KElement(m, *p)
        assert hash(z) == hash(field_params(m).from_theta_coords(*z.theta_coords()))
        rational = KElement(m, p[0], 0)
        assert rational == p[0] and hash(rational) == hash(p[0])


NOT_EXACT = [0.1, 1.0, "1/2", True, False, None, Decimal("0.5"), 1j]


class FractionSubclass(Fraction):
    pass


class TestOnlyIntAndFraction:
    @pytest.mark.parametrize("bad", NOT_EXACT, ids=repr)
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: KElement(1, v, 0),
            lambda v: KElement(3, 0, v),
            lambda v: field_params(5).element(v, 1),
            lambda v: field_params(7).element(1, v),
            lambda v: field_params(2).integer(v),
            lambda v: field_params(3).from_theta_coords(v, 0),
            lambda v: field_params(1).from_theta_coords(0, v),
        ],
        ids=["KElement.x", "KElement.y", "element.x", "element.y", "integer",
             "from_theta_coords.a", "from_theta_coords.b"],
    )
    def test_rejected_with_the_value_named(self, build, bad):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            build(bad)

    def test_int_and_fraction_accepted(self):
        params = field_params(3)
        assert params.element(1, Fraction(1, 3)) == KElement(3, Fraction(1), Fraction(1, 3))
        assert params.from_theta_coords(Fraction(2, 1), 1) == params.integer(2) + params.theta

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize(
        "op", [operator.add, operator.sub, operator.mul, operator.truediv],
        ids=["add", "sub", "mul", "truediv"],
    )
    def test_bool_operand_rejected_on_either_side(self, op, flag):
        z = field_params(1).integer(3)
        with pytest.raises(TypeError):
            op(z, flag)
        with pytest.raises(TypeError):
            op(flag, z)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize(
        "value", [3, Fraction(1, 2), FractionSubclass(1, 3)], ids=["int", "Fraction", "subclass"]
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda m, v: KElement(m, v, v),
            lambda m, v: field_params(m).from_theta_coords(v, v),
            lambda m, v: KElement._raw(m, v, v),
        ],
        ids=["KElement", "from_theta_coords", "_raw"],
    )
    def test_coordinates_are_exactly_fraction(self, build, value, m):
        # A Fraction subclass would bring its own arithmetic into every product.
        z = build(m, value)
        assert type(z.a) is type(z.b) is Fraction
        assert z == build(m, Fraction(value))

    def test_bool_equality_and_hash_match_int(self):
        # As with Fraction(1) == True: comparison is not arithmetic.
        one = field_params(1).integer(1)
        assert one == True  # noqa: E712
        assert hash(one) == hash(True)
        assert field_params(3).integer(0) == False  # noqa: E712


class TestFieldParams:
    def test_m3_discriminant_and_theta(self):
        params = field_params(3)
        assert params.d_K == -3
        assert params.theta == KElement(3, Fraction(1, 2), Fraction(1, 2))

    def test_m1_discriminant_and_theta(self):
        params = field_params(1)
        assert params.d_K == -4
        assert params.theta == KElement(1, 0, 1)

    def test_m5_omega_norm(self):
        params = field_params(5)
        assert params.element(5, 1).norm() == 30
        assert params.norm_omega == 30

    @pytest.mark.parametrize("m", [0, -3])
    def test_rejects_nonpositive(self, m):
        with pytest.raises(ValueError, match="positive"):
            field_params(m)

    @pytest.mark.parametrize("m,prime", [(12, 2), (18, 3), (75, 5)])
    def test_rejects_nonsquarefree_naming_prime(self, m, prime):
        with pytest.raises(ValueError, match=f"{prime}"):
            field_params(m)

    @pytest.mark.parametrize("m", [1.0, True, Fraction(1), "1"], ids=repr)
    def test_rejects_a_non_int_naming_m(self, m):
        field_params(1)  # the cache must not answer 1.0 or True from this entry
        with pytest.raises(TypeError, match=rf"^m must be an int, got {re.escape(repr(m))} "):
            field_params(m)

    @pytest.mark.parametrize("m", ORACLE_MS)
    def test_holds_trace_and_norm_of_theta(self, m):
        params = field_params(m)
        t, n, theta = params.theta_trace, params.theta_norm, params.theta
        assert theta * theta == t * theta - n
        assert theta.conjugate() == t - theta
        assert params.d_K == t * t - 4 * n

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 10, 11, 15])
    def test_one_object_per_m(self, m):
        assert field_params(m) is field_params(m)

    def test_constructor_validates_m_and_derives_the_rest(self):
        assert FieldParams(5) == field_params(5)
        with pytest.raises(ValueError, match=r"^m must be squarefree, but 2\*\*2 divides 4$"):
            FieldParams(4)
        # t and n are no longer arguments, so they cannot disagree with m
        with pytest.raises(TypeError):
            FieldParams(5, 1, 7)

    def test_m_just_below_the_cap_is_a_field(self):
        # 2**64 - 1 = 3 * 5 * 17 * 257 * 641 * 65537 * 6700417 is squarefree
        assert field_params(2**64 - 1).d_K == -(2**64 - 1)

    @pytest.mark.parametrize(
        "m", [2**64, 2**64 + 1, 10**3999, 10**5000],
        ids=["2**64", "2**64+1", "10**3999", "10**5000"],
    )
    def test_m_at_or_above_the_cap_raises(self, m):
        # 10**3999 is not squarefree, but the cap is checked before factoring;
        # 10**5000 has more digits than repr of an int may print
        with pytest.raises(ValueError, match=r"^m must be below 2\*\*64, got \d+") as info:
            field_params(m)
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("m", range(1, 201))
    def test_divisor_cofactors_coprime(self, m):
        if squarefree_part(m) != m:
            return
        params = field_params(m)
        for d in squarefree_divisors(params.d_K):
            assert params.norm_omega % d == 0
            assert gcd(d, params.norm_omega // d) == 1


IDENTITY4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


class TestConstructorsValidateM:
    """Every public constructor that takes m rejects what field_params rejects,
    with field_params' own message."""

    @pytest.mark.parametrize("m", [0, -3, 4, 12, 2**64, True], ids=repr)
    @pytest.mark.parametrize(
        "build",
        [
            lambda m: KElement(m, 1, 0),
            lambda m: OrthoMap(m, IDENTITY4),
            lambda m: OrthoMap.identity(m),
            lambda m: ExtendedMatrix.identity(m),
        ],
        ids=["KElement", "OrthoMap", "OrthoMap.identity", "ExtendedMatrix.identity"],
    )
    def test_rejected_with_field_params_message(self, build, m):
        with pytest.raises((TypeError, ValueError)) as expected:
            field_params(m)
        with pytest.raises(expected.type) as info:
            build(m)
        assert str(info.value) == str(expected.value)

    def test_half_i_over_a_non_field_is_rejected(self):
        # m = 4 is no field: this would be i, and was reported as not integral
        with pytest.raises(ValueError, match=r"^m must be squarefree, but 2\*\*2 divides 4$"):
            KElement(4, 0, Fraction(1, 2))

    def test_negative_m_is_rejected(self):
        # KElement(-3, 1, 1).norm() was -2
        with pytest.raises(ValueError, match="^m must be a positive integer, got -3$"):
            KElement(-3, 1, 1)

    def test_m_at_the_cap_is_rejected(self):
        with pytest.raises(ValueError, match=r"^m must be below 2\*\*64"):
            KElement(2**64, 1, 0)


class TestKArithmetic:
    def test_norm_of_one_plus_i(self):
        assert KElement(1, 1, 1).norm() == 2

    def test_conjugate(self):
        assert KElement(5, 5, 1).conjugate() == KElement(5, 5, -1)

    def test_inverse_of_sqrt_minus_two(self):
        z = KElement(2, 0, 1)
        assert z.inverse() == KElement(2, 0, Fraction(-1, 2))
        assert z * z.inverse() == KElement(2, 1, 0)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            KElement(1, 0, 0).inverse()

    def test_mixed_m_raises(self):
        with pytest.raises(ValueError, match="mixed"):
            KElement(1, 1, 0) + KElement(2, 1, 0)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 10])
    def test_field_axioms_on_random_elements(self, m):
        rng = Random(f"axioms:{m}")
        params = field_params(m)
        for _ in range(50):
            a = params.element(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                               Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            b = random_integral_element(rng, params, 5)
            c = random_integral_element(rng, params, 5)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a.conjugate().conjugate() == a
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a * b).norm() == a.norm() * b.norm()
            assert a.norm() >= 0
            if not a.is_zero():
                assert a * a.inverse() == params.integer(1)

    def test_trace(self):
        assert KElement(5, Fraction(3, 2), 7).trace() == 3


class TestIntegrality:
    def test_theta_is_integral_m3(self):
        assert KElement(3, Fraction(1, 2), Fraction(1, 2)).is_integral()

    def test_half_one_plus_i_not_integral(self):
        assert not KElement(1, Fraction(1, 2), Fraction(1, 2)).is_integral()

    def test_plain_integral_m2(self):
        assert KElement(2, 7, -3).is_integral()

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_theta_coords_roundtrip(self, m):
        params = field_params(m)
        rng = Random(f"coords:{m}")
        for _ in range(30):
            z = params.element(Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
                               Fraction(rng.randint(-8, 8), rng.randint(1, 3)))
            a, b = z.theta_coords()
            assert params.from_theta_coords(a, b) == z


class TestIdeals:
    def test_two_and_one_plus_i_is_principal(self):
        params = field_params(1)
        gens = [params.integer(2), params.element(1, 1)]
        ideal = IdealHNF.from_generators(params, gens)
        principal = IdealHNF.principal(params, params.element(1, 1))
        assert ideal == principal
        assert repr(ideal) == "IdealHNF(m=1, basis=((1, 0), (1, 2)))"
        assert ideals_equal_oracle(params, gens, [params.element(1, 1)])

    def test_zero_ideal(self):
        params = field_params(1)
        ideal = IdealHNF.from_generators(params, [params.integer(0)])
        assert ideal.is_zero()
        assert ideal == IdealHNF.principal(params, params.element(0, 0))
        assert ideal.norm() == 0
        assert ideal * IdealHNF.principal(params, params.element(1, 1)) == ideal
        assert repr(ideal) == "IdealHNF(m=1, basis=((0, 0), (0, 0)))"

    def test_ramified_prime_above_two_m5(self):
        params = field_params(5)
        gens = [params.integer(2), params.element(1, 1)]
        ideal = IdealHNF.from_generators(params, gens)
        assert ideal.norm() == 2
        # no element of norm 2 exists (x**2 + 5 y**2 = 2 is unsolvable), so
        # the ideal cannot be principal
        for a in range(-2, 3):
            for b in range(-2, 3):
                z = params.from_theta_coords(a, b)
                if not z.is_zero():
                    assert IdealHNF.principal(params, z) != ideal
        square = ideal * ideal
        assert square.norm() == 4
        assert square == IdealHNF.principal(params, params.integer(2))

    def test_unit_ideal(self):
        params = field_params(7)
        unit = IdealHNF.principal(params, params.integer(1))
        assert unit == IdealHNF.from_generators(params, [params.integer(2), params.integer(3)])
        assert unit.norm() == 1
        assert repr(unit) == "IdealHNF(m=7, basis=((1, 0), (0, 1)))"
        two = IdealHNF.principal(params, params.integer(2))
        assert unit * two == two

    def test_inequality_by_norm(self):
        params = field_params(1)
        assert IdealHNF.principal(params, params.element(1, 1)) != IdealHNF.principal(
            params, params.integer(2)
        )

    def test_mixed_fields_raise(self):
        a = IdealHNF.principal(field_params(1), field_params(1).integer(1))
        b = IdealHNF.principal(field_params(2), field_params(2).integer(1))
        with pytest.raises(ValueError, match="mixed"):
            a * b

    def test_non_integral_generator_raises(self):
        params = field_params(1)
        with pytest.raises(ValueError, match="integral"):
            IdealHNF.from_generators(params, [params.element(Fraction(1, 2), 0)])

    def test_direct_construction_raises(self):
        # An ideal comes only from generators, so no basis is ever validated.
        with pytest.raises(TypeError):
            IdealHNF(1, ((2, 0), (1, 2)))
        with pytest.raises(TypeError):
            IdealHNF(1, ((1, 0), (0, 5)))
        # not even an object with no slots set
        with pytest.raises(TypeError, match=r"from_generators or IdealHNF\.principal"):
            IdealHNF()

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 11])
    def test_hnf_matches_covolume_oracle(self, m):
        params = field_params(m)
        rng = Random(f"hnf:{m}")
        for _ in range(40):
            gens = [random_integral_element(rng, params, 4) for _ in range(rng.randint(1, 3))]
            ideal = IdealHNF.from_generators(params, gens)
            if ideal.is_zero():
                assert all(z.is_zero() for z in gens)
                continue
            assert_canonical_ideal(params, ideal)
            pairs = z_generator_pairs(params, gens)
            assert ideal.norm() == covolume(pairs)
            assert ideals_equal_oracle(params, gens, list(ideal.generators()))
            for z in gens:
                if not z.is_zero():
                    assert_canonical_ideal(params, IdealHNF.principal(params, z))

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 11])
    def test_hnf_invariance_and_norm_multiplicativity(self, m):
        params = field_params(m)
        rng = Random(f"invariance:{m}")
        units = units_of(params)
        for _ in range(30):
            gens = [random_integral_element(rng, params, 3) for _ in range(2)]
            ideal = IdealHNF.from_generators(params, gens)
            assert IdealHNF.from_generators(params, gens[::-1]) == ideal
            assert IdealHNF.from_generators(params, [g * rng.choice(units) for g in gens]) == ideal
            other = IdealHNF.from_generators(
                params, [random_integral_element(rng, params, 3) for _ in range(2)]
            )
            product = ideal * other
            assert product.norm() == ideal.norm() * other.norm()
            for built in (ideal, other, product):
                if not built.is_zero():
                    assert_canonical_ideal(params, built)

    @pytest.mark.parametrize("case", ["square", "equal-twin", "distinct"])
    @pytest.mark.parametrize("m", ORACLE_MS)
    def test_product_is_the_module_of_all_four_basis_products(self, m, case):
        # A square forms only g1*g1 and g2*g2; the oracle is all four basis
        # products, for I * I, for I * J with J == I built from permuted and
        # unit-scaled generators, and for two different ideals.
        params = field_params(m)
        rng = Random(f"product:{m}:{case}")
        units = units_of(params)
        for _ in range(30):
            gens = [random_integral_element(rng, params, 4) for _ in range(rng.randint(1, 3))]
            ideal = IdealHNF.from_generators(params, gens)
            if case == "square":
                other = ideal
            elif case == "equal-twin":
                twin = [g * rng.choice(units) for g in gens[::-1]]
                other = IdealHNF.from_generators(params, twin)
                assert other == ideal and other is not ideal
            else:
                other = ideal
                while other == ideal:
                    other = IdealHNF.from_generators(
                        params, [random_integral_element(rng, params, 4) for _ in range(2)]
                    )
            g1, g2 = ideal.generators()
            h1, h2 = other.generators()
            four = IdealHNF.from_generators(params, [g1 * h1, g1 * h2, g2 * h1, g2 * h2])
            assert ideal * other == four

    @settings(max_examples=300)
    @given(st.sampled_from(ORACLE_MS), st.lists(integral_coords, min_size=2, max_size=2))
    def test_square_of_two_generators_is_generated_by_their_squares(self, m, coords):
        # (a, b)**2 == (a**2, b**2) in a Dedekind domain, for any integral a
        # and b: zero and units included, and generators other than the HNF's.
        params = field_params(m)
        a, b = (params.from_theta_coords(*c) for c in coords)
        ideal = IdealHNF.from_generators(params, [a, b])
        assert ideal * ideal == IdealHNF.from_generators(params, [a * a, b * b])

    @staticmethod
    def record_products(monkeypatch):
        """Record the length of each from_generators argument, and every
        KElement product made outside from_generators' own theta-closure."""
        sizes, outside, inside = [], [], []
        mul = KElement.__mul__
        from_generators = IdealHNF.from_generators.__func__

        def counting(z, w):
            if not inside:
                outside.append((z, w))
            return mul(z, w)

        def recording(cls, params, gens):
            gens = list(gens)
            sizes.append(len(gens))
            inside.append(True)
            try:
                return from_generators(cls, params, gens)
            finally:
                inside.pop()

        monkeypatch.setattr(KElement, "__mul__", counting)
        monkeypatch.setattr(KElement, "__rmul__", counting)
        monkeypatch.setattr(IdealHNF, "from_generators", classmethod(recording))
        return sizes, outside

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_square_asks_for_two_generators(self, m, monkeypatch):
        # The square needs no g1*g2; this pins that it is not formed again,
        # and that g1*g1 and g2*g2 are formed on the HNF's integers.
        params = field_params(m)
        rng = Random(f"square-shape:{m}")
        gens = [random_integral_element(rng, params, 4) for _ in range(2)]
        ideal = IdealHNF.from_generators(params, gens)
        twin = IdealHNF.from_generators(params, gens[::-1])
        assert twin == ideal and twin is not ideal
        sizes, outside = self.record_products(monkeypatch)
        ideal * ideal
        ideal * twin
        assert (sizes, outside) == ([2, 2], [])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_product_asks_for_four_generators_formed_on_integers(self, m, monkeypatch):
        params = field_params(m)
        rng = Random(f"product-shape:{m}")
        ideal, other = (IdealHNF.principal(params, random_integral_element(rng, params, 4)) for _ in range(2))
        assert ideal != other
        sizes, outside = self.record_products(monkeypatch)
        ideal * other
        assert (sizes, outside) == ([4], [])

    def test_huge_non_integral_generator_is_quoted_briefly(self):
        params = field_params(1)
        z = params.from_theta_coords(Fraction(10**5000 + 1, 3), 0)
        with pytest.raises(ValueError) as info:
            IdealHNF.from_generators(params, [z])
        message = str(info.value)
        assert message.startswith("ideal generator KElement(m=1, 1000") and len(message) < 200
        assert message.endswith("... (length 5021) is not integral")

    @settings(max_examples=300)
    @given(
        st.sampled_from(ORACLE_MS),
        st.one_of(
            st.sampled_from([0, 1, -1]),
            st.integers(-(2**132), 2**132),
            st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
        ),
    )
    def test_principal_matches_from_generators(self, m, value):
        # A rational integer d gives (|d|, 0, |d|) without an HNF; any other
        # generator takes the generic route, which is the oracle here.
        params = field_params(m)
        if isinstance(value, tuple):
            z = params.from_theta_coords(*value)
        else:
            z = params.integer(value)
            d = abs(value)
            assert repr(IdealHNF.principal(params, z)) == f"IdealHNF(m={m}, basis=(({d}, 0), (0, {d})))"
        assert IdealHNF.principal(params, z) == IdealHNF.from_generators(params, [z])

    @pytest.mark.parametrize("value", [3, 0, Fraction(1, 2)], ids=["integer", "zero", "half"])
    def test_principal_across_fields_raises(self, value):
        with pytest.raises(ValueError, match=r"^mixed fields: m=1 vs m=2$"):
            IdealHNF.principal(field_params(1), field_params(2).integer(value))
        with pytest.raises(ValueError, match=r"^mixed fields: m=1 vs m=2$"):
            IdealHNF.principal(field_params(1), field_params(2).element(value, 1))

    @pytest.mark.parametrize("m", [1, 3])
    def test_principal_of_a_non_integral_rational_raises(self, m):
        params = field_params(m)
        with pytest.raises(ValueError, match="integral"):
            IdealHNF.principal(params, params.integer(Fraction(3, 2)))

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 11])
    def test_principal_norm(self, m):
        params = field_params(m)
        rng = Random(f"principal:{m}")
        for _ in range(25):
            z = random_integral_element(rng, params, 5)
            if z.is_zero():
                continue
            assert IdealHNF.principal(params, z).norm() == z.norm()


class TestSquarefreeDivisors:
    @pytest.mark.parametrize(
        "d_K,expected",
        [(-4, [1, 2]), (-20, [1, 2, 5, 10]), (-3, [1, 3]), (-84, [1, 2, 3, 6, 7, 14, 21, 42])],
    )
    def test_examples(self, d_K, expected):
        assert squarefree_divisors(d_K) == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 30, 165])
    def test_count_is_power_of_two(self, m):
        params = field_params(m)
        nu = len(prime_factors(params.d_K))
        assert len(squarefree_divisors(params.d_K)) == 2**nu

    def test_smooth_numbers_of_any_size_factor(self):
        assert prime_factors(2**60) == {2: 60}
        assert prime_factors(3**50 * 7**40) == {3: 50, 7: 40}

    def test_prime_below_factoring_limit_factors(self):
        p = 17592186044399  # the largest prime below 2**44
        assert prime_factors(p) == {p: 1}
        assert prime_factors(6 * p) == {2: 1, 3: 1, p: 1}

    def test_large_unfactored_cofactor_raises(self):
        n = (2**31 - 1) * (2**61 - 1)
        with pytest.raises(ValueError, match=f"cannot factor {n}.*2\\*\\*44"):
            prime_factors(n)

    def test_huge_unfactored_cofactor_is_quoted_briefly(self):
        # past the 2**44 limit, so factoring stops after trial division to 2**22
        n = 10**600 * 35184372088891
        with pytest.raises(ValueError) as info:
            prime_factors(n)
        message = str(info.value)
        assert message.startswith("cannot factor 3518437208889100")
        assert "... (length 614): cofactor 35184372088891 has no" in message
        assert len(message) < 200

    def test_zero_raises_instead_of_looping(self):
        # 0 is divisible by 2 forever, so this looped; a subprocess keeps a
        # hang from stalling the suite
        code = (
            "from bianchimax import prime_factors\n"
            "try:\n"
            "    prime_factors(0)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=ENV, timeout=10
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "cannot factor 0: every prime power divides it\n"

    @given(
        small=st.lists(st.sampled_from(SMALL_PRIMES), max_size=3),
        large=st.one_of(
            st.just(()),
            st.tuples(LARGE_PRIME),
            LARGE_PRIME.map(lambda p: (p, p)),
            st.tuples(LARGE_PRIME, LARGE_PRIME),
        ),
    )
    @settings(max_examples=25)
    def test_squarefree_rule_matches_sympy(self, small, large):
        # each example with two large primes runs trial division to 2**22
        n = prod(small) * prod(large)
        assume(n < 2**66)
        exponents = pytest.importorskip("sympy").factorint(n)
        f = squarefree_part(n)
        assert f == prod(p for p, e in exponents.items() if e % 2)
        assert (f == n) == all(e == 1 for e in exponents.values())
        if f == n:
            _check_squarefree("n", n, 66)
        else:
            message = rf"^n must be squarefree, but {isqrt(n // f)}\*\*2 divides {n}$"
            with pytest.raises(ValueError, match=message):
                _check_squarefree("n", n, 66)

    def test_squarefree_part(self):
        assert squarefree_part(1) == 1
        assert squarefree_part(4) == 1
        assert squarefree_part(12) == 3
        assert squarefree_part(360) == 10
        with pytest.raises(ValueError):
            squarefree_part(0)

    def test_huge_negative_is_quoted_briefly(self):
        # more digits than repr of an int may print
        with pytest.raises(ValueError) as info:
            squarefree_part(-(10**5000))
        message = str(info.value)
        assert message.startswith("squarefree_part requires a positive integer, got -1000")
        assert message.endswith("... (length 5002)") and len(message) < 200

    @pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1], ids=["2**31-1", "2**61-1"])
    def test_perfect_square_is_not_trial_divided(self, p, monkeypatch):
        # trial division of p*p runs to 2**22 before it finds p
        def forbidden(n):
            raise AssertionError("a perfect square was trial-divided")

        monkeypatch.setattr("bianchimax.field._trial_division", forbidden)
        assert squarefree_part(p * p) == 1
        assert squarefree_part(4 * p * p) == 1


class TestQuote:
    """_quote prints a value as repr does, cut to 80 characters plus its length,
    and prints no integer in full: past 4300 digits printing an int raises."""

    @pytest.mark.parametrize(
        "value",
        [0, -7, Fraction(1, 3), Fraction(-22, 7), FractionSubclass(5, 2), KElement(5, 5, 1),
         KElement(3, Fraction(1, 2), Fraction(-7, 2)), KElement(2, 0, Fraction(1, 9)), "text",
         [0, 1], 2.5],
    )
    def test_short_value_is_its_repr(self, value):
        assert _quote(value) == repr(value)

    @pytest.mark.parametrize(
        "value",
        [-(10**1000), Fraction(10**1000, 7), Fraction(-1, 10**1000), FractionSubclass(1, 3 * 10**99),
         KElement(1, 10**1000, 0), KElement(3, Fraction(10**500, 3), Fraction(-1, 10**700)),
         KElement(5, 1, Fraction(1, 10**1000))],
        ids=["int", "numerator", "denominator", "subclass", "element-x", "element-both",
             "element-y-denominator"],
    )
    def test_long_value_is_a_cut_repr(self, value):
        # below the digit limit repr itself is the oracle
        text = repr(value)
        assert _quote(value) == f"{text[:80]}... (length {len(text)})"

    @pytest.mark.parametrize(
        "value,prefix,length",
        [(Fraction(10**4400, 3), "Fraction(1000", 4414),
         (Fraction(3, -(10**5000)), "Fraction(-3, 1000", 5015),
         (KElement(1, 10**4400, 0), "KElement(m=1, 1000", 4419),
         (KElement(1, 1, Fraction(1, 10**5000)), "KElement(m=1, 1, 1/1000", 5021)],
        ids=["fraction", "fraction-denominator", "element", "element-denominator"],
    )
    def test_value_past_the_digit_limit_is_quoted_briefly(self, value, prefix, length):
        quoted = _quote(value)
        assert quoted.startswith(prefix) and len(quoted) == 80 + len(f"... (length {length})")
        assert quoted.endswith(f"... (length {length})")
