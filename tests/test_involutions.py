import re
from random import Random

import pytest

from bianchimax import involutions
from bianchimax import (
    BezoutPair,
    ExtendedMatrix,
    IdealHNF,
    KElement,
    atkin_lehner,
    bezout_pair,
    classify_coset,
    coset_law,
    extension_index,
    factor_group_table,
    field_params,
    in_maximal_extension,
    prime_factors,
    squarefree_divisors,
    squarefree_part,
)
from bianchimax.sampling import (
    integral_matrices_with_det,
    matrix_from_coords,
    random_ambient_element,
    random_coset_element,
    random_unimodular,
)


def k(m, x, y=0):
    return KElement(m, x, y)


class TestBezout:
    def test_m1_d1(self):
        assert bezout_pair(field_params(1), 1) == BezoutPair(1, 0)

    def test_m1_d2(self):
        assert bezout_pair(field_params(1), 2) == BezoutPair(1, 1)

    def test_m5_d2(self):
        assert bezout_pair(field_params(5), 2) == BezoutPair(8, 1)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 10, 11, 15, 21, 30])
    def test_solves_equation_for_all_divisors(self, m):
        params = field_params(m)
        for d in squarefree_divisors(params.d_K):
            for shift in range(3):
                pair = bezout_pair(params, d, shift)
                assert pair.u * d - pair.v * (params.norm_omega // d) == 1
            canonical = bezout_pair(params, d)
            assert 0 < canonical.u <= params.norm_omega // d


class TestAtkinLehner:
    def test_m1_d1_frozen(self):
        v = atkin_lehner(field_params(1), 1)
        assert v == ExtendedMatrix(1, ((k(1, 1), k(1, 0)), (k(1, 1, -1), k(1, 1))))
        assert v.is_integral()

    def test_m1_d2_frozen(self):
        v = atkin_lehner(field_params(1), 2)
        assert v == ExtendedMatrix(2, ((k(1, 2), k(1, 1, 1)), (k(1, 1, -1), k(1, 2))))

    def test_m5_d2_frozen(self):
        v = atkin_lehner(field_params(5), 2)
        assert v == ExtendedMatrix(2, ((k(5, 16), k(5, 5, 1)), (k(5, 5, -1), k(5, 2))))

    def test_invalid_divisors_rejected(self):
        params = field_params(5)
        with pytest.raises(ValueError, match=r"^d must be squarefree, but 2\*\*2 divides 4$"):
            atkin_lehner(params, 4)
        with pytest.raises(ValueError, match="divide"):
            atkin_lehner(params, 3)
        with pytest.raises(ValueError, match=r"^d must be a positive integer, got -2$"):
            atkin_lehner(params, -2)

    @pytest.mark.parametrize("d", [2**66, 2**66 * 20, 10**3999],
                             ids=["2**66", "20*2**66", "10**3999"])
    def test_divisor_cap_comes_first(self, d, monkeypatch):
        # |d_K| <= 4m < 2**66, so no divisor reaches the cap, and d is refused
        # before it is tested for squares
        monkeypatch.setattr("bianchimax.involutions._require_squarefree", None)
        for build in (bezout_pair, atkin_lehner):
            with pytest.raises(ValueError, match=r"^d must be below 2\*\*66, got \d"):
                build(field_params(5), d)

    @pytest.mark.parametrize("d,shown", [(True, "True (bool)"), (2.0, "2.0 (float)"),
                                         (10.0, "10.0 (float)")])
    def test_divisor_that_is_not_an_int_raises_type_error(self, d, shown):
        # True divides every |d_K|, and a float reached pow() unnamed
        params = field_params(5)
        for build in (bezout_pair, atkin_lehner):
            with pytest.raises(TypeError, match=rf"^d must be an int, got {re.escape(shown)}$"):
                build(params, d)

    @pytest.mark.parametrize("build,error,message", [
        (lambda p: bezout_pair(p, 2, 0.5), TypeError, "shift must be an int, got 0.5 (float)"),
        (lambda p: bezout_pair(p, 2, True), TypeError, "shift must be an int, got True (bool)"),
        (lambda p: bezout_pair(p, 2, -3), ValueError, "shift must be non-negative, got -3"),
        (lambda p: atkin_lehner(p, 2, BezoutPair(8.0, 1)), TypeError,
         "u must be an int, got 8.0 (float)"),
        (lambda p: BezoutPair(8, True), TypeError, "v must be an int, got True (bool)"),
        (lambda p: atkin_lehner(p, 2, (8, 1)), TypeError,
         "pair must be a BezoutPair, got (8, 1) (tuple)"),
    ], ids=["float-shift", "bool-shift", "negative-shift", "float-u", "bool-v", "tuple-pair"])
    def test_bezout_argument_that_is_not_a_valid_int_is_named(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build(field_params(5))

    @pytest.mark.parametrize("m", [m for m in range(1, 51) if squarefree_part(m) == m])
    def test_bezout_choice_does_not_change_coset(self, m):
        params = field_params(m)
        for d in squarefree_divisors(params.d_K):
            variants = [
                atkin_lehner(params, d, bezout_pair(params, d, shift)) for shift in range(3)
            ]
            assert len(set(variants)) == 3
            for v in variants:
                for w in variants:
                    assert (v * w.inverse()).is_integral()
                    assert (w.inverse() * v).is_integral()

    @pytest.mark.parametrize("m", [1, 3, 5, 10])
    def test_normalizes_integral_subgroup(self, m):
        params = field_params(m)
        rng = Random(f"normal:{m}")
        for d in squarefree_divisors(params.d_K):
            v = atkin_lehner(params, d)
            for _ in range(6):
                g = random_unimodular(rng, params)
                assert (v * g * v.inverse()).is_integral()

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 10, 11, 15])
    def test_squares_are_integral(self, m):
        params = field_params(m)
        for d in squarefree_divisors(params.d_K):
            v = atkin_lehner(params, d)
            assert (v * v).is_integral()


class TestMembership:
    def test_integral_elements_are_members(self):
        params = field_params(1)
        rng = Random("members")
        for _ in range(10):
            assert in_maximal_extension(random_unimodular(rng, params))

    def test_involution_is_member(self):
        assert in_maximal_extension(atkin_lehner(field_params(1), 2))

    def test_scaled_identity_not_member(self):
        # (1/sqrt(4)) * 2I is the identity; (1/sqrt(2)) * [[2,0],[1-i,1]] is not a member
        params = field_params(1)
        mat = ExtendedMatrix.from_integral(
            2, ((k(1, 2), k(1, 0)), (k(1, 1, -1), k(1, 1)))
        )
        assert not in_maximal_extension(mat)

    def test_det3_never_member_for_m1(self):
        # 3 does not divide d_K = -4, so no height-2 matrix of det 3 is a member
        params = field_params(1)
        count = 0
        for det, coords in integral_matrices_with_det(params, 2, {3}):
            assert not in_maximal_extension(matrix_from_coords(params, coords, det))
            count += 1
        assert count > 0

    def test_diag_sandwich_not_member(self):
        params = field_params(1)
        rng = Random("sandwich")
        for _ in range(10):
            mat = random_ambient_element(rng, params, max_d=8)
            if mat.f == 1 and mat.is_integral():
                assert in_maximal_extension(mat)
            elif mat.f not in squarefree_divisors(params.d_K):
                assert not in_maximal_extension(mat)

    def test_non_integral_canonical_form_rejected(self):
        # (1/sqrt(8)) [[3, 1], [1, 3]] canonicalizes to f=2 with half-integer
        # entries; the minimal integral representative has unit content, so
        # content**2 = <1> != <8>
        params = field_params(1)
        mat = ExtendedMatrix.from_integral(
            8, ((k(1, 3), k(1, 1)), (k(1, 1), k(1, 3)))
        )
        assert mat.f == 2
        assert not all(z.is_integral() for z in mat.entries)
        d, entries = mat.integral_representative()
        assert d == 8 and all(z.is_integral() for z in entries)
        assert not in_maximal_extension(mat)


    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_norm_identity_decides_membership(self, m):
        # The entries a, b, c, d of B lie in their ideal I, so det B = ad - bc
        # lies in I**2, and I**2 == (det B) exactly when N(I) == det B.  The
        # inputs are those of the benchmark's membership sweep: height-2
        # matrices whose squarefree determinant divides |d_K| or is at most 10.
        params = field_params(m)
        wanted = set(squarefree_divisors(params.d_K))
        wanted |= {d for d in range(2, 11) if squarefree_part(d) == d}
        inputs = list(integral_matrices_with_det(params, 2, wanted))
        answers = []
        for det, coords in Random(f"norm-identity:{m}").sample(inputs, 1000):
            mat = matrix_from_coords(params, coords, det)
            det_b, entries = mat.integral_representative()
            by_norm = IdealHNF.from_generators(params, entries).norm() == det_b
            assert in_maximal_extension(mat) is by_norm, (det, coords)
            answers.append(by_norm)
        assert 0 < sum(answers) < len(answers)

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_criterion_builds_two_hnfs(self, m, monkeypatch):
        # The content ideal and its square; (det B) is written down in closed form.
        generic = IdealHNF.from_generators.__func__
        calls = []

        def counting(cls, params, gens):
            calls.append(gens)
            return generic(cls, params, gens)

        monkeypatch.setattr(IdealHNF, "from_generators", classmethod(counting))
        params = field_params(m)
        d = squarefree_divisors(params.d_K)[-1]
        for mat, member in [
            (atkin_lehner(params, d), True),
            (random_coset_element(Random(f"two-hnfs:{m}"), params, d), True),
            (ExtendedMatrix.from_integral(3, ((k(m, 3), k(m, 1)), (k(m, 0), k(m, 1)))), False),
        ]:
            calls.clear()
            assert in_maximal_extension(mat) is member
            assert len(calls) == 2


class TestClassification:
    def test_integral_gets_label_one(self):
        params = field_params(5)
        rng = Random("label1")
        for _ in range(5):
            assert classify_coset(random_unimodular(rng, params)) == 1

    def test_involution_label(self):
        assert classify_coset(atkin_lehner(field_params(1), 2)) == 2

    def test_involution_square_label(self):
        v = atkin_lehner(field_params(1), 2)
        assert classify_coset(v * v) == 1

    def test_non_member_gets_label_zero(self):
        params = field_params(1)
        mat = ExtendedMatrix.from_integral(
            2, ((k(1, 2), k(1, 0)), (k(1, 1, -1), k(1, 1)))
        )
        assert classify_coset(mat) == 0

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_product_law(self, m):
        params = field_params(m)
        divisors = squarefree_divisors(params.d_K)
        for d in divisors:
            for e in divisors:
                prod = atkin_lehner(params, d) * atkin_lehner(params, e)
                assert classify_coset(prod) == coset_law(d, e)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_coset_samples_classify_back(self, m):
        params = field_params(m)
        rng = Random(f"classify:{m}")
        for d in squarefree_divisors(params.d_K):
            for _ in range(5):
                assert classify_coset(random_coset_element(rng, params, d)) == d

    def test_denominator_outside_d_k_gets_label_zero(self):
        params = field_params(1)
        mat = ExtendedMatrix.from_integral(
            3, ((params.integer(3), params.integer(0)), (params.integer(0), params.integer(1)))
        )
        assert mat.f == 3 and abs(params.d_K) % 3 != 0
        assert classify_coset(mat) == 0

    def test_inverse_cache_is_keyed_by_field_and_divisor(self):
        p1, p5 = field_params(1), field_params(5)
        m1_member = atkin_lehner(p1, 2)
        m5_member = atkin_lehner(p5, 2) * random_unimodular(Random("key"), p5)
        m5_non_member = ExtendedMatrix.from_integral(
            2, ((p5.integer(2), p5.integer(0)), (p5.integer(0), p5.integer(1)))
        )
        assert (m1_member.f, m5_member.f, m5_non_member.f) == (2, 2, 2)
        cases = [(m1_member, 2), (m5_member, 2), (m5_non_member, 0)]
        for order in (cases, cases[::-1]):
            involutions._atkin_lehner_inverse.cache_clear()
            for mat, label in order:
                assert classify_coset(mat) == label

    @pytest.mark.parametrize("m", [1, 5])
    def test_members_classify_by_certificate_alone(self, m, monkeypatch):
        def unexpected(mat):
            raise AssertionError("classify_coset ran the ideal criterion")

        monkeypatch.setattr(involutions, "in_maximal_extension", unexpected)
        params = field_params(m)
        rng = Random(f"certificate:{m}")
        for d in squarefree_divisors(params.d_K):
            for _ in range(3):
                assert classify_coset(random_coset_element(rng, params, d)) == d
        # Non-members: a denominator outside |d_K|, and one inside it whose
        # product with V_f**-1 is not integral.
        for f in (3, 2):
            diag = ExtendedMatrix.from_integral(
                f, ((params.integer(f), params.integer(0)), (params.integer(0), params.integer(1)))
            )
            assert diag.f == f
            assert classify_coset(diag) == 0


class TestCosetLaw:
    def test_self_product_is_identity(self):
        for d in (1, 2, 5, 10, 42):
            assert coset_law(d, d) == 1

    def test_one_is_identity(self):
        for e in (1, 2, 5, 10):
            assert coset_law(1, e) == e

    def test_d20_example(self):
        assert coset_law(2, 10) == 5

    def test_symmetric_difference_of_supports(self):
        for d in (1, 2, 3, 6, 7, 14, 21, 42):
            for e in (1, 2, 3, 6, 7, 14, 21, 42):
                supports = set(prime_factors(d)) ^ set(prime_factors(e))
                expected = 1
                for p in supports:
                    expected *= p
                assert coset_law(d, e) == expected


class TestIndexAndTable:
    @pytest.mark.parametrize("m,index", [(1, 2), (5, 4), (3, 2), (30, 8), (21, 8)])
    def test_index_examples(self, m, index):
        assert extension_index(field_params(m)) == index

    def test_table_m1(self):
        labels, table = factor_group_table(field_params(1))
        assert labels == [1, 2]
        assert table == [[1, 2], [2, 1]]

    def test_table_m5_klein_four(self):
        labels, table = factor_group_table(field_params(5))
        assert labels == [1, 2, 5, 10]
        assert table[labels.index(2)][labels.index(5)] == 10

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 15, 30])
    def test_rows_are_permutations_and_self_inverse(self, m):
        labels, table = factor_group_table(field_params(m))
        for i, row in enumerate(table):
            assert sorted(row) == labels
            assert table[i][i] == 1


class TestCosetDistinctness:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 15])
    def test_distinct_cosets(self, m):
        params = field_params(m)
        divisors = squarefree_divisors(params.d_K)
        for d in divisors:
            for e in divisors:
                if d != e:
                    prod = atkin_lehner(params, d) * atkin_lehner(params, e).inverse()
                    assert not prod.is_integral()
