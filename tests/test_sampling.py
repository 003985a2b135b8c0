"""The matrix builders of sampling and atkin_lehner work on integer
coordinates: they build no KElement, and each gives the same matrix, drawn in
the same random order, as its KElement form kept here as the oracle."""

import hashlib
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchimax import (
    ExtendedMatrix,
    KElement,
    atkin_lehner,
    bezout_pair,
    field_params,
    squarefree_divisors,
    units_of,
)
from bianchimax.sampling import (
    integral_matrices_with_det,
    matrix_from_coords,
    random_ambient_element,
    random_coset_element,
    random_integral_element,
    random_unimodular,
    random_zero_corner_element,
)

NINE_FIELDS = [1, 2, 3, 5, 6, 7, 10, 11, 15]


def units_oracle(params):
    one = params.integer(1)
    if params.m == 1:
        return (one, -one, params.element(0, 1), params.element(0, -1))
    if params.m == 3:
        units = [one]
        for _ in range(5):
            units.append(units[-1] * params.theta)
        return tuple(units)
    return (one, -one)


def random_element_oracle(rng, params, height):
    return params.from_theta_coords(rng.randint(-height, height), rng.randint(-height, height))


def random_unimodular_oracle(rng, params, length=4, height=2):
    zero, one = params.integer(0), params.integer(1)
    result = ExtendedMatrix.identity(params.m)
    flip = ExtendedMatrix(1, ((zero, -one), (one, zero)))
    for _ in range(length):
        z = random_element_oracle(rng, params, height)
        if rng.random() < 0.5:
            step = ExtendedMatrix(1, ((one, z), (zero, one)))
        else:
            step = ExtendedMatrix(1, ((one, zero), (z, one)))
        result = result * step
        if rng.random() < 0.25:
            result = result * flip
    return result


def atkin_lehner_oracle(params, d, u, v):
    omega = params.element(params.m, 1)
    rows = (
        (params.integer(u * d), omega * v),
        (omega.conjugate(), params.integer(d)),
    )
    return ExtendedMatrix.from_integral(d, rows)


def random_coset_oracle(rng, params, d, length=3, height=2):
    left = random_unimodular_oracle(rng, params, length, height)
    right = random_unimodular_oracle(rng, params, length, height)
    return left * atkin_lehner_oracle(params, d, *bezout_pair(params, d)) * right


def random_ambient_oracle(rng, params, max_d=8, length=2, height=2):
    d = rng.randint(1, max_d)
    left = random_unimodular_oracle(rng, params, length, height)
    right = random_unimodular_oracle(rng, params, length, height)
    scale = ExtendedMatrix.from_integral(
        d, ((params.integer(d), params.integer(0)), (params.integer(0), params.integer(1)))
    )
    return left * scale * right


def random_zero_corner_oracle(rng, params, f=1, height=2):
    u = rng.choice(units_oracle(params))
    z = random_element_oracle(rng, params, height)
    rows = ((params.integer(0), -u), (u.conjugate() * f, z))
    return ExtendedMatrix.from_integral(f, rows)


def matrix_from_coords_oracle(params, coords, det):
    e = [params.from_theta_coords(a, b) for a, b in coords]
    return ExtendedMatrix.from_integral(det, ((e[0], e[1]), (e[2], e[3])))


def outcome(build, *args):
    """build(*args), or the text of the ValueError it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("m", NINE_FIELDS)
def test_units_match_the_oracle(m):
    params = field_params(m)
    assert units_of(params) == units_oracle(params)


@pytest.mark.parametrize("m", NINE_FIELDS)
def test_atkin_lehner_matches_the_oracle(m):
    params = field_params(m)
    for d in squarefree_divisors(params.d_K):
        for shift in range(3):
            u, v = bezout_pair(params, d, shift)
            assert atkin_lehner(params, d, shift) == atkin_lehner_oracle(params, d, u, v)


@settings(max_examples=200)
@given(
    st.sampled_from(NINE_FIELDS),
    st.sampled_from(["unimodular", "coset", "ambient", "zero_corner"]),
    st.integers(0, 2**32),
    st.integers(0, 5),
    st.integers(0, 3),
    st.integers(1, 12),
)
def test_random_builders_match_the_oracle(m, kind, seed, length, height, size):
    """The same matrix from the same seed, and the generator left in the same
    state, so every later draw is the same too."""
    params = field_params(m)
    divisors = squarefree_divisors(params.d_K)
    args = {
        "unimodular": (length, height),
        "coset": (divisors[size % len(divisors)], length, height),
        "ambient": (size, length, height),
        "zero_corner": (size, height),
    }[kind]
    builders = {
        "unimodular": (random_unimodular, random_unimodular_oracle),
        "coset": (random_coset_element, random_coset_oracle),
        "ambient": (random_ambient_element, random_ambient_oracle),
        "zero_corner": (random_zero_corner_element, random_zero_corner_oracle),
    }[kind]
    results = []
    for build in builders:
        rng = Random(seed)
        results.append((build(rng, params, *args), rng.getstate()))
    assert results[0] == results[1]


@settings(max_examples=300)
@given(
    st.sampled_from(NINE_FIELDS),
    st.lists(st.integers(-3, 3), min_size=8, max_size=8),
    st.integers(-1, 1),
)
def test_matrix_from_coords_matches_the_oracle(m, flat, offset):
    """The same matrix, or the same error, for the determinant moved by
    offset.  A determinant outside the integers becomes 1, so the determinant
    check fails.  A d below 1 fails in both, though the oracle's from_integral
    rejects it before the determinant check."""
    params = field_params(m)
    coords = tuple(zip(flat[::2], flat[1::2]))
    a, b, c, d = (params.from_theta_coords(x, y) for x, y in coords)
    det = a * d - b * c
    det = int(det.a) + offset if det.b == 0 else 1
    new, old = (outcome(build, params, coords, det)
                for build in (matrix_from_coords, matrix_from_coords_oracle))
    if det >= 1:
        assert new == old
    else:
        assert isinstance(new, str) and isinstance(old, str)


@pytest.mark.parametrize("m", NINE_FIELDS)
def test_matrix_from_coords_matches_the_oracle_on_a_det_bucket(m):
    params = field_params(m)
    bucket = list(integral_matrices_with_det(params, 1, set(range(1, 11))))
    assert len(bucket) > 100
    for det, coords in bucket:
        assert matrix_from_coords(params, coords, det) == matrix_from_coords_oracle(
            params, coords, det
        )


@pytest.mark.parametrize("m", NINE_FIELDS)
def test_builders_build_no_k_element(m, monkeypatch):
    params = field_params(m)  # cached, with its theta, before the patch
    divisors = squarefree_divisors(params.d_K)
    bucket = list(integral_matrices_with_det(params, 1, set(divisors)))
    rng = Random(f"guard:{m}")

    def forbidden(*args):
        raise AssertionError("a builder made a KElement")

    monkeypatch.setattr(KElement, "_new", forbidden)
    built = [atkin_lehner(params, d) for d in divisors]
    built += [random_unimodular(rng, params) for _ in range(5)]
    built += [random_coset_element(rng, params, d) for d in divisors]
    built += [random_ambient_element(rng, params) for _ in range(5)]
    built += [random_zero_corner_element(rng, params, f) for f in (1, 2)]
    built += [matrix_from_coords(params, coords, det) for det, coords in bucket]
    monkeypatch.undo()
    assert len(bucket) > 0
    assert all(isinstance(mat, ExtendedMatrix) for mat in built)


SAMPLES_SHA256 = "ec60d38cf3e33f6291d5c9078c87820ea4f051ce4d5c4a9c759fec795f3098bf"


def test_seeded_samples_are_pinned():
    """A digest of what the seeded samplers draw over the nine fields.

    The pin table hashes `verify`'s pass/fail counts, which stay the same when
    a sampler draws other valid samples (say, from a reordered unit list);
    this digest of every sample's (m, f, g, coords) moves.
    """
    rows = []
    for m in NINE_FIELDS:
        params = field_params(m)
        rng = Random(f"pinned:{m}")
        mats = [random_unimodular(rng, params) for _ in range(4)]
        mats += [random_coset_element(rng, params, d) for d in squarefree_divisors(params.d_K)]
        mats += [random_ambient_element(rng, params) for _ in range(4)]
        mats += [random_zero_corner_element(rng, params, f) for f in (1, 2) for _ in range(8)]
        rows += [(mat.m, mat.f, mat.g, mat.coords) for mat in mats]
        for _ in range(4):
            a, b = random_integral_element(rng, params).theta_coords()
            rows.append((m, 1, 1, (int(a), int(b))))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == SAMPLES_SHA256
