"""Deterministic generation of group elements for property checks.

Random sampling walks products of elementary matrices (exact, seeded), and
the exhaustive enumerator walks every integral 2x2 matrix whose entries have
basis coordinates within a height bound, bucketing by integer determinant.
The determinant scan runs on raw integer coordinate pairs so the full
height-2 sweep (about 4*10**5 matrices) stays fast.  Every matrix is built
from integer theta-coordinates, with no KElement.
"""

from __future__ import annotations

from random import Random
from typing import Iterator

from .field import FieldParams, KElement, _unit_coords, basis_conjugate, theta_product
from .involutions import atkin_lehner
from .matrices import ExtendedMatrix

Coord = tuple[int, int]
MatrixCoords = tuple[Coord, Coord, Coord, Coord]


def _random_coords(rng: Random, height: int) -> Coord:
    return rng.randint(-height, height), rng.randint(-height, height)


def random_integral_element(rng: Random, params: FieldParams, height: int = 2) -> KElement:
    return params.from_theta_coords(*_random_coords(rng, height))


def random_unimodular(
    rng: Random, params: FieldParams, length: int = 4, height: int = 2
) -> ExtendedMatrix:
    """A random element of SL2(O_K) as a word in elementary matrices."""
    m = params.m
    result = ExtendedMatrix.identity(m)
    flip = ExtendedMatrix._raw(m, 1, 1, (0, 0, -1, 0, 1, 0, 0, 0))
    for _ in range(length):
        z0, z1 = _random_coords(rng, height)
        if rng.random() < 0.5:
            step = (1, 0, z0, z1, 0, 0, 1, 0)
        else:
            step = (1, 0, 0, 0, z0, z1, 1, 0)
        result = result * ExtendedMatrix._raw(m, 1, 1, step)
        if rng.random() < 0.25:
            result = result * flip
    return result


def random_coset_element(
    rng: Random, params: FieldParams, d: int, length: int = 3, height: int = 2
) -> ExtendedMatrix:
    """A random element of the coset Gamma_K * V_d."""
    left = random_unimodular(rng, params, length, height)
    right = random_unimodular(rng, params, length, height)
    return left * atkin_lehner(params, d) * right


def random_ambient_element(
    rng: Random, params: FieldParams, max_d: int = 8, length: int = 2, height: int = 2
) -> ExtendedMatrix:
    """A random (1/sqrt(d))*M with M integral of determinant d, d <= max_d.

    Sandwiching diag(d, 1) between unimodular words reaches elements far
    outside the maximal discrete extension (their entry ideal is the unit
    ideal), including non-squarefree d that canonicalization reduces.
    """
    d = rng.randint(1, max_d)
    left = random_unimodular(rng, params, length, height)
    right = random_unimodular(rng, params, length, height)
    scale = ExtendedMatrix._from_coords(params.m, d, (d, 0, 0, 0, 0, 0, 1, 0))
    return left * scale * right


def random_zero_corner_element(
    rng: Random, params: FieldParams, f: int = 1, height: int = 2
) -> ExtendedMatrix:
    """An ambient element whose upper-left entry is exactly zero.

    Any such element is (1/sqrt(f)) * [[0, b], [c, d]] with -b*c = f; this
    samples b = -u over the units, which forces c = f*conj(u), and leaves
    d free.
    """
    u0, u1 = rng.choice(_unit_coords(params.m))
    c0, c1 = basis_conjugate(params.theta_trace, u0, u1)
    d0, d1 = _random_coords(rng, height)
    return ExtendedMatrix._from_coords(params.m, f, (0, 0, -u0, -u1, f * c0, f * c1, d0, d1))


def _coordinate_products(params: FieldParams, height: int) -> tuple[list[Coord], list[list[Coord]]]:
    span = range(-height, height + 1)
    entries = [(a, b) for a in span for b in span]
    t, n = params.theta_trace, params.theta_norm
    table = [[theta_product(t, n, a1, b1, a2, b2) for a2, b2 in entries] for a1, b1 in entries]
    return entries, table


def integral_matrices_with_det(
    params: FieldParams, height: int, wanted: set[int]
) -> Iterator[tuple[int, MatrixCoords]]:
    """All integral matrices with basis coordinates in [-height, height] and
    integer determinant in `wanted`, yielded as (det, coordinate 4-tuple)."""
    entries, table = _coordinate_products(params, height)
    count = len(entries)
    pairs = [(i, j) for i in range(count) for j in range(count)]
    for i1, i4 in pairs:
        px, py = table[i1][i4]
        for i2, i3 in pairs:
            qx, qy = table[i2][i3]
            if py == qy and (px - qx) in wanted:
                yield px - qx, (entries[i1], entries[i2], entries[i3], entries[i4])


def matrix_from_coords(params: FieldParams, coords: MatrixCoords, det: int) -> ExtendedMatrix:
    (a0, a1), (b0, b1), (c0, c1), (d0, d1) = coords
    return ExtendedMatrix._from_coords(params.m, det, (a0, a1, b0, b1, c0, c1, d0, d1))
