"""The group of unit-determinant matrices (1/sqrt(d))*M with M integral over K.

Every element is kept in a canonical form (f, A): f is the positive squarefree
part of d and A = M / sqrt(d/f) has entries in K with det A = f.  Squarefree
parts of positive integers are unique, so two values represent the same
complex matrix exactly when their canonical forms coincide.

A itself is stored as (g, C): C holds the eight integer {1, theta}-coordinates
of g*A, row-major, and g >= 1 is the least integer that makes g*A integral.
The triple (f, g, C) is as unique as (f, A), so equality, hashing, coset
labels and integrality tests are componentwise integer checks, and products,
inverses and negation run on Python ints.  The entries of A as K-elements
are derived views.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

from .field import (
    KElement,
    _cancel,
    _check_int,
    _check_squarefree,
    _Frozen,
    _least_denominator,
    _quote,
    _same_field,
    field_params,
    squarefree_part,
    theta_product,
)

Rows = tuple[tuple[KElement, KElement], tuple[KElement, KElement]]
Coords = tuple[int, int, int, int, int, int, int, int]


def _scaled_coords(rows: Sequence[Sequence[KElement]]) -> tuple[int, int, Coords]:
    """(m, g, C) for a 2x2 matrix A over one field: g is the least positive
    integer making g*A integral and C the theta-coordinates of g*A."""
    (a, b), (c, d) = rows
    coords: list[Fraction] = []
    for entry in (a, b, c, d):
        _same_field(a.m, entry.m)
        coords += entry.theta_coords()
    return a.m, *_least_denominator(coords)  # type: ignore[return-value]


def _det_coords(t: int, n: int, c: Coords) -> tuple[int, int]:
    """Theta-coordinates of the determinant of the matrix with coordinates c."""
    p0, p1 = theta_product(t, n, c[0], c[1], c[6], c[7])
    q0, q1 = theta_product(t, n, c[2], c[3], c[4], c[5])
    return p0 - q0, p1 - q1


def _product_coords(t: int, n: int, x: Coords, y: Coords) -> Coords:
    """Coordinates of the product of the matrices with coordinates x and y."""
    out: list[int] = []
    for i in (0, 4):
        for j in (0, 2):
            p0, p1 = theta_product(t, n, x[i], x[i + 1], y[j], y[j + 1])
            q0, q1 = theta_product(t, n, x[i + 2], x[i + 3], y[j + 4], y[j + 5])
            out += (p0 + q0, p1 + q1)
    return tuple(out)  # type: ignore[return-value]


def _check_det(m: int, g: int, coords: Coords, matrix: str, name: str, value: int) -> None:
    """Raise ValueError unless the matrix with coordinates coords/g has
    determinant `value`; the message quotes both numbers briefly."""
    params = field_params(m)
    det = _det_coords(params.theta_trace, params.theta_norm, coords)
    if det != (g * g * value, 0):
        got = params.from_theta_coords(Fraction(det[0], g * g), Fraction(det[1], g * g))
        raise ValueError(f"det {matrix} = {_quote(got)} does not match {name} = {_quote(value)}")


# Every member of a maximal extension has f dividing |d_K| <= 4m, and m is
# below 2**64, so the cap on f follows from the cap on m; d = g*g*f of an
# integral representative is then below (2**66)**2.
_F_BITS, _D_BITS = 66, 132


class ExtendedMatrix(_Frozen):
    """(1/sqrt(f)) * A with f squarefree, 1 <= f < 2**66, A over K and det A = f.

    A is held as g*A = C: `g` is the least positive integer making g*A
    integral and `coords` the theta-coordinates of C, row-major.
    """

    __slots__ = ("m", "f", "g", "coords")

    def __new__(cls, f: int, rows: Sequence[Sequence[KElement]]) -> ExtendedMatrix:
        m, g, coords = _scaled_coords(rows)
        _check_squarefree("denominator part", f, _F_BITS)
        _check_det(m, g, coords, "A", "f", f)
        return cls._new(m, f, g, coords)

    @classmethod
    def _raw(cls, m: int, f: int, g: int, coords: Coords) -> "ExtendedMatrix":
        _check_int("denominator part", f, _F_BITS)
        return cls._new(m, f, g, coords)

    @classmethod
    def _reduced(cls, m: int, f: int, g: int, coords: Coords) -> "ExtendedMatrix":
        """The element with g*A = C, after cancelling common factors of g and C."""
        return cls._raw(m, f, *_cancel(g, coords))

    @classmethod
    def from_integral(cls, d: int, rows: Sequence[Sequence[KElement]]) -> "ExtendedMatrix":
        """Canonicalize (1/sqrt(d))*M for an integral matrix M with det M = d.

        Like every other route, this raises ValueError if the squarefree part
        f of d is not below 2**66.  d itself must be an int below 2**132 =
        (2**66)**2, which is checked before d is factored.
        """
        _check_int("d", d, _D_BITS)
        m, scale, coords = _scaled_coords(rows)
        if scale != 1:
            entry = next(z for row in rows for z in row if not z.is_integral())
            raise ValueError(f"matrix entry {_quote(entry)} is not integral")
        return cls._from_coords(m, d, coords)

    @classmethod
    def _from_coords(cls, m: int, d: int, coords: Coords) -> "ExtendedMatrix":
        """from_integral's core, for M given by its integer theta-coordinates:
        checks det M = d, then cancels the square part of d into g."""
        _check_det(m, 1, coords, "M", "d", d)
        f = squarefree_part(d)
        return cls._reduced(m, f, isqrt(d // f), coords)

    @classmethod
    def identity(cls, m: int) -> "ExtendedMatrix":
        field_params(m)  # validates m
        return cls._raw(m, 1, 1, (1, 0, 0, 0, 0, 0, 1, 0))

    @property
    def rows(self) -> Rows:
        a, b, c, d = self.entries
        return ((a, b), (c, d))

    @property
    def entries(self) -> tuple[KElement, KElement, KElement, KElement]:
        params = field_params(self.m)
        g, c = self.g, self.coords
        return tuple(  # type: ignore[return-value]
            params.from_theta_coords(Fraction(c[i], g), Fraction(c[i + 1], g))
            for i in range(0, 8, 2)
        )

    def __repr__(self) -> str:
        a, b, c, d = self.entries
        return f"ExtendedMatrix(m={self.m}, f={self.f}, [[{a}, {b}], [{c}, {d}]])"

    def __mul__(self, other: object) -> "ExtendedMatrix":
        if not isinstance(other, ExtendedMatrix):
            return NotImplemented
        _same_field(self.m, other.m)
        params = field_params(self.m)
        prod = _product_coords(params.theta_trace, params.theta_norm, self.coords, other.coords)
        # (1/sqrt(f1))A1 * (1/sqrt(f2))A2 = (1/sqrt(f))(A1*A2/common) with
        # f = f1*f2/common**2, so the scale of A1*A2/common is g1*g2*common.
        common = gcd(self.f, other.f)
        new_f = (self.f * other.f) // (common * common)
        return ExtendedMatrix._reduced(self.m, new_f, self.g * other.g * common, prod)

    def inverse(self) -> "ExtendedMatrix":
        a0, a1, b0, b1, c0, c1, d0, d1 = self.coords
        return ExtendedMatrix._raw(self.m, self.f, self.g, (d0, d1, -b0, -b1, -c0, -c1, a0, a1))

    def __neg__(self) -> "ExtendedMatrix":
        return ExtendedMatrix._raw(
            self.m, self.f, self.g, tuple(-x for x in self.coords)  # type: ignore[arg-type]
        )

    def is_integral(self) -> bool:
        """Membership in SL2 of the ring of integers: f = 1 and integral entries."""
        return self.f == 1 and self.g == 1

    def integral_representative(self) -> tuple[int, tuple[KElement, ...]]:
        """(d, entries of M) with M = g*A integral and det M = d = g*g*f minimal."""
        params = field_params(self.m)
        c = self.coords
        entries = tuple(params.from_theta_coords(c[i], c[i + 1]) for i in range(0, 8, 2))
        return self.g * self.g * self.f, entries


def is_algebraic_integer(z: KElement, f: int) -> bool:
    """Whether w = z / sqrt(f) is an algebraic integer, for f positive squarefree.

    w is a root of the monic X**2 - w**2 with w**2 = z*z/f in K, so w is
    integral exactly when w**2 lies in the ring of integers.  f is checked as
    the constructor checks it: an int below 2**66, the cap on every
    ExtendedMatrix's f, before f is factored.
    """
    _check_squarefree("denominator part", f, _F_BITS)
    return (z * z / f).is_integral()
