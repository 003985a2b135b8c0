"""Integer arithmetic in O_K, kept apart from bianchimax on purpose.

The benchmark generates its inputs and checks the program's answers with
this module, so a change to the library can alter neither the workload nor
the oracle.  Elements of O_K are integer pairs (a, b) meaning a + b*theta,
with theta = sqrt(-m), or (1 + sqrt(-m))/2 when m = 3 mod 4; a 2x2 matrix
is a 4-tuple of such pairs in row-major order.  The spin map is recomputed
here with Fractions over the basis {1, sqrt(-m)}.
"""

from __future__ import annotations

import json
from collections import defaultdict
from fractions import Fraction
from math import isqrt

Elt = tuple[int, int]
Mat = tuple[Elt, Elt, Elt, Elt]


def prime_divisors(n: int) -> list[int]:
    n, primes, p = abs(n), [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + ([n] if n > 1 else [])


def squarefree_part(n: int) -> int:
    f, p = 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
        if n % p == 0:
            f *= p
            n //= p
        p += 1
    return f * n


class Ring:
    """O_K for K = Q(sqrt(-m)) on integer {1, theta} coordinates."""

    def __init__(self, m: int) -> None:
        self.m = m
        self.t, self.n = (1, (1 + m) // 4) if m % 4 == 3 else (0, m)
        self.d_K = -m if m % 4 == 3 else -4 * m
        divisors = [1]
        for p in prime_divisors(self.d_K):
            divisors += [d * p for d in divisors]
        self.divisors = sorted(divisors)
        # omega = m + sqrt(-m); sqrt(-m) = 2*theta - 1 when m = 3 mod 4.
        self.omega = (m - 1, 2) if m % 4 == 3 else (m, 1)

    def mul(self, x: Elt, y: Elt) -> Elt:
        (a1, b1), (a2, b2) = x, y
        bb = b1 * b2
        return (a1 * a2 - self.n * bb, a1 * b2 + b1 * a2 + self.t * bb)

    def conj(self, x: Elt) -> Elt:
        return (x[0] + self.t * x[1], -x[1])

    def units(self) -> list[Elt]:
        if self.m == 1:
            return [(1, 0), (-1, 0), (0, 1), (0, -1)]
        if self.m == 3:
            return [(1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1)]
        return [(1, 0), (-1, 0)]

    def matmul(self, x: Mat, y: Mat) -> Mat:
        a, b, c, d = x
        e, f, g, h = y
        mul = self.mul
        return (
            _add(mul(a, e), mul(b, g)), _add(mul(a, f), mul(b, h)),
            _add(mul(c, e), mul(d, g)), _add(mul(c, f), mul(d, h)),
        )

    def det(self, x: Mat) -> Elt:
        a, b, c, d = x
        p, q = self.mul(a, d), self.mul(b, c)
        return (p[0] - q[0], p[1] - q[1])

    def atkin_lehner(self, d: int) -> Mat:
        """The integral matrix A_d of V_d = A_d / sqrt(d), with the Bezout
        pair normalized as the CLI prints it: 0 < u <= N(omega)/d."""
        u, v = self.bezout(d)
        w = self.omega
        return ((u * d, 0), (v * w[0], v * w[1]), self.conj(w), (d, 0))

    def bezout(self, d: int) -> tuple[int, int]:
        n = (self.m * self.m + self.m) // d
        u = pow(d % n, -1, n) if n > 1 else 0
        u = u or n
        return u, (u * d - 1) // n

    def coset_label(self, det: int, x: Mat) -> int:
        """Coset test for x / sqrt(det): the label f if x/sqrt(det) * V_f**-1
        is integral, for f the squarefree part of det, else 0.

        With det = g*g*f, x/sqrt(det) * V_f**-1 = x * adj(A_f) / (g*f), so the
        test is that every coordinate of x * adj(A_f) is divisible by g*f.
        """
        f = squarefree_part(det)
        if abs(self.d_K) % f:
            return 0
        a, b, c, d = self.atkin_lehner(f)
        adj = (d, _neg(b), _neg(c), a)
        g = isqrt(det // f)
        if all(z % (g * f) == 0 for e in self.matmul(x, adj) for z in e):
            return f
        return 0

    def k_coords(self, x: Elt) -> tuple[Fraction, Fraction]:
        """(x, y) with x + y*sqrt(-m) equal to the element a + b*theta."""
        a, b = x
        if self.m % 4 == 3:
            return Fraction(2 * a + b, 2), Fraction(b, 2)
        return Fraction(a), Fraction(b)


def _add(x: Elt, y: Elt) -> Elt:
    return (x[0] + y[0], x[1] + y[1])


def _neg(x: Elt) -> Elt:
    return (-x[0], -x[1])


def unimodular(rng, ring: Ring, length: int, height: int = 2) -> Mat:
    """A word of `length` elementary matrices with entries in [-height, height],
    each followed by [[0, -1], [1, 0]] with probability 1/4."""
    one, zero = (1, 0), (0, 0)
    x: Mat = (one, zero, zero, one)
    for _ in range(length):
        z = (rng.randint(-height, height), rng.randint(-height, height))
        step = (one, z, zero, one) if rng.random() < 0.5 else (one, zero, z, one)
        x = ring.matmul(x, step)
        if rng.random() < 0.25:
            x = ring.matmul(x, (zero, (-1, 0), one, zero))
    return x


def height_matrices(ring: Ring, height: int, dets: list[int]) -> list[tuple[int, Mat]]:
    """Every integral matrix with coordinates in [-height, height] and
    integer determinant in `dets`, as (det, matrix), in a fixed order."""
    span = range(-height, height + 1)
    entries = [(a, b) for a in span for b in span]
    products = [(x, y, ring.mul(x, y)) for x in entries for y in entries]
    by_product: dict[Elt, list[tuple[Elt, Elt]]] = defaultdict(list)
    for x, y, p in products:
        by_product[p].append((x, y))
    out = []
    for e1, e4, (px, py) in products:
        for det in dets:
            for e2, e3 in by_product.get((px - det, py), ()):
                out.append((det, (e1, e2, e3, e4)))
    return out


# --- Canonical forms, spin map and JSON, as the CLI prints them ---------------

KPair = tuple[Fraction, Fraction]


def canonical(ring: Ring, det: int, x: Mat) -> tuple[int, tuple[KPair, ...]]:
    """(f, A) with A = x / g over {1, sqrt(-m)} and det = g*g*f."""
    f = squarefree_part(det)
    g = isqrt(det // f)
    return f, tuple((p / g, q / g) for p, q in map(ring.k_coords, x))


def sign_normalized(entries: tuple[KPair, ...]) -> tuple[KPair, ...]:
    for x, y in entries:
        if x or y:
            if (x or y) < 0:
                return tuple((-p, -q) for p, q in entries)
            break
    return entries


def _kmul(m: int, z: KPair, w: KPair) -> KPair:
    return (z[0] * w[0] - m * z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def _kadd(z: KPair, w: KPair) -> KPair:
    return (z[0] + w[0], z[1] + w[1])


def spin_rows(ring: Ring, f: int, entries: tuple[KPair, ...]) -> list[list[Fraction]]:
    """The 4x4 action H -> A H conj(A)^tr / f on the basis diag(1,0),
    diag(0,1), offdiag(1), offdiag(theta); column j is the image of basis j."""
    m = ring.m
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    theta = ring.k_coords((0, 1))
    basis = [(one, zero, zero, zero), (zero, zero, zero, one),
             (zero, one, one, zero), (zero, theta, (theta[0], -theta[1]), zero)]
    a, b, c, d = entries
    star = [(z[0], -z[1]) for z in (a, c, b, d)]  # conj(A)^tr, row-major
    cols = []
    for h11, h12, h21, h22 in basis:
        p = (_kadd(_kmul(m, a, h11), _kmul(m, b, h21)), _kadd(_kmul(m, a, h12), _kmul(m, b, h22)),
             _kadd(_kmul(m, c, h11), _kmul(m, d, h21)), _kadd(_kmul(m, c, h12), _kmul(m, d, h22)))
        r11 = _kadd(_kmul(m, p[0], star[0]), _kmul(m, p[1], star[2]))
        r12 = _kadd(_kmul(m, p[0], star[1]), _kmul(m, p[1], star[3]))
        r22 = _kadd(_kmul(m, p[2], star[1]), _kmul(m, p[3], star[3]))
        sx, sy = r12[0] / f, r12[1] / f
        s_theta = (sx - sy, 2 * sy) if m % 4 == 3 else (sx, sy)
        cols.append((r11[0] / f, r22[0] / f) + s_theta)
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def matrix_json(m: int, f: int, entries: tuple[KPair, ...]) -> dict:
    e = [[str(x), str(y)] for x, y in entries]
    return {"m": m, "f": f, "A": [[e[0], e[1]], [e[2], e[3]]]}


def orthomap_json(m: int, rows: list[list[Fraction]]) -> dict:
    return {"m": m, "P": [str(x) for row in rows for x in row]}


def dumps(payload: dict) -> str:
    """The CLI's output line for a payload."""
    return json.dumps(payload, sort_keys=True) + "\n"
