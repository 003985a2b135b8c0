"""Atkin-Lehner involutions and the maximal discrete extension of SL2(O_K).

For each positive squarefree divisor d of |d_K| there is an involution

    V_d = (1/sqrt(d)) * [[u*d, v*omega], [conj(omega), d]],

where omega = m + sqrt(-m) and u*d - v*N(omega)/d = 1.  The coset Gamma_K*V_d
does not depend on the Bezout pair, the cosets multiply like squarefree
divisors under d*e/gcd(d,e)**2, and their union over all such d is the
maximal discrete extension of SL2(O_K) inside SL2(C).

An element belongs to Gamma_K*V_d only when its canonical denominator f is
d, so classify_coset decides membership and the label at once: f must divide
|d_K| and the product with a cached V_f**-1 must be integral.  The ideal
criterion in_maximal_extension is the independent membership test: the
O_K-ideal generated by the entries of the minimal integral representative B
must square to the principal ideal generated by det B.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .field import (
    FieldParams,
    IdealHNF,
    _check_int,
    _check_int_type,
    _quote,
    _require_squarefree,
    basis_conjugate,
    basis_from_sqrt,
    field_params,
    prime_factors,
    squarefree_divisors,
)
from .matrices import _F_BITS, ExtendedMatrix


def _check_divisor(params: FieldParams, d: int) -> None:
    """The cap-then-squarefree rule of m and f, with d | |d_K| tested between:
    |d_K| <= 4m < 2**66."""
    _check_int("d", d, _F_BITS)
    if abs(params.d_K) % d != 0:
        raise ValueError(f"d = {d} does not divide |d_K| = {abs(params.d_K)}")
    _require_squarefree("d", d)


def bezout_pair(params: FieldParams, d: int, shift: int = 0) -> tuple[int, int]:
    """Solve u*d - v*(N(omega)/d) = 1, normalized to 0 < u <= N(omega)/d.

    All solutions are (u + t*n, v + t*d) with n = N(omega)/d; shift selects the
    t-th one past the canonical representative, so shift = 0 is reproducible
    and shifts > 0 supply alternative pairs for well-definedness checks.
    """
    _check_divisor(params, d)
    _check_int_type("shift", shift)
    if shift < 0:
        raise ValueError(f"shift must be non-negative, got {_quote(shift)}")
    n = params.norm_omega // d
    if gcd(d, n) != 1:
        raise AssertionError(f"gcd(d, N(omega)/d) = {gcd(d, n)} != 1 for d = {d}")
    # u is the inverse of d mod n, lifted from [0, n) to (0, n].
    u = pow(d % n, -1, n) if n > 1 else 0
    if u == 0:
        u = n
    v = (u * d - 1) // n
    return u + shift * n, v + shift * d


def atkin_lehner(params: FieldParams, d: int, shift: int = 0) -> ExtendedMatrix:
    """The involution V_d in canonical form, built from bezout_pair(params, d, shift)."""
    u, v = bezout_pair(params, d, shift)
    t = params.theta_trace
    w0, w1 = basis_from_sqrt(t, params.m, 1)  # omega = m + sqrt(-m)
    c0, c1 = basis_conjugate(t, w0, w1)
    coords = (u * d, 0, v * w0, v * w1, c0, c1, d, 0)
    mat = ExtendedMatrix._from_coords(params.m, d, coords)
    if mat.f != d:
        raise AssertionError(f"V_{d} canonicalized to denominator {mat.f}")
    return mat


def in_maximal_extension(mat: ExtendedMatrix) -> bool:
    """Ideal-content membership test for the maximal discrete extension.

    With B = g*A the minimal integral representative (det B = g*g*f), the
    element belongs to the extension exactly when the ideal generated by the
    entries of B squares to the principal ideal of det B.  Both sides scale by
    the square of any extra integer factor, so the minimal representative is
    as good as any.
    """
    params = field_params(mat.m)
    det_b, entries = mat.integral_representative()
    content = IdealHNF.from_generators(params, entries)
    return content * content == IdealHNF.principal(params, params.integer(det_b))


@lru_cache(maxsize=None)
def _atkin_lehner_inverse(m: int, d: int) -> ExtendedMatrix:
    """V_d**-1 for the field of m, kept like the field_params cache."""
    return atkin_lehner(field_params(m), d).inverse()


def classify_coset(mat: ExtendedMatrix) -> int:
    """The divisor d with mat in Gamma_K * V_d, or 0 for a non-member.

    The canonical squarefree denominator f is the coset label: multiplying an
    integral unit-determinant matrix into V_d keeps denominator d.  So mat is
    a member exactly when f divides |d_K| and mat * V_f**-1 is integral, and
    one product with a cached V_f**-1 decides both membership and the label.
    """
    label = mat.f
    params = field_params(mat.m)
    if abs(params.d_K) % label == 0 and (mat * _atkin_lehner_inverse(mat.m, label)).is_integral():
        return label
    return 0


def coset_law(d: int, e: int) -> int:
    """Coset product label d*e/gcd(d,e)**2, the symmetric difference of supports."""
    g = gcd(d, e)
    return d * e // (g * g)


def extension_index(params: FieldParams) -> int:
    """Index of SL2(O_K) in its maximal discrete extension: 2**nu."""
    return len(squarefree_divisors(params.d_K))


def _check_prime_cap(command: str, params: FieldParams) -> None:
    """Raise ValueError when d_K has more than 10 primes: table and verify do
    work in 4**nu for nu primes of d_K, and m < 2**64 allows nu = 16."""
    if (nu := len(prime_factors(params.d_K))) > 10:
        raise ValueError(f"{command} is capped at 10 primes of d_K, but d_K = {params.d_K} has {nu}")


def factor_group_table(params: FieldParams) -> tuple[list[int], list[list[int]]]:
    """Cayley table of the coset labels under coset_law."""
    labels = squarefree_divisors(params.d_K)
    table = [[coset_law(d, e) for e in labels] for d in labels]
    return labels, table
