"""Exact arithmetic in K = Q(sqrt(-m)) and its ring of integers.

Elements are stored with exact rational coordinates with respect to the
integral basis {1, theta} of the ring of integers, one representation for
every m: theta = (1 + sqrt(-m))/2 for m = 3 (mod 4) and sqrt(-m) otherwise.
Integrality is then a denominator check.  FieldParams holds the trace t
(0 or 1) and norm n of theta, which the basis formulas take; they work on
int and Fraction coordinates alike and branch on t, so a Fraction never
pays for a product with t.  Two of them convert to and from the
{1, sqrt(-m)}-coordinates of the constructor, printing and serialization.
Only int and Fraction are accepted as coordinates, and every constructor
that takes m validates it through FieldParams, whose cache is field_params.
Ideals of the ring of integers are built only from generators, into a
lower-triangular Hermite normal form that is canonical by construction, so
equality is a componentwise comparison; the principal ideal of a rational
integer is written down in that form directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence, TypeVar


_TRIAL_DIVISION_LIMIT = 2**22
_QUOTE_LIMIT = 80  # characters of an offending value that an error message repeats


def _quote(value: Any) -> str:
    """repr(value) for an error message, cut to _QUOTE_LIMIT characters plus
    the length of the value, so that a huge input gives a short message.

    Past CPython's int-to-str digit limit repr raises, so the repr of an int, a
    Fraction or a KElement is put together here from its integers, each cut
    before it is printed: dividing |n| by 10**k, k at most its digit count less
    _QUOTE_LIMIT, keeps more than _QUOTE_LIMIT leading digits, and adding k back
    gives the length.
    """
    if isinstance(value, KElement):
        parts: list[Any] = [f"KElement(m={value.m}"]
        for q in (value.x, value.y):
            parts += [", ", q.numerator, "/", q.denominator][: 2 if q.denominator == 1 else 4]
        parts.append(")")
    elif isinstance(value, Fraction):
        parts = [f"{type(value).__name__}(", value.numerator, ", ", value.denominator, ")"]
    else:
        parts = [value if _is_plain_int(value) else repr(value)]
    text, size = "", 0
    for part in parts:
        if not isinstance(part, str):
            k = max(0, (abs(part).bit_length() - 1) * 30102 // 100000 - _QUOTE_LIMIT)
            part, size = ("-" if part < 0 else "") + str(abs(part) // 10**k), size + k
        text, size = text + part, size + len(part)
    size = len(value) if isinstance(value, (str, list, tuple, dict)) else size
    if len(text) <= _QUOTE_LIMIT:
        return text
    return f"{text[:_QUOTE_LIMIT]}... (length {size})"


def _trial_division(n: int) -> tuple[dict[int, int], int]:
    """({prime: exponent}, c) with |n| = c * prod(p**e), for n != 0.

    Trial division stops past 2**22.  The cofactor c is 1 when every prime
    factor of n is below 2**22 except at most one below 2**44, which is then
    among the primes; otherwise c has no prime factor up to 2**22 and is not
    below 2**44.  Every prime power divides 0, so 0 raises ValueError.
    """
    if n == 0:
        raise ValueError("cannot factor 0: every prime power divides it")
    n = abs(n)
    factors: dict[int, int] = {}
    while n % 2 == 0:
        factors[2] = factors.get(2, 0) + 1
        n //= 2
    p = 3
    while p * p <= n:
        if p > _TRIAL_DIVISION_LIMIT:
            return factors, n
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors, 1


def prime_factors(n: int) -> dict[int, int]:
    """Factor |n| by trial division, returning {prime: exponent}.

    This succeeds when every prime factor is below 2**22 except at most one
    below 2**44, so it serves only where the primes themselves are needed; a
    squarefree test asks less of squarefree_part.  A cofactor that would need
    trial division past 2**22 raises ValueError at once instead of running
    for hours, and so does 0.
    """
    factors, cofactor = _trial_division(n)
    if cofactor > 1:
        raise ValueError(
            f"cannot factor {_quote(abs(n))}: cofactor {_quote(cofactor)} has no prime "
            "factor up to 2**22 and is not below 2**44"
        )
    return factors


def squarefree_part(n: int) -> int:
    """The squarefree part f of n > 0, i.e. n = g*g*f with f squarefree.

    A perfect square has part 1 and is not factored.  Otherwise the primes
    up to 2**22 come from trial division.  What is left has only larger
    prime factors, so a perfect square contributes 1, and a non-square
    below (2**22)**3 = 2**66 is a prime or a product of two distinct primes
    and contributes itself.  Any other cofactor raises ValueError.
    """
    if n <= 0:
        raise ValueError(f"squarefree_part requires a positive integer, got {_quote(n)}")
    if perfect_square_root(n) is not None:
        return 1
    factors, cofactor = _trial_division(n)
    f = 1
    for p, e in factors.items():
        if e % 2 == 1:
            f *= p
    if perfect_square_root(cofactor) is not None:
        return f
    if cofactor < _TRIAL_DIVISION_LIMIT**3:
        return f * cofactor
    raise ValueError(
        f"cannot factor {_quote(n)}: cofactor {_quote(cofactor)} has no prime factor "
        "up to 2**22, is not a square and is at least 2**66"
    )


def squarefree_divisors(d_K: int) -> list[int]:
    """All positive squarefree divisors of |d_K|, ascending.

    Their number is 2**nu with nu the number of distinct primes of d_K.
    """
    if d_K == 0:
        raise ValueError("discriminant must be nonzero")
    primes = sorted(prime_factors(d_K))
    divisors = [1]
    for p in primes:
        divisors += [d * p for d in divisors]
    return sorted(divisors)


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


_RationalLike = int | Fraction
_Q = TypeVar("_Q", int, Fraction)  # the basis formulas keep the type of their coordinates


def theta_product(t: int, n: int, a1: _Q, b1: _Q, a2: _Q, b2: _Q) -> tuple[_Q, _Q]:
    """(a1 + b1*theta)(a2 + b2*theta), as theta**2 = t*theta - n."""
    bb, b = b1 * b2, a1 * b2 + b1 * a2
    return a1 * a2 - n * bb, b + bb if t else b


def basis_conjugate(t: int, a: _Q, b: _Q) -> tuple[_Q, _Q]:
    """conj(a + b*theta) = (a + t*b) - b*theta, as conj(theta) = t - theta."""
    return a + b if t else a, -b


def basis_norm(t: int, n: int, a: _Q, b: _Q) -> _Q:
    """N(a + b*theta) = a*a + t*a*b + n*b*b."""
    norm = a * a + n * b * b
    return norm + a * b if t else norm


def basis_trace(t: int, a: _Q, b: _Q) -> _Q:
    """Tr(a + b*theta) = 2*a + t*b."""
    return 2 * a + b if t else 2 * a


def basis_from_sqrt(t: int, x: _Q, y: _Q) -> tuple[_Q, _Q]:
    """(a, b) = (x - t*y, (1 + t)*y) for a + b*theta = x + y*sqrt(-m)."""
    return (x - y, 2 * y) if t else (x, y)


def basis_to_scaled_sqrt(t: int, a: _Q, b: _Q) -> tuple[_Q, _Q]:
    """(1 + t)*(x, y) = ((1 + t)*a + t*b, b) for x + y*sqrt(-m) = a + b*theta."""
    return (2 * a + b, b) if t else (a, b)


class _Frozen:
    """Base of the value types: immutable values compared and hashed by their slots.

    Each subclass gets its own _new, compiled once from __slots__ as
    collections.namedtuple compiles __new__: one parameter per slot, in
    __slots__ order, stored unchecked through the slot descriptor's own
    setter, which __setattr__ does not block.  Each public constructor is a
    __new__, as for Fraction, that validates its input and then calls _new,
    the one place a value's slots are filled.  Two values are equal when they
    have the same type and equal slots, and a value hashes like the tuple of
    its slots.  No attribute can be set or deleted once built, so copy and
    pickle rebuild a value through _new from its slots.  KElement alone
    compares differently: it equals rationals.  A value type is final: a
    subclass of one raises TypeError when it is defined.
    """

    __slots__ = ()
    _new: Callable[..., Any]  # compiled for each subclass by __init_subclass__

    def __init_subclass__(cls, **kwargs: Any) -> None:
        for base in cls.__bases__:
            if base is not _Frozen and issubclass(base, _Frozen):
                raise TypeError(f"{base.__name__} cannot be subclassed")
        super().__init_subclass__(**kwargs)
        cls._slot_values = attrgetter(*cls.__slots__)
        # Parameters and setters are numbered: no slot name enters the code.
        scope = {f"set{i}": vars(cls)[name].__set__ for i, name in enumerate(cls.__slots__)}
        scope.update(cls=cls, new=object.__new__, __name__=cls.__module__)
        params = ", ".join(f"_{i}" for i in range(len(cls.__slots__)))
        body = "".join(f"    set{i}(value, _{i})\n" for i in range(len(cls.__slots__)))
        exec(f"def _new({params}):\n    value = new(cls)\n{body}    return value\n", scope)
        scope["_new"].__qualname__ = f"{cls.__qualname__}._new"
        cls._new = staticmethod(scope["_new"])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        slot_values = self._slot_values
        return slot_values(self) == slot_values(other)

    def __hash__(self) -> int:
        return hash(self._slot_values(self))

    def __reduce__(self) -> tuple[Any, tuple[object, ...]]:
        return type(self)._new, self._slot_values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


def _least_denominator(values: Sequence[_RationalLike]) -> tuple[int, tuple[int, ...]]:
    """(den, nums): den >= 1 the least common denominator of the rationals and
    nums their numerators over it, so gcd(den, *nums) == 1."""
    den = lcm(*(q.denominator for q in values))
    return den, tuple(q.numerator * (den // q.denominator) for q in values)


def _cancel(den: int, nums: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The rationals nums/den for den >= 1, with gcd(den, *nums) cancelled."""
    common = gcd(den, *nums)
    if common > 1:
        return den // common, tuple(x // common for x in nums)
    return den, nums


def _same_field(m: int, other: int) -> None:
    """Raise ValueError unless two values belong to the same field."""
    if other != m:
        raise ValueError(f"mixed fields: m={m} vs m={other}")


def _is_plain_int(value: object) -> bool:
    """Whether value is an int and not a bool: True is not 1 here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int_type(name: str, value: object) -> None:
    """Raise TypeError unless _is_plain_int(value)."""
    if not _is_plain_int(value):
        raise TypeError(f"{name} must be an int, got {_quote(value)} ({type(value).__name__})")


def _check_int(name: str, value: object, bits: int) -> None:
    """Raise TypeError unless value is an int and not a bool, and ValueError
    unless 1 <= value < 2**bits; the bound comes before any factoring."""
    _check_int_type(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {_quote(value)}")
    if value >> bits:  # value >= 2**bits
        raise ValueError(f"{name} must be below 2**{bits}, got {_quote(value)}")


def _require_squarefree(name: str, value: int) -> None:
    """Raise ValueError unless value >= 1 is squarefree, naming the g with
    g**2 = value / squarefree_part(value): the one squarefree rule for m, f and d."""
    f = squarefree_part(value)
    if f != value:
        raise ValueError(
            f"{name} must be squarefree, but {isqrt(value // f)}**2 divides {_quote(value)}"
        )


def _check_squarefree(name: str, value: object, bits: int) -> None:
    """_check_int, then raise ValueError unless value is squarefree."""
    _check_int(name, value, bits)
    _require_squarefree(name, value)


def _require_exact(*values: object) -> None:
    """Reject anything but an int (not a bool) or a Fraction."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(
                f"field coordinates must be int or Fraction, got {value!r} ({type(value).__name__})"
            )


class KElement(_Frozen):
    """a + b*theta with exact rational a, b, where {1, theta} is the integral basis.

    The constructor validates m through field_params and takes the
    coordinates x, y of x + y*sqrt(-m), which stay available as the
    properties `x` and `y`; basis_from_sqrt converts them.
    """

    __slots__ = ("m", "a", "b")

    def __new__(cls, m: int, x: _RationalLike, y: _RationalLike) -> KElement:
        _require_exact(x, y)
        return cls._raw(m, *basis_from_sqrt(field_params(m).theta_trace, x, y))

    @classmethod
    def _raw(cls, m: int, a: _RationalLike, b: _RationalLike) -> "KElement":
        """The element a + b*theta.  Products and sums already yield exact
        Fractions, which are kept as they are; an int or a Fraction subclass
        is converted."""
        return cls._new(
            m, a if type(a) is Fraction else Fraction(a), b if type(b) is Fraction else Fraction(b)
        )

    @property
    def x(self) -> Fraction:
        """The rational part: the coefficient of 1 in the basis {1, sqrt(-m)}."""
        t = field_params(self.m).theta_trace
        x = basis_to_scaled_sqrt(t, self.a, self.b)[0]
        return x / 2 if t else x

    @property
    def y(self) -> Fraction:
        """The coefficient of sqrt(-m) in the basis {1, sqrt(-m)}."""
        t = field_params(self.m).theta_trace
        y = basis_to_scaled_sqrt(t, self.a, self.b)[1]
        return y / 2 if t else y

    def __repr__(self) -> str:
        return f"KElement(m={self.m}, {self.x!s}, {self.y!s})"

    def __str__(self) -> str:
        return f"{self.x} + {self.y}*sqrt(-{self.m})"

    def _coerce(self, other: object) -> "KElement | None":
        if isinstance(other, KElement):
            _same_field(self.m, other.m)
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return KElement._raw(self.m, other, 0)
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, KElement):
            return self.m == other.m and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        # A rational element equals its value, so it must hash like it.
        if self.b == 0:
            return hash(self.a)
        return hash((self.m, self.a, self.b))

    def __add__(self, other: object) -> "KElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KElement._raw(self.m, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "KElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KElement._raw(self.m, self.a - o.a, self.b - o.b)

    def __rsub__(self, other: object) -> "KElement":
        return (-self) + other

    def __neg__(self) -> "KElement":
        return KElement._raw(self.m, -self.a, -self.b)

    def __mul__(self, other: object) -> "KElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        params = field_params(self.m)
        a, b = theta_product(params.theta_trace, params.theta_norm, self.a, self.b, o.a, o.b)
        return KElement._raw(self.m, a, b)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "KElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "KElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def conjugate(self) -> "KElement":
        a, b = basis_conjugate(field_params(self.m).theta_trace, self.a, self.b)
        return KElement._raw(self.m, a, b)

    def norm(self) -> Fraction:
        """z * conj(z), a nonnegative rational."""
        params = field_params(self.m)
        return basis_norm(params.theta_trace, params.theta_norm, self.a, self.b)

    def trace(self) -> Fraction:
        return basis_trace(field_params(self.m).theta_trace, self.a, self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def inverse(self) -> "KElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in K")
        a, b = basis_conjugate(field_params(self.m).theta_trace, self.a, self.b)
        return KElement._raw(self.m, a / n, b / n)

    def theta_coords(self) -> tuple[Fraction, Fraction]:
        """Coordinates (a, b) with self = a + b*theta for the integral basis."""
        return self.a, self.b

    def is_integral(self) -> bool:
        """Whether self lies in the ring of integers Z + Z*theta."""
        return self.a.denominator == 1 and self.b.denominator == 1


class FieldParams(_Frozen):
    """Invariants of K = Q(sqrt(-m)): discriminant, integral generators, and the
    trace t and norm n of theta, which the basis formulas take.  FieldParams(m)
    validates m and works out the rest; field_params(m) keeps one per m."""

    __slots__ = ("m", "d_K", "theta", "theta_trace", "theta_norm")

    def __new__(cls, m: int) -> FieldParams:
        """m is a squarefree int, 1 <= m < 2**64."""
        _check_squarefree("m", m, 64)
        t, n = (1, (1 + m) // 4) if m % 4 == 3 else (0, m)
        return cls._new(m, t * t - 4 * n, KElement._raw(m, 0, 1), t, n)

    def __repr__(self) -> str:
        return f"FieldParams(m={self.m}, d_K={self.d_K}, theta={self.theta!r})"

    @property
    def norm_omega(self) -> int:
        return self.m * self.m + self.m

    def element(self, x: _RationalLike, y: _RationalLike) -> KElement:
        return KElement(self.m, x, y)

    def integer(self, n: _RationalLike) -> KElement:
        return KElement(self.m, n, 0)

    def from_theta_coords(self, a: _RationalLike, b: _RationalLike) -> KElement:
        _require_exact(a, b)
        return KElement._raw(self.m, a, b)


def _unit_coords(m: int) -> tuple[tuple[int, int], ...]:
    """The units of the ring of integers as theta-coordinate pairs: +-1, plus
    +-i = +-theta for m = 1 and the powers of theta, in order, for m = 3."""
    if m == 1:
        return ((1, 0), (-1, 0), (0, 1), (0, -1))
    if m == 3:
        return ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
    return ((1, 0), (-1, 0))


def units_of(params: FieldParams) -> tuple[KElement, ...]:
    """The unit group of the ring of integers: {+-1}, plus i for m=1, six for m=3."""
    return tuple(params.from_theta_coords(a, b) for a, b in _unit_coords(params.m))


@lru_cache(maxsize=None)
def field_params(m: int) -> FieldParams:
    """The one FieldParams(m) of each m, built on first use and kept."""
    return FieldParams(m)


def _hnf_from_pairs(pairs: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    """Canonical HNF (h11, h21, h22) of the Z-module spanned by integer pairs.

    The module is Z*(h11 + h21*theta) + Z*(h22*theta) in basis coordinates,
    normalized so h11, h22 > 0 and 0 <= h21 < h22 for a full-rank module.
    Degenerate spans return (h11, h21, 0) or (0, 0, h22) or (0, 0, 0).
    """
    g = 0
    t = 0
    residual = 0
    for u, v in pairs:
        if u == 0:
            residual = gcd(residual, v)
            continue
        if g == 0:
            g, t = (u, v) if u > 0 else (-u, -v)
            continue
        gg, s, c = _extended_gcd(g, u)
        residual = gcd(residual, (g * v - u * t) // gg)
        g, t = gg, s * t + c * v
    if g == 0:
        return (0, 0, abs(residual))
    if residual == 0:
        return (g, t, 0)
    residual = abs(residual)
    return (g, t % residual, residual)


class IdealHNF(_Frozen):
    """An ideal of the ring of integers as a canonical triangular Z-basis.

    The basis matrix is lower triangular; its columns are the coordinates of
    the two Z-generators with respect to {1, theta}.  Canonicity makes
    equality a field-by-field comparison, and |det| is the ideal norm.
    There is no public constructor: from_generators, principal and * are the
    only ways to get an ideal, and each returns the canonical HNF.
    """

    __slots__ = ("m", "_h")

    def __new__(cls, *args: object, **kwargs: object) -> IdealHNF:
        raise TypeError(
            "IdealHNF has no public constructor; use IdealHNF.from_generators or IdealHNF.principal"
        )

    @classmethod
    def from_generators(cls, params: FieldParams, gens: Iterable[KElement]) -> "IdealHNF":
        """Canonical HNF of the O_K-module generated by the given integers."""
        pairs: list[tuple[int, int]] = []
        for z in gens:
            _same_field(params.m, z.m)
            if not z.is_integral():
                raise ValueError(f"ideal generator {z} is not integral")
            for w in (z, params.theta * z):
                a, b = w.theta_coords()
                pairs.append((int(a), int(b)))
        h = _hnf_from_pairs(pairs)
        if h != (0, 0, 0) and (h[0] == 0 or h[2] == 0):
            raise AssertionError("theta-closed nonzero module must have full rank")
        return cls._new(params.m, h)

    @classmethod
    def principal(cls, params: FieldParams, z: KElement) -> "IdealHNF":
        """The ideal z*O_K.  For a rational integer d it is written down:
        d*O_K has the Z-basis d, d*theta, so its HNF is (|d|, 0, |d|)."""
        _same_field(params.m, z.m)
        if z.b == 0 and z.a.denominator == 1:
            d = abs(z.a.numerator)
            return cls._new(params.m, (d, 0, d))
        return cls.from_generators(params, [z])

    def is_zero(self) -> bool:
        return self._h == (0, 0, 0)

    def norm(self) -> int:
        a, _, c = self._h
        return a * c

    def generators(self) -> tuple[KElement, KElement]:
        params = field_params(self.m)
        a, b, c = self._h
        return params.from_theta_coords(a, b), params.from_theta_coords(0, c)

    def __mul__(self, other: object) -> "IdealHNF":
        if not isinstance(other, IdealHNF):
            return NotImplemented
        _same_field(self.m, other.m)
        params = field_params(self.m)
        g1, g2 = self.generators()
        if other == self:
            # (g1, g2)**2 == (g1**2, g2**2) in a Dedekind domain (Gilmer, §24)
            return IdealHNF.from_generators(params, [g1 * g1, g2 * g2])
        h1, h2 = other.generators()
        return IdealHNF.from_generators(params, [g1 * h1, g1 * h2, g2 * h1, g2 * h2])

    def __repr__(self) -> str:
        a, b, c = self._h
        return f"IdealHNF(m={self.m}, basis={((a, 0), (b, c))})"


def ideal_from_generators(params: FieldParams, gens: Iterable[KElement]) -> IdealHNF:
    return IdealHNF.from_generators(params, gens)


def perfect_square_root(n: int) -> int | None:
    """Exact integer square root of n, or None when n is not a perfect square."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None

