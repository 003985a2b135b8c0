"""Bit-exact JSON forms for field elements, matrices and orthogonal maps.

Rationals are strings "p/q" in lowest terms with q > 1, or plain "p" for
integers, each with an optional leading "-"; no other spelling is accepted.
A field element is a pair [x, y] meaning x + y*sqrt(-m); matrices are
row-major; "m" and "f" are JSON integers, never booleans.
parse(print(value)) == value holds exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any

from .field import KElement, _is_plain_int, _quote, field_params
from .matrices import ExtendedMatrix
from .orthogonal import OrthoMap


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_DIGIT_CAP = 4300  # digits in a numerator or denominator, CPython's default int parsing limit


def fraction_from_str(text: str) -> Fraction:
    """Parse the canonical form "p" or "p/q" and reject every other spelling.

    The grammar check runs before Fraction sees the text, so exponents,
    decimals, a plus sign, spaces and underscores never reach it; the round
    trip through str then rejects leading zeros, "-0", "3/1" and fractions
    not in lowest terms.  A numerator or denominator of more than 4300
    digits is rejected before it is parsed, whatever limit
    sys.set_int_max_str_digits sets.
    """
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ValueError(f"invalid rational string {_quote(text)}")
    if any(len(part) > _DIGIT_CAP for part in text.lstrip("-").split("/")):
        raise ValueError(
            f"invalid rational string {_quote(text)}: "
            f"numerator or denominator longer than the cap of {_DIGIT_CAP} digits"
        )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational string {_quote(text)}") from exc
    if str(value) != text:
        raise ValueError(
            f"rational string {_quote(text)} is not canonical, expected {_quote(str(value))}"
        )
    return value


def kelement_to_json(z: KElement) -> list[str]:
    return [str(z.x), str(z.y)]


def kelement_from_json(m: int, obj: Any) -> KElement:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValueError(f"field element must be a pair of rational strings, got {_quote(obj)}")
    return KElement(m, fraction_from_str(obj[0]), fraction_from_str(obj[1]))


def matrix_to_json(mat: ExtendedMatrix) -> dict[str, Any]:
    (a, b), (c, d) = mat.rows
    return {
        "m": mat.m,
        "f": mat.f,
        "A": [[kelement_to_json(a), kelement_to_json(b)],
              [kelement_to_json(c), kelement_to_json(d)]],
    }


def matrix_from_json(obj: Any) -> ExtendedMatrix:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    for key in ("m", "f", "A"):
        if key not in obj:
            raise ValueError(f"matrix JSON is missing key {key!r}")
    m, f, rows = obj["m"], obj["f"], obj["A"]
    if not _is_plain_int(m) or not _is_plain_int(f):
        raise ValueError("matrix JSON keys 'm' and 'f' must be integers")
    field_params(m)  # validates m
    if not isinstance(rows, list) or len(rows) != 2 or any(
        not isinstance(r, list) or len(r) != 2 for r in rows
    ):
        raise ValueError("matrix JSON key 'A' must be a 2x2 array")
    entries = tuple(kelement_from_json(m, rows[i][j]) for i in range(2) for j in range(2))
    return ExtendedMatrix(f, ((entries[0], entries[1]), (entries[2], entries[3])))


def orthomap_to_json(phi_map: OrthoMap) -> dict[str, Any]:
    return {
        "m": phi_map.m,
        "P": [str(x) for row in phi_map.rows for x in row],
    }


def orthomap_from_json(obj: Any) -> OrthoMap:
    if not isinstance(obj, dict):
        raise ValueError("orthogonal map JSON must be an object")
    for key in ("m", "P"):
        if key not in obj:
            raise ValueError(f"orthogonal map JSON is missing key {key!r}")
    m, flat = obj["m"], obj["P"]
    if not _is_plain_int(m):
        raise ValueError("orthogonal map JSON key 'm' must be an integer")
    field_params(m)
    if not isinstance(flat, list) or len(flat) != 16:
        raise ValueError("orthogonal map JSON key 'P' must hold 16 rational strings")
    values = [fraction_from_str(x) for x in flat]
    rows = tuple(tuple(values[4 * i + j] for j in range(4)) for i in range(4))
    return OrthoMap(m, rows)  # type: ignore[arg-type]
