import json
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchimax import (
    ExtendedMatrix,
    KElement,
    OrthoMap,
    atkin_lehner,
    field_params,
    kelement_from_json,
    kelement_to_json,
    matrix_from_json,
    matrix_to_json,
    orthomap_from_json,
    orthomap_to_json,
    spin_map,
    squarefree_divisors,
)
from bianchimax.serialize import fraction_from_str
from bianchimax.sampling import (
    random_ambient_element,
    random_coset_element,
    random_zero_corner_element,
)

NINE_FIELDS = [1, 2, 3, 5, 6, 7, 10, 11, 15]

class TestRationalStrings:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(3, 2), "3/2"),
            (Fraction(-3, 2), "-3/2"),
            (Fraction(7), "7"),
            (Fraction(0), "0"),
            (Fraction(2, 4), "1/2"),
        ],
    )
    def test_canonical_form(self, value, text):
        assert str(value) == text
        assert fraction_from_str(text) == value

    def test_bad_strings_raise(self):
        non_canonical = (
            "1e0", "1.0", "1e999999999", "2/4", "3/1", "0/5", "-0", "01", "+1",
            " 1", "1 ", "1_0", "1/-2", "-1/-2", "\u0661", "1/2\n",
        )
        for bad in ("1/0", "a", "1.5.2", None, 3, True) + non_canonical:
            with pytest.raises(ValueError):
                fraction_from_str(bad)


@pytest.fixture(params=["default", "unlimited"])
def int_digit_limit(request):
    """The interpreter's int parsing limit at its default or switched off, restored after."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(
        sys.int_info.default_max_str_digits if request.param == "default" else 0
    )
    yield
    sys.set_int_max_str_digits(saved)


class TestDigitCap:
    @pytest.mark.parametrize(
        "text",
        ["7" * 4300, "-" + "7" * 4300, "1/" + "3" * 4300, "-1" + "0" * 4299 + "/" + "3" * 4300],
        ids=["numerator", "negative", "denominator", "both"],
    )
    def test_4300_digits_accepted(self, int_digit_limit, text):
        assert str(fraction_from_str(text)) == text

    @pytest.mark.parametrize(
        "text",
        ["7" * 4301, "-" + "7" * 4301, "1/" + "3" * 4301, "7" * 4301 + "/" + "3" * 4300],
        ids=["numerator", "negative", "denominator", "numerator-over-4300"],
    )
    def test_4301_digits_rejected_naming_the_cap(self, int_digit_limit, text):
        with pytest.raises(ValueError, match=r"^invalid rational string '[-0-9/]+\.\.\. \(length \d+\): "
                                             r"numerator or denominator longer than the cap of 4300 digits$"):
            fraction_from_str(text)


class TestKElementJson:
    def test_example(self):
        z = KElement(5, Fraction(1, 2), -3)
        assert kelement_to_json(z) == ["1/2", "-3"]
        assert kelement_from_json(5, ["1/2", "-3"]) == z

    def test_malformed(self):
        with pytest.raises(ValueError):
            kelement_from_json(5, ["1/2"])
        with pytest.raises(ValueError):
            kelement_from_json(5, "1/2")


class TestMatrixJson:
    def test_involution_round_trip(self):
        v = atkin_lehner(field_params(1), 2)
        obj = matrix_to_json(v)
        assert obj["m"] == 1 and obj["f"] == 2
        assert matrix_from_json(obj) == v
        # byte-exact through an actual JSON encoder
        assert matrix_from_json(json.loads(json.dumps(obj))) == v

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_random_round_trips(self, m):
        params = field_params(m)
        rng = Random(f"json:{m}")
        for _ in range(20):
            mat = random_ambient_element(rng, params)
            assert matrix_from_json(matrix_to_json(mat)) == mat

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            matrix_from_json({"m": 1, "f": 1})

    @pytest.mark.parametrize("key", ["m", "f"])
    def test_bool_keys_rejected(self, key):
        # true == 1 in Python, so a bool would pass as the integer 1
        obj = matrix_to_json(atkin_lehner(field_params(1), 1))
        assert obj[key] == 1
        for value in (True, False):
            with pytest.raises(ValueError, match="integers"):
                matrix_from_json(through_json(dict(obj, **{key: value})))

    def test_non_canonical_entry_rejected(self):
        obj = matrix_to_json(atkin_lehner(field_params(1), 2))
        obj["A"][0][0][0] = "2.0"
        with pytest.raises(ValueError, match="rational"):
            matrix_from_json(obj)

    def test_det_validation(self):
        obj = matrix_to_json(atkin_lehner(field_params(1), 2))
        obj["f"] = 1
        with pytest.raises(ValueError, match="det"):
            matrix_from_json(obj)

    def test_invalid_m(self):
        obj = matrix_to_json(atkin_lehner(field_params(1), 2))
        obj["m"] = 12
        with pytest.raises(ValueError, match="squarefree"):
            matrix_from_json(obj)


class TestOrthoMapJson:
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_round_trips(self, m):
        params = field_params(m)
        rng = Random(f"ortho:{m}")
        for _ in range(10):
            image = spin_map(random_ambient_element(rng, params))
            assert orthomap_from_json(orthomap_to_json(image)) == image

    def test_extra_keys_ignored(self):
        image = spin_map(atkin_lehner(field_params(1), 2))
        obj = orthomap_to_json(image)
        obj["orthogonal"] = True
        assert orthomap_from_json(obj) == image

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="16"):
            orthomap_from_json({"m": 1, "P": ["1"] * 15})

    def test_bool_m_and_non_canonical_entry_rejected(self):
        obj = orthomap_to_json(spin_map(atkin_lehner(field_params(1), 2)))
        for value in (True, False):
            with pytest.raises(ValueError, match="integer"):
                orthomap_from_json(through_json(dict(obj, m=value)))
        with pytest.raises(ValueError, match="rational"):
            orthomap_from_json(dict(obj, P=["1e0"] + obj["P"][1:]))


def random_matrix(m, kind, seed):
    """A coset, ambient or zero-corner element of the field, drawn from the seed."""
    params = field_params(m)
    rng = Random(seed)
    if kind == "coset":
        return random_coset_element(rng, params, rng.choice(squarefree_divisors(params.d_K)))
    if kind == "ambient":
        return random_ambient_element(rng, params)
    return random_zero_corner_element(rng, params, rng.choice((1, 2)))


MATRICES = st.builds(
    random_matrix,
    st.sampled_from(NINE_FIELDS),
    st.sampled_from(["coset", "ambient", "zero_corner"]),
    st.integers(0, 2**32),
)
RATIONALS = st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**12)
# Spin images, and arbitrary rational maps that are neither orthogonal nor integral.
ORTHOMAPS = st.builds(spin_map, MATRICES) | st.builds(
    lambda m, x: OrthoMap(m, [x[4 * i:4 * i + 4] for i in range(4)]),
    st.sampled_from(NINE_FIELDS),
    st.lists(RATIONALS, min_size=16, max_size=16),
)
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3)
    ),
    max_leaves=8,
)


def through_json(obj):
    return json.loads(json.dumps(obj))


# What a caller might pass as f or d: small ints, some of them not positive or
# not squarefree, and bools, floats and Fractions equal to an int.
PARAMETERS = st.integers(-2, 40) | st.sampled_from([True, False, 1.0, 2.0, Fraction(1), Fraction(2)])
SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def constructed_matrix(m, route, parameter, x, y, shear):
    """A matrix from a public constructor, or None where the constructor refuses
    its input.  With n = int(parameter), the int that parameter equals, and
    S = [[1, shear], [0, 1]], the routes build ExtendedMatrix(parameter,
    diag(z, n/z) * S) for z = x + y*sqrt(-m), from_integral(parameter,
    diag(n, 1) * S) and identity(m)."""
    n, zero, one, s = int(parameter), KElement(m, 0, 0), KElement(m, 1, 0), KElement(m, *shear)
    try:
        if route == "init":
            z = KElement(m, x, y) if x or y else one
            return ExtendedMatrix(parameter, ((z, z * s), (zero, n * one / z)))
        if route == "from_integral":
            return ExtendedMatrix.from_integral(parameter, ((n * one, n * s), (zero, one)))
        return ExtendedMatrix.identity(m)
    except (TypeError, ValueError):
        return None


def non_canonical_spellings(q):
    """Strings that Fraction or a looser parser could read as q, none canonical."""
    text, p, d = str(q), q.numerator, q.denominator
    sign, digits = ("-", text[1:]) if q < 0 else ("", text)
    spellings = [
        f"{3 * p}/{3 * d}", "+" + text, f"{sign}0{digits}", text + "/1", f"{p}e0",
        f" {text}", f"{text} ", text + "\n", f"{sign}{digits[0]}_{digits[1:]}",
        "".join(chr(0x0660 + int(c)) if c.isdigit() else c for c in text),  # Arabic-Indic
        f"{p}.0" if d == 1 else repr(float(q)),
    ]
    if q == 0:
        spellings.append("-0")
    if d > 1:
        spellings.append(f"{p}/0{d}")
    return spellings


def node_at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def replace_at(obj, path, value):
    """A copy of the JSON document obj with the node at path replaced by value."""
    obj = through_json(obj)
    node_at(obj, path[:-1])[path[-1]] = value
    return obj


# The nodes of each document, and the array nodes of a matrix document: the
# rows, each row and each entry pair.
ORTHOMAP_NODES = [("m",), ("P",)] + [("P", i) for i in range(16)]
MATRIX_ARRAYS = [("A",)] + [("A", i) for i in range(2)] + [
    ("A", i, j) for i in range(2) for j in range(2)
]
MATRIX_NODES = [("m",), ("f",)] + MATRIX_ARRAYS + [
    ("A", i, j, k) for i in range(2) for j in range(2) for k in range(2)
]


def could_be_valid(path, value):
    """Whether value has the shape the node at path needs, so that putting it
    there might leave a valid document."""
    if path[-1] in ("m", "f"):
        return isinstance(value, int) and not isinstance(value, bool)
    if path == ("P",):
        return isinstance(value, list) and len(value) == 16
    if path[0] == "P" or len(path) == 4:
        return isinstance(value, str)
    return isinstance(value, list) and len(value) == 2


class TestParserProperties:
    """Round trips through a JSON encoder, and every malformed document is a
    ValueError, never another exception type."""

    @settings(max_examples=100)
    @given(ORTHOMAPS)
    def test_orthomap_round_trip(self, phi):
        obj = orthomap_to_json(phi)
        assert obj["P"] == [str(x) for row in phi.rows for x in row]
        assert orthomap_from_json(through_json(obj)) == phi

    @settings(max_examples=100)
    @given(MATRICES)
    def test_matrix_round_trip(self, mat):
        assert matrix_from_json(through_json(matrix_to_json(mat))) == mat

    @settings(max_examples=300)
    @given(
        st.sampled_from(NINE_FIELDS),
        st.sampled_from(["init", "from_integral", "identity"]),
        PARAMETERS,
        SMALL_RATIONALS,
        SMALL_RATIONALS,
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    def test_every_constructed_matrix_round_trips(self, m, route, parameter, x, y, shear):
        # f = True, 1.0 or Fraction(1) once built a matrix that matrix_to_json
        # wrote as "f": true, as 1.0 or not at all
        mat = constructed_matrix(m, route, parameter, x, y, shear)
        if mat is not None:
            assert type(mat.f) is int
            assert matrix_from_json(through_json(matrix_to_json(mat))) == mat

    @settings(max_examples=100)
    @given(ORTHOMAPS, MATRICES, st.data())
    def test_wrong_shape_or_length_raises_value_error(self, phi, mat, data):
        for obj, parse, nodes in (
            (orthomap_to_json(phi), orthomap_from_json, ORTHOMAP_NODES),
            (matrix_to_json(mat), matrix_from_json, MATRIX_NODES),
        ):
            path = data.draw(st.sampled_from(nodes))
            value = data.draw(JSON_VALUES.filter(lambda v: not could_be_valid(path, v)))
            with pytest.raises(ValueError):
                parse(replace_at(obj, path, value))
            with pytest.raises(ValueError):
                parse(value)

    @settings(max_examples=100)
    @given(ORTHOMAPS, MATRICES, st.data())
    def test_one_element_too_many_or_too_few_raises_value_error(self, phi, mat, data):
        for obj, parse, arrays in (
            (orthomap_to_json(phi), orthomap_from_json, [("P",)]),
            (matrix_to_json(mat), matrix_from_json, MATRIX_ARRAYS),
        ):
            path = data.draw(st.sampled_from(arrays))
            array = node_at(obj, path)
            resized = array[:-1] if data.draw(st.booleans()) else array + array[:1]
            with pytest.raises(ValueError):
                parse(replace_at(obj, path, resized))

    @settings(max_examples=100)
    @given(RATIONALS, ORTHOMAPS, MATRICES, st.data())
    def test_non_canonical_rational_raises_value_error(self, q, phi, mat, data):
        text = data.draw(st.sampled_from(non_canonical_spellings(q)))
        with pytest.raises(ValueError, match="rational"):
            fraction_from_str(text)
        i, j, k = (data.draw(st.integers(0, n)) for n in (15, 3, 1))
        with pytest.raises(ValueError, match="rational"):
            orthomap_from_json(replace_at(orthomap_to_json(phi), ("P", i), text))
        with pytest.raises(ValueError, match="rational"):
            matrix_from_json(replace_at(matrix_to_json(mat), ("A", j // 2, j % 2, k), text))
