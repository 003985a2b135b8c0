import json
from fractions import Fraction
from random import Random

import pytest

from bianchimax import (
    KElement,
    atkin_lehner,
    field_params,
    kelement_from_json,
    kelement_to_json,
    matrix_from_json,
    matrix_to_json,
    orthomap_from_json,
    orthomap_to_json,
    spin_map,
)
from bianchimax.serialize import fraction_from_str, fraction_to_str
from bianchimax.sampling import random_ambient_element


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
        assert fraction_to_str(value) == text
        assert fraction_from_str(text) == value

    def test_bad_strings_raise(self):
        non_canonical = (
            "1e0", "1.0", "1e999999999", "2/4", "3/1", "0/5", "-0", "01", "+1",
            " 1", "1 ", "1_0", "1/-2", "-1/-2", "\u0661", "1/2\n",
        )
        for bad in ("1/0", "a", "1.5.2", None, 3, True) + non_canonical:
            with pytest.raises(ValueError):
                fraction_from_str(bad)


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
        obj[key] = True
        with pytest.raises(ValueError, match="integers"):
            matrix_from_json(obj)

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
        with pytest.raises(ValueError, match="integer"):
            orthomap_from_json(dict(obj, m=True))
        with pytest.raises(ValueError, match="rational"):
            orthomap_from_json(dict(obj, P=["1e0"] + obj["P"][1:]))
