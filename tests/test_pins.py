"""Byte-stable CLI output: one table of sha256 pins.

Each row is a list of `cli.main` calls run in-process.  A call reads its
stdin text (or the stdout of the call before it, when piped), every call must
exit 0, and the sha256 of the joined stdout of the hashed calls must equal the
pinned hex.  A change to any sample, check, count or computed matrix moves a
pin, so a move must be explained, not re-pinned in passing.
"""

import hashlib
import io
import json
from typing import NamedTuple

import pytest

from bianchimax.cli import main


PIPED = object()  # stdin is the stdout of the call before


class Call(NamedTuple):
    argv: list
    stdin: object = None  # None, a JSON text, or PIPED
    hashed: bool = True


FIELDS = (1, 2, 3, 5, 6, 7, 10, 11, 15)


def verify(*args):
    return [Call(["verify", *args])]


def phi_lift(stdin):
    """phi's stdout and then lift's stdout on it, as the shell pipeline
    `phi=$(... | bianchimax phi); echo "$phi"; echo "$phi" | bianchimax lift`."""
    return [Call(["phi"], stdin), Call(["lift"], PIPED)]


def matrix(m, f, rows):
    return json.dumps({"m": m, "f": f, "A": rows})


# Every squarefree divisor d of |d_K| over the nine fields: V_d's image and lift.
VD_PAIRS = (
    (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 3), (5, 1), (5, 2), (5, 5), (5, 10),
    (6, 1), (6, 2), (6, 3), (6, 6), (7, 1), (7, 7), (10, 1), (10, 2), (10, 5), (10, 10),
    (11, 1), (11, 11), (15, 1), (15, 3), (15, 5), (15, 15),
)

# (1/sqrt(2))*diag((1 + sqrt(-m))/2, 4(1 - sqrt(-m))/(1 + m)), keyed m: 4/(1 + m)
HALF_ANCHOR_SCALES = {1: "2", 2: "4/3", 3: "1", 5: "2/3", 6: "4/7", 7: "1/2",
                      10: "4/11", 11: "1/3", 15: "1/4"}

# The primes 2**31 - 1 and 2**61 - 1
LARGE_PRIMES = (2147483647, 2305843009213693951)


def chain(*groups):
    return [call for group in groups for call in group]


PINS = [
    # The verify suites at height 1 on m = 1, 3, 5.
    pytest.param(
        verify("--m", "1", "--m", "3", "--m", "5", "--height", "1", "--seed", "0"),
        "4707f773a6a6d624d9c6b848c18501bdce7c9b48d9a3c8b54acd03b6f6e8dcbf",
        id="verify-m1-m3-m5-height-1",
    ),
    # The default height.
    pytest.param(
        verify("--m", "1", "--m", "5", "--height", "2", "--seed", "0"),
        "c95935484ad817c641c78026c63abbc4126ab4d72cb1b68d45433f73cac45fd2",
        id="verify-m1-m5-height-2",
    ),
    # Six more fields, three of them with m = 3 (mod 4).
    pytest.param(
        verify(*(a for m in (2, 6, 7, 10, 11, 15) for a in ("--m", str(m))),
               "--height", "1", "--seed", "3"),
        "d47a9ace205605b2d4d14e2c9ccf2630c044d493ab38dc5f5d8abb7c47c16e49",
        id="verify-six-fields-height-1",
    ),
    # d_K = -120 and -420 have 8 and 16 cosets, so the kernel congruences meet
    # every combination of the 2-, 3-, 5- and 7-parts.
    pytest.param(
        verify("--m", "30", "--m", "105", "--height", "1", "--seed", "0"),
        "442dfb3c06197d4214788d5b14b50d3e861a9d3c765a5e22fc588d26128800c0",
        id="verify-m30-m105-height-1",
    ),
    # The verify rows pin counts only; these pin computed matrices.
    pytest.param(
        chain(*([Call(["vd", "--m", str(m), "--d", str(d)], hashed=False), *phi_lift(PIPED)]
                for m, d in VD_PAIRS)),
        "9b58b79e66d3a41ba5eec62a9b281213010d43022f57a1171b9541cb82274966",
        id="vd-phi-lift",
    ),
    # V_d has a nonzero upper-left entry, so the row above never anchors the
    # lift on the upper-right entry; [[0, -1], [f, 1 + sqrt(-m)]] always does.
    pytest.param(
        chain(*(phi_lift(matrix(m, f, [[["0", "0"], ["-1", "0"]], [[str(f), "0"], ["1", "1"]]]))
                for m in FIELDS for f in (1, 2))),
        "62ed1216edcade5509b4683b0149ba4ff138061fec5a04decee2a08ffb92c741",
        id="phi-lift-zero-corner",
    ),
    # (1/sqrt(f))*diag(f, 1) with f = 13, 21 dividing no |d_K| here, and
    # (1/sqrt(m))*diag(sqrt(-m), -sqrt(-m)), whose anchor square is -1: the
    # purely imaginary branch of k_square_root.
    pytest.param(
        chain(*(phi_lift(source) for m in FIELDS for source in (
            matrix(m, 13, [[["13", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]),
            matrix(m, 21, [[["21", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]),
            matrix(m, m, [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "-1"]]]),
        ))),
        "ad07b60c165ea6cf1bf696d678464ad39a3500ae5e3d4bb753a91158e1e0090c",
        id="phi-lift-diagonal",
    ),
    # The anchor root (1 + sqrt(-m))/2 has two nonzero coordinates over 2, and
    # for m = 3 (mod 4) it is converted to theta-coordinates.
    pytest.param(
        chain(*(phi_lift(matrix(m, 2, [[["1/2", "1/2"], ["0", "0"]], [["0", "0"], [s, "-" + s]]]))
                for m, s in HALF_ANCHOR_SCALES.items())),
        "40ff6de4437f00cfb877c2f9d17659193cf22f4e9acd6dbf024594a37f652e24",
        id="phi-lift-half-integral-anchor",
    ),
    # [[p, 1], [p - 1, 1]] in SL2(O_K): the anchor square p**2 is past trial
    # division, and the lift gives back the matrix.
    pytest.param(
        chain(*(phi_lift(matrix(m, 1, [[[str(p), "0"], ["1", "0"]],
                                       [[str(p - 1), "0"], ["1", "0"]]]))
                for m in FIELDS for p in LARGE_PRIMES)),
        "7266bcfbe0c8a46fd987035a2d4de7dee4fd0042bd1a2ed041c1a38deb4ead27",
        id="phi-lift-primes-past-trial-division",
    ),
]


@pytest.mark.parametrize("calls,pinned", PINS)
def test_stdout_matches_pin(calls, pinned, capsys, monkeypatch):
    joined, out = [], ""
    for call in calls:
        stdin = out if call.stdin is PIPED else call.stdin
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(call.argv)
        out = capsys.readouterr().out
        assert code == 0, (call.argv, out)
        if call.hashed:
            joined.append(out)
    assert hashlib.sha256("".join(joined).encode()).hexdigest() == pinned
