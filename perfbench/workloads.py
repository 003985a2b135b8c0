"""The three benchmark workloads and the per-function replays.

A workload builds its inputs from the seed with the integer code in
`intmath`, hands the program only those inputs, and checks every answer
against an oracle computed outside the timed region.  `op(item, call)` runs
one operation; `call(name, fn, *args)` wraps each public call of the
library, so the traced run can put a span around it while the timed run
calls straight through.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from random import Random

from bianchimax import cli
from bianchimax.field import IdealHNF, KElement, field_params, ideal_from_generators
from bianchimax.involutions import atkin_lehner, classify_coset, in_maximal_extension
from bianchimax.matrices import ExtendedMatrix
from bianchimax.orthogonal import (
    OrthoMap,
    in_discriminant_kernel,
    preserves_lattice,
    sign_normalize,
    spin_lift,
    spin_map,
)
from bianchimax.serialize import (
    matrix_from_json,
    matrix_to_json,
    orthomap_from_json,
    orthomap_to_json,
)

import intmath
from intmath import Ring

CLI_COMMANDS = ("vd", "classify", "phi", "lift", "index", "table")

# Functions the workloads' operations call, each under a span when traced.
SPAN_FUNCTIONS = (
    "field.FieldParams.from_theta_coords",
    "matrices.from_integral",
    "involutions.in_maximal_extension",
    "involutions.classify_coset",
    "orthogonal.spin_map",
    "orthogonal.OrthoMap.is_orthogonal",
    "orthogonal.preserves_lattice",
    "orthogonal.in_discriminant_kernel",
    "orthogonal.spin_lift",
) + tuple(f"cli.main.{c}" for c in CLI_COMMANDS)

# Functions timed only by replay, on values derived from a workload's inputs.
REPLAY_FUNCTIONS = (
    "matrices.integral_representative",
    "field.ideal_from_generators",
    "field.IdealHNF.mul",
    "field.IdealHNF.principal",
    "involutions.atkin_lehner",
    "matrices.ExtendedMatrix.mul",
    "matrices.ExtendedMatrix.is_integral",
    "field.KElement.mul",
    "orthogonal.OrthoMap.inverse",
    "serialize.matrix_from_json",
    "serialize.orthomap_from_json",
    "serialize.matrix_to_json",
    "serialize.orthomap_to_json",
)

LAYERS = ("field", "matrices", "involutions", "orthogonal", "serialize", "cli")


def direct(name, fn, *args):
    return fn(*args)


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def interleave(rng: Random, strata: list[list]) -> list:
    """Shuffle each stratum and merge them in proportion, so every prefix of
    the result keeps each stratum's share to within one item."""
    for s in strata:
        rng.shuffle(s)
    strata = [s for s in strata if s]
    taken = [0] * len(strata)
    out = []
    for _ in range(sum(map(len, strata))):
        i = min(range(len(strata)), key=lambda k: (taken[k] + 0.5) / len(strata[k]))
        out.append(strata[i][taken[i]])
        taken[i] += 1
    return out


def library_matrix(m: int, det: int, x: intmath.Mat) -> ExtendedMatrix:
    fp = field_params(m).from_theta_coords
    e = [fp(a, b) for a, b in x]
    return ExtendedMatrix.from_integral(det, ((e[0], e[1]), (e[2], e[3])))


def run_cli_inprocess(argv: list[str], stdin: str) -> tuple[int, str]:
    """cli.main with stdin and stdout redirected, as one warm process."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


class Workload:
    name = ""

    def setup(self, seed: int, root: str) -> None:
        """Build self.items (all inputs), self.order (indices into items, the
        timed order) and self.input_digest; warm the program up."""
        raise NotImplementedError

    def op(self, item, call):
        raise NotImplementedError

    def expected(self, indices) -> dict:
        """The oracle's answer for each item index, computed untimed."""
        raise NotImplementedError

    def tamper(self, expected):
        """A wrong expectation, for the checker's negative self-test."""
        raise NotImplementedError

    def global_failures(self) -> list[str]:
        return []

    def sample_matrices(self) -> list[tuple[int, int, intmath.Mat]]:
        """(m, det, integral matrix) inputs that replays are built from."""
        raise NotImplementedError

    def ratios(self, indices) -> dict[str, float]:
        raise NotImplementedError

    def traced_op(self, item, call):
        """The operation the traced run repeats; the timed one by default."""
        return self.op(item, call)


# --- membership_sweep --------------------------------------------------------

HEIGHT = 2
# Members of the exhaustive height-2 input set, for each m: (members, inputs).
PINNED_MEMBERS = {1: (2896, 13504), 3: (3152, 13208), 5: (1024, 7232)}


class MembershipSweep(Workload):
    """Every height-2 integral matrix with a squarefree determinant that
    divides |d_K| or is at most 10; the op canonicalizes it, runs the ideal
    criterion and, for members, classifies the coset."""

    name = "membership_sweep"
    # Inputs in the timed loop: a seeded subset that keeps the m and member
    # shares, small enough that each input is timed about twenty times.
    TIMED_INPUTS = 4000

    def setup(self, seed, root):
        strata, self.items, self.labels = [], [], []
        self.counts = {}
        for m in PINNED_MEMBERS:
            ring = Ring(m)
            outside = [d for d in range(2, 11)
                       if d not in ring.divisors and intmath.squarefree_part(d) == d]
            inputs = intmath.height_matrices(ring, HEIGHT, ring.divisors + outside)
            labels = [ring.coset_label(d, x) for d, x in inputs]
            self.counts[m] = (sum(1 for lab in labels if lab), len(inputs))
            params = field_params(m)
            members, others = [], []
            for (d, x), lab in zip(inputs, labels):
                (members if lab else others).append(len(self.items))
                self.items.append((params, d, x))
                self.labels.append(lab)
            strata += [members, others]
        self.order = interleave(Random(f"{seed}:{self.name}"), strata)[: self.TIMED_INPUTS]
        self.input_digest = digest([(self.items[i][0].m,) + self.items[i][1:] for i in self.order])
        for i in self.order[:300]:
            self.op(self.items[i], direct)

    def op(self, item, call):
        params, d, x = item
        e = [call("field.FieldParams.from_theta_coords", params.from_theta_coords, a, b)
             for a, b in x]
        mat = call("matrices.from_integral", ExtendedMatrix.from_integral,
                   d, ((e[0], e[1]), (e[2], e[3])))
        if call("involutions.in_maximal_extension", in_maximal_extension, mat):
            return call("involutions.classify_coset", classify_coset, mat)
        return 0

    def expected(self, indices):
        return {i: self.labels[i] for i in indices}

    def tamper(self, label):
        return 0 if label else 1

    def global_failures(self):
        return [f"m={m}: {got[0]} of {got[1]} height-2 inputs are members by the coset "
                f"test, pinned {PINNED_MEMBERS[m]}"
                for m, got in self.counts.items() if got != PINNED_MEMBERS[m]]

    def sample_matrices(self):
        return [(self.items[i][0].m,) + self.items[i][1:] for i in self.order[:48]]

    def ratios(self, indices):
        return {
            "involutions.member_ratio": sum(1 for i in indices if self.labels[i]) / len(indices),
            "orthogonal.lattice_preserving_ratio": 0.0,
            "orthogonal.zero_corner_ratio": sum(
                1 for i in indices if self.items[i][2][0] == (0, 0)) / len(indices),
        }


# --- spin_roundtrip ----------------------------------------------------------

SPIN_MS = (1, 3, 5, 10)


def spin_inputs(rng: Random, ring: Ring, kind: str) -> tuple[int, intmath.Mat]:
    """(det, integral matrix) of one input of the given kind."""
    if kind == "coset":
        d = rng.choice(ring.divisors)
        left, right = (intmath.unimodular(rng, ring, 3) for _ in range(2))
        return d, ring.matmul(ring.matmul(left, ring.atkin_lehner(d)), right)
    if kind == "ambient":
        d = rng.randint(1, 8)
        left, right = (intmath.unimodular(rng, ring, 2) for _ in range(2))
        return d, ring.matmul(ring.matmul(left, ((d, 0), (0, 0), (0, 0), (1, 0))), right)
    # Zero upper-left entry: [[0, -u], [conj(u)*f, z]] with u a unit.
    f = rng.choice(ring.divisors)
    u = rng.choice(ring.units())
    z = (rng.randint(-2, 2), rng.randint(-2, 2))
    uf = ring.conj(u)
    return f, ((0, 0), (-u[0], -u[1]), (uf[0] * f, uf[1] * f), z)


class SpinRoundtrip(Workload):
    """Coset elements, ambient elements and zero-corner elements for
    m = 1, 3, 5, 10; the op maps each through the spin homomorphism, runs
    the lattice tests and lifts the image back."""

    name = "spin_roundtrip"
    # Inputs per m and kind; zero-corner inputs take spin_lift's longer route.
    PER_M = {"coset": 30, "ambient": 18, "zero_corner": 12}

    def setup(self, seed, root):
        rng = Random(f"{seed}:{self.name}")
        self.items, self.ints, strata = [], [], []
        for m in SPIN_MS:
            ring = Ring(m)
            for kind, count in self.PER_M.items():
                stratum = []
                for _ in range(count):
                    det, x = spin_inputs(rng, ring, kind)
                    if ring.det(x) != (det, 0):
                        raise AssertionError(f"generated det {ring.det(x)} != {det}")
                    stratum.append(len(self.items))
                    self.ints.append((m, det, x))
                    self.items.append(library_matrix(m, det, x))
                strata.append(stratum)
        self.order = interleave(rng, strata)
        self.input_digest = digest([self.ints[i] for i in self.order])
        for i in self.order[:24]:
            self.op(self.items[i], direct)

    def op(self, mat, call):
        phi = call("orthogonal.spin_map", spin_map, mat)
        orthogonal = call("orthogonal.OrthoMap.is_orthogonal", phi.is_orthogonal)
        lattice = call("orthogonal.preserves_lattice", preserves_lattice, phi)
        kernel = (call("orthogonal.in_discriminant_kernel", in_discriminant_kernel, phi)
                  if lattice else None)
        return orthogonal, lattice, kernel, call("orthogonal.spin_lift", spin_lift, phi)

    def expected(self, indices):
        """The paper's identities: spin_lift(spin_map(M)) == sign_normalize(M),
        preserves_lattice(spin_map(M)) == in_maximal_extension(M), and the
        discriminant kernel is the coset labelled 1.  Membership must also
        agree with the integer coset test, else nothing matches."""
        out = {}
        for i in indices:
            mat = self.items[i]
            m, det, x = self.ints[i]
            label = Ring(m).coset_label(det, x)
            member = in_maximal_extension(mat)
            if member != bool(label) or (member and classify_coset(mat) != label):
                out[i] = None
            else:
                out[i] = (True, member, label == 1 if member else None, sign_normalize(mat))
        return out

    def tamper(self, answer):
        return answer and answer[:1] + (not answer[1],) + answer[2:]

    def sample_matrices(self):
        return [self.ints[i] for i in self.order[:24]]

    def ratios(self, indices):
        # Every op gets a lattice-preserving map exactly when its input is a
        # member; the oracle checks that identity on each answer.
        labels = [Ring(m).coset_label(det, x) for m, det, x in (self.ints[i] for i in indices)]
        members = sum(1 for lab in labels if lab) / len(indices)
        return {
            "involutions.member_ratio": members,
            "orthogonal.lattice_preserving_ratio": members,
            "orthogonal.zero_corner_ratio": sum(
                1 for i in indices if self.ints[i][2][0] == (0, 0)) / len(indices),
        }


# --- cli_pipeline ------------------------------------------------------------


def cli_calls(rng: Random, ring: Ring) -> list[dict]:
    """One call of each kind in the mix for one m, with payload and the
    expected stdout, all from the integer oracle."""
    m = ring.m

    def matrix(kind: str) -> tuple[int, intmath.Mat]:
        while True:
            det, x = spin_inputs(rng, ring, "coset" if kind == "member" else "ambient")
            if kind == "member" or (det not in ring.divisors
                                    and intmath.squarefree_part(det) == det):
                return det, x

    def payload(det, x):
        f, entries = intmath.canonical(ring, det, x)
        return f, entries, json.dumps(intmath.matrix_json(m, f, entries))

    calls = []
    d = rng.choice(ring.divisors)
    u, v = ring.bezout(d)
    vd = intmath.matrix_json(m, d, intmath.canonical(ring, d, ring.atkin_lehner(d))[1])
    calls.append(("vd", ["--m", str(m), "--d", str(d)], "", dict(vd, u=u, v=v), None))
    for kind in ("member", "other"):
        det, x = matrix(kind)
        label = ring.coset_label(det, x)
        out = {"member": True, "label": label} if label else {"member": False}
        calls.append(("classify", [], payload(det, x)[2], out, (det, x)))
    det, x = matrix(rng.choice(("member", "other")))
    f, entries, text = payload(det, x)
    label = ring.coset_label(det, x)
    phi = dict(intmath.orthomap_json(m, intmath.spin_rows(ring, f, entries)),
               orthogonal=True, lattice_preserving=bool(label), discriminant_kernel=label == 1)
    calls.append(("phi", [], text, phi, (det, x)))
    det, x = matrix("member")
    f, entries, _ = payload(det, x)
    text = json.dumps(intmath.orthomap_json(m, intmath.spin_rows(ring, f, entries)))
    calls.append(("lift", [], text, intmath.matrix_json(m, f, intmath.sign_normalized(entries)),
                  (det, x)))
    calls.append(("index", ["--m", str(m)], "",
                  {"m": m, "d_K": ring.d_K, "index": len(ring.divisors)}, None))
    table = [[d * e // gcd(d, e) ** 2 for e in ring.divisors] for d in ring.divisors]
    calls.append(("table", ["--m", str(m)], "",
                  {"m": m, "d_K": ring.d_K, "labels": ring.divisors, "table": table}, None))
    return [{"command": c, "argv": [c] + a, "stdin": s, "stdout": intmath.dumps(p),
             "m": m, "matrix": mx} for c, a, s, p, mx in calls]


class CliPipeline(Workload):
    """Sequential `python -m bianchimax` processes, one at a time, with JSON
    on stdin; each call pays interpreter start-up, import and cold caches."""

    name = "cli_pipeline"
    ROUNDS = 4  # calls of each kind per m

    def setup(self, seed, root):
        rng = Random(f"{seed}:{self.name}")
        self.items, strata = [], {}
        for _ in range(self.ROUNDS):
            for m in SPIN_MS:
                for call in cli_calls(rng, Ring(m)):
                    strata.setdefault(call["command"], []).append(len(self.items))
                    self.items.append(call)
        self.order = interleave(rng, list(strata.values()))
        self.input_digest = digest([(self.items[i]["argv"], self.items[i]["stdin"])
                                    for i in self.order])
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        for i in self.order[:2]:
            self.subprocess(self.items[i])

    def subprocess(self, item) -> tuple[int, str]:
        done = subprocess.run([sys.executable, "-m", "bianchimax"] + item["argv"],
                              input=item["stdin"].encode(), capture_output=True,
                              cwd=self.root, env=self.env, check=False)
        return done.returncode, done.stdout.decode()

    def op(self, item, call):
        return self.subprocess(item)

    def traced_op(self, item, call):
        # Spans cannot reach into a child process, so the traced run calls
        # cli.main warm in this process.
        return call("cli.main." + item["command"], run_cli_inprocess,
                    item["argv"], item["stdin"])

    def expected(self, indices):
        return {i: (0, self.items[i]["stdout"]) for i in indices}

    def tamper(self, answer):
        return (answer[0], answer[1].replace('"', "'", 1))

    def sample_matrices(self):
        return [(c["m"],) + c["matrix"] for c in self.items if c["matrix"]][:24]

    def ratios(self, indices):
        items = [self.items[i] for i in indices]
        rings = {m: Ring(m) for m in SPIN_MS}

        def share(pred):
            return sum(1 for c in items if pred(c)) / len(items)

        return {
            "involutions.member_ratio": share(
                lambda c: c["matrix"] and rings[c["m"]].coset_label(*c["matrix"]) > 0),
            "orthogonal.lattice_preserving_ratio": share(
                lambda c: c["command"] == "phi" and '"lattice_preserving": true' in c["stdout"]),
            "orthogonal.zero_corner_ratio": share(
                lambda c: c["matrix"] and c["matrix"][1][0] == (0, 0)),
        }


WORKLOADS = {w.name: w for w in (MembershipSweep, SpinRoundtrip, CliPipeline)}


# --- Replays -----------------------------------------------------------------


def replay_calls(samples: list[tuple[int, int, intmath.Mat]]) -> dict[str, list]:
    """For each timed function, the (fn, args) calls it is replayed on,
    derived from the given (m, det, integral matrix) inputs."""
    calls: dict[str, list] = {}

    def add(name, fn, *args):
        calls.setdefault(name, []).append((fn, args))

    for m, det, x in samples:
        params = field_params(m)
        mat = library_matrix(m, det, x)
        e = [params.from_theta_coords(a, b) for a, b in x]
        rows = ((e[0], e[1]), (e[2], e[3]))
        phi = spin_map(mat)
        for a, b in x:
            add("field.FieldParams.from_theta_coords", params.from_theta_coords, a, b)
        add("matrices.from_integral", ExtendedMatrix.from_integral, det, rows)
        add("involutions.in_maximal_extension", in_maximal_extension, mat)
        add("matrices.integral_representative", ExtendedMatrix.integral_representative, mat)
        det_b, entries = mat.integral_representative()
        add("field.ideal_from_generators", ideal_from_generators, params, entries)
        content = ideal_from_generators(params, entries)
        add("field.IdealHNF.mul", IdealHNF.__mul__, content, content)
        add("field.IdealHNF.principal", IdealHNF.principal, params, params.integer(det_b))
        a, b, c, d = mat.entries
        add("field.KElement.mul", KElement.__mul__, a, d)
        add("field.KElement.mul", KElement.__mul__, b, c)
        add("orthogonal.spin_map", spin_map, mat)
        add("orthogonal.OrthoMap.is_orthogonal", OrthoMap.is_orthogonal, phi)
        add("orthogonal.preserves_lattice", preserves_lattice, phi)
        add("orthogonal.spin_lift", spin_lift, phi)
        add("orthogonal.OrthoMap.inverse", OrthoMap.inverse, phi)
        add("serialize.matrix_to_json", matrix_to_json, mat)
        add("serialize.matrix_from_json", matrix_from_json, matrix_to_json(mat))
        add("serialize.orthomap_to_json", orthomap_to_json, phi)
        add("serialize.orthomap_from_json", orthomap_from_json, orthomap_to_json(phi))
        text = json.dumps(matrix_to_json(mat))
        add("cli.main.classify", run_cli_inprocess, ["classify"], text)
        add("cli.main.phi", run_cli_inprocess, ["phi"], text)
        add("cli.main.lift", run_cli_inprocess, ["lift"], json.dumps(orthomap_to_json(phi)))
        add("cli.main.index", run_cli_inprocess, ["index", "--m", str(m)], "")
        add("cli.main.table", run_cli_inprocess, ["table", "--m", str(m)], "")
        if not in_maximal_extension(mat):
            continue
        label = classify_coset(mat)
        v_inverse = atkin_lehner(params, label).inverse()
        add("involutions.classify_coset", classify_coset, mat)
        add("involutions.atkin_lehner", atkin_lehner, params, label)
        add("matrices.ExtendedMatrix.mul", ExtendedMatrix.__mul__, mat, v_inverse)
        add("matrices.ExtendedMatrix.is_integral", ExtendedMatrix.is_integral, mat * v_inverse)
        add("orthogonal.in_discriminant_kernel", in_discriminant_kernel, phi)
        add("cli.main.vd", run_cli_inprocess, ["vd", "--m", str(m), "--d", str(label)], "")
    return calls


def reference_sample() -> tuple[int, int, intmath.Mat]:
    """The fixed m = 5 element [[1, theta], [0, 1]] * A_10 * [[1, 0], [1 + theta, 1]]
    of the V_10 coset, on which the per-operation table is re-measured."""
    ring = Ring(5)
    left = ((1, 0), (0, 1), (0, 0), (1, 0))
    right = ((1, 0), (0, 0), (1, 1), (1, 0))
    return 5, 10, ring.matmul(ring.matmul(left, ring.atkin_lehner(10)), right)


# The operations of the per-operation table, re-measured on reference_sample().
REFERENCE_FUNCTIONS = (
    "field.KElement.mul",
    "matrices.ExtendedMatrix.mul",
    "involutions.in_maximal_extension",
    "involutions.classify_coset",
    "orthogonal.spin_map",
    "orthogonal.OrthoMap.is_orthogonal",
    "orthogonal.preserves_lattice",
    "orthogonal.in_discriminant_kernel",
    "orthogonal.spin_lift",
)
