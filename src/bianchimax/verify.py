"""The property suites: the one place each identity of the paper is checked.

Each suite checks one family of algebraic identities on deterministic samples
(seeded random walks or exhaustive small enumerations) and reports pass/fail
counts plus the first few counterexamples.  Suite order and sampling are fixed
by (seed, suite name, m), so output is byte-stable for identical flags.

`bianchimax verify` runs every suite through `run_suites`, which accepts
only heights 1 to 3: the exhaustive sweeps enumerate (2h+1)**8 coordinate
tuples per field at height h.  Every acceptance criterion calls chosen suites
on its own fields and heights with a `_Context` whose `scale` multiplies
every random sample count; at scale 1 every random draw is the CLI's.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import product
from math import gcd
from random import Random
from typing import Callable

from .field import (
    IdealHNF,
    _check_int_type,
    _quote,
    field_params,
    prime_factors,
    squarefree_divisors,
    squarefree_part,
    units_of,
)
from .involutions import (
    _check_prime_cap,
    atkin_lehner,
    classify_coset,
    coset_law,
    extension_index,
    factor_group_table,
    in_maximal_extension,
)
from .matrices import ExtendedMatrix, is_algebraic_integer
from .orthogonal import (
    LiftError,
    OrthoMap,
    _rows4,
    _twice_gram,
    dual_basis,
    dual_lattice_index,
    in_discriminant_kernel,
    in_dual_lattice,
    preserves_lattice,
    sign_normalize,
    spin_lift,
    spin_map,
)
from .sampling import (
    integral_matrices_with_det,
    matrix_from_coords,
    random_ambient_element,
    random_coset_element,
    random_integral_element,
    random_unimodular,
    random_zero_corner_element,
)
from .serialize import (
    matrix_from_json,
    matrix_to_json,
    orthomap_from_json,
    orthomap_to_json,
)

MAX_COUNTEREXAMPLES = 3


class SuiteResult:
    """Pass and fail counts of one suite for one m, with the first counterexamples."""

    def __init__(self, name: str, m: int) -> None:
        self.name = name
        self.m = m
        self.passed = 0
        self.failed = 0
        self.counterexamples: list[str] = []

    def check(self, ok: bool, witness: Callable[[], str]) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.counterexamples) < MAX_COUNTEREXAMPLES:
                self.counterexamples.append(witness())


class _Context:
    def __init__(self, m: int, height: int, seed: int, scale: int = 1) -> None:
        self.m = m
        self.params = field_params(m)
        self.height = height
        self.seed = seed
        self.scale = scale  # multiplies every random sample count
        self._det_buckets: dict[int, list] = {}

    def rng(self, name: str) -> Random:
        return Random(f"{self.seed}:{name}:{self.m}")

    def det_bucket(self, wanted: set[int]) -> dict[int, list]:
        """Enumerate height-bounded integral matrices once per requested set."""
        missing = {d for d in wanted if d not in self._det_buckets}
        if missing:
            for d in missing:
                self._det_buckets[d] = []
            for det, coords in integral_matrices_with_det(self.params, self.height, missing):
                self._det_buckets[det].append(coords)
        return {d: self._det_buckets[d] for d in wanted}

    @cached_property
    def swept(self) -> tuple[set[int], dict[int, list[tuple[ExtendedMatrix, int]]]]:
        """The divisors of |d_K|, and per det (each divisor and squarefree 2..10 outside
        them) the swept matrices with their labels, built and classified once."""
        divisors = set(squarefree_divisors(self.params.d_K))
        outside = {d for d in range(2, 11) if d not in divisors and squarefree_part(d) == d}
        buckets = self.det_bucket(divisors | outside)
        mats = {d: [matrix_from_coords(self.params, c, d) for c in buckets[d]] for d in buckets}
        return divisors, {d: [(mat, classify_coset(mat)) for mat in mats[d]] for d in mats}

    @cached_property
    def converse_maps(self) -> list[OrthoMap]:
        """12*scale even words of 2, 4 or 6 integral reflections, each times -E if it
        swaps the two cones, then the first two times every spin_map(V_d), so that
        every coset is met even where the reflections reach only some of them."""
        reflections, rng = _integral_reflections(self.m), self.rng("orthogonal.characterization")
        minus_e = OrthoMap(self.m, [[-int(i == j) for j in range(4)] for i in range(4)])
        words = []
        for _ in range(12 * self.scale):
            word = OrthoMap.identity(self.m)
            for _ in range(rng.choice((2, 4, 6))):
                word = word * rng.choice(reflections)
            words.append(word if word.maps_positive_cone() else word * minus_e)
        divisors = squarefree_divisors(self.params.d_K)
        return words + [w * spin_map(atkin_lehner(self.params, d))
                        for w in words[:2] for d in divisors]


def suite_field_divisors(ctx: _Context) -> SuiteResult:
    """Divisor bookkeeping: coprime cofactors and the 2**nu count."""
    res = SuiteResult("field.divisors", ctx.m)
    params = ctx.params
    divisors = squarefree_divisors(params.d_K)
    for d in divisors:
        cofactor = params.norm_omega // d
        res.check(
            params.norm_omega % d == 0 and gcd(d, cofactor) == 1,
            lambda d=d: f"gcd({d}, N(omega)/{d}) != 1 for m={ctx.m}",
        )
    nu = len(prime_factors(params.d_K))
    res.check(
        len(divisors) == 2**nu,
        lambda: f"{len(divisors)} squarefree divisors of {params.d_K}, expected {2**nu}",
    )
    res.check(
        extension_index(params) == 2**nu,
        lambda: f"extension index != 2**{nu} for m={ctx.m}",
    )
    return res


def suite_field_ideals(ctx: _Context) -> SuiteResult:
    """HNF canonicity and norm multiplicativity on random small ideals."""
    res = SuiteResult("field.ideals", ctx.m)
    params = ctx.params
    rng = ctx.rng("field.ideals")
    units = units_of(params)
    for _ in range(40 * ctx.scale):
        gens = [random_integral_element(rng, params, 3) for _ in range(rng.randint(1, 3))]
        ideal = IdealHNF.from_generators(params, gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        res.check(
            IdealHNF.from_generators(params, shuffled) == ideal,
            lambda gens=gens: f"permuting generators changed the HNF: {gens}",
        )
        scaled = [g * rng.choice(units) for g in gens]
        res.check(
            IdealHNF.from_generators(params, scaled) == ideal,
            lambda gens=gens: f"unit-scaled generators changed the HNF: {gens}",
        )
        other = IdealHNF.from_generators(
            params, [random_integral_element(rng, params, 3) for _ in range(2)]
        )
        res.check(
            (ideal * other).norm() == ideal.norm() * other.norm(),
            lambda: f"norm not multiplicative: {ideal!r} * {other!r}",
        )
    for _ in range(25 * ctx.scale):
        z = random_integral_element(rng, params, 4)
        if z.is_zero():
            continue
        res.check(
            IdealHNF.principal(params, z).norm() == z.norm(),
            lambda z=z: f"principal ideal of {z} has norm != N(z)",
        )
    return res


def suite_matrices_canonical(ctx: _Context) -> SuiteResult:
    """Canonical-form soundness and exact group laws."""
    res = SuiteResult("matrices.canonical", ctx.m)
    params = ctx.params
    rng = ctx.rng("matrices.canonical")
    divisors = squarefree_divisors(params.d_K)
    for _ in range(30 * ctx.scale):
        mat = random_coset_element(rng, params, rng.choice(divisors))
        d, entries = mat.integral_representative()
        for g in (1, 2, 3):
            scaled = tuple(z * g for z in entries)
            rebuilt = ExtendedMatrix.from_integral(
                g * g * d, ((scaled[0], scaled[1]), (scaled[2], scaled[3]))
            )
            res.check(
                rebuilt == mat,
                lambda mat=mat, g=g: f"scaling by {g} changed the canonical form of {mat!r}",
            )
    for _ in range(30 * ctx.scale):
        p = random_ambient_element(rng, params)
        q = random_ambient_element(rng, params)
        r = random_ambient_element(rng, params)
        res.check(
            (p * q) * r == p * (q * r),
            lambda: f"associativity failed for {p!r}, {q!r}, {r!r}",
        )
        res.check(
            p * p.inverse() == ExtendedMatrix.identity(ctx.m),
            lambda p=p: f"inverse law failed for {p!r}",
        )
        a, b, c, d = p.entries
        res.check(a * d - b * c == p.f, lambda p=p: f"det A != f for {p!r}")
    return res


def suite_matrices_entries(ctx: _Context) -> SuiteResult:
    """Coset elements have denominator d and algebraic-integer entries over sqrt(d)."""
    res = SuiteResult("matrices.entries", ctx.m)
    params = ctx.params
    rng = ctx.rng("matrices.entries")
    for d in squarefree_divisors(params.d_K):
        for _ in range(10 * ctx.scale):
            mat = random_coset_element(rng, params, d)
            for z in mat.entries:
                res.check(
                    mat.f == d and is_algebraic_integer(z, d),
                    lambda z=z, mat=mat, d=d: f"{z}/sqrt({mat.f}) in coset {d} is not integral",
                )
    return res


def suite_involutions_cosets(ctx: _Context) -> SuiteResult:
    """Well-definedness, normality, squares and the coset product law."""
    res = SuiteResult("involutions.cosets", ctx.m)
    params = ctx.params
    rng = ctx.rng("involutions.cosets")
    divisors = squarefree_divisors(params.d_K)
    for d in divisors:
        variants = [atkin_lehner(params, d, shift) for shift in range(3)]
        for v in variants:
            for w in variants:
                res.check(
                    (v * w.inverse()).is_integral() and (w.inverse() * v).is_integral(),
                    lambda d=d: f"Bezout choice changed the coset of V_{d}",
                )
        v_d = variants[0]
        for _ in range(5 * ctx.scale):
            g = random_unimodular(rng, params)
            res.check(
                (v_d * g * v_d.inverse()).is_integral(),
                lambda d=d: f"V_{d} does not normalize the integral subgroup",
            )
        res.check((v_d * v_d).is_integral(), lambda d=d: f"V_{d}**2 is not integral")
    for d in divisors:
        for e in divisors:
            v = atkin_lehner(params, d) * atkin_lehner(params, e)
            res.check(
                classify_coset(v) == coset_law(d, e),
                lambda d=d, e=e: f"V_{d}*V_{e} not in coset {coset_law(d, e)}",
            )
            if d != e:
                res.check(
                    not (atkin_lehner(params, d) * atkin_lehner(params, e).inverse()).is_integral(),
                    lambda d=d, e=e: f"cosets {d} and {e} are not distinct",
                )
    labels = sorted(classify_coset(atkin_lehner(params, d)) for d in divisors)
    res.check(labels == divisors, lambda: f"coset labels {labels} != divisors {divisors}")
    return res


def suite_involutions_criterion(ctx: _Context) -> SuiteResult:
    """Ideal criterion vs. coset membership and label on an exhaustive enumeration."""
    res = SuiteResult("involutions.criterion", ctx.m)
    divisors, swept = ctx.swept
    for d in sorted(divisors):
        for mat, label in swept[d]:
            member = in_maximal_extension(mat)
            res.check(
                member == (label == d),
                lambda mat=mat, member=member: f"criterion={member}, coset/label differ: {mat!r}",
            )
    for d in sorted(swept.keys() - divisors):
        for mat, _ in swept[d]:
            res.check(
                not in_maximal_extension(mat),
                lambda mat=mat: f"matrix with det {mat.f} outside d_K passed the criterion: {mat!r}",
            )
    return res


def suite_involutions_factor_group(ctx: _Context) -> SuiteResult:
    """The coset labels form an elementary abelian 2-group: the product of two
    labels is the label of the symmetric difference of their prime supports."""
    res = SuiteResult("involutions.factor_group", ctx.m)
    labels, table = factor_group_table(ctx.params)
    supports = {d: frozenset(prime_factors(d)) for d in labels}
    by_support = {s: d for d, s in supports.items()}
    res.check(len(by_support) == len(labels), lambda: f"labels {labels} share a support")
    for i, d in enumerate(labels):
        res.check(table[i][i] == 1, lambda d=d: f"{d} is not self-inverse")
        res.check(sorted(table[i]) == labels, lambda d=d: f"row {d} does not permute {labels}")
        for j, e in enumerate(labels):
            res.check(
                table[i][j] == by_support.get(supports[d] ^ supports[e]),
                lambda d=d, e=e: f"table[{d}][{e}] is not the symmetric-difference label",
            )
    return res


def _integral_reflections(m: int) -> list[OrthoMap]:
    """The integral reflections I - 2*v*(Tv)^t/(v^t T v), T = 2G from _twice_gram, of the
    v with entries in [-2, 2] and q(v) != 0; v and -v give the same one."""
    found = set()
    for v in product(range(-2, 3), repeat=4):
        tv = [sum(x * y for x, y in zip(row, v)) for row in _twice_gram(m)[0]]
        vtv = sum(x * y for x, y in zip(v, tv))
        num = [vtv * (i == j) - 2 * v[i] * tv[j] for i in range(4) for j in range(4)]
        if vtv and all(x % vtv == 0 for x in num):
            found.add(_rows4(tuple(x // vtv for x in num)))
    return [OrthoMap(m, rows) for rows in sorted(found)]


def suite_orthogonal_characterization(ctx: _Context) -> SuiteResult:
    """The image of the extension is the lattice group, with the discriminant
    kernel at f = 1, both ways: on the sweeps of involutions.criterion, and
    conversely on reflection words, which spin_map did not produce."""
    res = SuiteResult("orthogonal.characterization", ctx.m)
    divisors, swept = ctx.swept
    for d in sorted(swept):
        for mat, label in swept[d]:
            image = spin_map(mat)
            lattice = preserves_lattice(image)
            res.check(lattice == (label != 0), lambda mat=mat: f"lattice != membership: {mat!r}")
            if label:
                res.check(lattice and in_discriminant_kernel(image) == (mat.f == 1),
                          lambda mat=mat: f"discriminant kernel test != (f == 1): {mat!r}")
    labels = set()
    for phi in ctx.converse_maps:
        try:
            lifted = spin_lift(phi)
        except LiftError as exc:
            res.check(False, lambda phi=phi, exc=exc: f"lift failed at {exc.stage}: {phi!r}")
            continue
        member = in_maximal_extension(lifted)
        res.check(member, lambda phi=phi: f"lift outside the extension: {phi!r}")
        res.check(in_discriminant_kernel(phi) == (lifted.f == 1),
                  lambda phi=phi: f"kernel test != (f == 1) on the lift of {phi!r}")
        if member:
            labels.add(classify_coset(lifted))
    res.check(labels == divisors, lambda: f"lifts reached the cosets {sorted(labels)} only")
    return res


def suite_orthogonal_homomorphism(ctx: _Context) -> SuiteResult:
    """Multiplicativity, kernel and image invariants of the spin map."""
    res = SuiteResult("orthogonal.homomorphism", ctx.m)
    params = ctx.params
    rng = ctx.rng("orthogonal.homomorphism")
    for _ in range(40 * ctx.scale):
        p = random_ambient_element(rng, params)
        q = random_ambient_element(rng, params)
        res.check(
            spin_map(p * q) == spin_map(p) * spin_map(q),
            lambda p=p, q=q: f"spin map is not multiplicative on {p!r}, {q!r}",
        )
        image = spin_map(p)
        res.check(image.is_orthogonal(), lambda p=p: f"image of {p!r} not orthogonal")
        res.check(image.determinant() == 1, lambda p=p: f"image of {p!r} has det != 1")
        res.check(
            image.maps_positive_cone(),
            lambda p=p: f"image of {p!r} leaves the positive cone",
        )
        res.check(
            spin_map(-p) == image,
            lambda p=p: f"spin map distinguishes {p!r} from its negative",
        )
    identity = OrthoMap.identity(ctx.m)
    for coords in ctx.det_bucket({1})[1]:
        mat = matrix_from_coords(params, coords, 1)
        is_pm_identity = mat in (ExtendedMatrix.identity(ctx.m), -ExtendedMatrix.identity(ctx.m))
        res.check(
            (spin_map(mat) == identity) == is_pm_identity,
            lambda mat=mat: f"kernel mismatch at {mat!r}",
        )
    return res


def suite_orthogonal_lattice(ctx: _Context) -> SuiteResult:
    """Lattice preservation, discriminant kernel and dual-lattice stability."""
    res = SuiteResult("orthogonal.lattice", ctx.m)
    params = ctx.params
    rng = ctx.rng("orthogonal.lattice")
    duals = dual_basis(params)
    res.check(
        dual_lattice_index(params) == abs(params.d_K),
        lambda: f"dual lattice index != |d_K| for m={ctx.m}",
    )
    for d in squarefree_divisors(params.d_K):
        for _ in range(8 * ctx.scale):
            mat = random_coset_element(rng, params, d)
            image = spin_map(mat)
            lattice = preserves_lattice(image)
            res.check(
                lattice,
                lambda mat=mat: f"image of {mat!r} does not preserve the lattice",
            )
            res.check(
                lattice and in_discriminant_kernel(image) == (d == 1),
                lambda mat=mat, d=d: f"discriminant kernel test wrong on coset {d}: {mat!r}",
            )
            for g in duals:
                res.check(
                    in_dual_lattice(params, image.apply(g)),
                    lambda mat=mat: f"image of {mat!r} moves the dual lattice",
                )
    return res


def suite_orthogonal_lift(ctx: _Context) -> SuiteResult:
    """Round trip: lifting the image recovers the element up to sign."""
    res = SuiteResult("orthogonal.lift", ctx.m)
    params = ctx.params
    rng = ctx.rng("orthogonal.lift")
    n = ctx.scale
    samples = [random_ambient_element(rng, params) for _ in range(15 * n)]
    samples += [random_zero_corner_element(rng, params, f) for f in (1, 2) for _ in range(3 * n)]
    divisors = squarefree_divisors(params.d_K)
    samples += [random_coset_element(rng, params, rng.choice(divisors)) for _ in range(10 * n)]
    # A lift that raises is one failed check, not an abort.
    for mat in samples:
        try:
            lifted = spin_lift(spin_map(mat))
        except LiftError as exc:
            res.check(False, lambda mat=mat, exc=exc: (
                f"lift of the image of {mat!r} failed at stage {exc.stage}: {exc}"
            ))
            continue
        res.check(
            lifted == sign_normalize(mat),
            lambda mat=mat, lifted=lifted: f"lift of the image of {mat!r} gave {lifted!r}",
        )
    # Products of images stay liftable and classify inside the extension.
    for _ in range(5 * n):
        d = rng.choice(divisors)
        mat, unimodular = random_coset_element(rng, params, d), random_unimodular(rng, params)
        try:
            lifted = spin_lift(spin_map(mat) * spin_map(unimodular))
        except LiftError as exc:
            res.check(False, lambda mat=mat, u=unimodular, exc=exc: (
                f"lifted product of the images of {mat!r} and {u!r} "
                f"failed at stage {exc.stage}: {exc}"
            ))
            continue
        res.check(
            classify_coset(lifted) == d,
            lambda d=d, lifted=lifted: f"lifted product not in coset {d}: {lifted!r}",
        )
    return res


def suite_serialize_roundtrip(ctx: _Context) -> SuiteResult:
    """JSON forms reparse to equal values, including through a real encoder."""
    res = SuiteResult("serialize.roundtrip", ctx.m)
    params = ctx.params
    rng = ctx.rng("serialize.roundtrip")
    for _ in range(20 * ctx.scale):
        mat = random_ambient_element(rng, params)
        res.check(
            matrix_from_json(json.loads(json.dumps(matrix_to_json(mat)))) == mat,
            lambda mat=mat: f"matrix JSON round trip changed {mat!r}",
        )
        image = spin_map(mat)
        res.check(
            orthomap_from_json(json.loads(json.dumps(orthomap_to_json(image)))) == image,
            lambda mat=mat: f"orthogonal map JSON round trip changed the image of {mat!r}",
        )
    return res


ALL_SUITES: tuple[Callable[[_Context], SuiteResult], ...] = (
    suite_field_divisors,
    suite_field_ideals,
    suite_involutions_cosets,
    suite_involutions_criterion,
    suite_involutions_factor_group,
    suite_matrices_canonical,
    suite_matrices_entries,
    suite_orthogonal_characterization,
    suite_orthogonal_homomorphism,
    suite_orthogonal_lattice,
    suite_orthogonal_lift,
    suite_serialize_roundtrip,
)


def run_suites(ms: list[int], height: int = 2, seed: int = 0) -> list[SuiteResult]:
    """Run every suite for every m, ordered by suite name then m.

    Height and seed are ints and not bools, or TypeError is raised.  Height 0
    or below sweeps nothing and height 4 sweeps 9**8 matrices per field, so a
    height outside 1..3 raises ValueError, and so does an m given twice, which
    would run and print every suite twice, or an m whose d_K has more than 10
    primes, as the coset suites check all 4**nu pairs of its nu-prime cosets.
    """
    _check_int_type("height", height)
    _check_int_type("seed", seed)
    if not 1 <= height <= 3:
        raise ValueError(f"height {_quote(height)} is outside 1..3")
    if len(set(ms)) < len(ms):
        raise ValueError(f"m = {_quote(max(ms, key=ms.count))} is given more than once")
    for m in ms:
        _check_prime_cap("verify", field_params(m))
    results: list[SuiteResult] = []
    for m in ms:
        ctx = _Context(m, height, seed)
        for suite in ALL_SUITES:
            results.append(suite(ctx))
    results.sort(key=lambda r: (r.name, r.m))
    return results
