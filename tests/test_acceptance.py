"""Acceptance suite: one test per criterion, exact equality throughout.

Criteria 1-8 call the property suites of `bianchimax.verify`, where each
identity is written down once, on chosen fields and heights and at a larger
`scale` (a multiplier of every random sample count).  Criterion 9 checks the
factor-group table, which no suite covers.  Criterion 10 tests the converse
of the SO(1,3) characterization on maps that spin_map did not produce: even
words in the integral reflections of the lattice.  Every test prints one
PASS/FAIL line with its runtime and asserts correctness and the runtime
ceiling; run `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from functools import cache
from itertools import product
from random import Random

from bianchimax import (
    LiftError,
    OrthoMap,
    atkin_lehner,
    classify_coset,
    factor_group_table,
    field_params,
    in_discriminant_kernel,
    in_maximal_extension,
    prime_factors,
    spin_lift,
    spin_map,
    squarefree_divisors,
    squarefree_part,
)
from bianchimax.verify import (
    SuiteResult,
    _Context,
    suite_field_divisors,
    suite_involutions_cosets,
    suite_involutions_criterion,
    suite_matrices_entries,
    suite_orthogonal_homomorphism,
    suite_orthogonal_lattice,
    suite_orthogonal_lift,
)

SQUAREFREE_M_TO_100 = [m for m in range(1, 101) if squarefree_part(m) == m]
FIVE_FIELDS = [1, 2, 3, 5, 10]
NINE_FIELDS = [1, 2, 3, 5, 6, 7, 10, 11, 15]


def _run(suites, ms, height=2, scale=1):
    """Each suite for each m, sharing one context (and its sweeps) per m."""
    contexts = [_Context(m, height, 0, scale) for m in ms]
    return [suite(ctx) for ctx in contexts for suite in suites]


def _criterion(number, description, budget, run):
    """Time `run()`, print the PASS/FAIL line and assert on its suite results."""
    start = time.perf_counter()
    results = run()
    elapsed = time.perf_counter() - start
    failures = [f"{r.name}[m={r.m}]: {r.counterexamples}" for r in results if r.failed]
    failures += [f"{r.name}[m={r.m}] checked nothing" for r in results if not r.passed]
    ok = not failures and elapsed <= budget
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {number}: {description} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert not failures, failures[:5]
    assert elapsed <= budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


@cache
def _coset_results():
    # One run for criteria 1-3: the index 2**nu, labels == divisors, V_d**2,
    # the product law and Bezout independence all live in these two suites.
    return _run((suite_field_divisors, suite_involutions_cosets), SQUAREFREE_M_TO_100)


def _cosets_for(ms):
    return [r for r in _coset_results() if r.name == "involutions.cosets" and r.m in ms]


def test_criterion_1_index_reproduction():
    _criterion(1, "coset labels are distinct, closed, and number 2**nu", 10, _coset_results)


def test_criterion_2_involution_identities():
    _criterion(2, "V_d squares into SL2(O_K) and products classify as de/gcd^2", 10,
               lambda: _cosets_for(SQUAREFREE_M_TO_100))


def test_criterion_3_bezout_well_definedness():
    _criterion(3, "three Bezout pairs per divisor give the same coset", 5,
               lambda: _cosets_for({1, 2, 3, 5, 6, 7, 10, 11, 15, 21, 30}))


def test_criterion_4_criterion_equivalence():
    _criterion(4, "ideal criterion == coset membership on the exhaustive height-2 sweep", 120,
               lambda: _run((suite_involutions_criterion,), [1, 2, 3], height=2))


def test_criterion_5_spin_homomorphism():
    # 13 * 40 = 520 pairs per field; the kernel sweep runs at height 2 for m = 1.
    suites = (suite_orthogonal_homomorphism,)
    _criterion(5, "spin map is a homomorphism into SO0 with kernel {+-E}", 60,
               lambda: _run(suites, [1], height=2, scale=13)
               + _run(suites, FIVE_FIELDS[1:], height=1, scale=13))


def test_criterion_6_lattice_theorems():
    # 7 * 8 = 56 coset samples per divisor.
    _criterion(6, "coset images preserve the lattice; discriminant kernel exactly at d=1", 60,
               lambda: _run((suite_orthogonal_lattice,), FIVE_FIELDS, scale=7))


def test_criterion_7_spin_lift_round_trip():
    # Per field: 6 * 15 = 90 ambient, 6 * 6 = 36 zero-corner and 60 coset
    # samples, and 30 lifted products.
    _criterion(7, "lift(spin(P)) == +-P with deterministic sign", 30,
               lambda: _run((suite_orthogonal_lift,), FIVE_FIELDS, scale=6))


def test_criterion_8_algebraic_integer_entries():
    # 5 * 10 = 50 coset samples per divisor.
    _criterion(8, "all sampled coset entries are algebraic integers over sqrt(d)", 30,
               lambda: _run((suite_matrices_entries,), FIVE_FIELDS, scale=5))


def _factor_group_result(m):
    res = SuiteResult("factor_group", m)
    params = field_params(m)
    labels, table = factor_group_table(params)
    nu = len(prime_factors(params.d_K))
    res.check(len(labels) == 2**nu, lambda: "wrong order")
    supports = {d: frozenset(prime_factors(d)) for d in labels}
    by_support = {s: d for d, s in supports.items()}
    res.check(len(by_support) == len(labels), lambda: "support map not injective")
    for i, d in enumerate(labels):
        res.check(table[i][i] == 1, lambda d=d: f"{d} not self-inverse")
        res.check(sorted(table[i]) == labels, lambda d=d: f"row {d} not a permutation")
        for j, e in enumerate(labels):
            explicit = by_support[frozenset(supports[d] ^ supports[e])]
            res.check(
                table[i][j] == explicit,
                lambda d=d, e=e: f"table[{d}][{e}] != symmetric difference image",
            )
    return res


def test_criterion_9_factor_group_structure():
    _criterion(9, "factor group is elementary abelian of order 2**nu", 5,
               lambda: [_factor_group_result(m) for m in SQUAREFREE_M_TO_100])


def _form(params, v):
    """q(v) = s1*s2 - N(s) for the Hermitian matrix [[s1, s], [conj(s), s2]]
    with coordinates v = (s1, s2) + the theta-coordinates of s."""
    return v[0] * v[1] - params.from_theta_coords(v[2], v[3]).norm()


def _integral_reflections(params):
    """The reflections x -> x - 2B(x, v)/q(v) * v with an integral matrix, for
    the v with entries in [-2, 2] and q(v) != 0 (v and -v give the same one)."""
    basis = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    found = set()
    for v in product(range(-2, 3), repeat=4):
        if v <= tuple(-x for x in v) or (qv := _form(params, v)) == 0:
            continue
        # Column j is the image of H_j; 2B(H_j, v) = q(H_j + v) - q(H_j) - q(v).
        cols = []
        for e in basis:
            two_b = _form(params, [x + y for x, y in zip(e, v)]) - _form(params, e) - qv
            cols.append([x - two_b / qv * y for x, y in zip(e, v)])
        if all(x.denominator == 1 for col in cols for x in col):
            found.add(tuple(zip(*cols)))
    return [OrthoMap(params.m, rows) for rows in sorted(found)]


def _reflection_word(rng, reflections, minus_e):
    """An even word of 2, 4 or 6 reflections, times -E if it swaps the two cones."""
    word = OrthoMap.identity(minus_e.m)
    for _ in range(rng.choice((2, 4, 6))):
        word = word * rng.choice(reflections)
    return word if word.maps_positive_cone() else word * minus_e


def _converse_results():
    """Per field: 60 reflection words, and the first two times spin_map(V_d)
    for every divisor d.  Reflections need not generate SO0 of the lattice:
    for m = 10 and 15 the plain words here reach only the cosets 1 and m, and
    only the products (one word times every V_d meets every coset) cover the
    rest.  A last result asserts that some words have a zero upper-left entry,
    where the lift anchors on the upper-right one."""
    results, zero_corner = [], SuiteResult("converse.zero_corner", 0)
    for m in NINE_FIELDS:
        res = SuiteResult("converse", m)
        params = field_params(m)
        reflections = _integral_reflections(params)
        minus_e = OrthoMap(m, [[-int(i == j) for j in range(4)] for i in range(4)])
        rng = Random(f"converse:{m}")
        divisors = squarefree_divisors(params.d_K)
        maps = [_reflection_word(rng, reflections, minus_e) for _ in range(60)]
        maps += [word * spin_map(atkin_lehner(params, d)) for word in maps[:2] for d in divisors]
        labels = set()
        for phi in maps:
            zero_corner.passed += phi.rows[0][0] == 0
            try:
                lifted = spin_lift(phi)
            except LiftError as exc:
                res.check(False, lambda exc=exc, phi=phi: f"{exc.stage}: {phi.rows}")
                continue
            member = in_maximal_extension(lifted)
            res.check(member, lambda phi=phi: f"lift outside the extension: {phi.rows}")
            res.check(in_discriminant_kernel(phi) == (lifted.f == 1),
                      lambda phi=phi: f"kernel test disagrees with f: {phi.rows}")
            if member:
                labels.add(classify_coset(lifted))
        res.check(labels == set(divisors), lambda: f"cosets reached: {sorted(labels)}")
        results.append(res)
    return results + [zero_corner]


def test_criterion_10_converse_characterization():
    _criterion(10, "cone-preserving det-1 reflection words lift into the extension, "
               "and the discriminant kernel is f = 1", 6, _converse_results)
