"""Acceptance suite: one test per criterion, exact equality throughout.

Every criterion calls property suites of `bianchimax.verify`, where each
identity is written down once, on chosen fields and heights and at a larger
`scale` (a multiplier of every random sample count).  Criterion 9 runs the
factor-group suite, and criterion 10 the SO(1,3) characterization both ways:
on the exhaustive sweeps and, conversely, on even words in the integral
reflections of the lattice, which spin_map did not produce.  The one check
of its own is criterion 10's zero-corner assertion, which holds only across
fields.  Every test prints one PASS/FAIL line with its runtime and asserts
correctness and the runtime ceiling; run `pytest tests/test_acceptance.py -v -s`
to see the lines.
"""

import time
from functools import cache

from bianchimax import squarefree_part
from bianchimax.verify import (
    _Context,
    suite_field_divisors,
    suite_involutions_cosets,
    suite_involutions_criterion,
    suite_involutions_factor_group,
    suite_matrices_entries,
    suite_orthogonal_characterization,
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


def test_criterion_9_factor_group_structure():
    # The order 2**nu is criterion 1's, from field.divisors on the same fields.
    _criterion(9, "coset labels are self-inverse and multiply by symmetric difference", 5,
               lambda: _run((suite_involutions_factor_group,), SQUAREFREE_M_TO_100))


def test_criterion_10_converse_characterization():
    # Per field: the height-1 sweeps, 5 * 12 = 60 reflection words, the first two times every V_d.
    contexts = [_Context(m, 1, 0, 5) for m in NINE_FIELDS]
    _criterion(10, "lattice images are the extension both ways; discriminant kernel at f = 1", 6,
               lambda: [suite_orthogonal_characterization(ctx) for ctx in contexts])
    # A zero upper-left entry makes the lift anchor on the upper-right one.  Some
    # fields draw no such word, so this holds only across the words the suite lifted.
    assert any(w.num[0][0] == 0 for ctx in contexts for w in ctx.converse_maps)
