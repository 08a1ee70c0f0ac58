"""Acceptance gate: every criterion is an exact identity (zero tolerance).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import time
from fractions import Fraction
from math import comb, factorial

import pytest

from oracles import (
    degenerate_by_subset_scan,
    fixed_points,
    standard_tableau_count,
    subset_scan_lift,
)

from spechtstat import (
    ResourceLimitError,
    RunConfig,
    Tableau,
    bench,
    character_projection_oracle,
    character_table,
    decompose,
    dimension,
    enumerate_permutations,
    enumerate_subsets,
    indicator,
    polytabloid,
    random_module_vector,
    rank_of_span,
    specht_basis,
    two_row_character,
    u_statistic_lift,
)
from spechtstat.verify import verify_decomposition, verify_shift_orthogonality


def _report(number: int, label: str, started: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({label}): PASS ({elapsed:.3f} s)")


def test_criterion_1_worked_polytabloid_example():
    started = time.perf_counter()
    t = Tableau((1, 2, 3, 4), (5, 6))
    expected = (
        indicator(6, (5, 6))
        - indicator(6, (1, 6))
        - indicator(6, (2, 5))
        + indicator(6, (1, 2))
    )
    assert polytabloid(t) == expected
    _report(1, "worked polytabloid example, term for term", started)


def test_criterion_2_oracle_equals_kernel_projection():
    started = time.perf_counter()
    for n in (4, 5, 6, 7):
        for m in range(1, n // 2 + 1):
            for seed in range(20):
                f = random_module_vector(n, m, 1000 * n + 100 * m + seed)
                dec = decompose(f)
                for l in range(m + 1):
                    slow = character_projection_oracle(f, l)
                    assert slow == dec.components[l], (n, m, seed, l)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(2, "n!-oracle equals kernel route, n=4..7, all m, 20 vectors", started)


def test_criterion_3_dimension_identities():
    started = time.perf_counter()
    for n in range(2, 9):
        m = n // 2
        comps = [decompose(indicator(n, K)).components for K in enumerate_subsets(n, m)]
        for l in range(m + 1):
            want = comb(n, l) - (comb(n, l - 1) if l >= 1 else 0)
            assert dimension(n, l) == want
            assert standard_tableau_count(n, l) == want
            assert rank_of_span([c[l] for c in comps]) == want, (n, l)
    _report(3, "projection image ranks match binomial differences, n<=8", started)


def test_criterion_4_decomposition_suite():
    started = time.perf_counter()
    for n, m in ((4, 2), (5, 2), (6, 3), (7, 3), (8, 4), (9, 4), (10, 5)):
        report = verify_decomposition(RunConfig(n=n, m=m, seed=n * 31 + m, trials=20))
        assert report.ok, report.render()
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(4, "reconstruction/orthogonality/degeneracy/idempotence, n<=10 m<=5", started)


def test_criterion_5_character_sanity():
    started = time.perf_counter()
    for n in range(2, 8):
        for x in enumerate_permutations(n):
            assert two_row_character(n, 1, x) == fixed_points(x.images) - 1
    for n in range(2, 9):
        table = character_table(n, n // 2)
        for l in range(n // 2 + 1):
            total = sum(row.class_size * row.values[l] ** 2 for row in table.rows)
            assert total == factorial(n)
    _report(5, "order-1 character is fix-1 (n<=7); first orthogonality (n<=8)", started)


def test_criterion_6_shifted_orthogonality():
    started = time.perf_counter()
    report = verify_shift_orthogonality(RunConfig(n=6, m=2, seed=12, trials=3))
    assert report.ok, report.render()
    names = {c.name for c in report.checks}
    for r in range(3):
        assert f"shifted_orthogonality_j1_l2_r{r}" in names
    assert not any("_j1_l1_" in name or "_j2_l2_" in name for name in names)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(6, "shifted orthogonality at n=6 m=2, all overlaps, j=1 l=2", started)


def test_criterion_7_specht_span_identity():
    started = time.perf_counter()
    for n in (4, 5, 6, 7):
        for m in range(1, n // 2 + 1):
            comps = [decompose(indicator(n, K)).components for K in enumerate_subsets(n, m)]
            for l in range(1, m + 1):
                lifted = [u_statistic_lift(v, m) for v in specht_basis(n, l)]
                image = [c[l] for c in comps]
                want = dimension(n, l)
                assert rank_of_span(lifted) == want, (n, m, l)
                assert rank_of_span(image) == want, (n, m, l)
                assert rank_of_span(lifted + image) == want, (n, m, l)
    _report(7, "lifted Specht span equals projection image, n<=7", started)


def test_criterion_8_performance():
    started = time.perf_counter()
    h = random_module_vector(12, 6, 2024)
    t0 = time.perf_counter()
    dec = decompose(h)
    kernel_elapsed = time.perf_counter() - t0
    assert kernel_elapsed < 60.0
    assert dec.reconstruction() == h

    # the n! oracle is refused outright at this size
    with pytest.raises(ResourceLimitError):
        character_projection_oracle(h, 1)

    result = bench(7, 3, seed=5)
    assert result.oracle_seconds is not None
    assert result.kernel_seconds < result.oracle_seconds
    print(
        f"  n=12 m=6 kernel route: {kernel_elapsed:.3f} s; "
        f"bench n=7 m=3: kernel {result.kernel_seconds:.4f} s "
        f"vs oracle {result.oracle_seconds:.4f} s"
    )
    _report(8, "n=12 m=6 under 60 s; kernel beats oracle at n=7", started)


def test_criterion_9_decomposition_past_the_oracle_ceiling():
    # Checked only with the test oracles: at n=16 the n! oracle is out of
    # reach, but these four properties determine the decomposition uniquely.
    started = time.perf_counter()
    n, m = 16, 8
    h = random_module_vector(n, m, 1608)
    t0 = time.perf_counter()
    dec = decompose(h)
    kernel_elapsed = time.perf_counter() - t0
    assert kernel_elapsed < 60.0

    mean = Fraction(sum(h.values), comb(n, m))
    assert dec.mean == mean
    assert all(v == mean for v in dec.components[0].values)
    columns = zip(*(dec.components[l].values for l in range(m + 1)))
    assert all(sum(col) == v for col, v in zip(columns, h.values))
    for l in range(1, m + 1):
        assert degenerate_by_subset_scan(dec.kernels[l]), l
        assert subset_scan_lift(dec.kernels[l], m) == dec.components[l], l
    print(f"  n=16 m=8 kernel route: {kernel_elapsed:.3f} s")
    _report(9, "n=16 m=8 sums to input, mean, degenerate kernels, lifts", started)
