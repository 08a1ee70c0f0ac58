import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from math import comb, factorial
from pathlib import Path

import pytest
from oracles import (
    fixed_point_walk,
    naive_down,
    naive_up,
    orbit_counts_from_tables,
    shift_pairs_from_tables,
)

import spechtstat
from spechtstat import (
    DomainError,
    HoeffdingDecomposition,
    ModuleVector,
    Permutation,
    ResourceLimitError,
    RunConfig,
    bench,
    character_projection_oracle,
    dimension,
    enumerate_subsets,
    indicator,
    is_completely_degenerate,
    module_vector_to_text,
    random_module_vector,
    rank_of_span,
    run_suites,
    specht_basis,
    two_row_character,
    u_statistic_lift,
)
from spechtstat import references, verify
from spechtstat.references import clear_oracle_cache
from spechtstat.verify import (
    BenchResult,
    CheckResult,
    Lcg64,
    VerificationReport,
    verify_decomposition,
    verify_equivalence,
    verify_shift_orthogonality,
    verify_specht,
)

GOLDEN = Path(__file__).parent / "data" / "verify_all_n7_m3_trials2_seed1.txt"

#: Every shape (n, m) with n <= 8, the oracle's default ceiling.
SHAPES_TO_8 = [(n, m) for n in range(2, 9) for m in range(1, n // 2 + 1)]


def _fix_less_one(ct: tuple[int, ...]) -> int:
    return ct.count(1) - 1


def _weighted(counts, weight, size: int) -> tuple[tuple[int, ...], ...]:
    """The matrix W[K][J] = sum over cycle types ct of weight(ct) times the number
    of permutations of type ct sending J onto K, from `orbit_counts_from_tables`."""
    out = [[0] * size for _ in range(size)]
    for ct, cnt in counts.items():
        for (k, j), c in cnt.items():
            out[k][j] += weight(ct) * c
    return tuple(map(tuple, out))


class TestRandomVectors:
    def test_same_seed_same_vector(self):
        assert random_module_vector(6, 3, 5) == random_module_vector(6, 3, 5)

    def test_different_seeds_differ(self):
        for seed in range(0, 20, 2):
            assert random_module_vector(6, 3, seed) != random_module_vector(6, 3, seed + 1)

    def test_all_entries_defined_and_bounded(self):
        f = random_module_vector(7, 3, 123)
        assert len(f.values) == 35
        for v in f.values:
            assert Fraction(-9) <= v <= Fraction(9)
            assert 1 <= v.denominator <= 9

    def test_lcg_is_the_documented_recurrence(self):
        gen = Lcg64(1)
        first = (6364136223846793005 * 1 + 1442695040888963407) % 2**64
        assert gen.next_uint() == first

    def test_bad_seed(self):
        with pytest.raises(DomainError):
            Lcg64(-1)
        with pytest.raises(DomainError):
            Lcg64(2**64)


class TestRunConfig:
    def test_validates_shape(self):
        with pytest.raises(DomainError):
            RunConfig(n=5, m=3)

    def test_validates_seed(self):
        with pytest.raises(DomainError):
            RunConfig(n=6, m=2, seed=2**64)

    def test_validates_trials(self):
        with pytest.raises(DomainError):
            RunConfig(n=6, m=2, trials=-1)

    def test_refuses_zero_trials(self):
        with pytest.raises(DomainError, match="trials must be at least 1, got 0"):
            RunConfig(n=6, m=2, trials=0)


class TestSuites:
    def test_decomposition_suite_passes(self):
        report = verify_decomposition(RunConfig(n=6, m=3, seed=42, trials=20))
        assert report.ok
        names = {c.name for c in report.checks}
        assert {
            "constant_input_zero_components",
            "reconstruction",
            "component_orthogonality",
            "kernel_degeneracy",
            "projection_idempotence",
            "covariance_expansion",
        } <= names

    def test_equivalence_suite_passes(self):
        report = verify_equivalence(RunConfig(n=5, m=2, seed=1, trials=5))
        assert report.ok
        names = {c.name for c in report.checks}
        assert "oracle_equals_projection_l2" in names
        assert "oracle_equals_double_sum_l1" in names
        assert "order1_fixed_point_weighting" in names
        assert "projection_image_rank_l2" in names

    def test_equivalence_requires_oracle_headroom(self):
        with pytest.raises(ResourceLimitError):
            verify_equivalence(RunConfig(n=9, m=2, trials=1, brute_force_ceiling=8))

    def test_shift_suite_passes(self):
        report = verify_shift_orthogonality(RunConfig(n=6, m=2, seed=3, trials=3))
        assert report.ok
        names = {c.name for c in report.checks}
        assert "shifted_orthogonality_j1_l2_r0" in names
        assert "shifted_orthogonality_j1_l2_r2" in names
        assert "negative_control_same_order_norm_positive" in names
        # same-order shifted sums are never asserted zero
        assert not any("_j1_l1_" in name for name in names)

    def test_specht_suite_passes(self):
        report = verify_specht(RunConfig(n=6, m=2, seed=4, trials=10))
        assert report.ok
        names = {c.name for c in report.checks}
        assert "polytabloid_four_term_example" in names
        assert "lifted_specht_equals_projection_image_l2" in names

    def test_run_suites_all(self):
        reports = run_suites(RunConfig(n=4, m=2, seed=0, trials=3), "all")
        assert [r.suite for r in reports] == ["decomp", "equiv", "shift", "specht"]
        assert all(r.ok for r in reports)

    def test_equivalence_and_specht_share_the_projection_images(self, monkeypatch):
        # The images of all C(n, m) indicators are decomposed once per (n, m).
        config = RunConfig(n=6, m=3, seed=3, trials=1)
        verify._projection_images.cache_clear()
        calls = []
        real = verify.decompose
        monkeypatch.setattr(verify, "decompose", lambda h: calls.append(h) or real(h))
        assert verify_equivalence(config).ok
        assert len(calls) == config.trials + comb(6, 3)
        assert verify_specht(config).ok
        assert len(calls) == config.trials + comb(6, 3)

    def test_run_suites_unknown(self):
        with pytest.raises(DomainError):
            run_suites(RunConfig(n=4, m=2), "nope")

    def test_reports_are_byte_identical_across_runs(self):
        config = RunConfig(n=5, m=2, seed=9, trials=4)
        first = [r.render() for r in run_suites(config, "all")]
        second = [r.render() for r in run_suites(config, "all")]
        assert first == second


class TestPerturbedComponent:
    """With one component moved off its Hoeffding space, the integer n!-sums must fail."""

    @pytest.fixture(autouse=True)
    def perturb(self, monkeypatch):
        real = verify.decompose
        # Projection images are cached per (n, m): none may be computed by, or
        # outlive, the perturbed decompose.
        verify._projection_images.cache_clear()

        def perturbed(h):
            dec = real(h)
            components = dict(dec.components)
            components[1] = components[1] + Fraction(1, 3) * indicator(h.n, range(1, h.l + 1))
            return HoeffdingDecomposition(dec.n, dec.m, dec.mean, dec.kernels, components)

        monkeypatch.setattr(verify, "decompose", perturbed)
        yield
        verify._projection_images.cache_clear()

    @staticmethod
    def failed(report):
        return {c.name for c in report.checks if not c.passed}

    def test_equivalence_suite_fails(self):
        report = verify_equivalence(RunConfig(n=6, m=2, seed=5, trials=2))
        assert not report.ok
        assert self.failed(report) == {
            "oracle_equals_projection_l1",
            "order1_fixed_point_weighting",
            "projection_image_rank_l1",
        }

    def test_specht_suite_fails(self):
        # The order-1 images fail the certificate, so elimination ranks them.
        report = verify_specht(RunConfig(n=6, m=2, seed=5, trials=2))
        assert self.failed(report) == {"lifted_specht_equals_projection_image_l1"}

    def test_failure_detail_shows_the_input_text(self):
        # The input is formatted only when a check fails, as the file writer does.
        report = verify_equivalence(RunConfig(n=6, m=2, seed=5, trials=2))
        (check,) = [c for c in report.checks if c.name == "oracle_equals_projection_l1"]
        f = random_module_vector(6, 2, Lcg64(5).next_uint())
        assert check.detail == "trial 0; input:\n" + module_vector_to_text(f).rstrip("\n")
        assert "-- trial 0; input:\n        n = 6\n        l = 2\n" in report.render()

    def test_shift_suite_fails(self):
        # Exactly the sums pairing the moved order-1 component with another
        # order, at every overlap.
        report = verify_shift_orthogonality(RunConfig(n=6, m=2, seed=5, trials=2))
        assert not report.ok
        assert self.failed(report) == {
            f"shifted_orthogonality_j{j}_l{l}_r{r}"
            for j, l in [(0, 1), (1, 0), (1, 2), (2, 1)]
            for r in range(3)
        }


class TestShiftedSums:
    """Components e_B (order 1) and e_K (order 2) with |B & K| = 1 < m are
    orthogonal, but the n!-sum of F(x base) H(x k_1) counts the permutations
    sending (base, k_1) to (B, K), so only a truly shifted sum sees them."""

    @pytest.fixture(autouse=True)
    def split_components(self, monkeypatch):
        def split(h):
            components = {0: 0 * h, 1: indicator(h.n, (1, 2)), 2: indicator(h.n, (2, 3))}
            return HoeffdingDecomposition(h.n, h.l, Fraction(0), {}, components)

        monkeypatch.setattr(verify, "decompose", split)

    def test_only_the_overlap_one_sums_fail(self):
        report = verify_shift_orthogonality(RunConfig(n=6, m=2, seed=5, trials=2))
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"shifted_orthogonality_j1_l2_r1", "shifted_orthogonality_j2_l1_r1"}


class TestReferenceWalks:
    """The n! walk of `references`, and the counts it transports by conjugation,
    against literal walks over full image tables."""

    @pytest.mark.parametrize(
        "n, m", [(n, m) for n in range(2, 8) for m in range(1, n // 2 + 1)] + [(8, 3)]
    )
    def test_fixed_point_route_equals_the_literal_walk(self, n, m):
        f = random_module_vector(n, m, 10 * n + m)
        assert references._fixed_point_route(f) == fixed_point_walk(f)

    @pytest.mark.parametrize("n, m", SHAPES_TO_8)
    def test_shift_pair_counts_equal_the_full_table_counts(self, n, m):
        assert references._group_walk(n, m).pairs == shift_pairs_from_tables(n, m)

    @pytest.mark.parametrize("n, m", SHAPES_TO_8)
    def test_transported_weights_equal_the_full_table_counts(self, n, m):
        # The walk inserts point n into each permutation of S_{n-1}; its rows,
        # read at J = {1..m}, are the full tables' counts and sum to n!, m = 1
        # and 2m = n (point n among the tracked points 1..2m) included.
        counts = orbit_counts_from_tables(n, m)
        rows = references._group_walk(n, m).rows
        assert rows == {ct: [c[p, 0] for p in range(comb(n, m))] for ct, c in counts.items()}
        assert sum(map(sum, rows.values())) == factorial(n)
        for l in range(m + 1):
            chi = partial(two_row_character, n, l)
            assert references._projection_weights(n, m, l) == _weighted(counts, chi, comb(n, m))
        transported = references._transported_weights(n, m, _fix_less_one)
        assert tuple(zip(*transported)) == _weighted(counts, _fix_less_one, comb(n, m))

    def test_an_identity_carrier_fails_the_comparison(self, monkeypatch):
        # With sigma_J the identity, every column reads the counts of base = {1..m}.
        n, m = 6, 2
        counts = orbit_counts_from_tables(n, m)
        clear_oracle_cache()
        monkeypatch.setattr(references, "_carrier", lambda n, J: Permutation(range(1, n + 1)))
        try:
            for l in range(1, m + 1):
                chi = partial(two_row_character, n, l)
                assert references._projection_weights(n, m, l) != _weighted(counts, chi, comb(n, m))
            transported = references._transported_weights(n, m, _fix_less_one)
            assert tuple(zip(*transported)) != _weighted(counts, _fix_less_one, comb(n, m))
        finally:
            clear_oracle_cache()

    def test_all_suites_walk_the_group_once(self, monkeypatch):
        # One walk records what the oracle, the fixed-point route and the shift
        # suite read.  It reaches S_6 by inserting point 6 into each element of
        # S_5, so the one enumeration is of S_5.
        clear_oracle_cache()
        walks = []
        real = references.enumerate_permutations
        monkeypatch.setattr(
            references, "enumerate_permutations", lambda *a, **k: walks.append(a) or real(*a, **k)
        )
        assert all(r.ok for r in run_suites(RunConfig(n=6, m=3, seed=2, trials=2), "all"))
        assert walks == [(5,)]

    def test_interleaved_shapes_give_their_first_projections(self):
        shapes = [(5, 2), (6, 3), (7, 2), (6, 1)]
        inputs = {shape: random_module_vector(*shape, 70 + sum(shape)) for shape in shapes}
        clear_oracle_cache()
        first = {
            shape: [character_projection_oracle(f, l) for l in range(f.l + 1)]
            for shape, f in inputs.items()
        }
        for shape in shapes[::-1] + shapes:
            f = inputs[shape]
            assert [character_projection_oracle(f, l) for l in range(f.l + 1)] == first[shape]
            assert references._fixed_point_route(f) == first[shape][1]
            assert references._group_walk.cache_info().currsize == 1


def _bumped(v, index: int):
    """v with the entry at canonical position `index` raised by one."""
    nums = list(v.numerators)
    nums[index] += v.denominator
    return ModuleVector.from_numerators(v.n, v.l, nums, v.denominator)


class TestRankCertificate:
    """The Johnson-scheme certificate behind the rank checks, against elimination,
    and each of its checks against one entry moved."""

    @pytest.mark.parametrize("n, m", SHAPES_TO_8)
    def test_certified_ranks_equal_elimination(self, n, m):
        images = verify._projection_images(n, m)
        assert images.certified
        dims = tuple(dimension(n, l) for l in range(m + 1))
        assert images.ranks == tuple(map(rank_of_span, images.vectors)) == dims

    @pytest.mark.parametrize("n", range(2, 11))
    def test_standard_bases_are_unitriangular_of_full_rank(self, n):
        for l in range(1, n // 2 + 1):
            basis = specht_basis(n, l)
            assert verify._unitriangular(basis)
            assert rank_of_span(basis) == len(basis) == dimension(n, l)

    @pytest.mark.parametrize("n, m", [(6, 3), (7, 3), (8, 4)])
    def test_the_up_passes_are_injective_on_the_standard_bases(self, n, m):
        # D U^k phi = k(n - 2l - k + 1) U^(k-1) phi for completely degenerate
        # phi of order l, with a positive factor for k <= m - l: the fact that
        # makes the lifted basis as independent as the basis.
        for l in range(1, m + 1):
            for phi in specht_basis(n, l):
                below = list(phi.numerators)
                for k in range(1, m - l + 1):
                    above = naive_up(below, n, l + k)
                    factor = k * (n - 2 * l - k + 1)
                    assert factor > 0
                    assert naive_down(above, n, l + k) == [factor * a for a in below]
                    below = above

    def test_the_suites_eliminate_only_the_order_one_basis(self, monkeypatch):
        verify._projection_images.cache_clear()
        ranked = []
        real = verify.rank_of_span
        monkeypatch.setattr(verify, "rank_of_span", lambda vs: ranked.append(vs) or real(vs))
        assert all(r.ok for r in run_suites(RunConfig(n=7, m=3, seed=1, trials=1), "all"))
        assert ranked == [specht_basis(7, 1)]

    @pytest.mark.parametrize("n, m", [(6, 3), (7, 3)])
    def test_an_image_vector_moved_in_one_entry_fails(self, n, m):
        images = verify._projection_images(n, m).vectors
        assert verify._spectral_ranks(images) is not None
        for l in range(m + 1):
            for K in (0, len(images[l]) - 1):
                bad = [list(vs) for vs in images]
                bad[l][K] = _bumped(bad[l][K], K)
                assert not references._johnson_eigenvectors(bad[l], l)
                assert all(references._johnson_eigenvectors(bad[j], j) for j in range(m + 1) if j != l)
                assert verify._spectral_ranks(bad) is None
                # The entry at K is on the trace, which now misses dim(n, l).
                assert sum(v[s] for v, s in zip(bad[l], enumerate_subsets(n, m))) != dimension(n, l)

    @pytest.mark.parametrize("n, m", [(4, 2), (7, 3)])
    def test_no_lane_carries_into_the_next(self, n, m):
        # Lanes -2^k u and u cancel in the packed int whenever a lane is k bits
        # wide, so at any scale k a lane too narrow would pass u, which is no
        # eigenvector of any order.
        u = random_module_vector(n, m, 3)
        for k in range(1, 70):
            for l in range(m + 1):
                assert not references._johnson_eigenvectors([-(2**k) * u, u], l)

    @pytest.mark.parametrize("n, m", [(6, 3), (7, 3)])
    def test_an_image_vector_doubled_fails_the_sum_to_the_indicator(self, n, m):
        # Still an eigenvector, so only the sum over the orders sees it.
        images = verify._projection_images(n, m).vectors
        bad = [list(vs) for vs in images]
        bad[1][2] = 2 * bad[1][2]
        assert all(references._johnson_eigenvectors(bad[l], l) for l in range(m + 1))
        assert verify._spectral_ranks(bad) is None

    @pytest.mark.parametrize("n, m", [(6, 3), (7, 3)])
    def test_a_lifted_vector_moved_in_one_entry_fails(self, n, m):
        for l in range(1, m + 1):
            lifted = [u_statistic_lift(v, m) for v in specht_basis(n, l)]
            assert references._johnson_eigenvectors(lifted, l)
            for i in (0, len(lifted) - 1):
                for index in (0, comb(n, m) - 1):
                    bad = lifted[:i] + [_bumped(lifted[i], index)] + lifted[i + 1 :]
                    assert not references._johnson_eigenvectors(bad, l)

    @pytest.mark.parametrize("n, m", [(6, 3), (7, 3)])
    def test_a_polytabloid_moved_in_one_entry_fails(self, n, m):
        for l in range(1, m + 1):
            basis = list(specht_basis(n, l))
            assert verify._unitriangular(basis)
            assert all(map(is_completely_degenerate, basis))
            for i, v in enumerate(basis):
                support = [p for p, a in enumerate(v.numerators) if a]
                for index in (support[0], support[-1], v.numerators.index(0)):
                    bad = basis[:i] + [_bumped(v, index)] + basis[i + 1 :]
                    assert not is_completely_degenerate(bad[i])
                    if index == support[-1]:  # the pivot, 1, becomes 2
                        assert not verify._unitriangular(bad)

    def test_the_specht_suite_eliminates_a_basis_off_the_certificate(self, monkeypatch):
        # Each pivot raised to 2: still independent, so the basis ranks pass by
        # elimination, but the lifts leave the projection image.
        real = verify.specht_basis

        def bumped_basis(n, l):
            return tuple(_bumped(v, max(p for p, a in enumerate(v.numerators) if a))
                         for v in real(n, l))

        monkeypatch.setattr(verify, "specht_basis", bumped_basis)
        report = verify_specht(RunConfig(n=7, m=3, seed=1, trials=1))
        assert {c.name for c in report.checks if not c.passed} == {
            f"lifted_specht_equals_projection_image_l{l}" for l in (1, 2, 3)
        }


class TestGoldenOutput:
    def test_verify_all_stdout_is_unchanged(self):
        # The file holds the output of the earlier Fraction-based suites; the
        # integer routes must reproduce every report byte for byte.
        env = dict(os.environ, PYTHONPATH=str(Path(spechtstat.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "spechtstat.cli", "verify", "--suite", "all",
             "--n", "7", "--m", "3", "--trials", "2", "--seed", "1"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == GOLDEN.read_text()


class TestReportRendering:
    def test_failed_check_renders_and_fails(self):
        report = VerificationReport("demo", 4, 2, 0, 1)
        report.checks = [
            CheckResult("good", True),
            CheckResult("bad", False, "trial 0; input:\nn = 4"),
        ]
        assert not report.ok
        text = report.render()
        assert "[PASS] good" in text
        assert "[FAIL] bad" in text
        assert "result: FAIL (1/2 checks)" in text

    def test_report_without_checks_is_not_ok(self):
        report = VerificationReport("demo", 4, 2, 0, 1)
        assert not report.ok
        assert report.render().endswith("result: FAIL (0/0 checks)\n")
        assert report.to_json_dict()["ok"] is False

    def test_record_aggregates_instances_in_first_record_order(self):
        report = VerificationReport("demo", 4, 2, 0, 3)
        for trial in range(3):
            report.record("always", True, f"trial {trial}")
            report.record("no_detail", True)
            report.record("late", trial < 1, f"trial {trial}")
            report.record("early", trial > 0, f"trial {trial}")
        report.record("single", True, "unused")
        assert [(c.name, c.passed, c.detail) for c in report.checks] == [
            ("always", True, "3/3 instances"),
            ("no_detail", True, "3/3 instances"),
            ("late", False, "trial 1"),
            ("early", False, "trial 0"),
            ("single", True, ""),
        ]
        assert not report.ok
        assert "result: FAIL (3/5 checks)" in report.render()

    def test_json_dict(self):
        report = VerificationReport("demo", 4, 2, 0, 1)
        report.checks = [CheckResult("good", True, "1/1 instances")]
        payload = report.to_json_dict()
        assert payload["ok"] is True
        assert json.loads(json.dumps(payload)) == payload


class TestBench:
    def test_small_case_reports_both_routes(self):
        result = bench(5, 2, seed=0)
        assert isinstance(result, BenchResult)
        assert result.kernel_seconds > 0
        assert result.oracle_seconds is not None
        assert "kernel route" in result.render()

    def test_above_ceiling_skips_oracle(self):
        result = bench(12, 2, seed=0, ceiling=8)
        assert result.oracle_seconds is None
        assert "infeasible" in result.render()
