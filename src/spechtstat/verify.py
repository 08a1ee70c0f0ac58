"""Verification suites: the library's central identities as executable checks.

Each suite takes a `RunConfig`, generates reproducible pseudorandom inputs,
and asserts exact rational identities (zero tolerance everywhere).  A
`VerificationReport` records named pass/fail checks; rendering a report is
deterministic, so identical configurations produce byte-identical output.

The references the suites compare the kernel route with live apart from it,
in `references`: the n!-permutation `character_projection_oracle`, the double
sum built on `CoefficientTable`, the order-1 fixed-point route, the shift
suite's pair counts and the Johnson graph's neighbour sum.  S_n is walked once
per (n, m), by `references._group_walk`: it records each permutation's cycle
type, its image of {1..m} and the shift pairs, and conjugation moves those
counts onto every other m-subset.  The suites that walk S_n refuse n above
`RunConfig.brute_force_ceiling`, the oracle above its `ceiling`; both default
to `combinatorics.DEFAULT_ORACLE_CEILING`.

The rank checks of `equiv` and `specht` are decided by a certificate, with no
elimination (`_spectral_ranks`, `_unitriangular`): the images of the
indicators are Johnson eigenvectors that sum to each indicator, so each
order's image is a spectral projector whose rank is its trace, and the
standard polytabloids are unitriangular and completely degenerate, with lifts
in the same eigenspace.  Where a certificate fails, it proves nothing, and
`algebra.rank_of_span` ranks those vectors instead; it also ranks the order-1
Specht basis on every run, as a cross-check of the certificate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

from .algebra import (
    ModuleVector,
    act,
    indicator,
    inner_product,
    rank_of_span,
)
from .characters import dimension
from .combinatorics import (
    DEFAULT_ORACLE_CEILING,
    Permutation,
    Tableau,
    _layer_size,
    check_shape,
    enumerate_subsets,
)
from .errors import DomainError, ResourceLimitError
from .hoeffding import decompose, is_completely_degenerate, u_statistic_lift
from .references import (
    _double_sum_values,
    _fixed_point_route,
    _group_walk,
    _johnson_eigenvectors,
    character_projection_oracle,
    clear_oracle_cache,
)
from .specht import polytabloid, specht_basis

_ZERO = Fraction(0)


class Lcg64:
    """64-bit linear congruential generator with Knuth's MMIX constants:

        state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

    Each step returns the new state; bounded draws use the top 32 bits.  The
    only requirement here is cross-platform reproducibility, not statistical
    quality.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        if not 0 <= seed <= self.MASK:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.state = seed

    def next_uint(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & self.MASK
        return self.state

    def int_in(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo..hi] (inclusive)."""
        return lo + (self.next_uint() >> 32) % (hi - lo + 1)

    def shuffle(self, items: list) -> list:
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.int_in(0, i)
            out[i], out[j] = out[j], out[i]
        return out

    def permutation(self, n: int) -> Permutation:
        return Permutation(self.shuffle(list(range(1, n + 1))))


def random_module_vector(n: int, m: int, seed: int) -> ModuleVector:
    """Reproducible pseudorandom vector: numerators in [-9..9], denominators in [1..9].

    Identical (n, m, seed) always yields the identical vector, on any platform.
    """
    gen = Lcg64(seed)
    vals = []
    for _ in range(_layer_size(n, m)):
        num = gen.int_in(-9, 9)
        den = gen.int_in(1, 9)
        vals.append(Fraction(num, den))
    return ModuleVector(n, m, vals)


@dataclass(frozen=True)
class RunConfig:
    """Parameters shared by all verification suites."""

    n: int
    m: int
    seed: int = 0
    trials: int = 20
    brute_force_ceiling: int = DEFAULT_ORACLE_CEILING

    def __post_init__(self):
        check_shape(self.n, self.m)
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.trials < 1:
            raise DomainError(f"trials must be at least 1, got {self.trials}")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    suite: str
    n: int
    m: int
    seed: int
    trials: int
    checks: list[CheckResult] = field(default_factory=list)
    _instances: dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def record(self, name: str, passed: bool, detail: str | partial[str] = "") -> None:
        """Record one instance of the check `name`, listed in order of first record.

        A check passes while every instance passes; it then reads "k/k
        instances" once k > 1 were recorded.  A failed check keeps the detail
        of its first failing instance; a callable detail is called only then.
        """
        if not passed and callable(detail):
            detail = detail()
        total = self._instances.get(name, 0) + 1
        self._instances[name] = total
        if total == 1:
            self.checks.append(CheckResult(name, passed, "" if passed else detail))
            return
        check = next(c for c in self.checks if c.name == name)
        if check.passed:
            check.passed = passed
            check.detail = f"{total}/{total} instances" if passed else detail

    @property
    def ok(self) -> bool:
        """True when at least one check ran and every check passed."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"suite {self.suite}: n={self.n} m={self.m} seed={self.seed} trials={self.trials}"]
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            line = f"  [{tag}] {c.name}"
            if c.detail:
                detail = c.detail.replace("\n", "\n        ")
                line += f" -- {detail}"
            lines.append(line)
        passed = sum(1 for c in self.checks if c.passed)
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"result: {verdict} ({passed}/{len(self.checks)} checks)")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "m": self.m,
            "seed": self.seed,
            "trials": self.trials,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


def _offending(trial: int, f: ModuleVector, note: str = "") -> str:
    # A failed check's detail, with f as `module_vector_to_text` writes it; the
    # suites record a partial, so that f is formatted only on failure.
    from .fileformats import module_vector_to_text

    head = f"trial {trial}" + (f" ({note})" if note else "")
    return head + "; input:\n" + module_vector_to_text(f).rstrip("\n")


def verify_decomposition(config: RunConfig) -> VerificationReport:
    """Reconstruction, component orthogonality, kernel degeneracy, idempotence,
    and the covariance expansion, on seeded random vectors."""
    n, m = config.n, config.m
    report = VerificationReport("decomp", n, m, config.seed, config.trials)
    gen = Lcg64(config.seed)

    const = ModuleVector.constant(n, m, Fraction(7, 3))
    dec_const = decompose(const)
    report.record(
        "constant_input_zero_components",
        all(dec_const.components[l].is_zero() for l in range(1, m + 1))
        and all(dec_const.kernels[l].is_zero() for l in range(1, m + 1))
        and dec_const.components[0] == const,
    )

    zero = ModuleVector.zero(n, m)
    for trial in range(config.trials):
        h = random_module_vector(n, m, gen.next_uint())
        f = random_module_vector(n, m, gen.next_uint())
        dec_h = decompose(h)
        dec_f = decompose(f)
        # Each lookup unpacks a component, so dec_h's are read once.
        comps = list(dec_h.components.values())
        where = partial(_offending, trial, h)

        report.record("reconstruction", sum(comps[1:], comps[0]) == h, where)

        ortho = all(
            inner_product(comps[i], comps[j]) == 0
            for i in range(m + 1)
            for j in range(i + 1, m + 1)
        )
        report.record("component_orthogonality", ortho, where)

        degen = all(is_completely_degenerate(dec_h.kernels[l]) for l in range(1, m + 1))
        report.record("kernel_degeneracy", degen, where)

        idem = True
        for l in range(m + 1):
            again = decompose(comps[l])
            for j in range(m + 1):
                want = comps[l] if j == l else zero
                if again.components[j] != want:
                    idem = False
        report.record("projection_idempotence", idem, where)

        lhs = inner_product(h, f)
        rhs = dec_h.mean * dec_f.mean + sum(
            (inner_product(comps[l], dec_f.components[l]) for l in range(1, m + 1)),
            _ZERO,
        )
        report.record("covariance_expansion", lhs == rhs, partial(_offending, trial, h, "paired input"))

    return report


class _Images(NamedTuple):
    # The order-l images of every indicator, and the rank of each order's span.
    vectors: tuple[tuple[ModuleVector, ...], ...]
    ranks: tuple[int | Fraction, ...]
    certified: bool  # ranks read from `_spectral_ranks`, not from elimination


@lru_cache(maxsize=1)
def _projection_images(n: int, m: int) -> _Images:
    """For each order l, the order-l components of decompose(indicator(n, K)) over
    every m-subset K in canonical order, with the rank of each order's span.

    The ranks come from the certificate `_spectral_ranks` when it holds, and
    from `rank_of_span` otherwise: a failed certificate says nothing about a
    rank.  Shared by the equivalence and Specht suites; only the last (n, m)
    is kept.
    """
    comps = [list(decompose(indicator(n, K)).components.values()) for K in enumerate_subsets(n, m)]
    vectors = tuple(tuple(c[l] for c in comps) for l in range(m + 1))
    ranks = _spectral_ranks(vectors)
    if ranks is not None:
        return _Images(vectors, ranks, True)
    return _Images(vectors, tuple(map(rank_of_span, vectors)), False)


def _spectral_ranks(images: Sequence[Sequence[ModuleVector]]) -> tuple[Fraction, ...] | None:
    """The rank of each order's images, by a certificate with no elimination, or
    None when the certificate fails.

    Let P_l send the indicator of the K-th m-subset to images[l][K], and let
    E_l be the eigenspace of the Johnson graph J(n, m) for theta_l (Delsarte
    1973).  The certificate holds when
      * every image of order l satisfies A v = theta_l v, so P_l maps into E_l;
      * the images of each indicator sum to it: the sum of the P_l is I.
    The theta_l are distinct, so the E_l are independent, and any v in E_l is
    the sum of its P_j v, one in each E_j: P_l v = v.  So P_l is the spectral
    projector onto E_l, an idempotent, and its rank is its trace, the sum over
    K of images[l][K] at K.
    """
    m = len(images) - 1
    n = images[0][0].n
    for K, parts in zip(enumerate_subsets(n, m), zip(*images)):
        if sum(parts[1:], parts[0]) != indicator(n, K):
            return None
    if not all(_johnson_eigenvectors(images[l], l) for l in range(m + 1)):
        return None
    return tuple(
        sum((Fraction(v.numerators[K], v.denominator) for K, v in enumerate(vs)), _ZERO)
        for vs in images
    )


def _unitriangular(vectors: Sequence[ModuleVector]) -> bool:
    """True when each vector's last nonzero entry is 1 and lies after the previous
    vector's: echelon form with unit pivots, so the vectors are independent.

    The polytabloid of a standard tableau has entry 1 at its bottom row, and
    every other subset in its support swaps some bottom-row points for smaller
    ones, so it comes earlier in the canonical order (James 1978, §8).
    """
    last = -1
    for v in vectors:
        nums = v.numerators
        pivot = max((i for i, a in enumerate(nums) if a), default=-1)
        if pivot <= last or nums[pivot] != v.denominator:
            return False
        last = pivot
    return True


def verify_equivalence(config: RunConfig) -> VerificationReport:
    """The central identity: the n!-permutation character-projection oracle equals
    the kernel-route projection, entrywise-exactly, at every order."""
    n, m = config.n, config.m
    if n > config.brute_force_ceiling:
        raise ResourceLimitError(
            f"equivalence suite needs the n!-oracle; n={n} exceeds ceiling "
            f"{config.brute_force_ceiling}"
        )
    report = VerificationReport("equiv", n, m, config.seed, config.trials)
    gen = Lcg64(config.seed)

    for trial in range(config.trials):
        f = random_module_vector(n, m, gen.next_uint())
        fast = decompose(f)
        where = partial(_offending, trial, f)
        oracle_sum = ModuleVector.zero(n, m)
        for l in range(m + 1):
            slow = character_projection_oracle(f, l, ceiling=config.brute_force_ceiling)
            oracle_sum = oracle_sum + slow
            report.record(
                f"oracle_equals_projection_l{l}",
                slow == fast.components[l],
                where,
            )
            if l >= 1:
                report.record(
                    f"oracle_equals_double_sum_l{l}",
                    slow == _double_sum_values(f, l),
                    where,
                )
        report.record("oracle_components_sum_to_input", oracle_sum == f, where)
        if trial == 0:
            report.record(
                "order1_fixed_point_weighting",
                _fixed_point_route(f) == fast.components[1],
                where,
            )

    images = _projection_images(n, m)
    for l in range(m + 1):
        rank = images.ranks[l]
        report.record(
            f"projection_image_rank_l{l}",
            rank == dimension(n, l),
            f"rank {rank}, expected {dimension(n, l)}",
        )

    return report


def verify_shift_orthogonality(config: RunConfig) -> VerificationReport:
    """Orthogonality of different-order components survives shifting one argument:
    for every overlap r, the exact average over all n! permutations of
    F(x{1..m}) * H(x k_r) vanishes, where k_r = {1..r, m+1..2m-r}."""
    n, m = config.n, config.m
    if n > config.brute_force_ceiling:
        raise ResourceLimitError(
            f"shift suite needs an n!-average; n={n} exceeds ceiling "
            f"{config.brute_force_ceiling}"
        )
    report = VerificationReport("shift", n, m, config.seed, config.trials)
    gen = Lcg64(config.seed)

    # Counted once, shared by every trial; pairs[m] weights the squared norms.
    pairs = _group_walk(n, m).pairs

    def pair_sum(r: int, fv: tuple[int, ...], hv: tuple[int, ...]) -> int:
        return sum(c * fv[b] * hv[k] for (b, k), c in pairs[r].items())

    def numerators(h: ModuleVector) -> list[tuple[int, ...]]:
        # Integer numerators of each component over its own positive
        # denominator: every pair_sum is a positive multiple of the rational
        # n!-sum, so its "== 0" and "> 0" tests are exact.
        comps = decompose(h).components
        return [comps[l].numerators for l in range(m + 1)]

    for trial in range(config.trials):
        f0 = random_module_vector(n, m, gen.next_uint())
        fc = numerators(f0)
        hc = numerators(random_module_vector(n, m, gen.next_uint()))

        for j in range(m + 1):
            for l in range(m + 1):
                if l == j:
                    continue
                for r in range(m + 1):
                    report.record(
                        f"shifted_orthogonality_j{j}_l{l}_r{r}",
                        pair_sum(r, fc[j], hc[l]) == 0,
                        partial(_offending, trial, f0, f"j={j} l={l} r={r}"),
                    )

        # Negative control: the same-order, full-overlap sum is a squared norm,
        # so it must be strictly positive for any nonzero component.  The suite
        # asserts nothing about same-order shifted sums beyond this.
        witness = [fv for fv in fc if any(fv)]
        report.record(
            "negative_control_same_order_norm_positive",
            bool(witness) and all(pair_sum(m, fv, fv) > 0 for fv in witness),
            partial(_offending, trial, f0),
        )

    return report


def verify_specht(config: RunConfig) -> VerificationReport:
    """Polytabloid construction, basis ranks, equivariance, and the span identity
    between lifted standard polytabloids and the projection image."""
    n, m = config.n, config.m
    report = VerificationReport("specht", n, m, config.seed, config.trials)
    gen = Lcg64(config.seed)

    # Worked four-term example: the (4,2)-shape polytabloid of ((1,2,3,4);(5,6)).
    t0 = Tableau((1, 2, 3, 4), (5, 6))
    expected = (
        indicator(6, (5, 6))
        - indicator(6, (1, 6))
        - indicator(6, (2, 5))
        + indicator(6, (1, 2))
    )
    report.record("polytabloid_four_term_example", polytabloid(t0) == expected)

    bases = {l: specht_basis(n, l) for l in range(1, m + 1)}
    triangular = {l: _unitriangular(basis) for l, basis in bases.items()}
    for l, basis in bases.items():
        # A unitriangular basis is independent.  At l = 1 elimination still
        # ranks the basis, so a certificate that claimed too much fails there.
        rank = len(basis) if triangular[l] and l > 1 else rank_of_span(basis)
        report.record(
            f"specht_basis_rank_l{l}",
            len(basis) == dimension(n, l) and rank == dimension(n, l),
            f"{len(basis)} polytabloids, rank {rank}, expected {dimension(n, l)}",
        )

    for trial in range(config.trials):
        x = gen.permutation(n)
        arrangement = gen.shuffle(list(range(1, n + 1)))
        t = Tableau(tuple(arrangement[: n - m]), tuple(arrangement[n - m :]))
        pt = polytabloid(t)
        report.record(
            "polytabloid_equivariance",
            polytabloid(t.apply(x)) == act(x, pt),
            f"trial {trial}; x={list(x.images)}, tableau={t.text()}",
        )
        report.record(
            "lift_equivariance",
            u_statistic_lift(act(x, pt), m) == act(x, u_statistic_lift(pt, m)),
            f"trial {trial}; x={list(x.images)}, tableau={t.text()}",
        )

    images = _projection_images(n, m)
    for l in range(1, m + 1):
        lifted = [u_statistic_lift(v, m) for v in bases[l]]
        # The certificate: the basis is independent (unitriangular) and
        # completely degenerate, so its lift is independent too, as the up pass
        # U and down pass D give D U^k phi = k(n - 2l - k + 1) U^(k-1) phi, with
        # a nonzero factor for every k <= m - l.  The lifted vectors lie in
        # E_l, which the images span (`_spectral_ranks`), so the ranks follow.
        if (
            images.certified
            and triangular[l]
            and all(map(is_completely_degenerate, bases[l]))
            and _johnson_eigenvectors(lifted, l)
        ):
            ranks = (len(lifted), images.ranks[l], images.ranks[l])
        else:
            image = list(images.vectors[l])
            ranks = (rank_of_span(lifted), images.ranks[l], rank_of_span(lifted + image))
        want = dimension(n, l)
        report.record(
            f"lifted_specht_equals_projection_image_l{l}",
            ranks == (want, want, want),
            f"ranks {ranks}, expected all {want}",
        )

    return report


SUITES = {
    "decomp": verify_decomposition,
    "equiv": verify_equivalence,
    "shift": verify_shift_orthogonality,
    "specht": verify_specht,
}


def run_suites(config: RunConfig, which: str = "all") -> list[VerificationReport]:
    if which == "all":
        names = list(SUITES)
    elif which in SUITES:
        names = [which]
    else:
        raise DomainError(f"unknown suite {which!r}; choose from all, {', '.join(SUITES)}")
    return [SUITES[name](config) for name in names]


@dataclass(frozen=True)
class BenchResult:
    n: int
    m: int
    kernel_seconds: float
    oracle_seconds: float | None  # None when n exceeds the ceiling

    def render(self) -> str:
        lines = [
            f"bench: n={self.n} m={self.m}",
            f"  kernel route (full decomposition): {self.kernel_seconds:.6f} s",
        ]
        if self.oracle_seconds is None:
            lines.append("  oracle route: infeasible above the brute-force ceiling")
        else:
            lines.append(
                f"  oracle route (all orders, n! sum): {self.oracle_seconds:.6f} s"
            )
        return "\n".join(lines) + "\n"


def bench(
    n: int, m: int, seed: int = 0, ceiling: int = DEFAULT_ORACLE_CEILING
) -> BenchResult:
    """Time the kernel route against the n!-oracle route on one random vector."""
    h = random_module_vector(n, m, seed)
    start = time.perf_counter()
    dict(decompose(h).components)  # every component, as the oracle route builds
    kernel_seconds = time.perf_counter() - start

    oracle_seconds = None
    if n <= ceiling:
        clear_oracle_cache()
        start = time.perf_counter()
        for l in range(m + 1):
            character_projection_oracle(h, l, ceiling=ceiling)
        oracle_seconds = time.perf_counter() - start
    return BenchResult(n, m, kernel_seconds, oracle_seconds)
