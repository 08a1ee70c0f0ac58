"""Seeded inputs and independent output checks for the spechtstat benchmark.

Nothing here calls the library: the inputs are written in the documented
vector format by this module, and a decomposition is checked against the
properties that pin it down uniquely:

  * component 0 is the constant mean of the input;
  * the components sum back to the input exactly;
  * every kernel is completely degenerate (its sums over one free point vanish);
  * every component is the U-statistic lift of its kernel.

Vector coordinates follow the library's documented canonical order, the
lexicographic order of `itertools.combinations(range(1, n + 1), l)`.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb
from pathlib import Path


def random_values(
    rng: random.Random, n: int, m: int, num: tuple[int, int], den: tuple[int, int]
) -> list[Fraction]:
    """C(n, m) rationals p/q with p uniform in num and q uniform in den (inclusive)."""
    return [Fraction(rng.randint(*num), rng.randint(*den)) for _ in range(comb(n, m))]


def _rational_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def write_vector(path: Path, n: int, m: int, values: list[Fraction]) -> None:
    """Write a vector file: 'n = ..', 'l = ..', then one 'subset = value' line per nonzero."""
    lines = [f"n = {n}", f"l = {m}"]
    for subset, v in zip(itertools.combinations(range(1, n + 1), m), values):
        if v:
            lines.append(",".join(map(str, subset)) + " = " + _rational_text(v))
    path.write_text("\n".join(lines) + "\n")


def _positions(n: int, l: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(itertools.combinations(range(1, n + 1), l))}


def decomposition_errors(n: int, m: int, values: list[Fraction], dec) -> list[str]:
    """Every property of `dec` that fails for the input `values`; empty when correct."""
    if (dec.n, dec.m) != (n, m):
        return [f"shape (n={dec.n}, m={dec.m}), expected (n={n}, m={m})"]
    errors = []
    mean = Fraction(sum(values), comb(n, m))
    if dec.mean != mean:
        errors.append("mean differs from the input's average")
    comps = {l: dec.components[l].values for l in range(m + 1)}
    if any(v != mean for v in comps[0]):
        errors.append("component 0 is not the constant mean")
    for k, v in enumerate(values):
        if sum(comps[l][k] for l in range(m + 1)) != v:
            errors.append(f"components do not sum to the input at position {k}")
            break
    top = list(itertools.combinations(range(1, n + 1), m))
    for l in range(1, m + 1):
        kernel = dec.kernels[l].values
        if len(kernel) != comb(n, l):
            errors.append(f"kernel {l} has {len(kernel)} entries, expected {comb(n, l)}")
            continue
        below = _positions(n, l - 1)
        sums = [Fraction(0)] * len(below)
        for subset, v in zip(itertools.combinations(range(1, n + 1), l), kernel):
            for drop in range(l):
                sums[below[subset[:drop] + subset[drop + 1 :]]] += v
        if any(sums):
            errors.append(f"kernel {l} is not completely degenerate")
        at = _positions(n, l)
        for k, K in enumerate(top):
            if sum(kernel[at[J]] for J in itertools.combinations(K, l)) != comps[l][k]:
                errors.append(f"component {l} is not the lift of kernel {l} at position {k}")
                break
    return errors


def verify_output_errors(returncode: int, stdout: str) -> list[str]:
    """A `spechtstat verify --suite all` run passes when it exits 0 and every suite says PASS."""
    errors = [] if returncode == 0 else [f"exit code {returncode}"]
    lines = stdout.splitlines()
    suites = [line.split()[1].rstrip(":") for line in lines if line.startswith("suite ")]
    results = [line for line in lines if line.startswith("result: ")]
    if sorted(suites) != ["decomp", "equiv", "shift", "specht"]:
        errors.append(f"suites reported: {suites}")
    if len(results) != len(suites) or not all(r.startswith("result: PASS") for r in results):
        errors.append(f"suite results: {results}")
    return errors
