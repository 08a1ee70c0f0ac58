"""Self-test of the benchmark at tiny sizes.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit on
every workload, that a decomposition with one kernel entry changed by +1 is
caught and counted as failed, and that the traced counts match their closed
forms and repeat exactly across seeds.  Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import sys
from math import comb, factorial

import run as bench
from check import decomposition_errors

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def tiny(name: str):
    return {"deep": bench.Deep(6, 3), "wide-io": bench.WideIO(8, 2), "verify": bench.Verify(5, 2)}[name]


def run_quiet(workload, seed: int, trace: bool) -> dict:
    with contextlib.redirect_stderr(io.StringIO()):
        return bench.run(workload, seed, 0.0, trace)


def test_metrics_printed_with_units(spec: dict) -> None:
    units = bench.load_units()
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for name in bench.WORKLOADS:
            result = run_quiet(tiny(name), 1, trace)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                final = bench.report(name, result, units)
            rows = {tuple(line.split()[1:4:2]) for line in out.getvalue().splitlines()}
            got = {k: v["unit"] for k, v in final["metrics"].items()}
            expect(got == want, f"{name} trace={int(trace)}: JSON has every {kind} metric, with its unit")
            expect(all((k, u) in rows for k, u in want.items()), f"{name} trace={int(trace)}: a row per metric")
            expect(final["failed"] == 0 and final["correct"], f"{name} trace={int(trace)}: no failed op")


def _corrupt(dec):
    kernel = dec.kernels[1]
    bumped = type(kernel)(kernel.n, kernel.l, (kernel.values[0] + 1,) + kernel.values[1:])
    return dataclasses.replace(dec, kernels={**dec.kernels, 1: bumped})


def test_corrupted_kernel_is_counted() -> None:
    from spechtstat import ModuleVector, hoeffding

    workload = tiny("deep")
    values = workload.make_input(random.Random(3), bench.WORK)
    dec = hoeffding.decompose(ModuleVector(6, 3, values))
    expect(decomposition_errors(6, 3, values, dec) == [], "a correct decomposition passes the check")
    expect(decomposition_errors(6, 3, values, _corrupt(dec)) != [], "kernel entry +1 is caught")

    original = hoeffding.decompose
    hoeffding.decompose = lambda h: _corrupt(original(h))
    try:
        result = run_quiet(workload, 1, False)
    finally:
        hoeffding.decompose = original
    expect(
        result["failed"] == result["attempted"] >= 1 and result["metrics"]["success_ratio"] == 0,
        "every op with a corrupted kernel counts as failed",
    )


def test_traced_counts() -> None:
    for n, m in ((6, 3), (8, 4), (9, 2)):
        got = run_quiet(bench.Deep(n, m), 1, True)["metrics"]
        subsets_times_parts = comb(n, m) * (2**m - 1)
        want = {
            "hoeffding.decompose_calls": 1,
            "hoeffding.conditional_expectation_calls": sum(comb(n, a) for a in range(1, m + 1)),
            "hoeffding.conditional_expectation_entries": subsets_times_parts,
            "hoeffding.u_statistic_lift_calls": m,
            "hoeffding.u_statistic_lift_entries": subsets_times_parts,
        }
        expect(all(got[k] == v for k, v in want.items()), f"deep n={n} m={m}: counts match closed forms")

    n = 8
    got = run_quiet(tiny("wide-io"), 1, True)["metrics"]
    expect(
        got["hoeffding.conditional_expectation_calls"] == n + comb(n, 2)
        and got["fileformats.bytes_read"] > got["fileformats.bytes_written"] > 0,
        "wide-io: conditional expectations and file bytes",
    )

    n = 5
    got = run_quiet(tiny("verify"), 1, True)["metrics"]
    perms = got["combinatorics.permutations_enumerated"]
    expect(perms > 0 and perms % factorial(n) == 0, "verify: whole walks over S_n")
    expect(all(got[f"verify.{s}_s"] > 0 for s in ("decomp", "equiv", "shift", "specht")), "verify: suite spans")

    for name in bench.WORKLOADS:
        a, b = (run_quiet(tiny(name), seed, True)["metrics"] for seed in (1, 2))
        counts = [k for k in a if k.endswith(("_calls", "_entries", "permutations_enumerated"))]
        expect(all(a[k] == b[k] for k in counts), f"{name}: traced counts repeat across seeds")


def main() -> int:
    problem = bench.import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    bench.WORK.mkdir(exist_ok=True)
    test_metrics_printed_with_units(spec)
    test_corrupted_kernel_is_counted()
    test_traced_counts()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
