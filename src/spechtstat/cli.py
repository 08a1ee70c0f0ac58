"""Command-line interface.

Subcommands: dims, chartable, decompose, specht, verify, bench.
Exit codes: 0 success, 1 verification failure, 2 usage or input error or
exhausted memory.

Each command imports the modules it uses inside its handler, so that a
process loads only what its command runs: `decompose`, for one, never loads
`verify`, `characters` or `specht`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .combinatorics import DEFAULT_ORACLE_CEILING
from .errors import DomainError, ParseError, ResourceLimitError


def _build_parser() -> argparse.ArgumentParser:
    ceiling = argparse.ArgumentParser(add_help=False)
    ceiling.add_argument(
        "--ceiling",
        type=int,
        default=DEFAULT_ORACLE_CEILING,
        help=f"brute-force bound for n!-cost routes (default {DEFAULT_ORACLE_CEILING})",
    )

    parser = argparse.ArgumentParser(
        prog="spechtstat",
        description=(
            "Exact Hoeffding decompositions of symmetric statistics of sampling "
            "without replacement, and their two-row Specht module structure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="print the dimension table for degree n")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("chartable", help="export a two-row character table as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-l", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("decompose", help="decompose a vector file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("specht", help="write standard polytabloid basis vectors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("verify", parents=[ceiling], help="run verification suites")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    # The names of verify.SUITES, spelled out so that parsing imports no `verify`;
    # `run_suites` refuses any other name.
    p.add_argument("--suite", default="all", metavar="{all,decomp,equiv,shift,specht}")
    p.add_argument("--report", type=Path, default=None, help="write a JSON report here")

    p = sub.add_parser("bench", parents=[ceiling], help="time the kernel route vs the n! oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _check_dims_digits(n: int) -> None:
    """Refuse, before any line is printed, a table with an entry too long for `str`.

    The ratio dimension(n, l) / dimension(n, l-1) = (n-2l+1)(n-l+2) / (l(n-2l+3))
    falls as l grows, so the largest entry is at the last l <= n/2 where the
    ratio is at least 1.  That entry is at least 2^n / (n+1)^2, so a large n is
    refused on bit lengths alone, without building a binomial of ~n bits.
    """
    from .characters import dimension

    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    bound = 10**limit  # the smallest integer with limit + 1 digits
    if (bound * (n + 1) ** 2).bit_length() > n:
        l = n // 2
        while l > 0 and l * (n - 2 * l + 3) > (n - 2 * l + 1) * (n - l + 2):
            l -= 1
        if dimension(n, l) < bound:
            return
    raise ResourceLimitError(
        f"the dimensions for n={n} exceed the interpreter's limit of {limit} digits "
        "for int-to-string conversion"
    )


def _cmd_dims(args) -> int:
    n = args.n
    if n < 1:
        raise DomainError(f"degree must be positive, got n={n}")
    _check_dims_digits(n)
    print(f" l  dimension   (n={n})")
    # dimension(n, l) = C(n, l) - C(n, l-1), from the running binomial
    # C(n, l+1) = C(n, l)(n-l)/(l+1): one product and one exact division a
    # row in place of two fresh binomials.
    below, here = 0, 1  # C(n, l-1), C(n, l)
    for l in range(n // 2 + 1):
        print(f" {l}  {here - below}")
        below, here = here, here * (n - l) // (l + 1)
    return 0


def _cmd_chartable(args) -> int:
    from .characters import character_table

    table = character_table(args.n, args.max_l)
    args.out.write_text(table.csv_text())
    print(f"wrote {len(table.rows)} classes x {args.max_l + 1} characters to {args.out}")
    return 0


def _cmd_decompose(args) -> int:
    from .fileformats import load_module_vector, save_decomposition
    from .hoeffding import _kernels_first

    h = load_module_vector(args.input)
    if h.n != args.n or h.l != args.m:
        raise DomainError(
            f"input file has shape (n={h.n}, l={h.l}), flags say (n={args.n}, m={args.m})"
        )
    # The kernels are kept; each component is lifted, written and dropped in turn.
    dec = _kernels_first(h)
    save_decomposition(dec, args.out)
    nonzero = sum(1 for l in range(1, dec.m + 1) if not dec.kernels[l].is_zero())
    print(f"wrote decomposition to {args.out}: mean={dec.mean}, {nonzero} nonzero kernels")
    return 0


def _cmd_specht(args) -> int:
    from .combinatorics import standard_tableaux
    from .fileformats import save_module_vector
    from .specht import polytabloid

    tableaux = standard_tableaux(args.n, args.l)
    args.out.mkdir(parents=True, exist_ok=True)
    for t in tableaux:
        name = "-".join(str(a) for a in t.bottom_row) + ".mv"
        save_module_vector(polytabloid(t), args.out / name)
    print(f"wrote {len(tableaux)} polytabloid basis vectors to {args.out}/")
    return 0


def _cmd_verify(args) -> int:
    from .verify import RunConfig, run_suites

    config = RunConfig(
        n=args.n,
        m=args.m,
        seed=args.seed,
        trials=args.trials,
        brute_force_ceiling=args.ceiling,
    )
    reports = run_suites(config, args.suite)
    for report in reports:
        print(report.render(), end="")
    if args.report is not None:
        import json

        payload = {"reports": [r.to_json_dict() for r in reports]}
        args.report.write_text(json.dumps(payload, indent=2) + "\n")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_bench(args) -> int:
    from .verify import bench

    result = bench(args.n, args.m, seed=args.seed, ceiling=args.ceiling)
    print(result.render(), end="")
    if args.n >= 7 and args.m >= 2 and result.oracle_seconds is not None:
        if result.kernel_seconds < result.oracle_seconds:
            print("kernel route is faster, as required for n >= 7")
        else:
            print("FAIL: kernel route not faster than the oracle route")
            return 1
    return 0


_COMMANDS = {
    "dims": _cmd_dims,
    "chartable": _cmd_chartable,
    "decompose": _cmd_decompose,
    "specht": _cmd_specht,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, ParseError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # exit 1 is kept for a failed verification
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
