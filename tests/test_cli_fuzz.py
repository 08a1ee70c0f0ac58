"""Property test of the CLI's argument space, run in process through `main`.

Every argument list, well formed or not, must end in exit code 0, 1 or 2
without an uncaught exception, and only `verify` and `bench` may return 1.
An integer flag spelled with non-ASCII digits or "_" is a usage error (2).
The shapes stay small (n <= 7 for `verify` and `bench`, n <= 12 for
`chartable`, n <= 60 for `dims`), so that each run is quick."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spechtstat import random_module_vector, save_module_vector
from spechtstat.cli import main

#: Spellings that int() alone reads as integers and the file readers refuse.
NOT_ASCII = ["٦", "1_0"]

#: Flag values that are no integer, or that argparse reads as another flag.
JUNK = ["", "x", "1.5", "-", "0x10", "--n", " 3 "] + NOT_ASCII


def mostly(good, bad):
    """good nine times in ten, bad otherwise."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


def values(hi, lo=-1):
    return mostly(st.integers(lo, hi).map(str), st.sampled_from(JUNK))


#: Path values, resolved under each run's own directory by `resolve`.
OTHER_PATHS = st.sampled_from(["@dir", "@missing-parent", "@bad-bytes", "@vector"])
OUT = mostly(st.just("@new"), OTHER_PATHS)
IN = mostly(st.just("@vector"), OTHER_PATHS)
SEEDS = mostly(values(99), st.sampled_from([str(2**64 - 1), str(2**64), "-1"]))
SUITES = mostly(st.sampled_from(["all", "decomp", "equiv", "shift", "specht"]), st.just("bogus"))

FLAGS = {
    "dims": {"--n": values(60)},
    "chartable": {"--n": values(12), "--max-l": values(8), "--out": OUT},
    "decompose": {"--n": values(8), "--m": values(5), "--input": IN, "--out": OUT},
    "specht": {"--n": values(8), "--l": values(5), "--out": OUT},
    "verify": {
        "--n": values(7),
        "--m": values(4),
        "--seed": SEEDS,
        "--trials": values(2),
        "--suite": SUITES,
        "--ceiling": values(9),
        "--report": OUT,
    },
    "bench": {"--n": values(7), "--m": values(4), "--seed": SEEDS, "--ceiling": values(9)},
}

#: Arguments appended to some runs: help, an unknown flag, `--ceiling` (which only
#: `verify` and `bench` take) and a stray positional.
EXTRAS = mostly(st.just([]), st.sampled_from([["--help"], ["--bogus"], ["--ceiling", "8"], ["7"]]))


def resolve(value, work, argv):
    """A path token as a path under work; any other value as it is.

    "@vector" is a vector file of the shape the flags before it name, when
    that shape is small and valid, and of shape (6, 2) otherwise."""
    if not value.startswith("@"):
        return value
    if value == "@vector":
        shape = [argv[argv.index(f) + 1] if f in argv else "" for f in ("--n", "--m")]
        try:
            n, m = map(int, shape)
            vector = random_module_vector(n, m, 1) if 1 <= n <= 8 and 0 <= m <= n else None
        except ValueError:
            vector = None
        path = work / "in.mv"
        save_module_vector(vector or random_module_vector(6, 2, 1), path)
        return str(path)
    if value == "@bad-bytes":
        path = work / "bad.mv"
        path.write_bytes(b"n = 6\rl = 2\r1,2 = 1\xff\r")
        return str(path)
    return str({"@new": work / "out", "@dir": work, "@missing-parent": work / "no" / "out"}[value])


@given(data=st.data())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_argument_list_exits_0_1_or_2(data, tmp_path):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    command = data.draw(st.sampled_from(sorted(FLAGS)), label="command")
    argv = [command]
    for flag, strategy in FLAGS[command].items():
        if data.draw(st.integers(0, 19), label=f"omit {flag}") == 0:
            continue  # a required flag is sometimes missing
        argv += [flag, resolve(data.draw(strategy, label=flag), work, argv)]
    argv += data.draw(EXTRAS, label="extra")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert code != 1 or command in ("verify", "bench"), (argv, out.getvalue())
    assert code == 2 or not set(NOT_ASCII) & set(argv), (argv, code)
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), (argv, err.getvalue())
