"""spechtstat benchmark: one closed-loop client driving the library and its CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload deep|wide-io|verify --seed N --seconds S --trace 0|1

The program under test is `src/spechtstat` of the checkout.  The benchmark
makes its inputs from `--seed`, runs ops one after another for `--seconds`,
checks every output with its own code (see `check.py`) and prints one row
per metric followed by a JSON line with `correct`, `attempted`, `failed`
and `metrics`.  CLI workloads run one child at a time, with `src/` as its
working directory, so at most two processes are busy.

With `--trace 0` it reports the end-to-end metrics.  With `--trace 1` it
alternates an untraced op and a traced op on the same input, reports the
per-layer metrics of the traced ops (per op) and `trace.overhead_ratio`,
the median traced op time over the median untraced one, and writes every
span of the run to `.perfbench_work/<workload>-trace/spans.jsonl`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PY = sys.executable
CHILD_TIMEOUT_S = 90
SETUP_SAMPLES = 15

sys.path.insert(0, str(HERE))
from check import (  # noqa: E402
    decomposition_errors,
    random_values,
    verify_output_errors,
    write_vector,
)
from tracer import Tracer, per_layer  # noqa: E402


@dataclasses.dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def run_child(cmd: list[str], work: Path) -> Child:
    """Run `cmd` in `src/`, wait for it and read its peak RSS; kill it after CHILD_TIMEOUT_S.

    Output goes to files so that `os.wait4` can reap the child and return its
    own resource usage.  The timeout is a timer rather than
    `subprocess.run(timeout=...)`, whose wait polls with sleeps of up to 50 ms
    and so rounds every child's time.
    """
    with open(work / "child.out", "w+") as out, open(work / "child.err", "w+") as err:
        proc = subprocess.Popen(cmd, cwd=SRC, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024)


class Op:
    """Time one op; with a tracer, install its wrappers and open an op span around it."""

    def __init__(self, tracer: Tracer | None, op_id: int):
        self.tracer = tracer
        self.op_id = op_id
        self.seconds = 0.0
        self.child_rss_mb: float | None = None
        self._pending = None  # (spans file, parent span id) of a traced child

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.op = self.op_id
            self.tracer.install()
            self._span = self.tracer.span("bench.op")
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._start
        if self.tracer is not None:
            self._span.__exit__(*exc)
            self.tracer.uninstall()
            if self._pending is not None:
                spans, parent = self._pending
                self.tracer.add_foreign(spans.read_text().splitlines(), parent)
                spans.unlink()
        return False

    def child(self, cli_args: list[str], work: Path) -> Child:
        """Run one CLI child; a traced op runs it through `launch.py` and merges its spans on exit."""
        if self.tracer is None:
            proc = run_child([PY, "-m", "spechtstat.cli", *cli_args], work)
        else:
            spans = work / f"spans-{self.op_id}.jsonl"
            self._pending = (spans, len(self.tracer.spans))
            with self.tracer.span("bench.child"):
                launch = [PY, str(HERE / "launch.py"), str(spans), str(self.op_id)]
                proc = run_child(launch + cli_args, work)
        self.child_rss_mb = proc.peak_rss_mb
        return proc


class Workload:
    """A statistic of m draws from [1..n]; each op handles one input of C(n, m) subsets."""

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m

    def subsets(self) -> int:
        return comb(self.n, self.m)


class Deep(Workload):
    """In-process `decompose()` on dense vectors at m = n/2.

    Why: almost all of the time goes to `hoeffding`'s kernel route (conditional
    expectations, kernel assembly, lifts) and none to file I/O or process start.
    """

    name = "deep"
    num, den = (-9, 9), (1, 9)

    def __init__(self, n: int = 12, m: int = 6):
        super().__init__(n, m)

    def make_input(self, rng: random.Random, work: Path):
        return random_values(rng, self.n, self.m, self.num, self.den)

    def run_op(self, values, op: Op, work: Path) -> list[str]:
        from spechtstat import algebra, hoeffding

        h = algebra.ModuleVector(self.n, self.m, values)
        with op:
            dec = hoeffding.decompose(h)
        return decomposition_errors(self.n, self.m, values, dec)


class WideIO(Workload):
    """One `spechtstat decompose` child per vector file, then `load_decomposition()`
    of its output in the benchmark process.

    Why: process start-up and `fileformats` take about half of each op, and
    general rationals (numerators in +-10^4, denominators in [1..1000]) make the
    common denominators grow to about 1400 bits.
    """

    name = "wide-io"
    num, den = (-(10**4), 10**4), (1, 1000)

    def __init__(self, n: int = 60, m: int = 2):
        super().__init__(n, m)

    def make_input(self, rng: random.Random, work: Path):
        values = random_values(rng, self.n, self.m, self.num, self.den)
        path = work / "input.mv"
        write_vector(path, self.n, self.m, values)
        return values, path

    def run_op(self, inp, op: Op, work: Path) -> list[str]:
        from spechtstat import fileformats

        values, path = inp
        out = work / "output.dec"
        args = ["decompose", "--n", str(self.n), "--m", str(self.m)]
        args += ["--input", str(path), "--out", str(out)]
        dec = None
        with op:
            proc = op.child(args, work)
            if proc.returncode == 0:
                dec = fileformats.load_decomposition(out)
        out.unlink(missing_ok=True)
        if dec is None:
            return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        return decomposition_errors(self.n, self.m, values, dec)


class Verify(Workload):
    """One `spechtstat verify --suite all` child per op, with a fresh --seed.

    Why: it is the developer's path, dominated by n! walks, `rank_of_span` and
    Specht bases, and it makes 80 small `decompose` calls, so
    per-call overhead in the kernel route shows here.
    """

    name = "verify"
    trials = 1

    def __init__(self, n: int = 7, m: int = 3):
        super().__init__(n, m)

    def make_input(self, rng: random.Random, work: Path):
        return rng.randrange(2**32)

    def run_op(self, seed: int, op: Op, work: Path) -> list[str]:
        args = ["verify", "--suite", "all", "--n", str(self.n), "--m", str(self.m)]
        args += ["--trials", str(self.trials), "--seed", str(seed)]
        with op:
            proc = op.child(args, work)
        return verify_output_errors(proc.returncode, proc.stdout)


WORKLOADS = {"deep": Deep, "wide-io": WideIO, "verify": Verify}


class Setup:
    """Wall times of a fresh interpreter that imports spechtstat and exits.

    Samples are spread over the run, between ops, so that their median does
    not hang on the machine's speed during one second of it.
    """

    cmd = [PY, "-c", "import spechtstat"]

    def __init__(self, work: Path):
        self.work = work
        self.samples: list[float] = []
        self._one()  # writes bytecode; not a sample

    def _one(self) -> float:
        start = time.perf_counter()
        proc = run_child(self.cmd, self.work)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"import spechtstat failed: {proc.stderr.strip()[-300:]}")
        return seconds

    def sample_up_to(self, count: int) -> None:
        while len(self.samples) < count:
            self.samples.append(self._one())


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the result object the benchmark prints last."""
    work = WORK / f"{workload.name}-{'trace' if trace else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = random.Random(seed)
    setup = None if trace else Setup(work)
    tracer = Tracer() if trace else None
    times: dict[bool, list[float]] = {False: [], True: []}
    child_rss: list[float] = []  # peak RSS of each untraced op's child
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        inp = workload.make_input(rng, work)
        for traced in ((False, True) if trace else (False,)):
            attempted += 1
            op = Op(tracer if traced else None, attempted)
            try:
                errors = workload.run_op(inp, op, work)
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                errors = [f"{type(exc).__name__}: {exc}"]
            else:
                times[traced].append(op.seconds)
                if not traced and op.child_rss_mb is not None:
                    child_rss.append(op.child_rss_mb)
            if errors:
                failed += 1
                print(f"op {attempted} failed: {'; '.join(errors)}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if setup is not None:
            setup.sample_up_to(int(SETUP_SAMPLES * min(1.0, elapsed / seconds)) if seconds else 0)
        if elapsed >= seconds:
            break
    if not times[False] or (trace and not times[True]):
        raise RuntimeError(f"no op of {attempted} completed")

    if trace:
        metrics = per_layer(tracer, len(times[True]))
        metrics["trace.overhead_ratio"] = statistics.median(times[True]) / statistics.median(
            times[False]
        )
        (work / "spans.jsonl").write_text(tracer.jsonl())
        notes = {"traced_ops": len(times[True]), "absent": tracer.absent}
    else:
        setup.sample_up_to(SETUP_SAMPLES)
        ops = times[False]
        metrics = {
            "setup_s": statistics.median(setup.samples),
            "op_p50_s": statistics.median(ops),
            "subsets_per_s": workload.subsets() * len(ops) / sum(ops),
            "peak_rss_mb": statistics.median(child_rss)
            if child_rss
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_ratio": 1 - failed / attempted,
        }
        notes = {"ops": len(ops)}
        shutil.rmtree(work, ignore_errors=True)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(workload_name: str, result: dict, units: dict[str, str]) -> dict:
    """Print one row per metric; return the final JSON object."""
    notes = result["notes"]
    print(f"# workload {workload_name}: {json.dumps(notes)}")
    out = {}
    for name, value in result["metrics"].items():
        unit = units[name]
        extra = f"  (median of {notes['ops']} ops)" if name == "op_p50_s" else ""
        print(f"{workload_name:8s} {name:45s} {value:.6g} {unit}{extra}")
        out[name] = {"value": value, "unit": unit}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }


def import_program() -> str | None:
    """Import the checkout's `src/spechtstat`; return what is wrong, or None."""
    if not (SRC / "spechtstat" / "__init__.py").is_file():
        return f"no spechtstat package under {SRC}"
    sys.path.insert(0, str(SRC))
    import spechtstat

    if Path(spechtstat.__file__).resolve().parent != SRC / "spechtstat":
        return f"imported spechtstat from {spechtstat.__file__}, not from {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    final = report(args.workload, result, load_units())
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
