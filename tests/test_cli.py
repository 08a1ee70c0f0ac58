import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import spechtstat
from spechtstat import (
    dimension,
    load_decomposition,
    load_module_vector,
    polytabloid,
    random_module_vector,
    save_module_vector,
    standard_tableaux,
)
from spechtstat import verify
from spechtstat.cli import main


class TestDims:
    def test_n6_table(self, capsys):
        assert main(["dims", "--n", "6"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.strip().split("\n")[1:]]
        assert [(int(a), int(b)) for a, b in rows] == [(0, 1), (1, 5), (2, 9), (3, 5)]

    def test_table_equals_the_dimension_formula(self, capsys):
        # The table's running binomial against two fresh binomials a row.
        for n in range(1, 61):
            assert main(["dims", "--n", str(n)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0] == f" l  dimension   (n={n})"
            assert lines[1:] == [f" {l}  {dimension(n, l)}" for l in range(n // 2 + 1)]

    def test_missing_argument_is_usage_error(self, capsys):
        assert main(["dims"]) == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_degree_is_input_error(self, n, capsys):
        assert main(["dims", "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: degree must be positive" in captured.err

    @pytest.fixture
    def digit_limit(self):
        saved = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("n", ["15000", "1000000"])
    def test_beyond_digit_limit_is_input_error(self, n, digit_limit, capsys):
        # At the default limit of 4300 digits, the table fails from n = 14299 on;
        # C(10^6, 5*10^5) alone would take seconds to build.
        digit_limit(4300)
        start = time.perf_counter()
        assert main(["dims", "--n", n]) == 2
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "limit of 4300 digits" in captured.err

    def test_digit_check_refuses_exactly_the_tables_it_cannot_print(self, digit_limit, capsys):
        # Around n = 2138 at the smallest limit, 640 digits; past n = 2148 the
        # check refuses on bit lengths alone.
        digit_limit(640)
        bound = 10**640
        for n in range(2136, 2151):
            binomials = [1]
            for l in range(1, n // 2 + 1):
                binomials.append(binomials[-1] * (n - l + 1) // l)
            fits = max(b - a for a, b in zip([0] + binomials, binomials)) < bound
            assert main(["dims", "--n", str(n)]) == (0 if fits else 2)
            captured = capsys.readouterr()
            assert (captured.out == "") == (not fits)
            assert captured.err.startswith("error: ") != fits


class TestChartable:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["chartable", "--n", "4", "--max-l", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "cycle_type,class_size,chi_0,chi_1,chi_2"
        assert len(lines) == 6

    def test_bad_shape(self, capsys):
        out = "unused.csv"
        assert main(["chartable", "--n", "4", "--max-l", "3", "--out", out]) == 2
        assert "error:" in capsys.readouterr().err


class TestDecompose:
    def test_round_trip(self, tmp_path, capsys):
        h = random_module_vector(6, 2, 17)
        src = tmp_path / "in.mv"
        dst = tmp_path / "out.dec"
        save_module_vector(h, src)
        assert main(["decompose", "--n", "6", "--m", "2", "--input", str(src), "--out", str(dst)]) == 0
        dec = load_decomposition(dst)
        assert dec.reconstruction() == h

    def test_constant_input_zero_kernels(self, tmp_path, capsys):
        src = tmp_path / "const.mv"
        dst = tmp_path / "const.dec"
        src.write_text("n = 4\nl = 2\n" + "".join(f"{a},{b} = 5\n" for a, b in
                                                  [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]))
        assert main(["decompose", "--n", "4", "--m", "2", "--input", str(src), "--out", str(dst)]) == 0
        dec = load_decomposition(dst)
        assert all(dec.kernels[l].is_zero() for l in (1, 2))
        assert "0 nonzero kernels" in capsys.readouterr().out

    @staticmethod
    def golden_bytes_match(tmp_path, n, m):
        data = Path(__file__).parent / "data"
        stem = f"decompose_n{n}_m{m}"
        dst = tmp_path / "out.dec"
        args = ["decompose", "--n", str(n), "--m", str(m), "--input", str(data / f"{stem}.mv")]
        assert main(args + ["--out", str(dst)]) == 0
        return dst.read_bytes() == (data / f"{stem}.dec").read_bytes()

    def test_golden_output_bytes(self, tmp_path, capsys):
        # The .dec file was written by the CLI before value texts were parsed
        # and formatted once per call; the output must not change by a byte.
        assert self.golden_bytes_match(tmp_path, 14, 3)

    def test_golden_output_bytes_n10_m5(self, tmp_path, capsys):
        # Every layer up to m = 5, on small unreduced rationals with zeros
        # omitted, written by the CLI before the face tables were cached.
        assert self.golden_bytes_match(tmp_path, 10, 5)

    def test_shape_flag_mismatch(self, tmp_path, capsys):
        src = tmp_path / "in.mv"
        save_module_vector(random_module_vector(6, 2, 1), src)
        assert main(["decompose", "--n", "6", "--m", "3", "--input", str(src), "--out", "x"]) == 2

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="digit limit disabled")
    def test_output_beyond_digit_limit_is_input_error(self, tmp_path):
        # Each denominator fits the interpreter's digit limit; their lcm, the
        # mean's denominator, does not.
        digits = sys.get_int_max_str_digits() * 3 // 4
        a, b = 10**digits + 1, 10**digits + 3
        src = tmp_path / "long.mv"
        dst = tmp_path / "long.dec"
        src.write_text(f"n = 4\nl = 2\n1,2 = 1/{a}\n3,4 = 1/{b}\n")
        env = dict(os.environ, PYTHONPATH=str(Path(spechtstat.__file__).parents[1]))
        # Once with no output file, then over one that exists: it keeps its bytes.
        for before in (None, b"an earlier output\n"):
            if before is not None:
                dst.write_bytes(before)
            proc = subprocess.run(
                [sys.executable, "-m", "spechtstat.cli", "decompose", "--n", "4", "--m", "2",
                 "--input", str(src), "--out", str(dst)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr
            assert "digits" in proc.stderr
            if before is None:
                assert not dst.exists()
            else:
                assert dst.read_bytes() == before
            # No temporary file is left beside the output.
            left = {p.name for p in tmp_path.iterdir()}
            assert left == ({src.name, dst.name} if before else {src.name})

    def test_exponent_form_is_input_error(self, tmp_path):
        # Parsed as a Fraction, this 11-character value would build a ~400 MB integer.
        src = tmp_path / "exp.mv"
        dst = tmp_path / "exp.dec"
        src.write_text("n = 4\nl = 2\n1,2 = 1e999999999\n")
        env = dict(os.environ, PYTHONPATH=str(Path(spechtstat.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "spechtstat.cli", "decompose", "--n", "4", "--m", "2",
             "--input", str(src), "--out", str(dst)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "line 3" in proc.stderr and "expected p or p/q" in proc.stderr
        assert not dst.exists()

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        src = tmp_path / "bad.mv"
        src.write_text("n = 4\nl = 2\n1,2 = oops\n")
        assert main(["decompose", "--n", "4", "--m", "2", "--input", str(src), "--out", "x"]) == 2
        assert "line 3" in capsys.readouterr().err


class TestSpecht:
    def test_writes_one_file_per_standard_tableau(self, tmp_path, capsys):
        out = tmp_path / "basis"
        assert main(["specht", "--n", "6", "--l", "2", "--out", str(out)]) == 0
        files = sorted(out.iterdir())
        tableaux = standard_tableaux(6, 2)
        assert len(files) == len(tableaux) == 9
        by_name = {p.name: p for p in files}
        t = tableaux[0]
        name = "-".join(str(a) for a in t.bottom_row) + ".mv"
        assert load_module_vector(by_name[name]) == polytabloid(t)

    def test_invalid_shape_creates_no_directory(self, tmp_path, capsys):
        out = tmp_path / "D"
        assert main(["specht", "--n", "4", "--l", "3", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_passes_and_exits_zero(self, capsys):
        code = main(["verify", "--n", "5", "--m", "2", "--seed", "1", "--trials", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("result: PASS") == 4

    def test_single_suite(self, capsys):
        code = main(["verify", "--n", "4", "--m", "2", "--trials", "2", "--suite", "specht"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("suite specht:") == 1
        assert "suite decomp:" not in out

    def test_json_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            ["verify", "--n", "4", "--m", "2", "--trials", "2", "--suite", "decomp",
             "--report", str(report)]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["reports"][0]["suite"] == "decomp"
        assert payload["reports"][0]["ok"] is True

    def test_invalid_shape_is_usage_error(self, capsys):
        assert main(["verify", "--n", "5", "--m", "3"]) == 2

    @pytest.mark.parametrize("suite", ["all", "decomp"])
    def test_zero_trials_is_input_error(self, suite, capsys):
        assert main(["verify", "--n", "5", "--m", "2", "--trials", "0", "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert "trials must be at least 1" in captured.err
        assert "PASS" not in captured.out

    def test_suite_choices_are_the_registered_suites(self, monkeypatch, capsys):
        def extra(config):
            report = verify.VerificationReport("extra", config.n, config.m, config.seed, 1)
            report.record("registered", True)
            return report

        monkeypatch.setitem(verify.SUITES, "extra", extra)
        assert main(["verify", "--n", "4", "--m", "2", "--suite", "extra"]) == 0
        assert "suite extra:" in capsys.readouterr().out
        assert main(["verify", "--n", "4", "--m", "2", "--suite", "bogus"]) == 2
        assert "unknown suite 'bogus'; choose from all, decomp, equiv, shift, specht, extra" in (
            capsys.readouterr().err
        )

    def test_ceiling_guard(self, capsys):
        assert main(["verify", "--n", "9", "--m", "2", "--trials", "1", "--suite", "equiv"]) == 2
        assert "ceiling" in capsys.readouterr().err

    def test_ceiling_flag_is_read(self, capsys):
        args = ["verify", "--n", "5", "--m", "2", "--trials", "1", "--ceiling", "4"]
        assert main(args) == 2
        assert "exceeds ceiling 4" in capsys.readouterr().err

    def test_output_is_deterministic(self, capsys):
        args = ["verify", "--n", "4", "--m", "2", "--seed", "7", "--trials", "2"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


class TestBench:
    def test_small_bench_prints_both(self, capsys):
        assert main(["bench", "--n", "5", "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "kernel route" in out
        assert "oracle route" in out

    def test_above_ceiling_bench(self, capsys):
        assert main(["bench", "--n", "11", "--m", "2"]) == 0
        assert "infeasible" in capsys.readouterr().out


MEMORY_LIMIT = 2_000_000_000  # bytes of address space; C(34, 17) entries need ~18 GB


def _limit_memory():
    """A child's `preexec_fn`: cap its address space at MEMORY_LIMIT."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class TestOutOfMemory:
    """A shape whose vectors cannot be allocated exits 2 with one line, not a traceback."""

    @pytest.mark.skipif(resource is None, reason="needs RLIMIT_AS")
    @pytest.mark.parametrize("command", ["verify", "decompose"])
    def test_memory_error_is_input_error(self, command, tmp_path):
        src = tmp_path / "big.mv"
        dst = tmp_path / "big.dec"
        src.write_text("n = 34\nl = 17\n" + ",".join(map(str, range(1, 18))) + " = 1\n")
        args = {
            "verify": ["verify", "--n", "34", "--m", "17", "--suite", "decomp", "--trials", "1"],
            "decompose": ["decompose", "--n", "34", "--m", "17",
                          "--input", str(src), "--out", str(dst)],
        }[command]
        env = dict(os.environ, PYTHONPATH=str(Path(spechtstat.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "spechtstat.cli", *args],
            capture_output=True, text=True, env=env, timeout=120, preexec_fn=_limit_memory,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: out of memory running {command}\n"
        assert proc.stdout == ""
        assert not dst.exists()


class TestHugeLayer:
    """A layer of more than sys.maxsize subsets exits 2 with one line, not a traceback."""

    @pytest.mark.parametrize("command", ["verify", "decompose", "specht", "bench"])
    def test_layer_past_the_list_limit_is_input_error(self, command, tmp_path):
        src = tmp_path / "huge.mv"
        dst = tmp_path / "huge.dec"
        src.write_text("n = 70\nl = 35\n" + ",".join(map(str, range(1, 36))) + " = 1\n")
        args = {
            "verify": ["verify", "--n", "70", "--m", "35", "--suite", "decomp", "--trials", "1"],
            "decompose": ["decompose", "--n", "70", "--m", "35",
                          "--input", str(src), "--out", str(dst)],
            "specht": ["specht", "--n", "70", "--l", "35", "--out", str(dst)],
            "bench": ["bench", "--n", "70", "--m", "35"],
        }[command]
        env = dict(os.environ, PYTHONPATH=str(Path(spechtstat.__file__).parents[1]))
        # The timeout and the memory cap make an unguarded enumeration fail, not hang.
        proc = subprocess.run(
            [sys.executable, "-m", "spechtstat.cli", *args], capture_output=True, text=True,
            env=env, timeout=60, preexec_fn=_limit_memory if resource else None,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "C(70, 35)" in proc.stderr
        assert proc.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.mv"]


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["dims", "--n", "6"],
            ["chartable", "--n", "4", "--max-l", "2", "--out", "table.csv"],
            ["decompose", "--n", "6", "--m", "2", "--input", "in.mv", "--out", "out.dec"],
            ["specht", "--n", "6", "--l", "2", "--out", "basis"],
        ],
    )
    def test_ceiling_is_refused_where_unread(self, args, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        save_module_vector(random_module_vector(6, 2, 1), tmp_path / "in.mv")
        assert main(args + ["--ceiling", "8"]) == 2
        assert "unrecognized arguments: --ceiling 8" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.mv"]

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
