import os
import stat
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from spechtstat import (
    HoeffdingDecomposition,
    ModuleVector,
    ParseError,
    ResourceLimitError,
    decompose,
    decomposition_from_text,
    decomposition_to_text,
    indicator,
    load_decomposition,
    load_module_vector,
    module_vector_from_text,
    module_vector_to_text,
    random_module_vector,
    save_decomposition,
    save_module_vector,
)
from spechtstat import fileformats
from spechtstat.fileformats import format_rational, parse_rational

DATA = Path(__file__).parent / "data"
DIGIT_LIMIT = sys.get_int_max_str_digits()
HEADER = "n = 4\nl = 2\n"
#: Two records of a 2-subset vector of [1..4]: with one more, the section lists
#: half of the six subsets, so canonical keys go through the per-call key table.
DENSE = HEADER + "1,3 = 1\n2,4 = -1\n"

#: A hand-written n=2, m=1 decomposition of mean 1/2, written with the
#: unreduced 2/4; COMPONENT0 stands for the records of component 0 (line 12 on).
SMALL_DECOMPOSITION = (
    "n = 2\nm = 1\nmean = 2/4\n"
    "[kernel 1]\nn = 2\nl = 1\n1 = 2/4\n2 = -2/4\n"
    "[component 0]\nn = 2\nl = 1\nCOMPONENT0"
    "[component 1]\nn = 2\nl = 1\n1 = 2/4\n2 = -2/4\n"
)

needs_digit_limit = pytest.mark.skipif(DIGIT_LIMIT == 0, reason="int/string digit limit disabled")


class TestModuleVectorFormat:
    def test_round_trip(self):
        f = random_module_vector(6, 2, 77)
        assert module_vector_from_text(module_vector_to_text(f)) == f

    def test_zeros_omitted(self):
        f = indicator(5, (2, 4))
        text = module_vector_to_text(f)
        assert text == "n = 5\nl = 2\n2,4 = 1\n"

    def test_sparse_read_defaults_to_zero(self):
        f = module_vector_from_text("n = 4\nl = 2\n1,3 = -7/3\n")
        assert f[(1, 3)] == Fraction(-7, 3)
        assert f[(1, 2)] == 0

    def test_comments_and_blank_lines(self):
        f = module_vector_from_text("# a comment\nn = 4\n\nl = 1\n2 = 1/2  # trailing\n")
        assert f[(2,)] == Fraction(1, 2)

    def test_empty_subset_round_trip(self):
        f = ModuleVector(4, 0, [Fraction(3, 5)])
        text = module_vector_to_text(f)
        assert "- = 3/5" in text
        assert module_vector_from_text(text) == f

    def test_file_round_trip(self, tmp_path):
        f = random_module_vector(5, 2, 78)
        path = tmp_path / "vec.mv"
        save_module_vector(f, path)
        assert load_module_vector(path) == f

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "line 1"),
            ("l = 2\nn = 4\n", "expected 'n"),
            ("n = 4\nl = 9\n", "invalid shape"),
            ("n = 4\nl = 2\n1,2 = x\n", "line 3"),
            ("n = 4\nl = 2\n1,2,3 = 1\n", "line 3"),
            ("n = 4\nl = 2\n1,2 = 1\n1,2 = 2\n", "duplicate"),
            ("n = 4\nl = 2\n1,5 = 1\n", "line 3"),
            # Dense sections: canonical keys hit the per-call key table first.
            (DENSE + "1,2 = 1\n2,1 = 2\n", "line 6: duplicate record for subset '2,1'"),
            (DENSE + "1,2 = 1\n1,5 = 1\n", "line 6: '1,5' is not an 2-subset of [1..4]"),
            (DENSE + "1,2 = 1\n3,4,5 = 1\n", "line 6: '3,4,5' is not an 2-subset"),
            (DENSE + "0,1 = 1\n", "line 5: bad subset text '0,1'"),
            ("n = four\nl = 2\n", "bad integer"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            module_vector_from_text(text)
        assert fragment in str(exc.value)


    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\f", "\x1c", "\x85", "\u2028"])
    def test_file_and_text_break_lines_alike(self, brk, tmp_path):
        # A file is read line by line, and must number its lines as the text's
        # str.splitlines() does, at every break it knows.
        path = tmp_path / "breaks.mv"
        good = f"n = 4{brk}l = 2{brk}1,2 = 1/2{brk}"
        path.write_text(good, newline="")
        want = ModuleVector(4, 2, [Fraction(1, 2)] + [0] * 5)
        assert load_module_vector(path) == module_vector_from_text(good) == want
        bad = f"n = 4{brk}l = 2{brk}{brk}1,2 = x{brk}"
        path.write_text(bad, newline="")
        for read in (lambda: module_vector_from_text(bad), lambda: load_module_vector(path)):
            with pytest.raises(ParseError, match="^line 4: bad rational 'x'"):
                read()

    def test_sparse_huge_shape_fails_before_any_key_table(self, monkeypatch):
        # C(40, 20) ~ 1.4e11 subsets: a bad record must fail without listing them.
        def refuse(n, l):
            raise AssertionError(f"enumerated the {l}-subsets of [1..{n}]")

        monkeypatch.setattr(fileformats, "enumerate_subsets", refuse)
        with pytest.raises(ParseError, match="line 3: '1,2' is not an 20-subset"):
            module_vector_from_text("n = 40\nl = 20\n1,2 = 1\n")


class TestKeySpellings:
    @pytest.mark.parametrize("key", ["1,2", "2,1", "01,2", "1 , 2", "+1,2", " 2 ,1 "])
    @pytest.mark.parametrize("dense", [False, True])
    def test_lands_at_canonical_position(self, key, dense):
        f = module_vector_from_text((DENSE if dense else HEADER) + f"{key} = 5\n")
        want = {(1, 2): 5, **({(1, 3): 1, (2, 4): -1} if dense else {})}
        assert f == ModuleVector.from_mapping(4, 2, want)


class TestRationalForms:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("7", Fraction(7)),
            ("-7/3", Fraction(-7, 3)),
            ("+4/6", Fraction(2, 3)),
            (" 0 ", Fraction(0)),
        ],
    )
    def test_accepts_p_and_p_over_q(self, text, want):
        assert parse_rational(text) == want

    @pytest.mark.parametrize(
        "text",
        ["1e4000000", "1E5", "2.5", ".5", "1_000", "3/-4", "3/+4", "/3", "3/",
         "", "-", "0x10", "inf", "nan", "1 / 2", "\u0661\u0662"],
    )
    def test_rejects_every_other_form(self, text):
        with pytest.raises(ParseError) as exc:
            parse_rational(text, lineno=4)
        assert "line 4" in str(exc.value) and "expected p or p/q" in str(exc.value)

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_rational("1/0")

    def test_exponent_form_in_files(self):
        with pytest.raises(ParseError, match="line 3"):
            module_vector_from_text("n = 4\nl = 2\n1,2 = 1e4000000\n")
        with pytest.raises(ParseError, match="line 3"):
            decomposition_from_text("n = 4\nm = 2\nmean = 1e9\n")


class TestDecompositionFormat:
    def test_round_trip(self):
        dec = decompose(random_module_vector(6, 3, 79))
        text = decomposition_to_text(dec)
        back = decomposition_from_text(text)
        assert back == dec

    @pytest.mark.parametrize("swap", [False, True])
    def test_text_is_the_blocks_of_every_vector(self, swap):
        # Swapping components 0 and m leaves neither repeat for the writer to reuse.
        dec = decompose(random_module_vector(7, 3, 83))
        comps = dict(dec.components)
        if swap:
            comps[0], comps[3] = comps[3], comps[0]
            dec = HoeffdingDecomposition(dec.n, dec.m, dec.mean, dec.kernels, comps)
        blocks = [f"[kernel {l}]\n" + module_vector_to_text(dec.kernels[l]) for l in (1, 2, 3)]
        blocks += [f"[component {l}]\n" + module_vector_to_text(comps[l]) for l in (0, 1, 2, 3)]
        want = f"n = 7\nm = 3\nmean = {format_rational(dec.mean)}\n" + "".join(blocks)
        assert decomposition_to_text(dec) == want

    def test_components_resum_to_input(self):
        h = random_module_vector(6, 2, 80)
        back = decomposition_from_text(decomposition_to_text(decompose(h)))
        assert back.reconstruction() == h

    def test_missing_section(self):
        dec = decompose(random_module_vector(4, 2, 81))
        text = decomposition_to_text(dec)
        broken = text.replace("[kernel 2]", "[kernel 9]")
        with pytest.raises(ParseError):
            decomposition_from_text(broken)

    def test_component_zero_must_be_constant_mean(self):
        dec = decompose(random_module_vector(4, 2, 82))
        text = decomposition_to_text(dec)
        # tamper with the declared mean so component 0 no longer matches
        broken = text.replace(f"mean = {dec.mean}", "mean = 12345")
        with pytest.raises(ParseError):
            decomposition_from_text(broken)

    def test_bad_section_header(self):
        with pytest.raises(ParseError) as exc:
            decomposition_from_text("n = 4\nm = 2\nmean = 0\n[thing 1]\nn = 4\nl = 1\n")
        assert "line 4" in str(exc.value)

    def test_golden_file_loads_as_decomposition_of_its_input(self):
        dec = load_decomposition(DATA / "decompose_n14_m3.dec")
        assert dec == decompose(load_module_vector(DATA / "decompose_n14_m3.mv"))

    @pytest.mark.parametrize(
        "component0,fragment",
        [
            ("1 = 1/2\n2 = 1/3\n", "component 0 must be the constant mean"),
            ("1 = 1/2\n", "component 0 must be the constant mean"),
            ("1 = 1/2\n2 = 1/2\n1 = 1/2\n", "line 14: duplicate record for subset '1'"),
        ],
    )
    def test_component_zero_errors(self, component0, fragment):
        with pytest.raises(ParseError) as exc:
            decomposition_from_text(SMALL_DECOMPOSITION.replace("COMPONENT0", component0))
        assert fragment in str(exc.value)

    def test_key_table_is_per_shape(self):
        # The (4, 2) table of component 0 must not admit "3,4" into a 3-point section.
        comp0 = "[component 0]\nn = 4\nl = 2\n" + "".join(
            f"{a},{b} = 0\n" for a in range(1, 5) for b in range(a + 1, 5)
        )
        kernel2 = "[kernel 2]\nn = 3\nl = 2\n1,2 = 1\n2,3 = 1\n3,4 = 1\n"
        text = f"n = 4\nm = 2\nmean = 0\n{comp0}{kernel2}"
        with pytest.raises(ParseError, match=r"line 18: '3,4' is not an 2-subset of \[1..3\]"):
            decomposition_from_text(text)

    def test_unreduced_value_repeated_across_sections(self):
        text = SMALL_DECOMPOSITION.replace("COMPONENT0", "2 = 1/2\n1 = 2/4\n")
        dec = decomposition_from_text(text)
        half = Fraction(1, 2)
        assert dec.mean == half
        assert dec.kernels[1].values == dec.components[1].values == (half, -half)
        assert dec.components[0].values == (half, half)
        for v in dec.kernels[1].values + dec.components[0].values:
            assert (abs(v.numerator), v.denominator) == (1, 2)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_component_that_is_not_the_lift_of_its_kernel(self, l):
        text = (DATA / "decompose_n14_m3.dec").read_text()
        start = text.index(f"[component {l}]")
        line = text.count("\n", 0, start) + 1
        # The first record of the section (after its n and l lines), one added to its value.
        head, body = text[:start], text[start:].split("\n")
        key, value = body[3].split(" = ")
        body[3] = f"{key} = {format_rational(parse_rational(value) + 1)}"
        with pytest.raises(ParseError) as exc:
            decomposition_from_text(head + "\n".join(body))
        assert str(exc.value) == (
            f"line {line}: component {l} is not the U-statistic lift of kernel {l}"
        )

    def test_mixed_unreduced_records_read_as_reduced_values(self):
        f = module_vector_from_text("n = 4\nl = 1\n1 = 2/4\n2 = 1/3\n3 = -6/4\n")
        assert f.values == (Fraction(1, 2), Fraction(1, 3), Fraction(-3, 2), 0)
        assert (f.denominator, f.numerators) == (6, (3, 2, -9, 0))

    @needs_digit_limit
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_save_leaves_the_target_as_it_was(self, tmp_path, existing):
        # The last block, component m, holds a value too long to format, so the
        # write fails after every other block has gone to the temporary file.
        dec = decompose(random_module_vector(5, 2, 84))
        huge = ModuleVector(5, 2, [Fraction(10**DIGIT_LIMIT + 1)] * 10)
        dec = HoeffdingDecomposition(5, 2, dec.mean, dec.kernels, {**dec.components, 2: huge})
        path = tmp_path / "out.dec"
        if existing:
            path.write_text("an earlier output\n")
        with pytest.raises(ResourceLimitError):
            save_decomposition(dec, path)
        assert [p.name for p in tmp_path.iterdir()] == (["out.dec"] if existing else [])
        if existing:
            assert path.read_text() == "an earlier output\n"

    def test_save_replaces_the_target(self, tmp_path):
        dec = decompose(random_module_vector(5, 2, 85))
        path = tmp_path / "out.dec"
        path.write_text("an earlier, longer output\n" * 100)
        save_decomposition(dec, path)
        assert path.read_text() == decomposition_to_text(dec)
        assert [p.name for p in tmp_path.iterdir()] == ["out.dec"]

    def test_save_through_a_symbolic_link_keeps_the_link(self, tmp_path):
        dec = decompose(random_module_vector(5, 2, 85))
        target = tmp_path / "target.dec"
        target.write_text("an earlier output\n")
        link = tmp_path / "link.dec"
        link.symlink_to(target)
        save_decomposition(dec, link)
        assert link.is_symlink()
        assert target.read_text() == decomposition_to_text(dec)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.dec", "target.dec"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_save_into_a_pipe_writes_in_place(self, tmp_path):
        # A rename would put a regular file where the pipe was, which its reader never sees.
        f = random_module_vector(5, 2, 86)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
        reader.start()
        save_module_vector(f, pipe)
        reader.join(timeout=30)
        assert got == [module_vector_to_text(f)]
        assert stat.S_ISFIFO(pipe.stat().st_mode)

    def test_stray_preamble_line(self):
        with pytest.raises(ParseError) as exc:
            decomposition_from_text("n = 4\nm = 2\nmean = 0\nextra = 1\n[kernel 1]\nn = 4\nl = 1\n")
        assert "line 4" in str(exc.value)


#: An n=6, m=2 decomposition: its preamble and its five sections, each with its
#: header, in file order: kernels 1 and 2, then components 0, 1 and 2.
ORDER_PREAMBLE, *ORDER_SECTIONS = decomposition_to_text(
    decompose(random_module_vector(6, 2, 5))
).split("[")
ORDER_SECTIONS = ["[" + section for section in ORDER_SECTIONS]


def _bumped(section):
    # The section with a digit appended to its first record's value.
    lines = section.split("\n")
    lines[3] += "1"
    return "\n".join(lines)


def _order_text(*sections):
    return ORDER_PREAMBLE + "".join(sections)


K1, K2, C0, C1, C2 = ORDER_SECTIONS
BAD_RECORD_K2 = K2.replace("l = 2\n", "l = 2\n1,2 = x\n")


class TestErrorOrder:
    """A file with several faults reports the one a parse of the whole text meets
    first: a bad header anywhere, an empty file, the preamble, the sections in
    file order, missing sections, component 0, then the lifts by order.  The
    messages were taken from the reader that held the whole text."""

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                _order_text(K1, BAD_RECORD_K2, C0, C1, C2.replace("[component 2]", "[component two]")),
                "line 68: bad section index in '[component two]'",
            ),
            (
                _order_text(K1, K2, C0, C1.replace("[component 1]", "[component 1"), C2).replace(
                    "m = 2", "m = x"
                ),
                "line 49: unterminated section header '[component 1'",
            ),
            (_order_text(K1, BAD_RECORD_K2, C0, C1, C2).replace("m = 2", "m = x"), "line 2: bad integer 'x' for 'm'"),
            (
                _order_text(C0, _bumped(C1), C2, K1, K2),
                "line 22: component 1 is not the U-statistic lift of kernel 1",
            ),
            (
                _order_text(K1, C0, _bumped(C1), C2),
                "line 1: missing sections (kernels [2], components [])",
            ),
            (
                _order_text(K1, K2, C0, _bumped(C1), C2.replace("l = 2\n", "l = 2\n9,9 = 1\n")),
                "line 70: bad subset text '9,9'",
            ),
            (
                _order_text(K1, K2, _bumped(C0), C1, _bumped(C2)),
                "line 31: component 0 must be the constant mean vector",
            ),
        ],
        ids=[
            "bad-record-then-bad-header",
            "bad-preamble-and-bad-header",
            "bad-preamble-and-bad-record",
            "components-before-kernels",
            "missing-kernel-and-wrong-component",
            "wrong-component-then-bad-record",
            "wrong-component-2-and-component-0",
        ],
    )
    def test_first_error_of_the_whole_text(self, text, message, tmp_path):
        path = tmp_path / "faults.dec"
        path.write_text(text)
        for read in (decomposition_from_text, lambda _: load_decomposition(path)):
            with pytest.raises(ParseError) as exc:
                read(text)
            assert str(exc.value) == message

    def test_sections_in_any_order(self, tmp_path):
        dec = decompose(random_module_vector(6, 2, 5))
        text = _order_text(C2, C0, K2, C1, K1)
        path = tmp_path / "shuffled.dec"
        path.write_text(text)
        assert decomposition_from_text(text) == load_decomposition(path) == dec


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """The decomposition of random_module_vector(16, 8, 1), and a file of it (5.6 MB)."""
    dec = decompose(random_module_vector(16, 8, 1))
    path = tmp_path_factory.mktemp("wide") / "wide.dec"
    save_decomposition(dec, path)
    return dec, path


def _traced(call):
    # call's result, the memory allocated during it that is still held after
    # it, and the peak above that.
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak - held


class TestStreamedMemory:
    """Neither end of a decomposition file holds its whole text, nor a table of
    its values as wide as the file."""

    def test_save_peak_is_below_the_file_size(self, wide):
        dec, path = wide
        _, held, transient = _traced(lambda: save_decomposition(dec, path))
        assert held + transient < path.stat().st_size

    def test_load_transient_peak_is_below_three_file_sizes(self, wide):
        dec, path = wide
        back, _, transient = _traced(lambda: load_decomposition(path))
        assert back == dec
        assert transient < 3 * path.stat().st_size


@needs_digit_limit
class TestDigitLimit:
    def test_format_beyond_limit_is_resource_error(self):
        for q in (Fraction(10**DIGIT_LIMIT), Fraction(1, 10**DIGIT_LIMIT + 1)):
            with pytest.raises(ResourceLimitError) as exc:
                format_rational(q)
            assert f"limit of {DIGIT_LIMIT} digits" in str(exc.value)

    def test_format_at_limit_round_trips(self):
        q = Fraction(-(10**DIGIT_LIMIT - 1), 10 ** (DIGIT_LIMIT - 1) + 1)
        assert parse_rational(format_rational(q)) == q

    def test_parse_beyond_limit_is_parse_error(self):
        with pytest.raises(ParseError) as exc:
            parse_rational("1" * (DIGIT_LIMIT + 700) + "/7", lineno=5)
        assert "line 5" in str(exc.value)
        assert f"limit of {DIGIT_LIMIT}" in str(exc.value)

    def test_long_denominator_in_vector_file(self):
        text = "n = 4\nl = 2\n1,2 = 3/" + "9" * (DIGIT_LIMIT + 1) + "\n"
        with pytest.raises(ParseError) as exc:
            module_vector_from_text(text)
        assert "line 3" in str(exc.value) and f"limit of {DIGIT_LIMIT}" in str(exc.value)
