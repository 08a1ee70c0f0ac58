import sys
from fractions import Fraction

import pytest

from spechtstat import (
    ModuleVector,
    ParseError,
    ResourceLimitError,
    decompose,
    decomposition_from_text,
    decomposition_to_text,
    indicator,
    load_module_vector,
    module_vector_from_text,
    module_vector_to_text,
    random_module_vector,
    save_module_vector,
)
from spechtstat.fileformats import format_rational, parse_rational

DIGIT_LIMIT = sys.get_int_max_str_digits()
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
            ("n = four\nl = 2\n", "bad integer"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            module_vector_from_text(text)
        assert fragment in str(exc.value)


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

    def test_stray_preamble_line(self):
        with pytest.raises(ParseError) as exc:
            decomposition_from_text("n = 4\nm = 2\nmean = 0\nextra = 1\n[kernel 1]\nn = 4\nl = 1\n")
        assert "line 4" in str(exc.value)


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
