"""Text file formats: subset-indexed vectors and full decompositions.

Vector format (one record per nonzero subset, zeros omitted):

    n = 6
    l = 2
    1,2 = 1
    5,6 = -7/3

Rationals are written as "p" or "p/q" (decimal digits, optional sign on p);
no other form is accepted.  Blank lines and '#' comments are ignored.  The
empty subset (l = 0) is written as "-".

Decomposition format: a preamble with n, m and the mean, then one
"[kernel l]" block per order l = 1..m and one "[component l]" block per
l = 0..m, each block holding a vector in the format above.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import ModuleVector
from .combinatorics import format_subset, parse_subset
from .errors import ParseError, ResourceLimitError
from .hoeffding import HoeffdingDecomposition

_NumberedLines = list[tuple[int, str]]


def format_rational(q: Fraction) -> str:
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise ResourceLimitError(
            f"a rational of {q.numerator.bit_length()}/{q.denominator.bit_length()} bits exceeds "
            f"the interpreter's limit of {sys.get_int_max_str_digits()} digits for "
            "int-to-string conversion"
        ) from None


#: The only accepted rational forms: "p" or "p/q", decimal digits, optional sign on p.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str, lineno: int | None = None) -> Fraction:
    """Parse "p" or "p/q" (optional sign, decimal digits only) into a `Fraction`.

    Anything else, including decimal points and exponent forms such as
    "1e999999999", raises `ParseError` before any number is built.
    """
    text = text.strip()
    where = f"line {lineno}: " if lineno is not None else ""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ParseError(f"{where}bad rational {text!r}; expected p or p/q")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ZeroDivisionError:
        raise ParseError(f"{where}bad rational {text!r}; zero denominator") from None
    except ValueError:  # int() refuses digit runs past the interpreter's limit
        raise ParseError(
            f"{where}rational {text[:20]}... has more digits than the interpreter's "
            f"limit of {sys.get_int_max_str_digits()} for string-to-int conversion"
        ) from None


def module_vector_to_text(f: ModuleVector) -> str:
    lines = [f"n = {f.n}", f"l = {f.l}"]
    for s, v in f.items():
        if v != 0:
            lines.append(f"{format_subset(s)} = {format_rational(v)}")
    return "\n".join(lines) + "\n"


def _content_lines(text: str) -> _NumberedLines:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _split_assignment(lineno: int, line: str) -> tuple[str, str]:
    if "=" not in line:
        raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


def _parse_header_int(lines: _NumberedLines, pos: int, name: str) -> int:
    if pos >= len(lines):
        raise ParseError(f"line {lines[-1][0] if lines else 0}: missing '{name} = ...' header")
    lineno, line = lines[pos]
    key, value = _split_assignment(lineno, line)
    if key != name:
        raise ParseError(f"line {lineno}: expected '{name} = ...', got {line!r}")
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"line {lineno}: bad integer {value!r} for '{name}'") from None


def _parse_module_vector_lines(lines: _NumberedLines) -> ModuleVector:
    n = _parse_header_int(lines, 0, "n")
    l = _parse_header_int(lines, 1, "l")
    if n < 1 or l < 0 or l > n:
        lineno = lines[0][0]
        raise ParseError(f"line {lineno}: invalid shape n={n}, l={l}")
    mapping: dict[tuple[int, ...], Fraction] = {}
    for lineno, line in lines[2:]:
        key, value = _split_assignment(lineno, line)
        try:
            subset = parse_subset(key)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if len(subset) != l or (subset and subset[-1] > n):
            raise ParseError(f"line {lineno}: {key!r} is not an {l}-subset of [1..{n}]")
        if subset in mapping:
            raise ParseError(f"line {lineno}: duplicate record for subset {key!r}")
        mapping[subset] = parse_rational(value, lineno)
    return ModuleVector.from_mapping(n, l, mapping)


def module_vector_from_text(text: str) -> ModuleVector:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("line 1: empty vector file")
    return _parse_module_vector_lines(lines)


def save_module_vector(f: ModuleVector, path: str | Path) -> None:
    Path(path).write_text(module_vector_to_text(f))


def load_module_vector(path: str | Path) -> ModuleVector:
    return module_vector_from_text(Path(path).read_text())


def decomposition_to_text(dec: HoeffdingDecomposition) -> str:
    parts = [f"n = {dec.n}", f"m = {dec.m}", f"mean = {format_rational(dec.mean)}"]
    for l in range(1, dec.m + 1):
        parts.append(f"[kernel {l}]")
        parts.append(module_vector_to_text(dec.kernels[l]).rstrip("\n"))
    for l in range(dec.m + 1):
        parts.append(f"[component {l}]")
        parts.append(module_vector_to_text(dec.components[l]).rstrip("\n"))
    return "\n".join(parts) + "\n"


def decomposition_from_text(text: str) -> HoeffdingDecomposition:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("line 1: empty decomposition file")
    preamble: _NumberedLines = []
    sections: list[tuple[str, int, int, _NumberedLines]] = []  # kind, index, lineno, body
    current: _NumberedLines = preamble
    for lineno, line in lines:
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {lineno}: unterminated section header {line!r}")
            fields = line[1:-1].split()
            if len(fields) != 2 or fields[0] not in ("kernel", "component"):
                raise ParseError(f"line {lineno}: bad section header {line!r}")
            try:
                index = int(fields[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad section index in {line!r}") from None
            body: _NumberedLines = []
            sections.append((fields[0], index, lineno, body))
            current = body
        else:
            current.append((lineno, line))

    n = _parse_header_int(preamble, 0, "n")
    m = _parse_header_int(preamble, 1, "m")
    if len(preamble) < 3:
        raise ParseError("line 1: missing 'mean = ...' in preamble")
    mean_lineno, mean_line = preamble[2]
    key, value = _split_assignment(mean_lineno, mean_line)
    if key != "mean":
        raise ParseError(f"line {mean_lineno}: expected 'mean = ...', got {mean_line!r}")
    mean = parse_rational(value, mean_lineno)
    if len(preamble) > 3:
        lineno, line = preamble[3]
        raise ParseError(f"line {lineno}: unexpected content before first section: {line!r}")
    if m < 1 or 2 * m > n:
        raise ParseError(f"line {preamble[0][0]}: invalid shape n={n}, m={m}")

    kernels: dict[int, ModuleVector] = {}
    components: dict[int, ModuleVector] = {}
    for kind, index, lineno, body in sections:
        vec = _parse_module_vector_lines(body)
        if vec.n != n:
            raise ParseError(f"line {lineno}: section declares n={vec.n}, preamble has n={n}")
        if kind == "kernel":
            if not (1 <= index <= m) or vec.l != index:
                raise ParseError(f"line {lineno}: kernel {index} must have l={index} in [1..{m}]")
            if index in kernels:
                raise ParseError(f"line {lineno}: duplicate kernel {index}")
            kernels[index] = vec
        else:
            if not (0 <= index <= m) or vec.l != m:
                raise ParseError(f"line {lineno}: component {index} must have l={m}, index in [0..{m}]")
            if index in components:
                raise ParseError(f"line {lineno}: duplicate component {index}")
            components[index] = vec

    missing_k = [l for l in range(1, m + 1) if l not in kernels]
    missing_c = [l for l in range(m + 1) if l not in components]
    if missing_k or missing_c:
        raise ParseError(
            f"line 1: missing sections (kernels {missing_k}, components {missing_c})"
        )
    if components[0] != ModuleVector.constant(n, m, mean):
        raise ParseError("line 1: component 0 must be the constant mean vector")
    return HoeffdingDecomposition(n, m, mean, kernels, components)


def save_decomposition(dec: HoeffdingDecomposition, path: str | Path) -> None:
    Path(path).write_text(decomposition_to_text(dec))


def load_decomposition(path: str | Path) -> HoeffdingDecomposition:
    return decomposition_from_text(Path(path).read_text())
