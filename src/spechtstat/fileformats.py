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

Each section is read as integer pairs p/q and built with one lcm of its
denominators; the writer reduces each entry by one gcd as it formats it.
Values that repeat within one file are handled once per call.  The readers
parse each distinct value text once, and a section that lists at least half
of its subsets maps canonical keys ("1,4,7") through a table built once per
shape (text -> position); every other spelling that `parse_subset` accepts
(such as "7,1,4" or "01,4,7") goes through the same checks with the same
messages, then `subset_position`.  Records are keyed by position.
The decomposition writer formats the mean once for all of component 0 and
reuses the text of kernel m for component m, the two blocks that repeat
values.  Nothing is cached between calls.

A decomposition file is accepted only if every component is the U-statistic
lift of its kernel and component 0 is the constant mean.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import count
from math import comb, gcd, lcm
from pathlib import Path
from typing import Callable

from .algebra import ModuleVector
from .combinatorics import (
    _layer_size,
    enumerate_subsets,
    format_subset,
    parse_subset,
    subset_position,
)
from .errors import ParseError, ResourceLimitError
from .hoeffding import HoeffdingDecomposition, u_statistic_lift

_NumberedLines = list[tuple[int, str]]


def _pair_text(p: int, q: int) -> str:
    # "p" or "p/q" for a reduced pair with q > 0.
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:
        raise ResourceLimitError(
            f"a rational of {p.bit_length()}/{q.bit_length()} bits exceeds "
            f"the interpreter's limit of {sys.get_int_max_str_digits()} digits for "
            "int-to-string conversion"
        ) from None


def format_rational(q: Fraction) -> str:
    return _pair_text(q.numerator, q.denominator)


#: The only accepted rational forms: "p" or "p/q", decimal digits, optional sign on p.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str, lineno: int | None = None) -> Fraction:
    """Parse "p" or "p/q" (optional sign, decimal digits only) into a `Fraction`.

    Anything else, including decimal points and exponent forms such as
    "1e999999999", raises `ParseError` before any number is built.
    """
    return Fraction(*_parse_pair(text, lineno))


def _parse_pair(text: str, lineno: int | None) -> tuple[int, int]:
    # The integers (p, q) of "p" or "p/q", q > 0 and not reduced.
    text = text.strip()
    where = f"line {lineno}: " if lineno is not None else ""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ParseError(f"{where}bad rational {text!r}; expected p or p/q")
    num, den = match.groups()
    try:
        pair = int(num), int(den) if den else 1
    except ValueError:  # int() refuses digit runs past the interpreter's limit
        raise ParseError(
            f"{where}rational {text[:20]}... has more digits than the interpreter's "
            f"limit of {sys.get_int_max_str_digits()} for string-to-int conversion"
        ) from None
    if pair[1] == 0:
        raise ParseError(f"{where}bad rational {text!r}; zero denominator")
    return pair


def _vector_block(
    f: ModuleVector, key_text: Callable[[int], str], value_text: Callable[[int], str] | None = None
) -> str:
    # The vector's lines without the final newline.  key_text gives the subset
    # text at a canonical position and value_text the text of a numerator
    # (by default the entry reduced by one gcd); both are called only for
    # nonzero entries.
    den = f.denominator
    if value_text is None:

        def value_text(x: int) -> str:
            g = gcd(x, den)
            return _pair_text(x // g, den // g)

    lines = [f"n = {f.n}", f"l = {f.l}"]
    for i, x in enumerate(f.numerators):
        if x:
            lines.append(f"{key_text(i)} = {value_text(x)}")
    return "\n".join(lines)


def module_vector_to_text(f: ModuleVector) -> str:
    subsets = enumerate_subsets(f.n, f.l)
    return _vector_block(f, lambda i: format_subset(subsets[i])) + "\n"


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


def _parse_module_vector_lines(
    lines: _NumberedLines,
    rationals: dict[str, tuple[int, int]],
    keys: dict[tuple[int, int], dict[str, int]],
) -> ModuleVector:
    # rationals (value text -> (p, q)) and keys ((n, l) -> canonical subset
    # text -> position) live for one parse call and are shared by its sections.
    n = _parse_header_int(lines, 0, "n")
    l = _parse_header_int(lines, 1, "l")
    if n < 1 or l < 0 or l > n:
        lineno = lines[0][0]
        raise ParseError(f"line {lineno}: invalid shape n={n}, l={l}")
    records = lines[2:]
    canonical = keys.get((n, l), {})
    if not canonical and n <= 2 * len(records) and comb(n, l) <= 2 * len(records):
        # Built only for a section that lists at least half of its subsets, so a
        # sparse file of a huge shape allocates nothing before its records parse
        # (n is tested first to keep comb() cheap: C(n, l) >= n for 0 < l < n).
        canonical = keys[n, l] = dict(zip(map(format_subset, enumerate_subsets(n, l)), count()))
    mapping: dict[int, tuple[int, int]] = {}  # position -> (p, q)
    for lineno, line in records:
        key, value = _split_assignment(lineno, line)
        position = canonical.get(key)
        if position is None:
            try:
                subset = parse_subset(key)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            if len(subset) != l or (subset and subset[-1] > n):
                raise ParseError(f"line {lineno}: {key!r} is not an {l}-subset of [1..{n}]")
            position = subset_position(n, subset)
        if position in mapping:
            raise ParseError(f"line {lineno}: duplicate record for subset {key!r}")
        pair = rationals.get(value)
        if pair is None:
            pair = rationals[value] = _parse_pair(value, lineno)
        mapping[position] = pair
    # One lcm over the distinct denominators puts every entry over den.
    den = lcm(*{q for _, q in mapping.values()})
    scale = {q: den // q for _, q in mapping.values()}
    nums = [0] * _layer_size(n, l)
    for position, (p, q) in mapping.items():
        nums[position] = p * scale[q]
    return ModuleVector.from_numerators(n, l, nums, den)


def module_vector_from_text(text: str) -> ModuleVector:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("line 1: empty vector file")
    return _parse_module_vector_lines(lines, {}, {})


def save_module_vector(f: ModuleVector, path: str | Path) -> None:
    Path(path).write_text(module_vector_to_text(f))


def load_module_vector(path: str | Path) -> ModuleVector:
    return module_vector_from_text(Path(path).read_text())


def decomposition_to_text(dec: HoeffdingDecomposition) -> str:
    n, m = dec.n, dec.m
    mean_text = format_rational(dec.mean)
    orders = range(1, m + 1)
    key_text = {l: list(map(format_subset, enumerate_subsets(n, l))).__getitem__ for l in orders}
    kernels = {l: _vector_block(dec.kernels[l], key_text[l]) for l in orders}
    parts = [f"n = {n}", f"m = {m}", f"mean = {mean_text}"]
    for l in orders:
        parts += [f"[kernel {l}]", kernels[l]]
    for l in range(m + 1):
        # Component 0 repeats the mean C(n, m) times, and component m is kernel m
        # (its lift to order m is the identity): neither is formatted again.
        comp = dec.components[l]
        if l == 0 and comp == ModuleVector.constant(n, m, dec.mean):
            block = _vector_block(comp, key_text[m], lambda x: mean_text)
        elif l == m and comp == dec.kernels[m]:
            block = kernels[m]
        else:
            block = _vector_block(comp, key_text[m])
        parts += [f"[component {l}]", block]
    parts.append("")  # the final newline, without a second copy of the text
    return "\n".join(parts)


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
    # Each section's lines are dropped once it is parsed, so that the value
    # texts kept for the whole call do not raise the peak memory of a load.
    del lines

    n = _parse_header_int(preamble, 0, "n")
    m = _parse_header_int(preamble, 1, "m")
    if len(preamble) < 3:
        raise ParseError("line 1: missing 'mean = ...' in preamble")
    mean_lineno, mean_line = preamble[2]
    key, value = _split_assignment(mean_lineno, mean_line)
    if key != "mean":
        raise ParseError(f"line {mean_lineno}: expected 'mean = ...', got {mean_line!r}")
    pair = _parse_pair(value, mean_lineno)
    mean = Fraction(*pair)
    rationals = {value: pair}
    if len(preamble) > 3:
        lineno, line = preamble[3]
        raise ParseError(f"line {lineno}: unexpected content before first section: {line!r}")
    if m < 1 or 2 * m > n:
        raise ParseError(f"line {preamble[0][0]}: invalid shape n={n}, m={m}")

    kernels: dict[int, ModuleVector] = {}
    components: dict[int, ModuleVector] = {}
    component_lines: dict[int, int] = {}
    keys: dict[tuple[int, int], dict[str, int]] = {}
    for kind, index, lineno, body in sections:
        vec = _parse_module_vector_lines(body, rationals, keys)
        body.clear()
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
            component_lines[index] = lineno

    missing_k = [l for l in range(1, m + 1) if l not in kernels]
    missing_c = [l for l in range(m + 1) if l not in components]
    if missing_k or missing_c:
        raise ParseError(
            f"line 1: missing sections (kernels {missing_k}, components {missing_c})"
        )
    if components[0] != ModuleVector.constant(n, m, mean):
        raise ParseError(
            f"line {component_lines[0]}: component 0 must be the constant mean vector"
        )
    for l in range(1, m + 1):
        if components[l] != u_statistic_lift(kernels[l], m):
            raise ParseError(
                f"line {component_lines[l]}: component {l} is not the U-statistic lift "
                f"of kernel {l}"
            )
    return HoeffdingDecomposition(n, m, mean, kernels, components)


def save_decomposition(dec: HoeffdingDecomposition, path: str | Path) -> None:
    Path(path).write_text(decomposition_to_text(dec))


def load_decomposition(path: str | Path) -> HoeffdingDecomposition:
    return decomposition_from_text(Path(path).read_text())
