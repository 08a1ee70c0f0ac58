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

Both formats are streamed.  The writers format one block at a time onto an
open file: a decomposition whose components are lifted on demand
(`hoeffding._kernels_first`, which the CLI writes) is lifted, written and
dropped one component at a time.  The decomposition writer formats the mean
once for all of component 0 and keeps the text of kernel m for component m,
the two blocks that repeat values.  `save_module_vector` and
`save_decomposition` write to a temporary file beside the target and move it
into place with `os.replace` after the last block, so a write that fails
leaves no partial file and an existing target keeps its bytes (a device or
pipe, which a rename would replace, is written in place).
`module_vector_to_text` and `decomposition_to_text` run the same writers into
a `StringIO`.

The readers take one line at a time, from the open file or from a text's
lines, and parse each record as it arrives into its position and integer pair
p/q; a section becomes one integer list over one lcm of its denominators at
the next header (the writer reduces each entry by one gcd as it formats it).
A value text is parsed once per section.  Across sections only the repeats
known in advance are kept: the mean's pair for component 0 and kernel m's
values for component m.  Once a section's records cover an eighth of its
subsets, canonical keys ("1,4,7") map through a table (text -> position),
built once per call for layer m, which the components share, and once per
section for the other kernels; every other spelling that `parse_subset` accepts
(such as "7,1,4" or "01,4,7") goes through the same checks with the same
messages, then `subset_position`.  Nothing is cached between calls.

A decomposition file is accepted only if every component is the U-statistic
lift of its kernel and component 0 is the constant mean.  Each component is
checked as soon as it and its kernel have been read, and a file with several
faults reports the one a parse of the whole text would: the first bad section
header, then an empty file, the preamble, the sections in file order, missing
sections, component 0 and the lifts.
"""

from __future__ import annotations

import io
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, count
from math import comb, gcd, lcm
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

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


def _vector_lines(
    f: ModuleVector, key_text: Callable[[int], str], value_text: Callable[[int], str] | None = None
) -> Iterator[str]:
    # The vector's lines, without newlines.  key_text gives the subset text at
    # a canonical position and value_text the text of a numerator (by default
    # the entry reduced by one gcd); both are called only for nonzero entries.
    den = f.denominator
    if value_text is None:

        def value_text(x: int) -> str:
            g = gcd(x, den)
            return _pair_text(x // g, den // g)

    yield f"n = {f.n}"
    yield f"l = {f.l}"
    for i, x in enumerate(f.numerators):
        if x:
            yield f"{key_text(i)} = {value_text(x)}"


def _vector_block(
    f: ModuleVector, key_text: Callable[[int], str], value_text: Callable[[int], str] | None = None
) -> str:
    # The vector's lines joined, without the final newline.
    return "\n".join(_vector_lines(f, key_text, value_text))


def _key_texts(n: int, l: int) -> Callable[[int], str]:
    # The text of the l-subset at each canonical position, from one table.
    return list(map(format_subset, enumerate_subsets(n, l))).__getitem__


def _write_vector(write: Callable[[str], object], f: ModuleVector) -> None:
    subsets = enumerate_subsets(f.n, f.l)
    for line in _vector_lines(f, lambda i: format_subset(subsets[i])):
        write(f"{line}\n")


def module_vector_to_text(f: ModuleVector) -> str:
    out = io.StringIO()
    _write_vector(out.write, f)
    return out.getvalue()


@contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    """An open text file beside path, moved onto path when the block ends.

    On any exception the file is deleted instead and path is left as it was,
    so a failed write leaves no partial file.  A symbolic link is kept and its
    target replaced.  A path that exists but is no regular file, such as
    /dev/null or a pipe, is written in place, since a rename would replace it.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "w") as fh:
            yield fh
        return
    path = Path(os.path.realpath(path))
    tmp = path.parent / f".{path.name}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _file_lines(fh: TextIO) -> Iterator[str]:
    # The open file's lines as str.splitlines() splits its whole text, which
    # also breaks lines at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029.
    return chain.from_iterable(map(str.splitlines, fh))


def _content_lines(raw_lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    # Each line that holds content, numbered from 1, without its comment and
    # surrounding blanks.
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _split_assignment(lineno: int, line: str) -> tuple[str, str]:
    if "=" not in line:
        raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


def _header_int(lineno: int, line: str, name: str) -> int:
    key, value = _split_assignment(lineno, line)
    if key != name:
        raise ParseError(f"line {lineno}: expected '{name} = ...', got {line!r}")
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"line {lineno}: bad integer {value!r} for '{name}'") from None


class _VectorParser:
    """One vector read from numbered content lines: "n = ...", "l = ...", then records.

    `read` parses each record as it arrives into its position and (p, q), and
    `finish` puts the entries over one lcm of their denominators, in one
    integer list.  values (value text -> (p, q)) and keys ((n, l) -> canonical
    subset text -> position) are the caller's, so that the sections of one
    file can share them.  A shape's key table is built once the records read
    cover an eighth of its subsets (and n/8), so a sparse vector of a huge
    shape builds none; a key the table does not hold, and every key read
    before the table is built, goes through `parse_subset` to the same
    position, with the same checks and messages.
    """

    def __init__(self, values: dict[str, tuple[int, int]], keys: dict[tuple[int, int], dict[str, int]]):
        self.values, self.keys = values, keys
        self.last = 0  # line number of the last header line read
        self.n: int | None = None
        self.l: int | None = None
        self.entries: dict[int, tuple[int, int]] = {}  # position -> (p, q)

    def read(self, lines: Iterator[tuple[int, str]], sections: bool) -> tuple[int, str] | None:
        """Read lines up to the end, or with sections up to the next "[" line, which is returned."""
        for lineno, line in lines:
            if sections and line.startswith("["):
                return lineno, line
            if self.n is None:
                self.n, self.last = _header_int(lineno, line, "n"), lineno
                continue
            n, l = self.n, _header_int(lineno, line, "l")
            if n < 1 or l < 0 or l > n:
                raise ParseError(f"line {self.last}: invalid shape n={n}, l={l}")
            self.l, self.last = l, lineno
            return self._records(lines, sections)
        return None

    def _records(self, lines: Iterator[tuple[int, str]], sections: bool) -> tuple[int, str] | None:
        n, l, values, entries = self.n, self.l, self.values, self.entries
        canonical = self.keys.get((n, l), {})
        size = None  # C(n, l), once n/8 records are in
        for lineno, line in lines:
            if sections and line.startswith("["):
                return lineno, line
            key, value = _split_assignment(lineno, line)
            if not canonical and n <= 8 * (len(entries) + 1):
                # n is tested first to keep comb() cheap: C(n, l) >= n for 0 < l < n.
                size = comb(n, l) if size is None else size
                if size <= 8 * (len(entries) + 1):
                    canonical = self.keys[n, l] = dict(
                        zip(map(format_subset, enumerate_subsets(n, l)), count())
                    )
            position = canonical.get(key)
            if position is None:
                try:
                    subset = parse_subset(key)
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from None
                if len(subset) != l or (subset and subset[-1] > n):
                    raise ParseError(f"line {lineno}: {key!r} is not an {l}-subset of [1..{n}]")
                position = subset_position(n, subset)
            if position in entries:
                raise ParseError(f"line {lineno}: duplicate record for subset {key!r}")
            pair = values.get(value)
            if pair is None:
                pair = values[value] = _parse_pair(value, lineno)
            entries[position] = pair
        return None

    def finish(self) -> ModuleVector:
        if self.l is None:
            name = "n" if self.n is None else "l"
            raise ParseError(f"line {self.last}: missing '{name} = ...' header")
        entries = self.entries
        # One lcm over the distinct denominators puts every entry over den.
        den = lcm(*{q for _, q in entries.values()})
        scale = {q: den // q for _, q in entries.values()}
        nums = [0] * _layer_size(self.n, self.l)
        for position, (p, q) in entries.items():
            nums[position] = p * scale[q]
        # The pairs and the memo go before the vector copies nums.
        del entries, scale
        self.entries = self.values = None
        return ModuleVector.from_numerators(self.n, self.l, nums, den)


def _drain(lines: Iterator[tuple[int, str]]) -> None:
    # Read the rest of the lines, as a parse of the whole text reads them all
    # before it reports anything (an undecodable byte further on comes first).
    for _ in lines:
        pass


def _read_module_vector(raw_lines: Iterable[str]) -> ModuleVector:
    lines = _content_lines(raw_lines)
    parser = _VectorParser({}, {})
    try:
        parser.read(lines, sections=False)
    except ParseError:
        _drain(lines)
        raise
    if not parser.last:
        raise ParseError("line 1: empty vector file")
    return parser.finish()


def module_vector_from_text(text: str) -> ModuleVector:
    return _read_module_vector(text.splitlines())


def save_module_vector(f: ModuleVector, path: str | Path) -> None:
    with _replacing(path) as fh:
        _write_vector(fh.write, f)


def load_module_vector(path: str | Path) -> ModuleVector:
    with open(path) as fh:
        return _read_module_vector(_file_lines(fh))


def _write_decomposition(write: Callable[[str], object], dec: HoeffdingDecomposition) -> None:
    # The blocks in file order, each written as soon as it is formatted.  Each
    # component is looked up once, so a decomposition that lifts its components
    # on demand (`hoeffding._kernels_first`) holds one at a time.  Component 0
    # repeats the mean C(n, m) times, and component m is kernel m (its lift to
    # order m is the identity): neither is formatted again, so kernel m's text
    # is kept until component m is written.
    n, m = dec.n, dec.m
    mean_text = format_rational(dec.mean)
    keys_m = _key_texts(n, m)
    write(f"n = {n}\nm = {m}\nmean = {mean_text}\n")
    for l in range(1, m + 1):
        block = _vector_block(dec.kernels[l], keys_m if l == m else _key_texts(n, l))
        write(f"[kernel {l}]\n")
        write(block)
        write("\n")
    kernel_m = block
    for l in range(m + 1):
        comp = dec.components[l]
        if l == 0 and comp == ModuleVector.constant(n, m, dec.mean):
            block = _vector_block(comp, keys_m, lambda x: mean_text)
        elif l == m and comp == dec.kernels[m]:
            block = kernel_m
        else:
            block = _vector_block(comp, keys_m)
        del comp
        write(f"[component {l}]\n")
        write(block)
        write("\n")
        del block


def decomposition_to_text(dec: HoeffdingDecomposition) -> str:
    out = io.StringIO()
    _write_decomposition(out.write, dec)
    return out.getvalue()


def _section_header(lineno: int, line: str) -> tuple[str, int, int]:
    # The kind, index and line number of a "[kernel l]" or "[component l]" line.
    if not line.endswith("]"):
        raise ParseError(f"line {lineno}: unterminated section header {line!r}")
    fields = line[1:-1].split()
    if len(fields) != 2 or fields[0] not in ("kernel", "component"):
        raise ParseError(f"line {lineno}: bad section header {line!r}")
    try:
        return fields[0], int(fields[1]), lineno
    except ValueError:
        raise ParseError(f"line {lineno}: bad section index in {line!r}") from None


class _DecompositionReader:
    """A decomposition file read section by section from numbered content lines.

    The preamble is parsed at the first header.  Each section's records are
    parsed as they arrive, and the section is finished once the next header
    has been read, or at the end.  Each component is checked against the
    constant mean or its kernel's lift as soon as both are in.  Errors come
    out in the order of a parse of the whole text: the first bad header
    anywhere, an empty file, the preamble, the sections in file order, missing
    sections, component 0, then the lifts by order.  So a failed check is
    noted until the end, and `_read_decomposition` reads on past any other
    error for a bad header.
    """

    def __init__(self) -> None:
        self.bad_header: ParseError | None = None
        self.kernels: dict[int, ModuleVector] = {}
        self.components: dict[int, ModuleVector] = {}
        self.component_lines: dict[int, int] = {}
        self.keys: dict[tuple[int, int], dict[str, int]] = {}
        self.kernel_m_values: dict[str, tuple[int, int]] = {}  # kept for component m
        self.failed: set[int] = set()  # orders whose component failed its check

    def read(self, lines: Iterator[tuple[int, str]]) -> HoeffdingDecomposition:
        preamble: list[tuple[int, str]] = []  # its first four lines
        header = None
        for lineno, line in lines:
            if line.startswith("["):
                header = self._header(lineno, line)
                break
            if len(preamble) < 4:
                preamble.append((lineno, line))
        else:
            if not preamble:
                raise ParseError("line 1: empty decomposition file")
        self._preamble(preamble)
        while header is not None:
            kind, index, lineno = header
            # Only the key table of layer m is read again (by the components).
            keys = self.keys if kind == "component" or index == self.m else {}
            parser = _VectorParser(self._values(kind, index), keys)
            following = parser.read(lines, sections=True)
            if following is not None:
                following = self._header(*following)
            self._section(kind, index, lineno, parser)
            header = following
        return self._result()

    def _header(self, lineno: int, line: str) -> tuple[str, int, int]:
        try:
            return _section_header(lineno, line)
        except ParseError as exc:
            self.bad_header = exc
            raise

    def _preamble(self, preamble: list[tuple[int, str]]) -> None:
        if not preamble:
            raise ParseError("line 0: missing 'n = ...' header")
        n = _header_int(*preamble[0], "n")
        if len(preamble) < 2:
            raise ParseError(f"line {preamble[0][0]}: missing 'm = ...' header")
        m = _header_int(*preamble[1], "m")
        if len(preamble) < 3:
            raise ParseError("line 1: missing 'mean = ...' in preamble")
        mean_lineno, mean_line = preamble[2]
        key, value = _split_assignment(mean_lineno, mean_line)
        if key != "mean":
            raise ParseError(f"line {mean_lineno}: expected 'mean = ...', got {mean_line!r}")
        pair = _parse_pair(value, mean_lineno)
        if len(preamble) > 3:
            lineno, line = preamble[3]
            raise ParseError(f"line {lineno}: unexpected content before first section: {line!r}")
        if m < 1 or 2 * m > n:
            raise ParseError(f"line {preamble[0][0]}: invalid shape n={n}, m={m}")
        self.n, self.m, self.mean = n, m, Fraction(*pair)
        self.mean_value = value, pair

    def _values(self, kind: str, index: int) -> dict[str, tuple[int, int]]:
        # A section's value memo.  A value text is parsed once per section; the
        # repeats known in advance are shared across sections: the mean with
        # component 0, and kernel m's values with component m.
        if kind == "component" and index == 0:
            return dict([self.mean_value])
        if kind == "component" and index == self.m:
            values, self.kernel_m_values = self.kernel_m_values, {}
            return values
        return {}

    def _section(self, kind: str, index: int, lineno: int, parser: _VectorParser) -> None:
        n, m = self.n, self.m
        values = parser.values  # kept only if this is kernel m, for component m
        vec = parser.finish()
        if vec.n != n:
            raise ParseError(f"line {lineno}: section declares n={vec.n}, preamble has n={n}")
        if kind == "kernel":
            if not (1 <= index <= m) or vec.l != index:
                raise ParseError(f"line {lineno}: kernel {index} must have l={index} in [1..{m}]")
            if index in self.kernels:
                raise ParseError(f"line {lineno}: duplicate kernel {index}")
            self.kernels[index] = vec
            if index == m and m not in self.components:
                self.kernel_m_values = values
        else:
            if not (0 <= index <= m) or vec.l != m:
                raise ParseError(f"line {lineno}: component {index} must have l={m}, index in [0..{m}]")
            if index in self.components:
                raise ParseError(f"line {lineno}: duplicate component {index}")
            self.components[index] = vec
            self.component_lines[index] = lineno
        del values, vec
        self._check(index)

    def _check(self, l: int) -> None:
        # Component l against the constant mean (l = 0) or its kernel's lift,
        # once both are in.  A component that passes is replaced by the vector
        # it equals, which shares its entries: the one mean, or kernel m itself.
        comp = self.components.get(l)
        if comp is None:
            return
        if l == 0:
            want = ModuleVector.constant(self.n, self.m, self.mean)
        elif l in self.kernels:
            want = u_statistic_lift(self.kernels[l], self.m)
        else:
            return
        if comp == want:
            self.components[l] = want
        else:
            self.failed.add(l)

    def _result(self) -> HoeffdingDecomposition:
        n, m = self.n, self.m
        missing_k = [l for l in range(1, m + 1) if l not in self.kernels]
        missing_c = [l for l in range(m + 1) if l not in self.components]
        if missing_k or missing_c:
            raise ParseError(
                f"line 1: missing sections (kernels {missing_k}, components {missing_c})"
            )
        if self.failed:
            l = min(self.failed)
            if l == 0:
                raise ParseError(
                    f"line {self.component_lines[0]}: component 0 must be the constant mean vector"
                )
            raise ParseError(
                f"line {self.component_lines[l]}: component {l} is not the U-statistic lift "
                f"of kernel {l}"
            )
        return HoeffdingDecomposition(n, m, self.mean, self.kernels, self.components)


def _read_decomposition(raw_lines: Iterable[str]) -> HoeffdingDecomposition:
    lines = _content_lines(raw_lines)
    reader = _DecompositionReader()
    try:
        return reader.read(lines)
    except (ParseError, ResourceLimitError, MemoryError) as exc:
        error = exc
    if error is not reader.bad_header:
        # A bad header further on is what a parse of the whole text reports first.
        for lineno, line in lines:
            if line.startswith("["):
                try:
                    _section_header(lineno, line)
                except ParseError as exc:
                    error = exc
                    break
    _drain(lines)
    raise error


def decomposition_from_text(text: str) -> HoeffdingDecomposition:
    return _read_decomposition(text.splitlines())


def save_decomposition(dec: HoeffdingDecomposition, path: str | Path) -> None:
    with _replacing(path) as fh:
        _write_decomposition(fh.write, dec)


def load_decomposition(path: str | Path) -> HoeffdingDecomposition:
    with open(path) as fh:
        return _read_decomposition(_file_lines(fh))
