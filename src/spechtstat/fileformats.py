"""Text file formats: subset-indexed vectors and full decompositions.

Vector format (one record per nonzero subset, zeros omitted):

    n = 6
    l = 2
    1,2 = 1
    5,6 = -7/3

Rationals are written as "p" or "p/q", and n, l and the points of a key as
"p", in ASCII decimal digits with an optional sign on p; no other form is
accepted.  Blank lines and '#' comments are ignored.  The
empty subset (l = 0) is written as "-".

Decomposition format: a preamble with n, m and the mean, then one
"[kernel l]" block per order l = 1..m and one "[component l]" block per
l = 0..m, each block holding a vector in the format above.

Both formats are streamed.  One writer loop formats a vector onto an open
file with one write per line, for both file kinds.  It zips the nonzero
numerators with their keys, picked by `itertools.compress` from a stream of
subsets, so only the keys of nonzero entries are formatted; the one key table
is layer m's, read by kernel m and every component.  The components of
`hoeffding.decompose`, unpacked on lookup, are built, written and dropped one
at a time.  Each entry is reduced by one gcd, and its text is reused while
the numerator repeats, so the constant component 0 costs one gcd; kernel m's
lines are kept and written again for component m when it is kernel m itself,
as both views return it.
`save_module_vector` and `save_decomposition` write to a temporary file
beside the target and move it into place with `os.replace` after the last
line, so a write that fails leaves no partial file and an existing target
keeps its bytes (a device or pipe, which a rename would replace, is written
in place).  `module_vector_to_text` and `decomposition_to_text` run the same
writers into a `StringIO`.

Each file kind has one reader function: `_read_vector` reads a vector file or
one section, and `_read_decomposition` a decomposition file.  They take the
lines of a text, split by `str.splitlines`, or of a file opened as UTF-8 text
with universal newlines and split by `str.splitlines` as well, so that a file
and its text read alike; a byte that is not UTF-8 is a
`ParseError` naming its line.  Each record is parsed as it arrives into its
position and integer pair p/q, and a section becomes one integer list over one
lcm of its denominators at the next header.  No table of value texts is kept:
a record whose value text equals the previous record's takes that record's
pair, as the writer reuses a text while the numerator repeats, so the
constant component 0 costs one parse; any other record's value is parsed.
Once a section's records cover an eighth of its subsets, canonical keys
("1,4,7") map through a table (text -> position), built once per call for
layer m, which the components share, and once per section for the other
kernels; the other spellings that `parse_subset` accepts ("7,1,4", "01,4,7")
take the same checks and messages, then `subset_position`.  Nothing is cached
between calls.

A decomposition file is accepted only if every kernel is completely
degenerate and every component equals the component that the loaded
decomposition's own view, `hoeffding._LiftedComponents` over the kernels read,
returns for it; the rule for a valid component lives there alone.  Each is
checked as soon as it (and the kernel it needs) has been read.  Both readers
raise the first fault that the lines read so far show and read no further: a
bad line fails at that line, and a kernel or component that fails its check
names its header line.  Only missing sections wait for the end of the file.
A component that passes its check is dropped, so a loaded decomposition holds
its kernels only, and its `components` are that view, which lifts kernel l on
each lookup.
"""

from __future__ import annotations

import io
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, combinations, compress, count
from math import comb, gcd, lcm
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

from .algebra import ModuleVector
from .combinatorics import (
    _ascii_int,
    _layer_size,
    enumerate_subsets,
    format_subset,
    parse_subset,
    subset_position,
)
from .errors import ParseError, ResourceLimitError
from .hoeffding import (
    HoeffdingDecomposition,
    _LiftedComponents,
    is_completely_degenerate,
)


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


def _key_texts(n: int, l: int) -> list[str]:
    # The text of every l-subset, in canonical order.
    return list(map(format_subset, enumerate_subsets(n, l)))


def _write_vector(
    write: Callable[[str], object], f: ModuleVector, keys: Iterable[str] | None = None
) -> None:
    # The vector's lines, one write each, keyed by keys (every subset text in
    # canonical order) or by default by the subsets that combinations streams;
    # only the keys of nonzero entries are formatted.  An entry is reduced by one
    # gcd, and its text is reused while the numerator repeats.
    nums = f.numerators
    if keys is None:
        picked = map(format_subset, compress(combinations(range(1, f.n + 1), f.l), nums))
    else:
        picked = compress(keys, nums)
    den, last, value = f.denominator, 0, ""
    write(f"n = {f.n}\n")
    write(f"l = {f.l}\n")
    for x, key in zip(filter(None, nums), picked):
        if x != last:
            g = gcd(x, den)
            last, value = x, _pair_text(x // g, den // g)
        write(f"{key} = {value}\n")


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
    # The lines of a file opened as text (universal newlines, bytes that are not
    # UTF-8 escaped), split again as str.splitlines() splits a text.  A line with
    # an escaped byte raises the strict decoder's error, named by `_content_lines`.
    for line in chain.from_iterable(map(str.splitlines, fh)):
        if not line.isascii():
            line.encode(errors="surrogateescape").decode()
        yield line


def _content_lines(raw_lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    # Each line that holds content, numbered from 1, without its comment and
    # surrounding blanks; a line that does not decode (the next) is a ParseError.
    lineno = 0
    try:
        for lineno, raw in enumerate(raw_lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise ParseError(f"line {lineno + 1}: byte 0x{bad:02x} is not UTF-8 text ({exc.reason})") from None


def _split_assignment(lineno: int, line: str) -> tuple[str, str]:
    if "=" not in line:
        raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


def _named_int(lineno: int, line: str, name: str) -> int:
    key, value = _split_assignment(lineno, line)
    if key != name:
        raise ParseError(f"line {lineno}: expected '{name} = ...', got {line!r}")
    try:
        return _ascii_int(value)
    except ValueError:
        raise ParseError(f"line {lineno}: bad integer {value!r} for '{name}'") from None


def _read_vector(
    lines: Iterator[tuple[int, str]], last: int, keys: dict[tuple[int, int], dict[str, int]], sections: bool
) -> tuple[ModuleVector, tuple[int, str] | None]:
    """One vector read from numbered content lines: "n = ...", "l = ...", then records.

    Returns the vector and, with sections, the "[" line that ends it (None at
    the end).  last names a missing header: a section's header line, or 0 for
    a whole file, where no content at all is an empty file.  Each record is
    parsed as it arrives into its position and (p, q), and the entries are put
    over one lcm of their denominators in one integer list at the end.  A value
    text equal to the previous record's is not parsed again; no other value is
    remembered.  keys ((n, l) -> canonical subset text -> position) are the
    caller's, so that the sections of one file can share them.  A shape's key
    table is built once the records read cover an eighth of its subsets (and
    n/8), so a sparse vector of a huge shape builds none; a key the table does
    not hold, and every key read before the table is built, goes through
    `parse_subset` to the same position, with the same checks and messages.
    """
    n = l = header = None
    for lineno, line in lines:
        if sections and line.startswith("["):
            break
        if n is None:
            n, last = _named_int(lineno, line, "n"), lineno
            continue
        l = _named_int(lineno, line, "l")
        if n < 1 or l < 0 or l > n:
            raise ParseError(f"line {last}: invalid shape n={n}, l={l}")
        break
    if l is None:
        if not last:
            raise ParseError("line 1: empty vector file")
        name = "n" if n is None else "l"
        raise ParseError(f"line {last}: missing '{name} = ...' header")
    entries: dict[int, tuple[int, int]] = {}  # position -> (p, q)
    canonical = keys.get((n, l), {})
    size = None  # C(n, l), once n/8 records are in
    prev, pair = None, None  # the previous record's value text and its (p, q)
    for lineno, line in lines:
        if sections and line.startswith("["):
            header = lineno, line
            break
        key, value = _split_assignment(lineno, line)
        if not canonical and n <= 8 * (len(entries) + 1):
            # n is tested first to keep comb() cheap: C(n, l) >= n for 0 < l < n.
            size = comb(n, l) if size is None else size
            if size <= 8 * (len(entries) + 1):
                canonical = keys[n, l] = dict(zip(_key_texts(n, l), count()))
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
        if value != prev:
            prev, pair = value, _parse_pair(value, lineno)
        entries[position] = pair
    # One lcm over the distinct denominators puts every entry over den.
    den = lcm(*{q for _, q in entries.values()})
    scale = {q: den // q for _, q in entries.values()}
    nums = [0] * _layer_size(n, l)
    for position, (p, q) in entries.items():
        nums[position] = p * scale[q]
    # The pairs go before the vector copies nums.
    del entries, scale
    return ModuleVector.from_numerators(n, l, nums, den), header


def _read_module_vector(raw_lines: Iterable[str]) -> ModuleVector:
    return _read_vector(_content_lines(raw_lines), 0, {}, sections=False)[0]


def module_vector_from_text(text: str) -> ModuleVector:
    return _read_module_vector(text.splitlines())


def save_module_vector(f: ModuleVector, path: str | Path) -> None:
    with _replacing(path) as fh:
        _write_vector(fh.write, f)


def load_module_vector(path: str | Path) -> ModuleVector:
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return _read_module_vector(_file_lines(fh))


def _write_decomposition(write: Callable[[str], object], dec: HoeffdingDecomposition) -> None:
    # The sections in file order, one write per line.  Each component is looked
    # up once, so a decomposition that unpacks its components on lookup
    # (`hoeffding.decompose`) holds one at a time.  Both views return kernel m
    # itself as component m, for which kernel m's kept lines are written again;
    # an equal copy, written afresh, gives the same lines.  Layer m's key table,
    # the only one, serves kernel m and each component.
    n, m = dec.n, dec.m
    keys_m = _key_texts(n, m)
    write(f"n = {n}\nm = {m}\nmean = {format_rational(dec.mean)}\n")
    for l in range(1, m):
        write(f"[kernel {l}]\n")
        _write_vector(write, dec.kernels[l])
    kernel_m: list[str] = []
    _write_vector(kernel_m.append, dec.kernels[m], keys_m)
    write(f"[kernel {m}]\n")
    for line in kernel_m:
        write(line)
    for l in range(m + 1):
        comp = dec.components[l]
        write(f"[component {l}]\n")
        if comp is dec.kernels[m]:
            for line in kernel_m:
                write(line)
        else:
            _write_vector(write, comp, keys_m)
        del comp


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
        return fields[0], _ascii_int(fields[1]), lineno
    except ValueError:
        raise ParseError(f"line {lineno}: bad section index in {line!r}") from None


def _preamble(lines: Iterator[tuple[int, str]]) -> tuple[int, int, Fraction, tuple[int, str] | None]:
    # n, m and the mean, each parsed as its line arrives, and the line after
    # them, the first header (None at the end).  A missing line is named by the
    # line before it, or by the first header.
    first = next(lines, None)
    if first is None:
        raise ParseError("line 1: empty decomposition file")
    n_lineno = first[0]
    if first[1].startswith("["):
        raise ParseError(f"line {n_lineno}: missing 'n = ...' header")
    n = _named_int(*first, "n")
    lineno, line = _preamble_line(lines, n_lineno, "missing 'm = ...' header")
    m = _named_int(lineno, line, "m")
    if m < 1 or 2 * m > n:
        raise ParseError(f"line {n_lineno}: invalid shape n={n}, m={m}")
    lineno, line = _preamble_line(lines, lineno, "missing 'mean = ...' in preamble")
    key, value = _split_assignment(lineno, line)
    if key != "mean":
        raise ParseError(f"line {lineno}: expected 'mean = ...', got {line!r}")
    mean = Fraction(*_parse_pair(value, lineno))
    following = next(lines, None)
    if following is not None and not following[1].startswith("["):
        lineno, line = following
        raise ParseError(f"line {lineno}: unexpected content before first section: {line!r}")
    return n, m, mean, following


def _preamble_line(lines: Iterator[tuple[int, str]], lineno: int, missing: str) -> tuple[int, str]:
    # The next preamble line; the end or a header there is missing, named at lineno.
    following = next(lines, None)
    if following is None or following[1].startswith("["):
        raise ParseError(f"line {lineno}: {missing}")
    return following


def _read_decomposition(raw_lines: Iterable[str]) -> HoeffdingDecomposition:
    """A decomposition file read section by section from its lines.

    The result is built right after the preamble, over the kernels dict that
    fills as the file is read, so its components are a
    `hoeffding._LiftedComponents` view.  Each kernel is checked for degeneracy
    as it is read, and each component against that view as soon as it and its
    kernel are in; one read before its kernel waits for it, and one that passes
    is dropped, with only its index kept.  The first fault met is raised and
    nothing further is read; missing sections are reported at the end.
    """
    lines = _content_lines(raw_lines)
    n, m, mean, header = _preamble(lines)
    kernels: dict[int, ModuleVector] = {}
    dec = HoeffdingDecomposition(n, m, mean, kernels, _LiftedComponents(n, m, mean, kernels))
    components: set[int] = set()  # the indices of the components read
    waiting: dict[int, tuple[int, ModuleVector]] = {}  # l -> header line, component
    keys: dict[tuple[int, int], dict[str, int]] = {}
    while header is not None:
        kind, index, lineno = _section_header(*header)
        # Only the key table of layer m is read again (by the components).
        shared = kind == "component" or index == m
        vec, header = _read_vector(lines, lineno, keys if shared else {}, sections=True)
        if vec.n != n:
            raise ParseError(f"line {lineno}: section declares n={vec.n}, preamble has n={n}")
        if kind == "kernel":
            if not (1 <= index <= m) or vec.l != index:
                raise ParseError(f"line {lineno}: kernel {index} must have l={index} in [1..{m}]")
            if index in kernels:
                raise ParseError(f"line {lineno}: duplicate kernel {index}")
            if not is_completely_degenerate(vec):
                raise ParseError(f"line {lineno}: kernel {index} is not completely degenerate")
            kernels[index] = vec
        else:
            if not (0 <= index <= m) or vec.l != m:
                raise ParseError(f"line {lineno}: component {index} must have l={m}, index in [0..{m}]")
            if index in components:
                raise ParseError(f"line {lineno}: duplicate component {index}")
            components.add(index)
            waiting[index] = lineno, vec
        if index in waiting and (index == 0 or index in kernels):
            lineno, comp = waiting.pop(index)
            if comp != dec.components[index]:
                fault = "must be the constant mean vector"
                if index:
                    fault = f"is not the U-statistic lift of kernel {index}"
                raise ParseError(f"line {lineno}: component {index} {fault}")
        # No section outlives its check while the next one is parsed.
        vec = comp = None
    missing_k = [l for l in range(1, m + 1) if l not in kernels]
    missing_c = [l for l in range(m + 1) if l not in components]
    if missing_k or missing_c:
        raise ParseError(f"line 1: missing sections (kernels {missing_k}, components {missing_c})")
    return dec


def decomposition_from_text(text: str) -> HoeffdingDecomposition:
    return _read_decomposition(text.splitlines())


def save_decomposition(dec: HoeffdingDecomposition, path: str | Path) -> None:
    with _replacing(path) as fh:
        _write_decomposition(fh.write, dec)


def load_decomposition(path: str | Path) -> HoeffdingDecomposition:
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return _read_decomposition(_file_lines(fh))
