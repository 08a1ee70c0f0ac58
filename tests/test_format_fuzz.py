"""Property tests of both text readers: exact round trips of every accepted
spelling, and mutated texts that fail only with the library's own errors.
Each text is read from a string and from a file, which must agree."""

import tempfile
from fractions import Fraction
from math import comb
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spechtstat import (
    DomainError,
    ModuleVector,
    ParseError,
    ResourceLimitError,
    decompose,
    decomposition_from_text,
    decomposition_to_text,
    enumerate_subsets,
    load_decomposition,
    load_module_vector,
    module_vector_from_text,
    module_vector_to_text,
    random_module_vector,
)

#: Spellings of a record's " = ".
EQUALS = [" = ", "=", "  =\t"]

#: The characters a mutation writes: digits and the format's punctuation.
MUTATION_CHARS = "0123456789,=/+-[]# "


def read_both(from_text, load, text):
    """("ok", result) or (error type, message) of from_text(text), after checking
    that load(path) of a file holding text gives the same."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.txt"
        path.write_text(text)
        for read in (lambda: from_text(text), lambda: load(path)):
            try:
                outcomes.append(("ok", read()))
            except (ParseError, DomainError, ResourceLimitError) as exc:
                outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def read_vector(text):
    return read_both(module_vector_from_text, load_module_vector, text)


def read_decomposition(text):
    return read_both(decomposition_from_text, load_decomposition, text)


def random_value(rng):
    """A signed rational with a numerator past 64 bits and a denominator up to 10^6."""
    return Fraction(rng.randint(-(10**24), 10**24), rng.randint(1, 10**6))


def spell_key(rng, s):
    """A text `parse_subset` reads as s: any order, leading zeros, '+', spaces."""
    if not s:
        return rng.choice(["-", " - ", ""])
    parts = []
    for a in rng.sample(s, len(s)):
        pad = rng.choice(["", " "])
        parts.append(f"{pad}{rng.choice(['', '+'])}{'0' * rng.randint(0, 2)}{a}{pad}")
    return ",".join(parts)


def spell_value(rng, v):
    """A text `parse_rational` reads as v: unreduced, with an optional '+' or '-0'."""
    k = rng.randint(1, 5)
    p, q = v.numerator * k, v.denominator * k
    sign = "-" if p < 0 else rng.choice(["", "+"] + (["-"] if p == 0 else []))
    if q == 1 and rng.random() < 0.5:
        return f"{sign}{abs(p)}"
    return f"{sign}{abs(p)}/{q}"


def spell_vector(rng, f, keep_zeros):
    """f's header and its records in a shuffled order, each key and value respelled."""
    records = [
        f"{spell_key(rng, s)}{rng.choice(EQUALS)}{spell_value(rng, v)}"
        for s, v in zip(enumerate_subsets(f.n, f.l), f.values)
        if v or (keep_zeros and rng.random() < 0.1)
    ]
    rng.shuffle(records)
    return [f"n = {f.n}", f"l = {f.l}", *records]


@given(st.integers(1, 9), st.data(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_vector_round_trips_exactly(n, data, rng):
    # Every subset listed, or a third of them: the reader's two key routes.
    l = data.draw(st.integers(0, n))
    size = comb(n, l)
    listed = range(size) if data.draw(st.booleans()) else rng.sample(range(size), size // 3)
    vals = [0] * size
    for i in listed:
        vals[i] = random_value(rng)
    f = ModuleVector(n, l, vals)
    assert read_vector(module_vector_to_text(f)) == ("ok", f)
    lines = spell_vector(rng, f, keep_zeros=True)
    _, g = read_vector("\n".join(lines) + "\n")
    assert g == f
    assert module_vector_to_text(g) == module_vector_to_text(f)


@given(st.integers(2, 9), st.data(), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_decomposition_round_trips_exactly(n, data, rng):
    m = data.draw(st.integers(1, n // 2))
    h = ModuleVector(n, m, [random_value(rng) for _ in range(comb(n, m))])
    dec = decompose(h)
    assert read_decomposition(decomposition_to_text(dec)) == ("ok", dec)
    sections = [(f"[kernel {l}]", dec.kernels[l]) for l in range(1, m + 1)]
    sections += [(f"[component {l}]", dec.components[l]) for l in range(m + 1)]
    rng.shuffle(sections)
    text = [f"n = {n}", f"m = {m}", f"mean = {spell_value(rng, dec.mean)}"]
    for header, vec in sections:
        text += [header, *spell_vector(rng, vec, keep_zeros=False)]
    assert read_decomposition("\n".join(text) + "\n") == ("ok", dec)


def _header_values_at_most_12(text):
    # A mutation can copy or edit an "n = ...", "l = ..." or "m = ..." line, but
    # no larger layer than C(12, 6) may be allocated by this test.
    for raw in text.splitlines():
        key, eq, value = raw.split("#", 1)[0].partition("=")
        if eq and key.strip() in ("n", "l", "m"):
            try:
                if int(value) > 12:
                    return False
            except ValueError:
                pass
    return True


@st.composite
def mutations(draw, text):
    """text with one to three lines deleted, duplicated or swapped, or characters replaced."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "replace"]))
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif lines[i]:
            k = draw(st.integers(0, len(lines[i]) - 1))
            lines[i] = lines[i][:k] + draw(st.sampled_from(MUTATION_CHARS)) + lines[i][k + 1 :]
    out = "\n".join(lines) + "\n"
    assume(_header_values_at_most_12(out))
    return out


@given(st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_vector_text_raises_only_library_errors(n, data):
    l = data.draw(st.integers(0, n))
    text = module_vector_to_text(random_module_vector(n, l, data.draw(st.integers(0, 99))))
    read_vector(data.draw(mutations(text)))


@given(st.integers(2, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_decomposition_text_raises_only_library_errors(n, data):
    m = data.draw(st.integers(1, n // 2))
    h = random_module_vector(n, m, data.draw(st.integers(0, 99)))
    text = decomposition_to_text(decompose(h))
    read_decomposition(data.draw(mutations(text)))
