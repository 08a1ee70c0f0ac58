"""Span tracer for the spechtstat benchmark, standard library only.

`Tracer.install()` replaces the public functions listed in `TARGETS` with
wrappers that record one span per call, in every `spechtstat` module that
binds them (including module-level dicts such as `verify.SUITES`), and
`uninstall()` puts the originals back.  A span is
`[name, start, end, parent, op, work, child_s]`: `work` is a size the
wrapper derives from the call (entries touched or bytes moved), `child_s`
the time covered by its direct child spans.  Spans stay in memory and are
written as JSON lines at the end.

A target the library no longer has is reported in `absent` instead of
failing, so that removing or renaming library code does not break the
benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from math import comb

NAME, START, END, PARENT, OP, WORK, CHILD = range(7)


def _vector_entries(h, assigned):
    a = len(assigned)
    return comb(h.n - a, h.l - a)


def _lift_entries(phi, m):
    return comb(phi.n, m) * comb(m, phi.l)


def _bytes_at(*args):
    return os.path.getsize(args[-1])


#: (module, attribute, span name, work(*args) or None) for each wrapped function.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("fileformats", "load_module_vector", "fileformats.load_module_vector", _bytes_at),
    ("fileformats", "save_decomposition", "fileformats.save_decomposition", _bytes_at),
    ("fileformats", "load_decomposition", "fileformats.load_decomposition", _bytes_at),
    ("hoeffding", "decompose", "hoeffding.decompose", None),
    ("hoeffding", "conditional_expectation", "hoeffding.conditional_expectation", _vector_entries),
    ("hoeffding", "u_statistic_lift", "hoeffding.u_statistic_lift", _lift_entries),
    ("hoeffding", "coefficient_table", "hoeffding.coefficient_table", None),
    ("hoeffding", "character_projection_oracle", "hoeffding.character_projection_oracle", None),
    ("algebra", "ModuleVector.__init__", "algebra.module_vector_new", None),
    ("algebra", "inner_product", "algebra.inner_product", None),
    ("algebra", "rank_of_span", "algebra.rank_of_span", None),
    ("combinatorics", "enumerate_subsets", "combinatorics.enumerate_subsets", None),
    ("combinatorics", "subset_index", "combinatorics.subset_index", None),
    ("combinatorics", "enumerate_permutations", "combinatorics.enumerate_permutations", None),
    ("characters", "two_row_character", "characters.two_row_character", None),
    ("specht", "specht_basis", "specht.specht_basis", None),
    ("specht", "polytabloid", "specht.polytabloid", None),
    ("verify", "verify_decomposition", "verify.decomp", None),
    ("verify", "verify_equivalence", "verify.equiv", None),
    ("verify", "verify_shift_orthogonality", "verify.shift", None),
    ("verify", "verify_specht", "verify.specht", None),
)


def max_bits(dec) -> int:
    """Largest numerator or denominator bit length in a decomposition."""
    vectors = list(dec.kernels.values()) + list(dec.components.values())
    best = max(dec.mean.numerator.bit_length(), dec.mean.denominator.bit_length())
    for vec in vectors:
        for v in vec.values:
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.counters = {"permutations_enumerated": 0, "max_bits": 0}
        self.absent: list[str] = []
        self.dump_s = 0.0  # time children spent serialising their spans
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op, 0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += rec[END] - rec[START]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around benchmark-side code."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, fn, name, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if work is not None:
                rec[WORK] = work(*args)
            return result

        return wrapper

    def _wrap_decompose(self, fn, name, work):
        inner = self._wrap(fn, name, work)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            dec = inner(*args, **kwargs)
            # Outside the span, so that the bit count does not inflate decompose_s.
            self.counters["max_bits"] = max(self.counters["max_bits"], max_bits(dec))
            return dec

        return wrapper

    def _wrap_permutations(self, fn, name, work):
        inner = self._wrap(fn, name, work)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            perms = inner(*args, **kwargs)

            def counted():
                seen = 0
                try:
                    for x in perms:
                        seen += 1
                        yield x
                finally:
                    counters["permutations_enumerated"] += seen

            return counted()

        return wrapper

    # -- installing the wrappers ------------------------------------------

    def install(self) -> None:
        special = {
            "hoeffding.decompose": self._wrap_decompose,
            "combinatorics.enumerate_permutations": self._wrap_permutations,
        }
        replace: dict[int, object] = {}  # id of an original function -> its wrapper
        self.absent = []
        for module, attr, name, work in TARGETS:
            try:
                owner = importlib.import_module(f"spechtstat.{module}")
            except ModuleNotFoundError:
                self.absent.append(name)
                continue
            *path, key = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, key, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = special.get(name, self._wrap)(original, name, work)
            if path:  # a method: patch the class that defines it
                setattr(owner, key, wrapper)
                self._undo.append((owner, key, original))
            else:
                replace[id(original)] = wrapper
        for modname, mod in list(sys.modules.items()):
            if modname != "spechtstat" and not modname.startswith("spechtstat."):
                continue
            for key, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, key, replace[id(value)])
                    self._undo.append((mod, key, value))
                elif isinstance(value, dict):
                    for k2, v2 in list(value.items()):
                        if id(v2) in replace:
                            value[k2] = replace[id(v2)]
                            self._undo.append((value, k2, v2))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo = []

    # -- output -----------------------------------------------------------

    def add_foreign(self, lines: list[str], parent: int) -> None:
        """Merge the spans and counters a child process wrote, under span `parent`."""
        offset = len(self.spans)
        extra: dict = {}
        for line in lines:
            obj = json.loads(line)
            if "name" not in obj:
                extra.update(obj)
                continue
            p = obj["parent"]
            self.spans.append([
                obj["name"], obj["start"], obj["end"],
                parent if p is None else p + offset, obj["op"], obj["work"], obj["child_s"],
            ])
        for key, value in extra.get("counters", {}).items():
            if key == "max_bits":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        for name in extra.get("absent", []):
            if name not in self.absent:
                self.absent.append(name)
        self.dump_s += extra.get("dump_s", 0.0)

    def jsonl(self) -> str:
        """Every span as one JSON object per line, then one line of counters."""
        out = []
        for i, s in enumerate(self.spans):
            out.append(json.dumps({
                "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                "parent": None if s[PARENT] < 0 else s[PARENT], "op": s[OP],
                "work": s[WORK], "child_s": s[CHILD],
            }))
        out.append(json.dumps({"counters": self.counters, "absent": self.absent}))
        return "\n".join(out) + "\n"


def per_layer(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op layer metrics from the spans of `ops` traced ops."""
    spans = tracer.spans
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def outermost(names):
        # Spans of `names` with no ancestor of `names`: nested calls count once.
        for s in (s for n in names for s in by_name.get(n, ())):
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] not in names:
                p = spans[p][PARENT]
            if p < 0:
                yield s

    def secs(*names):
        return sum(s[END] - s[START] for s in outermost(set(names))) / ops

    def calls(name):
        return len(by_name.get(name, ())) / ops

    def work(name):
        return sum(s[WORK] for s in by_name.get(name, ())) / ops

    def self_secs(name):
        return sum(s[END] - s[START] - s[CHILD] for s in outermost({name})) / ops

    child = secs("bench.child")
    tracing = secs("bench.install") + tracer.dump_s / ops
    out = {
        "cli.process_s": child - secs("cli.main") - tracing if child else 0.0,
        "cli.main_s": secs("cli.main"),
        "fileformats.load_module_vector_s": secs("fileformats.load_module_vector"),
        "fileformats.save_decomposition_s": secs("fileformats.save_decomposition"),
        "fileformats.load_decomposition_s": secs("fileformats.load_decomposition"),
        "fileformats.bytes_read": work("fileformats.load_module_vector")
        + work("fileformats.load_decomposition"),
        "fileformats.bytes_written": work("fileformats.save_decomposition"),
        "hoeffding.decompose_s": secs("hoeffding.decompose"),
        "hoeffding.decompose_calls": calls("hoeffding.decompose"),
        "hoeffding.decompose_self_s": self_secs("hoeffding.decompose"),
    }
    for short in ("conditional_expectation", "u_statistic_lift"):
        name = f"hoeffding.{short}"
        out[f"{name}_calls"] = calls(name)
        out[f"{name}_s"] = secs(name)
        out[f"{name}_entries"] = work(name)
    out.update({
        "hoeffding.coefficient_table_s": secs("hoeffding.coefficient_table"),
        "hoeffding.character_projection_oracle_calls": calls("hoeffding.character_projection_oracle"),
        "hoeffding.character_projection_oracle_s": secs("hoeffding.character_projection_oracle"),
        "algebra.module_vector_new_calls": calls("algebra.module_vector_new"),
        "algebra.module_vector_new_s": secs("algebra.module_vector_new"),
        "algebra.inner_product_s": secs("algebra.inner_product"),
        "algebra.rank_of_span_s": secs("algebra.rank_of_span"),
        "algebra.max_bits": tracer.counters["max_bits"],
        "combinatorics.permutations_enumerated": tracer.counters["permutations_enumerated"] / ops,
        "combinatorics.subset_table_s": secs(
            "combinatorics.enumerate_subsets", "combinatorics.subset_index"
        ),
        "characters.two_row_character_calls": calls("characters.two_row_character"),
        "specht.specht_basis_s": secs("specht.specht_basis"),
        "specht.polytabloid_calls": calls("specht.polytabloid"),
    })
    for suite in ("decomp", "equiv", "shift", "specht"):
        out[f"verify.{suite}_s"] = secs(f"verify.{suite}")
    return out
