"""Spans around symci's layer functions, recorded from outside the package.

`install(recorder)` wraps each function in `TARGETS` at every attribute
callers look it up by: the defining module, each symci module that
imported the name, and, for methods, every class attribute bound to the
same function (so `GradedCharacter.__rmul__` counts as `__mul__`).  It
must run again after every module reset, because a reset replaces the
modules.  Spans are kept in memory as lists

    [name, start_ns, end_ns, parent_index, query_id, count]

and written out by `Recorder.dump`.  Counts come only from arguments and
return values.  `partitions` has no span: its functions are cached and
their time is part of their callers' self time, as is ClassFunction
arithmetic.
"""

from __future__ import annotations

import json
import sys
from functools import wraps
from math import comb
from time import perf_counter_ns

import checks


def _quotient_counts(args, kwargs, out):
    rt, n = args[0], args[1]
    bound = args[2] if len(args) > 2 else kwargs.get("bound", 10)
    total = sum(checks.generator_degrees(rt.case_tag, rt.special_degree, rt.trivial_degrees, n))
    return (max(bound, total) + 1, int(out.exact))


# (metric name, module, attribute path, count from (args, kwargs, result))
TARGETS = [
    ("cli.main", "symci.cli", "main", None),
    ("classify.classify", "symci.classify", "classify",
     lambda a, k, out: int(type(out).__name__ == "RepresentationType")),
    ("tableaux.kostka_foulkes_tilde", "symci.tableaux", "kostka_foulkes_tilde",
     lambda a, k, out: sum(out.coeffs.values())),
    ("characters.irreducible_character", "symci.characters", "irreducible_character", None),
    ("characters.decompose", "symci.characters", "decompose", None),
    ("graded.quotient_character", "symci.graded", "quotient_character", _quotient_counts),
    ("graded.polynomial_ring_character", "symci.graded", "polynomial_ring_character", None),
    ("graded.GradedCharacter.__mul__", "symci.graded", "GradedCharacter.__mul__", None),
    ("graded.scale_by_cyclotomic", "symci.graded", "scale_by_cyclotomic", None),
    ("graded.GradedCharacter.pretty", "symci.graded", "GradedCharacter.pretty", None),
    ("oracle.parse_generator_file", "symci.oracle", "parse_generator_file", None),
    ("oracle.GeneratorSet.is_stable", "symci.oracle", "GeneratorSet.is_stable", None),
    ("oracle.ideal_degree_slice", "symci.oracle", "ideal_degree_slice",
     lambda a, k, out: (comb(a[0].n + a[1] - 1, a[1]), out.dimension)),
    ("oracle.quotient_trace", "symci.oracle", "quotient_trace", None),
    ("oracle.quotient_graded_character", "symci.oracle", "quotient_graded_character", None),
    ("oracle.is_regular_sequence", "symci.oracle", "is_regular_sequence", None),
    # metric names start with a letter, so symci._linalg reports as "linalg"
    ("linalg.echelon", "symci._linalg", "echelon", lambda a, k, out: len(a[0])),
    ("linalg.Echelon.ensure_reduced", "symci._linalg", "Echelon.ensure_reduced", None),
    ("linalg.Echelon.reduce", "symci._linalg", "Echelon.reduce", None),
]

ROOT = "query"


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.queries = 0

    def _open(self, name: str) -> list:
        rec = [name, perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.queries, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn, count):
        @wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[5] = count(args, kwargs, out)
            return out

        return traced

    def query(self, fn):
        """Run fn() under a new root span; return (result, seconds)."""
        self.queries += 1
        rec = self._open(ROOT)
        try:
            out = fn()
        finally:
            self._close(rec)
        return out, (rec[2] - rec[1]) / 1e9

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install(recorder: Recorder) -> None:
    mods = [m for name, m in sys.modules.items() if name == "symci" or name.startswith("symci.")]
    for name, module, path, count in TARGETS:
        owner = sys.modules[module]
        cls_name, _, attr = path.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            wrapped = recorder.wrap(name, original, count)
            for key, value in list(cls.__dict__.items()):
                if value is original:
                    setattr(cls, key, wrapped)
            continue
        original = getattr(owner, attr)
        wrapped = recorder.wrap(name, original, count)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns)."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def consistency_errors(spans: list[list]) -> list[str]:
    """Every span nests inside its parent, inside one root per query, and
    the self times of a query's spans sum to its root's duration."""
    errors = []
    selfs = self_times(spans)
    roots: dict[int, int] = {}
    sums: dict[int, int] = {}
    for i, (name, start, end, parent, qid, _) in enumerate(spans):
        if parent < 0:
            if name != ROOT or qid in roots:
                errors.append(f"span {i} ({name}) is a second root of query {qid}")
            roots[qid] = i
        else:
            p = spans[parent]
            if p[4] != qid or not (p[1] <= start <= end <= p[2]):
                errors.append(f"span {i} ({name}) is not inside its parent")
        if selfs[i] < 0:
            errors.append(f"span {i} ({name}) has children that overlap")
        sums[qid] = sums.get(qid, 0) + selfs[i]
    for qid, root in roots.items():
        if sums[qid] != spans[root][2] - spans[root][1]:
            errors.append(f"query {qid}: self times do not sum to the root")
    return errors


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], queries: int) -> dict[str, float]:
    """Per-query means of calls, self time and counts, plus waste ratios."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    for (name, *_), s in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + s / 1e9
    tot = {"terms": 0, "exact": 0, "accepted": 0, "tableaux": 0, "rows": 0, "cols": 0, "rank": 0}
    fresh_slices = {s[3]: 0 for s in spans if s[0] == "linalg.echelon"}
    for i, (name, _, _, parent, _, count) in enumerate(spans):
        if name == "graded.quotient_character":
            tot["terms"] += count[0]
            tot["exact"] += count[1]
        elif name == "classify.classify":
            tot["accepted"] += count
        elif name == "tableaux.kostka_foulkes_tilde":
            tot["tableaux"] += count
        elif name == "linalg.echelon" and parent >= 0 and spans[parent][0] == "oracle.ideal_degree_slice":
            tot["rows"] += count
        elif name == "oracle.ideal_degree_slice" and i in fresh_slices:
            tot["cols"] += count[0]
            tot["rank"] += count[1]
    per = lambda v: v / queries  # noqa: E731
    out = {}
    for name, _, _, _ in TARGETS:
        out[f"{name}.calls"] = per(calls.get(name, 0))
        out[f"{name}.self_s"] = per(secs.get(name, 0.0))
    out["tableaux.tableaux_enumerated"] = per(tot["tableaux"])
    out["graded.series_terms"] = per(tot["terms"])
    out["graded.exact_ratio"] = _ratio(tot["exact"], calls.get("graded.quotient_character", 0))
    out["classify.accept_ratio"] = _ratio(tot["accepted"], calls.get("classify.classify", 0))
    out["oracle.slice_rows"] = per(tot["rows"])
    out["oracle.slice_cols"] = per(tot["cols"])
    out["oracle.slice_rank"] = per(tot["rank"])
    out["oracle.slice_fill_ratio"] = _ratio(tot["rank"], tot["rows"])
    out["query.self_s"] = per(secs.get(ROOT, 0.0))
    return out
