"""Command line front end: quotient characters, the classification gate,
oracle verification of explicit generators, character tables, and the
bundled worked examples.

Exit codes: 0 on success (including a clean structured rejection from
`classify`), 1 when `verify` finds a mismatch, 2 on validation failure.
Every refusal goes through `main`: a handler raises ValueError or
OSError, and `main` prints "error: <message>" to stderr and returns 2.
Any other exception is a fault and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .characters import _json_keys, irreducible_character
from .classify import (
    IrredMultiset,
    Rejection,
    RepresentationType,
    classify as classify_multiset,
)
from .graded import (
    GradedCharacter,
    coinvariant_character,
    hilbert_series,
    polynomial_ring_character,
    quotient_character,
    socle_analysis,
)
from .oracle import (
    parse_generator_file,
    permutation_cycles,
    quotient_graded_character,
    representative_permutation,
)
from .partitions import Partition, class_size, partitions_of
from .tableaux import UnivariatePoly, kostka_foulkes_tilde

SCHEMA = "symci/1"
DEFAULT_BOUND = 10
# The series work and memory grow linearly with --bound and with the
# numerator degree; past this the answer is refused instead of risking
# gigabytes.
MAX_BOUND = 100_000
# `tables` holds p(n)^2 character values; its time and memory grow about
# 2.5x for every +2 in n (3.9 s and 309 MB at n = 20).
MAX_TABLES_N = 20
# `character` and `verify` work on all p(n) cycle types, and text output
# decomposes each coefficient over the p(n)^2 character table:
# `character --n 24 --case I --c 1` takes 0.04 s as JSON but 15 s and
# 630 MB as text (2-vCPU guest, Python 3.11); p(100) is about 1.9e8.
MAX_N = 24


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symci",
        description=(
            "Classify symmetric-group-stable complete intersection types and "
            "compute graded characters of the quotients, exactly."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_char = sub.add_parser("character", help="print a quotient graded character")
    p_char.add_argument("--n", type=int, required=True)
    p_char.add_argument("--case", choices=["I", "II", "III", "IV"], required=True)
    p_char.add_argument("--d", type=int, help="degree of the non-trivial summand")
    p_char.add_argument("--c", default="", help="comma list of trivial degrees, e.g. 2,3,3,4")
    p_char.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p_char.add_argument("--json", action="store_true")

    p_cls = sub.add_parser("classify", help="run the admissibility gate on a summand multiset")
    p_cls.add_argument("--input", required=True, help="JSON file with n and summands")
    p_cls.add_argument("--json", action="store_true")

    p_ver = sub.add_parser("verify", help="compare a generator file against a type's formula")
    p_ver.add_argument("--gens", required=True, help="generator file, one polynomial per line")
    p_ver.add_argument("--against", required=True, help='e.g. "case IV d=2 c=2,3"')
    p_ver.add_argument("--n", type=int, default=4, help="number of variables (default 4)")
    p_ver.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p_ver.add_argument("--json", action="store_true")

    p_tab = sub.add_parser("tables", help="character table and modified Kostka-Foulkes table")
    p_tab.add_argument("--n", type=int, required=True)
    p_tab.add_argument("--json", action="store_true")

    p_ex = sub.add_parser("examples", help="regenerate the bundled worked examples")
    p_ex.add_argument("--json", action="store_true")

    return parser


def _parse_degree_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(item) for item in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad degree list {text!r}") from exc


def _rep_type_from_flags(case: str, d: int | None, c: str) -> RepresentationType:
    degrees = _parse_degree_list(c)
    if case == "I":
        if d is not None:
            raise ValueError("case I has no --d")
        return RepresentationType("I", None, degrees)
    if d is None:
        raise ValueError(f"case {case} needs --d")
    return RepresentationType(case, d, degrees)


_AGAINST = re.compile(r"^\s*case\s+(IV|III|II|I)\b\s*(.*)$")
_AGAINST_ITEM = re.compile(r"(\w+)\s*=\s*([\d,]+)")


def _parse_against(text: str) -> RepresentationType:
    m = _AGAINST.match(text)
    if not m:
        raise ValueError(f'--against must look like "case III d=2 c=2", got {text!r}')
    case, rest = m.group(1), m.group(2)
    leftover = _AGAINST_ITEM.sub("", rest).strip()
    if leftover:
        raise ValueError(f"cannot parse {leftover!r} in --against {text!r}")
    items: dict[str, str] = {}
    for key, value in _AGAINST_ITEM.findall(rest):
        if key not in ("d", "c"):
            raise ValueError(f"unknown key {key!r} in --against")
        if key in items:
            raise ValueError(f"repeated key {key!r} in --against {text!r}")
        items[key] = value
    d = items.get("d")
    return _rep_type_from_flags(case, None if d is None else int(d), items.get("c", ""))


def _check_size(rt: RepresentationType, n: int, bound: int) -> None:
    """Refuse, before any series work, an --n above MAX_N, or a --bound or
    a numerator degree above MAX_BOUND: the series is as long as the
    larger of the two."""
    if n > MAX_N:
        raise ValueError(f"--n must be at most {MAX_N}, got {n}")
    if bound > MAX_BOUND:
        raise ValueError(f"--bound must be at most {MAX_BOUND}, got {bound}")
    d = rt.special_degree
    own = 0 if d is None else {"II": 1, "III": n - 1, "IV": 2}[rt.case_tag] * d
    degree = sum(rt.trivial_degrees) + own
    if degree > MAX_BOUND:
        raise ValueError(f"numerator degree must be at most {MAX_BOUND}, got {degree}")


def _dump(payload: dict) -> str:
    return json.dumps(payload, ensure_ascii=False, indent=2)


def _type_label(t: dict) -> str:
    """"case III, d = 2, c = (2)" from the case, d and c of a payload."""
    d_str = "" if t["d"] is None else f", d = {t['d']}"
    return f"case {t['case']}{d_str}, c = (" + ",".join(str(c) for c in t["c"]) + ")"


def _socle_kind(g: GradedCharacter) -> str | None:
    """The top piece of an exact series when it is one-dimensional:
    "trivial", "alternating" or "other"; None otherwise."""
    if not g.exact or g.coefficient(g.top_degree()).dimension() != 1:
        return None
    report = socle_analysis(g)
    if report.top_is_trivial:
        return "trivial"
    return "alternating" if report.top_is_alternating else "other"


def _character_text(p: dict, g: GradedCharacter) -> str:
    if "top_degree" in p:
        top = f"degree {p['top_degree']} (exact polynomial)"
        if "socle" in p:
            top += f"; socle: {p['socle']}"
    else:
        bound = p["graded_character"]["bound"]
        top = f"truncated at degree {bound} (series does not terminate there)"
    return "\n".join(
        [
            f"n = {p['n']}, {_type_label(p)}",
            f"character: {g.pretty()}",
            "hilbert:   " + " ".join(str(v) for v in p["hilbert_series"]),
            f"top:       {top}",
        ]
    )


def _cmd_character(args) -> int:
    rt = _rep_type_from_flags(args.case, args.d, args.c)
    _check_size(rt, args.n, args.bound)
    g = quotient_character(rt, args.n, args.bound)
    payload = {
        "schema": SCHEMA,
        "command": "character",
        "n": args.n,
        **rt.to_json(),
        "graded_character": g.to_json(),
        "hilbert_series": hilbert_series(g),
    }
    if g.exact:
        payload["top_degree"] = g.top_degree()
        kind = _socle_kind(g)
        if kind:
            payload["socle"] = kind
    print(_dump(payload) if args.json else _character_text(payload, g))
    return 0


def _load_multiset(path: str) -> IrredMultiset:
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle)
        summands = [(Partition(item["partition"]), item["degree"]) for item in obj["summands"]]
        return IrredMultiset(obj["n"], tuple(summands))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot read multiset: {exc}") from exc


def _classify_text(p: dict) -> str:
    if p["result"] == "rejected":
        witness = ", ".join(f"{Partition(w['partition'])}:{w['degree']}" for w in p["witness"])
        return f"rejected by {p['rule']}: {p['message']} (witness: {witness or '-'})"
    note = " [degenerate small n]" if p["degenerate_small_n"] else ""
    return f"accepted: {_type_label(p)}{note}"


def _cmd_classify(args) -> int:
    ms = _load_multiset(args.input)
    result = classify_multiset(ms)
    accepted = not isinstance(result, Rejection)
    payload = {
        "schema": SCHEMA,
        "command": "classify",
        "n": ms.n,
        "result": "accepted" if accepted else "rejected",
        **result.to_json(),
    }
    if accepted:
        payload["degenerate_small_n"] = ms.n <= 3
    print(_dump(payload) if args.json else _classify_text(payload))
    return 0


def _verify_text(p: dict, formula: GradedCharacter, oracle_side: GradedCharacter) -> str:
    t = p["against"]
    lines = [
        f"n = {p['n']}, generators of degrees {tuple(p['generator_degrees'])}",
        f"against: case {t['case']}, d = {t['d']}, c = {tuple(t['c'])}",
    ]
    for row in p["degrees"]:
        d = row["degree"]
        if row["match"]:
            lines.append(f"degree {d}: MATCH")
        else:
            lines.append(
                f"degree {d}: MISMATCH formula={formula.coefficient(d).to_json()} "
                f"oracle={oracle_side.coefficient(d).to_json()}"
            )
    lines.append("RESULT: " + ("MATCH" if p["match"] else "MISMATCH"))
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    rt = _parse_against(args.against)
    _check_size(rt, args.n, args.bound)
    with open(args.gens, encoding="utf-8") as handle:
        gs = parse_generator_file(handle.read(), args.n)
    formula = quotient_character(rt, args.n, args.bound)
    compare_bound = formula.top_degree() + 1 if formula.exact else args.bound
    oracle_side = quotient_graded_character(gs, compare_bound)
    matches = [
        formula.coefficient(d) == oracle_side.coefficient(d) for d in range(compare_bound + 1)
    ]
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "n": args.n,
        "against": rt.to_json(),
        "generator_degrees": list(gs.degrees),
        "compare_bound": compare_bound,
        "degrees": [{"degree": d, "match": m} for d, m in enumerate(matches)],
        "match": all(matches),
    }
    print(_dump(payload) if args.json else _verify_text(payload, formula, oracle_side))
    return 0 if payload["match"] else 1


def _class_order(n: int) -> list[Partition]:
    """Column order for the table: most fixed points first, then listing order."""
    listing = {mu: i for i, mu in enumerate(partitions_of(n))}
    return sorted(
        partitions_of(n), key=lambda mu: (-sum(1 for p in mu if p == 1), listing[mu])
    )


def _class_label(mu: Partition) -> str:
    cycles = permutation_cycles(representative_permutation(mu))
    if not cycles:
        return "1"
    return "".join("(" + " ".join(str(v) for v in cyc) + ")" for cyc in cycles)


def _kostka_column(n: int) -> dict[str, dict[str, int]]:
    """K~(λ, 1^n) for every λ ⊢ n, as JSON."""
    column = Partition([1] * n)
    return {key: kostka_foulkes_tilde(lam, column).to_json() for lam, key in _json_keys(n)}


def _character_table_text(p: dict) -> str:
    labels = ["class size", "representative"] + [f"χ[{key}]" for key in p["characters"]]
    label_width = max(len(s) for s in labels)
    columns = [[str(c["size"]), c["representative"]] for c in p["classes"]]
    for values in p["characters"].values():
        for col, v in zip(columns, values):
            col.append(str(v))
    widths = [max(len(e) for e in col) for col in columns]
    lines = [
        f"{label.ljust(label_width)} | "
        + " ".join(col[r].rjust(w) for col, w in zip(columns, widths))
        for r, label in enumerate(labels)
    ]
    lines.insert(2, "-" * label_width + "-+-" + "-" * (sum(widths) + len(widths) - 1))
    return "\n".join([f"Character table of S_{p['n']}"] + lines)


def _kostka_text(n: int, column: dict[str, dict[str, int]]) -> str:
    labels = [f"K~[{key}]" for key in column]
    width = max(len(s) for s in labels)
    lines = [f"Modified Kostka-Foulkes polynomials K~(λ, {Partition([1] * n)}):"]
    for label, poly in zip(labels, column.values()):
        poly = UnivariatePoly({int(e): c for e, c in poly.items()})
        lines.append(f"{label.ljust(width)} = {poly!r}")
    return "\n".join(lines)


def _cmd_tables(args) -> int:
    if args.n < 1:
        raise ValueError("need n >= 1")
    if args.n > MAX_TABLES_N:
        raise ValueError(f"--n must be at most {MAX_TABLES_N}, got {args.n}")
    n = args.n
    classes = _class_order(n)
    payload = {
        "schema": SCHEMA,
        "command": "tables",
        "n": n,
        "classes": [
            {"cycle_type": list(mu), "size": class_size(mu), "representative": _class_label(mu)}
            for mu in classes
        ],
        "characters": {
            key: [irreducible_character(lam).value(mu) for mu in classes]
            for lam, key in _json_keys(n)
        },
        "kostka_foulkes_tilde": _kostka_column(n),
    }
    if args.json:
        print(_dump(payload))
    else:
        print(_character_table_text(payload))
        print()
        print(_kostka_text(n, payload["kostka_foulkes_tilde"]))
    return 0


WORKED_EXAMPLES = (
    {
        "name": "ex2",
        "title": "four symmetric generators",
        "gens": "e1^3, e1^2 - e2, e3, e4",
        "rt": RepresentationType("I", None, (2, 3, 3, 4)),
    },
    {
        "name": "ex3",
        "title": "the alternating generator next to three symmetric ones",
        "gens": "e1^2, e2, e3, vdm",
        "rt": RepresentationType("II", 6, (2, 2, 3)),
    },
    {
        "name": "ex4",
        "title": "the squares of the variables",
        "gens": "x1^2, x2^2, x3^2, x4^2",
        "rt": RepresentationType("III", 2, (2,)),
    },
    {
        "name": "ex5",
        "title": "the two-dimensional summand next to two symmetric generators",
        "gens": "(x1 - x2)*(x3 - x4), (x1 - x3)*(x2 - x4), e2, e1^3",
        "rt": RepresentationType("IV", 2, (2, 3)),
    },
)


def _examples_text(p: dict, coinvariant, ring, quotients) -> str:
    lines = [
        "Example 1: the coinvariant algebra of S_4",
        _kostka_text(4, p["kostka_foulkes_tilde"]),
        "graded character of the coinvariant algebra:",
        "  " + coinvariant.pretty(),
        "graded character of the polynomial ring through t^4:",
        "  " + ring.pretty(),
    ]
    for idx, (ex, q, g) in enumerate(zip(WORKED_EXAMPLES, p["quotients"], quotients), start=2):
        lines += [
            "",
            f"Example {idx}: {ex['title']}",
            f"generators: {q['generators']}",
            f"type: {_type_label(q['type'])}",
            "quotient character:",
            "  " + g.pretty(),
            f"socle: degree {g.top_degree()}, {q['socle']}",
        ]
    return "\n".join(lines)


def _cmd_examples(args) -> int:
    coinvariant = coinvariant_character(4)
    ring = polynomial_ring_character(4, 4)
    quotients = [quotient_character(ex["rt"], 4) for ex in WORKED_EXAMPLES]
    payload = {
        "schema": SCHEMA,
        "command": "examples",
        "coinvariant_character": coinvariant.to_json(),
        "polynomial_ring_character_bound4": ring.to_json(),
        "kostka_foulkes_tilde": _kostka_column(4),
        "quotients": [
            {
                "name": ex["name"],
                "generators": ex["gens"],
                "type": ex["rt"].to_json(),
                "graded_character": g.to_json(),
                "hilbert_series": hilbert_series(g),
                "socle": _socle_kind(g),
            }
            for ex, g in zip(WORKED_EXAMPLES, quotients)
        ],
    }
    print(_dump(payload) if args.json else _examples_text(payload, coinvariant, ring, quotients))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "character": _cmd_character,
        "classify": _cmd_classify,
        "verify": _cmd_verify,
        "tables": _cmd_tables,
        "examples": _cmd_examples,
    }
    try:
        return handlers[args.subcommand](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
