"""Command line front end: quotient characters, the classification gate,
oracle verification of explicit generators, character tables, and the
bundled worked examples.

Exit codes: 0 on success (including a clean structured rejection from
`classify`), 1 when `verify` finds a mismatch, 2 on validation failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .characters import irreducible_character
from .classify import (
    IrredMultiset,
    Rejection,
    RepresentationType,
    classify as classify_multiset,
)
from .graded import (
    GradedCharacter,
    hilbert_series,
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
from .tableaux import kostka_foulkes_tilde

SCHEMA = "symci/1"
DEFAULT_BOUND = 10
# The series work and memory grow linearly with --bound; past this the
# answer is refused instead of risking gigabytes.
MAX_BOUND = 100_000


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
    d = None
    c = ""
    for key, value in _AGAINST_ITEM.findall(rest):
        if key == "d":
            d = int(value)
        elif key == "c":
            c = value
        else:
            raise ValueError(f"unknown key {key!r} in --against")
    return _rep_type_from_flags(case, d, c)


def _character_payload(rt: RepresentationType, n: int, g: GradedCharacter) -> dict:
    payload = {
        "schema": SCHEMA,
        "command": "character",
        "n": n,
        "case": rt.case_tag,
        "d": rt.special_degree,
        "c": list(rt.trivial_degrees),
        "graded_character": g.to_json(),
        "hilbert_series": hilbert_series(g),
    }
    if g.exact:
        payload["top_degree"] = g.top_degree()
        top = g.coefficient(g.top_degree())
        if top.dimension() == 1:
            report = socle_analysis(g)
            payload["socle"] = (
                "trivial"
                if report.top_is_trivial
                else "alternating"
                if report.top_is_alternating
                else "other"
            )
    return payload


def _print_character_text(rt: RepresentationType, n: int, g: GradedCharacter) -> None:
    c_str = "(" + ",".join(str(c) for c in rt.trivial_degrees) + ")"
    d_str = "" if rt.special_degree is None else f", d = {rt.special_degree}"
    print(f"n = {n}, case {rt.case_tag}{d_str}, c = {c_str}")
    print(f"character: {g.pretty()}")
    dims = hilbert_series(g)
    print("hilbert:   " + " ".join(str(v) for v in dims))
    if g.exact:
        top = g.top_degree()
        line = f"top:       degree {top} (exact polynomial)"
        if g.coefficient(top).dimension() == 1:
            report = socle_analysis(g)
            kind = (
                "trivial"
                if report.top_is_trivial
                else "alternating"
                if report.top_is_alternating
                else "other"
            )
            line += f"; socle: {kind}"
        print(line)
    else:
        print(f"top:       truncated at degree {g.bound} (series does not terminate there)")


def _check_bound(bound: int) -> None:
    if bound > MAX_BOUND:
        raise ValueError(f"--bound must be at most {MAX_BOUND}, got {bound}")


def _cmd_character(args) -> int:
    try:
        _check_bound(args.bound)
        rt = _rep_type_from_flags(args.case, args.d, args.c)
        g = quotient_character(rt, args.n, args.bound)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(_character_payload(rt, args.n, g), ensure_ascii=False, indent=2))
    else:
        _print_character_text(rt, args.n, g)
    return 0


def _load_multiset(path: str) -> IrredMultiset:
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    n = obj["n"]
    summands = []
    for item in obj["summands"]:
        summands.append((Partition(item["partition"]), item["degree"]))
    return IrredMultiset(n, tuple(summands))


def _cmd_classify(args) -> int:
    try:
        ms = _load_multiset(args.input)
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot read multiset: {exc}", file=sys.stderr)
        return 2
    result = classify_multiset(ms)
    degenerate = ms.n <= 3
    if args.json:
        payload = {"schema": SCHEMA, "command": "classify", "n": ms.n}
        if isinstance(result, Rejection):
            payload["result"] = "rejected"
            payload.update(result.to_json())
        else:
            payload["result"] = "accepted"
            payload.update(result.to_json())
            payload["degenerate_small_n"] = degenerate
        print(json.dumps(payload, ensure_ascii=False, indent=2))
        return 0
    if isinstance(result, Rejection):
        witness = ", ".join(f"{lam}:{d}" for lam, d in result.witness) or "-"
        print(f"rejected by {result.rule}: {result.message} (witness: {witness})")
    else:
        c_str = "(" + ",".join(str(c) for c in result.trivial_degrees) + ")"
        d_str = "" if result.special_degree is None else f", d = {result.special_degree}"
        note = " [degenerate small n]" if degenerate else ""
        print(f"accepted: case {result.case_tag}{d_str}, c = {c_str}{note}")
    return 0


def _cmd_verify(args) -> int:
    try:
        _check_bound(args.bound)
        rt = _parse_against(args.against)
        with open(args.gens, encoding="utf-8") as handle:
            gs = parse_generator_file(handle.read(), args.n)
        formula = quotient_character(rt, args.n, args.bound)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    compare_bound = formula.top_degree() + 1 if formula.exact else args.bound
    try:
        oracle_side = quotient_graded_character(gs, compare_bound)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    degrees = []
    all_match = True
    for d in range(compare_bound + 1):
        match = formula.coefficient(d) == oracle_side.coefficient(d)
        all_match &= match
        degrees.append((d, match))
    if args.json:
        payload = {
            "schema": SCHEMA,
            "command": "verify",
            "n": args.n,
            "against": rt.to_json(),
            "generator_degrees": list(gs.degrees),
            "compare_bound": compare_bound,
            "degrees": [{"degree": d, "match": m} for d, m in degrees],
            "match": all_match,
        }
        print(json.dumps(payload, ensure_ascii=False, indent=2))
        return 0 if all_match else 1
    print(f"n = {args.n}, generators of degrees {tuple(gs.degrees)}")
    print(f"against: case {rt.case_tag}, d = {rt.special_degree}, c = {rt.trivial_degrees}")
    for d, match in degrees:
        if match:
            print(f"degree {d}: MATCH")
        else:
            print(
                f"degree {d}: MISMATCH formula={formula.coefficient(d).to_json()} "
                f"oracle={oracle_side.coefficient(d).to_json()}"
            )
    print("RESULT: " + ("MATCH" if all_match else "MISMATCH"))
    return 0 if all_match else 1


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


def _chi_label(lam: Partition) -> str:
    return "χ[" + ",".join(str(p) for p in lam) + "]"


def _character_table_text(n: int) -> str:
    classes = _class_order(n)
    rows = partitions_of(n)
    head = ["class size", "representative"]
    body_labels = [_chi_label(lam) for lam in rows]
    label_width = max(len(s) for s in head + body_labels)
    columns = []
    for mu in classes:
        entries = [str(class_size(mu)), _class_label(mu)]
        entries += [str(irreducible_character(lam).value(mu)) for lam in rows]
        columns.append(entries)
    widths = [max(len(e) for e in col) for col in columns]
    lines = [f"Character table of S_{n}"]
    for r, label in enumerate(head):
        cells = " ".join(col[r].rjust(w) for col, w in zip(columns, widths))
        lines.append(f"{label.ljust(label_width)} | {cells}")
    lines.append("-" * label_width + "-+-" + "-" * (sum(widths) + len(widths) - 1))
    for r, label in enumerate(body_labels):
        cells = " ".join(col[r + 2].rjust(w) for col, w in zip(columns, widths))
        lines.append(f"{label.ljust(label_width)} | {cells}")
    return "\n".join(lines)


def _kostka_table_text(n: int) -> str:
    column = Partition([1] * n)
    lines = [f"Modified Kostka-Foulkes polynomials K~(λ, {column}):"]
    labels = ["K~" + "[" + ",".join(str(p) for p in lam) + "]" for lam in partitions_of(n)]
    width = max(len(s) for s in labels)
    for lam, label in zip(partitions_of(n), labels):
        lines.append(f"{label.ljust(width)} = {kostka_foulkes_tilde(lam, column)!r}")
    return "\n".join(lines)


def _cmd_tables(args) -> int:
    if args.n < 1:
        print("error: need n >= 1", file=sys.stderr)
        return 2
    n = args.n
    if args.json:
        column = Partition([1] * n)
        payload = {
            "schema": SCHEMA,
            "command": "tables",
            "n": n,
            "classes": [
                {
                    "cycle_type": list(mu),
                    "size": class_size(mu),
                    "representative": _class_label(mu),
                }
                for mu in _class_order(n)
            ],
            "characters": {
                ",".join(str(p) for p in lam): [
                    irreducible_character(lam).value(mu) for mu in _class_order(n)
                ]
                for lam in partitions_of(n)
            },
            "kostka_foulkes_tilde": {
                ",".join(str(p) for p in lam): kostka_foulkes_tilde(lam, column).to_json()
                for lam in partitions_of(n)
            },
        }
        print(json.dumps(payload, ensure_ascii=False, indent=2))
        return 0
    print(_character_table_text(n))
    print()
    print(_kostka_table_text(n))
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


def _examples_text() -> str:
    from .graded import coinvariant_character, polynomial_ring_character

    lines: list[str] = []
    lines.append("Example 1: the coinvariant algebra of S_4")
    lines.append(_kostka_table_text(4))
    lines.append("graded character of the coinvariant algebra:")
    lines.append("  " + coinvariant_character(4).pretty())
    lines.append("graded character of the polynomial ring through t^4:")
    lines.append("  " + polynomial_ring_character(4, 4).pretty())
    for idx, ex in enumerate(WORKED_EXAMPLES, start=2):
        rt = ex["rt"]
        g = quotient_character(rt, 4)
        report = socle_analysis(g)
        kind = "trivial" if report.top_is_trivial else "alternating"
        lines.append("")
        lines.append(f"Example {idx}: {ex['title']}")
        lines.append(f"generators: {ex['gens']}")
        d_str = "" if rt.special_degree is None else f", d = {rt.special_degree}"
        lines.append(
            f"type: case {rt.case_tag}{d_str}, c = ("
            + ",".join(str(c) for c in rt.trivial_degrees)
            + ")"
        )
        lines.append("quotient character:")
        lines.append("  " + g.pretty())
        lines.append(f"socle: degree {report.top_degree}, {kind}")
    return "\n".join(lines)


def _cmd_examples(args) -> int:
    if args.json:
        from .graded import coinvariant_character, polynomial_ring_character

        payload = {
            "schema": SCHEMA,
            "command": "examples",
            "coinvariant_character": coinvariant_character(4).to_json(),
            "polynomial_ring_character_bound4": polynomial_ring_character(4, 4).to_json(),
            "kostka_foulkes_tilde": {
                ",".join(str(p) for p in lam): kostka_foulkes_tilde(
                    lam, Partition([1, 1, 1, 1])
                ).to_json()
                for lam in partitions_of(4)
            },
            "quotients": [],
        }
        for ex in WORKED_EXAMPLES:
            g = quotient_character(ex["rt"], 4)
            report = socle_analysis(g)
            payload["quotients"].append(
                {
                    "name": ex["name"],
                    "generators": ex["gens"],
                    "type": ex["rt"].to_json(),
                    "graded_character": g.to_json(),
                    "hilbert_series": hilbert_series(g),
                    "socle": "trivial" if report.top_is_trivial else "alternating",
                }
            )
        print(json.dumps(payload, ensure_ascii=False, indent=2))
        return 0
    print(_examples_text())
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
    return handlers[args.subcommand](args)


if __name__ == "__main__":
    sys.exit(main())
