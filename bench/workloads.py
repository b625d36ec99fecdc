"""Seeded inputs for the three workloads.

`build(workload, seed, workdir)` returns a list of rounds; a round is a
list of `Query`.  `random.Random(seed)` is the only source of
randomness, and symci only ever sees an argv list or a file written to
`workdir`.  Every expected answer holds by construction: a classify
multiset is assembled from a known type or from one violated rule, and a
generator file is a known regular family, each generator scaled by a
small constant.

A round fixes the mix; the seed varies the parameters inside it (which
degree is doubled, long degrees and bounds within +-10 %, multisets,
generator scalings, query order) and leaves the cost of a round nearly
unchanged, so runs with different seeds measure the same work.  Each
template has a fixed output format, text or --json, alternating along a
round's templates, so every round has the same composition.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

ROUNDS = 8  # distinct rounds made during set-up; a long run cycles through them


@dataclass
class Query:
    """One closed-loop request.

    `argv` goes to `symci.cli.main`; with `argv` None the query parses
    `path` with `symci.oracle.parse_generator_file` and runs
    `is_regular_sequence`.  `check(output)` returns None or a reason,
    where `output` is the captured stdout, or the regularity report.
    """

    label: str
    check: Callable
    argv: list[str] | None = None
    path: str | None = None
    n: int = 0


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _one_doubled(rng: random.Random, degrees: list[int]) -> list[int]:
    """Degrees of e_1..e_k with one e_i squared: still a regular sequence."""
    out = list(degrees)
    out[rng.randrange(len(out))] *= 2
    return out


def character_query(case, d, c, n, bound, as_json) -> Query:
    argv = ["character", "--n", str(n), "--case", case, "--c", _csv(c)]
    if d is not None:
        argv += ["--d", str(d)]
    if bound is not None:
        argv += ["--bound", str(bound)]
    spec = (case, d, tuple(sorted(c)), n)
    bound = 10 if bound is None else bound
    fn = checks.check_character_json if as_json else checks.check_character_text
    fmt = "json" if as_json else "text"
    return Query(
        f"character-{case}-n{n}-{fmt}",
        partial(fn, spec, bound),
        argv + ["--json"] * as_json,
    )


# --- formula -----------------------------------------------------------------


def _classify_cases(rng: random.Random) -> list[tuple[int, list, dict]]:
    """(n, summands, expected) for one multiset per accepted case and per rule."""
    out = []
    for case in ("I", "II", "III", "IV"):
        n = 4 if case == "IV" else rng.randint(4, 9)
        dim = {"I": 0, "II": 1, "III": n - 1, "IV": 2}[case]
        lo = 1 if case == "I" else 0
        c = sorted(rng.randint(1, 6) for _ in range(rng.randint(lo, n - dim)))
        d = None if case == "I" else rng.randint(1, 8)
        special = {"II": [1] * n, "III": [n - 1, 1], "IV": [2, 2]}.get(case)
        summands = [([n], v) for v in c] + ([(special, d)] if special else [])
        out.append((n, summands, {"case": case, "d": d, "c": c}))
    out.append((rng.randint(4, 9), [], {"rule": "empty"}))
    n = rng.randint(5, 9)
    nonhook = rng.choice([lam for lam in checks.partitions(n) if len(lam) > 1 and lam[1] > 1])
    out.append((n, [(list(nonhook), 2)] + [([n], 1)] * rng.randint(0, 2), {"rule": "Corollary 1"}))
    n = rng.randint(4, 9)
    b = rng.randint(2, n - 2)
    out.append((n, [([n - b] + [1] * b, 3), ([n], 2)], {"rule": "Corollary 2"}))
    n = rng.randint(4, 9)
    out.append((n, [([1] * n, 2), ([n - 1, 1], 3)], {"rule": "Corollary 3"}))
    n = rng.randint(4, 9)
    out.append((n, [([n], rng.randint(1, 5)) for _ in range(n + 1)], {"rule": "length bound"}))
    return out


def formula_round(rng: random.Random, workdir: Path, tag: str) -> list[Query]:
    queries = []
    for n in range(4, 10):
        top = n * (n - 1) // 2
        # realizable types, so every answer is an exact polynomial
        types = [
            ("I", None, _one_doubled(rng, list(range(1, n + 1)))),
            ("II", top, _one_doubled(rng, list(range(1, n)))),
            ("III", 2, [rng.choice([2, 4])]),
        ]
        if n == 4:
            types.append(("IV", 2, [2, 3]))
        for i, (case, d, c) in enumerate(types):
            queries.append(character_query(case, d, c, n, None, (i + n) % 2 == 1))
        as_json = n % 2 == 1
        queries.append(
            Query(
                f"tables-n{n}-{'json' if as_json else 'text'}",
                partial(checks.check_tables_json if as_json else checks.check_tables_text, n),
                ["tables", "--n", str(n)] + ["--json"] * as_json,
            )
        )
    for i, (n, summands, expected) in enumerate(_classify_cases(rng)):
        rng.shuffle(summands)
        path = workdir / f"{tag}-ms{i}.json"
        body = [{"partition": lam, "degree": deg} for lam, deg in summands]
        path.write_text(json.dumps({"n": n, "summands": body}))
        as_json = i % 2 == 1
        queries.append(
            Query(
                f"classify-{expected.get('case') or expected['rule'].replace(' ', '-')}",
                partial(checks.check_classify, expected, as_json),
                ["classify", "--input", str(path)] + ["--json"] * as_json,
            )
        )
    return queries


# --- long-series --------------------------------------------------------------


def long_series_round(rng: random.Random, workdir: Path, tag: str) -> list[Query]:
    big = lambda: rng.randint(180, 220)  # noqa: E731 - one long degree or bound
    templates = [
        ("I", None, [1, 2, 3, big()], 4, None),
        ("I", None, [1, 2, 3, 4, big()], 5, None),
        ("I", None, [2, 3, big()], 4, big()),
        ("II", 4 * rng.randint(44, 54) + 2, [1, 2, 3], 4, None),  # d = 2 mod 4 terminates
        ("II", big(), [1, 2, 3, 4], 5, None),
        ("III", 2, [], 4, big()),
        ("III", 2, [], 5, big()),
        ("III", 2, [big()], 4, None),
        ("IV", 2, [2, big()], 4, None),
    ]
    return [
        character_query(case, d, c, n, bound, i % 2 == 1)
        for i, (case, d, c, n, bound) in enumerate(templates)
    ]


# --- oracle -------------------------------------------------------------------


def _scaled(rng: random.Random, gens: list[tuple[str, int]]) -> list[str]:
    """The generators, each times a small nonzero constant.

    The ideal is the same, and so is the elimination work, because the
    echelon divides every row by its content.  Generator order is kept:
    reordering moves the cost by up to 1.6x at n = 5.
    """
    out = []
    for text, _ in gens:
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        out.append(text if k == 1 else f"{k}*({text})")
    return out


def _families(rng: random.Random) -> list[tuple[str, int, list[tuple[str, int]], tuple]]:
    """(name, n, [(generator, degree)], (case, d, c)) for every regular family.

    Cold cost, best of three, verify / is_regular_sequence, in ms, on a
    2-vCPU Xeon (Sapphire Rapids) KVM guest with Python 3.11: ex2 64 / 47,
    ex3 142 / 109, ex5 17 / 10, coinv4 16 / 10, psum4 32 / 24, pow2-n4
    8 / 1.3, pow3-n4 14 / 6, pow2-n5 13 / 4, pow3-n5 117 / 37, e1sq-n4
    25 / 16, e2sq-n4 60 / 35, e3sq-n4 63 / 43, e4sq-n4 175 / 149, and
    coinv5 about 3000 / 2100.  Left out for cost: the power sums at n = 5
    (14 s for is_regular_sequence) and e1, e2, e3, e4, e5^2 at n = 5 (277 s).
    """
    products = ["(x1 - x2)*(x3 - x4)", "(x1 - x3)*(x2 - x4)", "(x1 - x4)*(x2 - x3)"]
    pair = [(p, 2) for p in rng.sample(products, 2)]  # any two span the (2,2) summand
    fams = [
        ("ex2", 4, [("e1^3", 3), ("e1^2 - e2", 2), ("e3", 3), ("e4", 4)], ("I", None, (2, 3, 3, 4))),
        ("ex3", 4, [("e1^2", 2), ("e2", 2), ("e3", 3), ("vdm", 6)], ("II", 6, (2, 2, 3))),
        ("ex5", 4, pair + [("e2", 2), ("e1^3", 3)], ("IV", 2, (2, 3))),
        ("coinv4", 4, [(f"e{k}", k) for k in range(1, 5)], ("I", None, (1, 2, 3, 4))),
        (
            "psum4",
            4,
            [(" + ".join(f"x{i}^{k}" for i in range(1, 5)), k) for k in range(1, 5)],
            ("I", None, (1, 2, 3, 4)),
        ),
    ]
    for n, k in ((4, 2), (4, 3), (5, 2), (5, 3)):
        gens = [(f"x{i}^{k}", k) for i in range(1, n + 1)]
        fams.append((f"pow{k}-n{n}", n, gens, ("III", k, (k,))))
    for k in range(1, 5):
        gens = [(f"e{j}^2" if j == k else f"e{j}", 2 * j if j == k else j) for j in range(1, 5)]
        fams.append((f"e{k}sq-n4", 4, gens, ("I", None, tuple(sorted(g for _, g in gens)))))
    fams.append(("coinv5", 5, [(f"e{k}", k) for k in range(1, 6)], ("I", None, (1, 2, 3, 4, 5))))
    return fams


def oracle_round(rng: random.Random, workdir: Path, tag: str) -> list[Query]:
    """Each family once per query type, except the coinvariant ideal at
    n = 5: its verify would add another 3 s to every round, and the
    n = 5 verify path is covered by the power families."""
    queries = []
    for idx, (name, n, gens, (case, d, c)) in enumerate(_families(rng)):
        path = workdir / f"{tag}-{name}.gens"
        path.write_text("".join(f"{text}\n" for text in _scaled(rng, gens)))
        degrees = [deg for _, deg in gens]
        check = partial(checks.check_regular, sorted(degrees), n)
        queries.append(Query(f"regular-{name}", check, path=str(path), n=n))
        if name == "coinv5":
            continue
        as_json = idx % 2 == 1
        against = f"case {case}" + (f" d={d}" if d is not None else "") + f" c={_csv(c)}"
        top = sum(checks.generator_degrees(case, d, c, n)) - n
        queries.append(
            Query(
                f"verify-{name}-{'json' if as_json else 'text'}",
                partial(checks.check_verify, degrees, top, as_json),
                ["verify", "--gens", str(path), "--against", against, "--n", str(n)]
                + ["--json"] * as_json,
            )
        )
    return queries


BUILDERS = {"formula": formula_round, "long-series": long_series_round, "oracle": oracle_round}


def build(workload: str, seed: int, workdir: Path) -> list[list[Query]]:
    rng = random.Random(seed)
    rounds = []
    for r in range(ROUNDS):
        queries = BUILDERS[workload](rng, workdir, f"r{r}")
        rng.shuffle(queries)
        rounds.append(queries)
    return rounds
