"""Independent reference math and answer checkers for the benchmark.

Nothing here imports symci.  Expected quotient characters come from
Molien's formula, one cycle type at a time: at a permutation of cycle
type mu the quotient by a type with trivial degrees c and special
summand of degree d has the class value series

    prod_i (1 - t^c_i) * D_mu(t) / prod_j (1 - t^mu_j)

with D_mu = 1 (case I), 1 - sgn(mu) t^d (II),
prod_j (1 - t^(d mu_j)) / (1 - t^d) (III) and
1 - chi^(2,2)(mu) t^d + sgn(mu) t^(2d) (IV).  The character table comes
from the Murnaghan-Nakayama rule and the modified Kostka-Foulkes column
K~(lam, 1^n) from the q-hook formula, so a check never reuses the code
it checks.

Each `check_*` function returns None for a correct answer and a short
reason string otherwise.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, prod


# --- partitions and the character table -------------------------------------


@cache
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of n in reverse-lexicographic order, (n) first."""

    def rec(rest: int, top: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, top), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    return tuple(rec(n, n))


def key(mu) -> str:
    """The comma-joined label symci/1 JSON uses for a cycle type."""
    return ",".join(str(p) for p in mu)


def sign(mu) -> int:
    return (-1) ** (sum(mu) - len(mu))


def class_size(mu) -> int:
    z = 1
    for part, mult in Counter(mu).items():
        z *= part**mult * factorial(mult)
    return factorial(sum(mu)) // z


@cache
def chi(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama: strip a rim hook of length mu[0], recurse."""
    if not mu:
        return 1 if not lam else 0
    k, rest = mu[0], mu[1:]
    # beta set of lam: first-column hook lengths
    ell = len(lam)
    beta = {lam[i] + ell - 1 - i for i in range(ell)}
    total = 0
    for b in beta:
        if b - k < 0 or b - k in beta:
            continue
        height = sum(1 for x in beta if b - k < x < b)
        nbeta = sorted((beta - {b}) | {b - k}, reverse=True)
        nlam = tuple(x - (ell - 1 - i) for i, x in enumerate(nbeta))
        total += (-1) ** height * chi(tuple(p for p in nlam if p), rest)
    return total


def decompose(n: int, values: dict) -> dict[tuple[int, ...], int]:
    """Irreducible multiplicities of a virtual character given by class values."""
    out = {}
    for lam in partitions(n):
        m = Fraction(
            sum(class_size(mu) * chi(lam, mu) * values.get(mu, 0) for mu in partitions(n)),
            factorial(n),
        )
        if m.denominator != 1:
            raise ValueError(f"not a virtual character at {lam}")
        if m:
            out[lam] = int(m)
    return out


# --- integer polynomials in t, as coefficient lists -------------------------


def pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def one_minus(k: int, coeff: int = 1) -> list[int]:
    """1 - coeff * t^k."""
    p = [0] * (k + 1)
    p[0] = 1
    p[k] -= coeff
    return p


def trim(p: list[int]) -> list[int]:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def series_quotient(num: list[int], den: list[int], length: int) -> list[int]:
    """First `length` power-series coefficients of num/den (den[0] == 1)."""
    out = [0] * length
    for k in range(length):
        v = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            v -= den[j] * out[k - j]
        out[k] = v
    return out


def exact_quotient(num: list[int], den: list[int]) -> list[int] | None:
    """num/den as a polynomial when den divides num over Z, else None."""
    num, den = trim(num), trim(den)
    if len(den) > len(num):
        return None if any(num) else [0]
    q = series_quotient(num, den, len(num) - len(den) + 1)
    return trim(q) if trim(pmul(q, den)) == num else None


# --- the type of a generating space ------------------------------------------


def generator_degrees(case: str, d: int | None, c, n: int) -> tuple[int, ...]:
    head = {"I": (), "II": (d,), "III": (d,) * (n - 1), "IV": (d, d)}[case]
    return tuple(head) + tuple(c)


def molien(case: str, d: int | None, c, mu: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Numerator and denominator of the class-mu value series."""
    num = [1]
    for ci in c:
        num = pmul(num, one_minus(ci))
    if case == "II":
        num = pmul(num, one_minus(d, sign(mu)))
    elif case == "III":
        top = [1]
        for part in mu:
            top = pmul(top, one_minus(d * part))
        num = pmul(num, exact_quotient(top, one_minus(d)))
    elif case == "IV":
        p = [0] * (2 * d + 1)
        p[0], p[d], p[2 * d] = 1, -chi((2, 2), mu), sign(mu)
        num = pmul(num, p)
    den = [1]
    for part in mu:
        den = pmul(den, one_minus(part))
    return num, den


class Expected:
    """The exact quotient character of a type, class by class.

    `poly[mu]` is the class-mu value polynomial when every class series
    terminates (the quotient is artinian), and None otherwise.
    """

    def __init__(self, case: str, d: int | None, c, n: int):
        self.case, self.d, self.c, self.n = case, d, tuple(sorted(c)), n
        self.fractions = {mu: molien(case, d, self.c, mu) for mu in partitions(n)}
        polys = {mu: exact_quotient(*nd) for mu, nd in self.fractions.items()}
        self.exact = all(p is not None for p in polys.values())
        self.poly = polys if self.exact else None
        degrees = generator_degrees(case, d, self.c, n)
        self.volume = prod(degrees)
        self.top = sum(degrees) - len(degrees) if self.exact else None

    @staticmethod
    @cache
    def of(case: str, d: int | None, c: tuple[int, ...], n: int) -> "Expected":
        """A cached instance; the child clears the cache after each round."""
        return Expected(case, d, c, n)

    def values(self, length: int) -> dict[tuple[int, ...], list[int]]:
        """Class-value series through degree length - 1."""
        if self.exact:
            return {mu: (p + [0] * length)[:length] for mu, p in self.poly.items()}
        return {mu: series_quotient(num, den, length) for mu, (num, den) in self.fractions.items()}


# --- symci/1 payload checks ---------------------------------------------------


def _coeff_values(coeff: dict) -> dict[tuple[int, ...], int]:
    return {tuple(int(p) for p in k.split(",")): v for k, v in coeff.items()}


def check_graded(exp: Expected, graded: dict, bound: int) -> str | None:
    """The graded-character JSON against the Molien expansion."""
    if graded["n"] != exp.n:
        return "wrong n"
    if graded["exact"] != exp.exact:
        return f"exact flag {graded['exact']}, Molien says {exp.exact}"
    want_bound = exp.top if exp.exact else bound
    if graded["bound"] != want_bound or len(graded["coeffs"]) != want_bound + 1:
        return f"bound {graded['bound']}, expected {want_bound}"
    vals = exp.values(want_bound + 1)
    for k, coeff in enumerate(graded["coeffs"]):
        got = _coeff_values(coeff)
        for mu in partitions(exp.n):
            if got.get(mu, 0) != vals[mu][k]:
                return f"degree {k}, class {key(mu)}: {got.get(mu, 0)} != {vals[mu][k]}"
    return None


def hilbert(exp: Expected, bound: int) -> list[int]:
    length = (exp.top if exp.exact else bound) + 1
    return exp.values(length)[(1,) * exp.n]


def socle_kind(exp: Expected) -> str | None:
    """Trivial/alternating/other for a one-dimensional top piece, else None."""
    top = {mu: p[exp.top] for mu, p in exp.poly.items()}
    if top[(1,) * exp.n] != 1:
        return None
    if all(v == 1 for v in top.values()):
        return "trivial"
    if all(v == sign(mu) for mu, v in top.items()):
        return "alternating"
    return "other"


def check_character_json(spec: tuple, bound: int, out: str) -> str | None:
    """`spec` is (case, d, c, n)."""
    exp = Expected.of(*spec)
    p = json.loads(out)
    if (p["schema"], p["command"], p["n"], p["case"]) != ("symci/1", "character", exp.n, exp.case):
        return "wrong header fields"
    if p["d"] != exp.d or p["c"] != list(exp.c):
        return "wrong type echo"
    bad = check_graded(exp, p["graded_character"], bound)
    if bad:
        return bad
    dims = hilbert(exp, bound)
    if p["hilbert_series"] != dims:
        return "hilbert series differs"
    if exp.exact:
        if sum(dims) != exp.volume:
            return f"Hilbert sum {sum(dims)} != product of degrees {exp.volume}"
        if p.get("top_degree") != exp.top:
            return "wrong top degree"
        if p.get("socle") != socle_kind(exp):
            return f"socle {p.get('socle')}, expected {socle_kind(exp)}"
    elif "top_degree" in p or "socle" in p:
        return "truncated answer reports a top degree"
    return None


def chi_label(lam) -> str:
    return "χ[" + ",".join(str(p) for p in lam) + "]"


def pretty(n: int, series: list[dict], exact: bool) -> str:
    """The text rendering of a graded character, from class-value dicts."""
    pieces = []
    for k, values in enumerate(series):
        mults = decompose(n, values)
        if not mults:
            continue
        terms = []
        for lam in partitions(n):
            m = mults.get(lam, 0)
            if not m:
                continue
            term = chi_label(lam) if abs(m) == 1 else f"{abs(m)}{chi_label(lam)}"
            if terms or m < 0:
                term = ("+" if m > 0 else "-") + term
            terms.append(term)
        body = "".join(terms)
        if len(mults) > 1 or body.startswith("-"):
            body = f"({body})"
        pieces.append(body if k == 0 else f"{body}·t" if k == 1 else f"{body}·t^{k}")
    out = " + ".join(pieces) or "0"
    return out if exact else out + " + ..."


def check_character_text(spec: tuple, bound: int, out: str) -> str | None:
    exp = Expected.of(*spec)
    length = (exp.top if exp.exact else bound) + 1
    vals = exp.values(length)
    series = [{mu: vals[mu][k] for mu in partitions(exp.n)} for k in range(length)]
    d_str = "" if exp.d is None else f", d = {exp.d}"
    lines = [
        f"n = {exp.n}, case {exp.case}{d_str}, c = ({','.join(map(str, exp.c))})",
        "character: " + pretty(exp.n, series, exp.exact),
        "hilbert:   " + " ".join(str(v) for v in hilbert(exp, bound)),
    ]
    if exp.exact:
        top = f"top:       degree {exp.top} (exact polynomial)"
        kind = socle_kind(exp)
        lines.append(top if kind is None else f"{top}; socle: {kind}")
    else:
        lines.append(f"top:       truncated at degree {bound} (series does not terminate there)")
    got = out.rstrip("\n").split("\n")
    for i, want in enumerate(lines):
        if i >= len(got) or got[i] != want:
            return f"text line {i + 1} differs"
    if len(got) != len(lines):
        return "extra text lines"
    if exp.exact and sum(hilbert(exp, bound)) != exp.volume:
        return "Hilbert sum differs from the product of degrees"
    return None


# --- tables -------------------------------------------------------------------


def hook_lengths(lam) -> list[int]:
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    return [lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])]


def kostka_tilde_column(lam) -> dict[int, int]:
    """K~(lam, 1^n)(t) by the q-hook formula, flipped about n(n-1)/2.

    K(lam, 1^n)(t) = t^n(lam') prod_{i<=n} (1 - t^i) / prod_hooks (1 - t^h).
    """
    n = sum(lam)
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])]
    shift = sum(i * p for i, p in enumerate(conj))
    num = [1]
    for i in range(1, n + 1):
        num = pmul(num, one_minus(i))
    den = [1]
    for h in hook_lengths(lam):
        den = pmul(den, one_minus(h))
    q = exact_quotient(num, den)
    top = n * (n - 1) // 2
    return {top - (e + shift): v for e, v in enumerate(q) if v}


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Cycle type of a representative written as "(1 2)(3 4)" or "1"."""
    if text == "1":
        return (1,) * n
    cycles = [c.split() for c in re.findall(r"\(([\d ]+)\)", text)]
    if "".join(f"({' '.join(c)})" for c in cycles) != text:
        raise ValueError(f"bad representative {text!r}")
    moved = [int(v) for c in cycles for v in c]
    if len(set(moved)) != len(moved) or not all(1 <= v <= n for v in moved):
        raise ValueError(f"bad representative {text!r}")
    lengths = [len(c) for c in cycles] + [1] * (n - len(moved))
    return tuple(sorted(lengths, reverse=True))


def parse_tpoly(text: str) -> dict[int, int]:
    """Parse the "t + 2t^3 - t^4" rendering of an integer polynomial."""
    out: dict[int, int] = {}
    if text == "0":
        return out
    for sgn, coeff, var, exp in re.findall(r"(^-|[+-] |^)(\d*)(t?)(?:\^(\d+))?(?: |$)", text):
        c = int(coeff) if coeff else 1
        e = (int(exp) if exp else 1) if var else 0
        out[e] = -c if sgn.startswith("-") else c
    return out


def check_tables_json(n: int, out: str) -> str | None:
    p = json.loads(out)
    if (p["schema"], p["command"], p["n"]) != ("symci/1", "tables", n):
        return "wrong header fields"
    order = [tuple(cl["cycle_type"]) for cl in p["classes"]]
    if sorted(order) != sorted(partitions(n)):
        return "classes are not the cycle types"
    for cl in p["classes"]:
        mu = tuple(cl["cycle_type"])
        if cl["size"] != class_size(mu) or parse_cycles(cl["representative"], n) != mu:
            return f"class {key(mu)} has the wrong size or representative"
    if set(p["characters"]) != {key(lam) for lam in partitions(n)}:
        return "character rows are not the irreducibles"
    for lam in partitions(n):
        if p["characters"][key(lam)] != [chi(lam, mu) for mu in order]:
            return f"character row {key(lam)} differs"
        got = {int(e): v for e, v in p["kostka_foulkes_tilde"][key(lam)].items()}
        if got != kostka_tilde_column(lam):
            return f"K~ of {key(lam)} differs"
    return None


def check_tables_text(n: int, out: str) -> str | None:
    lines = out.rstrip("\n").split("\n")
    if lines[0] != f"Character table of S_{n}":
        return "wrong table title"
    body = {line.split(" | ")[0].strip(): line.split(" | ", 1)[1] for line in lines if " | " in line}
    reps = re.findall(r"(?:\(\d+(?: \d+)*\))+|(?<!\S)1(?!\S)", body["representative"])
    order = [parse_cycles(r, n) for r in reps]
    if sorted(order) != sorted(partitions(n)):
        return "representatives are not the cycle types"
    if [int(v) for v in body["class size"].split()] != [class_size(mu) for mu in order]:
        return "class sizes differ"
    for lam in partitions(n):
        if [int(v) for v in body[chi_label(lam)].split()] != [chi(lam, mu) for mu in order]:
            return f"character row {key(lam)} differs"
    column = ",".join(["1"] * n)
    start = lines.index(f"Modified Kostka-Foulkes polynomials K~(λ, ({column})):")
    kt = lines[start + 1 :]
    if len(kt) != len(partitions(n)):
        return "wrong number of K~ lines"
    for lam, line in zip(partitions(n), kt):
        label, poly = line.split(" = ")
        if label.strip() != f"K~[{key(lam)}]" or parse_tpoly(poly) != kostka_tilde_column(lam):
            return f"K~ line of {key(lam)} differs"
    return None


# --- classify, verify, regularity --------------------------------------------


def check_classify(expected: dict, as_json: bool, out: str) -> str | None:
    """`expected` is {"rule": label} or {"case", "d", "c"}."""
    if as_json:
        p = json.loads(out)
        if "rule" in expected:
            ok = p["result"] == "rejected" and p["rule"] == expected["rule"]
        else:
            ok = p["result"] == "accepted" and p["degenerate_small_n"] is False and all(
                p[k] == expected[k] for k in ("case", "d", "c")
            )
        return None if ok else f"classify answered {p.get('result')} {p.get('rule', p.get('case'))}"
    first = out.split("\n", 1)[0]
    if "rule" in expected:
        want = f"rejected by {expected['rule']}: "
        return None if first.startswith(want) else f"classify answered {first!r}"
    d_str = "" if expected["d"] is None else f", d = {expected['d']}"
    c_str = ",".join(str(v) for v in expected["c"])
    want = f"accepted: case {expected['case']}{d_str}, c = ({c_str})"
    return None if first == want else f"classify answered {first!r}"


def check_verify(degrees: list[int], top: int, as_json: bool, out: str) -> str | None:
    bound = top + 1
    if as_json:
        p = json.loads(out)
        ok = (
            p["match"] is True
            and p["generator_degrees"] == degrees
            and p["compare_bound"] == bound
            and p["degrees"] == [{"degree": k, "match": True} for k in range(bound + 1)]
        )
        return None if ok else "verify did not match on every degree"
    lines = out.rstrip("\n").split("\n")
    want = [f"degree {k}: MATCH" for k in range(bound + 1)] + ["RESULT: MATCH"]
    if lines[2:] != want or not lines[0].endswith(f"of degrees {tuple(degrees)}"):
        return "verify did not match on every degree"
    return None


def quotient_dims(degrees, n: int, length: int) -> list[int]:
    """Coefficients of prod (1 - t^c) / (1 - t)^n."""
    num = [1]
    for c in degrees:
        num = pmul(num, one_minus(c))
    den = [1]
    for _ in range(n):
        den = pmul(den, one_minus(1))
    return series_quotient(num, den, length)


def check_regular(degrees: list[int], n: int, report) -> str | None:
    horizon = sum(degrees) - n + 1
    dims = quotient_dims(degrees, n, horizon + 1)
    if not (report.ok and report.conclusive and report.horizon == horizon):
        return f"not certified regular: {report.message}"
    if list(report.actual) != dims or sum(dims) != prod(degrees):
        return "quotient dimensions differ from the product formula"
    return None
