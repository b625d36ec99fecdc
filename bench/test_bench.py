"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import signal
import sys

import pytest

import checks
import child
import spans
import workloads
import speed
from run import END_TO_END, PER_LAYER, ROOT, percentile, scaled_queries

child.import_symci_from_checkout()

# ex2..ex5 of the bundled worked examples: per degree, irreducible multiplicities
EX_TYPES = {
    "ex2": (("I", None, (2, 3, 3, 4)), [
        {(4,): 1},
        {(4,): 1, (3, 1): 1},
        {(4,): 1, (3, 1): 2, (2, 2): 1},
        {(3, 1): 3, (2, 2): 1, (2, 1, 1): 1},
        {(3, 1): 2, (2, 2): 2, (2, 1, 1): 2},
        {(3, 1): 1, (2, 2): 1, (2, 1, 1): 3},
        {(2, 2): 1, (2, 1, 1): 2, (1, 1, 1, 1): 1},
        {(2, 1, 1): 1, (1, 1, 1, 1): 1},
        {(1, 1, 1, 1): 1},
    ]),
    "ex3": (("II", 6, (2, 2, 3)), [
        {(4,): 1},
        {(4,): 1, (3, 1): 1},
        {(3, 1): 2, (2, 2): 1},
        {(3, 1): 2, (2, 2): 1, (2, 1, 1): 1},
        {(4,): 1, (3, 1): 1, (2, 2): 1, (2, 1, 1): 2},
        {(4,): 1, (3, 1): 1, (2, 2): 1, (2, 1, 1): 2},
        {(3, 1): 2, (2, 2): 1, (2, 1, 1): 1},
        {(3, 1): 2, (2, 2): 1},
        {(4,): 1, (3, 1): 1},
        {(4,): 1},
    ]),
    "ex4": (("III", 2, (2,)), [
        {(4,): 1},
        {(4,): 1, (3, 1): 1},
        {(4,): 1, (3, 1): 1, (2, 2): 1},
        {(4,): 1, (3, 1): 1},
        {(4,): 1},
    ]),
    "ex5": (("IV", 2, (2, 3)), [
        {(4,): 1},
        {(4,): 1, (3, 1): 1},
        {(4,): 1, (3, 1): 2},
        {(4,): 1, (3, 1): 2},
        {(4,): 1, (3, 1): 1},
        {(4,): 1},
    ]),
}


def run_cli(argv):
    cli, oracle = child.reset_symci()
    return child.call(workloads.Query("t", None, argv=argv), cli, oracle)


@pytest.mark.parametrize("name", sorted(EX_TYPES))
def test_molien_matches_worked_expansions(name):
    (case, d, c), expansion = EX_TYPES[name]
    exp = checks.Expected(case, d, c, 4)
    assert exp.exact and exp.top == len(expansion) - 1
    vals = exp.values(len(expansion))
    for k, mults in enumerate(expansion):
        assert checks.decompose(4, {mu: vals[mu][k] for mu in vals}) == mults
    assert sum(vals[(1, 1, 1, 1)]) == exp.volume


def test_molien_series_that_does_not_terminate():
    exp = checks.Expected("III", 2, (), 4)
    assert not exp.exact
    # three quadrics in four variables: Hilbert series (1 + t)^3 / (1 - t)
    assert exp.values(6)[(1, 1, 1, 1)] == [1, 4, 7, 8, 8, 8]


def test_references_agree_with_symci_tables():
    from symci.characters import irreducible_character
    from symci.tableaux import kostka_foulkes_tilde

    for n in range(1, 8):
        column = (1,) * n
        for lam in checks.partitions(n):
            assert {mu: checks.chi(lam, mu) for mu in checks.partitions(n)} == {
                mu: irreducible_character(lam).value(mu) for mu in checks.partitions(n)
            }
            assert checks.kostka_tilde_column(lam) == kostka_foulkes_tilde(lam, column).coeffs


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("spec", [("IV", 2, (2, 3), 4), ("III", 2, (), 5), ("II", 10, (1, 2, 3, 4), 5)])
def test_character_checks_accept_symci_and_reject_a_changed_answer(spec, as_json):
    query = workloads.character_query(*spec[:3], spec[3], 12, as_json)
    out, code = run_cli(query.argv)
    assert code == 0 and query.check(out) is None
    if as_json:
        payload = json.loads(out)
        coeff = payload["graded_character"]["coeffs"][1]
        coeff[next(iter(coeff))] += 1
        changed = json.dumps(payload)
    else:
        changed = out.replace("·t^2", "·t^3", 1)
    assert query.check(changed) is not None


def test_same_seed_same_inputs(tmp_path):
    def snapshot(seed, where):
        where.mkdir()
        rounds = workloads.build("oracle", seed, where) + workloads.build("formula", seed, where)
        files = {p.name: p.read_text() for p in sorted(where.iterdir())}
        return [[(q.label, q.argv and [a.replace(str(where), "") for a in q.argv]) for q in r] for r in rounds], files

    first = snapshot(7, tmp_path / "a")
    assert first == snapshot(7, tmp_path / "b")
    assert first != snapshot(8, tmp_path / "c")


def test_generated_inputs_have_their_expected_answers(tmp_path):
    """Every classify verdict and every cheap oracle family holds as built."""
    rounds = workloads.build("formula", 3, tmp_path)[:2] + workloads.build("oracle", 3, tmp_path)[:1]
    checked = set()
    for query in (q for r in rounds for q in r):
        if query.label.startswith(("character-I-n9", "character-II-n9", "verify-coinv5", "regular-coinv5")):
            continue
        cli, oracle = child.reset_symci()
        out, code = child.call(query, cli, oracle)
        assert code == 0 and query.check(out) is None, query.label
        checked.add(query.label.split("-")[0])
    assert checked == {"character", "tables", "classify", "verify", "regular"}


def test_reset_gives_fresh_modules():
    cli, _ = child.reset_symci()
    sys.modules["symci.graded"].marker_set_before_reset = True
    child.reset_symci()
    assert not hasattr(sys.modules["symci.graded"], "marker_set_before_reset")


def test_cutoff_stops_a_query():
    signal.signal(signal.SIGALRM, child._alarm)
    query = workloads.character_query("I", None, range(1, 11), 10, None, False)
    with pytest.raises(child.Cutoff):
        child.timed(query, 0.05)


def test_traced_queries_nest_under_one_root(tmp_path):
    gens = tmp_path / "ex5.gens"
    gens.write_text("(x1 - x2)*(x3 - x4)\n(x1 - x3)*(x2 - x4)\ne2\ne1^3\n")
    recorder = spans.Recorder()
    queries = [
        workloads.character_query("III", 2, (2,), 4, None, False),
        workloads.Query("verify", lambda out: None, argv=[
            "verify", "--gens", str(gens), "--against", "case IV d=2 c=2,3"]),
    ]
    for query in queries:
        seconds, _, bad = child.timed(query, 60, recorder)
        assert bad is None
    assert recorder.queries == 2
    assert spans.consistency_errors(recorder.spans) == []
    selfs = spans.self_times(recorder.spans)
    for qid in (1, 2):
        root = next(s for s in recorder.spans if s[4] == qid and s[3] < 0)
        total = sum(t for s, t in zip(recorder.spans, selfs) if s[4] == qid)
        assert total == root[2] - root[1]
    names = {s[0] for s in recorder.spans}
    assert {"cli.main", "graded.quotient_character", "linalg.echelon", "characters.decompose"} <= names
    metrics = spans.layer_metrics(recorder.spans, recorder.queries)
    assert {m[0] for m in PER_LAYER} - {"trace.overhead_ratio"} <= set(metrics)
    assert 0 < metrics["oracle.slice_fill_ratio"] <= 1


def test_consistency_flags_a_span_outside_its_parent():
    bad = [["query", 0, 10, -1, 1, None], ["cli.main", 5, 12, 0, 1, None]]
    assert spans.consistency_errors(bad)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
    ]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values[:11], 90) == 10


def test_scaling_follows_the_calibrations_around_a_query():
    ref = speed.REFERENCE_S
    assert scaled_queries([0.1] * 3, [ref] * 3) == pytest.approx([0.1] * 3)
    # a slow stretch doubles both the queries and the calibrations in it
    seconds = [0.1] * 10 + [0.2] * 10
    calibrations = [ref] * 10 + [2 * ref] * 10
    scaled = scaled_queries(seconds, calibrations)
    assert scaled[:5] + scaled[-5:] == pytest.approx([0.1] * 10)
