"""One workload run, in its own process; started by run.py.

Set-up imports symci from the checkout's src/ and builds every round of
inputs, then prints READY.  The parent times set-up up to that line, and
the child then times the host-speed calibration (speed.py) that set-up
is scaled by.  With --setup-only the child exits there.  Otherwise it
sends queries one at a time (closed loop, one client) in whole rounds
for --seconds, each right after a calibration of its own, and prints one
JSON line with its measurements.  With --frontier
it only sweeps n for the workload's n-frontier, in a process of its own
so that the sweep leaves the mix's peak memory alone.

Before every query all symci modules are dropped from sys.modules and
imported again, untimed, so each query pays the cold cost a fresh symci
process pays.  With --trace 1 every query runs twice, untraced and then
traced, so the tracing overhead is measured on the same queries.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from functools import partial
from pathlib import Path

import checks

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

FRONTIER_MAX_N = 24
SETUP_CALIBRATIONS = 5


class Cutoff(BaseException):
    """Raised by SIGALRM when a query runs past its budget."""


def _alarm(signum, frame):
    raise Cutoff()


def reset_symci():
    """Drop every symci module and import the package again; return
    (symci.cli, symci.oracle) from the fresh import.

    The dropped modules, and the caches they hold, sit in reference cycles;
    collecting them here keeps their garbage out of the next query's timed
    garbage collections, as in a fresh process.
    """
    for name in [m for m in sys.modules if m == "symci" or m.startswith("symci.")]:
        del sys.modules[name]
    gc.collect()
    return importlib.import_module("symci.cli"), importlib.import_module("symci.oracle")


def import_symci_from_checkout() -> None:
    sys.path.insert(0, str(SRC))
    cli, _ = reset_symci()
    origin = Path(cli.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"symci was imported from {origin}, not from {SRC}")


def call(query: workloads.Query, cli, oracle):
    """Run one query; return (output, exit code)."""
    if query.argv is None:
        with open(query.path, encoding="utf-8") as handle:
            gs = oracle.parse_generator_file(handle.read(), query.n)
        return oracle.is_regular_sequence(gs), 0
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(query.argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), code


def timed(query, budget_s: float, recorder=None):
    """Fresh modules and a calibration, then one timed call under a
    SIGALRM budget.

    Returns (seconds, calibration seconds, failure reason or None).
    Cutoff propagates.
    """
    cli, oracle = reset_symci()
    calibration = speed.calibrate()
    if recorder is not None:
        spans.install(recorder)
    signal.setitimer(signal.ITIMER_REAL, max(budget_s, 0.001))
    try:
        if recorder is None:
            start = time.perf_counter()
            output, code = call(query, cli, oracle)
            seconds = time.perf_counter() - start
        else:
            (output, code), seconds = recorder.query(lambda: call(query, cli, oracle))
    except Exception as exc:  # a query that raises is a failed query
        return 0.0, calibration, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if code != 0:
        return seconds, calibration, f"exit code {code}"
    try:
        return seconds, calibration, query.check(output)
    except Exception as exc:  # malformed output fails the check
        return seconds, calibration, f"check raised {type(exc).__name__}: {exc}"


def _coinvariant_regular(workdir: Path, n: int) -> workloads.Query:
    path = workdir / f"frontier-coinv{n}.gens"
    path.write_text("".join(f"e{k}\n" for k in range(1, n + 1)))
    degrees = list(range(1, n + 1))
    return workloads.Query(f"regular-coinv{n}", partial(checks.check_regular, degrees, n), path=str(path), n=n)


# The n-frontier of each workload: (per-query budget in s, step of the n
# ladder from 4, query at n).  The host's CPU speed drifts by up to 40 %
# between runs, so each budget sits near the geometric mean of today's
# costs at the frontier n and at the next rung, with both costs at least
# 1.5x away; the formula and long-series ladders step n by 2 to get there.
FRONTIERS = {
    # cold case-I text query, c = 1..n: 0.4 to 0.55 s at n = 8, 2.0 to 2.7 s at n = 10
    "formula": (1.1, 2, lambda n, _: workloads.character_query("I", None, range(1, n + 1), n, None, False)),
    # case III, d = 2, text, bound 200: 0.65 to 0.95 s at n = 6, 2.3 to 3.2 s at n = 8
    "long-series": (1.45, 2, lambda n, _: workloads.character_query("III", 2, [], n, 200, False)),
    # regularity of e1..en: 2 to 4 s at n = 5, and over 10 min at n = 6
    "oracle": (8.0, 1, lambda n, workdir: _coinvariant_regular(workdir, n)),
}


def frontier(workload: str, workdir: Path, deadline: float) -> tuple[int, int, list[str]]:
    """Largest n on the ladder whose cold query finishes within the budget.

    Returns (frontier, checked queries, failures).  The query that hits
    the budget ends the sweep and is neither attempted nor failed.
    """
    budget_s, step, make = FRONTIERS[workload]
    best, done, failures = 0, 0, []
    for n in range(4, FRONTIER_MAX_N + 1, step):
        budget = min(budget_s, deadline - time.monotonic())
        if budget <= 0:
            break
        query = make(n, workdir)
        try:
            _, _, bad = timed(query, budget)
        except Cutoff:
            break
        done += 1
        if bad:
            failures.append(f"{query.label}: {bad}")
            break
        best = n
    return best, done, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    ap.add_argument("--limit", type=float, default=140.0, help="hard cap on the child's run time (s)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--frontier", action="store_true", help="run only the n-frontier sweep")
    args = ap.parse_args(argv)

    started = time.monotonic()
    hard = started + args.limit
    import_symci_from_checkout()
    signal.signal(signal.SIGALRM, _alarm)
    if args.frontier:
        n, done, failures = frontier(args.workload, Path(args.workdir), hard)
        print(json.dumps({"n_frontier": n, "attempted": done, "failures": failures}))
        return 0
    rounds = workloads.build(args.workload, args.seed, Path(args.workdir))
    print("READY", flush=True)
    setup_calibration = statistics.median(speed.calibrate() for _ in range(SETUP_CALIBRATIONS))
    if args.setup_only:
        print(json.dumps({"setup_calibration": setup_calibration}))
        return 0

    recorder = spans.Recorder() if args.trace else None
    end = time.monotonic() + args.seconds
    passes = 2 if recorder else 1
    queries, runs, done_rounds = [], [], 0
    try:
        while time.monotonic() < end:
            for query in rounds[done_rounds % len(rounds)]:
                row = []
                queries.append(query)
                runs.append(row)
                row.append(timed(query, hard - time.monotonic()))
                if recorder is not None:
                    row.append(timed(query, hard - time.monotonic(), recorder))
            done_rounds += 1
            # the references of one round only, so that the harness's
            # share of peak memory does not grow with the rounds run
            checks.Expected.of.cache_clear()
    except Cutoff:
        pass  # the query it interrupted counts as failed

    failures = []
    for query, row in zip(queries, runs):
        bad = [b for _, _, b in row if b] or (["cut off at the run's time limit"] if len(row) < passes else [])
        if bad:
            failures.append(f"{query.label}: {bad[0]}")
    result = {
        "attempted": len(queries),
        "failures": failures,
        "rounds": done_rounds,
        "queries_per_round": len(rounds[0]),
        "setup_calibration": setup_calibration,
    }
    if recorder is not None:
        result["errors"] = spans.consistency_errors(recorder.spans)[:5]
        result["layers"] = spans.layer_metrics(recorder.spans, recorder.queries)
        done = [row for row in runs if len(row) == 2]
        # each call's time over its own calibration, so host drift cancels
        untraced, traced = (sum(row[k][0] / row[k][1] for row in done) for k in (0, 1))
        result["trace_overhead"] = traced / untraced - 1
        if args.spans:
            recorder.dump(args.spans)
    else:
        result["seconds"] = [row[0][0] for row in runs if row]
        result["calibrations"] = [row[0][1] for row in runs if row]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
