"""Steadiness check: two sets of untraced runs of the same code.

    python3 bench/steady.py --runs 10

Each of the two sets runs every workload --runs times for BENCHMARK.json's
run_seconds, each time with a new seed (the sets use different seeds),
one run at a time.  For every end-to-end metric and workload it prints
each set's median and spread, the spread being (Q3 - Q1) / median of the
set's values as statistics.quantiles gives the quartiles, and how much
worse the second median is than the first.  A metric passes when both
spreads stay within its bound and the second median is not worse than
the first by more than the bound.  Exit code 1 when something does not
pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, ROOT, TAIL_PCT

SETS = 2


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} gave wrong answers:\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values = {(s, w): [] for s in range(SETS) for w in TAIL_PCT}
    for s in range(SETS):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in TAIL_PCT:
                values[s, w].append(one_run(w, seed, seconds))
                shown = " ".join(f"{k}={v:.4g}" for k, v in values[s, w][-1].items())
                print(f"set {s + 1} run {i + 1}/{args.runs} {w} seed {seed}: {shown}", file=sys.stderr)

    passed = True
    print(
        f"{'workload':12s} {'metric':15s} {'median1':>10s} {'spread1':>8s}"
        f" {'median2':>10s} {'spread2':>8s} {'worse':>7s} {'bound':>6s}  verdict"
    )
    for w in TAIL_PCT:
        for name, _, better, bound in END_TO_END:
            cols = [[run[name] for run in values[s, w]] for s in range(SETS)]
            meds = [statistics.median(c) for c in cols]
            spreads = [spread(c) for c in cols]
            shift = worse_by(meds[0], meds[1], better)
            ok = all(sp <= bound for sp in spreads) and shift <= bound
            passed &= ok
            quiet = all(sp < bound / 3 for sp in spreads)
            verdict = ("ok" if quiet else "ok, spread above bound/3") if ok else "FAIL"
            print(
                f"{w:12s} {name:15s} {meds[0]:10.4g} {spreads[0]:8.3f}"
                f" {meds[1]:10.4g} {spreads[1]:8.3f} {shift:7.3f} {bound:6.3g}  {verdict}"
            )
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
