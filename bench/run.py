"""symci benchmark: one workload run, end-to-end or traced.

    python3 bench/run.py --workload formula --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it measures the symci found in
src/ there, and refuses to run (exit 2) without one.  It prints every
metric by name and unit, and as its last line one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  Every answer is
checked against references in checks.py that share no code with symci.

An untraced run starts the measuring child between two groups of
set-up-only children, and times each from its start until it has built
its inputs; setup_s is the median.  The measuring child sends queries one at
a time (closed loop, one client) for --seconds, rounded up to whole
rounds, and a last child sweeps the workload's n-frontier.  A traced run
starts one child that runs every query untraced and traced, and writes
its spans to .bench_out/.

The host's CPU speed drifts by up to 1.9x between runs, so every time
metric is scaled to a reference speed (speed.py): a query's time by the
median calibration of the nine queries around it, a set-up by the
calibration its child times right after it.  The notes give the
unscaled p50 and set-up time too.  The n-frontier budgets and the
per-layer times of a traced run are wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TOTAL_LIMIT_S = 170.0  # a run ends within 180 s
SETUP_RUNS = 4
TAIL_MIN_BEYOND = 10
CALIBRATION_WINDOW = 4  # queries on each side whose calibrations scale a query

# The tail percentile of each workload: the highest whole percentile with
# at least TAIL_MIN_BEYOND queries beyond it at today's query count.
TAIL_PCT = {"formula": 90, "long-series": 85, "oracle": 90}

# (name, unit, better, bound): the bound is the share of the parent's median
# by which a metric may get worse.
END_TO_END = [
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_tail_ms", "ms", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("ok_ratio", "ratio", "higher", 0.001),
    ("n_frontier", "n", "higher", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better): means per traced query, or ratios over the run
PER_LAYER = [
    ("tableaux.kostka_foulkes_tilde.calls", "count/query", "lower"),
    ("tableaux.kostka_foulkes_tilde.self_s", "s/query", "lower"),
    ("tableaux.tableaux_enumerated", "count/query", "lower"),
    ("characters.irreducible_character.self_s", "s/query", "lower"),
    ("characters.decompose.calls", "count/query", "lower"),
    ("characters.decompose.self_s", "s/query", "lower"),
    ("graded.quotient_character.calls", "count/query", "lower"),
    ("graded.quotient_character.self_s", "s/query", "lower"),
    ("graded.polynomial_ring_character.self_s", "s/query", "lower"),
    ("graded.GradedCharacter.__mul__.calls", "count/query", "lower"),
    ("graded.GradedCharacter.__mul__.self_s", "s/query", "lower"),
    ("graded.scale_by_cyclotomic.calls", "count/query", "lower"),
    ("graded.scale_by_cyclotomic.self_s", "s/query", "lower"),
    ("graded.GradedCharacter.pretty.self_s", "s/query", "lower"),
    ("graded.series_terms", "count/query", "lower"),
    ("graded.exact_ratio", "ratio", "higher"),
    ("classify.classify.calls", "count/query", "lower"),
    ("classify.classify.self_s", "s/query", "lower"),
    ("classify.accept_ratio", "ratio", "higher"),
    ("oracle.parse_generator_file.self_s", "s/query", "lower"),
    ("oracle.GeneratorSet.is_stable.self_s", "s/query", "lower"),
    ("oracle.ideal_degree_slice.calls", "count/query", "lower"),
    ("oracle.ideal_degree_slice.self_s", "s/query", "lower"),
    ("oracle.slice_rows", "count/query", "lower"),
    ("oracle.slice_cols", "count/query", "lower"),
    ("oracle.slice_rank", "count/query", "lower"),
    ("oracle.slice_fill_ratio", "ratio", "higher"),
    ("oracle.quotient_trace.calls", "count/query", "lower"),
    ("oracle.quotient_trace.self_s", "s/query", "lower"),
    ("oracle.quotient_graded_character.self_s", "s/query", "lower"),
    ("oracle.is_regular_sequence.self_s", "s/query", "lower"),
    ("linalg.echelon.calls", "count/query", "lower"),
    ("linalg.echelon.self_s", "s/query", "lower"),
    ("linalg.Echelon.ensure_reduced.self_s", "s/query", "lower"),
    ("linalg.Echelon.reduce.calls", "count/query", "lower"),
    ("linalg.Echelon.reduce.self_s", "s/query", "lower"),
    ("cli.main.self_s", "s/query", "lower"),
    ("query.self_s", "s/query", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class RunError(Exception):
    pass


class Child:
    """One child process of this run, with its own input directory."""

    def __init__(self, args, workdir: Path, deadline: float, *flags: str):
        limit = deadline - time.monotonic() - 2
        if limit <= 0:
            raise RunError("no time left for another child")
        self.dir = Path(tempfile.mkdtemp(dir=workdir))
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            f"--workload={args.workload}",
            f"--seed={args.seed}",
            f"--seconds={args.seconds}",
            f"--trace={args.trace}",
            f"--workdir={self.dir}",
            f"--limit={limit}",
            *flags,
        ]
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def ready(self) -> float:
        """Wait for the READY line; return seconds since the child started."""
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self.finish()
            raise RunError("child failed during set-up")
        return time.perf_counter() - self.started

    def finish(self) -> dict | None:
        """Wait for the child; parse its last output line, if it wrote one."""
        try:
            out, _ = self.proc.communicate(timeout=max(self.deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RunError("child ran past the time limit") from None
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        if self.proc.returncode != 0:
            raise RunError(f"child exited with code {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1]) if out.strip() else None


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile of unsorted values."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def to_reference(seconds: float, calibration: float) -> float:
    return seconds * speed.REFERENCE_S / calibration


def scaled_queries(seconds: list[float], calibrations: list[float]) -> list[float]:
    """Each query's time scaled by the median calibration around it."""
    w = CALIBRATION_WINDOW
    return [
        to_reference(s, statistics.median(calibrations[max(0, i - w) : i + w + 1]))
        for i, s in enumerate(seconds)
    ]


def setup_times(args, workdir: Path, deadline: float, count: int) -> list[tuple[float, float]]:
    """(wall, scaled) set-up seconds of `count` set-up-only children."""
    times = []
    for _ in range(count):
        child = Child(args, workdir, deadline, "--setup-only")
        wall = child.ready()
        times.append((wall, to_reference(wall, child.finish()["setup_calibration"])))
    return times


def untraced(args, workdir: Path, deadline: float) -> tuple[dict, dict, list[str]]:
    # half the set-ups before the mix and half after, so that they sample
    # the host's speed over the whole run
    setups = setup_times(args, workdir, deadline, SETUP_RUNS // 2)
    main = Child(args, workdir, deadline)
    wall = main.ready()
    mix = main.finish()
    setups.append((wall, to_reference(wall, mix["setup_calibration"])))
    setups += setup_times(args, workdir, deadline, SETUP_RUNS - SETUP_RUNS // 2)
    sweep = Child(args, workdir, deadline, "--frontier").finish()

    seconds = scaled_queries(mix["seconds"], mix["calibrations"])
    ok = mix["attempted"] - len(mix["failures"])
    pct = TAIL_PCT[args.workload]
    beyond = len(seconds) - math.ceil(pct * len(seconds) / 100)
    counts = {
        "attempted": mix["attempted"] + sweep["attempted"],
        "failures": mix["failures"] + sweep["failures"],
    }
    metrics = {
        "query_p50_ms": statistics.median(seconds) * 1e3,
        "query_tail_ms": percentile(seconds, pct) * 1e3,
        "throughput_qps": ok / sum(seconds),
        "ok_ratio": 1 - len(counts["failures"]) / counts["attempted"],
        "n_frontier": sweep["n_frontier"],
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": mix["peak_rss_mb"],
    }
    notes = [
        f"{len(seconds)} queries in {mix['rounds']} rounds of {mix['queries_per_round']}",
        f"query_tail_ms is p{pct}, {beyond} of {len(seconds)} queries beyond it",
        f"setup_s is the median of {len(setups)} set-ups",
        f"times scaled by a median calibration of {statistics.median(mix['calibrations']) * 1e3:.3f} ms"
        f" to {speed.REFERENCE_S * 1e3:g} ms",
        f"unscaled: query p50 {statistics.median(mix['seconds']) * 1e3:.2f} ms,"
        f" setup {statistics.median(w for w, _ in setups):.4f} s",
    ]
    if beyond < TAIL_MIN_BEYOND:
        notes.append(f"warning: fewer than {TAIL_MIN_BEYOND} queries beyond the tail percentile")
    return metrics, counts, notes


def traced(args, workdir: Path, deadline: float) -> tuple[dict, dict, list[str]]:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    child = Child(args, workdir, deadline, f"--spans={spans_path}")
    child.ready()
    run = child.finish()
    metrics = dict(run["layers"], **{"trace.overhead_ratio": run["trace_overhead"]})
    metrics = {m[0]: metrics[m[0]] for m in PER_LAYER}
    counts = {"attempted": run["attempted"], "failures": run["failures"] + run["errors"]}
    notes = [
        f"{run['attempted']} queries in {run['rounds']} rounds, each run untraced and traced",
        "per-layer values are means per traced query; self time excludes child spans",
        f"spans written to {spans_path.relative_to(ROOT)}",
    ]
    return metrics, counts, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PCT))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TOTAL_LIMIT_S
    if not (ROOT / "src" / "symci" / "__init__.py").is_file():
        print(f"error: no symci package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    try:
        metrics, counts, notes = (traced if args.trace else untraced)(args, workdir, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            workdir.rmdir()

    units = {m[0]: m[1] for m in (PER_LAYER if args.trace else END_TO_END)}
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    for failure in counts["failures"][:10]:
        print(f"FAILED {failure}")
    failed = len(counts["failures"])
    result = {
        "correct": failed == 0,
        "attempted": counts["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
