"""Benchmark of the filicoh command line: end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see README.md for why each exists):

    lambda_grid   dims --prime 13 --lambda all --format json
    prime_sweep   sweep --primes 2,...,23 --lambda random:SEED --format json
    verify_iso    verify --prime 7 --lambda all --format json, then
                  iso --prime 7 --lambda all --format json

Every CLI invocation runs in a fresh process, as a user's would, so each
pays the interpreter start, the imports and a cold per-prime d2 cache.
A round is one pass over the workload's invocations; a run makes whole
rounds until another would end after S seconds (at least one).  Every
report is checked against computations made apart from the program
(checks.py); a wrong report makes the result incorrect and the exit code 1.

With --trace 0 the result holds the end-to-end metrics, medians over the
run's rounds: wall_s and cpu_s of a round's invocations, the largest
peak_rss_mb among them, and setup_s, the median of separate start-ups
to the point where filicoh.cli is imported, SETUP_SAMPLES before each
round and after the last one, so that they spread over the run.

With --trace 1 a first round runs untraced, and the following rounds run
with spans around filicoh's public functions (spans.py).  Their reports
must match the untraced round byte for byte.  The result holds the
per-layer metrics, medians over the traced rounds.  End-to-end metrics
never come from traced rounds.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Details go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI_SOURCE = ROOT / "src" / "filicoh" / "cli.py"
INVOKE = BENCH / "invoke.py"
RESULTS = BENCH / "results"

SWEEP_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
# zero, the p one-hot vectors and seeded random vectors: 201 in all
GRID_SIZE = 201
# start-ups timed before each round and after the last one
SETUP_SAMPLES = 8
# hard checks that verify makes at p = 7; a verify that gives no report
# fails them all, so attempted does not depend on the outcome
VERIFY_HARD_CHECKS = 13
# a run must end within 180 s; invocations still running then are killed
HARD_LIMIT_S = 170.0
# per-prime span curves kept in the trace details
CURVE_SPANS = ("cochains.d2_matrix", "gf.rref", "gf.kernel_basis")


@dataclass
class Command:
    argv: list[str]
    check: Callable[[dict], tuple[int, list[str]]]
    # operations counted as failed when the invocation gives no report
    ops_if_missing: int


def workload_commands(name: str, seed: int) -> list[Command]:
    if name == "lambda_grid":
        return [Command(
            ["dims", "--prime", "13", "--lambda", "all", "--format", "json"],
            lambda r: checks.check_grid(r, 13, GRID_SIZE),
            GRID_SIZE,
        )]
    if name == "prime_sweep":
        # numpy refuses negative seeds, so the seed is reduced to its range
        spec = f"random:{seed % 2**32}"
        return [Command(
            ["sweep", "--primes", ",".join(map(str, SWEEP_PRIMES)), "--lambda", spec,
             "--format", "json"],
            lambda r: checks.check_sweep(r, SWEEP_PRIMES),
            len(SWEEP_PRIMES),
        )]
    if name == "verify_iso":
        return [
            Command(
                ["verify", "--prime", "7", "--lambda", "all", "--format", "json"],
                lambda r: checks.check_verify(r, 7, GRID_SIZE),
                VERIFY_HARD_CHECKS,
            ),
            Command(
                ["iso", "--prime", "7", "--lambda", "all", "--format", "json"],
                lambda r: checks.check_iso(r, 7, GRID_SIZE),
                GRID_SIZE,
            ),
        ]
    raise ValueError(name)


WORKLOADS = ("lambda_grid", "prime_sweep", "verify_iso")


@dataclass
class Invocation:
    rc: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    timing: dict | None
    spans_path: Path | None


def invoke(args: list[str], tag: str, workdir: Path, deadline: float,
           spans_path: Path | None = None) -> Invocation:
    """Run invoke.py in a fresh process and wait for it; its CPU time and
    peak RSS come from wait4, so they cover every thread it ran."""
    timing_path = workdir / f"{tag}.timing.json"
    out_path = workdir / f"{tag}.stdout"
    cmd = [sys.executable, str(INVOKE), str(timing_path)]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    cmd += args
    with open(out_path, "wb") as out, open(workdir / f"{tag}.stderr", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    timing = None
    if timing_path.exists():
        timing = json.loads(timing_path.read_text())
    end = timing["done"] if timing and "done" in timing else t_exit
    return Invocation(
        rc=proc.returncode,
        stdout=out_path.read_bytes(),
        wall_s=end - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        timing=None if timing is None else {**timing, "start": t0},
        spans_path=spans_path,
    )


class StartupFailed(Exception):
    """filicoh.cli could not be imported."""


def setup_time(workdir: Path, tag: str, deadline: float) -> float:
    inv = invoke(["--ready-only"], tag, workdir, deadline)
    if inv.rc != 0 or inv.timing is None:
        raise StartupFailed(workdir / f"{tag}.stderr")
    return inv.timing["ready"] - inv.timing["start"]


@dataclass
class Round:
    invocations: list[Invocation]
    setup_s: list[float]
    elapsed_s: float
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self):
        return sum(i.wall_s for i in self.invocations)

    @property
    def cpu_s(self):
        return sum(i.cpu_s for i in self.invocations)

    @property
    def peak_rss_mb(self):
        return max(i.peak_rss_mb for i in self.invocations)


def run_round(commands: list[Command], index: int, workdir: Path, deadline: float,
              traced: bool, setup_samples: int = 0) -> Round:
    started = time.monotonic()
    setups = [setup_time(workdir, f"r{index}-setup{i}", deadline) for i in range(setup_samples)]
    invs = []
    for j, c in enumerate(commands):
        tag = f"r{index}-c{j}"
        spans_path = workdir / f"{tag}.spans.json" if traced else None
        invs.append(invoke(["--", *c.argv], tag, workdir, deadline, spans_path))
    rnd = Round(invs, setups, time.monotonic() - started)
    for c, inv in zip(commands, invs):
        try:
            report = json.loads(inv.stdout)
        except ValueError:
            report = None
        if not isinstance(report, dict) or inv.timing is None:
            rnd.attempted += c.ops_if_missing
            rnd.failed += c.ops_if_missing
            rnd.problems.append(f"{c.argv[0]} gave no report (exit {inv.rc})")
            continue
        ops, problems = c.check(report)
        if inv.rc != 0:
            problems.append(f"{c.argv[0]} exited {inv.rc}")
        rnd.attempted += ops
        rnd.problems += problems
    return rnd


def scheduled_rounds(run_one, start: float, seconds: float, deadline: float) -> list[Round]:
    """At least one round; another only while it should end within the run."""
    rounds = [run_one(0)]
    longest = rounds[0].elapsed_s
    while (time.monotonic() + longest <= min(start + seconds, deadline)
           and not any(r.failed for r in rounds)):
        rounds.append(run_one(len(rounds)))
        longest = max(longest, rounds[-1].elapsed_s)
    return rounds


def layer_metrics_of(rnd: Round) -> tuple[dict, dict]:
    """Per-layer metrics and per-prime span curves of one traced round,
    summed over its invocations (span ids are per process)."""
    total: dict[str, float] = {}
    curves: dict = {}
    for inv in rnd.invocations:
        if inv.spans_path is None or not inv.spans_path.exists():
            continue
        data = json.loads(inv.spans_path.read_text())
        for k, v in spans.layer_metrics(data["spans"], data["counts"]).items():
            total[k] = total.get(k, 0) + v
        for name, by_p in spans.per_prime(data["spans"], CURVE_SPANS).items():
            for p, cell in by_p.items():
                acc = curves.setdefault(name, {}).setdefault(p, dict.fromkeys(cell, 0))
                for k, v in cell.items():
                    acc[k] += v
    return total, curves


def traced_run(commands, workdir, start, seconds, deadline, details):
    """An untraced reference round, then traced rounds whose reports must
    match it byte for byte; per-layer metrics are medians over the traced
    rounds."""
    reference = run_round(commands, 0, workdir, deadline, traced=False)
    rounds = scheduled_rounds(
        lambda i: run_round(commands, i + 1, workdir, deadline, traced=True),
        start, seconds, deadline,
    )
    for rnd in rounds:
        for c, ref, inv in zip(commands, reference.invocations, rnd.invocations):
            if inv.stdout != ref.stdout:
                rnd.problems.append(f"traced {c.argv[0]} report differs from untraced")
    per_round = [layer_metrics_of(r) for r in rounds]
    # counts take the lower median, so they stay whole numbers
    metrics = {
        name: {"value": (statistics.median_low if unit == "count" else statistics.median)(
            [m.get(name, 0) for m, _ in per_round]), "unit": unit}
        for name, unit in spans.METRICS.items()
    }
    details["untraced_wall_s"] = reference.wall_s
    details["traced_wall_s"] = [r.wall_s for r in rounds]
    details["tracing_overhead_s"] = statistics.median(r.wall_s for r in rounds) - reference.wall_s
    details["per_prime"] = [c for _, c in per_round]
    return [reference, *rounds], metrics


def untraced_run(commands, workdir, start, seconds, deadline, details):
    """Rounds with start-up samples before each and after the last one;
    end-to-end metrics are medians over the rounds, and over all start-up
    samples."""
    rounds = scheduled_rounds(
        lambda i: run_round(commands, i, workdir, deadline, traced=False,
                            setup_samples=SETUP_SAMPLES),
        start, seconds, deadline,
    )
    setups = [x for r in rounds for x in r.setup_s]
    setups += [setup_time(workdir, f"end-setup{i}", deadline) for i in range(SETUP_SAMPLES)]
    metrics = {
        "wall_s": {"value": statistics.median(r.wall_s for r in rounds), "unit": "s"},
        "cpu_s": {"value": statistics.median(r.cpu_s for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in rounds), "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    details["setup_samples_s"] = setups
    details["rounds"] = [
        {"wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb} for r in rounds
    ]
    return rounds, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="filicoh benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not CLI_SOURCE.is_file():
        print(f"bench: {CLI_SOURCE.relative_to(ROOT)} not found; run from a filicoh checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RESULTS / label
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    commands = workload_commands(args.workload, args.seed)

    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                     "argv": [c.argv for c in commands]}
    try:
        run = traced_run if args.trace else untraced_run
        all_rounds, metrics = run(commands, workdir, start, args.seconds, deadline, details)
    except StartupFailed as exc:
        print(f"bench: filicoh.cli failed to start; see {exc}", file=sys.stderr)
        return 1

    problems = [p for r in all_rounds for p in r.problems]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in all_rounds),
        "failed": sum(r.failed for r in all_rounds),
        "metrics": metrics,
    }
    details["problems"] = problems
    details["result"] = result
    (RESULTS / f"{label}.json").write_text(json.dumps(details, indent=1) + "\n")

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(f"{args.workload} seed {args.seed}: {len(all_rounds)} round(s), "
          f"{result['attempted']} operation(s) attempted, {result['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
