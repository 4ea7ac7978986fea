#!/usr/bin/env python3
"""debcheck benchmark: whole-archive checks, library transitions and
Contents scans, timed end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It generates the workload's inputs from
the seed under bench/.work/, works out the expected outcomes
independently (see oracle.py), and then runs closed-loop rounds with one
client for as long as another round still fits in S seconds (at least
three rounds).  Each round launches, one at a time, a fresh set-up
probe, the calibration job (calibrate.py) and a fresh CLI process on the
generated files, and checks the CLI's report.

With --trace 0 it reports the CLI wall time (`wall_s`) and set-up time
(`setup_s`), each the median over the rounds of its ratio to the round's
calibration time, times `REFERENCE_S`, and the median peak RSS
(`peak_rss_mb`).  With --trace 1 it
alternates untraced CLI runs with traced ones (tracer.py), prints a
per-layer table and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

#: Input sizes: packages of the single-version archive, application names
#: of the multi-version ones, and planted sharing pairs.
ARCHIVE_PACKAGES = 5000
TRANSITION_NAMES = 1300
CONFLICTS_NAMES = 1300
CONFLICTS_PAIRS = 3000

#: Whole runs stop launching children after this many seconds.
DEADLINE_S = 160.0

#: The calibration time that `wall_s` and `setup_s` are scaled to: they
#: read as if every calibration job had taken this long.
REFERENCE_S = 0.4


@dataclass
class Workload:
    cli_args: list[str]
    packages: Path
    exit_code: int
    repo_packages: int
    check: Callable[[str, str], tuple[int, int]]
    summary: str


@dataclass
class Child:
    wall: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    ended: float


def prepare(name: str, seed: int) -> Workload:
    """Generate the inputs and the expected outcomes of one workload."""
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    packages = work / "Packages"
    if name == "conflicts":
        scan = workloads.conflicts(seed, CONFLICTS_NAMES, CONFLICTS_PAIRS)
        packages.write_bytes(scan.archive.render())
        contents = work / "Contents"
        contents.write_bytes(scan.contents)
        pairs = checks.PairCheck(scan)
        return Workload(
            ["conflicts", "--contents", str(contents), "--packages", str(packages)],
            packages, 0, len(scan.archive.pkgs) + _virtuals(scan.archive),
            pairs.check,
            f"{len(scan.archive.pkgs)} stanzas, {len(scan.pairs)} planted pairs,"
            f" {len(scan.absent)} with an absent package",
        )
    if name == "archive":
        arc = workloads.archive(seed, ARCHIVE_PACKAGES)
        args = [str(packages)]
    else:
        arc = workloads.transition(seed, TRANSITION_NAMES)
        args = ["--explain", "--failures-only", "--format=json", str(packages)]
    packages.write_bytes(arc.render())
    verdicts = checks.VerdictCheck(arc, seed)
    return Workload(
        args, packages, 1, len(arc.pkgs) + _virtuals(arc),
        verdicts.check_text if name == "archive" else verdicts.check_json,
        f"{len(arc.pkgs)} packages; expected verdicts: {verdicts.forced_broken} forced"
        f" broken, {verdicts.forced_installable} forced installable,"
        f" {verdicts.searched} searched",
    )


def _virtuals(arc: workloads.Archive) -> int:
    return len({name for pkg in arc.pkgs for name in pkg.provides})


class Runner:
    def __init__(self, seed: int, started: float):
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed % 2**32))
        self.started = started
        self.out = WORK / "stdout"
        self.err = WORK / "stderr"

    def launch(self, argv: list[str], pass_launch_time: bool = False,
               env: dict[str, str] | None = None) -> Child:
        """Run one child to its end; wall time from launch until reaped.

        With `pass_launch_time`, the launch time becomes the child's second
        argument (the tracer's `LAUNCH_TIME`).
        """
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise TimeoutError("run deadline passed")
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            launched = time.monotonic()
            if pass_launch_time:
                argv = argv[:3] + [repr(launched)] + argv[3:]
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env or self.env, cwd=ROOT)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                ended = time.monotonic()
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            wall=ended - launched,
            rss_mb=usage.ru_maxrss / 1024,
            code=proc.returncode,
            stdout=self.out.read_text(errors="replace"),
            stderr=self.err.read_text(errors="replace"),
            ended=ended,
        )

    def cli(self, workload: Workload) -> Child:
        return self.launch([sys.executable, "-m", "debcheck.cli", *workload.cli_args])

    def traced(self, workload: Workload, spans_path: Path) -> Child:
        return self.launch(
            [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *workload.cli_args],
            pass_launch_time=True,
        )

    def setup(self, workload: Workload) -> tuple[float, bool]:
        child = self.launch(
            [sys.executable, str(BENCH / "setup_probe.py"), str(workload.packages)]
        )
        try:
            probe = json.loads(child.stdout)
        except ValueError:
            return 0.0, False
        ok = child.code == 0 and probe["packages"] == workload.repo_packages
        return probe["setup_s"], ok

    def calibrate(self) -> float:
        """Wall time of one calibration job, with a fixed hash seed."""
        child = self.launch([sys.executable, str(BENCH / "calibrate.py")],
                            env=dict(self.env, PYTHONHASHSEED="0"))
        if child.code != 0:
            raise RuntimeError(f"calibration job exited with {child.code}")
        return child.wall


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, workload: Workload, child: Child) -> None:
        attempted, failed = workload.check(child.stdout, child.stderr)
        if child.code != workload.exit_code or "Traceback (most recent call last)" in child.stderr:
            failed = attempted
        self.attempted += attempted
        self.failed += failed


def rounds(seconds: int):
    """Yield while a round as long as the longest so far still ends within
    `seconds`, and at least three times."""
    began = time.monotonic()
    longest, count = 0.0, 0
    while count < 3 or time.monotonic() - began + longest <= seconds:
        start = time.monotonic()
        yield
        longest = max(longest, time.monotonic() - start)
        count += 1


def end_to_end(workload: Workload, runner: Runner, seconds: int, tally: Tally) -> dict:
    walls, setups, calibrations, rss = [], [], [], []
    wall_ratios, setup_ratios = [], []
    for _ in rounds(seconds):
        setup_s, setup_ok = runner.setup(workload)
        calibration = runner.calibrate()
        child = runner.cli(workload)
        tally.check(workload, child)
        tally.attempted += 1
        tally.failed += not setup_ok
        if setup_ok:
            setups.append(setup_s)
            setup_ratios.append(setup_s / calibration)
        calibrations.append(calibration)
        walls.append(child.wall)
        wall_ratios.append(child.wall / calibration)
        rss.append(child.rss_mb)
    print(f"{len(walls)} rounds; wall_s samples: " + " ".join(f"{w:.3f}" for w in walls))
    print("calibration samples: " + " ".join(f"{c:.3f}" for c in calibrations))
    if not setups:
        raise RuntimeError("no set-up probe succeeded")
    print(f"unscaled medians: wall_s {statistics.median(walls):.4f},"
          f" setup_s {statistics.median(setups):.4f},"
          f" calibration {statistics.median(calibrations):.4f}")
    return {
        "wall_s": {"value": statistics.median(wall_ratios) * REFERENCE_S, "unit": "s"},
        "setup_s": {"value": statistics.median(setup_ratios) * REFERENCE_S, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
    }


def per_layer(name: str, workload: Workload, runner: Runner, seconds: int, tally: Tally) -> dict:
    """Alternate untraced and traced CLI runs; medians of the per-layer metrics."""
    untraced, traced = [], []
    spans_path = WORK / name / "spans.json"
    for _ in rounds(seconds):
        child = runner.cli(workload)
        tally.check(workload, child)
        untraced.append(child.wall)
        spans_path.unlink(missing_ok=True)
        child = runner.traced(workload, spans_path)
        tally.check(workload, child)
        if not spans_path.exists():
            continue
        trace = json.loads(spans_path.read_text())
        spans = trace["spans"]
        main_end = next(s[2] for s in spans if s[0] == "cli.main")
        spans.append(["cli.exit", main_end, child.ended, -1, None])
        traced.append((child.wall, spans, trace["counts"]))
    if not traced:
        raise RuntimeError("no traced run wrote its spans")
    base = statistics.median(untraced)
    runs = [tracer.layer_metrics(spans, counts, base) for _, spans, counts in traced]
    metrics = {
        key: {"value": statistics.median(run[key] for run in runs), "unit": unit}
        for key, unit in tracer.METRICS
    }
    (WORK / name / "spans-all.json").write_text(json.dumps([t[1] for t in traced]))
    middle = sorted(traced, key=lambda t: t[0])[len(traced) // 2]
    print(f"spans of the median of {len(traced)} traced runs (self = total minus child spans):")
    for line in tracer.table(middle[1]):
        print("  " + line)
    print(f"  traced wall_s {middle[0]:.4f}; untraced wall_s median {base:.4f};"
          f" tracing overhead {metrics['trace.overhead_s']['value']:.4f} s")
    return metrics


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("archive", "transition", "conflicts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "debcheck" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'debcheck'}", file=sys.stderr)
        return 2

    workload = prepare(args.workload, args.seed)
    print(f"{args.workload} seed {args.seed}: {workload.summary}")
    runner = Runner(args.seed, started)
    tally = Tally()
    try:
        if args.trace:
            metrics = per_layer(args.workload, workload, runner, args.seconds, tally)
        else:
            metrics = end_to_end(workload, runner, args.seconds, tally)
    except (TimeoutError, RuntimeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
