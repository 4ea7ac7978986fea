"""Expected outcomes of each workload, and checks of the CLI's reports.

Expectations come from `oracle.Oracle` over the generator's own model,
never from a stored copy of the program's output.  Each verdict or pair
checked is one operation; a check takes the CLI's standard output and
error and returns (attempted, failed).
"""

from __future__ import annotations

import json
import random

from oracle import Oracle
from workloads import CANDIDATE, Archive, ContentsWorkload

#: Remaining verdicts checked by search, per run.
SAMPLE = 150

# Weather bands: [0,1%) [1,2%) [2,3%) [3,4%) [4%,100%].
_BANDS = ((0.01, "clear"), (0.02, "few-clouds"), (0.03, "clouds"), (0.04, "showers"))


def weather(broken: int, total: int) -> str:
    fraction = broken / total if total else 0.0
    return next((name for upper, name in _BANDS if fraction < upper), "storm")


class VerdictCheck:
    """Per-package verdicts for a whole-archive check.

    Forced-broken packages must be reported NOT INSTALLABLE, forced-
    installable ones must not be, and a seeded sample of the rest must
    agree with the search.  The summary line or fields are one more
    operation.
    """

    def __init__(self, arc: Archive, seed: int):
        oracle = Oracle(arc.pkgs)
        broken = oracle.forced_broken
        fine = oracle.forced_installable()
        rest = sorted(set(range(len(arc.pkgs))) - broken - fine)
        rng = random.Random(f"sample:{seed}")
        self.expected: dict[str, bool] = {}
        for p in broken:
            self.expected[arc.render_id(arc.pkgs[p])] = False
        for p in fine:
            self.expected[arc.render_id(arc.pkgs[p])] = True
        self.searched = 0
        for p in rng.sample(rest, min(SAMPLE, len(rest))):
            verdict = oracle.installable([p])
            if verdict is not None:
                self.expected[arc.render_id(arc.pkgs[p])] = verdict
                self.searched += 1
        self.forced_broken = len(broken)
        self.forced_installable = len(fine)
        self.total = len(arc.pkgs)
        self.ids = {arc.render_id(pkg) for pkg in arc.pkgs}
        self.ops = len(self.expected) + 1

    def _verdicts(self, reported_broken: set[str]) -> int:
        return sum(
            1 for pid, installable in self.expected.items()
            if (pid in reported_broken) == installable
        )

    def check_text(self, stdout: str, stderr: str) -> tuple[int, int]:
        """`debcheck FILE`: one line per broken package, then a summary."""
        lines = stdout.splitlines()
        suffix = ": NOT INSTALLABLE"
        broken = {line[: -len(suffix)] for line in lines if line.endswith(suffix)}
        failed = self._verdicts(broken)
        summary = (
            f"{self.total} packages, {len(broken)} not installable"
            f" ({weather(len(broken), self.total)})"
        )
        if not lines or lines[-1] != summary or not broken <= self.ids:
            failed += 1
        return self.ops, failed

    def check_json(self, stdout: str, stderr: str) -> tuple[int, int]:
        """`--explain --failures-only --format=json`: failures with chains."""
        try:
            document = json.loads(stdout)
            entries = document["results"]
            broken = {f"{e['package']} (= {e['version']})" for e in entries}
        except (ValueError, KeyError, TypeError):
            return self.ops, self.ops
        failed = self._verdicts(broken)
        explained = all(
            e.get("installable") is False
            and e.get("explanation")
            and f"{e['package']} (= {e['version']})" in e["explanation"][0]
            for e in entries
        )
        summary_ok = (
            document.get("total_packages") == self.total
            and document.get("non_installable") == len(entries) == len(broken)
            and document.get("weather") == weather(len(broken), self.total)
            and broken <= self.ids
        )
        if not (explained and summary_ok):
            failed += 1
        return self.ops, failed


class PairCheck:
    """Sharing pairs of a `debcheck conflicts` text report.

    Each planted pair must be listed with the class it was planted as and
    its shared paths; each pair naming an absent package must be warned
    about on standard error.  The summary line is one more operation.
    """

    def __init__(self, workload: ContentsWorkload):
        self.lines = {}
        for (a, b), (status, paths) in workload.pairs.items():
            shown = ", ".join(paths[:5])
            if len(paths) > 5:
                shown += f" (+{len(paths) - 5} more)"
            self.lines[(a, b)] = f"{a} -- {b}: {status}: {shown}"
        self.warnings = [
            f"debcheck: warning: {a} -- {b}: package {missing!r} not in the repository"
            for (a, b), missing in workload.absent.items()
        ]
        candidates = sum(1 for status, _ in workload.pairs.values() if status == CANDIDATE)
        self.summary = f"{len(workload.pairs)} sharing pairs, {candidates} overwrite candidates"
        self.ops = len(self.lines) + len(self.warnings) + 1

    def check(self, stdout: str, stderr: str) -> tuple[int, int]:
        lines = stdout.splitlines()
        listed = {}
        for line in lines[:-1]:
            a, _, rest = line.partition(" -- ")
            listed[(a, rest.partition(":")[0])] = line
        failed = sum(1 for pair, line in self.lines.items() if listed.get(pair) != line)
        warned = set(stderr.splitlines())
        failed += sum(1 for warning in self.warnings if warning not in warned)
        if not lines or lines[-1] != self.summary or len(listed) != len(self.lines):
            failed += 1
        return self.ops, failed
