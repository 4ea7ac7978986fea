"""Traced CLI run, and the per-layer metrics computed from its spans.

Run as a child process of the benchmark:

    python3 bench/tracer.py SPANS_JSON LAUNCH_TIME CLI_ARG...

It wraps the program's public functions as the `cli`, `solver` and
`expand` modules reference them, calls `debcheck.cli.main` in-process
with CLI_ARG, keeps one span per wrapped call in memory (name, start,
end, parent) and writes them to SPANS_JSON when the CLI returns.
LAUNCH_TIME is the parent's `time.monotonic()` just before it started
this process; the clock is system-wide, so the first span, `cli.startup`,
covers interpreter start-up and imports.  The parent adds the last one,
`cli.exit`, from the return of `main` until the process has ended, so
the top-level spans tile the traced wall time exactly.

Importing this module wraps nothing; only running it does.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

_EXPAND_SPANS = ("expand.versions", "expand.virtuals", "expand.build_repository")

# name, unit for every per-layer metric, in report order
METRICS = (
    ("stanza.parse_s", "s"),
    ("stanza.stanzas", "count"),
    ("version.satisfies_calls", "count"),
    ("version.cmp_calls", "count"),
    ("expand.versions_s", "s"),
    ("expand.virtuals_s", "s"),
    ("expand.build_s", "s"),
    ("expand.packages", "count"),
    ("expand.virtuals", "count"),
    ("solver.encode_s", "s"),
    ("solver.clauses", "count"),
    ("solver.engine_init_s", "s"),
    ("solver.check_all_self_s", "s"),
    ("solver.probe_calls", "count"),
    ("solver.query_calls", "count"),
    ("solver.query_sat_calls", "count"),
    ("solver.query_unsat_calls", "count"),
    ("solver.query_sat_s", "s"),
    ("solver.query_unsat_s", "s"),
    ("solver.explain_s", "s"),
    ("solver.explain.shrink_trials", "count"),
    ("solver.explain.shrink_s", "s"),
    ("solver.explain.reencode_s", "s"),
    ("solver.explain.render_s", "s"),
    ("solver.explain.lines", "count"),
    ("contents.parse_s", "s"),
    ("contents.pairs_s", "s"),
    ("contents.pairs", "count"),
    ("contents.classify_s", "s"),
    ("weather.summarize_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.self_s", "s"),
    ("cli.exit_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, value]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = {"version.satisfies_calls": 0, "version.cmp_calls": 0}

    def span(self, name, fn, value=None):
        spans, stack, clock = self.spans, self.stack, time.monotonic

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if value is not None:
                record[4] = value(result)
            return result

        return traced

    def counter(self, key, fn):
        """Count calls made while an expansion span is innermost."""
        spans, stack, counts = self.spans, self.stack, self.counts

        def counted(*args):
            if stack and spans[stack[-1]][0] in _EXPAND_SPANS:
                counts[key] += 1
            return fn(*args)

        return counted

    def install(self) -> None:
        cli, expand, solver = (
            importlib.import_module(f"debcheck.{name}") for name in ("cli", "expand", "solver")
        )
        span = self.span
        cli.parse_packages = span("stanza.parse_packages", cli.parse_packages,
                                  lambda r: len(r.stanzas))
        cli.expand = span("expand.expand", cli.expand)
        cli.build_repository = span("expand.build_repository", cli.build_repository,
                                    lambda r: [len(r.packages), len(r.virtuals)])
        cli.check_all = span("solver.check_all", cli.check_all)
        cli.summarize = span("weather.summarize", cli.summarize)
        cli.parse_contents = span("contents.parse_contents", cli.parse_contents)
        cli.shared_file_pairs = span("contents.shared_file_pairs", cli.shared_file_pairs, len)
        cli.classify_pairs = span("contents.classify_pairs", cli.classify_pairs)
        expand.expand_version_constraints = span("expand.versions",
                                                 expand.expand_version_constraints)
        expand.expand_virtual_packages = span("expand.virtuals", expand.expand_virtual_packages)
        expand.satisfies = self.counter("version.satisfies_calls", expand.satisfies)
        expand.version_cmp = self.counter("version.cmp_calls", expand.version_cmp)
        solver.encode = span("solver.encode", solver.encode, lambda cs: len(cs.clauses))
        solver._shrink_edges = span("solver.shrink", solver._shrink_edges)
        solver._render_chains = span("solver.render_chains", solver._render_chains)
        checker = solver.RepositoryChecker
        checker.__init__ = span("solver.checker_init", checker.__init__)
        checker.query = span("solver.query", checker.query, lambda r: r.installable)
        checker._probe = span("solver.probe", checker._probe)
        checker._explain = span("solver.explain", checker._explain)
        solver._Engine.__init__ = span("solver.engine_init", solver._Engine.__init__)
        explanation = solver.Explanation
        explanation.induced_repository = span("solver.induced_repository",
                                              explanation.induced_repository)
        explanation.render_lines = span("solver.render_lines", explanation.render_lines, len)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, counts, untraced_wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced run (see README.md)."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        total[s[0]] += s[2] - s[1]
        calls[s[0]] += 1
    parent = [spans[s[3]][0] if s[3] >= 0 else "" for s in spans]

    def where(pred):
        return [i for i, s in enumerate(spans) if pred(i, s)]

    def dur(indices):
        return sum(spans[i][2] - spans[i][1] for i in indices)

    def values(name):
        return [s[4] for s in spans if s[0] == name]

    checker_encode = where(lambda i, s: s[0] == "solver.encode"
                           and parent[i] == "solver.checker_init")
    reencode = where(lambda i, s: s[0] == "solver.encode"
                     and parent[i] != "solver.checker_init")
    engine = where(lambda i, s: s[0] == "solver.engine_init"
                   and parent[i] == "solver.checker_init")
    queries = where(lambda i, s: s[0] == "solver.query")
    sat = [i for i in queries if spans[i][4]]
    unsat = [i for i in queries if not spans[i][4]]
    check_all = where(lambda i, s: s[0] == "solver.check_all")
    under_check_all = where(lambda i, s: parent[i] == "solver.check_all"
                            and s[0] in ("solver.query", "solver.checker_init"))
    built = values("expand.build_repository")
    wall = sum(s[2] - s[1] for s in spans if s[3] < 0)

    def self_of(name):
        return sum(own[i] for i, s in enumerate(spans) if s[0] == name)

    return {
        "stanza.parse_s": self_of("stanza.parse_packages"),
        "stanza.stanzas": sum(values("stanza.parse_packages")),
        "version.satisfies_calls": counts["version.satisfies_calls"],
        "version.cmp_calls": counts["version.cmp_calls"],
        "expand.versions_s": total["expand.versions"],
        "expand.virtuals_s": total["expand.virtuals"],
        "expand.build_s": total["expand.build_repository"],
        "expand.packages": sum(b[0] for b in built),
        "expand.virtuals": sum(b[1] for b in built),
        "solver.encode_s": dur(checker_encode),
        "solver.clauses": sum(spans[i][4] for i in checker_encode),
        "solver.engine_init_s": dur(engine),
        "solver.check_all_self_s": dur(check_all) - dur(under_check_all),
        "solver.probe_calls": calls["solver.probe"],
        "solver.query_calls": len(queries),
        "solver.query_sat_calls": len(sat),
        "solver.query_unsat_calls": len(unsat),
        "solver.query_sat_s": dur(sat),
        "solver.query_unsat_s": dur(unsat),
        "solver.explain_s": total["solver.explain"],
        "solver.explain.shrink_trials": calls["solver.induced_repository"],
        "solver.explain.shrink_s": total["solver.shrink"],
        "solver.explain.reencode_s": dur(reencode),
        "solver.explain.render_s": total["solver.render_lines"],
        "solver.explain.lines": sum(values("solver.render_lines")),
        "contents.parse_s": total["contents.parse_contents"],
        "contents.pairs_s": total["contents.shared_file_pairs"],
        "contents.pairs": sum(values("contents.shared_file_pairs")),
        "contents.classify_s": self_of("contents.classify_pairs"),
        "weather.summarize_s": total["weather.summarize"],
        "cli.startup_s": total["cli.startup"],
        "cli.self_s": self_of("cli.main"),
        "cli.exit_s": total["cli.exit"],
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall,
    }


def table(spans) -> list[str]:
    """Calls, total and self time per span name, then self time per layer."""
    own = self_times(spans)
    rows: dict[str, list] = {}
    for s, t in zip(spans, own):
        row = rows.setdefault(s[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s[2] - s[1]
        row[2] += t
    lines = [f"{'span':<28}{'calls':>8}{'total s':>11}{'self s':>11}"]
    for name in sorted(rows):
        calls, total, mine = rows[name]
        lines.append(f"{name:<28}{calls:>8}{total:>11.4f}{mine:>11.4f}")
    layers: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        layers[s[0].split(".")[0]] += t
    lines.append(f"{'layer':<28}{'self s':>30}")
    for layer in sorted(layers):
        lines.append(f"{layer:<28}{layers[layer]:>30.4f}")
    lines.append(f"{'sum of self times':<28}{sum(own):>30.4f}")
    return lines


def main(argv: list[str]) -> int:
    spans_path, launched, cli_args = argv[0], float(argv[1]), argv[2:]
    cli = importlib.import_module("debcheck.cli")
    tracer = Tracer()
    tracer.install()
    tracer.spans.append(["cli.startup", launched, time.monotonic(), -1, None])
    run = tracer.span("cli.main", cli.main)
    try:
        code = run(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    with open(spans_path, "w") as f:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
