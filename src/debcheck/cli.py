"""debcheck command line: installability reports, conflict scanning,
cross-architecture aggregation.

    debcheck [--explain] [--failures-only|--successes-only]
             [--format=text|json] [--check PKG[=VER]]... [FILE]
    debcheck conflicts --contents FILE --packages FILE [--format=text|json]
    debcheck aggregate REPORT.json...

The main form reads a Packages file (standard input when FILE is absent),
checks the selected packages (all of them by default), and exits 0 when
everything selected is installable, 1 otherwise, 2 on input errors.
Progress and diagnostics go to standard error; the report itself is
deterministic for a given input, and goes to standard output in a few
large writes.  JSON reports read as `json.dump(document, indent=2)`
writes them.  The check command's report, which can hold a line per
explanation step for most of an archive, and the conflicts command's,
which can hold thousands of pairs, come from writers made for their
schemas (`_check_json`, `_conflicts_json`): before 3.13, `json` encodes
token by token in pure Python whenever `indent` is set.  Any command
exits 2, silently, when its reader closes standard output before the
report is written (as `| head` does).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import IO, Iterable, Iterator

from .contents import (
    CandidateStatus,
    ConflictCandidate,
    classify_pairs,
    parse_contents,
    shared_file_pairs,
)
from .expand import PackageId, Repository, build_repository, expand
from .solver import CheckResult, RepositoryChecker
from .solver import check_all  # noqa: F401  bench/tracer.py wraps cli.check_all by name
from .stanza import ParseResult, parse_packages
from .weather import Summary, summarize


#: Characters a report gathers into one write.  Pieces are one JSON token
#: or one line each, so writing them one by one costs a system call apiece
#: when standard output is unbuffered; bounded batches keep the joined
#: text small next to the report.
_WRITE_BATCH = 1 << 16


def _write_report(out: IO, pieces: Iterable[str]) -> None:
    """Write `pieces` to `out` in order, joined into batches of at least
    `_WRITE_BATCH` characters (the last batch may be shorter)."""
    batch: list[str] = []
    size = 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _WRITE_BATCH:
            out.write("".join(batch))
            batch.clear()
            size = 0
    if batch:
        out.write("".join(batch))


def _json_pieces(document: object) -> Iterator[str]:
    """`document` as `json.dump(document, f, indent=2)` writes it, then a newline."""
    yield from json.JSONEncoder(indent=2).iterencode(document)
    yield "\n"


def _json_strings(strings: list[str], indent: str) -> str:
    """A list of strings as `json.dumps(indent=2)` lays it out at `indent`."""
    if not strings:
        return "[]"
    inner = indent + "  "
    return ("[\n" + inner + (",\n" + inner).join(map(encode_basestring_ascii, strings))
            + "\n" + indent + "]")


def _check_json(document: dict) -> Iterator[str]:
    """A check report as `_json_pieces` writes it, one piece per result.

    Before 3.13, CPython's `json` encodes in pure Python, token by token,
    whenever `indent` is set.  This writer knows the report's schema: its
    scalar members, then `results`, a list of objects with `package`,
    `version`, `installable` and, at will, `explanation`, a list of
    strings.  Strings go through `encode_basestring_ascii`, the escaping
    that `json` itself applies, and the other scalars through `json.dumps`.
    """
    head = [f"{encode_basestring_ascii(key)}: {json.dumps(value)}"
            for key, value in document.items() if key != "results"]
    results = document["results"]
    yield "{\n  " + ",\n  ".join(head) + ',\n  "results": ' + ("[" if results else "[]")
    separator = "\n"
    for entry in results:
        text = (f'{separator}    {{\n      "package": {encode_basestring_ascii(entry["package"])},'
                f'\n      "version": {encode_basestring_ascii(entry["version"])},'
                f'\n      "installable": {"true" if entry["installable"] else "false"}')
        lines = entry.get("explanation")
        if lines is not None:
            text += ',\n      "explanation": ' + _json_strings(lines, "      ")
        yield text + "\n    }"
        separator = ",\n"
    yield "\n  ]\n}\n" if results else "\n}\n"


def _conflicts_json(document: dict[str, list[dict]]) -> Iterator[str]:
    """A conflicts report as `_json_pieces` writes it, one piece per pair.

    The report's schema: `pairs` and `undetermined`, each a list of
    objects whose members are strings or lists of strings, written as
    `_check_json` writes its strings.
    """
    separator = "{\n"
    for key, entries in document.items():
        yield f"{separator}  {encode_basestring_ascii(key)}: " + ("[" if entries else "[]")
        comma = "\n"
        for entry in entries:
            yield comma + "    {" + ",".join(
                f"\n      {encode_basestring_ascii(name)}: "
                + (encode_basestring_ascii(value) if isinstance(value, str)
                   else _json_strings(value, "      "))
                for name, value in entry.items()
            ) + "\n    }"
            comma = ",\n"
        if entries:
            yield "\n  ]"
        separator = ",\n"
    yield "\n}\n"


@dataclass
class Timings:
    parse: float = 0.0
    expand: float = 0.0  # version and virtual expansion, repository build, encoding
    solve: float = 0.0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="debcheck",
        description="Check installability of Debian-style packages.",
    )
    p.add_argument("file", nargs="?", metavar="FILE",
                   help="Packages file (standard input when absent)")
    p.add_argument("--check", action="append", default=[], metavar="PKG[=VER]",
                   help="check only this package (repeatable)")
    p.add_argument("--explain", action="store_true",
                   help="print dependency chains for non-installable packages")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--failures-only", action="store_true",
                       help="list only non-installable packages")
    group.add_argument("--successes-only", action="store_true",
                       help="list only installable packages")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--architecture", default=None,
                   help="architecture label recorded in JSON reports")
    return p


def _read_source(path: str | None, stdin: IO) -> str:
    if path is None:
        data = stdin.buffer.read() if hasattr(stdin, "buffer") else stdin.read()
    else:
        with open(path, "rb") as f:
            data = f.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    return data


def _load_repository(
    text: str, err: IO
) -> tuple[Repository, ParseResult, Timings]:
    timings = Timings()
    t0 = time.monotonic()
    parsed = parse_packages(text)
    timings.parse = time.monotonic() - t0
    for warning in parsed.warnings:
        print(f"debcheck: warning: {warning}", file=err)
    for error in parsed.errors:
        print(f"debcheck: warning: skipped stanza at {error}", file=err)
    t0 = time.monotonic()
    repo = build_repository(expand(parsed.stanzas))
    timings.expand = time.monotonic() - t0
    return repo, parsed, timings


def _select_packages(
    repo: Repository, selectors: list[str], err: IO
) -> tuple[list[PackageId], bool]:
    """Resolve name / name=version selectors, or select every real package
    when there are none; returns (selection, ok)."""
    if not selectors:
        return [pid for pid in repo.packages if pid not in repo.virtuals], True
    selected: list[PackageId] = []
    ok = True
    for selector in selectors:
        name, sep, version = selector.partition("=")
        # synthesized virtual packages are never reported, so never selected
        versions = [
            pid for pid in repo.versions_by_name.get(name, [])
            if pid not in repo.virtuals and (not sep or pid.version == version)
        ]
        if versions:
            selected.extend(versions)
        else:
            print(f"debcheck: unknown package: {selector}", file=err)
            ok = False
    return selected, ok


def _result_json(pid: PackageId, result: CheckResult, explain: bool) -> dict:
    entry: dict = {
        "package": pid.name,
        "version": pid.version,
        "installable": result.installable,
    }
    if not result.installable and explain and result.explanation is not None:
        entry["explanation"] = result.explanation.render_lines()
    return entry


def run_check(args: argparse.Namespace, stdin: IO, out: IO, err: IO) -> int:
    try:
        text = _read_source(args.file, stdin)
    except OSError as exc:
        print(f"debcheck: cannot read input: {exc}", file=err)
        return 2
    repo, parsed, timings = _load_repository(text, err)
    del text, parsed  # nothing reads the input or its stanzas again
    t0 = time.monotonic()
    checker = RepositoryChecker(repo)
    timings.expand += time.monotonic() - t0
    real_total = sum(1 for pid in repo.packages if pid not in repo.virtuals)
    print(
        f"Parsing package file... {timings.parse:.1f} seconds"
        f"  {real_total} packages",
        file=err,
    )
    print(f"Generating constraints... {timings.expand:.1f} seconds", file=err)

    selection, selectors_ok = _select_packages(repo, args.check, err)
    if not selectors_ok:
        return 2

    t0 = time.monotonic()
    results = checker.check_all(args.explain, selection)
    timings.solve = time.monotonic() - t0
    print(f"Checking packages... {timings.solve:.1f} seconds", file=err)

    ordered = list(results.items())
    summary = summarize(results)

    if args.format == "json":
        document = {
            "architecture": args.architecture,
            "total_packages": summary.total,
            "non_installable": summary.broken,
            "fraction": round(summary.fraction, 6),
            "weather": summary.category.value,
            "results": [
                _result_json(pid, result, args.explain)
                for pid, result in ordered
                if (not args.failures_only or not result.installable)
                and (not args.successes_only or result.installable)
            ],
        }
        _write_report(out, _check_json(document))
    else:
        _write_report(out, _text_report(ordered, args, summary))

    return 0 if summary.broken == 0 else 1


def _text_report(
    ordered: list[tuple[PackageId, CheckResult]], args: argparse.Namespace, summary: Summary
) -> Iterator[str]:
    """The lines of the check command's text report."""
    for pid, result in ordered:
        if result.installable:
            if args.successes_only:
                yield f"{pid.render()}: installable\n"
            continue
        if args.successes_only:
            continue
        yield f"{pid.render()}: NOT INSTALLABLE\n"
        if args.explain and result.explanation is not None:
            for line in result.explanation.render_lines():
                yield f"  {line}\n"
    yield (
        f"{summary.total} packages, "
        f"{summary.broken} not installable"
        f" ({summary.category.value})\n"
    )


def _conflicts_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="debcheck conflicts",
        description="Find co-installable package pairs sharing a file.",
    )
    p.add_argument("--contents", required=True, metavar="FILE")
    p.add_argument("--packages", required=True, metavar="FILE")
    p.add_argument("--format", choices=("text", "json"), default="text")
    return p


def run_conflicts(argv: list[str], out: IO, err: IO) -> int:
    args = _conflicts_parser().parse_args(argv)
    try:
        with open(args.contents, "rb") as f:
            contents_text = f.read().decode("utf-8", errors="replace")
        packages_text = _read_source(args.packages, sys.stdin)
    except OSError as exc:
        print(f"debcheck: cannot read input: {exc}", file=err)
        return 2

    contents = parse_contents(contents_text)
    del contents_text  # nothing reads the input texts again
    for warning in contents.warnings:
        print(f"debcheck: warning: {warning}", file=err)
    repo, parsed, _ = _load_repository(packages_text, err)
    del packages_text

    pairs = shared_file_pairs(contents.index)
    del contents  # the pairs keep the paths they print
    outcome = classify_pairs(pairs, repo, parsed.stanzas)
    for pair, message in outcome.undetermined:
        print(f"debcheck: warning: {pair[0]} -- {pair[1]}: {message}", file=err)

    if args.format == "json":
        document = {
            "pairs": [
                {
                    "pair": list(candidate.pair),
                    "status": candidate.status.value,
                    "shared_paths": list(candidate.shared_paths),
                }
                for candidate in outcome.classified
            ],
            "undetermined": [
                {"pair": list(pair), "reason": message}
                for pair, message in outcome.undetermined
            ],
        }
        _write_report(out, _conflicts_json(document))
    else:
        _write_report(out, _conflicts_text(outcome.classified))
    return 0


def _conflicts_text(classified: list[ConflictCandidate]) -> Iterator[str]:
    """The lines of the conflicts command's text report."""
    for candidate in classified:
        a, b = candidate.pair
        shown = ", ".join(candidate.shared_paths[:5])
        extra = len(candidate.shared_paths) - 5
        if extra > 0:
            shown += f" (+{extra} more)"
        yield f"{a} -- {b}: {candidate.status.value}: {shown}\n"
    candidates = sum(
        1 for candidate in classified if candidate.status is CandidateStatus.CANDIDATE
    )
    yield f"{len(classified)} sharing pairs, {candidates} overwrite candidates\n"


def _aggregate_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="debcheck aggregate",
        description="Combine per-architecture JSON reports.",
    )
    p.add_argument("reports", nargs="+", metavar="REPORT.json")
    p.add_argument("--format", choices=("text", "json"), default="text")
    return p


def _read_report(path: str) -> tuple[str | None, list[tuple[str, bool]]]:
    """The architecture and the (package, installable) entries of a report.

    Raises OSError, ValueError or RecursionError (JSON nested past
    `json`'s limit) when the file cannot be read or does not have the
    shape of a `--format=json` report.
    """
    with open(path) as f:
        document = json.load(f)
    if not isinstance(document, dict):
        raise ValueError("not a JSON object")
    architecture = document.get("architecture")
    results = document.get("results", [])
    if not isinstance(architecture, (str, type(None))) or not isinstance(results, list):
        raise ValueError("malformed architecture or results")
    entries = []
    for i, entry in enumerate(results, 1):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("package"), str)
            and isinstance(entry.get("installable"), bool)
        ):
            raise ValueError(f"result {i} lacks a package name or verdict")
        entries.append((entry["package"], entry["installable"]))
    return architecture, entries


def run_aggregate(argv: list[str], out: IO, err: IO) -> int:
    """Cross-architecture summary.

    For each report: its broken count, and how many of those names are
    broken only there (nowhere else they appear).  `some` counts names
    broken on at least one architecture, `every` names broken on every
    architecture carrying them.
    """
    args = _aggregate_parser().parse_args(argv)
    present: dict[str, set[str]] = {}
    broken: dict[str, set[str]] = {}
    for i, path in enumerate(args.reports):
        try:
            architecture, entries = _read_report(path)
            label = architecture or f"report{i + 1}"
            if label in present:
                raise ValueError(f"duplicate architecture {label}")
        except (OSError, ValueError, RecursionError) as exc:
            print(f"debcheck: cannot read report {path}: {exc}", file=err)
            return 2
        present[label] = {name for name, _ in entries}
        broken[label] = {name for name, installable in entries if not installable}
    labels = list(present)

    all_names = set().union(*present.values()) if present else set()
    some = sorted(name for name in all_names if any(name in broken[l] for l in labels))
    every = sorted(
        name
        for name in all_names
        if all(name in broken[l] for l in labels if name in present[l])
        and any(name in broken[l] for l in labels)
    )

    rows = []
    for label in labels:
        only_here = {
            name
            for name in broken[label]
            if all(name not in broken[other] for other in labels if other != label)
        }
        rows.append({"architecture": label, "broken": len(broken[label]),
                     "broken_only_here": len(only_here)})

    if args.format == "json":
        pieces = _json_pieces({"architectures": rows, "some": some, "every": every})
    else:
        pieces = [
            *(f"{row['architecture']}: {row['broken']} broken"
              f" ({row['broken_only_here']} only here)\n" for row in rows),
            f"some: {len(some)}   every: {len(every)}\n",
        ]
    _write_report(out, pieces)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector off.

    A run keeps hundreds of thousands of container objects alive (stanzas,
    the repository, the clause set) and makes next to no cycles, so the
    collector's full passes over them are pure overhead.  The caller's
    collector state is restored on the way out, exceptions included.

    The report is flushed before returning, so a reader that closed
    standard output shows here as `BrokenPipeError`.  Standard output then
    points at the null device, so that the interpreter's flush at exit,
    which would meet the closed pipe again, writes nowhere, and the
    command exits 2.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        out, err = sys.stdout, sys.stderr
        if argv and argv[0] == "conflicts":
            code = run_conflicts(argv[1:], out, err)
        elif argv and argv[0] == "aggregate":
            code = run_aggregate(argv[1:], out, err)
        else:
            code = run_check(_parser().parse_args(argv), sys.stdin, out, err)
        out.flush()
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
