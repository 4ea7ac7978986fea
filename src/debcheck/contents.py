"""Static detection of file-overwrite conflict candidates.

A distribution's ``Contents`` index maps file paths to owning packages.
Two packages shipping the same path will fail to install together unless
they cannot be installed together anyway, or one of them declares the
right to replace the other's files.  The remaining pairs are candidates
for real overwrite problems.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import IO, Iterable

from .expand import PackageId, Repository, package_sort_key
from .solver import RepositoryChecker
from .stanza import PackageStanza, iter_text_lines


@dataclass(frozen=True)
class ContentsIndex:
    """Map from file path (no leading slash) to owning package names."""

    entries: dict[str, frozenset[str]]


@dataclass
class ContentsParseResult:
    index: ContentsIndex
    warnings: list[str]


class CandidateStatus(enum.Enum):
    NOT_COINSTALLABLE = "not-coinstallable"
    EXCUSED_BY_REPLACES = "excused-by-replaces"
    CANDIDATE = "candidate"


@dataclass(frozen=True)
class ConflictCandidate:
    """An unordered package-name pair sharing at least one file."""

    pair: tuple[str, str]
    shared_paths: tuple[str, ...]
    status: CandidateStatus | None = None


@dataclass
class ClassificationResult:
    classified: list[ConflictCandidate]
    undetermined: list[tuple[tuple[str, str], str]]


def _strip_qualifier(qualified: str) -> str:
    """Reduce 'section/name' or 'component/section/name' to the name."""
    return qualified.rsplit("/", 1)[-1]


def parse_contents(source: str | bytes | IO | Iterable[str]) -> ContentsParseResult:
    """Parse a Contents table: path, whitespace, comma-separated owners.

    An optional header block is skipped up to the conventional
    ``FILE LOCATION`` separator line when one appears near the top.
    """
    lines = list(iter_text_lines(source))
    start = 0
    for i, line in enumerate(lines[:100]):
        if line.split() == ["FILE", "LOCATION"]:
            start = i + 1
            break

    entries: dict[str, set[str]] = {}
    warnings: list[str] = []
    for number, raw in enumerate(lines[start:], start=start + 1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            warnings.append(f"line {number}: no separator between path and packages")
            continue
        path, owners = parts
        names = frozenset(
            _strip_qualifier(name) for name in owners.split(",") if name.strip()
        )
        if not names:
            warnings.append(f"line {number}: empty package list")
            continue
        entries.setdefault(path, set()).update(names)

    index = ContentsIndex({path: frozenset(names) for path, names in entries.items()})
    return ContentsParseResult(index, warnings)


def shared_file_pairs(index: ContentsIndex) -> list[ConflictCandidate]:
    """All unordered name pairs co-owning at least one path, sorted."""
    paths_by_pair: dict[tuple[str, str], list[str]] = {}
    for path in sorted(index.entries):
        owners = sorted(index.entries[path])
        for i, a in enumerate(owners):
            for b in owners[i + 1:]:
                paths_by_pair.setdefault((a, b), []).append(path)
    return [
        ConflictCandidate(pair, tuple(sorted(paths)))
        for pair, paths in sorted(paths_by_pair.items())
    ]


def _newest_version(repo: Repository, name: str) -> PackageId | None:
    candidates = [
        pid for pid in repo.versions_by_name.get(name, []) if pid not in repo.virtuals
    ]
    if not candidates:
        return None
    return sorted(candidates, key=package_sort_key)[0]  # versions sort newest first


def classify_pairs(
    candidates: list[ConflictCandidate],
    repo: Repository,
    stanzas: list[PackageStanza],
) -> ClassificationResult:
    """Decide each sharing pair: impossible together, excused, or a candidate.

    Co-installability is probed at the newest available version of each
    name.  Replaces excuses a pair in either direction; any version
    constraint on a Replaces entry was already dropped during parsing, so
    the excusal is unconditional.
    """
    replaces: dict[tuple[str, str], frozenset[str]] = {
        (s.name, s.version): frozenset(s.replaces) for s in stanzas
    }
    checker = RepositoryChecker(repo)

    classified: list[ConflictCandidate] = []
    undetermined: list[tuple[tuple[str, str], str]] = []
    for candidate in sorted(candidates, key=lambda c: c.pair):
        a, b = candidate.pair
        pid_a = _newest_version(repo, a)
        pid_b = _newest_version(repo, b)
        if pid_a is None or pid_b is None:
            missing = a if pid_a is None else b
            undetermined.append(
                (candidate.pair, f"package {missing!r} not in the repository")
            )
            continue
        if not checker.query([pid_a, pid_b], explain=False).installable:
            status = CandidateStatus.NOT_COINSTALLABLE
        elif b in replaces.get((pid_a.name, pid_a.version), frozenset()) or a in replaces.get(
            (pid_b.name, pid_b.version), frozenset()
        ):
            status = CandidateStatus.EXCUSED_BY_REPLACES
        else:
            status = CandidateStatus.CANDIDATE
        classified.append(
            ConflictCandidate(candidate.pair, candidate.shared_paths, status)
        )
    return ClassificationResult(classified, undetermined)
