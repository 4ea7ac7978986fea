"""Installations, health checking, and worked repository families.

An installation is healthy when it is *abundant* (every dependency
alternative of every installed package is met within the installation)
and *peaceful* (no two installed packages conflict).  A package is
installable iff some healthy installation contains it; a set is
co-installable iff some healthy installation contains all of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expand import (
    DepClause,
    PackageId,
    Repository,
    conflict_pair,
    package_sort_key,
)

#: An installation is simply a finite subset of the repository's packages.
Installation = frozenset[PackageId]


@dataclass(frozen=True)
class HealthReport:
    """All violations of an installation, not just the first found."""

    healthy: bool
    abundance_violations: tuple[tuple[PackageId, DepClause], ...]
    peace_violations: tuple[tuple[PackageId, PackageId], ...]


def check_health(inst: Installation, repo: Repository) -> HealthReport:
    """Evaluate abundance and peace for `inst` within `repo`."""
    members = frozenset(inst)
    unknown = members - repo.package_set
    if unknown:
        worst = sorted(unknown, key=package_sort_key)[0]
        raise ValueError(f"installation member not in repository: {worst.render()}")

    abundance = []
    peace = []
    for pid in sorted(members, key=package_sort_key):
        for clause in repo.deps.get(pid, ()):
            if not (clause.members & members):
                abundance.append((pid, clause))
        for other in sorted(repo.conflict_neighbours[pid] & members, key=package_sort_key):
            pair = conflict_pair(pid, other)
            if pair[0] == pid:
                peace.append(pair)

    return HealthReport(
        healthy=not abundance and not peace,
        abundance_violations=tuple(abundance),
        peace_violations=tuple(peace),
    )


def is_trimmed(
    repo: Repository, include_virtuals: bool = False
) -> tuple[bool, list[PackageId]]:
    """True iff every package of the repository is installable.

    Synthesized virtual packages are skipped unless `include_virtuals`;
    the second component lists the non-installable packages.
    """
    from .solver import check_all  # deferred: solver builds on this module

    broken = [
        pid
        for pid, result in check_all(repo, explain=False).items()
        if not result.installable and (include_virtuals or pid not in repo.virtuals)
    ]
    return (not broken, broken)


def generate_rn(n: int) -> Repository:
    """Repository family whose minimal non-co-installable set grows with n.

    Packages a1..an and b1..bn, all version "1".  Each ai depends on the
    disjunction of every bj with j != i, and the b's conflict pairwise.
    Any proper subset of the a's is co-installable; the full set is not,
    because it would need two distinct (conflicting) b's.  For n == 1 the
    construction yields a single empty alternative for a1, making a1
    non-installable; that degenerate shape is kept deliberately.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = [PackageId(f"a{i}", "1") for i in range(1, n + 1)]
    b = [PackageId(f"b{i}", "1") for i in range(1, n + 1)]

    deps: dict[PackageId, tuple[DepClause, ...]] = {}
    for i, pid in enumerate(a):
        members = frozenset(b[j] for j in range(n) if j != i)
        label = " | ".join(q.name for j, q in enumerate(b) if j != i)
        deps[pid] = (DepClause(members, label=label),)
    for pid in b:
        deps[pid] = ()

    conflicts = frozenset(
        conflict_pair(b[i], b[j]) for i in range(n) for j in range(i + 1, n)
    )
    packages = tuple(sorted(a + b, key=package_sort_key))
    return Repository(packages=packages, deps=deps, conflicts=conflicts)
