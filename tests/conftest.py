"""Shared fixtures and independent reference oracles.

The oracles here re-implement the semantics directly and naively so the
library is always checked against a second, unrelated code path:

- `dpkg_compare` shells out to the system dpkg.
- `direct_installable` interprets *raw* stanzas (constraints, Provides,
  virtual conflicts) by exhaustive enumeration, without any expansion.
- `reference_health` is a literal transcription of the healthiness
  definition, separate from the library's implementation.
- `propagation_refutes` replays an explanation by unit propagation over
  its own edges, without the solver's encoding or engine.
"""

from __future__ import annotations

import random
import shutil
import subprocess
from itertools import combinations

import pytest

from debcheck.expand import DepClause, PackageId, Repository, conflict_pair, package_sort_key
from debcheck.stanza import PackageStanza
from debcheck.version import satisfies

# -- worked fixtures --------------------------------------------------------

CONSTRAINT_SAMPLE = """\
Package: a
Version: 1
Depends: b, c|d(>=2)

Package: b
Version: 2

Package: b
Version: 3

Package: c
Version: 3
Conflicts: b

Package: d
Version: 1

Package: d
Version: 2

Package: d
Version: 3
"""

VIRTUAL_SAMPLE = """\
Package: a
Version: 1
Provides: v

Package: b
Version: 1
Provides: v
Depends: w

Package: c
Version: 1
Provides: w
Conflicts: w

Package: d
Version: 1
Provides: w
Conflicts: w
"""

CHAIN_SAMPLE = """\
Package: camping
Version: 1.5+svn242-1
Depends: rails

Package: rails
Version: 2.0.2-2
Depends: rdoc (>> 1.8.2)

Package: rdoc
Version: 4.2
Depends: rdoc1.8

Package: rdoc1.8
Version: 1.8.7.22-1
Depends: ruby1.8 (>= 1.8.7.22-1)
"""


@pytest.fixture
def constraint_sample() -> str:
    return CONSTRAINT_SAMPLE


@pytest.fixture
def virtual_sample() -> str:
    return VIRTUAL_SAMPLE


@pytest.fixture
def chain_sample() -> str:
    return CHAIN_SAMPLE


# -- dpkg oracle ------------------------------------------------------------

HAVE_DPKG = shutil.which("dpkg") is not None


def dpkg_compare(a: str, b: str) -> int:
    """Three-way comparison via the system's dpkg."""
    for flag, outcome in (("lt", -1), ("eq", 0)):
        proc = subprocess.run(
            ["dpkg", "--compare-versions", a, flag, b],
            stderr=subprocess.DEVNULL,
        )
        if proc.returncode == 0:
            return outcome
    return 1


# -- direct interpretation of raw stanzas ------------------------------------


def _ref_matches_stanza(ref, stanza: PackageStanza) -> bool:
    """Does an installed stanza satisfy one dependency reference?"""
    if stanza.name == ref.name:
        if ref.relation is None:
            return True
        return satisfies(stanza.version, ref.relation, ref.version)
    # a provided name satisfies only unconstrained references
    return ref.relation is None and ref.name in stanza.provides


def _stanzas_conflict(s: PackageStanza, t: PackageStanza) -> bool:
    if s is t:
        return False
    if s.name == t.name and s.version != t.version:
        return True
    for owner, other in ((s, t), (t, s)):
        for ref in owner.conflicts:
            if other.name == ref.name:
                if ref.relation is None or satisfies(
                    other.version, ref.relation, ref.version
                ):
                    return True
            elif ref.relation is None and ref.name in other.provides:
                return True
    return False


def _subset_healthy(subset: list[PackageStanza]) -> bool:
    for s in subset:
        for alternative in s.depends.conjuncts:
            if not any(
                _ref_matches_stanza(ref, t) for ref in alternative.refs for t in subset
            ):
                return False
    for s, t in combinations(subset, 2):
        if _stanzas_conflict(s, t):
            return False
    return True


def direct_installable(stanzas: list[PackageStanza], targets) -> bool:
    """Exhaustive co-installability over raw stanzas, no expansion at all."""
    targets = list(targets)
    rest = [s for s in stanzas if s not in targets]
    for bits in range(1 << len(rest)):
        subset = targets + [s for i, s in enumerate(rest) if (bits >> i) & 1]
        if _subset_healthy(subset):
            return True
    return False


# -- literal healthiness definition -------------------------------------------


def reference_health(installed: frozenset[PackageId], repo: Repository) -> bool:
    """Abundance and peace, transcribed directly."""
    for pid in installed:
        for d in repo.deps.get(pid, ()):
            if not (installed & d.members):
                return False
    for a in installed:
        for b in installed:
            if a != b and conflict_pair(a, b) in repo.conflicts:
                return False
    return True


# -- unit-propagation replay of explanations -----------------------------------


def propagation_refutes(explanation) -> bool:
    """Whether unit propagation alone rules out an explanation's query.

    Assume the queried packages installed and apply, until nothing
    changes: a conflict pair with one end installed removes the other; a
    dependency edge of an installed package with every member removed is
    a conflict, and with one member left installs it; a package with an
    edge whose members are all removed is removed.  The pairs are the
    explanation's conflict edges plus every two versions of one name
    among the packages it mentions.  Reaching a conflict (a package both
    installed and removed) is a proof that the explanation's edges rule
    the query out, a reverse-unit-propagation check; not reaching one
    proves nothing either way.
    """
    deps = [(edge.package, edge.clause.members) for edge in explanation.dep_edges]
    mentioned = set(explanation.queried)
    for owner, members in deps:
        mentioned.add(owner)
        mentioned |= members
    for pair in explanation.conflict_edges:
        mentioned.update(pair)
    pairs = list(explanation.conflict_edges)
    pairs += [(a, b) for a, b in combinations(mentioned, 2) if a.name == b.name]

    installed = set(explanation.queried)
    removed: set[PackageId] = set()
    changed = True
    while changed:
        if installed & removed:
            return True
        changed = False
        for a, b in pairs:
            for kept, other in ((a, b), (b, a)):
                if kept in installed and other not in removed:
                    removed.add(other)
                    changed = True
        for owner, members in deps:
            left = [m for m in members if m not in removed]
            if owner in installed:
                if not left:
                    return True
                if len(left) == 1 and left[0] not in installed:
                    installed.add(left[0])
                    changed = True
            elif not left and owner not in removed:
                removed.add(owner)
                changed = True
    return bool(installed & removed)


# -- random repository generation ---------------------------------------------


def random_repository(rng: random.Random, max_packages: int = 12) -> Repository:
    """A small random repository with alternatives, conflicts, and some
    multi-version names (hence implicit conflicts) and dead references."""
    n = rng.randint(2, max_packages)
    pids = []
    name_pool = [f"p{i}" for i in range(max(2, n - rng.randint(0, 2)))]
    for name in name_pool:
        versions = rng.sample(["1", "2", "3"], rng.choice([1, 1, 1, 2]))
        for v in versions:
            pids.append(PackageId(name, v))
    pids = sorted(set(pids), key=package_sort_key)[:n]

    deps = {}
    for pid in pids:
        clauses = []
        for _ in range(rng.randint(0, 3)):
            members = frozenset(
                rng.sample(pids, min(len(pids), rng.choice([1, 1, 2, 3])))
            )
            if rng.random() < 0.08:
                members = frozenset()  # unsatisfiable alternative
            clauses.append(
                DepClause(members, label=" | ".join(m.name for m in sorted(members, key=package_sort_key)))
            )
        deps[pid] = tuple(clauses)

    conflicts = set()
    for a, b in combinations(pids, 2):
        if a.name == b.name or rng.random() < 0.12:
            conflicts.add(conflict_pair(a, b))

    return Repository(packages=tuple(pids), deps=deps, conflicts=frozenset(conflicts))
