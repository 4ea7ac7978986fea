"""Check at full size that every witness is a healthy installation.

Usage: PYTHONPATH=src python tests/check_witnesses.py CONFLICTS_PACKAGES ARCHIVE_PACKAGES

On the first `Packages` file, every witness that the witness pass yields
from every package, as `coinstallable_pairs` runs it, must be healthy
(`check_health`) and hold the packages it is yielded for: component
witnesses and member witnesses alike.  On the second, so must every
distinct witness of `check_all`, for every package that shares it, and
a second read of each result's witness must return the same object.  The
solver checks its witnesses itself only under `__debug__` and up to
`_DEBUG_CHECK_LIMIT` packages, which full-size inputs exceed.  Prints
what it checked and exits 1 at the first witness that fails.
"""

from __future__ import annotations

import sys
import time

from debcheck import solver
from debcheck.expand import build_repository, expand
from debcheck.model import check_health
from debcheck.stanza import parse_packages


def load(path: str) -> solver.RepositoryChecker:
    with open(path, "rb") as f:
        text = f.read().decode("utf-8", errors="replace")
    return solver.RepositoryChecker(build_repository(expand(parse_packages(text).stanzas)))


def check(witness, holds, repo, what: str) -> None:
    missing, health = holds - witness, check_health(witness, repo)
    if missing or not health.healthy:
        sys.exit(f"{what}: {len(missing)} of its packages missing,"
                 f" {len(health.abundance_violations)} unmet dependencies,"
                 f" {len(health.peace_violations)} conflicts")


def check_pass(path: str) -> None:
    """Every witness the pass yields on `path`, with the members solved."""
    checker = load(path)
    engine, package_of = checker._engine, checker.clause_set.package_of
    solved = set()
    solve = engine.solve

    def recording_solve(assumptions, core=False):
        solved.add(assumptions[0])
        return solve(assumptions, core)

    engine.solve = recording_solve
    at, walk = solver._witness_pass(checker.clause_set, engine,
                                    range(1, len(checker.repo.packages) + 1))
    components = members = 0
    for held, cone, _ in walk:
        member = held[0] in solved
        witness = frozenset(package_of(at[i]) for i in solver._set_bits(cone))
        check(witness, {package_of(v) for v in held}, checker.repo,
              f"{path}: the {'member' if member else 'component'} witness of {package_of(held[0])}")
        members += member
        components += not member
    print(f"{path}: {components} component and {members} member witnesses healthy,"
          f" {len(solved)} members solved")


def check_results(path: str) -> None:
    """Every distinct witness of `check_all` on `path`."""
    checker = load(path)
    sharing: dict[int, list] = {}
    witnesses = {}
    for pid, result in checker.check_all(explain=False).items():
        if result.installable:
            witness = result.witness
            if result.witness is not witness:
                sys.exit(f"{path}: a second read of the witness of {pid} gave another set")
            sharing.setdefault(id(witness), []).append(pid)
            witnesses[id(witness)] = witness
    for key, pids in sharing.items():
        check(witnesses[key], set(pids), checker.repo, f"{path}: the witness of {pids[0]}")
    print(f"{path}: {len(witnesses)} distinct check_all witnesses healthy,"
          f" shared by {sum(map(len, sharing.values()))} packages")


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    start = time.perf_counter()
    check_pass(argv[0])
    check_results(argv[1])
    print(f"{time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
