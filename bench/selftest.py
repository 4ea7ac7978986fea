"""Tests of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py

The generators must be deterministic and keep the structure across seeds,
the independent checker in
oracle.py must agree with the program's exhaustive `brute_force_check`,
and the report checks must notice a wrong verdict.
"""

from __future__ import annotations

import contextlib
import io
import random

import pytest

import checks
import workloads
from oracle import Oracle

from debcheck.cli import main as cli_main
from debcheck.expand import PackageId, Repository, build_repository, expand
from debcheck.solver import brute_force_check
from debcheck.stanza import parse_packages


def _bytes(name: str, seed: int) -> bytes:
    if name == "archive":
        return workloads.archive(seed, 200).render()
    if name == "transition":
        return workloads.transition(seed, 100).render()
    scan = workloads.conflicts(seed, 100, 40)
    return scan.archive.render() + scan.contents


@pytest.mark.parametrize("name", ["archive", "transition", "conflicts"])
def test_same_seed_same_bytes(name):
    assert _bytes(name, 7) == _bytes(name, 7)
    assert _bytes(name, 7) != _bytes(name, 8)


def test_seed_keeps_the_structure():
    def structure(arc):
        return [(p.name, p.key, p.depends, p.conflicts, p.provides) for p in arc.pkgs]

    assert structure(workloads.transition(7, 100)) == structure(workloads.transition(8, 100))
    assert structure(workloads.archive(7, 200)) == structure(workloads.archive(8, 200))


def _cone_repository(repo: Repository, query: list[PackageId]) -> Repository:
    """The sub-repository of everything `query` can reach by dependencies.

    Installability of the query is the same in it as in the whole
    repository.  Cones of more than 16 packages are left out, to keep the
    enumeration of `brute_force_check` quick.
    """
    seen = set(query)
    stack = list(query)
    while stack:
        for clause in repo.deps[stack.pop()]:
            for member in clause.members - seen:
                seen.add(member)
                stack.append(member)
    return Repository(
        packages=tuple(p for p in repo.packages if p in seen),
        deps={p: repo.deps[p] for p in seen},
        conflicts=frozenset((a, b) for a, b in repo.conflicts if a in seen and b in seen),
    )


def _program_repository(arc: workloads.Archive) -> tuple[Repository, list[PackageId]]:
    repo = build_repository(expand(parse_packages(arc.render()).stanzas))
    ids = [PackageId(p.name, arc.version(p.name, p.key)) for p in arc.pkgs]
    return repo, ids


def _brute(repo: Repository, query: list[PackageId]) -> bool | None:
    cone = _cone_repository(repo, query)
    if len(cone.packages) > 16:
        return None
    return brute_force_check(cone, frozenset(query))


@pytest.mark.parametrize("make", [
    lambda seed: workloads.surface(workloads.layered(random.Random(seed), 40), "t", seed),
    lambda seed: workloads.surface(
        workloads.multi_version(random.Random(seed), 14, old_library=False), "t", seed),
    lambda seed: workloads.multi_version(random.Random(seed), 14, old_library=True),
], ids=["archive", "transition", "multi-version"])
def test_oracle_agrees_with_brute_force(make):
    compared = 0
    for seed in range(12):
        arc = make(seed)
        oracle = Oracle(arc.pkgs)
        fine = oracle.forced_installable()
        repo, ids = _program_repository(arc)
        for p, pid in enumerate(ids):
            truth = _brute(repo, [pid])
            if truth is None:
                continue
            compared += 1
            if p in oracle.forced_broken:
                assert truth is False, pid
            if p in fine:
                assert truth is True, pid
            assert oracle.installable([p]) is truth, pid
    assert compared >= 100


def test_oracle_pairs_agree_with_brute_force():
    compared = 0
    for seed in range(12):
        arc = workloads.multi_version(random.Random(seed), 14, old_library=True)
        oracle = Oracle(arc.pkgs)
        repo, ids = _program_repository(arc)
        rng = random.Random(seed)
        for _ in range(20):
            a, b = rng.sample(range(len(ids)), 2)
            truth = _brute(repo, [ids[a], ids[b]])
            if truth is not None:
                compared += 1
                assert oracle.installable([a, b]) is truth, (ids[a], ids[b])
    assert compared >= 50


def test_planted_pairs_hold():
    scan = workloads.conflicts(3, 30, 20)
    repo, _ = _program_repository(scan.archive)
    newest = {name: PackageId(name, scan.archive.version(name, pkg.key))
              for name, pkg in scan.archive.newest().items()}
    assert scan.pairs
    for (a, b), (status, _) in scan.pairs.items():
        truth = _brute(repo, [newest[a], newest[b]])
        if truth is not None:
            assert truth is (status != workloads.NOT_COINSTALLABLE), (a, b)


def _cli(args: list[str]) -> tuple[str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cli_main(args)
    return out.getvalue(), err.getvalue()


def test_verdict_check_notices_a_wrong_verdict(tmp_path):
    arc = workloads.archive(5, 300)
    path = tmp_path / "Packages"
    path.write_bytes(arc.render())
    verdicts = checks.VerdictCheck(arc, 5)
    stdout, _ = _cli([str(path)])
    assert verdicts.check_text(stdout, "") == (verdicts.ops, 0)

    broken = next(pid for pid, ok in verdicts.expected.items() if not ok)
    dropped = stdout.replace(f"{broken}: NOT INSTALLABLE\n", "")
    assert verdicts.check_text(dropped, "")[1] >= 1

    stdout, _ = _cli(["--explain", "--failures-only", "--format=json", str(path)])
    assert verdicts.check_json(stdout, "") == (verdicts.ops, 0)


def test_pair_check_notices_a_wrong_class(tmp_path):
    scan = workloads.conflicts(4, 150, 60)
    packages, contents = tmp_path / "Packages", tmp_path / "Contents"
    packages.write_bytes(scan.archive.render())
    contents.write_bytes(scan.contents)
    pairs = checks.PairCheck(scan)
    stdout, stderr = _cli(["conflicts", "--contents", str(contents), "--packages", str(packages)])
    assert pairs.check(stdout, stderr) == (pairs.ops, 0)

    wrong = stdout.replace(": candidate:", ": not-coinstallable:", 1)
    assert pairs.check(wrong, stderr)[1] == 1
