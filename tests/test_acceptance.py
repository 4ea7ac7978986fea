"""Acceptance suite: every release-gating requirement, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict printed per criterion.
"""

import functools
import random
import time
from itertools import chain, combinations

import pytest

from debcheck.contents import CandidateStatus, classify_pairs, parse_contents, shared_file_pairs
from debcheck.expand import (
    PackageId,
    build_repository,
    expand,
    expand_version_constraints,
)
from debcheck.model import check_health, generate_rn
from debcheck.solver import (
    brute_force_check,
    check_all,
    check_coinstallable,
    check_installable,
)
from debcheck.stanza import parse_packages
from debcheck.weather import WeatherCategory, weather_category

from conftest import CHAIN_SAMPLE, CONSTRAINT_SAMPLE, VIRTUAL_SAMPLE
from test_expand import relation_sets
from conftest import propagation_refutes, random_repository


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {number}. {title}: FAIL")
                raise
            print(f"[acceptance] {number}. {title}: PASS")

        return wrapper

    return decorate


def pid(name, version="1"):
    return PackageId(name, version)


def stanzas_of(text):
    result = parse_packages(text)
    assert not result.errors
    return result.stanzas


def rn_family(n):
    """R_n and its group a1..an, co-installable only short of the whole."""
    return generate_rn(n), [pid(f"a{i}") for i in range(1, n + 1)]


def oracle_queries():
    """The same (repository, query) pairs in every run: each package of a
    random repository alone, then two pairs or triples from it, until
    1000 repositories and 500 pairs or triples have been asked about."""
    rng = random.Random(20040601)
    repos = pair_triple_queries = 0
    while repos < 1000 or pair_triple_queries < 500:
        repo = random_repository(rng, max_packages=12)
        repos += 1
        for target in repo.packages:
            yield repo, frozenset({target})
        for _ in range(2):
            if len(repo.packages) < 3:
                continue
            yield repo, frozenset(rng.sample(list(repo.packages), rng.choice([2, 3])))
            pair_triple_queries += 1


@criterion(1, "worked-example expansion is exact")
def test_criterion_1_expansion_exact():
    started = time.monotonic()

    expanded = expand_version_constraints(stanzas_of(CONSTRAINT_SAMPLE))
    expected = stanzas_of(
        "Package: a\nVersion: 1\nDepends: b(=2)|b(=3), c(=3)|d(=2)|d(=3)\n\n"
        "Package: b\nVersion: 2\n\nPackage: b\nVersion: 3\n\n"
        "Package: c\nVersion: 3\nConflicts: b(=2),b(=3)\n\n"
        "Package: d\nVersion: 1\n\nPackage: d\nVersion: 2\n\n"
        "Package: d\nVersion: 3\n"
    )
    assert relation_sets(expanded) == relation_sets(expected)

    virtual = expand(stanzas_of(VIRTUAL_SAMPLE))
    by_name = {s.name: s for s in virtual}
    assert set(by_name) == {"a", "b", "c", "d", "v", "w"}
    synthetic_w = by_name["w"].version
    expected_virtual = {
        "a": (frozenset(), frozenset()),
        "b": (
            frozenset({frozenset({("w", synthetic_w)})}),
            frozenset(),
        ),
        # the self-conflict exception: c conflicts d only, d conflicts c only
        "c": (frozenset(), frozenset({("d", "1")})),
        "d": (frozenset(), frozenset({("c", "1")})),
        "v": (
            frozenset({frozenset({("a", "1"), ("b", "1")})}),
            frozenset(),
        ),
        "w": (
            frozenset({frozenset({("c", "1"), ("d", "1")})}),
            frozenset(),
        ),
    }
    got = {
        s.name: (
            frozenset(
                frozenset((r.name, r.version) for r in alt.refs)
                for alt in s.depends.conjuncts
            ),
            frozenset((r.name, r.version) for r in s.conflicts),
        )
        for s in virtual
    }
    assert got == expected_virtual
    assert by_name["v"].is_virtual and by_name["w"].is_virtual

    assert time.monotonic() - started < 1.0


@criterion(2, "worked package/dependency/conflict sets")
def test_criterion_2_worked_repository():
    repo = build_repository(expand(stanzas_of(CONSTRAINT_SAMPLE)))
    assert set(repo.packages) == {
        pid("a"), pid("b", "2"), pid("b", "3"), pid("c", "3"),
        pid("d"), pid("d", "2"), pid("d", "3"),
    }
    assert {frozenset(d.members) for d in repo.deps[pid("a")]} == {
        frozenset({pid("b", "2"), pid("b", "3")}),
        frozenset({pid("c", "3"), pid("d", "2"), pid("d", "3")}),
    }
    assert repo.deps[pid("b", "2")] == ()
    assert repo.deps[pid("b", "3")] == ()
    declared = {
        (pid("b", "2"), pid("b", "3")),
        (pid("c", "3"), pid("b", "2")),
        (pid("c", "3"), pid("b", "3")),
    }
    implicit = {
        (pid("d", "1"), pid("d", "2")),
        (pid("d", "1"), pid("d", "3")),
        (pid("d", "2"), pid("d", "3")),
    }
    symmetric = {p for a, b in declared | implicit for p in ((a, b), (b, a))}
    assert repo.symmetric_conflicts() == symmetric


@criterion(3, "growing minimal non-co-installable families")
def test_criterion_3_rn_families():
    started = time.monotonic()
    for n in range(2, 7):
        repo, group = rn_family(n)
        for size in range(1, n):
            for subset in map(frozenset, combinations(group, size)):
                assert check_coinstallable(repo, subset).installable
                assert brute_force_check(repo, subset)
        full = frozenset(group)
        verdict = check_coinstallable(repo, full)
        assert not verdict.installable
        assert not brute_force_check(repo, full)
    assert time.monotonic() - started < 10.0


@pytest.mark.slow
@criterion(4, "solver/brute-force oracle equivalence")
def test_criterion_4_oracle_equivalence():
    started = time.monotonic()
    repos = []
    pair_triple_queries = 0
    for repo, group in oracle_queries():
        if not repos or repo is not repos[-1]:
            repos.append(repo)
        want = brute_force_check(repo, group)
        if len(group) == 1:
            (target,) = group
            got = check_installable(repo, target)
        else:
            got = check_coinstallable(repo, group)
            pair_triple_queries += 1
        assert got.installable == want
    elapsed = time.monotonic() - started
    assert len(repos) >= 1000 and pair_triple_queries >= 500
    assert elapsed < 120.0, f"oracle equivalence took {elapsed:.1f}s"


@criterion(5, "explanations replay as non-installable")
def test_criterion_5_explanation_validity():
    chain_repo = build_repository(expand(stanzas_of(CHAIN_SAMPLE)))
    queries = chain(
        [(chain_repo, frozenset({pid("camping", "1.5+svn242-1")}))],
        ((repo, frozenset(group)) for repo, group in map(rn_family, range(2, 7))),
        oracle_queries(),
    )
    cases = 0
    for repo, queried in queries:
        result = check_coinstallable(repo, queried)
        if result.installable:
            continue
        cases += 1
        explanation = result.explanation
        assert explanation is not None
        induced = explanation.induced_repository()
        if len(induced.packages) > 20:
            continue
        assert queried <= induced.package_set
        assert not brute_force_check(induced, queried)
    assert cases > 50


def _synthetic_distribution(count=20000, seed=16042008):
    """Layered random distribution: mean 4 dependencies, one conflict
    declaration per two packages, one alternative in ten disjunctive."""
    rng = random.Random(seed)
    blocks = []
    for i in range(count):
        fields = [f"Package: pkg{i:05d}", "Version: 1"]
        if i > 2:
            conjuncts = []
            for _ in range(rng.choice([2, 3, 4, 5, 6])):  # mean 4
                if rng.random() < 0.10:
                    width = rng.choice([2, 3])
                    members = {
                        f"pkg{int(i * rng.random() ** 2.5):05d}" for _ in range(width)
                    }
                    conjuncts.append(" | ".join(sorted(members)))
                else:
                    conjuncts.append(f"pkg{int(i * rng.random() ** 2.5):05d}")
            if i % 997 == 0:
                conjuncts.append("nonexistent (>= 1)")
            fields.append("Depends: " + ", ".join(conjuncts))
        if rng.random() < 0.5:
            hi = count - 1 - int((count * 0.4) * rng.random())
            lo = count - 1 - int((count * 0.4) * rng.random())
            if hi != i and lo != i and hi != lo:
                fields.append(f"Conflicts: pkg{hi:05d}, pkg{lo:05d}"
                              if rng.random() < 0.25 else f"Conflicts: pkg{hi:05d}")
        blocks.append("\n".join(fields))
    return "\n\n".join(blocks) + "\n"


@pytest.mark.slow
@criterion(6, "whole-repository check at distribution scale")
def test_criterion_6_scale():
    text = _synthetic_distribution()
    started = time.monotonic()
    parsed = parse_packages(text)
    assert not parsed.errors
    repo = build_repository(expand(parsed.stanzas))
    results = check_all(repo)
    elapsed = time.monotonic() - started
    broken = sum(1 for r in results.values() if not r.installable)
    assert len(results) == 20000
    assert broken > 0  # the seeded distribution does contain breakage
    assert elapsed < 60.0, f"check_all on 20k packages took {elapsed:.1f}s"
    print(f"[acceptance]    scale run: {elapsed:.1f}s, {broken} broken", end=" ")
    # Certificates, outside the bound: each distinct witness is a healthy
    # installation holding every package that shares it, and unit
    # propagation refutes every explanation.
    sharing = {}
    for pid, result in results.items():
        if result.installable:
            sharing.setdefault(id(result.witness), (result.witness, []))[1].append(pid)
    for witness, pids in sharing.values():
        assert check_health(witness, repo).healthy
        assert witness.issuperset(pids)
    assert all(propagation_refutes(r.explanation) for r in results.values() if not r.installable)


@criterion(7, "weather bands")
def test_criterion_7_weather():
    probes = {
        0.005: WeatherCategory.CLEAR,
        0.015: WeatherCategory.FEW_CLOUDS,
        0.025: WeatherCategory.CLOUDS,
        0.035: WeatherCategory.SHOWERS,
        0.045: WeatherCategory.STORM,
    }
    for fraction, expected in probes.items():
        assert weather_category(fraction) is expected


def _funnel_fixture():
    blocks = []

    def add(name, **fields):
        lines = [f"Package: {name}", "Version: 1"]
        for key, value in fields.items():
            lines.append(f"{key.capitalize()}: {value}")
        blocks.append("\n".join(lines))

    # 3 pairs that cannot be installed together
    add("n1a", conflicts="n1b")
    add("n1b")
    add("n2a", depends="x1")
    add("n2b", depends="x2")
    add("x1", conflicts="x2")
    add("x2")
    add("n3a", depends="y1")
    add("n3b", depends="y2")
    add("y1", depends="y3")
    add("y2", depends="y4")
    add("y3", conflicts="y4")
    add("y4")
    # 2 pairs excused by a replaces declaration (one per direction)
    add("r1a", replaces="r1b")
    add("r1b")
    add("r2a")
    add("r2b", replaces="r2a")
    # 5 plain candidate pairs
    for i in range(1, 6):
        add(f"c{i}a")
        add(f"c{i}b")
    # filler up to 50 packages
    for i in range(50 - 26):
        add(f"filler{i:02d}")
    packages = "\n\n".join(blocks) + "\n"

    sharing = [
        ("n1a", "n1b"), ("n2a", "n2b"), ("n3a", "n3b"),
        ("r1a", "r1b"), ("r2a", "r2b"),
    ] + [(f"c{i}a", f"c{i}b") for i in range(1, 6)]
    lines = [
        f"usr/share/shared{i:02d}    main/{a},main/{b}"
        for i, (a, b) in enumerate(sharing)
    ]
    lines += [f"usr/share/only{i:02d}    main/filler{i:02d}" for i in range(10)]
    return packages, "\n".join(lines) + "\n"


@criterion(8, "conflict-scan funnel partition")
def test_criterion_8_funnel():
    packages_text, contents_text = _funnel_fixture()
    parsed = parse_packages(packages_text)
    assert not parsed.errors
    assert len(parsed.stanzas) == 50
    repo = build_repository(expand(parsed.stanzas))

    pairs = shared_file_pairs(parse_contents(contents_text).index)
    assert len(pairs) == 10
    outcome = classify_pairs(pairs, repo, parsed.stanzas)
    assert not outcome.undetermined
    by_status = {}
    for candidate in outcome.classified:
        by_status.setdefault(candidate.status, set()).add(candidate.pair)
    assert by_status[CandidateStatus.NOT_COINSTALLABLE] == {
        ("n1a", "n1b"), ("n2a", "n2b"), ("n3a", "n3b"),
    }
    assert by_status[CandidateStatus.EXCUSED_BY_REPLACES] == {
        ("r1a", "r1b"), ("r2a", "r2b"),
    }
    assert by_status[CandidateStatus.CANDIDATE] == {
        (f"c{i}a", f"c{i}b") for i in range(1, 6)
    }


@criterion(9, "dependency chain rendering")
def test_criterion_9_chain_rendering():
    repo = build_repository(expand(stanzas_of(CHAIN_SAMPLE)))
    result = check_installable(repo, pid("camping", "1.5+svn242-1"))
    assert not result.installable
    sequence = [
        step.package.name
        for chain in result.explanation.chains
        for step in chain.steps
    ]
    assert sequence == ["camping", "rails", "rdoc", "rdoc1.8"]
    last_line = result.explanation.chains[-1].render_lines()[-1]
    assert last_line.endswith("{NOT AVAILABLE}")
