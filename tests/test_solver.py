import hashlib
import pickle
import random
import re
from dataclasses import FrozenInstanceError
from itertools import combinations, product
from pathlib import Path
from typing import Iterator

import pytest

from debcheck.expand import (
    DepClause,
    PackageId,
    Repository,
    build_repository,
    conflict_pair,
    expand,
    package_sort_key,
)
from debcheck import solver
from debcheck.contents import CandidateStatus, ConflictCandidate, classify_pairs
from debcheck.model import check_health, generate_rn
from debcheck.solver import (
    CheckResult,
    DependencyEdge,
    Explanation,
    brute_force_check,
    check_all,
    check_coinstallable,
    check_installable,
    encode,
)
from debcheck.stanza import parse_packages

from conftest import (
    CHAIN_SAMPLE,
    CONSTRAINT_SAMPLE,
    VIRTUAL_SAMPLE,
    propagation_refutes,
    random_repository,
)
from test_acceptance import _synthetic_distribution
from test_contents import counting_queries
from test_expand import frontend_inputs


def pid(name, version="1"):
    return PackageId(name, version)


def repo_from(text):
    return build_repository(expand(parse_packages(text).stanzas))


def make_repo(names, deps, conflicts):
    packages = tuple(sorted((pid(n) for n in names), key=str))
    dep_map = {
        pid(n): tuple(
            DepClause(frozenset(pid(m) for m in members), label="|".join(sorted(members)))
            for members in deps.get(n, ())
        )
        for n in names
    }
    pairs = frozenset(conflict_pair(pid(a), pid(b)) for a, b in conflicts)
    return Repository(packages=packages, deps=dep_map, conflicts=pairs)


class TestEncode:
    def test_dependency_clause_shapes(self):
        repo = make_repo(
            "pabcdef",
            {"p": [["a"], ["b"], ["c", "d"], ["e", "f"]]},
            [],
        )
        cs = encode(repo)
        var = cs.var_of
        clause_sets = {frozenset(c) for c in cs.clauses}
        assert clause_sets == {
            frozenset({-var(pid("p")), var(pid("a"))}),
            frozenset({-var(pid("p")), var(pid("b"))}),
            frozenset({-var(pid("p")), var(pid("c")), var(pid("d"))}),
            frozenset({-var(pid("p")), var(pid("e")), var(pid("f"))}),
        }

    def test_conflict_clause(self):
        repo = make_repo("ab", {}, [("a", "b")])
        cs = encode(repo)
        assert set(cs.clauses) == {(-cs.var_of(pid("a")), -cs.var_of(pid("b")))}

    def test_empty_repository(self):
        repo = Repository(packages=(), deps={}, conflicts=frozenset())
        cs = encode(repo)
        assert cs.clauses == ()

    def test_clause_origin_invariants(self, sample_3000):
        """Each origin is the repository's own object, and its clause is
        exactly what that object encodes.  `ends` marks each package's
        dependency clauses, and the conflict pairs follow them."""
        repos = [build_repository(expand(stanzas)) for stanzas in frontend_inputs().values()]
        for repo in repos + [sample_3000]:
            cs = encode(repo)
            assert len(cs.origins) == len(cs.clauses)
            pairs = {id(pair) for pair in repo.conflicts}
            n, ends = len(cs.packages), cs.ends
            assert cs.index == {p: i for i, p in enumerate(repo.packages, 1)}
            assert len(ends) == n + 1 and ends[0] == 0
            assert all(a <= b for a, b in zip(ends, ends[1:]))
            for v in range(1, n + 1):
                for ci in range(ends[v - 1], ends[v]):
                    assert cs.clauses[ci][0] == -v
                    assert isinstance(cs.origins[ci], DepClause)
            for clause, origin in zip(cs.clauses[ends[-1]:], cs.origins[ends[-1]:]):
                assert len(clause) == 2 and clause[0] < 0 and clause[1] < 0
                assert id(origin) in pairs
            seen_pairs = set()
            for clause, origin in zip(cs.clauses, cs.origins):
                if isinstance(origin, DepClause):
                    owner = cs.package_of(-clause[0])
                    assert any(origin is c for c in repo.deps[owner])
                    assert sorted(cs.var_of(m) for m in origin.members) == list(clause[1:])
                else:
                    assert id(origin) in pairs
                    a, b = origin
                    assert clause == (-cs.var_of(a), -cs.var_of(b))
                    seen_pairs.add(id(origin))
            assert seen_pairs == pairs

    def test_assumptions_become_unit_clauses(self):
        repo = make_repo("abc", {"a": [["b"]]}, [("b", "c")])
        base = encode(repo)
        cs = base.with_assumptions([pid("a")])
        assert cs.clauses[-1] == (cs.var_of(pid("a")),)
        assert cs.origins[-1] == pid("a")
        assert cs.ends is base.ends and cs.index is base.index
        assert cs.clauses[:-1] == base.clauses and cs.origins[:-1] == base.origins
        assert base.ends[-1] == 1 and len(base.clauses) == 2

    def test_dimacs_dump(self):
        repo = make_repo("ab", {"a": [["b"]]}, [])
        text = encode(repo).to_dimacs()
        lines = text.splitlines()
        assert "p cnf 2 1" in lines
        assert any(line.startswith("c 1 ") for line in lines)
        assert lines[-1].endswith(" 0")


class TestCheckInstallable:
    def test_worked_repo_all_installable_with_healthy_witness(self, constraint_sample):
        repo = repo_from(constraint_sample)
        result = check_installable(repo, pid("a"))
        assert result.installable
        assert pid("a") in result.witness
        assert check_health(result.witness, repo).healthy
        assert brute_force_check(repo, frozenset({pid("a")}))

    def test_empty_alternative_not_installable(self):
        repo = make_repo("p", {"p": [[]]}, [])
        result = check_installable(repo, pid("p"))
        assert not result.installable
        (chain,) = result.explanation.chains
        assert chain.packages() == [pid("p")]
        assert chain.steps[-1].clause.members == frozenset()
        assert "{NOT AVAILABLE}" in chain.render_lines()[-1]

    def test_chain_terminates_in_not_available(self, chain_sample):
        repo = repo_from(chain_sample)
        camping = pid("camping", "1.5+svn242-1")
        result = check_installable(repo, camping)
        assert not result.installable
        visited = [step.package.name for c in result.explanation.chains for step in c.steps]
        assert visited == ["camping", "rails", "rdoc", "rdoc1.8"]
        assert result.explanation.chains[-1].render_lines()[-1].endswith("{NOT AVAILABLE}")

    def test_unknown_package_rejected(self):
        repo = make_repo("a", {}, [])
        message = re.escape("package not in repository: ghost (= 1)")
        with pytest.raises(ValueError, match=message):
            check_installable(repo, pid("ghost"))
        with pytest.raises(ValueError, match=message):
            check_coinstallable(repo, frozenset({pid("a"), pid("ghost")}))
        with pytest.raises(ValueError, match=message):
            solver.RepositoryChecker(repo).check_all(only=[pid("a"), pid("zz"), pid("ghost")])


class TestCheckCoinstallable:
    def test_incomplete_group_is_fine(self):
        repo = generate_rn(3)
        result = check_coinstallable(repo, {pid("a1"), pid("a2")})
        assert result.installable
        assert pid("b3") in result.witness

    def test_full_group_fails(self):
        repo = generate_rn(3)
        result = check_coinstallable(repo, {pid("a1"), pid("a2"), pid("a3")})
        assert not result.installable

    def test_singleton_agrees_with_single_check(self):
        rng = random.Random(3)
        for _ in range(30):
            repo = random_repository(rng, max_packages=8)
            for target in repo.packages:
                single = check_installable(repo, target)
                as_set = check_coinstallable(repo, {target})
                assert single.installable == as_set.installable

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            check_coinstallable(generate_rn(2), frozenset())


class TestCheckAll:
    def test_worked_repo(self, constraint_sample):
        results = check_all(repo_from(constraint_sample))
        assert len(results) == 7
        assert all(r.installable for r in results.values())

    def test_virtual_repo_including_synthetics(self, virtual_sample):
        repo = repo_from(virtual_sample)
        results = check_all(repo)
        assert len(results) == 6
        assert all(r.installable for r in results.values())

    def test_breakage_propagates_up_a_chain(self):
        repo = repo_from(
            "Package: a\nVersion: 1\nDepends: b\n\n"
            "Package: b\nVersion: 1\nDepends: gone\n"
        )
        results = check_all(repo)
        assert not results[pid("a")].installable
        assert not results[pid("b")].installable
        a_chain = results[pid("a")].explanation.chains[0]
        assert [s.package.name for s in a_chain.steps] == ["a", "b"]

    def test_verdicts_alone_build_no_core(self, monkeypatch):
        """A check without explanations walks no derivations: on a 3000-deep
        chain fixed false by a missing dependency, on a short chain that
        propagation from its assumption refutes (`s19` needs `x` or `y`,
        each needs `z`, and `s19` conflicts with `z`), and on `p`, which
        needs `a1 | a2` and `b1 | b2` where each `a` conflicts with each
        `b`, no `_support` call is made.  Only `p`'s refutation takes a
        decision, so only it analyses a conflict, once."""
        depth = 3000
        chain = [f"c{i:04d}" for i in range(depth)]
        short = [f"s{i:02d}" for i in range(20)]
        deps = {a: [[b]] for a, b in zip(chain, chain[1:])} | {chain[-1]: [[]]}
        deps |= {a: [[b]] for a, b in zip(short, short[1:])}
        deps |= {short[-1]: [["x", "y"]], "x": [["z"]], "y": [["z"]]}
        deps |= {"p": [["a1", "a2"], ["b1", "b2"]]}
        choices = ["a1", "a2", "b1", "b2"]
        clashes = [(short[-1], "z")] + [(a, b) for a in choices[:2] for b in choices[2:]]
        repo = make_repo(chain + short + ["x", "y", "z", "p"] + choices, deps, clashes)
        calls = {"_support": 0, "_analyze": 0}

        def counting(name):
            method = getattr(solver._Engine, name)

            def counted(self, *args):
                calls[name] += 1
                return method(self, *args)

            return counted

        for name in calls:
            monkeypatch.setattr(solver._Engine, name, counting(name))
        results = check_all(repo, explain=False)
        assert calls["_support"] == 0
        assert calls["_analyze"] == 1
        broken = {p.name for p, result in results.items() if not result.installable}
        assert broken == set(chain + short + ["p"])
        assert all(result.explanation is None for result in results.values())
        # explained, the short chain's refutations still build cores
        explained = check_all(make_repo(short + ["x", "y", "z"], deps, [(short[-1], "z")]))
        assert calls["_support"] > 0
        assert {p.name for p, r in explained.items() if not r.installable} == set(short)
        assert all(explained[pid(n)].explanation.dep_edges for n in short)

    def test_agrees_with_fresh_single_checks(self, monkeypatch):
        """Whole-repository checks agree with fresh single checks, and a
        selection, walked from its own cones, gives exactly its packages
        in repository order with the whole check's verdicts and lines."""
        # 40 packages mix clean and dirty cones past the brute-force size
        rng, pick = random.Random(4), random.Random(5)
        walk_solves = recording_walk_solves(monkeypatch)
        member_witnesses = 0
        for max_packages, _ in product((10, 40), range(40)):
            repo = random_repository(rng, max_packages=max_packages)
            combined = check_all(repo)
            assert list(combined) == list(repo.packages)
            for target in repo.packages:
                fresh = check_installable(repo, target)
                assert combined[target].installable == fresh.installable
                if combined[target].installable:
                    assert target in combined[target].witness
                    assert check_health(combined[target].witness, repo).healthy
            some = pick.sample(repo.packages, pick.randint(1, len(repo.packages)))
            for selection in ([], some, some[:3] * 2 + [repo.packages[-1]]):
                del walk_solves[:]
                selected = solver.RepositoryChecker(repo).check_all(True, only=selection)
                member_witnesses += walk_solves.count(True)
                assert list(selected) == [p for p in repo.packages if p in selection]
                for target, result in selected.items():
                    whole = combined[target]
                    assert result.installable == whole.installable
                    if result.installable:
                        assert target in result.witness
                        assert check_health(result.witness, repo).healthy
                    else:
                        lines = result.explanation.render_lines()
                        assert lines == whole.explanation.render_lines()
        assert member_witnesses >= 20  # 27 made by the selections' walks

    @pytest.mark.parametrize(
        "stanzas, clean",
        [
            pytest.param(
                ["p;Depends: a | b, c", "a;Conflicts: c", "b", "c"],
                {"a", "b", "c"},
                id="conflict-an-alternative-avoids",
            ),
            pytest.param(
                ["p;Depends: q", "q=1", "q=2"],
                {"p", "q"},
                id="two-versions-through-an-unversioned-dependency",
            ),
            pytest.param(
                ["p;Depends: a | b", "a;Depends: c", "b", "c;Conflicts: p"],
                {"p", "a", "b", "c"},
                id="choice-avoids-a-conflict-deeper-down",
            ),
            pytest.param(
                ["a;Depends: b, x | y", "b;Depends: a", "x;Conflicts: b", "y"],
                {"a", "b", "x", "y"},
                id="cycle-whose-outside-clause-needs-a-choice",
            ),
            pytest.param(
                ["a;Depends: b", "b;Depends: c", "c;Depends: a",
                 "d;Depends: a;Conflicts: e", "e"],
                {"a", "b", "c", "d", "e"},
                id="clean-cycle",
            ),
            pytest.param(
                ["a;Depends: b | x", "b;Depends: c", "c;Depends: a, gone", "x"],
                {"a", "x"},
                id="cycle-with-a-doomed-member",
            ),
            pytest.param(
                ["p;Depends: a, b", "a;Conflicts: b", "b", "r;Depends: p"],
                {"a", "b"},
                id="unavoidable-cone-conflict",
            ),
            pytest.param(
                ["a=1;Depends: b", "a=2;Depends: b", "b;Depends: a", "p;Depends: a"],
                {"a", "p"},
                id="two-versions-in-one-cycle",
            ),
        ],
    )
    def test_cone_pass_edge_cases(self, stanzas, clean):
        """Each stanza is `name[=version]` and then its fields, split by `;`;
        `clean` names the packages the witness pass settles.  In
        `conflict-an-alternative-avoids`, `p` picks `a`, the first member of
        `a | b`, which leaves `c` no fit: `p` goes to the solver, which
        finds it installable.  In `two-versions-in-one-cycle`, the cycle of
        `b` and both versions of `a` conflicts within, so it gets no witness;
        `p` takes the model of a solve of its first choice, `a (= 2)`, which
        settles that version too, while `a (= 1)` and `b` go to the solver."""
        blocks = []
        for stanza in stanzas:
            head, *fields = stanza.split(";")
            name, _, version = head.partition("=")
            blocks.append("\n".join([f"Package: {name}", f"Version: {version or 1}", *fields]))
        repo = repo_from("\n\n".join(blocks) + "\n")
        checker = solver.RepositoryChecker(repo)
        _, walk = solver._witness_pass(checker.clause_set, checker._engine,
                                       range(1, len(repo.packages) + 1))
        settled = {v for members, _, _ in walk for v in members}
        assert {checker.clause_set.package_of(v).name for v in settled} == clean
        for target, result in check_all(repo).items():
            assert result.installable == brute_force_check(repo, frozenset({target}))
            if result.installable:
                assert target in result.witness
                assert check_health(result.witness, repo).healthy


def _naive_clean_cones(repo: Repository) -> set[PackageId]:
    """Packages whose dependency cone holds no conflict pair, computed
    from the definitions: a package is doomed if some dependency has only
    doomed members, and its cone is what it reaches through the members
    that are not doomed."""
    deps = {p: [set(c.members) for c in repo.deps.get(p, ())] for p in repo.packages}
    doomed: set[PackageId] = set()
    while True:
        more = {p for p in repo.packages if any(c <= doomed for c in deps[p])} - doomed
        if not more:
            break
        doomed |= more
    clean = set()
    for target in set(repo.packages) - doomed:
        cone, todo = {target}, [target]
        while todo:
            for clause in deps[todo.pop()]:
                for member in clause - doomed - cone:
                    cone.add(member)
                    todo.append(member)
        if not any(a in cone and b in cone for a, b in repo.conflicts):
            clean.add(target)
    return clean


def recording_walk_solves(monkeypatch):
    """Record the verdict of every solve that `RepositoryChecker.query` does
    not make: the witness pass's solves of members of tangled components.
    Each satisfiable one yields one member witness."""
    verdicts, querying = [], []
    solve, query = solver._Engine.solve, solver.RepositoryChecker.query

    def recording_solve(self, assumptions, core=False):
        result = solve(self, assumptions, core)
        if not querying:
            verdicts.append(result[0])
        return result

    def marked_query(self, *args, **kwargs):
        querying.append(True)
        try:
            return query(self, *args, **kwargs)
        finally:
            querying.pop()

    monkeypatch.setattr(solver._Engine, "solve", recording_solve)
    monkeypatch.setattr(solver.RepositoryChecker, "query", marked_query)
    return verdicts


class TestWitnessPass:
    def test_sound_and_settles_every_clean_cone(self, monkeypatch):
        rng = random.Random(11)
        walk_solves = recording_walk_solves(monkeypatch)
        member_witnesses = 0
        for _ in range(200):
            repo = random_repository(rng, max_packages=rng.choice([8, 12, 16, 24]))
            checker = solver.RepositoryChecker(repo)
            package_of = checker.clause_set.package_of
            at, walk = solver._witness_pass(checker.clause_set, checker._engine,
                                            range(1, len(repo.packages) + 1))
            settled = set()
            del walk_solves[:]
            for members, cone, _ in walk:
                witness = frozenset(package_of(at[i]) for i in solver._set_bits(cone))
                assert {package_of(v) for v in members} <= witness
                assert check_health(witness, repo).healthy
                settled.update(package_of(v) for v in members)
            member_witnesses += walk_solves.count(True)
            results = checker.check_all(explain=False)
            for target in settled:
                witness = results[target].witness
                assert target in witness
                assert check_health(witness, repo).healthy
                if len(repo.packages) <= 16:  # 24 takes seconds per package
                    assert brute_force_check(repo, frozenset({target}))
            assert _naive_clean_cones(repo) <= settled
        # 22 member witnesses, from solves of members of tangled components
        assert member_witnesses >= 20

    def test_pairs_agree_with_brute_force(self, monkeypatch):
        """Every answer of `coinstallable_pairs`, settled by fitting
        witnesses or by a query, and every status `classify_pairs` prints
        agree with brute force."""
        rng = random.Random(12)
        queries = counting_queries(monkeypatch)
        walk_solves = recording_walk_solves(monkeypatch)
        settled = total = member_witnesses = 0
        for _ in range(150):
            repo = random_repository(rng, max_packages=12)
            names = sorted({p.name for p in repo.packages})
            newest = {n: next(p for p in repo.packages if p.name == n) for n in names}
            pids = [(newest[x], newest[y]) for x, y in combinations(names, 2)]
            expected = [brute_force_check(repo, frozenset(pair)) for pair in pids]
            del queries[:], walk_solves[:]
            assert solver.RepositoryChecker(repo).coinstallable_pairs(pids) == expected
            settled += len(pids) - len(queries)
            member_witnesses += walk_solves.count(True)
            total += len(pids)
            pairs = [ConflictCandidate(pair, ("usr/share/f",)) for pair in combinations(names, 2)]
            outcome = classify_pairs(pairs, repo, [])
            assert not outcome.undetermined
            assert [c.status for c in outcome.classified] == [
                CandidateStatus.CANDIDATE if together else CandidateStatus.NOT_COINSTALLABLE
                for together in expected
            ]
        # 642 of 2297 pairs; the pass's witnesses alone would settle 503,
        # and 485 without its 9 member witnesses
        assert total == 2297 and settled > 600 and member_witnesses >= 8

    def test_queries_left_to_the_solver(self, sample_3000, monkeypatch):
        """Of the 3000-package sample, only the 95 broken packages and a
        few satisfiable ones reach the solver (62 did with clean cones
        alone).  The pass settles 2901 packages, which `check_all` pools
        first fit into 28 unions; with the 4 satisfiable queries' own
        witnesses, the 2905 installable results share 32 witness objects."""
        checker = solver.RepositoryChecker(sample_3000)
        _, walk = solver._witness_pass(checker.clause_set, checker._engine,
                                       range(1, len(sample_3000.packages) + 1))
        assert sum(len(members) for members, _, _ in walk) == 2901
        verdicts = counting_queries(monkeypatch)
        results = check_all(sample_3000, explain=False)
        assert verdicts.count(False) == 95
        assert verdicts.count(True) <= 10
        witnesses = [result.witness for result in results.values() if result.installable]
        assert len(witnesses) == 2905
        assert len({id(witness) for witness in witnesses}) == 32

    def test_pooled_witnesses_are_built_when_read(self, sample_3000, monkeypatch):
        """Above `_DEBUG_CHECK_LIMIT`, `check_all` builds no witness set.
        The first read of a pooled result's witness builds it, from the
        union's bits, and every later read returns that same set."""
        assert len(sample_3000.packages) > solver._DEBUG_CHECK_LIMIT
        built = recording_builds(monkeypatch)
        results = check_all(sample_3000, explain=False)
        assert not built
        first = {pid: result.witness for pid, result in results.items() if result.installable}
        assert len(built) == 28  # one per union
        assert all(results[pid].witness is witness for pid, witness in first.items())
        assert len(built) == 28
        sharing: dict[int, list[PackageId]] = {}
        for target, witness in first.items():
            sharing.setdefault(id(witness), []).append(target)
        for targets in sharing.values():
            witness = first[targets[0]]
            assert witness.issuperset(targets)
            assert check_health(witness, sample_3000).healthy

    @pytest.mark.skipif(not __debug__, reason="the check runs under __debug__ only")
    def test_debug_check_reads_every_union_witness(self, monkeypatch):
        """Up to `_DEBUG_CHECK_LIMIT` packages, `check_all` builds every
        union's witness and checks its health before it returns."""
        repo = repo_from(_synthetic_distribution(count=300))
        built = recording_builds(monkeypatch)
        checked = []
        health = solver.check_health

        def recording_health(installation, repo):
            checked.append(installation)
            return health(installation, repo)

        monkeypatch.setattr(solver, "check_health", recording_health)
        results = check_all(repo, explain=False)
        made = len(built)
        assert made > 1
        healthy = {id(witness) for witness in checked}
        assert all(id(r.witness) in healthy for r in results.values() if r.installable)
        assert len(built) == made  # every union's set was built within the call


def recording_builds(monkeypatch) -> list[frozenset[PackageId]]:
    """Record each witness set that a pooled `check_all` result builds."""
    built = []
    build = solver._PooledWitness.build

    def recording_build(self):
        built.append(build(self))
        return built[-1]

    monkeypatch.setattr(solver._PooledWitness, "build", recording_build)
    return built


class TestCheckResult:
    def test_eager_results_compare_hash_and_show_by_their_fields(self):
        witness = frozenset({pid("a"), pid("b")})
        result = CheckResult(True, witness=witness)
        assert result.witness is witness
        assert result == CheckResult(True, witness=frozenset(witness))
        assert hash(result) == hash(CheckResult(True, witness=frozenset(witness)))
        assert result != CheckResult(True) and result != CheckResult(False, witness=witness)
        assert repr(result) == f"CheckResult(installable=True, witness={witness!r}, explanation=None)"
        with pytest.raises(FrozenInstanceError):
            result.installable = False
        assert pickle.loads(pickle.dumps(result)) == result

    def test_pooled_results_equal_their_eager_forms(self, constraint_sample):
        for result in check_all(repo_from(constraint_sample), explain=False).values():
            eager = CheckResult(True, witness=frozenset(result.witness))
            assert result == eager and hash(result) == hash(eager)
            assert repr(result) == repr(eager)
            assert pickle.loads(pickle.dumps(result)) == eager


@pytest.fixture(scope="module")
def sample_3000():
    """The 3000-package criterion-6 sample: 95 broken packages."""
    return repo_from(_synthetic_distribution(count=3000))


def transition_family() -> Repository:
    """A library transition in miniature: `libold` has left the archive,
    and 65 of the 70 packages still need it.  Version 1 of each
    application needs either of two `mid` packages that need the same
    `base`, so its core is a diamond.  `tool (= 2)` reaches `libold` only
    through `conv`, which needs `tool (= 1)`, so every path to it repeats
    the name `tool`."""
    blocks = ["Package: libnew\nVersion: 2"]
    for k in range(4):
        blocks.append(f"Package: base{k}\nVersion: 1\nDepends: libold")
        blocks.append(f"Package: base{k}\nVersion: 2\nDepends: libold (>= 2) | libnew (<< 2)")
    for k in range(6):
        blocks.append(f"Package: mid{k}\nVersion: 1\nDepends: base{k % 4} (>= 1)")
    blocks += ["Package: tool\nVersion: 1\nDepends: libold",
               "Package: tool\nVersion: 2\nDepends: conv",
               "Package: conv\nVersion: 1\nDepends: tool (<< 2)"]
    for i in range(24):
        blocks.append(f"Package: app{i}\nVersion: 1\nDepends: mid{i % 6} | mid{(i + 4) % 6}")
        second = "tool (>= 2)" if i % 3 == 0 else f"mid{(i + 1) % 6}, libnew"
        blocks.append(f"Package: app{i}\nVersion: 2\nDepends: {second}")
    blocks += [f"Package: fine{i}\nVersion: 1\nDepends: libnew | libold" for i in range(4)]
    return repo_from("\n\n".join(blocks) + "\n")


@pytest.mark.slow
class TestPureQueries:
    def test_explanations_depend_only_on_the_query(self, sample_3000):
        """`check_all`, a shared checker queried backwards, and fresh
        checkers explain every broken package alike, on the 3000-package
        sample and on `transition_family`.  The family's cores include
        diamonds, and cores of one dependency clause per package that
        `_minimal_by_paths` declines because each path repeats a name."""
        family = transition_family()
        checker = solver.RepositoryChecker(family)
        clause_set = checker.clause_set
        diamonds = declined = 0
        for target in family.packages:
            query = [clause_set.var_of(target)]
            sat, core = checker._engine.solve(query, core=True)
            if sat:
                continue
            core = sorted(core)
            members = [m for ci in core for m in clause_set.clauses[ci][1:]]
            diamonds += len(set(members)) < len(members)
            if not solver._minimal_by_paths(clause_set, query, core):
                declined += 1
                assert core[-1] < clause_set.ends[-1]
                assert len({clause_set.clauses[ci][0] for ci in core}) == len(core)
        assert diamonds >= 8 and declined >= 9, (diamonds, declined)

        for repo, count in ((sample_3000, 95), (family, 65)):
            combined = check_all(repo)
            broken = [p for p, result in combined.items() if not result.installable]
            assert len(broken) == count
            shared = solver.RepositoryChecker(repo)
            backwards = {p: shared.query([p]) for p in reversed(broken)}
            for target in broken:
                lines = combined[target].explanation.render_lines()
                assert backwards[target].explanation.render_lines() == lines
                assert check_installable(repo, target).explanation.render_lines() == lines

    def test_every_solve_returns_to_the_base_state(self, sample_3000, monkeypatch):
        checker = solver.RepositoryChecker(sample_3000)
        engine = checker._engine

        def state():
            return (
                engine.value[:],
                engine.trail[:],
                engine.trail_lim[:],
                list(engine.pending),
                engine.scan,
                len(engine.flat_bases),
                len(engine.clauses),
                [occ[:] for occ in engine.occ],
            )

        learned = []
        add_learned = engine._add_learned

        def counting(lits, bases):
            learned.append(len(lits))
            return add_learned(lits, bases)

        monkeypatch.setattr(engine, "_add_learned", counting)
        base = state()
        verdicts = [checker.query([p]).installable for p in sample_3000.packages[::10]]
        assert True in verdicts and False in verdicts
        assert 1 in learned  # some solve learned a fact at level 0
        assert state() == base


class TestEngine:
    """Hand-built clause sets.  In the scan tests a true literal follows an
    unassigned one, so a scan that stops at the first unassigned literal
    misreads the clause as unit or blocking."""

    @pytest.mark.parametrize(
        "clauses", [((1,), (2,), (-1, -2)), ((-1, -2), (1,), (2,)), ((1,), (-1,))]
    )
    def test_unsatisfiable_base_is_reported(self, clauses):
        with pytest.raises(RuntimeError, match="base clause set is unsatisfiable"):
            solver._Engine(2, clauses)

    @pytest.mark.parametrize("clauses", [((1, 0),), ((3,),), ((-3,),), ((-1, 3), (-2,))])
    def test_malformed_literal_is_rejected(self, clauses):
        """`value` and `occ` are indexed by literal, so an out-of-range
        literal would read and write another literal's slot."""
        with pytest.raises(ValueError, match="literal"):
            solver._Engine(2, clauses)

    def test_repeated_base_unit_is_assigned_once(self):
        engine = solver._Engine(2, ((1,), (1,), (-1, 2)))
        assert engine.trail == [1, 2]
        assert engine.reason[2] == 2

    def test_propagate_rejects_a_false_queued_literal(self):
        engine = solver._Engine(2, ((-1, 2),))
        assert engine._assign(-2, None) is None
        assert list(engine.pending) == [(0, -1)]
        engine.pending.appendleft((0, 2))  # `_assign` never queues a false literal
        with pytest.raises(RuntimeError, match="queued literal is false"):
            engine._propagate()

    def test_assign_queues_no_satisfied_clause(self):
        engine = solver._Engine(3, ((-1, -2, 3),))
        assert engine._assign(3, None) is None
        assert engine._assign(1, None) is None  # -2 unassigned, then 3 true
        assert not engine.pending

    def test_propagate_skips_a_clause_satisfied_after_it_was_queued(self):
        engine = solver._Engine(3, ((-1, 2), (-1, -3, 2)))
        assert engine._assign(3, None) is None
        assert engine._assign(1, None) is None
        assert list(engine.pending) == [(0, 2), (1, 2)]
        assert engine._propagate() is None  # clause 0 makes 2 true first
        assert engine.trail == [3, 1, 2]
        assert engine.reason[2] == 0

    def test_no_decision_on_a_satisfied_clause(self):
        engine = solver._Engine(3, ((-1, 2, 3), (3,)))
        assert engine.trail == [3]
        assert engine._assign(1, None) is None
        assert engine._next_decision() is None  # 2 unassigned, then 3 true
        engine._cleanup()
        assert engine.solve([1]) == (True, frozenset({1, 3}))


class TestBruteForce:
    def test_full_group_in_r4(self):
        repo = generate_rn(4)
        assert not brute_force_check(repo, frozenset(pid(f"a{i}") for i in range(1, 5)))

    def test_empty_query_is_vacuously_true(self):
        assert brute_force_check(generate_rn(2), frozenset())

    def test_size_cap(self):
        packages = tuple(pid(f"p{i}") for i in range(25))
        repo = Repository(
            packages=packages, deps={p: () for p in packages}, conflicts=frozenset()
        )
        with pytest.raises(ValueError):
            brute_force_check(repo, frozenset())

    def test_unknown_package_rejected(self):
        with pytest.raises(ValueError):
            brute_force_check(generate_rn(2), frozenset({pid("ghost")}))


class TestOracleEquivalence:
    def test_solver_matches_brute_force_on_random_repositories(self):
        rng = random.Random(1234)
        for _ in range(150):
            repo = random_repository(rng, max_packages=10)
            for target in repo.packages:
                expected = brute_force_check(repo, frozenset({target}))
                assert check_installable(repo, target).installable == expected
            pool = list(repo.packages)
            for _ in range(3):
                group = frozenset(rng.sample(pool, min(len(pool), rng.choice([2, 3]))))
                expected = brute_force_check(repo, group)
                assert check_coinstallable(repo, group).installable == expected


class TestExplanations:
    def test_explanations_replay_as_non_installable(self):
        rng = random.Random(99)
        seen = 0
        for _ in range(80):
            repo = random_repository(rng, max_packages=10)
            for target in repo.packages:
                result = check_installable(repo, target)
                if result.installable:
                    continue
                seen += 1
                explanation = result.explanation
                induced = explanation.induced_repository()
                assert target in induced.package_set
                assert not brute_force_check(induced, frozenset({target}))
        assert seen > 20  # the generator must actually produce breakage

    def test_explanation_edges_exist_in_repository(self, monkeypatch):
        """Every kept edge is a real edge and shows in the chains: each
        dependency edge as a step, each conflict at the end of a chain.
        Each line reads as the reference rendering below.  The fixed
        input's core holds two conflicts of `c`; the 60-package
        repositories print their cores unshrunk."""

        def reference(chain):
            lines = []
            for step in chain.steps:
                members = sorted(step.clause.members, key=package_sort_key)
                shown = " ".join(p.render() for p in members) or "NOT AVAILABLE"
                lines.append(f"{step.package.render()} depends on {step.clause.label} {{{shown}}}")
            if chain.conflict is not None:
                a, b = chain.conflict
                lines.append(f"{a.render()} conflicts with {b.render()}")
            return lines

        rng = random.Random(5)
        fixed = repo_from(
            "Package: t\nVersion: 1\nDepends: a | b\n\n"
            "Package: a\nVersion: 1\nDepends: c\nConflicts: c\n\n"
            "Package: b\nVersion: 1\nDepends: c\nConflicts: c\n\n"
            "Package: c\nVersion: 1\n"
        )
        repos = [(fixed, solver._SHRINK_LIMIT)]
        repos += [(random_repository(rng, max_packages=10), solver._SHRINK_LIMIT) for _ in range(40)]
        repos += [(random_repository(rng, max_packages=60), 0) for _ in range(15)]
        explained = 0
        for repo, limit in repos:
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_SHRINK_LIMIT", limit)
                results = check_all(repo)
            for target, result in results.items():
                if result.installable:
                    continue
                explained += 1
                explanation = result.explanation
                for edge in explanation.dep_edges:
                    assert edge.clause in repo.deps[edge.package]
                for a, b in explanation.conflict_edges:
                    assert repo.in_conflict(a, b)
                chains = explanation.chains
                assert {s for c in chains for s in c.steps} == set(explanation.dep_edges)
                assert {c.conflict for c in chains} - {None} == set(explanation.conflict_edges)
                for chain in chains:
                    assert chain.render_lines() == reference(chain)
        core = check_all(fixed)[pid("t")].explanation.conflict_edges
        assert {conflict_pair(pid("a"), pid("c")), conflict_pair(pid("b"), pid("c"))} <= set(core)
        assert explained > 300

    def test_conflict_pair_explanation(self):
        repo = make_repo(
            "qab", {"q": [["a"], ["b"]]}, [("a", "b")]
        )
        result = check_installable(repo, pid("q"))
        assert not result.installable
        assert conflict_pair(pid("a"), pid("b")) in result.explanation.conflict_edges


def _greedy_shrink(queried, dep_edges, conflict_edges):
    """The shrinking rule spelled out: drop each edge in turn, dependency
    edges first, if the induced sub-repository of the rest stays broken."""

    def broken(deps, confls):
        induced = Explanation(queried, tuple(deps), tuple(confls), ()).induced_repository()
        return not brute_force_check(induced, frozenset(queried))

    for edge in list(dep_edges):
        candidate = [e for e in dep_edges if e is not edge]
        if broken(candidate, conflict_edges):
            dep_edges = candidate
    for pair in list(conflict_edges):
        candidate = [p for p in conflict_edges if p is not pair]
        if broken(dep_edges, candidate):
            conflict_edges = candidate
    return tuple(dep_edges), tuple(conflict_edges)


def _edges(clause_set, ids):
    """The dependency edges and the conflict pairs that clauses `ids` encode."""
    deps = []
    pairs = []
    for ci in ids:
        origin = clause_set.origins[ci]
        if isinstance(origin, DepClause):
            deps.append(DependencyEdge(clause_set.package_of(-clause_set.clauses[ci][0]), origin))
        else:
            pairs.append(origin)
    return tuple(deps), tuple(pairs)


class TestShrinking:
    def test_shrunk_explanations_follow_the_greedy_rule(self, monkeypatch):
        """Shrinking keeps exactly the edges the greedy rule keeps, and
        every kept edge is needed."""
        rng = random.Random(31)
        explained = dropped = 0
        for _ in range(300):
            repo = random_repository(rng, max_packages=10)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_SHRINK_LIMIT", 0)
                raw = {target: check_installable(repo, target) for target in repo.packages}
            for target, unshrunk in raw.items():
                if unshrunk.installable:
                    continue
                core = unshrunk.explanation
                explanation = check_installable(repo, target).explanation
                kept = (explanation.dep_edges, explanation.conflict_edges)
                assert kept == _greedy_shrink(
                    core.queried, list(core.dep_edges), list(core.conflict_edges)
                )
                explained += 1
                dropped += kept != (core.dep_edges, core.conflict_edges)
                # minimal: without any one kept edge the target installs
                deps, confls = kept
                for k in range(len(deps)):
                    rest = Explanation(core.queried, deps[:k] + deps[k + 1:], confls, ())
                    assert brute_force_check(rest.induced_repository(), frozenset({target}))
                for k in range(len(confls)):
                    rest = Explanation(core.queried, deps, confls[:k] + confls[k + 1:], ())
                    assert brute_force_check(rest.induced_repository(), frozenset({target}))
                # from every clause of the repository, where the order matters more
                all_deps = [DependencyEdge(p, c) for p in repo.packages for c in repo.deps[p]]
                all_pairs = sorted(repo.conflicts, key=lambda ab: [package_sort_key(p) for p in ab])
                clause_set = encode(repo)
                every = list(range(len(clause_set.clauses)))
                assert _edges(clause_set, every) == (tuple(all_deps), tuple(all_pairs))
                kept = solver._shrink_edges(clause_set, [clause_set.var_of(target)], every)
                assert _edges(clause_set, kept) == _greedy_shrink(
                    core.queried, all_deps, all_pairs
                )
        assert explained > 300 and dropped > 50  # the cores must actually shrink

    def test_pair_queries_follow_the_greedy_rule(self, monkeypatch):
        """Pair queries on repositories with several versions of a name keep
        exactly the edges the greedy rule keeps, and every kept edge is
        needed: shrinking never settles an edge from a model that leaves a
        queried package out or installs two versions of one name."""
        rng = random.Random(43)
        explained = dropped = 0
        while explained < 600:
            repo = random_repository(rng, max_packages=12)
            if len({p.name for p in repo.packages}) == len(repo.packages):
                continue
            for a, b in combinations(repo.packages, 2):
                with monkeypatch.context() as patch:
                    patch.setattr(solver, "_SHRINK_LIMIT", 0)
                    unshrunk = check_coinstallable(repo, frozenset({a, b}))
                if unshrunk.installable:
                    continue
                core = unshrunk.explanation
                explanation = check_coinstallable(repo, frozenset({a, b})).explanation
                deps, confls = explanation.dep_edges, explanation.conflict_edges
                assert (deps, confls) == _greedy_shrink(
                    core.queried, list(core.dep_edges), list(core.conflict_edges)
                )
                explained += 1
                dropped += (deps, confls) != (core.dep_edges, core.conflict_edges)
                for k in range(len(deps)):
                    rest = Explanation(core.queried, deps[:k] + deps[k + 1:], confls, ())
                    assert brute_force_check(rest.induced_repository(), frozenset({a, b}))
                for k in range(len(confls)):
                    rest = Explanation(core.queried, deps, confls[:k] + confls[k + 1:], ())
                    assert brute_force_check(rest.induced_repository(), frozenset({a, b}))
        assert dropped > 50

    def test_rotation_saves_trials(self, monkeypatch):
        """A shrink never solves more often than its core has edges, and
        over random repositories far less often.  A doomed chain whose core
        names no package twice is certified minimal and costs no solve;
        shrinking its formula by trials takes a single one."""
        solves = []

        class Recording(solver._Engine):
            def solve(self, assumptions):
                solves.append(assumptions)
                return super().solve(assumptions)

        def counted(shrink, *args):
            solves.clear()
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_Engine", Recording)
                shrink(*args)
            return len(solves)

        def trials(repo, target):
            checker = solver.RepositoryChecker(repo)
            query = [checker.clause_set.var_of(target)]
            sat, core = checker._engine.solve(query, core=True)
            assert not sat
            count = counted(solver._shrink_edges, checker.clause_set, query, sorted(core))
            return count, core, checker.clause_set, query

        rng = random.Random(11)
        edges = spent = 0
        for _ in range(200):
            repo = random_repository(rng, max_packages=12)
            for target in repo.packages:
                if check_installable(repo, target).installable:
                    continue
                count, core, _, _ = trials(repo, target)
                assert count <= len(core)
                edges += len(core)
                spent += count
        assert spent < edges * 3 / 4, (spent, edges)

        names = [f"p{i:02d}" for i in range(30)]
        chain = make_repo(names, {a: [[b]] for a, b in zip(names, names[1:])} | {"p29": [[]]}, [])
        count, core, clause_set, query = trials(chain, pid("p00"))
        assert len(core) == 30
        mentioned = {abs(lit) for ci in core for lit in clause_set.clauses[ci]}
        assert len({clause_set.package_of(v).name for v in mentioned}) == len(mentioned)
        assert count == 0
        assert counted(solver._shrink_local, *_renumbered(clause_set, query, core)) == 1


def shared_tail_family() -> Repository:
    """40 applications, each on one of four two-step chains, every eighth
    on either of two chains; the even chains end in a missing library, the
    odd ones in two libraries that conflict."""
    blocks = [
        f"Package: app{i:02d}\nVersion: 1\nDepends: "
        + (f"mid{i % 4} | mid{(i + 1) % 4}" if i % 8 == 0 else f"mid{i % 4}")
        for i in range(40)
    ]
    for k in range(4):
        blocks.append(f"Package: mid{k}\nVersion: 1\nDepends: tail{k}")
        blocks.append(f"Package: tail{k}\nVersion: 1\nDepends: "
                      + ("libold" if k % 2 == 0 else "libx, liby"))
    blocks += ["Package: libx\nVersion: 1\nConflicts: liby", "Package: liby\nVersion: 1"]
    return repo_from("\n\n".join(blocks) + "\n")


def _renumbered(clause_set, query, core):
    """The formula that shrinking `core` for the ascending variables `query`
    poses, as `_shrink_edges` describes it: its clauses in core order, which
    variables share a name, and the query, all over the variables renumbered
    1..n in order; None past `_SHRINK_LIMIT` variables."""
    clauses = [clause_set.clauses[ci] for ci in sorted(core)]
    variables = sorted({abs(lit) for clause in clauses for lit in clause}.union(query))
    if len(variables) > solver._SHRINK_LIMIT:
        return None
    local = {v: i for i, v in enumerate(variables, 1)}
    names = [clause_set.package_of(v).name for v in variables]
    return (
        tuple(tuple(local[lit] if lit > 0 else -local[-lit] for lit in clause) for clause in clauses),
        tuple(names.index(name) for name in names),
        tuple(local[v] for v in query),
    )


class TestExplanationReuse:
    def test_reuse_is_exact(self, monkeypatch):
        """One checker shrinks each distinct renumbered formula of the cores
        `_minimal_by_paths` declines on one engine, and builds none for the
        cores it certifies; every explanation of its `check_all` and of its
        pair queries after it equals, line for line, that of a fresh
        checker."""
        built = []

        class Recording(solver._Engine):
            def __init__(self, nvars, clauses):
                built.append(clauses)
                super().__init__(nvars, clauses)

        rng = random.Random(23)
        repos = [shared_tail_family()]
        repos += [random_repository(rng, max_packages=12) for _ in range(60)]
        shrinks = formulas = certified = 0
        for repo in repos:
            checker = solver.RepositoryChecker(repo)
            built.clear()
            queries = [(p,) for p in repo.packages] + list(combinations(repo.packages, 2))
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_Engine", Recording)
                results = checker.check_all(explain=True)
                results = {(p,): result for p, result in results.items()}
                results |= {pair: checker.query(list(pair)) for pair in queries[len(repo.packages):]}
            posed = []
            for queried in queries:
                result = results[queried]
                if result.installable:
                    continue
                fresh = check_coinstallable(repo, frozenset(queried))
                assert fresh.explanation.render_lines() == result.explanation.render_lines()
                query = sorted({checker.clause_set.var_of(p) for p in queried})
                sat, core = checker._engine.solve(query, core=True)
                assert not sat
                shrinks += 1
                if solver._minimal_by_paths(checker.clause_set, query, sorted(core)):
                    certified += 1
                else:
                    posed.append(_renumbered(checker.clause_set, query, core))
            distinct = set(posed) - {None}
            assert len(built) == len(distinct)
            formulas += len(distinct)
        assert formulas < shrinks / 2 and certified > 50, (formulas, shrinks, certified)


class TestMinimalCores:
    def test_certified_cores_are_kept_whole(self):
        """Trial shrinking keeps the whole of every core `_minimal_by_paths`
        certifies, on repositories with several versions of some name; and
        the certificate both accepts and declines many cores."""
        rng = random.Random(53)
        accepted = declined = 0
        for _ in range(400):
            repo = random_repository(rng, max_packages=12)
            if len({p.name for p in repo.packages}) == len(repo.packages):
                continue
            checker = solver.RepositoryChecker(repo)
            for target in repo.packages:
                query = [checker.clause_set.var_of(target)]
                sat, core = checker._engine.solve(query, core=True)
                if sat:
                    continue
                core = sorted(core)
                if not solver._minimal_by_paths(checker.clause_set, query, core):
                    declined += 1
                    continue
                accepted += 1
                kept = solver._shrink_local(*_renumbered(checker.clause_set, query, core))
                assert kept == tuple(range(len(core)))
        assert accepted > 400 and declined > 400, (accepted, declined)

    def test_repeated_name_on_the_path_is_declined(self):
        """p needs x (= 1), which needs x (= 2), which needs a missing
        package.  Each package has one dependency, yet x (= 2) is reached
        only past another version of x, and the two cannot be installed
        together, so x (= 2)'s dependency is not needed."""
        repo = repo_from(
            "Package: p\nVersion: 1\nDepends: x (= 1)\n\n"
            "Package: x\nVersion: 1\nDepends: x (= 2)\n\n"
            "Package: x\nVersion: 2\nDepends: gone\n"
        )
        clause_set = encode(repo)
        core = list(range(clause_set.ends[-1]))
        assert len(core) == 3
        query = [clause_set.var_of(pid("p"))]
        assert not solver._minimal_by_paths(clause_set, query, core)
        kept = solver._shrink_edges(clause_set, query, core)
        assert sorted(clause_set.origins[ci].label for ci in kept) == ["x (= 1)", "x (= 2)"]
        # from x (= 2) no name repeats, and its one clause is needed
        gone = [ci for ci in core if clause_set.origins[ci].label == "gone"]
        assert solver._minimal_by_paths(clause_set, [clause_set.var_of(pid("x", "2"))], gone)


def _explained(repo):
    """The explanations of every broken package of `repo` and of every
    pair of its packages that is not co-installable, from one checker."""
    checker = solver.RepositoryChecker(repo)
    results = [r for r in checker.check_all(explain=True).values() if not r.installable]
    results += [checker.query(list(pair)) for pair in combinations(repo.packages, 2)]
    return [r.explanation for r in results if not r.installable]


class TestPropagationReplay:
    """Every explanation replays by unit propagation over its own edges
    (`propagation_refutes`), or else, when its induced repository holds
    at most 20 packages, by brute force."""

    @pytest.mark.parametrize("text", [CHAIN_SAMPLE, VIRTUAL_SAMPLE, CONSTRAINT_SAMPLE])
    def test_samples_replay(self, text):
        explanations = _explained(repo_from(text))
        assert explanations
        assert all(self.replay(e) for e in explanations)

    def test_sample_3000_replays(self, sample_3000):
        results = check_all(sample_3000, explain=True).values()
        explanations = [r.explanation for r in results if not r.installable]
        assert len(explanations) == 95
        unverified = [e.queried for e in explanations if not self.replay(e)]
        assert not unverified  # too large for brute force, and propagation fails

    @staticmethod
    def replay(explanation) -> bool:
        """True if some oracle refutes the query on the explanation's edges;
        False if the explanation is too large for brute force."""
        if propagation_refutes(explanation):
            return True
        induced = explanation.induced_repository()
        if len(induced.packages) > 20:
            return False
        assert not brute_force_check(induced, frozenset(explanation.queried))
        return True

    def test_dropping_a_kept_edge_fails_the_replay(self, sample_3000):
        """A shrunk explanation needs every kept edge, so without any one of
        them propagation must not reach a conflict."""
        explanations = _explained(shared_tail_family()) + _explained(repo_from(CHAIN_SAMPLE))
        explanations += [
            r.explanation for r in check_all(sample_3000, explain=True).values() if not r.installable
        ]
        mutants = 0
        for explanation in explanations:
            assert propagation_refutes(explanation)
            if len(explanation.mentioned_packages()) > solver._SHRINK_LIMIT:
                continue  # not shrunk, so an edge may be redundant
            deps, pairs = explanation.dep_edges, explanation.conflict_edges
            for k in range(len(deps)):
                rest = Explanation(explanation.queried, deps[:k] + deps[k + 1:], pairs, ())
                assert not propagation_refutes(rest)
                mutants += 1
            for k in range(len(pairs)):
                rest = Explanation(explanation.queried, deps, pairs[:k] + pairs[k + 1:], ())
                assert not propagation_refutes(rest)
                mutants += 1
        assert mutants > 500


def test_no_engine_clause_repeats_a_literal(monkeypatch):
    """The engine's precondition: neither `encode` nor `_shrink_edges`
    hands it a clause with a repeated literal."""
    built = []

    class Recording(solver._Engine):
        def __init__(self, nvars, clauses):
            built.append(clauses)
            super().__init__(nvars, clauses)

    monkeypatch.setattr(solver, "_Engine", Recording)
    rng = random.Random(7)
    repos = [random_repository(rng, max_packages=10) for _ in range(60)]
    repos += [repo_from(CHAIN_SAMPLE), repo_from(VIRTUAL_SAMPLE), generate_rn(4)]
    for repo in repos:
        check_all(repo)
    assert len(built) > 2 * len(repos)  # explanations were shrunk as well
    for clauses in built:
        for clause in clauses:
            assert len(set(clause)) == len(clause), clause


class TestDeterminism:
    def test_identical_runs_produce_identical_results(self):
        rng = random.Random(42)
        repos = [random_repository(rng, max_packages=10) for _ in range(25)]
        for repo in repos:
            first = check_all(repo)
            second = check_all(repo)
            assert list(first) == list(second)
            for target in repo.packages:
                a, b = first[target], second[target]
                assert a.installable == b.installable
                assert a.witness == b.witness
                if not a.installable:
                    assert a.explanation == b.explanation


def solver_digest(repo: Repository) -> str:
    """One digest of what the solver prints for `repo`.

    It covers each package's verdict and explanation lines from
    `check_all(explain=True)`, in repository order, and the same for
    every pair query among about six packages spread over the repository.
    Witnesses are left out: nothing prints them.
    """

    def printed(result):
        lines = None if result.installable else result.explanation.render_lines()
        return result.installable, lines

    checker = solver.RepositoryChecker(repo)
    view = [(p.name, p.version, *printed(r)) for p, r in checker.check_all(True).items()]
    picked = repo.packages[:: max(1, len(repo.packages) // 6)]
    for a, b in combinations(picked, 2):
        view.append((a.name, a.version, b.name, b.version, *printed(checker.query([a, b]))))
    return hashlib.sha256(repr(view).encode()).hexdigest()[:16]


def solver_inputs() -> Iterator[tuple[str, Repository]]:
    """The golden inputs: the front end's, then seeded random repositories.
    Those with 400 packages hold cores past `_SHRINK_LIMIT` packages,
    which are printed unshrunk."""
    for key, stanzas in frontend_inputs().items():
        yield key, build_repository(expand(stanzas))
    for size, seeds in ((12, 100), (40, 40), (400, 10)):
        for seed in range(seeds):
            yield f"repo-{size}-{seed}", random_repository(random.Random(seed), size)


_DIGESTS = Path(__file__).with_name("solver_digests.txt")


def test_solver_matches_recorded_digests():
    """Verdicts and explanation lines of every golden input are exactly
    as recorded (`python tests/test_solver.py` rewrites them)."""
    recorded = dict(line.split() for line in _DIGESTS.read_text().splitlines())
    got = {key: solver_digest(repo) for key, repo in solver_inputs()}
    assert got.keys() == recorded.keys()
    drifted = [key for key in got if got[key] != recorded[key]]
    assert not drifted, f"{len(drifted)} inputs drifted, first {drifted[:5]}"


if __name__ == "__main__":
    _DIGESTS.write_text("".join(f"{key} {solver_digest(repo)}\n" for key, repo in solver_inputs()))
