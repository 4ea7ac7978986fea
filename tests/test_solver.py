import hashlib
import random
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
from debcheck.model import check_health, generate_rn
from debcheck.solver import (
    DependencyEdge,
    Explanation,
    brute_force_check,
    check_all,
    check_coinstallable,
    check_installable,
    encode,
)
from debcheck.stanza import parse_packages

from conftest import CHAIN_SAMPLE, VIRTUAL_SAMPLE, random_repository
from test_acceptance import _synthetic_distribution
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
        exactly what that object encodes."""
        repos = [build_repository(expand(stanzas)) for stanzas in frontend_inputs().values()]
        for repo in repos + [sample_3000]:
            cs = encode(repo)
            assert len(cs.origins) == len(cs.clauses)
            pairs = {id(pair) for pair in repo.conflicts}
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
        repo = make_repo("ab", {}, [])
        cs = encode(repo).with_assumptions([pid("a")])
        assert cs.clauses[-1] == (cs.var_of(pid("a")),)
        assert cs.origins[-1] == pid("a")

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
        with pytest.raises(ValueError):
            check_installable(repo, pid("ghost"))


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

    def test_agrees_with_fresh_single_checks(self):
        # 40 packages mix clean and dirty cones past the brute-force size
        rng = random.Random(4)
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
                {"q"},
                id="two-versions-through-an-unversioned-dependency",
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
        ],
    )
    def test_cone_pass_edge_cases(self, stanzas, clean):
        """Each stanza is `name[=version]` and then its fields, split by `;`;
        `clean` names the packages the cone pass settles."""
        blocks = []
        for stanza in stanzas:
            head, *fields = stanza.split(";")
            name, _, version = head.partition("=")
            blocks.append("\n".join([f"Package: {name}", f"Version: {version or 1}", *fields]))
        repo = repo_from("\n\n".join(blocks) + "\n")
        checker = solver.RepositoryChecker(repo)
        doomed = set(checker._engine.never_installable_vars())
        _, group_of = solver._clean_cones(checker.clause_set, doomed)
        assert {checker.clause_set.package_of(v).name for v in group_of} == clean
        for target, result in check_all(repo).items():
            assert result.installable == brute_force_check(repo, frozenset({target}))
            if result.installable:
                assert target in result.witness
                assert check_health(result.witness, repo).healthy


@pytest.fixture(scope="module")
def sample_3000():
    """The 3000-package criterion-6 sample: 95 broken packages."""
    return repo_from(_synthetic_distribution(count=3000))


@pytest.mark.slow
class TestPureQueries:
    def test_explanations_depend_only_on_the_query(self, sample_3000):
        repo = sample_3000
        combined = check_all(repo)
        broken = [p for p, result in combined.items() if not result.installable]
        assert len(broken) == 95
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
                engine.n_true[:],
                engine.trail[:],
                len(engine.clauses),
                [len(occ) for occ in engine.occ_pos],
                [len(occ) for occ in engine.occ_neg],
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

    def test_explanation_edges_exist_in_repository(self):
        rng = random.Random(5)
        for _ in range(40):
            repo = random_repository(rng, max_packages=10)
            for target in repo.packages:
                result = check_installable(repo, target)
                if result.installable:
                    continue
                for edge in result.explanation.dep_edges:
                    assert edge.clause in repo.deps[edge.package]
                for a, b in result.explanation.conflict_edges:
                    assert repo.in_conflict(a, b)

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
