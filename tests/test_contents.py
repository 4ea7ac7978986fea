import random
from itertools import combinations

from debcheck.contents import (
    CandidateStatus,
    ConflictCandidate,
    ContentsIndex,
    _newest_version,
    classify_pairs,
    parse_contents,
    shared_file_pairs,
)
from debcheck import solver
from debcheck.expand import PackageId, build_repository, expand, package_sort_key
from debcheck.solver import RepositoryChecker, brute_force_check
from debcheck.stanza import parse_packages

from conftest import random_repository


class TestParseContents:
    def test_listing_lines(self):
        result = parse_contents(
            "bin/fbset                       admin/fbset\n"
            "bin/fgconsole                   utils/console-tools,utils/kbd\n"
            "etc/default/nvidia-kernel       contrib/x11/nvidia-kernel-common\n"
        )
        assert not result.warnings
        assert result.index.entries == {
            "bin/fbset": frozenset({"fbset"}),
            "bin/fgconsole": frozenset({"console-tools", "kbd"}),
            "etc/default/nvidia-kernel": frozenset({"nvidia-kernel-common"}),
        }

    def test_empty_stream(self):
        result = parse_contents("")
        assert result.index.entries == {}

    def test_header_block_skipped(self):
        result = parse_contents(
            "This file maps each file available in the system to\n"
            "the package from which it originates.\n"
            "\n"
            "FILE                            LOCATION\n"
            "usr/bin/tool                    utils/tool\n"
        )
        assert result.index.entries == {"usr/bin/tool": frozenset({"tool"})}

    def test_byte_order_mark_before_header(self):
        text = "\ufeffFILE                            LOCATION\nusr/bin/tool  utils/tool\n"
        for source in (text, text.encode(), text.splitlines(keepends=True)):
            result = parse_contents(source)
            assert result.index.entries == {"usr/bin/tool": frozenset({"tool"})}
            assert not result.warnings

    def test_line_without_separator_is_skipped_with_warning(self):
        result = parse_contents("justonefield\nusr/bin/y  ,\nusr/bin/x  base/x\n")
        assert result.index.entries == {"usr/bin/x": frozenset({"x"})}
        assert result.warnings == [
            "line 1: no separator between path and packages",
            "line 2: empty package list",
        ]

    def test_duplicate_lines_merged(self):
        result = parse_contents(
            "usr/share/doc/README  main/alpha\n"
            "usr/share/doc/README  main/beta\n"
        )
        assert result.index.entries == {
            "usr/share/doc/README": frozenset({"alpha", "beta"})
        }


class TestSharedFilePairs:
    def test_single_shared_path(self):
        index = ContentsIndex(
            {"bin/fgconsole": frozenset({"console-tools", "kbd"})}
        )
        assert shared_file_pairs(index) == [
            ConflictCandidate(("console-tools", "kbd"), ("bin/fgconsole",))
        ]

    def test_unshared_paths_yield_nothing(self):
        index = ContentsIndex(
            {"a": frozenset({"pkg1"}), "b": frozenset({"pkg2"})}
        )
        assert shared_file_pairs(index) == []

    def test_three_owners_yield_three_pairs(self):
        index = ContentsIndex({"path": frozenset({"x", "y", "z"})})
        pairs = {c.pair for c in shared_file_pairs(index)}
        assert pairs == {("x", "y"), ("x", "z"), ("y", "z")}

    def test_matches_combinatorial_enumeration(self):
        rng = random.Random(11)
        names = [f"pkg{i}" for i in range(6)]
        entries = {}
        for p in range(20):
            owners = frozenset(rng.sample(names, rng.randint(1, 3)))
            entries[f"path{p}"] = owners
        index = ContentsIndex(entries)
        got = {c.pair: set(c.shared_paths) for c in shared_file_pairs(index)}
        expected = {}
        for path, owners in entries.items():
            for a, b in combinations(sorted(owners), 2):
                expected.setdefault((a, b), set()).add(path)
        assert got == expected


FIXTURE_PACKAGES = """\
Package: alpha
Version: 1
Conflicts: beta

Package: beta
Version: 1

Package: gamma
Version: 1
Depends: gamma-impl

Package: gamma-impl
Version: 1
Conflicts: delta-impl

Package: delta
Version: 1
Depends: delta-impl

Package: delta-impl
Version: 1

Package: epsilon
Version: 1
Replaces: zeta

Package: zeta
Version: 1

Package: eta
Version: 1

Package: theta
Version: 2
"""

FIXTURE_CONTENTS = """\
usr/bin/one        main/alpha,main/beta
usr/bin/two        main/gamma,main/delta
usr/bin/three      main/epsilon,main/zeta
usr/bin/four       main/eta,main/theta
usr/bin/five       main/eta,main/ghost
"""


def model_reuse_input(prefix=""):
    """Packages and Contents text where p shares one path with u and
    another with w.  p depends on `s1 | s2, t`, and t conflicts with s1:
    the witness pass merges s1 for p's first clause, then t does not fit,
    so p gets no witness and (p, u) needs a query.  Its model holds p and
    fits w's witness, which settles (p, w).  `prefix` starts every name."""
    fields = {"p": [f"Depends: {prefix}s1 | {prefix}s2, {prefix}t"],
              "t": [f"Conflicts: {prefix}s1"]}
    packages = "\n\n".join(
        "\n".join([f"Package: {prefix}{name}", "Version: 1", *fields.get(name, [])])
        for name in ("p", "s1", "s2", "t", "u", "w")
    )
    contents = (f"usr/share/{prefix}u/f  main/{prefix}p,main/{prefix}u\n"
                f"usr/share/{prefix}w/f  main/{prefix}p,main/{prefix}w\n")
    return packages + "\n", contents


def counting_queries(monkeypatch):
    """Record the installability of every `RepositoryChecker.query`."""
    verdicts = []
    query = RepositoryChecker.query

    def counting(self, pids, explain=True):
        result = query(self, pids, explain)
        verdicts.append(result.installable)
        return result

    monkeypatch.setattr(RepositoryChecker, "query", counting)
    return verdicts


class TestClassifyPairs:
    def build(self):
        parsed = parse_packages(FIXTURE_PACKAGES)
        repo = build_repository(expand(parsed.stanzas))
        contents = parse_contents(FIXTURE_CONTENTS)
        pairs = shared_file_pairs(contents.index)
        return classify_pairs(pairs, repo, parsed.stanzas), repo

    def test_direct_conflict(self):
        result, _ = self.build()
        by_pair = {c.pair: c.status for c in result.classified}
        assert by_pair[("alpha", "beta")] is CandidateStatus.NOT_COINSTALLABLE

    def test_deep_conflict_via_dependencies(self):
        result, repo = self.build()
        by_pair = {c.pair: c.status for c in result.classified}
        assert by_pair[("delta", "gamma")] is CandidateStatus.NOT_COINSTALLABLE
        assert not brute_force_check(
            repo, frozenset({PackageId("gamma", "1"), PackageId("delta", "1")})
        )

    def test_replaces_excuses(self):
        result, _ = self.build()
        by_pair = {c.pair: c.status for c in result.classified}
        assert by_pair[("epsilon", "zeta")] is CandidateStatus.EXCUSED_BY_REPLACES

    def test_plain_candidate(self):
        result, _ = self.build()
        by_pair = {c.pair: c.status for c in result.classified}
        assert by_pair[("eta", "theta")] is CandidateStatus.CANDIDATE

    def test_absent_package_reported_separately(self):
        result, _ = self.build()
        assert [pair for pair, _ in result.undetermined] == [("eta", "ghost")]
        assert all(c.pair != ("eta", "ghost") for c in result.classified)

    def test_order_independent(self):
        parsed = parse_packages(FIXTURE_PACKAGES)
        repo = build_repository(expand(parsed.stanzas))
        pairs = shared_file_pairs(parse_contents(FIXTURE_CONTENTS).index)
        rng = random.Random(2)
        baseline = classify_pairs(pairs, repo, parsed.stanzas)
        for _ in range(3):
            shuffled = pairs[:]
            rng.shuffle(shuffled)
            again = classify_pairs(shuffled, repo, parsed.stanzas)
            assert again.classified == baseline.classified
            assert again.undetermined == baseline.undetermined

    def test_query_model_settles_a_later_pair(self, monkeypatch):
        """(p, u) is the only query: its model becomes p's witness, and it
        fits w's, so (p, w) is settled without one."""
        packages, contents = model_reuse_input()
        parsed = parse_packages(packages)
        repo = build_repository(expand(parsed.stanzas))
        checker = RepositoryChecker(repo)
        _, walk = solver._witness_pass(checker.clause_set, checker._engine,
                                       range(1, len(repo.packages) + 1))
        settled = {checker.clause_set.package_of(v).name for members, _, _ in walk for v in members}
        assert settled == {"s1", "s2", "t", "u", "w"}
        verdicts = counting_queries(monkeypatch)
        result = classify_pairs(shared_file_pairs(parse_contents(contents).index), repo,
                                parsed.stanzas)
        assert verdicts == [True]
        assert [(c.pair, c.status) for c in result.classified] == [
            (("p", "u"), CandidateStatus.CANDIDATE),
            (("p", "w"), CandidateStatus.CANDIDATE),
        ]
        for other in ("u", "w"):
            assert brute_force_check(repo, frozenset({PackageId("p", "1"), PackageId(other, "1")}))

    def test_pair_order_changes_no_verdict(self, monkeypatch):
        """Which pairs a query's model settles depends on the order of the
        pairs; the verdicts do not, and they agree with brute force."""
        rng = random.Random(5)
        verdicts = counting_queries(monkeypatch)
        orders_that_mattered = 0
        for _ in range(60):
            repo = random_repository(rng, max_packages=12)
            names = sorted({p.name for p in repo.packages})
            newest = [_newest_version(repo, n) for n in names]
            expected = {frozenset(pair): brute_force_check(repo, frozenset(pair))
                        for pair in combinations(newest, 2)}
            checker = RepositoryChecker(repo)
            query_counts = set()
            for _ in range(4):
                pairs = [tuple(rng.sample(sorted(pair, key=package_sort_key), 2))
                         for pair in expected]
                rng.shuffle(pairs)
                del verdicts[:]
                answers = checker.coinstallable_pairs(pairs)
                assert answers == [expected[frozenset(pair)] for pair in pairs]
                query_counts.add(len(verdicts))
            orders_that_mattered += len(query_counts) > 1
        assert orders_that_mattered > 0

    def test_funnel_shape(self):
        result, _ = self.build()
        candidates = [
            c for c in result.classified if c.status is CandidateStatus.CANDIDATE
        ]
        assert len(candidates) <= len(result.classified)
        for c in result.classified:
            assert c.shared_paths

    def test_highest_version_is_probed(self):
        parsed = parse_packages(
            "Package: old\nVersion: 1\n\n"
            "Package: old\nVersion: 2\nConflicts: other\n\n"
            "Package: other\nVersion: 1\n"
        )
        repo = build_repository(expand(parsed.stanzas))
        pairs = [ConflictCandidate(("old", "other"), ("usr/x",))]
        result = classify_pairs(pairs, repo, parsed.stanzas)
        assert result.classified[0].status is CandidateStatus.NOT_COINSTALLABLE


def test_newest_version_skips_a_same_name_virtual():
    parsed = parse_packages(
        "Package: x\nVersion: 2\n\n"
        "Package: x\nVersion: 10\n\n"
        "Package: x\nVersion: 3\n\n"
        "Package: p\nVersion: 1\nProvides: x, y\n"
    )
    repo = build_repository(expand(parsed.stanzas))
    assert [p.version for p in repo.versions_by_name["x"]] == ["virtual", "10", "3", "2"]
    for name in ("x", "y", "p", "ghost"):
        real = [p for p in repo.versions_by_name.get(name, []) if p not in repo.virtuals]
        sorted_form = sorted(real, key=package_sort_key)[0] if real else None
        assert _newest_version(repo, name) == sorted_form
    assert _newest_version(repo, "x") == PackageId("x", "10")
    assert _newest_version(repo, "y") is None
