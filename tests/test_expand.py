import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import debcheck
from debcheck.expand import (
    DepClause,
    PackageId,
    Repository,
    RepositoryError,
    build_repository,
    conflict_pair,
    expand,
    expand_version_constraints,
    expand_virtual_packages,
    package_sort_key,
)
from debcheck.model import check_health
from debcheck.solver import brute_force_check, encode
from debcheck.stanza import (
    Alternative,
    ConstrainedRef,
    DependencyExpression,
    PackageStanza,
    parse_dependency_field,
    parse_packages,
)

from conftest import CHAIN_SAMPLE, CONSTRAINT_SAMPLE, VIRTUAL_SAMPLE, direct_installable


def stanzas_of(text):
    result = parse_packages(text)
    assert not result.errors
    return result.stanzas


def relation_sets(stanzas):
    """Order-insensitive view: name, version, alternatives, conflicts."""
    return {
        (
            s.name,
            s.version,
            frozenset(frozenset(alt.refs) for alt in s.depends.conjuncts),
            frozenset(s.conflicts),
        )
        for s in stanzas
    }


def exact(name, version):
    return ConstrainedRef(name, "=", version)


class TestConstraintExpansion:
    def test_worked_sample_expands_exactly(self, constraint_sample):
        expanded = expand_version_constraints(stanzas_of(constraint_sample))
        expected = stanzas_of(
            """\
Package: a
Version: 1
Depends: b(=2)|b(=3), c(=3)|d(=2)|d(=3)

Package: b
Version: 2

Package: b
Version: 3

Package: c
Version: 3
Conflicts: b(=2),b(=3)

Package: d
Version: 1

Package: d
Version: 2

Package: d
Version: 3
"""
        )
        assert relation_sets(expanded) == relation_sets(expected)

    def test_empty_input(self):
        assert expand_version_constraints([]) == []

    def test_unmatched_constraint_leaves_empty_alternative(self):
        expanded = expand_version_constraints(
            stanzas_of("Package: p\nVersion: 1\nDepends: x (>= 9)\n\nPackage: x\nVersion: 1\n")
        )
        p = next(s for s in expanded if s.name == "p")
        (alt,) = p.depends.conjuncts
        assert alt.refs == ()
        assert alt.label() == "x (>= 9)"

    def test_labels_keep_original_field_text(self, constraint_sample):
        expanded = expand_version_constraints(stanzas_of(constraint_sample))
        a = next(s for s in expanded if s.name == "a")
        assert [alt.label() for alt in a.depends.conjuncts] == ["b", "c | d (>= 2)"]


class TestVirtualExpansion:
    def test_worked_sample_expands_exactly(self, virtual_sample):
        expanded = expand(stanzas_of(virtual_sample))
        assert len(expanded) == 6
        by_name = {s.name: s for s in expanded}

        assert by_name["a"].depends.conjuncts == ()
        assert by_name["a"].conflicts == ()

        (alt,) = by_name["b"].depends.conjuncts
        assert set(alt.refs) == {exact("w", by_name["w"].version)}

        # conflict against a provided name spares the provider itself
        assert set(by_name["c"].conflicts) == {exact("d", "1")}
        assert set(by_name["d"].conflicts) == {exact("c", "1")}

        (alt_v,) = by_name["v"].depends.conjuncts
        assert set(alt_v.refs) == {exact("a", "1"), exact("b", "1")}
        (alt_w,) = by_name["w"].depends.conjuncts
        assert set(alt_w.refs) == {exact("c", "1"), exact("d", "1")}

        assert by_name["v"].is_virtual and by_name["w"].is_virtual
        for name in "abcd":
            assert by_name[name].provides == ()

    def test_no_provides_is_identity(self, constraint_sample):
        stanzas = expand_version_constraints(stanzas_of(constraint_sample))
        expanded = expand_virtual_packages(stanzas)
        assert expanded == stanzas
        assert all(out is s for out, s in zip(expanded, stanzas))

    def test_self_provider_gets_no_self_conflict(self):
        stanzas = stanzas_of(
            "Package: p\nVersion: 1\nProvides: v\nDepends: v\n"
        )
        repo = build_repository(expand(stanzas))
        # p stays installable: its dependency runs through the synthetic v
        assert brute_force_check(repo, frozenset({PackageId("p", "1")}))

    def test_real_and_virtual_name_coexist(self):
        stanzas = stanzas_of(
            "Package: v\nVersion: 1\n\n"
            "Package: q\nVersion: 1\nProvides: v\n\n"
            "Package: user\nVersion: 1\nDepends: v\n"
        )
        repo = build_repository(expand(stanzas))
        user = PackageId("user", "1")
        # either the real v or the provider q satisfies the dependency
        assert brute_force_check(
            Repository(
                packages=repo.packages,
                deps=repo.deps,
                conflicts=repo.conflicts | {conflict_pair(PackageId("q", "1"), user)},
                virtuals=repo.virtuals,
            ),
            frozenset({user}),
        )
        assert brute_force_check(
            Repository(
                packages=repo.packages,
                deps=repo.deps,
                conflicts=repo.conflicts | {conflict_pair(PackageId("v", "1"), user)},
                virtuals=repo.virtuals,
            ),
            frozenset({user}),
        )


class TestIdempotenceAndSensitivity:
    def test_expansion_is_idempotent(self, constraint_sample, virtual_sample):
        for text in (constraint_sample, virtual_sample):
            once = expand(stanzas_of(text))
            twice = expand(once)
            assert relation_sets(once) == relation_sets(twice)

    def test_adding_a_version_reaches_existing_dependers(self, constraint_sample):
        extended = constraint_sample + "\nPackage: d\nVersion: 4\n"
        expanded = expand(stanzas_of(extended))
        a = next(s for s in expanded if s.name == "a")
        second = a.depends.conjuncts[1]
        assert exact("d", "4") in second.refs


class TestBuildRepository:
    def test_worked_relations(self, constraint_sample):
        repo = build_repository(expand(stanzas_of(constraint_sample)))
        pid = PackageId
        assert set(repo.packages) == {
            pid("a", "1"), pid("b", "2"), pid("b", "3"), pid("c", "3"),
            pid("d", "1"), pid("d", "2"), pid("d", "3"),
        }
        assert {frozenset(d.members) for d in repo.deps[pid("a", "1")]} == {
            frozenset({pid("b", "2"), pid("b", "3")}),
            frozenset({pid("c", "3"), pid("d", "2"), pid("d", "3")}),
        }
        assert repo.deps[pid("b", "2")] == ()
        expected_pairs = {
            (pid("b", "2"), pid("b", "3")),
            (pid("c", "3"), pid("b", "2")),
            (pid("c", "3"), pid("b", "3")),
            (pid("d", "1"), pid("d", "2")),
            (pid("d", "1"), pid("d", "3")),
            (pid("d", "2"), pid("d", "3")),
        }
        symmetric = {pair for a, b in expected_pairs for pair in ((a, b), (b, a))}
        assert repo.symmetric_conflicts() == symmetric

    def test_single_package(self):
        repo = build_repository(stanzas_of("Package: p\nVersion: 1\n"))
        assert repo.packages == (PackageId("p", "1"),)
        assert repo.deps[PackageId("p", "1")] == ()
        assert repo.conflicts == frozenset()

    def test_implicit_same_name_conflict(self):
        repo = build_repository(
            stanzas_of("Package: b\nVersion: 2\n\nPackage: b\nVersion: 3\n")
        )
        assert repo.conflicts == {conflict_pair(PackageId("b", "2"), PackageId("b", "3"))}

    def test_conflict_symmetry_and_irreflexivity(self, constraint_sample):
        repo = build_repository(expand(stanzas_of(constraint_sample)))
        for a, b in repo.conflicts:
            assert a != b
            assert repo.in_conflict(a, b) and repo.in_conflict(b, a)

    def test_duplicate_package_rejected(self):
        stanzas = [
            PackageStanza("p", "1"),
            PackageStanza("p", "1", depends=parse_dependency_field("x")),
        ]
        with pytest.raises(RepositoryError):
            build_repository(stanzas)

    def test_self_conflict_dropped(self):
        repo = build_repository(
            stanzas_of("Package: p\nVersion: 1\nConflicts: p (= 1)\n")
        )
        assert repo.conflicts == frozenset()

    def test_conflicts_on_absent_names_dropped(self):
        repo = build_repository(
            stanzas_of("Package: p\nVersion: 1\nConflicts: ghost\n")
        )
        assert repo.conflicts == frozenset()


_EQUAL_VERSIONS = """\
Package: x
Version: 1.0

Package: x
Version: 1.00

Package: y
Version: 1
Depends: x (= 1.0)
Conflicts: x (= 1.00)
"""


def test_versions_that_dpkg_calls_equal_are_ordered_by_their_strings(tmp_path):
    """`1.0` and `1.00` are equal to dpkg, yet the package order puts one
    first, the same under every hash seed."""
    a, b = PackageId("x", "1.0"), PackageId("x", "1.00")
    assert conflict_pair(a, b) == conflict_pair(b, a) == (a, b)
    repo = build_repository(expand(stanzas_of(_EQUAL_VERSIONS)))
    assert repo.packages[:2] == (a, b)
    assert repo.in_conflict(a, b) and repo.in_conflict(b, a)
    assert check_health(frozenset({a, b}), repo).peace_violations == ((a, b),)

    path = tmp_path / "Packages"
    path.write_text(_EQUAL_VERSIONS)
    env = dict(os.environ, PYTHONPATH=str(Path(debcheck.__file__).parents[1]))
    reports = {
        subprocess.run(
            [sys.executable, "-m", "debcheck.cli", "--explain", str(path)],
            capture_output=True, env=dict(env, PYTHONHASHSEED=seed), check=False,
        ).stdout
        for seed in ("1", "8", "13")
    }
    assert len(reports) == 1
    assert b"depends on x (= 1.0) {x (= 1.0) x (= 1.00)}" in reports.pop()


class TestExpansionPreservesSemantics:
    def test_matches_direct_interpretation_on_random_inputs(self):
        rng = random.Random(20080416)
        for _ in range(120):
            stanzas = random_raw_stanzas(rng)
            repo = build_repository(expand(stanzas))
            for s in stanzas:
                expected = direct_installable(stanzas, [s])
                got = brute_force_check(repo, frozenset({PackageId(s.name, s.version)}))
                assert got == expected, stanzas


def random_raw_stanzas(rng: random.Random) -> list[PackageStanza]:
    """Small random distributions with constraints, provides, and conflicts."""
    real = []
    for name in "abcdef"[: rng.randint(2, 5)]:
        for version in sorted(rng.sample("123", rng.choice([1, 1, 2]))):
            real.append((name, version))
    virtuals = [v for v in ("v", "w") if rng.random() < 0.5]
    names = sorted({name for name, _ in real}) + virtuals

    def random_ref():
        name = rng.choice(names + ["ghost"])
        if rng.random() < 0.5:
            return ConstrainedRef(name)
        relation = rng.choice(["<<", "<=", "=", ">=", ">>"])
        return ConstrainedRef(name, relation, rng.choice("0123"))

    stanzas = []
    for name, version in real:
        conjuncts = []
        for _ in range(rng.randint(0, 2)):
            refs = tuple(random_ref() for _ in range(rng.randint(1, 2)))
            conjuncts.append(refs)
        depends = ", ".join(" | ".join(r.render() for r in refs) for refs in conjuncts)
        provides = tuple(
            sorted({v for v in virtuals if rng.random() < 0.4})
        )
        conflicts = tuple(random_ref() for _ in range(rng.randint(0, 1)))
        stanzas.append(
            PackageStanza(
                name,
                version,
                depends=parse_dependency_field(depends),
                conflicts=conflicts,
                provides=provides,
            )
        )
    return stanzas


def _render_origin(clause_set, clause, origin):
    if isinstance(origin, DepClause):
        owner = clause_set.package_of(-clause[0])
        members = [(m.name, m.version) for m in sorted(origin.members, key=package_sort_key)]
        return ("dep", owner.name, owner.version, members, origin.label)
    a, b = origin
    return ("conflict", a.name, a.version, b.name, b.version)


def _repository_view(repo):
    """Package order, each clause's sorted members and label, sorted
    conflicts and virtuals."""
    return (
        [(p.name, p.version) for p in repo.packages],
        [
            (
                [(m.name, m.version) for m in sorted(clause.members, key=package_sort_key)],
                clause.label,
            )
            for p in repo.packages
            for clause in repo.deps[p]
        ],
        sorted((a.name, a.version, b.name, b.version) for a, b in repo.conflicts),
        sorted((p.name, p.version) for p in repo.virtuals),
    )


def frontend_digest(stanzas: list[PackageStanza]) -> str:
    """One digest of everything the front end makes of `stanzas`.

    It covers both expansion passes (with their labels), the repository
    built from them and from the raw stanzas, and `encode`'s clauses and
    origins in order.
    """
    by_versions = expand_version_constraints(stanzas)
    expanded = expand_virtual_packages(by_versions)
    repo = build_repository(expanded)
    clause_set = encode(repo)
    view = (
        repr(by_versions),
        repr(expanded),
        _repository_view(repo),
        _repository_view(build_repository(stanzas)),
        clause_set.clauses,
        [_render_origin(clause_set, c, o) for c, o in zip(clause_set.clauses, clause_set.origins)],
    )
    return hashlib.sha256(repr(view).encode()).hexdigest()[:16]


def _first_positions(objects) -> list[int]:
    """Where each object first occurs in `objects`, by identity."""
    first: dict[int, int] = {}
    return [first.setdefault(id(o), i) for i, o in enumerate(objects)]


def passes_digest(stanzas: list[PackageStanza]) -> str:
    """One digest of each expansion pass run alone on `stanzas` as given:
    its stanzas, the repository built from them, and which stanzas,
    expressions and alternatives it hands back as the input's own
    objects or shares between stanzas."""
    view = []
    inputs = [alt for s in stanzas for alt in s.depends.conjuncts]
    for expansion in (expand_version_constraints, expand_virtual_packages):
        out = expansion(stanzas)
        view.append((
            repr(out),
            _repository_view(build_repository(out)),
            [o is s for o, s in zip(out, stanzas)],
            [o.depends is s.depends for o, s in zip(out, stanzas)],
            _first_positions(inputs + [alt for s in out for alt in s.depends.conjuncts]),
        ))
    return hashlib.sha256(repr(view).encode()).hexdigest()[:16]


# real and virtual versions of one name, a bumped synthetic version, and
# repeated references within one field
_COEXIST_SAMPLE = """\
Package: v
Version: virtual

Package: v
Version: 2
Provides: w
Conflicts: v, w, x (<< 2)

Package: q
Version: 1
Provides: v, x
Depends: v | v (>= 1) | x, w | v, x (= 1) | x
Conflicts: v (>= 1), v

Package: x
Version: 1
Depends: q | v | q
"""


def hand_built_inputs() -> dict[str, list[PackageStanza]]:
    """Stanza lists built in code, in shapes that parsing never makes but
    each pass must take as given: alternatives without an origin or with
    a repeated reference, repeated conflicts, and bare provided names."""
    a, b, v, w = map(ConstrainedRef, "abvw")
    a1, a2, b1 = exact("a", "1"), exact("a", "2"), exact("b", "1")
    repeat = Alternative((a, a), origin="a | a")
    repeat_exact = Alternative((a1, b1, a1), origin="a (= 1) | b | a (= 1)")
    no_origin = Alternative((a1,))
    shared = Alternative((b, ConstrainedRef("a", ">=", "2")), origin="b | a (>= 2)")
    kept = Alternative((a2, b1), origin="a (>= 2) | b")
    empty = Alternative((), origin="x (>= 9)")

    def depends(*alternatives):
        return DependencyExpression(alternatives)

    return {
        "hand-repeats": [
            PackageStanza("a", "1"),
            PackageStanza("a", "2", depends=depends(kept)),
            PackageStanza("b", "1", conflicts=(a1,)),
            PackageStanza(
                "p", "1", depends=depends(repeat, repeat_exact, shared), conflicts=(b, b, b1)
            ),
            PackageStanza("q", "1", depends=depends(shared, no_origin, shared)),
            PackageStanza("r", "1", depends=depends(kept, empty), conflicts=(a2, a2)),
        ],
        "hand-virtual": [
            PackageStanza("a", "1", provides=("v",)),
            PackageStanza("b", "1", depends=depends(kept), provides=("v", "w")),
            PackageStanza(
                "p", "1",
                depends=depends(
                    Alternative((v,), origin="v"),
                    Alternative((v, a), origin="v | a"),
                    Alternative((w,)),
                    kept,
                ),
                conflicts=(v,),
            ),
            PackageStanza(
                "q", "1", depends=depends(kept), conflicts=(w, ConstrainedRef("v", ">=", "1"))
            ),
            PackageStanza("r", "1", conflicts=(v, a1, v)),
            PackageStanza("v", "2", depends=depends(Alternative((v, v), origin="v | v"))),
            PackageStanza("w", "1", provides=("w",), conflicts=(w,)),
        ],
    }


def frontend_inputs() -> dict[str, list[PackageStanza]]:
    """The golden inputs: 300 seeded random distributions, the samples
    and the hand-built lists."""
    inputs = {f"random-{seed}": random_raw_stanzas(random.Random(seed)) for seed in range(300)}
    inputs["constraint-sample"] = stanzas_of(CONSTRAINT_SAMPLE)
    inputs["virtual-sample"] = stanzas_of(VIRTUAL_SAMPLE)
    inputs["chain-sample"] = stanzas_of(CHAIN_SAMPLE)
    inputs["coexist-sample"] = stanzas_of(_COEXIST_SAMPLE)
    inputs.update(hand_built_inputs())
    return inputs


def frontend_digests() -> dict[str, str]:
    """`frontend_digest` of every golden input, and `passes_digest` of
    each hand-built one."""
    digests = {key: frontend_digest(stanzas) for key, stanzas in frontend_inputs().items()}
    for key, stanzas in hand_built_inputs().items():
        digests[f"{key}-passes"] = passes_digest(stanzas)
    return digests


def test_one_object_per_package():
    """Every clause member, conflict end and virtual is the very object
    that `packages` holds for its (name, version)."""
    from test_acceptance import _synthetic_distribution  # it imports this module

    inputs = frontend_inputs()
    inputs["sample-3000"] = stanzas_of(_synthetic_distribution(count=3000))
    for stanzas in inputs.values():
        repo = build_repository(expand(stanzas))
        canonical = {(p.name, p.version): p for p in repo.packages}
        assert len(canonical) == len(repo.packages)
        referenced = list(repo.deps)
        referenced += [m for clauses in repo.deps.values() for c in clauses for m in c.members]
        referenced += [p for pair in repo.conflicts for p in pair]
        referenced += list(repo.virtuals)
        for p in referenced:
            assert p is canonical[(p.name, p.version)]


def test_one_exact_reference_per_version():
    """The exact references that one version pass makes are one object
    per (name, version), whichever input references they resolve."""
    inputs = frontend_inputs()
    inputs["ranges"] = stanzas_of(
        "Package: a\nVersion: 2\n\nPackage: a\nVersion: 1\n\n"
        "Package: p\nVersion: 1\nDepends: a (>= 1), a (<< 3) | a\nConflicts: a (<= 2)\n"
    )
    for key, stanzas in inputs.items():
        given = {id(ref) for s in stanzas for ref in references(s)}
        made = [ref for s in expand_version_constraints(stanzas) for ref in references(s)
                if id(ref) not in given and ref.relation == "="]
        first: dict[tuple[str, str], ConstrainedRef] = {}
        for ref in made:
            assert first.setdefault((ref.name, ref.version), ref) is ref, key
    assert len(made) == 6 and len(first) == 2  # "ranges": a (= 2) and a (= 1), three times each


def references(stanza: PackageStanza) -> list[ConstrainedRef]:
    return [ref for alt in stanza.depends.conjuncts for ref in alt.refs] + list(stanza.conflicts)


_DIGESTS = Path(__file__).with_name("frontend_digests.txt")


def test_front_end_matches_recorded_digests():
    """Expansion, repository and encoding of every golden input are
    exactly as recorded (`python tests/test_expand.py` rewrites them)."""
    recorded = dict(line.split() for line in _DIGESTS.read_text().splitlines())
    got = frontend_digests()
    assert got.keys() == recorded.keys()
    drifted = [key for key in got if got[key] != recorded[key]]
    assert not drifted, f"{len(drifted)} inputs drifted, first {drifted[:5]}"


if __name__ == "__main__":
    _DIGESTS.write_text("".join(f"{key} {digest}\n" for key, digest in frontend_digests().items()))
