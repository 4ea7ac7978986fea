"""Expansion of version constraints and virtual packages, and the formal
repository model built from the expanded form.

Expansion rewrites every relation into exact-version references relative
to the set of available packages, in two passes:

1. `expand_version_constraints` replaces each constrained reference by
   the disjunction of the available versions that satisfy it.  References
   to names that exist only via Provides are left untouched for pass 2;
   a constrained reference never matches a purely virtual name.
2. `expand_virtual_packages` synthesizes one package per provided name,
   depending on the disjunction of its providers, rewires bare references
   accordingly, and turns conflicts against a virtual name into conflicts
   against each provider except the conflicting package itself.

Both passes are whole-repository: adding or removing one package can
change the expansion of unrelated stanzas, so callers always re-run the
pipeline from scratch.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key
from itertools import combinations
from typing import Callable, Iterable, Mapping

from .stanza import (
    Alternative,
    ConstrainedRef,
    DependencyExpression,
    PackageStanza,
)
from .version import satisfies, version_cmp, version_sort_key

#: Version string given to synthesized virtual packages.
VIRTUAL_VERSION = "virtual"


@dataclass(frozen=True, order=False, slots=True)
class PackageId:
    """A package is identified by its (name, version) pair."""

    name: str
    version: str

    def render(self) -> str:
        return f"{self.name} (= {self.version})"

    def __str__(self) -> str:
        return self.render()


def _id_cmp(a: PackageId, b: PackageId) -> int:
    """Total package order: name ascending, version descending, and two
    versions that dpkg calls equal (`1.0`, `1.00`) by their strings."""
    if a.name != b.name:
        return -1 if a.name < b.name else 1
    c = version_cmp(a.version, b.version)
    if c:
        return -c
    return (a.version > b.version) - (a.version < b.version)


#: sort() key for the canonical package order used everywhere downstream.
package_sort_key = cmp_to_key(_id_cmp)


def conflict_pair(a: PackageId, b: PackageId) -> tuple[PackageId, PackageId]:
    """Canonical unordered representation of a conflict edge."""
    if _id_cmp(a, b) > 0:
        a, b = b, a
    return (a, b)


@dataclass(frozen=True, slots=True)
class DepClause:
    """One dependency alternative resolved to concrete packages.

    `members` is the set of packages any one of which satisfies the
    alternative; empty means unsatisfiable.  `label` keeps the original
    field text for reports and does not affect equality.
    """

    members: frozenset[PackageId]
    label: str = field(default="", compare=False)


class RepositoryError(ValueError):
    """Corrupt input detected while building a repository."""


@dataclass(frozen=True)
class Repository:
    """The formal model: packages, dependency function, conflict relation.

    `packages` is in `package_sort_key` order, which `build_repository`
    guarantees; `encode`, explanation rendering and
    `contents._newest_version` rely on it.  `conflicts` stores one
    canonical tuple per unordered pair; it is symmetric by construction
    and never contains a self-pair.  It holds every pair of distinct
    versions of one name (`build_repository` adds them), since the
    encoding, `check_health`, `brute_force_check` and the witness pass
    read only `conflicts`.  An explanation may leave those pairs out;
    `Explanation.induced_repository` adds them back.  `virtuals` tracks
    packages synthesized for provided names.
    """

    packages: tuple[PackageId, ...]
    deps: Mapping[PackageId, tuple[DepClause, ...]]
    conflicts: frozenset[tuple[PackageId, PackageId]]
    virtuals: frozenset[PackageId] = frozenset()

    @cached_property
    def package_set(self) -> frozenset[PackageId]:
        return frozenset(self.packages)

    @cached_property
    def versions_by_name(self) -> dict[str, list[PackageId]]:
        byname: dict[str, list[PackageId]] = {}
        for pid in self.packages:
            byname.setdefault(pid.name, []).append(pid)
        return byname

    @cached_property
    def conflict_neighbours(self) -> dict[PackageId, frozenset[PackageId]]:
        adj: dict[PackageId, set[PackageId]] = {p: set() for p in self.packages}
        for a, b in self.conflicts:
            adj[a].add(b)
            adj[b].add(a)
        return {p: frozenset(s) for p, s in adj.items()}

    def in_conflict(self, a: PackageId, b: PackageId) -> bool:
        return a != b and conflict_pair(a, b) in self.conflicts

    def symmetric_conflicts(self) -> frozenset[tuple[PackageId, PackageId]]:
        """Both orientations of every conflict pair."""
        return frozenset(
            pair for a, b in self.conflicts for pair in ((a, b), (b, a))
        )


def _available_versions(stanzas: Iterable[PackageStanza]) -> dict[str, list[str]]:
    """Real versions per name, deduplicated, newest first."""
    versions: dict[str, list[str]] = {}
    for s in stanzas:
        known = versions.setdefault(s.name, [])
        if s.version not in known:
            known.append(s.version)
    for name in versions:
        versions[name].sort(key=version_sort_key, reverse=True)
    return versions


#: A reference as a plain tuple (name, relation, version): memo key that
#: hashes in C, unlike the dataclass.
_RefKey = tuple[str, str | None, str | None]


def _expand_ref(
    ref: ConstrainedRef,
    available: dict[str, list[str]],
    provided: frozenset[str],
    exact: dict[tuple[str, str], ConstrainedRef],
) -> tuple[ConstrainedRef, ...]:
    """Expand one reference against the available versions.

    Constrained references match real versions only.  A bare reference to
    a provided name keeps its bare form so the virtual pass can resolve
    it; a bare reference to a wholly absent name expands to nothing.  The
    result never repeats a reference.  `exact` holds the pass's exact
    references by (name, version), so each is made once.
    """
    name = ref.name
    versions = available.get(name, [])
    if ref.constrained:
        versions = [v for v in versions if satisfies(v, ref.relation, ref.version)]
    expanded = []
    for v in versions:
        hit = exact.get((name, v))
        if hit is None:
            hit = exact[name, v] = ConstrainedRef(name, "=", v)
        expanded.append(hit)
    if not ref.constrained and name in provided:
        expanded.append(ConstrainedRef(name))
    return tuple(expanded)


class _Pass:
    """The memos of one expansion pass over one input.

    `rewrite(ref)`, which returns a tuple without repeats, runs once per
    distinct reference, keyed by a plain tuple so no dataclass hash runs.
    Each input alternative object is rewritten once, so alternatives that
    the input shares (as `parse_packages` makes them) stay shared, and an
    alternative, expression or stanza that a rewrite leaves as it was is
    kept as the same object.
    """

    def __init__(self, rewrite: Callable[[ConstrainedRef], tuple[ConstrainedRef, ...]]):
        self.rewrite = rewrite
        self.rewritten: dict[_RefKey, tuple[ConstrainedRef, ...]] = {}
        # keyed by id(): the input holds every alternative for the whole pass
        self.alternatives: dict[int, Alternative] = {}

    def _ref(self, ref: ConstrainedRef) -> tuple[ConstrainedRef, ...]:
        key = (ref.name, ref.relation, ref.version)
        hit = self.rewritten.get(key)
        if hit is None:
            hit = self.rewritten[key] = self.rewrite(ref)
        return hit

    def refs(self, refs: tuple[ConstrainedRef, ...]) -> tuple[ConstrainedRef, ...]:
        if len(refs) == 1:
            return self._ref(refs[0])
        if not refs:
            return refs
        return tuple(dict.fromkeys(r for ref in refs for r in self._ref(ref)))

    def stanza(
        self, s: PackageStanza, conflicts: tuple[ConstrainedRef, ...], provides: tuple[str, ...]
    ) -> PackageStanza:
        """`s` with its dependencies rewritten and these conflicts and
        provides; `s` itself when that changes nothing."""
        depends = s.depends
        given = depends.conjuncts
        get = self.alternatives.get
        conjuncts = []
        for alt in given:
            hit = get(id(alt))
            conjuncts.append(self.alternative(alt) if hit is None else hit)
        if not all(map(operator.is_, conjuncts, given)):
            depends = DependencyExpression(tuple(conjuncts))
        elif conflicts == s.conflicts and provides == s.provides:
            return s
        return PackageStanza(
            s.name, s.version, depends, conflicts, provides, s.replaces, s.architecture,
            s.is_virtual,
        )

    def alternative(self, alt: Alternative) -> Alternative:
        """Rewrite an alternative met for the first time, and remember it."""
        refs = self.refs(alt.refs)
        hit = alt
        # equality ignores `origin`, which must end up set
        if alt.origin is None or refs != alt.refs:
            hit = Alternative(refs, alt.label())
        self.alternatives[id(alt)] = hit
        return hit


def expand_version_constraints(stanzas: list[PackageStanza]) -> list[PackageStanza]:
    """Rewrite all constrained references into exact-version disjunctions.

    Alternatives whose references match nothing become empty (the package
    is then unsatisfiable; that is data, not an error).  Each alternative
    remembers its original text as its label.  Each distinct reference is
    resolved once per call.
    """
    stanzas = list(stanzas)
    available = _available_versions(stanzas)
    provided = frozenset(name for s in stanzas for name in s.provides)
    exact: dict[tuple[str, str], ConstrainedRef] = {}
    resolved = _Pass(lambda ref: _expand_ref(ref, available, provided, exact))

    return [resolved.stanza(s, resolved.refs(s.conflicts), s.provides) for s in stanzas]


def expand_virtual_packages(stanzas: list[PackageStanza]) -> list[PackageStanza]:
    """Synthesize provided names as packages and drop Provides fields.

    For each name provided by at least one package a stanza is appended
    whose single dependency alternative lists all providers (plus any
    real versions of that name).  Conflicts against a provided name become
    conflicts against each provider except the conflicting package itself.
    A stanza that this changes nothing in comes back as the same object.
    """
    stanzas = list(stanzas)
    providers: dict[str, list[tuple[str, str]]] = {}
    for s in stanzas:
        for name in s.provides:
            providers.setdefault(name, []).append((s.name, s.version))

    # only the versions of provided names are read below
    available = _available_versions(s for s in stanzas if s.name in providers)

    synthetic_version: dict[str, str] = {}
    for name in providers:
        version = VIRTUAL_VERSION
        bump = 0
        while version in available.get(name, ()):
            bump += 1
            version = f"{VIRTUAL_VERSION}{bump}"
        synthetic_version[name] = version

    def is_virtual_ref(ref: ConstrainedRef) -> bool:
        return not ref.constrained and ref.name in providers

    def rewrite_dep(ref: ConstrainedRef) -> tuple[ConstrainedRef, ...]:
        if not is_virtual_ref(ref):
            return (ref,)
        return (ConstrainedRef(ref.name, "=", synthetic_version[ref.name]),)

    def rewrite_conflict(owner: tuple[str, str], ref: ConstrainedRef) -> list[ConstrainedRef]:
        if not is_virtual_ref(ref):
            return [ref]
        kept = [ConstrainedRef(p, "=", v) for p, v in providers[ref.name] if (p, v) != owner]
        # Real versions of the name were already expanded in pass 1; they
        # only need adding when this pass runs on unexpanded input.
        for v in available.get(ref.name, []):
            kept.append(ConstrainedRef(ref.name, "=", v))
        return kept

    def changes(refs: tuple[ConstrainedRef, ...]) -> bool:
        """Whether this pass rewrites `refs`: exactly when one repeats or
        names a provided name bare."""
        return (len(refs) > 1 and len(set(refs)) < len(refs)) or (
            bool(providers) and any(map(is_virtual_ref, refs))
        )

    rewritten = _Pass(rewrite_dep)
    memo = rewritten.alternatives
    get = memo.get
    out = []
    for s in stanzas:
        conflicts = s.conflicts
        if changes(conflicts):
            owner = (s.name, s.version)
            conflicts = tuple(dict.fromkeys(
                r for ref in conflicts for r in rewrite_conflict(owner, ref)
            ))
        elif not s.provides:
            # `s` comes back as itself unless the pass changes an alternative
            for alt in s.depends.conjuncts:
                hit = get(id(alt))
                if hit is None:
                    # an alternative also changes when it has no origin yet
                    if alt.origin is None or changes(alt.refs):
                        hit = rewritten.alternative(alt)
                    else:
                        hit = memo[id(alt)] = alt
                if hit is not alt:
                    break
            else:
                out.append(s)
                continue
        out.append(rewritten.stanza(s, conflicts, ()))

    for name in sorted(providers):
        members = tuple(dict.fromkeys(
            [ConstrainedRef(p, "=", v) for p, v in providers[name]]
            + [ConstrainedRef(name, "=", v) for v in available.get(name, [])]
        ))
        origin = " | ".join(dict.fromkeys(r.name for r in members))
        out.append(
            PackageStanza(
                name=name,
                version=synthetic_version[name],
                depends=DependencyExpression((Alternative(members, origin=origin),)),
                is_virtual=True,
            )
        )
    return out


def expand(stanzas: list[PackageStanza]) -> list[PackageStanza]:
    """Full expansion pipeline: version constraints, then virtual packages."""
    return expand_virtual_packages(expand_version_constraints(stanzas))


def build_repository(stanzas: list[PackageStanza]) -> Repository:
    """Build the formal repository from fully expanded stanzas.

    Exact references to absent packages are dropped (possibly leaving an
    alternative empty).  Declared conflicts are symmetrized, self-pairs
    removed, and every distinct-version pair of one name is added.

    There is one `PackageId` per (name, version): every clause member,
    conflict end and entry of `packages` is that object.  An alternative
    object that several stanzas share becomes one shared `DepClause`.
    """
    ids: dict[tuple[str, str], PackageId] = {}
    owners = []
    for s in stanzas:
        key = (s.name, s.version)
        if key in ids:
            raise RepositoryError(f"duplicate package after expansion: {ids[key].render()}")
        owner = ids[key] = PackageId(s.name, s.version)
        owners.append(owner)

    order = sorted(ids.values(), key=package_sort_key)
    byname: dict[str, list[PackageId]] = {}
    for pid in order:
        byname.setdefault(pid.name, []).append(pid)

    resolved: dict[_RefKey, frozenset[PackageId]] = {}

    def resolve(ref: ConstrainedRef) -> frozenset[PackageId]:
        key = (ref.name, ref.relation, ref.version)
        hit = resolved.get(key)
        if hit is None:
            if ref.constrained:
                pid = ids.get((ref.name, ref.version))
                hit = frozenset() if pid is None else frozenset((pid,))
            else:
                hit = frozenset(byname.get(ref.name, ()))
            resolved[key] = hit
        return hit

    deps: dict[PackageId, tuple[DepClause, ...]] = {}
    # keyed by id(), as in `_Pass`: one clause per input alternative object
    shared: dict[int, DepClause] = {}
    conflicts: set[tuple[PackageId, PackageId]] = set()
    virtuals: set[PackageId] = set()

    def new_clause(alt: Alternative) -> DepClause:
        refs = alt.refs
        members = resolve(refs[0]) if len(refs) == 1 else frozenset().union(*map(resolve, refs))
        clause = shared[id(alt)] = DepClause(members, alt.label())
        return clause

    get = shared.get
    for s, owner in zip(stanzas, owners):
        clauses = []
        for alt in s.depends.conjuncts:
            hit = get(id(alt))
            clauses.append(new_clause(alt) if hit is None else hit)
        deps[owner] = tuple(clauses)
        for ref in s.conflicts:
            for other in resolve(ref):
                if other is not owner:
                    conflicts.add(conflict_pair(owner, other))
        if s.is_virtual:
            virtuals.add(owner)

    # `byname` lists each name's versions in canonical order already
    for versions in byname.values():
        conflicts.update(combinations(versions, 2))

    return Repository(
        packages=tuple(order),
        deps=deps,
        conflicts=frozenset(conflicts),
        virtuals=frozenset(virtuals),
    )
