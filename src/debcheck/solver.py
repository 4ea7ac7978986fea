"""Installability decisions via a boolean-satisfiability encoding.

Each package becomes one variable.  A dependency alternative of p with
members q1..qk becomes the clause (-p | q1 | ... | qk); a conflict pair
(a, b) becomes (-a | -b); a query adds one positive unit assumption per
requested package.  Every base clause contains a negative literal, so the
empty installation always satisfies the base formula; a query is
satisfiable iff the requested packages are co-installable.

The embedded solver is a conflict-driven clause-learning search over
occurrence lists.  Learned clauses are implied by the base formula, so
they too hold a negative literal, and a partial assignment extends with
"everything else stays uninstalled" unless some clause has no true
literal, only true variables under its negative literals, and an
unassigned positive literal.  The search decides such clauses until none
remain.  Learned clauses record which clauses they were resolved from,
which yields an unsatisfiable core (and from it an explanation) without
a separate proof pass.  Every solve starts from the base state, so a
result depends only on the repository and the query.  A small explanation
is shrunk on an engine of its own whose edges carry selector literals, so
a trial drops an edge by leaving its selector out of the assumptions (Eén
& Sörensson, SAT 2003).
Everything iterates in fixed orders, so verdicts, witnesses, and
explanations are reproducible run to run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from .expand import (
    DepClause,
    PackageId,
    Repository,
    conflict_pair,
    package_sort_key,
)
from .model import check_health

#: Explanations touching at most this many packages get greedily shrunk;
#: each edge costs a solve, and a 3000-deep chain's core has 3000 edges.
_SHRINK_LIMIT = 40

#: Hard cap for the exhaustive checker.
_BRUTE_FORCE_LIMIT = 24


@dataclass(frozen=True)
class DependencyEdge:
    """One dependency alternative of one package, as an explanation lists it."""

    package: PackageId
    clause: DepClause


#: What a clause encodes: a `DepClause` of the repository, owned by the
#: package of the clause's negative literal; a conflict pair held in
#: `Repository.conflicts`; or a package a query assumes installed.
ClauseOrigin = DepClause | tuple[PackageId, PackageId] | PackageId


@dataclass(frozen=True)
class ClauseSet:
    """Immutable CNF encoding of a repository.

    Variable i+1 corresponds to packages[i]; clause k encodes origins[k],
    the repository's own object (see `ClauseOrigin`).
    """

    packages: tuple[PackageId, ...]
    clauses: tuple[tuple[int, ...], ...]
    origins: tuple[ClauseOrigin, ...]

    @cached_property
    def index(self) -> dict[PackageId, int]:
        return {pid: i + 1 for i, pid in enumerate(self.packages)}

    def var_of(self, pid: PackageId) -> int:
        return self.index[pid]

    def package_of(self, var: int) -> PackageId:
        return self.packages[var - 1]

    def with_assumptions(self, pids: list[PackageId]) -> "ClauseSet":
        """Extend with one positive unit clause per queried package."""
        extra = tuple((self.var_of(p),) for p in pids)
        return ClauseSet(self.packages, self.clauses + extra, self.origins + tuple(pids))

    def to_dimacs(self) -> str:
        """DIMACS CNF text with a comment map from variables to packages."""
        lines = [f"c {i + 1} {p.name} {p.version}" for i, p in enumerate(self.packages)]
        lines.append(f"p cnf {len(self.packages)} {len(self.clauses)}")
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"


def encode(repo: Repository) -> ClauseSet:
    """Translate a repository into its clause set (without any query).

    No clause repeats a literal, as `_Engine` requires.  A `DepClause`
    shared by several packages (see `build_repository`) is sorted once.
    """
    index = {pid: i + 1 for i, pid in enumerate(repo.packages)}
    members_of: dict[int, list[int]] = {}  # by id(): `repo` holds every clause
    clauses: list[tuple[int, ...]] = []
    origins: list[ClauseOrigin] = []
    for var, pid in enumerate(repo.packages, 1):
        for clause in repo.deps.get(pid, ()):
            members = members_of.get(id(clause))
            if members is None:
                members = members_of[id(clause)] = sorted(index[m] for m in clause.members)
            clauses.append((-var, *members))
            origins.append(clause)
    pairs = sorted(repo.conflicts, key=lambda pair: (index[pair[0]], index[pair[1]]))
    clauses.extend((-index[a], -index[b]) for a, b in pairs)
    origins.extend(pairs)
    clause_set = ClauseSet(repo.packages, tuple(clauses), tuple(origins))
    clause_set.__dict__["index"] = index  # primes the cached property
    return clause_set


class _Engine:
    """Reusable CDCL search over one clause set.

    Assumptions are installed as the first decision levels, so learned
    clauses are implied by the base formula alone.  Every solve starts
    from the base state, the base prefix on the trail, and drops what it
    learned when it ends; `reason` and `level` are read only for assigned
    variables.

    Each clause keeps one counter, its number of true literals; unit and
    conflict tests count its unassigned literals on the spot.  A clause
    blocking completion (see the module docstring) lies among the negative
    occurrences of a true variable, so decisions walk the true variables
    on the trail from `scan`.

    No clause may repeat a literal; `encode` and `_shrink_edges` emit
    none, and the counters would count a repeated literal twice.
    """

    def __init__(self, nvars: int, clauses: tuple[tuple[int, ...], ...]):
        self.nvars = nvars
        self.clauses = list(clauses)
        self.base_count = len(self.clauses)
        self.value = [0] * (self.nvars + 1)
        self.reason: list[int | None] = [None] * (self.nvars + 1)
        self.level = [0] * (self.nvars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        # clause ids containing +var / -var, indexed by var
        self.occ_pos: list[list[int]] = [[] for _ in range(self.nvars + 1)]
        self.occ_neg: list[list[int]] = [[] for _ in range(self.nvars + 1)]
        self.n_true = [0] * self.base_count
        self.pending: deque[int] = deque()
        # learned clause id -> the base clause ids of its derivation
        self.flat_bases: dict[int, set[int]] = {}

        for ci, clause in enumerate(self.clauses):
            for lit in clause:
                if lit > 0:
                    self.occ_pos[lit].append(ci)
                else:
                    self.occ_neg[-lit].append(ci)

        # propagate base facts (packages with an unsatisfiable alternative
        # and everything that follows); this prefix is permanent
        conflict = None
        for ci, clause in enumerate(self.clauses):
            if len(clause) == 1 and self.value[abs(clause[0])] == 0:
                conflict = self._assign(clause[0], ci) or conflict
        conflict = self._propagate() or conflict
        if conflict is not None:
            raise RuntimeError("base clause set is unsatisfiable; encoding bug")
        self.base_trail_len = len(self.trail)
        self.base_value = self.value[:]
        self.base_n_true = self.n_true[:]
        # trail position of the next true variable to search for blockers
        self.scan = self.base_trail_len

    def never_installable_vars(self) -> list[int]:
        """Variables fixed false by the base formula alone."""
        return [-l for l in self.trail[: self.base_trail_len] if l < 0]

    # -- assignment and propagation ------------------------------------

    def _assign(self, lit: int, reason: int | None) -> int | None:
        """Make `lit` true; returns a conflicting clause id, if any."""
        value = self.value
        if lit > 0:
            var = lit
            sat_occ = self.occ_pos[var]
            fal_occ = self.occ_neg[var]
            value[var] = 1
        else:
            var = -lit
            sat_occ = self.occ_neg[var]
            fal_occ = self.occ_pos[var]
            value[var] = -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        conflict = None
        n_true = self.n_true
        clauses = self.clauses
        for ci in sat_occ:
            n_true[ci] += 1
        pending = self.pending
        for ci in fal_occ:
            if n_true[ci] == 0:
                free = 0
                for l in clauses[ci]:
                    if value[l if l > 0 else -l] == 0:
                        free += 1
                        if free == 2:
                            break
                if free == 0:
                    if conflict is None:
                        conflict = ci
                elif free == 1:
                    pending.append(ci)
        return conflict

    def _propagate(self) -> int | None:
        value = self.value
        pending = self.pending
        n_true = self.n_true
        clauses = self.clauses
        while pending:
            ci = pending.popleft()
            if n_true[ci] > 0:
                continue
            free = unit = 0
            for l in clauses[ci]:
                if value[l if l > 0 else -l] == 0:
                    free += 1
                    if free == 2:
                        break
                    unit = l
            if free == 0:
                return ci
            if free == 1:
                conflict = self._assign(unit, ci)
                if conflict is not None:
                    return conflict
        return None

    def _next_decision(self) -> int | None:
        """First unassigned positive literal of the first clause blocking
        completion, or None when "everything else false" is a model."""
        value = self.value
        n_true = self.n_true
        clauses = self.clauses
        occ_neg = self.occ_neg
        trail = self.trail
        while self.scan < len(trail):
            var = trail[self.scan]
            if var > 0:
                for ci in occ_neg[var]:
                    if n_true[ci]:
                        continue
                    first = 0
                    for l in clauses[ci]:
                        if value[l if l > 0 else -l] == 0:
                            if l < 0:
                                first = 0
                                break
                            if not first:
                                first = l
                    if first:
                        return first
            self.scan += 1
        return None

    def _backtrack(self, target: int) -> None:
        """Unassign everything above `target`.

        The blocker scan restarts after the base prefix: a variable that
        stays true may have lost the literal that satisfied its clause.
        """
        value = self.value
        n_true = self.n_true
        occ_pos = self.occ_pos
        occ_neg = self.occ_neg
        while len(self.trail_lim) > target:
            mark = self.trail_lim.pop()
            for lit in self.trail[mark:]:
                var = lit if lit > 0 else -lit
                value[var] = 0
                for ci in occ_pos[var] if lit > 0 else occ_neg[var]:
                    n_true[ci] -= 1
            del self.trail[mark:]
        self.pending.clear()
        self.scan = self.base_trail_len

    # -- learning --------------------------------------------------------

    def _analyze(self, confl: int) -> tuple[list[int], int, set[int]]:
        """First-UIP conflict analysis.

        Returns the learned clause (asserting literal first), the backjump
        level, and the base clause ids of its derivation.  Those include
        the reason chains of the level-0 variables it resolves away: level
        0 is never undone within a solve, so the chains stay as they are.
        """
        learned: list[int] = [0]
        seen = set()
        flat = self.flat_bases
        bases = set(flat.get(confl, (confl,)))
        zeros: list[int] = []
        counter = 0
        current = len(self.trail_lim)
        idx = len(self.trail) - 1
        p: int | None = None
        reason_clause = self.clauses[confl]

        while True:
            for q in reason_clause:
                if p is not None and q == p:
                    continue
                v = abs(q)
                if v in seen:
                    continue
                seen.add(v)
                lv = self.level[v]
                if lv == 0:
                    zeros.append(v)
                elif lv == current:
                    counter += 1
                else:
                    learned.append(q)
            while abs(self.trail[idx]) not in seen:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                learned[0] = -p
                break
            r = self.reason[abs(p)]
            bases.update(flat.get(r, (r,)))
            reason_clause = self.clauses[r]

        backjump = 0
        for q in learned[1:]:
            lv = self.level[abs(q)]
            if lv > backjump:
                backjump = lv
        return learned, backjump, bases | self._support(zeros)

    def _support(self, variables: Iterable[int]) -> set[int]:
        """The base clause ids that the assignments of `variables` rest on:
        the reasons of everything they follow from, each learned reason
        standing for its derivation."""
        bases: set[int] = set()
        stack = list(variables)
        visited = set()
        while stack:
            v = stack.pop()
            if v in visited:
                continue
            visited.add(v)
            r = self.reason[v]
            if r is None:
                continue
            bases.update(self.flat_bases.get(r, (r,)))
            stack.extend(abs(lit) for lit in self.clauses[r] if abs(lit) != v)
        return bases

    def _add_learned(self, lits: list[int], bases: set[int]) -> int:
        ci = len(self.clauses)
        self.clauses.append(tuple(lits))
        self.n_true.append(sum(1 for l in lits if self.value[abs(l)] == (1 if l > 0 else -1)))
        for lit in lits:
            if lit > 0:
                self.occ_pos[lit].append(ci)
            else:
                self.occ_neg[-lit].append(ci)
        self.flat_bases[ci] = bases
        return ci

    def _cleanup(self) -> None:
        """Drop the learned clauses and restore the base assignment."""
        base = self.base_count
        # learned ids were appended last, so they end the occurrence lists
        for clause in reversed(self.clauses[base:]):
            for lit in clause:
                (self.occ_pos[lit] if lit > 0 else self.occ_neg[-lit]).pop()
        del self.clauses[base:], self.n_true[base:]
        self.flat_bases.clear()
        if len(self.trail) > self.base_trail_len:
            self.value[:] = self.base_value
            self.n_true[:] = self.base_n_true
            del self.trail[self.base_trail_len:]
        self.trail_lim.clear()
        self.pending.clear()
        self.scan = self.base_trail_len

    # -- the search ------------------------------------------------------

    def solve(self, assumptions: list[int]) -> tuple[bool, frozenset[int] | set[int]]:
        """Decide the base formula under positive unit assumptions.

        Returns (True, true variable set) or (False, the base clause ids of
        an unsatisfiable core).  The engine is back in its base state
        afterwards.
        """
        try:
            while True:
                conflict = self._propagate()
                if conflict is not None:
                    if not self.trail_lim:
                        raise RuntimeError("conflict at level 0; encoding bug")
                    lits, backjump, bases = self._analyze(conflict)
                    self._backtrack(backjump)
                    ci = self._add_learned(lits, bases)
                    conflict = self._assign(lits[0], ci)
                    if conflict is not None and not self.trail_lim:
                        raise RuntimeError("conflict at level 0; encoding bug")
                    if conflict is not None:
                        self.pending.clear()
                        self.pending.append(conflict)
                    continue
                depth = len(self.trail_lim)
                if depth < len(assumptions):
                    lit = assumptions[depth]
                    state = self.value[abs(lit)]
                    if state == -1:
                        return False, self._support((abs(lit),))
                    self.trail_lim.append(len(self.trail))
                    if state == 0:
                        conflict = self._assign(lit, None)
                        if conflict is not None:
                            self.pending.append(conflict)
                    continue
                lit = self._next_decision()
                if lit is None:
                    model = frozenset(l for l in self.trail if l > 0)
                    if __debug__ and self.nvars <= 2000:
                        self._verify_model()
                    return True, model
                self.trail_lim.append(len(self.trail))
                conflict = self._assign(lit, None)
                if conflict is not None:
                    self.pending.append(conflict)
        finally:
            self._cleanup()

    def _verify_model(self) -> None:
        # A literal holds under "unassigned means false" if it is a true
        # positive or a non-true negative.
        for clause in self.clauses:
            sat = any(
                self.value[l] == 1 if l > 0 else self.value[-l] != 1 for l in clause
            )
            assert sat, "partial model does not extend with all-false"


# -- results and explanations ---------------------------------------------


@dataclass(frozen=True)
class ExplanationChain:
    """One rendered path of dependency steps ending in a dead end.

    With no terminating conflict, the last step's alternative is
    unsatisfiable within the explanation ("{NOT AVAILABLE}" when it has
    no members at all).
    """

    steps: tuple[DependencyEdge, ...]
    conflict: tuple[PackageId, PackageId] | None = None

    def packages(self) -> list[PackageId]:
        return [step.package for step in self.steps]

    def render_lines(self) -> list[str]:
        lines = [
            f"{step.package.render()} depends on "
            f"{step.clause.label} {step.clause.render_members()}"
            for step in self.steps
        ]
        if self.conflict is not None:
            a, b = self.conflict
            lines.append(f"{a.render()} conflicts with {b.render()}")
        return lines


@dataclass(frozen=True)
class Explanation:
    """A self-contained proof of non-installability.

    The listed dependency and conflict edges alone (all real edges of the
    repository) make the queried packages impossible to install; `chains`
    is the same evidence arranged for reading.
    """

    queried: tuple[PackageId, ...]
    dep_edges: tuple[DependencyEdge, ...]
    conflict_edges: tuple[tuple[PackageId, PackageId], ...]
    chains: tuple[ExplanationChain, ...]

    def mentioned_packages(self) -> frozenset[PackageId]:
        pids = set(self.queried)
        for edge in self.dep_edges:
            pids.add(edge.package)
            pids |= edge.clause.members
        for a, b in self.conflict_edges:
            pids.update((a, b))
        return frozenset(pids)

    def induced_repository(self) -> Repository:
        """The sub-repository containing only this explanation's edges."""
        packages = tuple(sorted(self.mentioned_packages(), key=package_sort_key))
        deps: dict[PackageId, list[DepClause]] = {pid: [] for pid in packages}
        for edge in self.dep_edges:
            if edge.clause not in deps[edge.package]:
                deps[edge.package].append(edge.clause)
        conflicts = {conflict_pair(a, b) for a, b in self.conflict_edges}
        byname: dict[str, list[PackageId]] = {}
        for pid in packages:
            byname.setdefault(pid.name, []).append(pid)
        for versions in byname.values():
            for a, b in combinations(versions, 2):
                conflicts.add(conflict_pair(a, b))
        return Repository(
            packages=packages,
            deps={pid: tuple(clauses) for pid, clauses in deps.items()},
            conflicts=frozenset(conflicts),
        )

    def render_lines(self) -> list[str]:
        lines = []
        for chain in self.chains:
            lines.extend(chain.render_lines())
        return lines


@dataclass(frozen=True)
class CheckResult:
    """Verdict of an (co-)installability query."""

    installable: bool
    witness: frozenset[PackageId] | None = None
    explanation: Explanation | None = None


def _render_chains(
    queried: tuple[PackageId, ...],
    dep_edges: tuple[DependencyEdge, ...],
    conflict_edges: tuple[tuple[PackageId, PackageId], ...],
) -> tuple[ExplanationChain, ...]:
    """Arrange proof edges into readable chains.

    Depth-first from each queried package, on an explicit stack so that
    chains of any depth render; every package's outgoing edges are
    expanded once, so shared sub-reasons are not repeated.
    """
    outgoing: dict[PackageId, list[DependencyEdge]] = {}
    for edge in dep_edges:
        outgoing.setdefault(edge.package, []).append(edge)
    in_conflict: dict[PackageId, tuple[PackageId, PackageId]] = {}
    for pair in conflict_edges:
        for pid in pair:
            in_conflict.setdefault(pid, pair)

    chains: list[ExplanationChain] = []
    expanded: set[PackageId] = set()
    # (package to walk, path so far); a None package emits the path itself,
    # a dependency with no members
    stack: list[tuple[PackageId | None, tuple[DependencyEdge, ...]]] = [
        (pid, ()) for pid in reversed(queried)
    ]
    while stack:
        pid, path = stack.pop()
        if pid is None:
            chains.append(ExplanationChain(path))
            continue
        edges = outgoing.get(pid, ())
        if pid in expanded or not edges:
            if path or pid in in_conflict:
                chains.append(ExplanationChain(path, in_conflict.get(pid)))
            continue
        expanded.add(pid)
        todo: list[tuple[PackageId | None, tuple[DependencyEdge, ...]]] = []
        for edge in edges:
            new_path = path + (edge,)
            if not edge.clause.members:
                todo.append((None, new_path))
            else:
                todo.extend((member, new_path) for member in edge.clause.sorted_members())
        stack.extend(reversed(todo))
    return tuple(chains)


def _shrink_edges(clause_set: ClauseSet, query_vars: list[int], core: list[int]) -> list[int]:
    """Greedily drop the clauses of `core` in turn while the kept ones
    still rule the query out; returns the kept clause ids.

    One engine decides every trial: with the variables the core and the
    query mention renumbered 1..n in order, core clause k gets the
    selector literal -(n+1+k), and a trial assumes the selectors of the
    clauses it keeps.  A package that no kept clause mentions occurs only
    negatively and can stay uninstalled, so each verdict is that on
    `Explanation.induced_repository`.
    """
    clauses = [clause_set.clauses[ci] for ci in core]
    variables = sorted({abs(lit) for clause in clauses for lit in clause}.union(query_vars))
    index = {v: i for i, v in enumerate(variables, 1)}
    n = len(variables)
    trial = [(*(index[l] if l > 0 else -index[-l] for l in clause), -(n + 1 + k))
             for k, clause in enumerate(clauses)]
    # same-name versions conflict in every trial, as in the induced repository
    names = [clause_set.package_of(v).name for v in variables]
    trial += [(-i, -j) for i, j in combinations(range(1, n + 1), 2) if names[i - 1] == names[j - 1]]
    engine = _Engine(n + len(core), tuple(trial))
    query = sorted(index[v] for v in query_vars)
    kept = set(range(len(core)))
    for k in range(len(core)):
        if not engine.solve(query + [n + 1 + j for j in sorted(kept - {k})])[0]:
            kept.discard(k)
    return [ci for k, ci in enumerate(core) if k in kept]


class RepositoryChecker:
    """Shared encoding plus a reusable solver for many queries on one repository."""

    def __init__(self, repo: Repository):
        self.repo = repo
        self.clause_set = encode(repo)
        self._engine = _Engine(len(repo.packages), self.clause_set.clauses)

    def query(self, pids: list[PackageId], explain: bool = True) -> CheckResult:
        queried = tuple(sorted(set(pids), key=package_sort_key))
        if not queried:
            raise ValueError("query set must be non-empty")
        missing = [p for p in queried if p not in self.repo]
        if missing:
            raise ValueError(f"package not in repository: {missing[0].render()}")

        assumptions = sorted(self.clause_set.var_of(p) for p in queried)
        sat, payload = self._engine.solve(assumptions)
        if sat:
            witness = frozenset(self.clause_set.package_of(v) for v in payload)
            if __debug__ and len(self.repo.packages) <= 2000:
                assert check_health(witness, self.repo).healthy
                assert set(queried) <= witness
            return CheckResult(True, witness=witness)
        if not explain:
            return CheckResult(False)
        return CheckResult(False, explanation=self._explain(queried, payload))

    def check_all(self, explain: bool = True) -> dict[PackageId, CheckResult]:
        """Per-package verdicts for the whole repository, in repository order.

        Packages the base formula fixes false (doomed) reach the solver.
        Every other package is settled by its dependency cone: the package
        plus the non-doomed members of its dependency clauses, closed
        transitively.  A cone that holds no conflict pair (same-name
        versions included, as they are in `repo.conflicts`) is clean, and
        then the package is installable with its cone as a witness:

        - abundant, because a package that is not doomed has a non-doomed
          member in every dependency clause, else propagation would have
          fixed it false, and the cone holds all of them;
        - at peace, because no conflict pair lies inside it.

        Clean cones share witnesses: they are merged, first fit, into
        unions that hold no conflict pair, so each union is healthy too.
        Only packages with a dirty cone reach the solver, one query each.
        Verdicts and explanations equal fresh per-package checks.
        Explanations are built only when `explain` is set.
        """
        doomed = set(self._engine.never_installable_vars())
        witnesses, group_of = _clean_cones(self.clause_set, doomed)
        if __debug__ and len(self.repo.packages) <= 2000:
            assert all(check_health(w, self.repo).healthy for w in witnesses)
        shared = [CheckResult(True, witness=w) for w in witnesses]
        results: dict[PackageId, CheckResult] = {}
        for pid in self.repo.packages:
            group = group_of.get(self.clause_set.var_of(pid))
            results[pid] = self.query([pid], explain) if group is None else shared[group]
        return results

    def _probe(self, pids: list[PackageId]) -> CheckResult:
        """`query` without an explanation.  The package itself does not call
        it; `bench/tracer.py` wraps it by name for its `solver.probe_calls`
        metric, so it stays until the tracer reads counters kept by the
        program instead."""
        return self.query(pids, explain=False)

    def _explain(self, queried: tuple[PackageId, ...], core: set[int]) -> Explanation:
        """The explanation of an unsatisfiable core given as base clause
        ids: shrunk when it mentions at most `_SHRINK_LIMIT` packages, then
        turned into edges in clause order (dependency clauses first)."""
        clause_set = self.clause_set
        clauses = clause_set.clauses
        query_vars = sorted(clause_set.var_of(p) for p in queried)
        kept = sorted(core)
        mentioned = {abs(lit) for ci in kept for lit in clauses[ci]}.union(query_vars)
        if len(mentioned) <= _SHRINK_LIMIT:
            kept = _shrink_edges(clause_set, query_vars, kept)

        dep_edges: list[DependencyEdge] = []
        conflict_edges: list[tuple[PackageId, PackageId]] = []
        for ci in kept:
            origin = clause_set.origins[ci]
            if isinstance(origin, DepClause):
                dep_edges.append(DependencyEdge(clause_set.package_of(-clauses[ci][0]), origin))
            else:  # cores hold base clauses only, so this is a conflict pair
                conflict_edges.append(origin)
        chains = _render_chains(queried, tuple(dep_edges), tuple(conflict_edges))
        return Explanation(queried, tuple(dep_edges), tuple(conflict_edges), chains)


def check_installable(repo: Repository, pkg: PackageId) -> CheckResult:
    """Decide whether one package is installable within the repository."""
    if pkg not in repo:
        raise ValueError(f"package not in repository: {pkg.render()}")
    return RepositoryChecker(repo).query([pkg])


def check_coinstallable(repo: Repository, pkgs: frozenset[PackageId]) -> CheckResult:
    """Decide whether all of `pkgs` fit into one healthy installation."""
    return RepositoryChecker(repo).query(list(pkgs))


def check_all(repo: Repository, explain: bool = True) -> dict[PackageId, CheckResult]:
    """Per-package verdicts for the whole repository, in repository order;
    see `RepositoryChecker.check_all`."""
    return RepositoryChecker(repo).check_all(explain)


def _components(
    succ: list[list[int]], roots: Iterable[int]
) -> tuple[list[list[int]], list[int]]:
    """Strongly connected components of what `roots` reach along `succ`,
    children first, and each vertex's component index (-1 if unreached).

    Tarjan's algorithm on an explicit stack, so any depth is fine: `order`
    holds visit numbers, and a visited vertex whose `comp` is still -1 is
    on Tarjan's stack.
    """
    order = [0] * len(succ)
    low = [0] * len(succ)
    comp = [-1] * len(succ)
    sccs: list[list[int]] = []
    stack: list[int] = []
    visits = 0
    for root in roots:
        if order[root]:
            continue
        visits += 1
        order[root] = low[root] = visits
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if not order[w]:
                    visits += 1
                    order[w] = low[w] = visits
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        comp[w] = len(sccs)
                        members.append(w)
                        if w == v:
                            break
                    sccs.append(members)
    return sccs, comp


def _clean_cones(
    clause_set: ClauseSet, doomed: set[int]
) -> tuple[list[frozenset[PackageId]], dict[int, int]]:
    """Witnesses for the packages whose dependency cone is clean.

    A package's successors are the members of its dependency clauses that
    are not `doomed`, and its cone is everything reachable that way,
    itself included.  Strongly connected components come children first,
    and bit positions follow that order, so each component's cone is its
    members' bits OR'd with its children's cones.  Each conflict pair is
    recorded at its end with the higher position, as the bit of the other
    end, and `near` of a cone ORs the records of its members.  A pair lies
    inside a cone iff both ends do, iff its lower end is in `cone & near`.
    A component is clean when no child is dirty and `cone & near` is
    empty.  Both bitsets stay below the component's own position, and are
    kept only until the last component with an edge into them has read
    them.

    Clean cones are merged first fit into unions that hold no conflict
    pair: a pair across a cone and a union has its lower end in
    `cone & union_near` or in `union & near`.  Returns each union as a
    witness and, for every clean variable, the index of the union holding
    its cone.
    """
    n = len(clause_set.packages)
    succ: list[list[int]] = [[] for _ in range(n + 1)]
    rivals: list[list[int]] = [[] for _ in range(n + 1)]
    for clause, origin in zip(clause_set.clauses, clause_set.origins):
        if isinstance(origin, DepClause):
            succ[-clause[0]].extend(m for m in clause[1:] if m not in doomed)
        else:
            rivals[-clause[0]].append(-clause[1])
            rivals[-clause[1]].append(-clause[0])

    sccs, comp = _components(succ, (v for v in range(1, n + 1) if v not in doomed))
    at = [v for members in sccs for v in members]  # bit position -> variable
    pos = [-1] * (n + 1)
    for i, v in enumerate(at):
        pos[v] = i

    def children(c: int) -> set[int]:
        kids = {comp[w] for v in sccs[c] for w in succ[v]}
        kids.discard(c)
        return kids

    readers = [0] * len(sccs)
    for c in range(len(sccs)):
        for k in children(c):
            readers[k] += 1

    cones: dict[int, tuple[int, int]] = {}  # clean component -> (cone, near)
    dirty = [False] * len(sccs)
    unions: list[tuple[int, int]] = []  # (union of cones, its near)
    group_of: dict[int, int] = {}
    for c, members in enumerate(sccs):
        kids = children(c)
        bad = any(dirty[k] for k in kids)
        if not bad:
            cone = near = 0
            for v in members:
                cone |= 1 << pos[v]
                for w in rivals[v]:
                    if 0 <= pos[w] < pos[v]:
                        near |= 1 << pos[w]
            for k in kids:
                kid_cone, kid_near = cones[k]
                cone |= kid_cone
                near |= kid_near
            bad = (cone & near) != 0
        for k in kids:
            readers[k] -= 1
            if not readers[k]:
                cones.pop(k, None)
        if bad:
            dirty[c] = True
            continue
        if readers[c]:
            cones[c] = (cone, near)
        for g, (union, union_near) in enumerate(unions):
            if not (cone & union_near or union & near):
                unions[g] = (union | cone, union_near | near)
                break
        else:
            g = len(unions)
            unions.append((cone, near))
        for v in members:
            group_of[v] = g

    package_of = clause_set.package_of
    witnesses = [frozenset(package_of(at[i]) for i in _set_bits(union)) for union, _ in unions]
    return witnesses, group_of


def _set_bits(bits: int) -> Iterator[int]:
    """Positions of the bits set in `bits`, lowest first."""
    digits = bin(bits)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def brute_force_check(repo: Repository, pkgs: frozenset[PackageId]) -> bool:
    """Exhaustive reference check of co-installability.

    Literally enumerates every installation containing `pkgs` and tests
    abundance and peace; deliberately shares nothing with the encoding or
    the search above.  Refuses repositories with more than 24 packages.
    """
    pkgs = frozenset(pkgs)
    n = len(repo.packages)
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"repository too large for brute force ({n} > {_BRUTE_FORCE_LIMIT})")
    missing = pkgs - repo.package_set
    if missing:
        raise ValueError("query package not in repository")

    index = {pid: i for i, pid in enumerate(repo.packages)}
    alt_masks: list[list[int]] = []
    conflict_masks = [0] * n
    for pid in repo.packages:
        masks = []
        for clause in repo.deps.get(pid, ()):
            mask = 0
            for member in clause.members:
                mask |= 1 << index[member]
            masks.append(mask)
        alt_masks.append(masks)
    for a, b in repo.conflicts:
        conflict_masks[index[a]] |= 1 << index[b]
        conflict_masks[index[b]] |= 1 << index[a]

    query_mask = 0
    for pid in pkgs:
        query_mask |= 1 << index[pid]
    free = [i for i in range(n) if not (query_mask >> i) & 1]

    for bits in range(1 << len(free)):
        installed = query_mask
        for j, i in enumerate(free):
            if (bits >> j) & 1:
                installed |= 1 << i
        ok = True
        rest = installed
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            if conflict_masks[i] & installed:
                ok = False
                break
            for mask in alt_masks[i]:
                if not mask & installed:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False
