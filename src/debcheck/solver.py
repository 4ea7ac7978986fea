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
remain.  When a query asks for an explanation, learned clauses record
which clauses they were resolved from, which yields an unsatisfiable
core without a separate proof pass; a verdict alone tracks none of it.
Every solve starts from the base state, so a result depends only on the
repository and the query; a query whose first package the base state
already rules out is answered from that state's reasons, without search.
A small explanation is shrunk greedily on an engine of its own whose
edges carry selector literals, so a trial drops an edge by leaving its
selector out of the assumptions (Eén & Sörensson, SAT 2003).  A clause
is needed iff dropping it makes the rest satisfiable, so some cores are
shown minimal with no trial at all: when a single-package query's core
holds one dependency clause per package
and no conflict, and reaches every clause's package along a path of
distinct names, installing the path to any package satisfies the core
without that package's clause, so every clause is kept.  The
explanations of one `RepositoryChecker` share their pure work: a shrink
is a function of the core's formula renumbered onto the variables it
mentions, and a kept clause's rendered line of its clause id, so the
checker keeps both, and a formula or clause met before costs no engine
and no formatting.  Each kept result is a function of its key,
so an explanation still depends only on the repository and the query.
Pair queries reuse models: two healthy installations that no
conflict pair spans have a healthy union, so a pair is settled without
a query when witnesses of its packages fit (Vouillon & Di Cosmo, "On
software component co-installability", ESEC/FSE 2011).  The witnesses
come from the models of earlier pair queries and from a pass over the
dependency graph.  The pass searches only where a dependency's choice
lies in a cycle whose members conflict: it solves that one member,
once, and the model is the member's own witness too.  A whole-archive
check pools the pass's witnesses first fit into unions that no conflict
pair spans, by the same argument, and the packages a union settles
share one result; its set of packages is built from the union's bitset
only when a caller reads it.
Everything iterates in fixed orders, so verdicts, witnesses, and
explanations are reproducible run to run.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Callable, Collection, Iterable, Iterator

from .expand import (
    DepClause,
    PackageId,
    Repository,
    conflict_pair,
    package_sort_key,
)
from .model import check_health

#: Explanations touching at most this many packages get greedily shrunk;
#: each edge of a core that `_minimal_by_paths` does not certify costs a
#: solve, while a certified chain of any length costs none.
_SHRINK_LIMIT = 40

#: Hard cap for the exhaustive checker.
_BRUTE_FORCE_LIMIT = 24

#: The `__debug__` checks of models and witnesses run only up to this many
#: packages: each walks every clause or the installation's dependencies, once
#: per solve or witness, so over a whole-archive check they grow quadratic.
_DEBUG_CHECK_LIMIT = 2000


@dataclass(frozen=True, slots=True)
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

    Variable i+1 corresponds to packages[i], and `index` maps each package
    to its variable; clause k encodes origins[k], the repository's own
    object (see `ClauseOrigin`).  `encode` lists the dependency clauses
    first, each package's together and in variable order: variable v's are
    clauses[ends[v-1]:ends[v]].  The conflict pairs follow from ends[-1]
    on, and `with_assumptions` appends its unit clauses after them.
    """

    packages: tuple[PackageId, ...]
    clauses: tuple[tuple[int, ...], ...]
    origins: tuple[ClauseOrigin, ...]
    ends: array = field(repr=False, compare=False)
    index: dict[PackageId, int] = field(repr=False, compare=False)

    def var_of(self, pid: PackageId) -> int:
        return self.index[pid]

    @cached_property
    def names(self) -> tuple[str, ...]:
        """Each variable's package name, at the variable's position."""
        return ("", *(pid.name for pid in self.packages))

    @cached_property
    def rendered(self) -> tuple[str, ...]:
        """Each variable's `PackageId.render()`, at the variable's position."""
        return ("", *(pid.render() for pid in self.packages))

    def package_of(self, var: int) -> PackageId:
        return self.packages[var - 1]

    def with_assumptions(self, pids: list[PackageId]) -> "ClauseSet":
        """Extend with one positive unit clause per queried package."""
        extra = tuple((self.var_of(p),) for p in pids)
        return ClauseSet(self.packages, self.clauses + extra, self.origins + tuple(pids),
                         self.ends, self.index)

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
    ends = array("l", [0])
    for var, pid in enumerate(repo.packages, 1):
        for clause in repo.deps.get(pid, ()):
            members = members_of.get(id(clause))
            if members is None:
                members = members_of[id(clause)] = sorted(index[m] for m in clause.members)
            clauses.append((-var, *members))
            origins.append(clause)
        ends.append(len(clauses))
    pairs = sorted(repo.conflicts, key=lambda pair: (index[pair[0]], index[pair[1]]))
    clauses.extend((-index[a], -index[b]) for a, b in pairs)
    origins.extend(pairs)
    return ClauseSet(repo.packages, tuple(clauses), tuple(origins), ends, index)


class _Engine:
    """Reusable CDCL search over one clause set.

    `value` and `occ` are indexed by literal: Python's negative indices put
    literal -v at 2*nvars+1-v, so `value[l]` is 1, 0 or -1 as literal l is
    true, unassigned or false, and `occ[l]` lists the ids of the clauses
    holding l.  `level` and `reason` are indexed by variable, and `pending`
    holds (clause id, literal) pairs: a clause `_assign` left unit and its
    one unassigned literal.

    Assumptions are installed as the first decision levels, so learned
    clauses are implied by the base formula alone.  Every solve starts
    from the base state, the base prefix on the trail, and drops what it
    learned when it ends; `reason` and `level` are read only for assigned
    variables.

    Clauses keep no counters: a visited clause is read from `value`, up to
    its first true literal (it is satisfied) or, in the unit and conflict
    tests, its second unassigned one.  Assigning a literal visits only the
    clauses it falsifies, so the base state is restored by resetting the
    values of the trail above the base prefix.  A clause blocking
    completion (see the module docstring) lies among the negative
    occurrences of a true variable, so decisions walk the true variables
    on the trail from `scan`.

    No clause may repeat a literal; `encode` and `_shrink_edges` emit
    none, and the unit test would count a repeated unassigned literal
    twice.

    Invariant: once `_propagate` returns None, no clause is unit (no true
    literal, one unassigned) or false: `_assign` queues each clause it
    leaves unit, propagation stops at the first clause made false, and
    backtracking returns to a prefix whose propagation had finished.  So
    assigning one unassigned literal (an assumption, a decision, or a
    learned clause's asserting literal right after the backjump) falsifies
    no clause; a literal popped from `pending` is unassigned or true; and
    a learned clause has no true literal when it is added.  A broken
    invariant raises or fails an assertion; it is never handled.
    """

    def __init__(self, nvars: int, clauses: tuple[tuple[int, ...], ...]):
        self.nvars = nvars
        self.clauses = list(clauses)
        self.base_count = len(self.clauses)
        self.value = [0] * (2 * nvars + 1)
        self.reason: list[int | None] = [None] * (nvars + 1)
        self.level = [0] * (nvars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.occ: list[list[int]] = [[] for _ in range(2 * nvars + 1)]
        self.pending: deque[tuple[int, int]] = deque()
        # learned clause id -> the base clause ids of its derivation, kept
        # only by solves that build a core
        self.flat_bases: dict[int, set[int]] = {}

        occ = self.occ
        for ci, clause in enumerate(self.clauses):
            for lit in clause:
                # out of range, a literal would alias another literal's slot
                if not 0 < abs(lit) <= nvars:
                    raise ValueError(f"clause {ci} holds literal {lit}, not in ±1..{nvars}")
                occ[lit].append(ci)
            if len(clause) == 1:
                self.pending.append((ci, clause[0]))

        # propagate the queued base units (packages with an unsatisfiable
        # alternative) and everything that follows; this prefix is permanent
        if self._propagate() is not None:
            raise RuntimeError("base clause set is unsatisfiable; encoding bug")
        self.base_trail_len = len(self.trail)
        # trail position of the next true variable to search for blockers
        self.scan = self.base_trail_len

    def never_installable_vars(self) -> set[int]:
        """Variables fixed false by the base formula alone."""
        return {-l for l in self.trail[: self.base_trail_len] if l < 0}

    # -- assignment and propagation ------------------------------------

    def _assign(self, lit: int, reason: int | None) -> int | None:
        """Make `lit` true; returns a conflicting clause id, if any."""
        value = self.value
        value[lit] = 1
        value[-lit] = -1
        var = abs(lit)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        conflict = None
        clauses = self.clauses
        pending = self.pending
        for ci in self.occ[-lit]:
            free = 0
            for l in clauses[ci]:
                state = value[l]
                if state == 1:
                    break
                if state == 0:
                    if free:
                        break
                    free = l
            else:
                if free:
                    pending.append((ci, free))
                elif conflict is None:
                    conflict = ci
        return conflict

    def _propagate(self) -> int | None:
        value = self.value
        pending = self.pending
        while pending:
            ci, lit = pending.popleft()
            state = value[lit]
            if state == 0:
                conflict = self._assign(lit, ci)
                if conflict is not None:
                    return conflict
            elif state == -1:
                raise RuntimeError("queued literal is false; engine bug")
        return None

    def _next_decision(self) -> int | None:
        """First unassigned positive literal of the first clause blocking
        completion, or None when "everything else false" is a model."""
        value = self.value
        clauses = self.clauses
        occ = self.occ
        trail = self.trail
        while self.scan < len(trail):
            lit = trail[self.scan]
            if lit > 0:
                for ci in occ[-lit]:
                    first = 0
                    for l in clauses[ci]:
                        state = value[l]
                        if state == 0:
                            if l < 0:
                                break
                            if not first:
                                first = l
                        elif state == 1:
                            break
                    else:
                        if first:
                            return first
            self.scan += 1
        return None

    def _backtrack(self, level: int, mark: int) -> None:
        """Unassign the trail from position `mark` on and drop the decision
        levels above `level`.

        The blocker scan restarts after the base prefix: a variable that
        stays true may have lost the literal that satisfied its clause.
        """
        value = self.value
        for lit in self.trail[mark:]:
            value[lit] = value[-lit] = 0
        del self.trail[mark:], self.trail_lim[level:]
        self.pending.clear()
        self.scan = self.base_trail_len

    # -- learning --------------------------------------------------------

    def _analyze(self, confl: int, core: bool) -> tuple[list[int], int, set[int] | None]:
        """First-UIP conflict analysis.

        Returns the learned clause (asserting literal first), the backjump
        level, and, if `core` is set, the base clause ids of its
        derivation (else None).  Those include the reason chains of the
        level-0 variables it resolves away: level 0 is never undone within
        a solve, so the chains stay as they are.
        """
        learned: list[int] = [0]
        seen = set()
        flat = self.flat_bases
        bases = set(flat.get(confl, (confl,))) if core else None
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
            if core:
                bases.update(flat.get(r, (r,)))
            reason_clause = self.clauses[r]

        backjump = 0
        for q in learned[1:]:
            lv = self.level[abs(q)]
            if lv > backjump:
                backjump = lv
        if core:
            bases |= self._support(zeros)
        return learned, backjump, bases

    def _support(self, variables: Iterable[int]) -> set[int]:
        """The base clause ids that the assignments of `variables` rest on:
        the reasons of everything they follow from, each learned reason
        standing for its derivation."""
        reason, clauses, flat = self.reason, self.clauses, self.flat_bases
        reasons: set[int] = set()
        stack = list(variables)
        seen = set(stack)
        while stack:
            r = reason[stack.pop()]
            if r is None:  # an assumption or a decision
                continue
            reasons.add(r)
            for v in map(abs, clauses[r]):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        learned = reasons.intersection(flat)
        if learned:
            reasons -= learned
            for r in learned:
                reasons |= flat[r]
        return reasons

    def _add_learned(self, lits: list[int], bases: set[int] | None) -> int:
        ci = len(self.clauses)
        self.clauses.append(tuple(lits))
        for lit in lits:
            self.occ[lit].append(ci)
        if bases is not None:
            self.flat_bases[ci] = bases
        return ci

    def _cleanup(self) -> None:
        """Drop the learned clauses and restore the base assignment."""
        base = self.base_count
        # learned ids were appended last, so they end the occurrence lists
        for clause in reversed(self.clauses[base:]):
            for lit in clause:
                self.occ[lit].pop()
        del self.clauses[base:]
        self.flat_bases.clear()
        self._backtrack(0, self.base_trail_len)

    # -- the search ------------------------------------------------------

    def solve(
        self, assumptions: list[int], core: bool = False
    ) -> tuple[bool, frozenset[int] | set[int] | None]:
        """Decide the base formula under positive unit assumptions.

        Returns (True, true variable set) or (False, the base clause ids of
        an unsatisfiable core if `core` is set, else None).  Without a core,
        conflict analysis tracks no derivations, so refuting a package that
        a deep chain fixes false costs no walk of the chain, and a conflict
        reached while every open decision level is an assumption's ends the
        solve with no analysis: propagation from the assumptions alone
        refutes them.  The engine is back in its base state afterwards.

        A first assumption that the base state already falsifies is
        answered by the depth-0 check before any decision, so the cleanup
        has nothing to undo.
        """
        try:
            while True:
                conflict = self._propagate()
                if conflict is not None:
                    if not self.trail_lim:
                        raise RuntimeError("conflict at level 0; encoding bug")
                    if not core and len(self.trail_lim) <= len(assumptions):
                        return False, None
                    lits, backjump, bases = self._analyze(conflict, core)
                    self._backtrack(backjump, self.trail_lim[backjump])
                    conflict = self._assign(lits[0], self._add_learned(lits, bases))
                    assert conflict is None
                    continue
                depth = len(self.trail_lim)
                if depth < len(assumptions):
                    var = assumptions[depth]
                    state = self.value[var]
                    if state == -1:
                        return False, self._support((var,)) if core else None
                    self.trail_lim.append(len(self.trail))
                    if state == 0:
                        conflict = self._assign(var, None)
                        assert conflict is None
                    continue
                lit = self._next_decision()
                if lit is None:
                    model = frozenset(l for l in self.trail if l > 0)
                    if __debug__ and self.nvars <= _DEBUG_CHECK_LIMIT:
                        self._verify_model()
                    return True, model
                self.trail_lim.append(len(self.trail))
                conflict = self._assign(lit, None)
                assert conflict is None
        finally:
            self._cleanup()

    def _verify_model(self) -> None:
        # A literal holds under "unassigned means false" if it is true, or
        # negative and unassigned.
        value = self.value
        for clause in self.clauses:
            sat = any(value[l] == 1 or l < 0 and value[l] == 0 for l in clause)
            assert sat, "partial model does not extend with all-false"


# -- results and explanations ---------------------------------------------


@dataclass(frozen=True, slots=True)
class ExplanationChain:
    """One rendered path of dependency steps ending in a dead end.

    With no terminating conflict, the last step's alternative is
    unsatisfiable within the explanation ("{NOT AVAILABLE}" when it has
    no members at all).  `lines` holds the text of the steps, then of the
    conflict.
    """

    steps: tuple[DependencyEdge, ...]
    conflict: tuple[PackageId, PackageId] | None
    lines: tuple[str, ...]

    def packages(self) -> list[PackageId]:
        return [step.package for step in self.steps]

    def render_lines(self) -> list[str]:
        return list(self.lines)


@dataclass(frozen=True, slots=True)
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
            lines.extend(chain.lines)
        return lines


class _PooledWitness:
    """The witness of a `check_all` union, not built yet: its bitset in
    `_witness_pass`'s positions, each position's variable `at`, and the
    repository's `packages`, variable v's at v - 1."""

    __slots__ = ("bits", "at", "packages")

    def __init__(self, bits: int, at: array, packages: tuple[PackageId, ...]):
        self.bits, self.at, self.packages = bits, at, packages

    def build(self) -> frozenset[PackageId]:
        at, packages = self.at, self.packages
        return frozenset(packages[at[i] - 1] for i in _set_bits(self.bits))


class CheckResult:
    """Verdict of an (co-)installability query: when the packages are
    installable, `witness` is a healthy installation holding them.

    Immutable, and compared, hashed and shown by (installable, witness,
    explanation), as a frozen dataclass of those fields would be.  A
    result that `check_all` pools builds its witness set the first time
    `witness` is read and keeps it, so every read returns the same set.
    """

    __slots__ = ("installable", "explanation", "_witness")

    def __init__(self, installable: bool,
                 witness: frozenset[PackageId] | _PooledWitness | None = None,
                 explanation: Explanation | None = None):
        object.__setattr__(self, "installable", installable)
        object.__setattr__(self, "explanation", explanation)
        object.__setattr__(self, "_witness", witness)

    @property
    def witness(self) -> frozenset[PackageId] | None:
        witness = self._witness
        if type(witness) is _PooledWitness:
            witness = witness.build()
            object.__setattr__(self, "_witness", witness)
        return witness

    def _fields(self) -> tuple:
        return self.installable, self.witness, self.explanation

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CheckResult:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"CheckResult(installable={self.installable!r}, witness={self.witness!r},"
                f" explanation={self.explanation!r})")

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return CheckResult, self._fields()


def _render_chains(
    clause_set: ClauseSet,
    query_vars: list[int],
    kept_of: dict[int, list[int]],
    conflicts: list[int],
    edges: dict[int, DependencyEdge],
    lines: dict[int, str],
) -> tuple[ExplanationChain, ...]:
    """Arrange kept clauses into readable chains: `kept_of` maps each
    package variable to its kept dependency clause ids in clause order,
    `conflicts` lists the kept conflict clause ids, and `edges` maps each
    kept dependency clause id to its edge.

    Depth-first from each queried variable, on an explicit stack so that
    chains of any depth render.  A package's kept edges are expanded once,
    when the walk takes them out of `kept_of`, so shared sub-reasons are
    not repeated.  A chain stops at a package with no kept edges or one
    already expanded, once for each kept conflict of the package; a kept
    conflict that ends no chain gets one with no steps.  Each kept
    clause's line is formatted once, its members in clause order, which
    is package order; `lines`, which maps clause ids of `clause_set` to
    their lines, keeps them for later calls.
    """
    clauses, origins, rendered = clause_set.clauses, clause_set.origins, clause_set.rendered
    conflicts_of: dict[int, list[int]] = {}
    for ci in conflicts:
        if ci not in lines:
            a, b = clauses[ci]
            lines[ci] = f"{rendered[-a]} conflicts with {rendered[-b]}"
        for lit in clauses[ci]:
            conflicts_of.setdefault(-lit, []).append(ci)

    chains: list[ExplanationChain] = []
    # The steps and lines from a queried variable to the popped one are
    # steps[:depth] and shown[:depth].  Stack entries are (variable, its
    # depth, the last step and line of its path); variable 0 stands for
    # the missing member of a dependency with no members.
    steps: list[DependencyEdge] = []
    shown: list[str] = []
    stack: list[tuple] = [(v, 0, None, None) for v in reversed(query_vars)]
    while stack:
        var, depth, step, line = stack.pop()
        if depth:
            steps[depth - 1:] = (step,)
            shown[depth - 1:] = (line,)
        owned = kept_of.pop(var, None)  # so a package is expanded once
        if owned is None:
            stops = conflicts_of.get(var)
            if stops:
                path = tuple(steps[:depth])
                for end in stops:
                    chains.append(
                        ExplanationChain(path, origins[end], (*shown[:depth], lines[end])))
            elif depth:
                chains.append(ExplanationChain(tuple(steps), None, tuple(shown)))
            continue
        depth += 1
        for ci in reversed(owned):
            step = edges[ci]
            line = lines.get(ci)
            if line is None:
                owner, *members = clauses[ci]
                shown_members = " ".join(map(rendered.__getitem__, members)) or "NOT AVAILABLE"
                line = lines[ci] = (f"{rendered[-owner]} depends on {step.clause.label}"
                                    f" {{{shown_members}}}")
            stack.extend([(m, depth, step, line) for m in clauses[ci][:0:-1] or (0,)])
    if conflicts:
        # e.g. a conflict between two packages that were each reached once and expanded
        ended = {chain.conflict for chain in chains}
        chains.extend(ExplanationChain((), origins[ci], (lines[ci],))
                      for ci in conflicts if origins[ci] not in ended)
    return tuple(chains)


def _shrink_edges(
    clause_set: ClauseSet,
    query_vars: list[int],
    core: list[int],
    memo: dict[tuple, tuple[int, ...]],
) -> list[int]:
    """Greedily drop the clauses of `core` (ascending ids) in turn while the
    kept ones still rule out the query (ascending variables); returns the
    kept clause ids, or `core` itself when the core and the query mention
    more than `_SHRINK_LIMIT` variables.

    With the variables the core and the query mention renumbered 1..n in
    order, the shrink is a function of the local formula alone: the core's
    clauses in core order, which variables share a name, and the query.
    `memo` maps such formulas to the positions in `core` they keep, so a
    formula met before costs no engine.

    A core that `_minimal_by_paths` certifies is returned as it is, with
    no renumbering and no engine: greedy deletion keeps all of it.

    One engine decides every trial, one per core clause in core order:
    core clause k gets the selector literal -(n+1+k), and the trial for k
    assumes the selectors of every other clause not yet dropped.  An
    unsatisfiable trial drops k.  A package that no kept clause mentions
    occurs only negatively and can stay uninstalled, so each verdict is
    that on `Explanation.induced_repository`.
    """
    if _minimal_by_paths(clause_set, query_vars, core):
        return core
    clauses = [clause_set.clauses[ci] for ci in core]
    variables = sorted({abs(lit) for clause in clauses for lit in clause}.union(query_vars))
    if len(variables) > _SHRINK_LIMIT:
        return core
    index = {v: i for i, v in enumerate(variables, 1)}
    local = tuple(tuple(index[l] if l > 0 else -index[-l] for l in clause) for clause in clauses)
    # each variable's first same-name variable: it fixes the same-name pairs
    first: dict[str, int] = {}
    names = clause_set.names
    namesakes = tuple(first.setdefault(names[v], i) for i, v in enumerate(variables, 1))
    key = (local, namesakes, tuple(index[v] for v in query_vars))
    kept = memo.get(key)
    if kept is None:
        kept = memo[key] = _shrink_local(*key)
    return [core[k] for k in kept]


def _minimal_by_paths(clause_set: ClauseSet, query_vars: list[int], core: list[int]) -> bool:
    """Whether greedy deletion provably keeps every clause of `core`
    (ascending ids), so that `_shrink_edges` need not try any.

    It holds when the query is one package, the core is dependency
    clauses only, one per owning package, and a depth-first walk from the
    queried package along the members of those clauses reaches every
    owner on a path that repeats no package name.  Proof: for an owner q,
    install exactly the packages on the path to q.  Each of them but q has
    its one clause met by the next package on the path, q's clause is the
    one dropped, every other owner stays uninstalled, the path holds no
    two versions of a name, and the core holds no conflict pair.  So every
    deletion trial is satisfiable, and greedy deletion keeps the whole
    core.  A core it declines is shrunk by trials.
    """
    if len(query_vars) != 1 or not core or core[-1] >= clause_set.ends[-1]:
        return False
    root = query_vars[0]
    clauses, names = clause_set.clauses, clause_set.names
    # owner -> its one clause; an owner's negative literal is no key
    owned = {-clauses[ci][0]: clauses[ci] for ci in core}
    if len(owned) < len(core) or root not in owned:
        return False
    # a popped -v leaves v's path; the names on the current path are `path`
    stack, seen, path = [root], {root}, set()
    while stack:
        v = stack.pop()
        if v < 0:
            path.discard(names[-v])
            continue
        path.add(names[v])
        stack.append(-v)
        for m in owned[v]:
            if m in owned and m not in seen and names[m] not in path:
                seen.add(m)
                stack.append(m)
    return len(seen) == len(owned)


def _shrink_local(
    local: tuple[tuple[int, ...], ...], namesakes: tuple[int, ...], query: tuple[int, ...]
) -> tuple[int, ...]:
    """`_shrink_edges` on the renumbered formula: the ascending positions of
    the clauses of `local` that greedy deletion keeps.  Variables i and j
    are same-name versions iff namesakes[i-1] == namesakes[j-1]."""
    n = len(namesakes)
    trial = [(*clause, -(n + 1 + k)) for k, clause in enumerate(local)]
    # same-name versions conflict in every trial, as in the induced repository
    for i, j in combinations(range(1, n + 1), 2):
        if namesakes[i - 1] == namesakes[j - 1]:
            trial.append((-i, -j))
    engine = _Engine(n + len(local), tuple(trial))
    kept = list(range(len(local)))
    for k in range(len(local)):
        if not engine.solve([*query, *(n + 1 + j for j in kept if j != k)])[0]:
            kept.remove(k)
    return tuple(kept)


class RepositoryChecker:
    """Shared encoding plus a reusable solver for many queries on one repository."""

    def __init__(self, repo: Repository):
        self.repo = repo
        self.clause_set = encode(repo)
        self._engine = _Engine(len(repo.packages), self.clause_set.clauses)
        # What explanations share, each entry a function of its key alone:
        # renumbered formula -> the positions `_shrink_edges` keeps, and
        # kept clause id -> its `DependencyEdge` and its rendered line.
        self._shrunk: dict[tuple, tuple[int, ...]] = {}
        self._edges: dict[int, DependencyEdge] = {}
        self._lines: dict[int, str] = {}

    def query(self, pids: list[PackageId], explain: bool = True) -> CheckResult:
        if not pids:
            raise ValueError("query set must be non-empty")
        assumptions = self._variables(pids)
        sat, payload = self._engine.solve(assumptions, core=explain)
        if sat:
            witness = frozenset(self.clause_set.package_of(v) for v in payload)
            if __debug__ and len(self.repo.packages) <= _DEBUG_CHECK_LIMIT:
                assert check_health(witness, self.repo).healthy
                assert witness.issuperset(pids)
            return CheckResult(True, witness=witness)
        if not explain:
            return CheckResult(False)
        return CheckResult(False, explanation=self._explain(assumptions, payload))

    def check_all(self, explain: bool = True,
                  only: Collection[PackageId] | None = None) -> dict[PackageId, CheckResult]:
        """Per-package verdicts, in repository order, for the packages of
        `only` (`ValueError` if one is unknown) or of the whole repository.

        `_witness_pass` walks the cones of the selected packages; those it
        gives a witness are settled without search, and the others, doomed
        ones included, get one query each.  The witnesses are pooled first
        fit, in the pass's order, into unions that no conflict pair spans
        (the same test as the pass's fit), so each union is a healthy
        installation, and every package settled by one shares its
        `CheckResult`.  That result keeps the union as a bitset and builds
        its `witness` set the first time it is read; every later read
        returns the same set.  Verdicts and explanations, built only when
        `explain` is set, equal fresh per-package checks whatever the
        selection.
        """
        selected = range(1, len(self.repo.packages) + 1) if only is None else self._variables(only)
        at, walk = _witness_pass(self.clause_set, self._engine, selected)
        unions: list[tuple[int, int]] = []  # (union of witnesses, its near)
        group_of: dict[int, int] = {}  # settled variable -> its union
        for members, cone, near in walk:
            for g, (union, union_near) in enumerate(unions):
                if not (cone & union_near or union & near):
                    unions[g] = (union | cone, union_near | near)
                    break
            else:
                g = len(unions)
                unions.append((cone, near))
            for v in members:
                group_of[v] = g
        packages, package_of = self.clause_set.packages, self.clause_set.package_of
        shared = [CheckResult(True, witness=_PooledWitness(union, at, packages))
                  for union, _ in unions]
        del unions
        if __debug__ and len(self.repo.packages) <= _DEBUG_CHECK_LIMIT:
            assert all(check_health(result.witness, self.repo).healthy for result in shared)
        results: dict[PackageId, CheckResult] = {}
        for v in selected:
            pid, group = package_of(v), group_of.get(v)
            results[pid] = self.query([pid], explain) if group is None else shared[group]
        return results

    def coinstallable_pairs(self, pairs: list[tuple[PackageId, PackageId]]) -> list[bool]:
        """Whether each pair of `pairs` is co-installable, in order.

        A pair is settled without search when both packages have witnesses
        and the two fit: no conflict pair spans them, so their union is a
        healthy installation holding both (abundant, since each member's
        alternatives are met inside its own witness; at peace, since
        neither witness nor the span between them holds a conflict, and
        same-name versions are conflict pairs too).  Every other pair is
        one `query`, and the model of a satisfiable one becomes the witness
        of each asked package it holds that has none yet.

        Witnesses are (cone, near) bitsets in `_witness_pass`'s positions,
        from the pass (its member witnesses included) or from a query's
        model.  The pass starts from the asked packages alone, as
        `check_all(only=...)` does: a pair query's model lies in the cone
        of its two packages, as a member witness lies in its member's, so
        every package of a model has a position.  `_model_witness` turns
        each model into bitsets whose `near` holds every conflict partner
        of its members that has a position, so the fit test stays exact
        for any mix of witnesses: a partner without one lies outside every
        witness.
        """
        clause_set = self.clause_set
        index, package_of = clause_set.index, clause_set.package_of
        asked = {index[p] for pair in pairs for p in pair}
        engine = self._engine
        at, walk = _witness_pass(clause_set, engine, sorted(asked))
        witness_of = {v: (cone, near) for members, cone, near in walk for v in members if v in asked}
        pos = [-1] * (len(clause_set.packages) + 1)
        for i, v in enumerate(at):
            pos[v] = i
        checked = __debug__ and len(self.repo.packages) <= _DEBUG_CHECK_LIMIT

        answers = []
        for a, b in pairs:
            wa, wb = witness_of.get(index[a]), witness_of.get(index[b])
            if wa is not None and wb is not None and not (wa[0] & wb[1] or wb[0] & wa[1]):
                if checked:
                    union = frozenset(package_of(at[i]) for i in _set_bits(wa[0] | wb[0]))
                    assert check_health(union, self.repo).healthy and {a, b} <= union
                answers.append(True)
                continue
            result = self.query([a, b], explain=False)
            answers.append(result.installable)
            if not result.installable:
                continue
            model = [index[p] for p in result.witness]
            fresh = [v for v in asked.intersection(model) if v not in witness_of]
            if not fresh:
                continue
            witness = _model_witness(model, pos, engine, clause_set.ends[-1])
            for v in fresh:
                witness_of[v] = witness
        return answers

    def _probe(self, pids: list[PackageId]) -> CheckResult:
        """`query` without an explanation.  The package itself does not call
        it; `bench/tracer.py` wraps it by name for its `solver.probe_calls`
        metric, so it stays until the tracer reads counters kept by the
        program instead."""
        return self.query(pids, explain=False)

    def _variables(self, pids: Collection[PackageId]) -> list[int]:
        """The ascending variables of `pids`; `ValueError` names one not in the repository."""
        index = self.clause_set.index
        try:
            return sorted({index[p] for p in pids})
        except KeyError:
            missing = min((p for p in pids if p not in index), key=package_sort_key)
            raise ValueError(f"package not in repository: {missing}") from None

    def _explain(self, assumptions: list[int], core: set[int]) -> Explanation:
        """The explanation of an unsatisfiable core given as base clause
        ids, for the query on the ascending variables `assumptions`: shrunk
        by `_shrink_edges`, then turned into edges in clause order
        (dependency clauses first), and into chains by `_render_chains`
        from the kept dependency clauses grouped by owner."""
        clause_set = self.clause_set
        clauses, origins, package_of = clause_set.clauses, clause_set.origins, clause_set.package_of
        kept = _shrink_edges(clause_set, assumptions, sorted(core), self._shrunk)
        # cores hold base clauses only: dependency clauses, then conflict pairs
        split = bisect_left(kept, clause_set.ends[-1])

        edges = self._edges
        kept_of: dict[int, list[int]] = {}  # owner -> its kept dependency clause ids
        for ci in kept[:split]:
            owner = -clauses[ci][0]
            if ci not in edges:
                edges[ci] = DependencyEdge(package_of(owner), origins[ci])
            kept_of.setdefault(owner, []).append(ci)
        conflicts = kept[split:]
        chains = _render_chains(clause_set, assumptions, kept_of, conflicts, edges, self._lines)
        return Explanation(tuple(map(package_of, assumptions)),
                           tuple(map(edges.__getitem__, kept[:split])),
                           tuple(origins[ci] for ci in conflicts), chains)


def check_installable(repo: Repository, pkg: PackageId) -> CheckResult:
    """Decide whether one package is installable within the repository."""
    return RepositoryChecker(repo).query([pkg])


def check_coinstallable(repo: Repository, pkgs: frozenset[PackageId]) -> CheckResult:
    """Decide whether all of `pkgs` fit into one healthy installation."""
    return RepositoryChecker(repo).query(list(pkgs))


def check_all(repo: Repository, explain: bool = True) -> dict[PackageId, CheckResult]:
    """Per-package verdicts for the whole repository, in repository order;
    see `RepositoryChecker.check_all`."""
    return RepositoryChecker(repo).check_all(explain)


def _components(
    successors: Callable[[int], Iterable[int]], n: int, roots: Iterable[int]
) -> tuple[list[list[int]], list[int]]:
    """Strongly connected components of what `roots` reach through
    `successors`, over vertices below `n`, children first, and each
    vertex's component index (-1 if unreached).  `successors` is called
    once for each reached vertex, when the walk first reaches it.

    Tarjan's algorithm on an explicit stack, so any depth is fine: `order`
    holds visit numbers, and a visited vertex whose `comp` is still -1 is
    on Tarjan's stack.
    """
    order = [0] * n
    low = [0] * n
    comp = [-1] * n
    sccs: list[list[int]] = []
    stack: list[int] = []
    visits = 0
    for root in roots:
        if order[root]:
            continue
        visits += 1
        order[root] = low[root] = visits
        stack.append(root)
        work = [(root, iter(successors(root)))]
        while work:
            v, children = work[-1]
            for w in children:
                if not order[w]:
                    visits += 1
                    order[w] = low[w] = visits
                    stack.append(w)
                    work.append((w, iter(successors(w))))
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


def _witness_pass(
    clause_set: ClauseSet, engine: _Engine, roots: Iterable[int]
) -> tuple[array, Iterator[tuple[list[int], int, int]]]:
    """Healthy installations for the packages whose dependencies can be met
    by choices, among those that `roots` reach, found with a solve only for
    members of tangled components (below).

    `clause_set` must hold no assumptions: every clause from `ends[-1]`
    on is taken for a conflict pair.  `engine` is its engine, in the base
    state: the packages it fixes false are doomed.

    A package's successors are the members of its dependency clauses that
    are not doomed.  Each reached package's list of them is built once,
    when Tarjan's walk first reaches it, and the last-reader count reads
    the same list; a package the roots do not reach gets none.  Strongly
    connected components come children first,
    and bit positions follow that order.  Each conflict pair is recorded at
    its end with the higher position, as the bit of the other end, and
    `near` of a set ORs the records of its members; a pair lies inside a
    set iff its lower end is in `cone & near`.  A witness is such a pair
    of bitsets (cone, near).

    A component's witness starts from its members' bits and records.  A
    component whose members conflict with each other (two versions of one
    name in a dependency cycle, say) is tangled and gets none.  Every
    dependency clause of a member with no member in the component or in a
    component merged so far then needs a choice: the first member, in
    clause order, with a witness that fits the running union.  A member's
    witness is its component's or, in a tangled component, a member
    witness: the model of `engine.solve([m])` as `_model_witness` turns it
    into bitsets.  It is made the first time a clause reaches the member,
    and kept, unsatisfiable results too, until the last component with an
    edge into its component has been walked, as component witnesses are.
    Fits means no conflict pair spans the two: `kid_cone & near` and
    `cone & kid_near` are both 0.  The chosen witness is OR'd in, and its
    component is marked merged unless it is a member witness, which holds
    none of the component's other members.  A clause with no fitting
    member leaves the component without a witness, and its packages go to
    the solver.  By induction every witness is a healthy installation that
    holds its packages:

    - abundant, because each member has every clause met inside it, each
      merged witness is abundant, and a model is;
    - at peace, because the members do not conflict, merged witnesses and
      models do not, and a fitting merge adds no pair across.  The fit
      test is exact for any mix of witnesses, because every witness's
      `near` records each conflict pair of its packages at least at the
      pair's higher end; a member witness's records both ends.

    The search installs a package only as the member itself or to meet a
    clause of an installed package, so a model lies in the member's cone,
    and each of its packages has a bit position.

    A clean cone (no conflict pair among everything the package reaches)
    is the case where each clause's first member with a witness fits, so
    every package with a clean cone gets a witness.  As a set of packages,
    a component's witness depends only on what it reaches and a member
    witness only on its member, not on `roots`; which member witnesses are
    made depends on the roots, since only a walked clause asks for one.

    Returns `at`, each bit position's variable, and an iterator that walks
    the components, children first, and yields (members, cone, near) for
    each one that gets a witness, and ([m], cone, near) for each member
    witness as it is made, before the component whose clause asked for it.
    """
    n = len(clause_set.packages)
    clauses, ends = clause_set.clauses, clause_set.ends
    doomed = engine.never_installable_vars()

    succ: list[list[int] | None] = [None] * (n + 1)  # made as Tarjan first reaches each package

    def successors(v: int) -> list[int]:
        succ[v] = [m for clause in clauses[ends[v - 1]:ends[v]] for m in clause[1:]
                   if m not in doomed]
        return succ[v]

    sccs, comp = _components(successors, n + 1, (v for v in roots if v not in doomed))
    at = array("l", chain.from_iterable(sccs))  # bit position -> variable; results keep it
    pos = [-1] * (n + 1)
    for i, v in enumerate(at):
        pos[v] = i
    # conflict pairs between reached packages as hi * size + lo, the
    # positions of their ends, sorted: the walk meets each at its higher end
    size = len(at)
    records = []
    for a, b in clauses[ends[n]:]:
        i, j = pos[-a], pos[-b]
        if i >= 0 and j >= 0:
            records.append(i * size + j if i > j else j * size + i)
    records.sort()
    last = list(range(len(sccs)))  # the last component to read each witness
    for c, members in enumerate(sccs):
        for v in members:
            for w in succ[v]:
                last[comp[w]] = c

    def walk() -> Iterator[tuple[list[int], int, int]]:
        witness_of: dict[int, tuple[int, int]] = {}  # component -> (cone, near)
        solved: dict[int, tuple[int, int] | None] = {}  # member -> its member witness
        tangled: set[int] = set()  # components whose members conflict with each other
        # last reader -> the component witnesses and the member witnesses it ends
        expiring: dict[int, list[int]] = {}
        lapsing: dict[int, list[int]] = {}
        start = r = 0
        for c, members in enumerate(sccs):
            top = start + len(members)
            cone = (1 << top) - (1 << start)
            near = 0
            while r < len(records) and records[r] < top * size:
                near |= 1 << records[r] % size
                r += 1
            start = top
            settled = not cone & near
            if not settled:
                tangled.add(c)
            merged = {c}  # components whose witnesses are in `cone`
            own = (clause for v in members for clause in clauses[ends[v - 1]:ends[v]])
            for clause in own if settled else ():
                choices = clause[1:]
                if any(comp[m] in merged for m in choices):
                    continue
                for m in choices:  # a doomed member has comp -1 and no witness
                    k = comp[m]
                    kid = witness_of.get(k)
                    if kid is None and k in tangled:
                        if m not in solved:
                            sat, model = engine.solve([m])
                            solved[m] = _model_witness(model, pos, engine, ends[n]) if sat else None
                            lapsing.setdefault(last[k], []).append(m)
                            if sat:
                                yield ([m], *solved[m])
                        kid = solved[m]
                    if kid is not None and not (kid[0] & near or cone & kid[1]):
                        cone |= kid[0]
                        near |= kid[1]
                        if k not in tangled:
                            merged.add(k)
                        break
                else:
                    settled = False
                    break
            for k in expiring.pop(c, ()):
                del witness_of[k]
            for m in lapsing.pop(c, ()):
                del solved[m]
            if not settled:
                continue
            if last[c] > c:
                witness_of[c] = (cone, near)
                expiring.setdefault(last[c], []).append(c)
            yield members, cone, near

    return at, walk()


def _model_witness(
    model: Iterable[int], pos: list[int], engine: _Engine, deps_end: int
) -> tuple[int, int]:
    """A model's (cone, near) bitsets in `_witness_pass`'s bit positions
    `pos`, every variable of the model having one.  `near` holds each
    conflict partner of the model's packages, at both ends of the pair,
    read from the base engine's occurrence lists, where clause ids from
    `deps_end` on are conflict pairs.  A doomed partner has no position,
    and no witness holds it."""
    occ, clauses = engine.occ, engine.clauses
    cone = near = 0
    for v in model:
        cone |= 1 << pos[v]
        for ci in occ[-v]:
            if ci >= deps_end:  # a conflict pair, (-v, -w) in some order
                w = pos[-sum(clauses[ci]) - v]
                if w >= 0:
                    near |= 1 << w
    return cone, near


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
