"""Independent installability reasoning over a generated archive.

Works on the generator's own model (names, integer version keys and
relations), never on the program's parser, version ordering, expansion
or solver, so the benchmark checks the program against a second,
unrelated code path:

- `forced_broken`: the least fixed point of "some dependency has no
  candidate outside this set".  Every member is certainly broken.
- `forced_installable`: packages outside that set whose dependency cone,
  built through candidates that are not forced broken, holds no conflict
  pair and no two versions of one name.  The whole cone is then a
  healthy installation, so every member is certainly installable.
- `installable`: a small backtracking search over a query's cone, for the
  packages neither argument settles, and for pairs.
"""

from __future__ import annotations

_HOLDS = {
    "<<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">>": lambda a, b: a > b,
}

#: Propagation steps after which `Oracle.installable` gives up.
_BUDGET = 200_000


class Oracle:
    def __init__(self, pkgs):
        self.pkgs = pkgs
        byname: dict[str, list[int]] = {}
        providers: dict[str, list[int]] = {}
        for i, pkg in enumerate(pkgs):
            byname.setdefault(pkg.name, []).append(i)
            for name in pkg.provides:
                providers.setdefault(name, []).append(i)
        # newest first, so searches try the newest candidate first
        for group in byname.values():
            group.sort(key=lambda i: -pkgs[i].key)

        def matching(ref) -> list[int]:
            if ref.relation is None:
                return byname.get(ref.name, []) + providers.get(ref.name, [])
            holds = _HOLDS[ref.relation]
            return [i for i in byname.get(ref.name, []) if holds(pkgs[i].key, ref.key)]

        n = len(pkgs)
        self.clauses: list[list[tuple[int, ...]]] = [
            [tuple(dict.fromkeys(c for ref in alt for c in matching(ref))) for alt in pkg.depends]
            for pkg in pkgs
        ]
        self.conflicts: list[set[int]] = [set() for _ in range(n)]
        for i, pkg in enumerate(pkgs):
            for ref in pkg.conflicts:
                for j in matching(ref):
                    if j != i:
                        self.conflicts[i].add(j)
                        self.conflicts[j].add(i)
        for group in byname.values():
            for i in group:
                self.conflicts[i].update(j for j in group if j != i)
        #: candidate -> [(owner, candidates)] for every clause naming it
        self.users: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for owner, clauses in enumerate(self.clauses):
            for cands in clauses:
                for c in cands:
                    self.users.setdefault(c, []).append((owner, cands))
        self.forced_broken = self._forced_broken()

    def _forced_broken(self) -> frozenset[int]:
        # candidates not yet known broken, per (owner, clause)
        left = {id(cands): len(cands) for clauses in self.clauses for cands in clauses}
        broken = {o for o, clauses in enumerate(self.clauses) if () in clauses}
        queue = list(broken)
        while queue:
            for owner, cands in self.users.get(queue.pop(), ()):
                left[id(cands)] -= 1
                if left[id(cands)] == 0 and owner not in broken:
                    broken.add(owner)
                    queue.append(owner)
        return frozenset(broken)

    def cone(self, query) -> set[int]:
        """Packages reachable from `query` through candidates not forced broken."""
        broken = self.forced_broken
        seen = set(query)
        stack = list(query)
        while stack:
            for cands in self.clauses[stack.pop()]:
                for c in cands:
                    if c not in broken and c not in seen:
                        seen.add(c)
                        stack.append(c)
        return seen

    def forced_installable(self) -> frozenset[int]:
        out = set()
        for p in range(len(self.pkgs)):
            if p in self.forced_broken:
                continue
            cone = self.cone([p])
            if len({self.pkgs[q].name for q in cone}) == len(cone) and not any(
                self.conflicts[q] & cone for q in cone
            ):
                out.add(p)
        return frozenset(out)

    def installable(self, query) -> bool | None:
        """Can all of `query` be installed together?  None past `_BUDGET` steps.

        Backtracking search with unit propagation and conflict-directed
        backjumping, touching only packages the query reaches.  Every
        assignment carries the set of decisions it follows from (a bit
        mask of decision levels); a conflict undoes everything from the
        latest decision it depends on and asserts the opposite of that
        decision.  Packages left unassigned at the end are not installed,
        which is safe because every constraint other than a dependency of
        an installed package forbids installing something.
        """
        if any(q in self.forced_broken for q in query):
            return False
        clauses = self.clauses
        conflicts = self.conflicts
        users = self.users
        value = dict.fromkeys(self.forced_broken, -1)
        why: dict[int, int] = {}  # package -> decision levels it follows from
        trail: list[int] = []
        marks: list[int] = []  # trail length when each decision level began
        decisions: list[int] = []
        queue: list[int] = []
        steps = 0

        def assign(p: int, state: int, mask: int) -> None:
            value[p] = state
            why[p] = mask
            trail.append(p)
            queue.append(p)

        def check(owner: int, cands) -> int | None:
            """Conflict mask if the clause of a true owner is violated."""
            mask = why[owner]
            free = None
            for c in cands:
                state = value.get(c, 0)
                if state == 1:
                    return None
                if state == 0:
                    if free is not None:
                        return None
                    free = c
                else:
                    mask |= why.get(c, 0)
            if free is None:
                return mask
            assign(free, 1, mask)
            return None

        def propagate() -> int | None:
            nonlocal steps
            while queue:
                steps += 1
                p = queue.pop()
                if value[p] == 1:
                    for q in conflicts[p]:
                        state = value.get(q, 0)
                        if state == 1:
                            queue.clear()
                            return why[p] | why[q]
                        if state == 0:
                            assign(q, -1, why[p])
                    checks = [(p, cands) for cands in clauses[p]]
                else:
                    checks = [(o, cands) for o, cands in users.get(p, ()) if value.get(o) == 1]
                for owner, cands in checks:
                    mask = check(owner, cands)
                    if mask is not None:
                        queue.clear()
                        return mask
            return None

        def next_decision() -> int | None:
            for p in trail:
                if value[p] != 1:
                    continue
                for cands in clauses[p]:
                    free = None
                    for c in cands:
                        state = value.get(c, 0)
                        if state == 1:
                            break
                        if state == 0 and free is None:
                            free = c
                    else:
                        return free
            return None

        for q in query:
            state = value.get(q, 0)
            if state == -1:
                return False
            if state == 0:
                assign(q, 1, 0)
                if propagate() is not None:
                    return False
        while steps <= _BUDGET:
            var = next_decision()
            if var is None:
                return True
            marks.append(len(trail))
            decisions.append(var)
            assign(var, 1, 1 << len(decisions))
            conflict = propagate()
            while conflict is not None:
                if conflict == 0:
                    return False
                level = conflict.bit_length() - 1
                var = decisions[level - 1]
                for p in trail[marks[level - 1]:]:
                    del value[p], why[p]
                del trail[marks[level - 1]:], marks[level - 1:], decisions[level - 1:]
                assign(var, -1, conflict & ~(1 << level))
                conflict = propagate()
        return None
