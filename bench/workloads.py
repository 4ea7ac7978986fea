"""Seeded input generators for the benchmark workloads.

Each generator builds a small package model of its own (names, integer
version keys, relations) and renders it as a Debian ``Packages`` file.
Version strings are a monotone image of the integer keys, so the
benchmark knows which versions satisfy every reference without going
through the program's version ordering or expansion.

- `archive`: a single-version layered distribution, a few percent broken.
- `transition`: a multi-version archive in the middle of a library
  transition; the old library is gone, so most packages are broken.
- `conflicts`: a multi-version archive plus a ``Contents`` index with
  planted file-sharing pairs of known class.

The dependency structure of each workload is drawn from one fixed
random stream, so every seed poses the same problem and asks the program
for the same amount of work.  The seed draws the surface (`surface`):
each name's version strings and epoch.  The same seed always gives the
same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from oracle import Oracle

ARCHITECTURE = "amd64"


@dataclass(frozen=True)
class Ref:
    """A reference to a name, optionally constrained by a version key."""

    name: str
    relation: str | None = None
    key: int | None = None


@dataclass
class Pkg:
    name: str
    key: int
    depends: list[list[Ref]] = field(default_factory=list)
    conflicts: list[Ref] = field(default_factory=list)
    provides: list[str] = field(default_factory=list)
    replaces: list[str] = field(default_factory=list)


@dataclass
class Archive:
    """A generated archive: packages plus each name's epoch and key offset."""

    pkgs: list[Pkg]
    epochs: dict[str, int] = field(default_factory=dict)
    offsets: dict[str, int] = field(default_factory=dict)

    def version(self, name: str, key: int) -> str:
        return version_string(key + self.offsets.get(name, 0), self.epochs.get(name, 0))

    def render_id(self, pkg: Pkg) -> str:
        """The package as the CLI prints it: ``name (= version)``."""
        return f"{pkg.name} (= {self.version(pkg.name, pkg.key)})"

    def newest(self) -> dict[str, Pkg]:
        newest: dict[str, Pkg] = {}
        for pkg in self.pkgs:
            if pkg.name not in newest or pkg.key > newest[pkg.name].key:
                newest[pkg.name] = pkg
        return newest

    def _ref(self, ref: Ref) -> str:
        if ref.relation is None:
            return ref.name
        return f"{ref.name} ({ref.relation} {self.version(ref.name, ref.key)})"

    def render(self) -> bytes:
        blocks = []
        for pkg in self.pkgs:
            version = self.version(pkg.name, pkg.key)
            lines = [
                f"Package: {pkg.name}",
                f"Version: {version}",
                f"Architecture: {ARCHITECTURE}",
                f"Maintainer: Team {pkg.name[:4]} <{pkg.name}@example.org>",
                f"Installed-Size: {100 + pkg.key * 7}",
            ]
            if pkg.depends:
                lines.append("Depends: " + ", ".join(
                    " | ".join(self._ref(r) for r in alt) for alt in pkg.depends
                ))
            if pkg.conflicts:
                lines.append("Conflicts: " + ", ".join(self._ref(r) for r in pkg.conflicts))
            if pkg.provides:
                lines.append("Provides: " + ", ".join(pkg.provides))
            if pkg.replaces:
                lines.append("Replaces: " + ", ".join(pkg.replaces))
            lines.append(f"Filename: pool/main/{pkg.name[0]}/{pkg.name}/"
                         f"{pkg.name}_{version.split(':')[-1]}_{ARCHITECTURE}.deb")
            lines.append(f"Description: generated package {pkg.name}")
            blocks.append("\n".join(lines))
        return ("\n\n".join(blocks) + "\n").encode()


def version_string(key: int, epoch: int) -> str:
    """Strictly increasing in `key` under dpkg ordering."""
    text = f"{key // 10}.{key % 10}-{1 + key % 3}"
    return f"{epoch}:{text}" if epoch else text


def surface(arc: Archive, tag: str, seed: int) -> Archive:
    """Draw the seed's version strings: an epoch for about one name in seven
    and a key offset for every name.  An offset shifts all versions of a
    name and every reference to it alike, so no relation changes meaning.
    """
    rng = random.Random(f"{tag}:{seed}")
    names = sorted({pkg.name for pkg in arc.pkgs})
    arc.offsets = {name: rng.randrange(1000) for name in names}
    arc.epochs = {name: rng.choice([1, 2]) for name in names if rng.random() < 0.15}
    return arc


# -- archive ------------------------------------------------------------------


def archive(seed: int, count: int) -> Archive:
    """The `archive` workload: `layered` from a fixed stream, with the
    seed's surface."""
    return surface(layered(random.Random("archive:0"), count), "archive", seed)


def layered(rng: random.Random, count: int) -> Archive:
    """Single-version layered distribution shaped like criterion 6.

    As `tests/test_acceptance.py::_synthetic_distribution`: mean four
    dependencies, a tenth of them disjunctive, skewed towards
    low-numbered packages, so those are hubs of the whole archive; about
    one package in two declares conflicts against the top 40%.  On top of
    that, a fifth of the plain references carry a lower version bound,
    and one package in 100 of the upper half needs a missing name.
    """
    names = [f"pkg{i:05d}" for i in range(count)]
    keys = [rng.randrange(10, 400) for _ in range(count)]
    pkgs = []
    for i, name in enumerate(names):
        pkg = Pkg(name, keys[i])
        if i > 2:
            for _ in range(rng.choice([2, 3, 4, 5, 6])):
                if rng.random() < 0.10:
                    members = sorted({int(i * rng.random() ** 2.5)
                                      for _ in range(rng.choice([2, 3]))})
                    pkg.depends.append([Ref(names[t]) for t in members])
                    continue
                t = int(i * rng.random() ** 2.5)
                if rng.random() < 0.2:
                    pkg.depends.append([Ref(names[t], ">=", keys[t] - rng.randrange(5))])
                else:
                    pkg.depends.append([Ref(names[t])])
            if i >= count // 2 and rng.random() < 1 / 100:
                pkg.depends.append([Ref("libmissing", ">=", 10)])
        if rng.random() < 0.5:
            hi = count - 1 - int(count * 0.4 * rng.random())
            lo = count - 1 - int(count * 0.4 * rng.random())
            if hi != i and lo != i and hi != lo:
                pkg.conflicts.append(Ref(names[hi]))
                if rng.random() < 0.25:
                    pkg.conflicts.append(Ref(names[lo]))
        pkgs.append(pkg)
    return Archive(pkgs)


# -- multi-version archives -----------------------------------------------------

#: Application names per section; sections depend on each other only
#: through the base libraries.
SECTION = 100


def multi_version(rng: random.Random, count: int, old_library: bool) -> Archive:
    """Archive of `count` application names with 1-3 versions each.

    The applications come in sections of about `SECTION` names, each a
    layered graph of its own on top of up to 16 shared base libraries.
    Relations use versioned constraints, alternatives, virtual names
    (exclusive ones: every provider conflicts with the name) and
    Breaks-style versioned conflicts.  The core tenth of each section,
    which the rest builds on, has 2-3 versions per name and links against
    a library in transition: the newest version of three core names in
    ten has been rebuilt against ``libtr2``, and every other version needs
    ``libtr1``, which only exists when `old_library` is true.  Most
    references accept every version of their target, so a broken package
    is broken along many paths.
    """
    pkgs: list[Pkg] = []
    base = [f"libbase{j}" for j in range(max(2, min(16, count // 60)))]
    base_key = {}
    for j, name in enumerate(base):
        base_key[name] = rng.randrange(10, 300)
        pkg = Pkg(name, base_key[name])
        if j:  # a binary tree rooted at libbase0, the same for every seed
            t = (j - 1) // 2
            pkg.depends.append([Ref(base[t], ">=", base_key[base[t]] - rng.randrange(4))])
        pkgs.append(pkg)
    pkgs.append(Pkg("libtr2", 20, [[Ref(base[0])]]))
    if old_library:
        pkgs.append(Pkg("libtr1", 12, [[Ref(base[0])]]))

    sections = max(1, count // SECTION)
    for section in range(sections):
        size = count // sections + (section < count % sections)
        _section(rng, pkgs, section, size, base, base_key)
    return Archive(pkgs)


def _section(rng, pkgs, section, count, base, base_key) -> None:
    """Append one section of `count` layered applications.

    The section has two virtual names of its own, one of them exclusive.
    """
    names = [f"app{section:02d}-{i:03d}" for i in range(count)]
    virtuals = [f"virt{section:02d}-{k}" for k in range(2)]
    exclusive = virtuals[0]
    core = max(1, count // 10)
    versions: list[list[int]] = []
    for i in range(count):
        n = rng.choice([2, 3]) if i < core else rng.choice([1, 1, 2, 2, 3])
        versions.append(sorted(rng.sample(range(10, 200), n)))

    rebuilt = set(rng.sample(range(core), (3 * core + 5) // 10))
    for i, name in enumerate(names):
        for vi, key in enumerate(versions[i]):
            newest = vi == len(versions[i]) - 1
            pkg = Pkg(name, key)
            b = rng.choice(base)
            pkg.depends.append([Ref(b, ">=", base_key[b] - rng.randrange(6))])
            if i < core:
                # the core layer: the library, plain dependencies on lower
                # core names that accept every version, no conflicts
                lib = "libtr2" if newest and i in rebuilt else "libtr1"
                pkg.depends.append([Ref(lib, ">=", 10)])
                for t in {int(i * rng.random()) for _ in range(rng.choice([0, 1, 2]))}:
                    pkg.depends.append([Ref(names[t], ">=", versions[t][0])])
                pkgs.append(pkg)
                continue
            for _ in range(rng.choice([1, 2, 3, 4])):
                t = int(i * rng.random() ** 1.5)
                pkg.depends.append(_app_ref_alt(rng, names, versions, t, i, t >= count // 2))
            if rng.random() < 0.08:
                alt = [Ref(rng.choice(virtuals))]
                if rng.random() < 0.5:
                    alt.append(Ref(names[rng.randrange(i)]))
                pkg.depends.append(alt)
            # exclusive provides and Breaks stay in the upper half, where
            # few packages depend on them, so their cost stays local
            if rng.random() < 0.06:
                v = rng.choice(virtuals)
                if v != exclusive:
                    pkg.provides.append(v)
                elif i >= count // 2:
                    pkg.provides.append(v)
                    pkg.conflicts.append(Ref(v))
            if rng.random() < 0.05:
                t = rng.randrange(count // 2, count)
                if t != i:
                    pkg.conflicts.append(Ref(names[t], "<<", versions[t][-1]))
            pkgs.append(pkg)


def _app_ref_alt(rng, names, versions, t, i, lock) -> list[Ref]:
    """One dependency alternative on application `t` (lower than `i`).

    Only with `lock` may it pin one exact, possibly older, version.
    """
    keys = versions[t]
    roll = rng.random()
    if roll < 0.5:
        alt = [Ref(names[t], ">=", keys[0] if rng.random() < 0.8 else rng.choice(keys))]
    elif roll < 0.7:
        alt = [Ref(names[t])]
    elif roll < 0.8:
        alt = [Ref(names[t], "<<", keys[-1] + 1)]
    elif roll < 0.85:
        alt = [Ref(names[t], "=", rng.choice(keys) if lock else keys[-1])]
    else:
        other = rng.randrange(i)
        alt = [Ref(names[t], ">=", keys[-1]), Ref(names[other], ">=", versions[other][0])]
    return alt


def transition(seed: int, count: int) -> Archive:
    """Library transition: the old library is removed from the archive."""
    arc = multi_version(random.Random("transition:0"), count, old_library=False)
    return surface(arc, "transition", seed)


# -- conflicts ----------------------------------------------------------------

NOT_COINSTALLABLE = "not-coinstallable"
EXCUSED = "excused-by-replaces"
CANDIDATE = "candidate"


@dataclass
class ContentsWorkload:
    archive: Archive
    contents: bytes
    #: (a, b) -> (status, shared paths sorted); a < b
    pairs: dict[tuple[str, str], tuple[str, tuple[str, ...]]]
    #: (a, b) -> missing name
    absent: dict[tuple[str, str], str]


def conflicts(seed: int, count: int, pair_count: int) -> ContentsWorkload:
    """Multi-version archive plus a Contents index with planted sharing pairs.

    A planted pair is made impossible to install together (a direct
    conflict, or a conflict between two helper packages each side needs),
    excused by a Replaces declaration, or left as a plain candidate.
    Each pair's class is then confirmed by the independent search of
    `oracle.Oracle`; a pair whose intended class does not hold (say, one
    side is broken anyway) shares no file.
    """
    rng = random.Random("conflicts:0")
    arc = surface(multi_version(rng, count, old_library=True), "conflicts", seed)
    newest = arc.newest()
    apps = sorted(name for name in newest if name.startswith("app"))

    # conflicts are planted between packages of the upper half of their
    # sections only: few packages need them, so each conflict stays local
    top: dict[str, int] = {}
    for name in apps:
        section, index = name[:5], int(name[6:])
        top[section] = max(top.get(section, 0), index)
    upper = [name for name in apps if 2 * int(name[6:]) >= top[name[:5]]]

    planned: dict[tuple[str, str], str] = {}
    helpers = 0
    while len(planned) < pair_count:
        kind = rng.choices(
            ["direct", "deep", EXCUSED, CANDIDATE], weights=[1, 1, 2, 6]
        )[0]
        a, b = sorted(rng.sample(upper if kind in ("direct", "deep") else apps, 2))
        if (a, b) in planned:
            continue
        if kind == "direct":
            newest[a].conflicts.append(Ref(b))
        elif kind == "deep":
            x, y = f"helper{helpers:04d}x", f"helper{helpers:04d}y"
            helpers += 1
            arc.pkgs.append(Pkg(x, 10, conflicts=[Ref(y)]))
            arc.pkgs.append(Pkg(y, 10))
            newest[a].depends.append([Ref(x)])
            newest[b].depends.append([Ref(y)])
        elif kind == EXCUSED:
            if rng.random() < 0.5:
                newest[a].replaces.append(b)
            else:
                newest[b].replaces.append(a)
        planned[(a, b)] = NOT_COINSTALLABLE if kind in ("direct", "deep") else kind

    oracle = Oracle(arc.pkgs)
    index = {id(pkg): i for i, pkg in enumerate(arc.pkgs)}
    pairs: dict[tuple[str, str], tuple[str, tuple[str, ...]]] = {}
    for (a, b), kind in planned.items():
        together = oracle.installable([index[id(newest[a])], index[id(newest[b])]])
        if together is None or (kind == NOT_COINSTALLABLE) == together:
            continue
        shared = rng.choice([1, 1, 2, 3, 7])
        paths = tuple(sorted(f"usr/lib/{a}-{b}/shared{j}.so" for j in range(shared)))
        pairs[(a, b)] = (kind, paths)

    absent = {}
    for n in range(max(1, pair_count // 100)):
        ghost = f"ghost{n:03d}"
        a, b = sorted((ghost, rng.choice(apps)))
        absent[(a, b)] = ghost

    owners: dict[str, list[str]] = {}
    for name in sorted(newest):
        for j in range(rng.randrange(3, 9)):
            owners[f"usr/share/{name}/file{j}"] = [name]
    for (a, b), (_, paths) in pairs.items():
        for path in paths:
            owners[path] = [a, b]
    for (a, b) in absent:
        owners[f"usr/share/conflicting/{a}-{b}"] = [a, b]
    lines = ["This file maps each file available in the archive to its packages.", "",
             "FILE                                                    LOCATION"]
    for path in sorted(owners):
        section = "libs" if path.startswith("usr/lib") else "utils"
        lines.append(f"{path:<55} " + ",".join(f"{section}/{o}" for o in owners[path]))
    contents = ("\n".join(lines) + "\n").encode()
    return ContentsWorkload(arc, contents, pairs, absent)
