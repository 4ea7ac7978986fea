"""Parsing of Debian-style ``Packages`` stanzas and relation fields."""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from .version import RELATION_TOKENS

# Fields that matter for installability.  Suggests, Enhances, Recommends and
# Breaks are deliberately dropped; Pre-Depends is folded into Depends.
_DEP_FIELDS = ("depends", "pre-depends")

# Legacy single-character relations are inclusive per historical field syntax.
_RELATION_ALIASES = {"<": "<=", ">": ">="}


class DependencyParseError(ValueError):
    """Malformed relation field; `offset` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True, slots=True)
class ConstrainedRef:
    """A package name, optionally constrained to a version range."""

    name: str
    relation: str | None = None
    version: str | None = None

    def __post_init__(self) -> None:
        if (self.relation is None) != (self.version is None):
            raise ValueError("relation and version must be given together")
        if self.relation is not None and self.relation not in RELATION_TOKENS:
            raise ValueError(f"unknown relation {self.relation!r}")

    @property
    def constrained(self) -> bool:
        return self.relation is not None

    def render(self) -> str:
        if self.relation is None:
            return self.name
        return f"{self.name} ({self.relation} {self.version})"


@dataclass(frozen=True, slots=True)
class Alternative:
    """One comma-separated conjunct: a disjunction of refs.

    `origin` carries the pre-expansion field text for rendering and is
    ignored by equality; `refs` may only be empty after expansion, when no
    available package matches (an unsatisfiable alternative).
    """

    refs: tuple[ConstrainedRef, ...]
    origin: str | None = field(default=None, compare=False)

    def render(self) -> str:
        return " | ".join(r.render() for r in self.refs)

    def label(self) -> str:
        return self.origin if self.origin is not None else self.render()


@dataclass(frozen=True, slots=True)
class DependencyExpression:
    """Conjunction of alternatives; an empty conjunct list means no deps."""

    conjuncts: tuple[Alternative, ...] = ()

    def render(self) -> str:
        return ", ".join(alt.render() for alt in self.conjuncts)


@dataclass(frozen=True, slots=True)
class PackageStanza:
    """One parsed package record, before expansion."""

    name: str
    version: str
    depends: DependencyExpression = DependencyExpression()
    conflicts: tuple[ConstrainedRef, ...] = ()
    provides: tuple[str, ...] = ()
    replaces: tuple[str, ...] = ()
    architecture: str | None = None
    is_virtual: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class StanzaError:
    """Recoverable per-stanza parse failure."""

    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


@dataclass
class ParseResult:
    stanzas: list[PackageStanza]
    errors: list[StanzaError]
    warnings: list[str]


# A name with the whitespace around it, and a parenthesised constraint
# with the whitespace after it; the version runs to ")" or the end.
_NAME = re.compile(r"\s*([^\s,|()]*)\s*")
_CONSTRAINT = re.compile(r"\(\s*([<>=]*)\s*([^)]*)(\)?)\s*")


class _RelationReader:
    """Reads relation fields.  Equal references, and alternatives of the
    same references, come back as one shared object each, so the reader
    of one `parse_packages` call stores each of them once."""

    def __init__(self) -> None:
        self._refs: dict[tuple[str, str | None, str | None], ConstrainedRef] = {}
        self._alternatives: dict[tuple[int, ...], Alternative] = {}

    def _ref(self, name: str, relation: str | None, version: str | None) -> ConstrainedRef:
        key = (name, relation, version)
        ref = self._refs.get(key)
        if ref is None:
            ref = self._refs[key] = ConstrainedRef(name, relation, version)
        return ref

    def _alternative(self, refs: list[ConstrainedRef]) -> Alternative:
        key = tuple(map(id, refs))  # each ref is the reader's own object
        alt = self._alternatives.get(key)
        if alt is None:
            alt = self._alternatives[key] = Alternative(tuple(refs))
        return alt

    def relations(self, text: str) -> tuple[tuple[Alternative, ...], int | None]:
        """Parse a relation field; returns its alternatives and the offset
        of its first '|' (None without one)."""
        conjuncts: list[Alternative] = []
        refs: list[ConstrainedRef] = []
        bar = None
        sep = ""
        pos = 0
        while True:
            m = _NAME.match(text, pos)
            name, pos = m.group(1), m.end()
            if not name:
                if pos < len(text):
                    raise DependencyParseError("expected a package name", pos)
                if sep:
                    raise DependencyParseError(f"dangling {sep!r}", pos)
                return (), None
            # "any" and "native" architecture qualifiers name the package itself
            base, colon, qualifier = name.rpartition(":")
            if colon and qualifier in ("any", "native"):
                name = base
            if text.startswith("(", pos):
                m = _CONSTRAINT.match(text, pos)
                rel = _RELATION_ALIASES.get(m.group(1), m.group(1))
                if rel not in RELATION_TOKENS:
                    raise DependencyParseError(f"unknown relation token {rel!r}", m.start(1))
                version = m.group(2).strip()
                if not version:
                    raise DependencyParseError("missing version in constraint", m.end(2))
                if not m.group(3):
                    raise DependencyParseError("unbalanced parenthesis", m.end(2))
                refs.append(self._ref(name, rel, version))
                pos = m.end()
            else:
                refs.append(self._ref(name, None, None))
            sep = text[pos:pos + 1]
            if sep == "|":
                if bar is None:
                    bar = pos
            else:
                conjuncts.append(self._alternative(refs))
                refs = []
                if not sep:
                    return tuple(conjuncts), bar
                if sep != ",":
                    raise DependencyParseError(f"unexpected {sep!r}", pos + 1)
            pos += 1

    def ref_list(self, text: str) -> tuple[ConstrainedRef, ...]:
        """Parse a Conflicts-style field: comma-separated refs, no disjunction."""
        conjuncts, bar = self.relations(text)
        if bar is not None:
            raise DependencyParseError("'|' is not allowed in this field", bar)
        return tuple(alt.refs[0] for alt in conjuncts)


def parse_dependency_field(text: str) -> DependencyExpression:
    """Parse a Depends-style field: comma-separated pipe-disjunctions."""
    return DependencyExpression(_RelationReader().relations(text)[0])


def parse_ref_list(text: str) -> tuple[ConstrainedRef, ...]:
    """Parse a Conflicts-style field: comma-separated refs, no disjunction."""
    return _RelationReader().ref_list(text)


def iter_text_lines(source: str | bytes | IO | Iterable[str]) -> Iterator[str]:
    if isinstance(source, str):
        yield from io.StringIO(source)
        return
    if isinstance(source, bytes):
        yield from io.StringIO(source.decode("utf-8", errors="replace"))
        return
    for line in source:
        if isinstance(line, bytes):
            line = line.decode("utf-8", errors="replace")
        yield line


def _split_stanzas(lines: Iterator[str]) -> Iterator[tuple[int, list[tuple[str, str]]]]:
    """Yield (first_line_number, [(field, value), ...]) per stanza.

    Continuation lines (leading whitespace) extend the previous value.
    """
    fields: list[tuple[str, str]] = []
    start = 0
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            if fields:
                yield start, fields
                fields = []
            continue
        if line[0] in " \t":
            if fields:
                name, value = fields[-1]
                fields[-1] = (name, value + " " + line.strip())
            continue
        if not fields:
            start = number
        name, sep, value = line.partition(":")
        if not sep:
            # Junk line; attach to the stanza so the error is reported once.
            fields.append(("", line))
            continue
        fields.append((name.strip().lower(), value.strip()))
    if fields:
        yield start, fields


def _strip_constraints(
    reader: _RelationReader, field_name: str, text: str, warnings: list[str], context: str
) -> tuple[str, ...]:
    """Parse a name-list field, dropping any version constraints with a warning."""
    names = []
    for ref in reader.ref_list(text):
        if ref.constrained:
            warnings.append(
                f"{context}: ignoring version constraint on {field_name} entry"
                f" {ref.render()!r}"
            )
        names.append(ref.name)
    return tuple(names)


def _build_stanza(
    fields: list[tuple[str, str]], warnings: list[str], reader: _RelationReader
) -> PackageStanza:
    seen: dict[str, str] = {}
    for name, value in fields:
        if not name:
            raise StanzaParseAbort(f"line without a field separator: {value!r}")
        if name in seen and name in ("package", "version") + _DEP_FIELDS + (
            "conflicts", "provides", "replaces",
        ):
            raise StanzaParseAbort(f"duplicate field {name!r}")
        seen[name] = value

    package = seen.get("package")
    version = seen.get("version")
    if not package:
        raise StanzaParseAbort("missing Package field")
    if not version:
        raise StanzaParseAbort("missing Version field")
    # a name that no relation field could spell
    if any(c.isspace() or c in ",:|()" for c in package):
        raise StanzaParseAbort(f"invalid package name {package!r}")
    context = f"{package} {version}"

    conjuncts: list[Alternative] = []
    for dep_field in _DEP_FIELDS:
        if dep_field in seen:
            try:
                conjuncts.extend(reader.relations(seen[dep_field])[0])
            except DependencyParseError as exc:
                raise StanzaParseAbort(f"bad {dep_field} field: {exc}") from exc
    try:
        conflicts = reader.ref_list(seen["conflicts"]) if "conflicts" in seen else ()
        provides = (
            _strip_constraints(reader, "Provides", seen["provides"], warnings, context)
            if "provides" in seen
            else ()
        )
        replaces = (
            _strip_constraints(reader, "Replaces", seen["replaces"], warnings, context)
            if "replaces" in seen
            else ()
        )
    except DependencyParseError as exc:
        raise StanzaParseAbort(f"bad relation field: {exc}") from exc

    return PackageStanza(
        name=package,
        version=version,
        depends=DependencyExpression(tuple(conjuncts)),
        conflicts=conflicts,
        provides=provides,
        replaces=replaces,
        architecture=seen.get("architecture"),
    )


class StanzaParseAbort(Exception):
    """Internal: abandons one stanza, never the whole file."""


def parse_packages(source: str | bytes | IO | Iterable[str]) -> ParseResult:
    """Parse a ``Packages`` stream into stanzas.

    Malformed stanzas are reported in `errors` (with their starting line)
    and skipped; everything else is still returned.  When the same
    (name, version) appears twice the last stanza wins, with a warning.
    """
    by_id: dict[tuple[str, str], PackageStanza] = {}
    errors: list[StanzaError] = []
    warnings: list[str] = []
    reader = _RelationReader()

    for start, fields in _split_stanzas(iter_text_lines(source)):
        try:
            stanza = _build_stanza(fields, warnings, reader)
        except StanzaParseAbort as exc:
            errors.append(StanzaError(start, str(exc)))
            continue
        key = (stanza.name, stanza.version)
        if by_id.pop(key, None) is not None:
            warnings.append(
                f"duplicate stanza for {stanza.name} {stanza.version}"
                f" (line {start}); keeping the last one"
            )
        by_id[key] = stanza

    return ParseResult(list(by_id.values()), errors, warnings)
