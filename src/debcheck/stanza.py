"""Parsing of Debian-style ``Packages`` stanzas and relation fields.

The parsed values (`ConstrainedRef`, `Alternative`, `DependencyExpression`,
`PackageStanza`, and `PackageId` and `DepClause` in `expand`) are records:
immutable named tuples that build, hash and compare in C.  Each is shown
as a frozen dataclass of its fields would be, and hashes as the tuple of
the fields its equality reads.  Being tuples, they also iterate, order
and equal plain tuples of the same values; nothing in debcheck iterates
a record, sorts records without a key or mixes them with plain tuples in
one container.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple

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


class _ConstrainedRef(NamedTuple):
    name: str
    relation: str | None = None
    version: str | None = None


class ConstrainedRef(_ConstrainedRef):
    """A package name, optionally constrained to a version range; a
    record (see the module docstring) that refuses a relation without a
    version, and the reverse, and an unknown relation."""

    __slots__ = ()

    def __new__(cls, name: str, relation: str | None = None, version: str | None = None):
        if (relation is None) != (version is None):
            raise ValueError("relation and version must be given together")
        if relation is not None and relation not in RELATION_TOKENS:
            raise ValueError(f"unknown relation {relation!r}")
        return tuple.__new__(cls, (name, relation, version))

    @property
    def constrained(self) -> bool:
        return self.relation is not None

    def render(self) -> str:
        if self.relation is None:
            return self.name
        return f"{self.name} ({self.relation} {self.version})"


class Alternative(NamedTuple):
    """One comma-separated conjunct: a disjunction of refs.

    `origin` carries the pre-expansion field text for rendering and is
    ignored by equality and hash; `refs` may only be empty after
    expansion, when no available package matches (an unsatisfiable
    alternative).
    """

    refs: tuple[ConstrainedRef, ...]
    origin: str | None = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Alternative:
            return NotImplemented
        return self[0] == other[0]

    def __ne__(self, other: object) -> bool:
        if other.__class__ is not Alternative:
            return NotImplemented
        return self[0] != other[0]

    def __hash__(self) -> int:
        return hash((self[0],))

    def render(self) -> str:
        return " | ".join(r.render() for r in self.refs)

    def label(self) -> str:
        return self.origin if self.origin is not None else self.render()


class DependencyExpression(NamedTuple):
    """Conjunction of alternatives; an empty conjunct list means no deps."""

    conjuncts: tuple[Alternative, ...] = ()

    def render(self) -> str:
        return ", ".join(alt.render() for alt in self.conjuncts)


class PackageStanza(NamedTuple):
    """One parsed package record, before expansion.  `is_virtual` is
    ignored by equality and hash."""

    name: str
    version: str
    depends: DependencyExpression = DependencyExpression()
    conflicts: tuple[ConstrainedRef, ...] = ()
    provides: tuple[str, ...] = ()
    replaces: tuple[str, ...] = ()
    architecture: str | None = None
    is_virtual: bool = False

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PackageStanza:
            return NotImplemented
        return self[:7] == other[:7]

    def __ne__(self, other: object) -> bool:
        if other.__class__ is not PackageStanza:
            return NotImplemented
        return self[:7] != other[:7]

    def __hash__(self) -> int:
        return hash(self[:7])


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
# a character that no package name in a relation field can hold
_NOT_IN_NAME = re.compile(r"[\s,:|()]")


class _RelationReader:
    """Reads relation fields.  Equal references come back as one shared
    object, so the reader of one `parse_packages` call stores each of them
    once.  It reads each distinct conjunct text (what lies between two
    commas, without the whitespace around it) once, and each gives one
    shared alternative."""

    def __init__(self) -> None:
        self._refs: dict[tuple[str, str | None, str | None], ConstrainedRef] = {}
        self._conjuncts: dict[str, Alternative] = {}

    def _ref(self, name: str, relation: str | None, version: str | None) -> ConstrainedRef:
        key = (name, relation, version)
        ref = self._refs.get(key)
        if ref is None:
            ref = self._refs[key] = ConstrainedRef(name, relation, version)
        return ref

    def relations(self, text: str) -> tuple[Alternative, ...]:
        """Parse a relation field: comma-separated pipe-disjunctions.

        A conjunct text that `_read` takes alone as one alternative reads
        the same inside the field, since it holds no comma.  Any other
        conjunct (empty, malformed, or inside parentheses that a later
        comma closes) sends the whole field through `_read`, which gives
        its alternatives or its first error and offset."""
        known = self._conjuncts
        conjuncts = []
        # whitespace around a conjunct reads as nothing, so ` a` and `a` share a key
        for part in map(str.strip, text.split(",")):
            alt = known.get(part)
            if alt is None:
                try:
                    alone = self._read(part)[0]
                except DependencyParseError:
                    alone = ()
                if len(alone) != 1:
                    return self._read(text)[0]
                alt = known[part] = alone[0]
            conjuncts.append(alt)
        return tuple(conjuncts)

    def _read(self, text: str) -> tuple[tuple[Alternative, ...], int | None]:
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
                conjuncts.append(Alternative(tuple(refs)))
                refs = []
                if not sep:
                    return tuple(conjuncts), bar
                if sep != ",":
                    raise DependencyParseError(f"unexpected {sep!r}", pos + 1)
            pos += 1

    def ref_list(self, text: str) -> tuple[ConstrainedRef, ...]:
        """Parse a Conflicts-style field: comma-separated refs, no disjunction."""
        conjuncts = self.relations(text)
        # an alternative has two refs or more exactly where a '|' joins them
        if any(len(alt.refs) > 1 for alt in conjuncts):
            raise DependencyParseError("'|' is not allowed in this field", self._read(text)[1])
        return tuple(alt.refs[0] for alt in conjuncts)


def parse_dependency_field(text: str) -> DependencyExpression:
    """Parse a Depends-style field: comma-separated pipe-disjunctions."""
    return DependencyExpression(_RelationReader().relations(text))


def parse_ref_list(text: str) -> tuple[ConstrainedRef, ...]:
    """Parse a Conflicts-style field: comma-separated refs, no disjunction."""
    return _RelationReader().ref_list(text)


def iter_text_lines(source: str | bytes | IO | Iterable[str]) -> Iterator[str]:
    """The lines of `source` without their line feeds, and without one
    byte-order mark at the very start.

    `bytes` decode as UTF-8, bad bytes replaced.  A string splits at "\\n"
    only, into the lines that `io.StringIO` gives.  The lines of any other
    iterable lose their trailing "\\n"s.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8", errors="replace")
    if isinstance(source, str):
        lines = source.split("\n")
    else:
        lines = [
            (line.decode("utf-8", errors="replace") if isinstance(line, bytes) else line)
            .rstrip("\n")
            for line in source
        ]
    if lines:
        lines[0] = lines[0].removeprefix("\ufeff")
    return iter(lines)


#: Fields a stanza may hold once.  Parsing reads these and Architecture,
#: of which the last one counts; it never reads any other field.
_SINGLE_FIELDS = frozenset(("package", "version", *_DEP_FIELDS, "conflicts", "provides", "replaces"))
_READ_FIELDS = _SINGLE_FIELDS | {"architecture"}


def _stanza_fields(lines: Iterator[str]) -> Iterator[tuple[int, dict[str, str], str | None]]:
    """Yield (first line number, fields, error) per stanza.

    `fields` maps the lower-cased names of `_READ_FIELDS` to stripped
    values.  A continuation line (leading whitespace) extends the value
    of the line before it.  `error` is None, or tells the first line that
    makes the stanza unusable: a repeat of a field of `_SINGLE_FIELDS` or,
    as "", a line without a field name, whose text (with its continuation
    lines) is then `fields[""]`.
    """
    fields: dict[str, str] = {}
    start = 0  # 0 between stanzas
    error = last = None  # `last`: the field that a continuation line extends
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            if start:
                yield start, fields, error
                fields = {}
                start = 0
                error = last = None
            continue
        if line[0] in " \t":
            if last is not None:
                fields[last] += " " + line.strip()
            continue
        if not start:
            start = number
        if error is not None:
            last = None
            continue
        name, sep, value = line.partition(":")
        name = name.strip().lower()
        if not (sep and name):
            fields[""] = value.strip() if sep else line.rstrip("\r")
            error = last = ""
        elif name not in _READ_FIELDS:
            last = None
        elif name in fields and name in _SINGLE_FIELDS:
            error = f"duplicate field {name!r}"
            last = None
        else:
            fields[name] = value.strip()
            last = name
    if start:
        yield start, fields, error


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
    fields: dict[str, str], error: str | None, warnings: list[str], reader: _RelationReader
) -> PackageStanza:
    if error is not None:
        raise StanzaParseAbort(error or f"line without a field separator: {fields['']!r}")
    package = fields.get("package")
    version = fields.get("version")
    if not package:
        raise StanzaParseAbort("missing Package field")
    if not version:
        raise StanzaParseAbort("missing Version field")
    if _NOT_IN_NAME.search(package):
        raise StanzaParseAbort(f"invalid package name {package!r}")
    context = f"{package} {version}"

    conjuncts: list[Alternative] = []
    for dep_field in _DEP_FIELDS:
        if dep_field in fields:
            try:
                conjuncts.extend(reader.relations(fields[dep_field]))
            except DependencyParseError as exc:
                raise StanzaParseAbort(f"bad {dep_field} field: {exc}") from exc
    try:
        conflicts = reader.ref_list(fields["conflicts"]) if "conflicts" in fields else ()
        provides = (
            _strip_constraints(reader, "Provides", fields["provides"], warnings, context)
            if "provides" in fields
            else ()
        )
        replaces = (
            _strip_constraints(reader, "Replaces", fields["replaces"], warnings, context)
            if "replaces" in fields
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
        architecture=fields.get("architecture"),
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

    for start, fields, error in _stanza_fields(iter_text_lines(source)):
        try:
            stanza = _build_stanza(fields, error, warnings, reader)
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
