"""Parsing of Debian-style ``Packages`` stanzas and relation fields."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from .version import RELATION_TOKENS

# Fields that matter for installability.  Suggests, Enhances, Recommends and
# Breaks are deliberately dropped; Pre-Depends is folded into Depends.
_DEP_FIELDS = ("depends", "pre-depends")
_IGNORED_RELATIONS = ("suggests", "enhances", "recommends", "breaks")

# Legacy single-character relations are inclusive per historical field syntax.
_RELATION_ALIASES = {"<": "<=", ">": ">="}


class DependencyParseError(ValueError):
    """Malformed relation field; `offset` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DependencyExpression:
    """Conjunction of alternatives; an empty conjunct list means no deps."""

    conjuncts: tuple[Alternative, ...] = ()

    def render(self) -> str:
        return ", ".join(alt.render() for alt in self.conjuncts)


@dataclass(frozen=True)
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


class _RefScanner:
    """Tokenizer over a relation field; tracks byte offsets for errors."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def error(self, message: str) -> DependencyParseError:
        return DependencyParseError(message, self.pos)

    def read_name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c.isspace() or c in ",|()":
                break
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a package name")
        return self.text[start:self.pos]

    def read_ref(self) -> ConstrainedRef:
        name = self.read_name()
        # "any" and "native" architecture qualifiers name the package itself
        base, sep, qualifier = name.rpartition(":")
        if sep and qualifier in ("any", "native"):
            name = base
        if self.peek() != "(":
            return ConstrainedRef(name)
        self.take()
        self.skip_ws()
        rel_start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "<>=":
            self.pos += 1
        rel = self.text[rel_start:self.pos]
        rel = _RELATION_ALIASES.get(rel, rel)
        if rel not in RELATION_TOKENS:
            self.pos = rel_start
            raise self.error(f"unknown relation token {rel!r}")
        self.skip_ws()
        ver_start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != ")":
            self.pos += 1
        version = self.text[ver_start:self.pos].strip()
        if not version:
            raise self.error("missing version in constraint")
        if self.pos >= len(self.text):
            raise self.error("unbalanced parenthesis")
        self.take()  # ')'
        return ConstrainedRef(name, rel, version)


def parse_dependency_field(text: str) -> DependencyExpression:
    """Parse a Depends-style field: comma-separated pipe-disjunctions."""
    scanner = _RefScanner(text)
    if scanner.at_end():
        return DependencyExpression()
    conjuncts = []
    while True:
        refs = [scanner.read_ref()]
        while scanner.peek() == "|":
            scanner.take()
            if scanner.at_end():
                raise scanner.error("dangling '|'")
            refs.append(scanner.read_ref())
        conjuncts.append(Alternative(tuple(refs)))
        if scanner.at_end():
            break
        c = scanner.take()
        if c != ",":
            raise scanner.error(f"unexpected {c!r}")
        if scanner.at_end():
            raise scanner.error("dangling ','")
    return DependencyExpression(tuple(conjuncts))


def parse_ref_list(text: str) -> tuple[ConstrainedRef, ...]:
    """Parse a Conflicts-style field: comma-separated refs, no disjunction."""
    expr = parse_dependency_field(text)
    refs = []
    for alt in expr.conjuncts:
        if len(alt.refs) != 1:
            raise DependencyParseError("'|' is not allowed in this field", 0)
        refs.append(alt.refs[0])
    return tuple(refs)


def render_dependency_field(expr: DependencyExpression) -> str:
    return expr.render()


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
    field_name: str, text: str, warnings: list[str], context: str
) -> tuple[str, ...]:
    """Parse a name-list field, dropping any version constraints with a warning."""
    names = []
    for ref in parse_ref_list(text):
        if ref.constrained:
            warnings.append(
                f"{context}: ignoring version constraint on {field_name} entry"
                f" {ref.render()!r}"
            )
        names.append(ref.name)
    return tuple(names)


def _build_stanza(fields: list[tuple[str, str]], warnings: list[str]) -> PackageStanza:
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
                conjuncts.extend(parse_dependency_field(seen[dep_field]).conjuncts)
            except DependencyParseError as exc:
                raise StanzaParseAbort(f"bad {dep_field} field: {exc}") from exc
    try:
        conflicts = parse_ref_list(seen["conflicts"]) if "conflicts" in seen else ()
        provides = (
            _strip_constraints("Provides", seen["provides"], warnings, context)
            if "provides" in seen
            else ()
        )
        replaces = (
            _strip_constraints("Replaces", seen["replaces"], warnings, context)
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
    stanzas: list[PackageStanza] = []
    errors: list[StanzaError] = []
    warnings: list[str] = []
    by_id: dict[tuple[str, str], int] = {}

    for start, fields in _split_stanzas(iter_text_lines(source)):
        try:
            stanza = _build_stanza(fields, warnings)
        except StanzaParseAbort as exc:
            errors.append(StanzaError(start, str(exc)))
            continue
        key = (stanza.name, stanza.version)
        if key in by_id:
            warnings.append(
                f"duplicate stanza for {stanza.name} {stanza.version}"
                f" (line {start}); keeping the last one"
            )
            stanzas[by_id[key]] = None  # type: ignore[call-overload]
        by_id[key] = len(stanzas)
        stanzas.append(stanza)

    return ParseResult([s for s in stanzas if s is not None], errors, warnings)
