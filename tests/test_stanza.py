import copy
import hashlib
import io
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from debcheck.cli import main
from debcheck.expand import DepClause, PackageId
from debcheck.stanza import (
    Alternative,
    ConstrainedRef,
    DependencyExpression,
    DependencyParseError,
    PackageStanza,
    parse_dependency_field,
    parse_packages,
    parse_ref_list,
)


def ref(name, relation=None, version=None):
    return ConstrainedRef(name, relation, version)


class TestParseDependencyField:
    def test_worked_example(self):
        expr = parse_dependency_field("b, c|d(>=2)")
        assert expr == DependencyExpression(
            (
                Alternative((ref("b"),)),
                Alternative((ref("c"), ref("d", ">=", "2"))),
            )
        )

    def test_empty_field_means_no_dependencies(self):
        assert parse_dependency_field("") == DependencyExpression()
        assert parse_dependency_field("   ") == DependencyExpression()

    def test_expanded_form_parses_back(self):
        expr = parse_dependency_field("b(=2)|b(=3), c(=3)|d(=2)|d(=3)")
        assert expr == DependencyExpression(
            (
                Alternative((ref("b", "=", "2"), ref("b", "=", "3"))),
                Alternative(
                    (ref("c", "=", "3"), ref("d", "=", "2"), ref("d", "=", "3"))
                ),
            )
        )

    def test_whitespace_insensitive(self):
        a = parse_dependency_field("b,c|d (>= 2)")
        b = parse_dependency_field("  b ,  c | d(>=2) ")
        assert a == b

    def test_legacy_relations_are_inclusive(self):
        assert parse_dependency_field("x (< 2)") == parse_dependency_field("x (<= 2)")
        assert parse_dependency_field("x (> 2)") == parse_dependency_field("x (>= 2)")

    @pytest.mark.parametrize(
        "text,offset_at_least",
        [
            ("a|", 2),
            ("a,", 2),
            ("a (>= 2", 3),
            ("a (?? 2)", 3),
            (",a", 0),
            ("a | | b", 4),
            ("a (>= )", 6),
            ("a (<<= 1)", 3),
            ("a b", 3),
            ("x (= 1) (= 2)", 9),
            ("\ta\x1c|", 4),
        ],
    )
    def test_errors_carry_offset(self, text, offset_at_least):
        with pytest.raises(DependencyParseError) as exc:
            parse_dependency_field(text)
        assert exc.value.offset >= offset_at_least
        assert exc.value.offset <= len(text)
        message, offset = PARSE_ERRORS[text]
        assert exc.value.offset == offset
        assert str(exc.value) == f"{message} (at offset {offset})"

    def test_ref_list_rejects_disjunction(self):
        with pytest.raises(DependencyParseError):
            parse_ref_list("a|b")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("a|b", "'|' is not allowed in this field (at offset 1)"),
            ("b, c | d", "'|' is not allowed in this field (at offset 5)"),
            ("a (= 1|2), b | c", "'|' is not allowed in this field (at offset 13)"),
            # the whole field is read before a '|' is rejected
            ("a | b, (", "expected a package name (at offset 7)"),
        ],
    )
    def test_ref_list_errors_carry_offset(self, text, message):
        with pytest.raises(DependencyParseError) as exc:
            parse_ref_list(text)
        assert str(exc.value) == message


# Every error kind of the relation parser, with its exact offset.
PARSE_ERRORS = {
    "a|": ("dangling '|'", 2),
    "a,": ("dangling ','", 2),
    "a (>= 2": ("unbalanced parenthesis", 7),
    "a (?? 2)": ("unknown relation token ''", 3),
    ",a": ("expected a package name", 0),
    "a | | b": ("expected a package name", 4),
    "a (>= )": ("missing version in constraint", 6),
    "a (<<= 1)": ("unknown relation token '<<='", 3),
    "a b": ("unexpected 'b'", 3),
    "x (= 1) (= 2)": ("unexpected '('", 9),
    "\ta\x1c|": ("dangling '|'", 4),
}


names = st.from_regex(r"[a-z][a-z0-9+.-]{0,5}", fullmatch=True)
versions = st.from_regex(r"[0-9][0-9a-z.+~:-]{0,5}", fullmatch=True)
refs = st.builds(
    lambda n, c: ConstrainedRef(n, *(c if c else (None, None))),
    names,
    st.one_of(
        st.none(),
        st.tuples(st.sampled_from(["<<", "<=", "=", ">=", ">>"]), versions),
    ),
)
expressions = st.builds(
    lambda alts: DependencyExpression(tuple(Alternative(tuple(a)) for a in alts)),
    st.lists(st.lists(refs, min_size=1, max_size=3), max_size=4),
)


@given(expressions)
def test_render_parse_round_trip(expr):
    assert parse_dependency_field(expr.render()) == expr


class TestParsePackages:
    def test_worked_stanza(self):
        result = parse_packages(
            "Package: a\nVersion: 1\nDepends: b, c|d(>=2)\n"
        )
        assert not result.errors
        (stanza,) = result.stanzas
        assert stanza.name == "a"
        assert stanza.version == "1"
        assert stanza.depends == parse_dependency_field("b, c|d(>=2)")

    def test_empty_stream(self):
        result = parse_packages("")
        assert result.stanzas == []
        assert result.errors == []

    def test_provides_and_conflicts(self):
        result = parse_packages(
            "Package: c\nVersion: 1\nProvides: w\nConflicts: w\n"
        )
        (stanza,) = result.stanzas
        assert stanza.provides == ("w",)
        assert stanza.conflicts == (ConstrainedRef("w"),)

    def test_missing_version_is_recoverable(self):
        result = parse_packages(
            "Package: a\nDepends: b\n\nPackage: b\nVersion: 1\n"
        )
        assert [s.name for s in result.stanzas] == ["b"]
        assert len(result.errors) == 1
        assert result.errors[0].line == 1
        assert "Version" in result.errors[0].message

    def test_bad_relation_field_is_recoverable_with_line(self):
        result = parse_packages(
            "Package: a\nVersion: 1\n\n"
            "Package: bad\nVersion: 1\nDepends: x (?? 1)\n\n"
            "Package: b\nVersion: 1\n\n"
            "Package: twice\nVersion: 1\nDepends: x\nDepends: y\n"
        )
        assert [s.name for s in result.stanzas] == ["a", "b"]
        assert [e.line for e in result.errors] == [4, 11]
        assert "duplicate field 'depends'" in result.errors[1].message

    @pytest.mark.parametrize("name", ["a:any", "a|b", "a(1)", "a)"])
    def test_name_no_relation_can_spell_is_rejected(self, name):
        result = parse_packages(
            f"Package: {name}\nVersion: 1\n\nPackage: b\nVersion: 1\nDepends: a:any\n"
        )
        assert [s.name for s in result.stanzas] == ["b"]
        assert len(result.errors) == 1
        assert result.errors[0].line == 1
        assert "invalid package name" in result.errors[0].message

    def test_pre_depends_folds_into_depends(self):
        result = parse_packages(
            "Package: a\nVersion: 1\nDepends: b\nPre-Depends: c\n"
        )
        (stanza,) = result.stanzas
        assert stanza.depends == parse_dependency_field("b, c")

    def test_ignored_relations_do_not_matter(self):
        result = parse_packages(
            "Package: a\nVersion: 1\nSuggests: x(\nEnhances: y|\n"
            "Recommends: ???\nBreaks: zzz((\nSection: oops\n"
        )
        (stanza,) = result.stanzas
        assert stanza.depends == DependencyExpression()
        assert not result.errors

    def test_continuation_lines(self):
        result = parse_packages(
            "Package: a\nVersion: 1\nDepends: b,\n c|d(>=2)\n"
        )
        (stanza,) = result.stanzas
        assert stanza.depends == parse_dependency_field("b, c|d(>=2)")

    def test_field_names_case_insensitive(self):
        result = parse_packages("package: a\nVERSION: 1\ndePends: b\n")
        (stanza,) = result.stanzas
        assert stanza.name == "a"
        assert stanza.depends == parse_dependency_field("b")

    def test_duplicate_stanza_last_wins_with_warning(self):
        result = parse_packages(
            "Package: a\nVersion: 1\nDepends: b\n\n"
            "Package: b\nVersion: 1\n\n"
            "Package: a\nVersion: 1\nDepends: c\n\n"
            "Package: c\nVersion: 1\n"
        )
        assert not result.errors
        assert result.warnings == [
            "duplicate stanza for a 1 (line 8); keeping the last one"
        ]
        assert [s.name for s in result.stanzas] == ["b", "a", "c"]
        a = [s for s in result.stanzas if s.name == "a"]
        assert len(a) == 1
        assert a[0].depends == parse_dependency_field("c")

    def test_versioned_provides_is_stripped_with_warning(self):
        result = parse_packages(
            "Package: a\nVersion: 1\nProvides: v (= 2)\nReplaces: b (<< 3)\n"
        )
        (stanza,) = result.stanzas
        assert stanza.provides == ("v",)
        assert stanza.replaces == ("b",)
        assert len(result.warnings) == 2

    def test_bytes_input_with_invalid_utf8(self):
        result = parse_packages(b"Package: a\nVersion: 1\xff\n")
        (stanza,) = result.stanzas
        assert stanza.name == "a"

    @pytest.mark.parametrize("form", ["str", "bytes", "lines", "byte lines"])
    def test_byte_order_mark_is_dropped(self, form):
        """One leading byte-order mark is not part of the first field name."""
        text = "\ufeffPackage: a\nVersion: 1\n\nPackage: b\nVersion: 1\nDepends: a\n"
        source = {
            "str": text,
            "bytes": text.encode(),
            "lines": text.splitlines(keepends=True),
            "byte lines": io.BytesIO(text.encode()),
        }[form]
        result = parse_packages(source)
        assert not result.errors
        assert [s.name for s in result.stanzas] == ["a", "b"]

    def test_only_a_leading_byte_order_mark_is_dropped(self):
        result = parse_packages("Package: a\nVersion: 1\n\n\ufeffPackage: b\nVersion: 1\n")
        assert [s.name for s in result.stanzas] == ["a"]
        assert [str(e) for e in result.errors] == ["line 4: missing Package field"]

    def test_file_object_input(self):
        result = parse_packages(io.StringIO("Package: a\nVersion: 1\n"))
        assert len(result.stanzas) == 1

    def test_architecture_carried_verbatim(self):
        result = parse_packages("Package: a\nVersion: 1\nArchitecture: amd64\n")
        assert result.stanzas[0].architecture == "amd64"

    def test_stanza_order_preserved(self):
        text = "\n".join(
            f"Package: p{i}\nVersion: 1\n" for i in range(8)
        )
        result = parse_packages(text)
        assert [s.name for s in result.stanzas] == [f"p{i}" for i in range(8)]

    @given(st.integers(0, 7), st.data())
    def test_one_bad_stanza_never_aborts_the_file(self, position, data):
        good = [f"Package: p{i}\nVersion: 1\n" for i in range(4)]
        bad = data.draw(
            st.sampled_from(
                [
                    "Package: broken\nDepends: x\n",
                    "Package: broken\nVersion: 1\nDepends: x((\n",
                    "Version: 1\n",
                    "Package: broken\nVersion: 1\nConflicts: a|b\n",
                ]
            )
        )
        blocks = good[: position % 5]
        blocks.insert(min(position % (len(blocks) + 1), len(blocks)), bad)
        blocks.extend(good[position % 5:])
        result = parse_packages("\n".join(blocks))
        assert len(result.stanzas) == 4
        assert len(result.errors) == 1


# -- golden of the parser on messy input ------------------------------------

# Relation field values that parse conjunct by conjunct: plain ones,
# qualifiers, the legacy `<` and `>`.  The rare ones: a comma inside
# parentheses, which only the whole field parses (as part of a version),
# and each kind of syntax error.
_MESSY_RELATIONS = [
    "b", "c", "e", "b (>= 1)", "b (= 2) | c", "c | d (<< 3)", "b:any", "b:native (= 1)",
    "b:amd64", "c (< 2)", "c (> 1)", "b, c (>= 2) | d, b", "  b ,c|d(>=1)  ", "f (= 1.0-1)",
    "d|e", "",
]
_MALFORMED_RELATIONS = [
    "b (>= 1, 2)", "a,,b", "b |", "(>= 1)", "b (?? 1)", "b (>= 1", "b >= 1)", "b (>= )",
    "b | | c", "b c", "b (= 1) (= 2)",
]
_MESSY_NAMES = ["a", "b", "c", "d", "e", "f"] * 4 + ["a:any", "a b", ""]
_MESSY_VERSIONS = ["1", "2", "1.0-1"] * 3 + [""]
_MESSY_FIELDS = [
    "Depends", "Pre-Depends", "Conflicts", "Provides", "Replaces", "Architecture",
    "Suggests", "Description", "Section",
]


def messy_packages(rng: random.Random) -> str:
    """A seeded `Packages` text with odd line endings, separators,
    continuation and junk lines, duplicate fields and stanzas, and relation
    fields both valid and malformed.  No byte-order mark."""

    def ending():
        return rng.choice(["\n"] * 24 + ["\r\n"] * 6 + ["\r\r\n", "\rx\n"])

    def relation():
        return ", ".join(
            rng.choice(_MALFORMED_RELATIONS if rng.random() < 0.1 else _MESSY_RELATIONS)
            for _ in range(rng.randint(1, 3))
        )

    def field_name(name):
        return rng.choice([name, name, name.lower(), name.upper()])

    stanzas = []
    for _ in range(rng.randint(1, 7)):
        lines = []
        if rng.random() < 0.95:
            lines.append(f"Package: {rng.choice(_MESSY_NAMES)}")
        if rng.random() < 0.95:
            lines.append(f"{field_name('Version')}:{rng.choice(['', ' ', '  '])}"
                         f"{rng.choice(_MESSY_VERSIONS)}")
        for name in rng.sample(_MESSY_FIELDS, rng.randint(0, 4)):
            kind = rng.random()
            if kind < 0.75:
                lines.append(f"{field_name(name)}: {relation()}")
            elif kind < 0.88:
                lines.append(rng.choice([" ", "\t", "  "]) + relation())
            elif kind < 0.92:
                lines.append(rng.choice(["stray words", ": stray", ":", "Depends b"]))
            elif kind < 0.97:
                # a duplicate of a relevant or an irrelevant field
                lines.extend([f"{rng.choice(['Depends', 'Provides', 'Section', 'Suggests'])}: b"] * 2)
            else:
                lines.append(f"Version: {rng.choice(_MESSY_VERSIONS)}")
        if rng.random() < 0.3:
            rng.shuffle(lines)
        stanzas.append("".join(line + ending() for line in lines))
    separators = ["\n"] * 4 + ["   \n", "\t\n", "\x0c\n", "\r\n", "\n\n", ""]
    text = stanzas[0]
    for stanza in stanzas[1:]:
        text += rng.choice(separators) + stanza
    if rng.random() < 0.3:
        text = text.rstrip("\n")
    return text


# Inputs that a random text may miss: each names what it covers.
_PARSER_SAMPLES = {
    "colon-value-line": "Package: a\nVersion: 1\n: stray\n",
    "continuation-after-colon-value": "Package: a\nVersion: 1\n: stray\n more\n",
    "continuation-after-junk": "Package: a\nVersion: 1\nstray\n more\n\nPackage: b\nVersion: 1\n",
    "continuation-first": " lead\nPackage: a\nVersion: 1\nDepends: b,\n c\n\tdrop\n",
    "crlf-no-final-newline": "Package: a\r\nVersion: 1\r\nDepends: b (>= 1, 2)\r\n\r\nPackage: b\r\nVersion: 1",
    "lone-cr": "Package: a\rVersion: 1\nPackage: b\nVersion: 1\r\n",
    "formfeed-separator": "Package: a\nVersion: 1\n\x0c\nPackage: b\nVersion: 1\n \t \nPackage: c\nVersion: 1\n",
    "duplicate-fields": "Package: a\nVersion: 1\nSection: x\nSection: y\n\nPackage: b\nVersion: 1\nProvides: v\nprovides: w\n",
    "qualifiers": "Package: a\nVersion: 1\nDepends: b:any, c:native (>= 1), d:amd64, e (< 2) | f (> 1)\n",
    "versioned-provides": "Package: a\nVersion: 1\nProvides: v (= 1), w\nReplaces: b (<< 2)\n",
    "duplicate-stanza": "Package: a\nVersion: 1\nDepends: b\n\nPackage: b\nVersion: 1\n\nPackage: a\nVersion: 1\n",
}


def parser_inputs() -> dict[str, str]:
    """The parser golden's texts: 200 seeded messy ones and the samples."""
    inputs = {f"messy-{seed}": messy_packages(random.Random(seed)) for seed in range(200)}
    inputs.update(_PARSER_SAMPLES)
    return inputs


def parser_digests(text: str) -> dict[str, str]:
    """Digests of what `parse_packages` returns for `text` given as a
    string, as UTF-8 bytes and as a list of lines."""
    forms = {"str": text, "bytes": text.encode(), "lines": text.splitlines(keepends=True)}
    digests = {}
    for form, source in forms.items():
        result = parse_packages(source)
        view = (repr(result.stanzas), repr(result.errors), repr(result.warnings))
        digests[form] = hashlib.sha256(repr(view).encode()).hexdigest()[:16]
    return digests


_PARSER_DIGESTS = Path(__file__).with_name("parser_digests.txt")


def recorded_parser_digests() -> str:
    return "".join(
        f"{key}-{form} {digest}\n"
        for key, text in parser_inputs().items()
        for form, digest in parser_digests(text).items()
    )


def test_parser_matches_recorded_digests():
    """Stanzas, errors and warnings of every golden text are exactly as
    recorded (`python tests/test_stanza.py` rewrites them)."""
    recorded = dict(line.split() for line in _PARSER_DIGESTS.read_text().splitlines())
    got = dict(line.split() for line in recorded_parser_digests().splitlines())
    assert got.keys() == recorded.keys()
    drifted = [key for key in got if got[key] != recorded[key]]
    assert not drifted, f"{len(drifted)} inputs drifted, first {drifted[:5]}"


def test_cli_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "Packages"
    path.write_bytes(b"\xef\xbb\xbfPackage: a\nVersion: 1\n\nPackage: b\nVersion: 1\nDepends: a\n")
    code = main([str(path)])
    out, err = capsys.readouterr()
    assert code == 0
    assert "skipped stanza" not in err
    assert out == "2 packages, 0 not installable (clear)\n"


def test_cli_reads_every_golden_text_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "Packages"
    for key, text in parser_inputs().items():
        path.write_bytes(text.encode())
        code = main([str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), key
        assert "Traceback" not in err, key


if __name__ == "__main__":
    _PARSER_DIGESTS.write_text(recorded_parser_digests())


# The record contract (see the `debcheck.stanza` module docstring), per
# record type: an instance, the tuple of the fields its equality reads,
# and an instance equal to it that differs in an ignored field, if any.
_REF = ConstrainedRef("a", ">=", "1")
_ALT = Alternative((_REF, ConstrainedRef("b")), "a (>= 1) | b")
_DEPENDS = DependencyExpression((_ALT,))
_PID = PackageId("a", "1")
RECORDS = {
    "ConstrainedRef": (_REF, ("a", ">=", "1"), None),
    "Alternative": (_ALT, (_ALT.refs,), Alternative(_ALT.refs, "other text")),
    "DependencyExpression": (_DEPENDS, ((_ALT,),), None),
    "PackageStanza": (
        PackageStanza("a", "1", _DEPENDS, (ConstrainedRef("c"),), ("v",), ("d",), "amd64"),
        ("a", "1", _DEPENDS, (ConstrainedRef("c"),), ("v",), ("d",), "amd64"),
        PackageStanza("a", "1", _DEPENDS, (ConstrainedRef("c"),), ("v",), ("d",), "amd64",
                      is_virtual=True),
    ),
    "PackageId": (_PID, ("a", "1"), None),
    "DepClause": (
        DepClause(frozenset({_PID}), "a"),
        (frozenset({_PID}),),
        DepClause(frozenset({_PID}), "another label"),
    ),
}


@pytest.mark.parametrize("kind", RECORDS)
class TestRecords:
    def test_fields_cannot_be_assigned(self, kind):
        record = RECORDS[kind][0]
        for name in (*type(record)._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_hash_is_the_hash_of_the_compared_fields(self, kind):
        record, compared, _ = RECORDS[kind]
        assert hash(record) == hash(compared)

    def test_a_compared_field_tells_records_apart(self, kind):
        record = RECORDS[kind][0]
        other = record._replace(**{type(record)._fields[0]: "other"})
        assert record != other and not record == other

    def test_pickle_and_deepcopy_keep_type_fields_and_repr(self, kind):
        record = RECORDS[kind][0]
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(copied) is type(record)
            assert copied == record and repr(copied) == repr(record)


@pytest.mark.parametrize("kind", [kind for kind, (*_, twin) in RECORDS.items() if twin])
def test_equality_ignores_the_ignored_field(kind):
    record, _, twin = RECORDS[kind]
    assert tuple(twin) != tuple(record)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)


@pytest.mark.parametrize("args", [("a", ">="), ("a", None, "1"), ("a", "~", "1")])
def test_a_reference_refuses_a_half_or_unknown_constraint(args):
    with pytest.raises(ValueError):
        ConstrainedRef(*args)
