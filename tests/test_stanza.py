import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from debcheck.stanza import (
    Alternative,
    ConstrainedRef,
    DependencyExpression,
    DependencyParseError,
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
