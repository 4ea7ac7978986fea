import gc
import io
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debcheck import cli
from debcheck.cli import main
from debcheck.solver import RepositoryChecker

from conftest import CHAIN_SAMPLE, CONSTRAINT_SAMPLE, VIRTUAL_SAMPLE
from test_contents import FIXTURE_CONTENTS, FIXTURE_PACKAGES


@pytest.fixture
def sample_file(tmp_path):
    def write(text, name="Packages"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckCommand:
    def test_all_installable_exits_zero(self, sample_file, capsys):
        code, out, err = run([sample_file(CONSTRAINT_SAMPLE)], capsys)
        assert code == 0
        assert "7 packages, 0 not installable" in out
        assert "NOT INSTALLABLE" not in out
        assert "Parsing package file" in err

    def test_broken_package_exits_one(self, sample_file, capsys):
        code, out, _ = run([sample_file(CHAIN_SAMPLE)], capsys)
        assert code == 1
        assert "NOT INSTALLABLE" in out

    def test_explain_prints_chain(self, sample_file, capsys):
        code, out, _ = run(
            ["--check", "camping", "--explain", sample_file(CHAIN_SAMPLE)], capsys
        )
        assert code == 1
        positions = [out.find(name) for name in ("camping", "rails", "rdoc", "rdoc1.8")]
        assert all(p >= 0 for p in positions)
        assert positions == sorted(positions)
        assert "{NOT AVAILABLE}" in out

    def test_parse_output_freed_before_the_search(self, sample_file, capsys, monkeypatch):
        """Nothing reads the stanzas once the repository is built, so they
        must not stay alive through `check_all`."""
        parse, check_all = cli.parse_packages, RepositoryChecker.check_all
        parsed = []
        alive_at_search = []

        def recording_parse(text):
            result = parse(text)
            parsed.append(weakref.ref(result))
            return result

        def probing_check_all(self, explain=True):
            gc.collect()
            alive_at_search.append(parsed[0]() is not None)
            return check_all(self, explain)

        monkeypatch.setattr(cli, "parse_packages", recording_parse)
        monkeypatch.setattr(RepositoryChecker, "check_all", probing_check_all)
        code, _, _ = run([sample_file(CHAIN_SAMPLE)], capsys)
        assert code == 1
        assert alive_at_search == [False]

    def test_empty_input(self, sample_file, capsys):
        code, out, _ = run([sample_file("")], capsys)
        assert code == 0
        assert "0 packages, 0 not installable" in out

    def test_stdin_default(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(CONSTRAINT_SAMPLE))
        code, out, _ = run([], capsys)
        assert code == 0
        assert "7 packages" in out

    def test_selector_with_version(self, sample_file, capsys):
        code, out, _ = run(
            ["--check", "rdoc1.8=1.8.7.22-1", sample_file(CHAIN_SAMPLE)], capsys
        )
        assert code == 1
        assert "rdoc1.8 (= 1.8.7.22-1): NOT INSTALLABLE" in out

    def test_selector_checks_all_versions_of_name(self, sample_file, capsys):
        code, out, _ = run(
            ["--check", "b", "--successes-only", sample_file(CONSTRAINT_SAMPLE)],
            capsys,
        )
        assert code == 0
        assert "b (= 2): installable" in out
        assert "b (= 3): installable" in out

    def test_unknown_selector_exits_two(self, sample_file, capsys):
        code, _, err = run(
            ["--check", "ghost", sample_file(CONSTRAINT_SAMPLE)], capsys
        )
        assert code == 2
        assert "unknown package" in err

    def test_unreadable_input_exits_two(self, capsys, tmp_path):
        code, _, err = run([str(tmp_path / "missing")], capsys)
        assert code == 2
        assert "cannot read input" in err

    def test_malformed_stanza_is_diagnosed_but_recoverable(self, sample_file, capsys):
        text = "Package: broken\nDepends: x\n\n" + CONSTRAINT_SAMPLE
        code, out, err = run([sample_file(text)], capsys)
        assert code == 0
        assert "skipped stanza" in err
        assert "7 packages" in out

    def test_failures_only(self, sample_file, capsys):
        mixed = CONSTRAINT_SAMPLE + "\nPackage: zz\nVersion: 1\nDepends: gone\n"
        code, out, _ = run(["--failures-only", sample_file(mixed)], capsys)
        assert code == 1
        assert "zz (= 1): NOT INSTALLABLE" in out
        assert "installable\na" not in out

    def test_successes_only(self, sample_file, capsys):
        mixed = CONSTRAINT_SAMPLE + "\nPackage: zz\nVersion: 1\nDepends: gone\n"
        code, out, _ = run(["--successes-only", sample_file(mixed)], capsys)
        assert code == 1  # exit status still reflects the failure
        assert "NOT INSTALLABLE" not in out
        assert "a (= 1): installable" in out

    def test_stdout_is_deterministic(self, sample_file, capsys):
        path = sample_file(CHAIN_SAMPLE)
        outputs = set()
        for _ in range(3):
            _, out, _ = run(["--explain", path], capsys)
            outputs.add(out)
        assert len(outputs) == 1

    def test_json_report(self, sample_file, capsys):
        mixed = CONSTRAINT_SAMPLE + "\nPackage: zz\nVersion: 1\nDepends: gone\n"
        code, out, _ = run(
            ["--format", "json", "--explain", "--architecture", "amd64",
             sample_file(mixed)],
            capsys,
        )
        assert code == 1
        document = json.loads(out)
        assert document["architecture"] == "amd64"
        assert document["total_packages"] == 8
        assert document["non_installable"] == 1
        assert document["weather"] == "storm"
        broken = [r for r in document["results"] if not r["installable"]]
        assert broken == [
            {
                "package": "zz",
                "version": "1",
                "installable": False,
                "explanation": ["zz (= 1) depends on gone {NOT AVAILABLE}"],
            }
        ]

    def test_json_is_deterministic(self, sample_file, capsys):
        path = sample_file(CONSTRAINT_SAMPLE)
        outputs = {run(["--format", "json", path], capsys)[1] for _ in range(3)}
        assert len(outputs) == 1

    def test_any_and_native_qualifiers_name_the_package(self, sample_file, capsys):
        text = (
            "Package: a\nVersion: 1\nDepends: b:any, b:native (>= 1)\n\n"
            "Package: b\nVersion: 1\n"
        )
        code, out, _ = run([sample_file(text)], capsys)
        assert code == 0
        assert "2 packages, 0 not installable" in out

    def test_explain_deep_chain(self, sample_file, capsys):
        depth = 3000
        chain = [f"p{i + 1}" for i in range(depth - 1)] + ["gone"]
        # the same packages in a cycle back to p0, with one way out to nothing
        cycle = [f"p{(i + 1) % depth}" for i in range(depth)]
        cycle[1500] += ", gone"
        for depends, end in ((chain, depth - 1), (cycle, 1500)):
            text = "\n".join(
                f"Package: p{i}\nVersion: 1\nDepends: {d}\n" for i, d in enumerate(depends)
            )
            code, out, err = run(["--explain", "--check", "p0", sample_file(text)], capsys)
            assert code == 1
            assert "Traceback" not in err
            lines = out.splitlines()
            assert lines[0] == "p0 (= 1): NOT INSTALLABLE"
            assert lines[1:-1] == [
                f"  p{i} (= 1) depends on p{i + 1} {{p{i + 1} (= 1)}}" for i in range(end)
            ] + [f"  p{end} (= 1) depends on gone {{NOT AVAILABLE}}"]

    def test_whole_archive_deep_chain_and_cycle(self, sample_file, capsys):
        depth = 3000
        chain = [f"Depends: p{i + 1}\n" for i in range(depth - 1)] + [""]
        cycle = [f"Depends: p{(i + 1) % depth}\n" for i in range(depth)]
        for depends in (chain, cycle):
            text = "\n".join(
                f"Package: p{i}\nVersion: 1\n{d}" for i, d in enumerate(depends)
            )
            code, out, err = run([sample_file(text)], capsys)
            assert code == 0
            assert "Traceback" not in err
            assert out.splitlines()[-1].startswith("3000 packages, 0 not installable")

    def test_virtual_packages_not_reported(self, sample_file, capsys):
        code, out, _ = run([sample_file(VIRTUAL_SAMPLE)], capsys)
        assert code == 0
        assert "4 packages, 0 not installable" in out

    @pytest.mark.parametrize("selector", ["x", "x=virtual"])
    def test_selector_never_names_a_virtual_package(self, sample_file, capsys, selector):
        path = sample_file("Package: b\nVersion: 1\nProvides: x\n")
        code, out, err = run(["--check", selector, "--successes-only", path], capsys)
        assert code == 2
        assert out == ""
        assert f"debcheck: unknown package: {selector}" in err


class TestConflictsCommand:
    def test_text_report(self, sample_file, capsys):
        packages = sample_file(FIXTURE_PACKAGES, "Packages")
        contents = sample_file(FIXTURE_CONTENTS, "Contents")
        code, out, err = run(
            ["conflicts", "--contents", contents, "--packages", packages], capsys
        )
        assert code == 0
        assert "alpha -- beta: not-coinstallable" in out
        assert "epsilon -- zeta: excused-by-replaces" in out
        assert "eta -- theta: candidate" in out
        assert "overwrite candidates" in out
        assert "ghost" in err

    def test_json_report(self, sample_file, capsys):
        packages = sample_file(FIXTURE_PACKAGES, "Packages")
        contents = sample_file(FIXTURE_CONTENTS, "Contents")
        code, out, _ = run(
            ["conflicts", "--contents", contents, "--packages", packages,
             "--format", "json"],
            capsys,
        )
        assert code == 0
        document = json.loads(out)
        statuses = {tuple(p["pair"]): p["status"] for p in document["pairs"]}
        assert statuses[("delta", "gamma")] == "not-coinstallable"
        assert document["undetermined"][0]["pair"] == ["eta", "ghost"]


class TestAggregateCommand:
    def make_report(self, tmp_path, name, architecture, verdicts):
        document = {
            "architecture": architecture,
            "total_packages": len(verdicts),
            "non_installable": sum(1 for v in verdicts.values() if not v),
            "results": [
                {"package": pkg, "version": "1", "installable": ok}
                for pkg, ok in sorted(verdicts.items())
            ],
        }
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def test_some_and_every(self, tmp_path, capsys):
        r1 = self.make_report(
            tmp_path, "a.json", "i386", {"x": False, "y": True, "z": False}
        )
        r2 = self.make_report(
            tmp_path, "b.json", "amd64", {"x": False, "y": False, "w": True}
        )
        code, out, _ = run(["aggregate", "--format", "json", r1, r2], capsys)
        assert code == 0
        document = json.loads(out)
        assert document["some"] == ["x", "y", "z"]
        # x broken everywhere; z broken on the only architecture carrying it
        assert document["every"] == ["x", "z"]
        rows = {row["architecture"]: row for row in document["architectures"]}
        assert rows["i386"]["broken"] == 2
        assert rows["i386"]["broken_only_here"] == 1  # z
        assert rows["amd64"]["broken_only_here"] == 1  # y

    def test_text_output(self, tmp_path, capsys):
        r1 = self.make_report(tmp_path, "a.json", "i386", {"x": False})
        code, out, _ = run(["aggregate", r1], capsys)
        assert code == 0
        assert "i386: 1 broken" in out
        assert "some: 1   every: 1" in out

    def test_missing_report_exits_two(self, tmp_path, capsys):
        code, _, err = run(["aggregate", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert "cannot read report" in err

    @pytest.mark.parametrize(
        "architectures", [("amd64", "amd64", "i386"), (None, "report1"), ("report2", None)]
    )
    def test_repeated_architecture_exits_two(self, tmp_path, capsys, architectures):
        """A repeated label (a null architecture is labelled `reportN`)
        would merge two reports into one row."""
        paths = [
            self.make_report(tmp_path, f"{i}.json", architecture, {"a": i > 0})
            for i, architecture in enumerate(architectures)
        ]
        code, out, err = run(["aggregate", *paths], capsys)
        assert code == 2
        assert out == ""
        label = architectures[0] or "report1"
        assert err == f"debcheck: cannot read report {paths[1]}: duplicate architecture {label}\n"

    def test_malformed_report_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"results": [{"version": "1", "installable": False}]}))
        code, _, err = run(["aggregate", str(path)], capsys)
        assert code == 2
        assert "cannot read report" in err


def _fragments(*parts):
    """Bytes joined from arbitrary bytes and fragments of the format."""
    piece = st.one_of(st.binary(max_size=8), st.sampled_from(parts))
    return st.one_of(st.binary(max_size=300), st.lists(piece, max_size=60).map(b"".join))


_PACKAGES = _fragments(
    b"Package: ", b"Version: ", b"Depends: ", b"Pre-Depends: ", b"Conflicts: ",
    b"Provides: ", b"Replaces: ", b"Architecture: ", b"a", b"b", b"c", b"1", b"2:1.0-1~",
    b" ", b",", b" | ", b"(", b")", b">=", b"<<", b"=", b":any", b":", b"-", b"[", b"#",
    b"\xff", b"\n", b"\n\n", b" .\n",
)
_CONTENTS = _fragments(b"FILE LOCATION\n", b"usr/bin/x", b"   ", b"\t", b"a", b"b", b"c",
                       b"admin/", b"main/net/", b",", b"\n")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    | st.sampled_from(["a", "b", "i386"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["architecture", "results", "package", "version", "installable"])
        | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


def _exits_cleanly(argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
    else:
        assert code in (0, 1, 2)


class TestFuzz:
    """Whatever the input, the CLI exits 0, 1 or 2 and raises nothing else."""

    @settings(max_examples=150, deadline=None)
    @given(data=_PACKAGES, flags=st.sampled_from(
        [[], ["--explain"], ["--explain", "--format=json"], ["--check", "a"]]))
    def test_packages_bytes(self, tmp_path_factory, data, flags):
        path = tmp_path_factory.getbasetemp() / "fuzz-Packages"
        path.write_bytes(data)
        _exits_cleanly([*flags, str(path)])

    @settings(max_examples=150, deadline=None)
    @given(contents=_CONTENTS, packages=_PACKAGES)
    def test_contents_bytes(self, tmp_path_factory, contents, packages):
        base = tmp_path_factory.getbasetemp()
        (base / "fuzz-Contents").write_bytes(contents)
        (base / "fuzz-Packages").write_bytes(packages)
        _exits_cleanly(["conflicts", "--contents", str(base / "fuzz-Contents"),
                        "--packages", str(base / "fuzz-Packages")])

    @settings(max_examples=150, deadline=None)
    @given(documents=st.lists(_JSON, min_size=1, max_size=3))
    def test_aggregate_json(self, tmp_path_factory, documents):
        paths = []
        for i, document in enumerate(documents):
            path = tmp_path_factory.getbasetemp() / f"fuzz-report{i}.json"
            path.write_text(json.dumps(document))
            paths.append(str(path))
        _exits_cleanly(["aggregate", *paths])
