import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from debcheck import cli, solver
from debcheck.cli import main
from debcheck.contents import CandidateStatus
from debcheck.expand import build_repository, expand
from debcheck.solver import RepositoryChecker
from debcheck.stanza import parse_packages

from conftest import CHAIN_SAMPLE, CONSTRAINT_SAMPLE, VIRTUAL_SAMPLE
from test_acceptance import _synthetic_distribution
from test_contents import FIXTURE_CONTENTS, FIXTURE_PACKAGES, model_reuse_input


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


#: The only provider of `x` needs a missing package, so the synthesized
#: virtual package `x` is broken too, and so is `a`, which needs it.
BROKEN_VIRTUAL_SAMPLE = """\
Package: a
Version: 1
Depends: x

Package: b
Version: 1
Provides: x
Depends: gone

Package: c
Version: 1
"""


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

        def probing_check_all(self, *args):
            gc.collect()
            alive_at_search.append(parsed[0]() is not None)
            return check_all(self, *args)

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

    def test_unreadable_input_exits_two(self, sample_file, capsys, tmp_path):
        missing = str(tmp_path / "missing")
        packages = sample_file(FIXTURE_PACKAGES)
        for argv in ([missing], ["conflicts", "--contents", missing, "--packages", packages]):
            code, out, err = run(argv, capsys)
            assert code == 2
            assert out == ""
            assert "cannot read input" in err

    def test_malformed_stanza_is_diagnosed_but_recoverable(self, sample_file, capsys):
        text = "Package: broken\nDepends: x\n\n" + CONSTRAINT_SAMPLE + "\nPackage: d\nVersion: 1\n"
        code, out, err = run([sample_file(text)], capsys)
        assert code == 0
        assert "skipped stanza" in err
        assert "debcheck: warning: duplicate stanza for d 1 (line 27); keeping the last one" in err
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

    def test_optimized_run_prints_the_same_report(self, sample_file):
        """No verdict, explanation or report byte rests on an `assert`:
        `python -O` prints the same text and JSON reports.  The
        3000-package criterion-6 sample runs conflict analysis 88 times."""
        path = sample_file(_synthetic_distribution(count=3000))
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for report, marker in (([], b"NOT INSTALLABLE"), (["--format=json"], b'"explanation"')):
            outputs = []
            for flags in ([], ["-O"]):
                done = subprocess.run(
                    [sys.executable, *flags, "-m", "debcheck.cli", "--explain", *report, path],
                    capture_output=True, env=env, check=False, timeout=20,
                )
                assert done.returncode == 1, done.stderr
                outputs.append(done.stdout)
            assert outputs[0] == outputs[1]
            assert marker in outputs[0]

    def test_traced_run_finds_every_wrapped_name(self, sample_file, capsys, tmp_path):
        """`bench/tracer.py` wraps program functions by name, so deleting or
        renaming one breaks every traced run.  A crashed tracer exits 1, as
        a report with broken packages does, so the run must also print no
        traceback and record the spans of the explanation path.  Without
        the two render spans, `solver.explain.render_s` and
        `solver.explain.lines` would read 0 with no crash."""
        tracer = Path(__file__).parents[1] / "bench" / "tracer.py"
        if not tracer.exists():
            pytest.skip("bench/tracer.py is not in this checkout")
        path = sample_file(CHAIN_SAMPLE)
        spans = tmp_path / "spans.json"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, str(tracer), str(spans), "0", "--explain", path],
            capture_output=True, env=env, check=False, timeout=60,
        )
        code, _, _ = run(["--explain", path], capsys)
        assert done.returncode == code
        assert b"Traceback" not in done.stderr, done.stderr
        names = {span[0] for span in json.loads(spans.read_text())["spans"]}
        assert {
            "solver.query", "solver.explain", "solver.shrink", "solver.render_chains",
            "solver.render_lines", "expand.versions", "solver.engine_init",
            "solver.checker_init",
        } <= names

    def test_setup_probe_imports_every_stage(self, sample_file):
        """`bench/setup_probe.py` imports the front-end stages and
        `RepositoryChecker` by name, so renaming one fails every set-up
        sample of the benchmark."""
        probe = Path(__file__).parents[1] / "bench" / "setup_probe.py"
        if not probe.exists():
            pytest.skip("bench/setup_probe.py is not in this checkout")
        path = sample_file(CHAIN_SAMPLE)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, str(probe), path],
            capture_output=True, env=env, check=False, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert b"Traceback" not in done.stderr, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["setup_s"] > 0
        repo = build_repository(expand(parse_packages(CHAIN_SAMPLE).stanzas))
        assert result["packages"] == len(repo.packages)

    def test_odd_epochs_print_a_report(self, sample_file):
        """A non-ASCII digit or more than 4300 digits before the colon,
        in a version or a constraint, gives a report, not a traceback."""
        big = "9" * 5000
        path = sample_file(
            "Package: a\nVersion: \u00b2:1.0\n\n"
            f"Package: b\nVersion: {big}:1\nDepends: a (>= \u00b2:1)\n\n"
            f"Package: c\nVersion: 1\nDepends: b (>> {big}:1) | a, b (>= 1:1)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "debcheck.cli", path],
            capture_output=True, env=env, check=False, timeout=60,
        )
        assert b"Traceback" not in done.stderr, done.stderr
        assert done.returncode == 0
        assert done.stdout.decode().splitlines()[-1] == "3 packages, 0 not installable (clear)"

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

    @pytest.mark.parametrize("flags", [[], ["--explain"], ["--format=json"],
                                       ["--explain", "--format=json"]])
    @pytest.mark.parametrize("text", [CONSTRAINT_SAMPLE, VIRTUAL_SAMPLE, CHAIN_SAMPLE,
                                      BROKEN_VIRTUAL_SAMPLE],
                             ids=["constraint", "virtual", "chain", "broken-virtual"])
    def test_selecting_every_package_prints_the_whole_report(self, sample_file, capsys,
                                                             text, flags):
        """A selection goes through the whole-archive path, so selecting
        every real package prints the whole-archive report."""
        repo = build_repository(expand(parse_packages(text).stanzas))
        selectors = [f"--check={p.name}={p.version}" for p in repo.packages
                     if p not in repo.virtuals]
        path = sample_file(text)
        assert run([*flags, *selectors, path], capsys)[:2] == run([*flags, path], capsys)[:2]

    def test_no_virtual_package_is_explained(self, sample_file, capsys, monkeypatch):
        """The report leaves out synthesized virtual packages, so a run
        builds no explanation for one, whole or selected."""
        repo = build_repository(expand(parse_packages(BROKEN_VIRTUAL_SAMPLE).stanzas))
        explain, explained = RepositoryChecker._explain, []

        def recording_explain(self, assumptions, core):
            explained.extend(map(self.clause_set.package_of, assumptions))
            return explain(self, assumptions, core)

        monkeypatch.setattr(RepositoryChecker, "_explain", recording_explain)
        path = sample_file(BROKEN_VIRTUAL_SAMPLE)
        for selectors in ([], ["--check", "a"]):
            code, out, _ = run(["--explain", *selectors, path], capsys)
            assert code == 1 and "a (= 1): NOT INSTALLABLE" in out
        assert {p.name for p in explained} == {"a", "b"}
        assert repo.virtuals and not repo.virtuals & set(explained)


def _backjump_gadgets(count):
    """`count` copies of a pair (a, b) that shares a file.  b conflicts with
    x, which a's witness holds, so the pair is one solver query.  It
    decides m for a, then p for b, then r for m; r's dependencies clash at
    level 5 with m's conflict on t, and the backjump to level 3 skips b's
    decision."""
    stanzas = []
    for k in range(count):
        fields = {
            "a": [f"Depends: m{k} | n{k}, x{k} | y{k}"],
            "b": [f"Depends: p{k} | q{k}", f"Conflicts: x{k}"],
            "m": [f"Depends: r{k} | s{k}", f"Conflicts: t{k}"],
            "r": [f"Depends: u{k}, w{k}"],
            "u": [f"Depends: t{k} | v{k}"],
            "w": [f"Conflicts: v{k}"],
        }
        for name in "abmnpqrstuvwxy":
            stanzas.append("\n".join([f"Package: {name}{k}", "Version: 1", *fields.get(name, [])]))
    contents = "".join(f"usr/share/g{k}  main/a{k},main/b{k}\n" for k in range(count))
    return "\n\n".join(stanzas) + "\n", contents


class TestConflictsCommand:
    def test_optimized_run_prints_the_same_report(self, sample_file, capsys, monkeypatch):
        """`python -O` drops `solve`'s asserts on the search path and the
        health checks of settled pairs, so pair queries that decide and
        backjump, and a pair settled by an earlier query's model, print the
        same report without them.  Each of the three gadget queries makes
        four decisions and one conflict analysis, at level 5, which
        backjumps to level 3; `model_reuse_input` adds one query that
        settles a second pair."""
        text, index = _backjump_gadgets(3)
        reuse_text, reuse_index = model_reuse_input("z")
        text, index = text + "\n" + reuse_text, index + reuse_index
        argv = ["conflicts", "--contents", sample_file(index, "Contents"),
                "--packages", sample_file(text)]
        analyses = []
        analyze = solver._Engine._analyze

        def recording(self, confl, core):
            learned, backjump, bases = analyze(self, confl, core)
            analyses.append((len(self.trail_lim), backjump))
            return learned, backjump, bases

        monkeypatch.setattr(solver._Engine, "_analyze", recording)
        code, out, _ = run(argv, capsys)
        assert analyses == [(5, 3)] * 3
        assert code == 0
        assert "a0 -- b0: candidate: usr/share/g0" in out
        assert "zp -- zw: candidate: usr/share/zw/f" in out
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for flags in ([], ["-O"]):
            done = subprocess.run(
                [sys.executable, *flags, "-m", "debcheck.cli", *argv],
                capture_output=True, env=env, check=False, timeout=20,
            )
            assert done.returncode == code, done.stderr
            assert done.stdout.decode() == out

    def test_text_report(self, sample_file, capsys):
        packages = sample_file(FIXTURE_PACKAGES, "Packages")
        # eta and theta share seven paths, of which the report shows five
        shared = "".join(f"usr/lib/eta/f{i}  main/eta,main/theta\n" for i in range(1, 7))
        contents = sample_file(FIXTURE_CONTENTS + shared, "Contents")
        code, out, err = run(
            ["conflicts", "--contents", contents, "--packages", packages], capsys
        )
        assert code == 0
        assert "alpha -- beta: not-coinstallable" in out
        assert "epsilon -- zeta: excused-by-replaces" in out
        assert (
            "eta -- theta: candidate: usr/bin/four, usr/lib/eta/f1, usr/lib/eta/f2,"
            " usr/lib/eta/f3, usr/lib/eta/f4 (+2 more)\n" in out
        )
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

    def test_deeply_nested_report_exits_two(self, tmp_path, capsys):
        """`json.load` raises RecursionError past its nesting limit."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(["aggregate", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"debcheck: cannot read report {path}: ")
        assert "Traceback" not in err

    def test_malformed_report_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"results": [{"version": "1", "installable": False}]}))
        code, _, err = run(["aggregate", str(path)], capsys)
        assert code == 2
        assert "cannot read report" in err


# report strings: any text, weighted toward what JSON must escape
_REPORT_TEXT = st.text(
    st.sampled_from('a1 ."\\/\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600') | st.characters(), max_size=8)
_CHECK_ENTRIES = st.builds(
    lambda package, version, installable, explanation: {
        "package": package, "version": version, "installable": installable,
        **({} if explanation is None else {"explanation": explanation}),
    },
    _REPORT_TEXT, _REPORT_TEXT, st.booleans(), st.none() | st.lists(_REPORT_TEXT, max_size=3),
)
# the check command's JSON reports, their keys in the order it writes them
_CHECK_REPORTS = st.builds(
    lambda *values: dict(zip(("architecture", "total_packages", "non_installable",
                              "fraction", "weather", "results"), values)),
    st.none() | _REPORT_TEXT,
    st.integers(min_value=0),
    st.integers(min_value=0),
    st.sampled_from([1e-06, 0.0, 1.0, 0.954971]) | st.floats(0.0, 1.0),
    st.sampled_from(["clear", "storm"]) | _REPORT_TEXT,
    st.lists(_CHECK_ENTRIES, max_size=4),
)

_CONFLICTS_REPORTS = st.fixed_dictionaries({
    "pairs": st.lists(st.fixed_dictionaries({
        "pair": st.lists(_REPORT_TEXT, min_size=2, max_size=2),
        "status": st.sampled_from([s.value for s in CandidateStatus]) | _REPORT_TEXT,
        "shared_paths": st.lists(_REPORT_TEXT, max_size=3),
    }), max_size=4),
    "undetermined": st.lists(st.fixed_dictionaries({
        "pair": st.lists(_REPORT_TEXT, min_size=2, max_size=2),
        "reason": _REPORT_TEXT,
    }), max_size=3),
})


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestReportOutput:
    def test_reports_arrive_in_a_few_writes(self, sample_file, monkeypatch):
        """Each report reaches standard output in about one write per
        `_WRITE_BATCH` characters, with the bytes that the CLI wrote when
        it made one write per JSON token or per line: the digests below
        were taken from those reports."""
        dist = sample_file(_synthetic_distribution(count=3000))
        text, contents = _backjump_gadgets(200)
        conflicts = ["conflicts", "--contents", sample_file(contents, "Contents"),
                     "--packages", sample_file(text, "Gadgets")]
        for argv, code, digest in (
            (["--explain", "--format=json", dist], 1, "11da7f6d752f1820"),
            (["--explain", dist], 1, "bf94342a4817cdb8"),
            (conflicts, 0, "5bc15be7ffb9d003"),
        ):
            out = _CountingStream()
            monkeypatch.setattr(sys, "stdout", out)
            monkeypatch.setattr(sys, "stderr", io.StringIO())
            assert main(argv) == code
            report = out.getvalue()
            assert hashlib.sha256(report.encode()).hexdigest()[:16] == digest
            assert out.writes <= len(report) // cli._WRITE_BATCH + 1, (argv[0], out.writes)

    @settings(max_examples=300, deadline=None)
    @given(document=_CHECK_REPORTS)
    @example(document={"architecture": None, "total_packages": 0, "non_installable": 0,
                       "fraction": 0.0, "weather": "clear", "results": []})
    def test_check_report_is_json_with_indent(self, document):
        """The check command's JSON writer prints what `json` prints with
        `indent=2`, on any report of its schema."""
        assert "".join(cli._check_json(document)) == json.dumps(document, indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(document=_CONFLICTS_REPORTS)
    @example(document={"pairs": [], "undetermined": []})
    @example(document={"pairs": [{"pair": ["a", "b"], "status": "candidate",
                                  "shared_paths": ["usr/share/caf\xe9", 'x"\\\u2028\U0001f600']}],
                       "undetermined": []})
    @example(document={"pairs": [], "undetermined": [{"pair": ["a", "\xe9"], "reason": "\n"}]})
    def test_conflicts_report_is_json_with_indent(self, document):
        """The conflicts command's JSON writer prints what `json` prints
        with `indent=2`, on any report of its schema."""
        assert "".join(cli._conflicts_json(document)) == json.dumps(document, indent=2) + "\n"

    def test_conflicts_report_with_escaped_paths(self, sample_file, capsys):
        """Paths and names that `json` escapes reach the report as `json`
        writes them, and so does an empty `undetermined` list."""
        packages = sample_file(FIXTURE_PACKAGES, "Packages")
        paths = ["usr/share/caf\xe9", 'usr/q"uote\\back', "usr/\u2028sep", "usr/\U0001f600"]
        contents = sample_file(
            "".join(f"{path}  main/eta,main/theta\n" for path in paths), "Contents")
        code, out, _ = run(
            ["conflicts", "--contents", contents, "--packages", packages, "--format=json"], capsys)
        assert code == 0
        document = json.loads(out)
        assert document["undetermined"] == []
        assert document["pairs"][0]["shared_paths"] == sorted(paths)
        assert out == json.dumps(document, indent=2) + "\n"

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_pipe_exits_two(self, sample_file, tmp_path, unbuffered):
        """A reader that stops after the first line, as `| head -1` does,
        ends the run with exit 2 and no traceback, with standard output
        unbuffered or not.  The report is far larger than a pipe holds."""
        path = sample_file(_synthetic_distribution(count=3000))
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
               "PYTHONUNBUFFERED": unbuffered}
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "debcheck.cli", "--explain", "--format=json", path],
                stdout=subprocess.PIPE, stderr=err, env=env,
            )
            try:
                assert proc.stdout.readline() == b"{\n"
                proc.stdout.close()
                code = proc.wait(timeout=20)
            finally:
                proc.kill()
        stderr = (tmp_path / "stderr").read_text()
        assert code == 2, stderr
        assert "Traceback" not in stderr and "Exception ignored" not in stderr
        assert "Checking packages" in stderr


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


@pytest.fixture
def collector_state():
    """Run the test, then put the collector back as it was."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollector:
    """`main` runs without the cyclic collector and leaves it as it was."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_state_is_restored(self, enabled, sample_file, capsys, monkeypatch,
                                      collector_state, tmp_path):
        seen = []
        summarize = cli.summarize

        def recording(results):
            seen.append(gc.isenabled())
            return summarize(results)

        monkeypatch.setattr(cli, "summarize", recording)
        (gc.enable if enabled else gc.disable)()
        code, out, _ = run([sample_file(CHAIN_SAMPLE)], capsys)
        assert code == 1 and "NOT INSTALLABLE" in out
        assert seen == [False]
        assert gc.isenabled() is enabled

        code, _, err = run([str(tmp_path / "missing")], capsys)
        assert code == 2 and "cannot read input" in err
        assert gc.isenabled() is enabled

        with pytest.raises(SystemExit) as exc:
            main(["--format=xml", sample_file(CHAIN_SAMPLE)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert gc.isenabled() is enabled

    def test_runs_make_no_cycles_that_grow_with_the_input(self, sample_file, capsys,
                                                         collector_state):
        """The premise of running without the collector: what a run leaves
        for it to find is a constant handful (argparse, closures), not
        something per package."""
        gc.disable()
        found = {}
        for count in (300, 3000):
            packages = sample_file(_synthetic_distribution(count=count), f"Packages{count}")
            contents = sample_file("".join(
                f"usr/share/f{i}  main/pkg{i:05d},main/pkg{(7 * i + 3) % count:05d}\n"
                for i in range(0, count, 3)
            ), f"Contents{count}")
            code, report, _ = run(["--format=json", packages], capsys)
            assert code == 1
            path = sample_file(report, f"report{count}.json")
            commands = {
                "check": [packages],
                "explain": ["--explain", "--format=json", packages],
                "conflicts": ["conflicts", "--contents", contents, "--packages", packages],
                "aggregate": ["aggregate", path],
            }
            for name, argv in commands.items():
                gc.collect()
                code, out, _ = run(argv, capsys)
                assert code in (0, 1) and out
                found[name, count] = gc.collect()
        for name in commands:
            assert found[name, 3000] <= found[name, 300], found


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
