"""Tests for ``repro.devtools.lint``.

The fixture corpus under ``tests/devtools/fixtures/`` drives the per-rule
checks: each ``*_bad.py`` fixture annotates every line the linter must
flag with a trailing ``# expect: CODE`` marker, and each ``*_good.py``
fixture must lint completely clean.  The fixtures pose as in-layer
modules via the ``# repro-lint: module=...`` pragma, which is itself
under test here.
"""

from __future__ import annotations

import io
import re
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import (
    DEFAULT_WAIVER_FILE,
    RULES,
    Waiver,
    check_file,
    iter_python_files,
    lint_paths,
    load_waivers,
    main,
    run,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

_EXPECT = re.compile(r"#\s*expect:\s*(RL\d{3})")

BAD_FIXTURES = [
    "rl001_bad.py",
    "rl002_bad.py",
    "rl004_bad.py",
    "rl005_bad.py",
    "rl005_init_default_bad.py",
    "rl006_bad.py",
]
GOOD_FIXTURES = [
    "rl001_good.py",
    "rl002_good.py",
    "rl004_good.py",
    "rl005_good.py",
    "rl006_good.py",
    "suppressed.py",
]


def expected_findings(path: Path) -> list:
    found = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        match = _EXPECT.search(line)
        if match:
            found.append((match.group(1), lineno))
    return sorted(found)


def actual_findings(path: Path) -> list:
    return sorted((d.code, d.line) for d in check_file(path))


class TestFixtureCorpus:
    @pytest.mark.parametrize("name", BAD_FIXTURES)
    def test_bad_fixture_fires_exactly_where_marked(self, name):
        path = FIXTURES / name
        expected = expected_findings(path)
        assert expected, f"{name} declares no `# expect:` markers"
        assert actual_findings(path) == expected

    @pytest.mark.parametrize("name", GOOD_FIXTURES)
    def test_good_fixture_is_clean(self, name):
        path = FIXTURES / name
        assert actual_findings(path) == []

    def test_every_rule_has_a_firing_bad_fixture(self):
        fired = set()
        for name in BAD_FIXTURES:
            fired.update(code for code, _ in expected_findings(FIXTURES / name))
        assert fired == {rule.code for rule in RULES}

    def test_fixture_corpus_is_complete(self):
        on_disk = {p.name for p in FIXTURES.glob("*.py")}
        assert on_disk == set(BAD_FIXTURES) | set(GOOD_FIXTURES)


class TestSuppressions:
    def test_pragma_silences_only_named_code(self, tmp_path):
        src = textwrap.dedent(
            """\
            # repro-lint: module=repro.engine.tmp
            import time

            def stamp():
                return time.time()  # repro-lint: disable=RL002
            """
        )
        path = tmp_path / "tmp_mod.py"
        path.write_text(src)
        assert [d.code for d in check_file(path)] == ["RL001"]

    def test_pragma_removal_restores_finding(self, tmp_path):
        suppressed = FIXTURES / "suppressed.py"
        stripped = re.sub(
            r"\s*# repro-lint: disable=\S+", "", suppressed.read_text()
        )
        path = tmp_path / "unsuppressed.py"
        path.write_text(stripped)
        codes = [d.code for d in check_file(path)]
        assert codes == ["RL001", "RL001", "RL001"]


class TestModulePragma:
    def test_pragma_overrides_path_derived_module(self, tmp_path):
        path = tmp_path / "anywhere.py"
        path.write_text(
            "# repro-lint: module=repro.joins.tmp\nimport time\ntime.time()\n"
        )
        assert [d.code for d in check_file(path)] == ["RL001"]

    def test_without_pragma_out_of_tree_file_is_unscoped(self, tmp_path):
        path = tmp_path / "anywhere.py"
        path.write_text("import time\ntime.time()\n")
        assert check_file(path) == []


class TestWaivers:
    def _violation_file(self, tmp_path: Path) -> Path:
        path = tmp_path / "mod.py"
        path.write_text(
            "# repro-lint: module=repro.engine.tmp\n"
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        return path

    def test_load_waivers_parses_and_requires_reason(self, tmp_path):
        waiver_file = tmp_path / DEFAULT_WAIVER_FILE
        waiver_file.write_text(
            "# comment\n\nsrc/repro/core/adaptive.py RL002 documented facade\n"
        )
        waivers = load_waivers(waiver_file)
        assert len(waivers) == 1
        assert waivers[0].code == "RL002"
        waiver_file.write_text("src/x.py RL001\n")
        with pytest.raises(ValueError):
            load_waivers(waiver_file)

    def test_covers_matches_path_glob_and_code(self):
        waiver = Waiver(pattern="src/repro/core/*.py", code="RL002", reason="r")
        from repro.devtools.lint import Diagnostic

        match = Diagnostic(
            path="src/repro/core/adaptive.py",
            line=1,
            col=1,
            code="RL002",
            message="m",
        )
        assert waiver.covers(match)
        wrong_code = Diagnostic(
            path="src/repro/core/adaptive.py",
            line=1,
            col=1,
            code="RL001",
            message="m",
        )
        assert not waiver.covers(wrong_code)

    def test_waived_finding_exits_zero(self, tmp_path, monkeypatch):
        path = self._violation_file(tmp_path)
        (tmp_path / DEFAULT_WAIVER_FILE).write_text("mod.py RL001 test waiver\n")
        monkeypatch.chdir(tmp_path)
        out, err = io.StringIO(), io.StringIO()
        assert run(["mod.py"], stdout=out, stderr=err) == 0
        assert "1 waived" in err.getvalue()
        assert path.name not in out.getvalue()

    def test_no_waivers_flag_restores_finding(self, tmp_path, monkeypatch):
        self._violation_file(tmp_path)
        (tmp_path / DEFAULT_WAIVER_FILE).write_text("mod.py RL001 test waiver\n")
        monkeypatch.chdir(tmp_path)
        out, err = io.StringIO(), io.StringIO()
        assert run(["mod.py"], use_waivers=False, stdout=out, stderr=err) == 1
        assert "RL001" in out.getvalue()

    def test_show_waived_prints_waived_diagnostics(self, tmp_path, monkeypatch):
        self._violation_file(tmp_path)
        (tmp_path / DEFAULT_WAIVER_FILE).write_text("mod.py RL001 test waiver\n")
        monkeypatch.chdir(tmp_path)
        out, err = io.StringIO(), io.StringIO()
        assert run(["mod.py"], show_waived=True, stdout=out, stderr=err) == 0
        assert "[waived]" in out.getvalue()
        assert "RL001" in out.getvalue()


class TestOutputFormats:
    def test_text_format_is_path_line_col_code(self):
        path = FIXTURES / "rl002_bad.py"
        out, err = io.StringIO(), io.StringIO()
        assert run([str(path)], stdout=out, stderr=err) == 1
        first = out.getvalue().splitlines()[0]
        assert re.match(r".*rl002_bad\.py:6:1: RL002 ", first)

    def test_github_format_emits_workflow_commands(self):
        path = FIXTURES / "rl002_bad.py"
        out, err = io.StringIO(), io.StringIO()
        assert run(
            [str(path)], output_format="github", stdout=out, stderr=err
        ) == 1
        first = out.getvalue().splitlines()[0]
        assert first.startswith("::error file=")
        assert "line=6" in first
        assert "RL002" in first

    def test_list_rules_names_all_codes(self):
        out = io.StringIO()
        assert run([], list_rules=True, stdout=out) == 0
        listing = out.getvalue()
        for code in ("RL001", "RL002", "RL004", "RL005", "RL006"):
            assert code in listing

    def test_syntax_error_reports_rl000(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        diags = check_file(path)
        assert [d.code for d in diags] == ["RL000"]

    def test_missing_path_is_usage_error(self, tmp_path):
        err = io.StringIO()
        assert run([str(tmp_path / "nope.py")], stderr=err) == 2


class TestFileDiscovery:
    def test_fixture_directory_is_pruned_from_walks(self):
        walked = list(iter_python_files([FIXTURES.parent]))
        assert all("fixtures" not in p.parts for p in walked)

    def test_explicit_fixture_file_bypasses_excludes(self):
        explicit = FIXTURES / "rl001_bad.py"
        assert list(iter_python_files([explicit])) == [explicit]


class TestSelfCheck:
    def test_committed_tree_is_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        out, err = io.StringIO(), io.StringIO()
        code = run(
            ["src", "tests", "benchmarks", "examples"], stdout=out, stderr=err
        )
        assert code == 0, f"repro lint found:\n{out.getvalue()}"

    def test_no_waivers_are_carried(self, monkeypatch):
        # The RL002 waiver for repro.core.adaptive was retired when the
        # facade moved to repro.runtime.adaptive; the committed tree must
        # now be clean without any waiver at all.
        monkeypatch.chdir(REPO_ROOT)
        waivers = load_waivers(REPO_ROOT / DEFAULT_WAIVER_FILE)
        assert waivers == []
        targets = [Path("src"), Path("tests"), Path("benchmarks"), Path("examples")]
        active, waived = lint_paths(targets, waivers)
        assert active == []
        assert waived == []

    def test_main_entry_point(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["--list-rules"]) == 0
        assert main([str(FIXTURES / "rl006_bad.py")]) == 1
        capsys.readouterr()


class TestCliIntegration:
    def test_repro_lint_subcommand(self, monkeypatch, capsys):
        from repro.cli import main as cli_main

        monkeypatch.chdir(REPO_ROOT)
        assert cli_main(["lint", "--list-rules"]) == 0
        assert cli_main(["lint", str(FIXTURES / "rl001_bad.py")]) == 1
        captured = capsys.readouterr()
        assert "RL001" in captured.out
