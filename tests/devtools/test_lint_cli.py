"""CLI-level tests for ``repro lint`` and the shipped-tree zero-findings gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.lint.cli import main as lint_main

from tests.devtools.conftest import REPO_ROOT


def test_shipped_tree_has_zero_findings(shipped_tree) -> None:
    """Every gate `make lint-repro` runs must be clean."""
    top_dirs = {
        Path(module.path).relative_to(REPO_ROOT).parts[0]
        for gate in shipped_tree
        for module in gate.program.modules.values()
    }
    assert top_dirs == {"src", "benchmarks", "examples", "tests"}
    for gate in shipped_tree:
        rendered = [finding.render() for finding in gate.findings]
        assert rendered == [], gate.argv


def test_repro_cli_exposes_lint_subcommand(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    from repro.cli import main as repro_main

    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n")
    assert repro_main(["lint", str(clean)]) == 0
    assert "0 findings in 1 files" in capsys.readouterr().out


def test_json_output_on_dirty_file(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\n")
    exit_code = lint_main(["--format", "json", str(dirty)])
    captured = capsys.readouterr()
    assert exit_code == 1
    payload = json.loads(captured.out)
    assert payload["files_checked"] == 1
    assert [finding["code"] for finding in payload["findings"]] == ["RPL002"]
    assert payload["findings"][0]["line"] == 1


def test_select_and_ignore_filters(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "import random\n"
        "def collect(bucket=[]):\n"
        "    return bucket\n"
    )
    selected = json.loads(
        _json_run(["--format", "json", "--select", "RPL030", str(dirty)], capsys)
    )
    assert [f["code"] for f in selected["findings"]] == ["RPL030"]

    ignored = json.loads(
        _json_run(["--format", "json", "--ignore", "RPL030", str(dirty)], capsys)
    )
    assert [f["code"] for f in ignored["findings"]] == ["RPL002"]


def _json_run(argv: list, capsys: pytest.CaptureFixture) -> str:
    lint_main(argv)
    return capsys.readouterr().out


def test_unknown_code_is_usage_error(capsys: pytest.CaptureFixture) -> None:
    assert lint_main(["--select", "RPL999", "."]) == 2
    captured = capsys.readouterr()
    assert "RPL999" in captured.err


def test_list_rules_mentions_every_code(capsys: pytest.CaptureFixture) -> None:
    from repro.devtools.lint import RULES

    assert lint_main(["--list-rules"]) == 0
    captured = capsys.readouterr()
    for rule in RULES:
        assert rule.code in captured.out


def _git(tmp_path: Path, *argv: str) -> None:
    import subprocess

    subprocess.run(
        ["git", "-c", "user.email=test@example.invalid", "-c", "user.name=test"]
        + list(argv),
        cwd=tmp_path,
        check=True,
        capture_output=True,
    )


def test_changed_lints_only_touched_files(
    tmp_path: Path, capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch
) -> None:
    _git(tmp_path, "init", "-q")
    (tmp_path / "clean.py").write_text("VALUE = 1\n")
    (tmp_path / "touched.py").write_text("VALUE = 2\n")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")

    (tmp_path / "touched.py").write_text("import random\n")  # worktree edit
    (tmp_path / "fresh.py").write_text("VALUE = 3\n")  # untracked
    monkeypatch.chdir(tmp_path)

    payload = json.loads(_json_run(["--format", "json", "--changed", "."], capsys))
    assert payload["files_checked"] == 2  # touched + fresh, never clean.py
    assert [f["code"] for f in payload["findings"]] == ["RPL002"]
    assert payload["findings"][0]["path"].endswith("touched.py")


def test_changed_respects_path_restriction(
    tmp_path: Path, capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch
) -> None:
    _git(tmp_path, "init", "-q")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "inside.py").write_text("VALUE = 1\n")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")
    (tmp_path / "sub" / "inside.py").write_text("VALUE = 2\n")  # clean edit
    (tmp_path / "outside.py").write_text("import random\n")  # untracked, dirty
    monkeypatch.chdir(tmp_path)

    payload = json.loads(
        _json_run(["--format", "json", "--changed", "sub"], capsys)
    )
    assert payload["files_checked"] == 1
    assert payload["findings"] == []


def test_changed_works_from_a_subdirectory(
    tmp_path: Path, capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch
) -> None:
    _git(tmp_path, "init", "-q")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "inside.py").write_text("VALUE = 1\n")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")
    (tmp_path / "sub" / "inside.py").write_text("import random\n")
    monkeypatch.chdir(tmp_path / "sub")

    payload = json.loads(_json_run(["--format", "json", "--changed", "."], capsys))
    assert payload["files_checked"] == 1
    assert [f["code"] for f in payload["findings"]] == ["RPL002"]


def test_changed_outside_a_checkout_is_usage_error(
    tmp_path: Path, capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.chdir(tmp_path)  # pytest tmpdirs are not git checkouts
    assert lint_main(["--changed", "."]) == 2
    assert "requires a git checkout" in capsys.readouterr().err
