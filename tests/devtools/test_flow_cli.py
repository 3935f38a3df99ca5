"""CLI-level tests of ``repro lint`` on whole-program codes: formats,
filters, baseline mode."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.lint.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.devtools.lint.cli import RULE_DESCRIPTORS, main as flow_main
from repro.devtools.lint.findings import Finding

DIRTY_SOURCE = (
    "import numpy as np\n"
    "\n"
    "def fresh():\n"
    "    return np.random.default_rng()\n"
)


def write_dirty(tmp_path: Path) -> Path:
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY_SOURCE, encoding="utf-8")
    return dirty


def test_json_output_on_dirty_file(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    dirty = write_dirty(tmp_path)
    exit_code = flow_main(["--format", "json", str(dirty)])
    captured = capsys.readouterr()
    assert exit_code == 1
    payload = json.loads(captured.out)
    assert payload["files_checked"] == 1
    assert payload["baselined"] == 0
    assert [finding["code"] for finding in payload["findings"]] == ["RPL101"]


def test_sarif_output_covers_whole_program_codes(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    dirty = write_dirty(tmp_path)
    exit_code = flow_main(["--sarif", str(dirty)])
    captured = capsys.readouterr()
    assert exit_code == 1
    payload = json.loads(captured.out)
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
        rule["code"] for rule in RULE_DESCRIPTORS
    ]
    assert {"RPL101", "RPL110", "RPL123"} <= set(
        r["id"] for r in run["tool"]["driver"]["rules"]
    )
    assert run["results"][0]["ruleId"] == "RPL101"


def test_select_and_ignore_filters(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    dirty = write_dirty(tmp_path)
    assert flow_main(["--select", "RPL102", str(dirty)]) == 0
    capsys.readouterr()
    assert flow_main(["--ignore", "RPL101", str(dirty)]) == 0
    capsys.readouterr()
    assert flow_main(["--select", "RPL101", str(dirty)]) == 1
    capsys.readouterr()


def test_unknown_code_and_missing_path_are_usage_errors(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    assert flow_main(["--select", "RPL999", str(tmp_path)]) == 2
    assert "RPL999" in capsys.readouterr().err
    assert flow_main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_mentions_every_flow_code(
    capsys: pytest.CaptureFixture,
) -> None:
    assert flow_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RPL101", "RPL102", "RPL110", "RPL111", "RPL112", "RPL113",
                 "RPL120", "RPL121", "RPL122", "RPL123"):
        assert code in out


def test_baseline_roundtrip_gates_only_new_findings(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    dirty = write_dirty(tmp_path)
    baseline = tmp_path / "lint-baseline.json"

    assert flow_main(["--write-baseline", str(baseline), str(dirty)]) == 0
    assert "wrote baseline with 1 findings" in capsys.readouterr().out

    # The recorded finding no longer fails the gate...
    assert flow_main(["--baseline", str(baseline), str(dirty)]) == 0
    assert "0 new findings (1 baselined)" in capsys.readouterr().out

    # ...but a second, unrecorded violation does.
    dirty.write_text(
        DIRTY_SOURCE + "\ndef again():\n    return np.random.default_rng()\n",
        encoding="utf-8",
    )
    assert flow_main(["--baseline", str(baseline), str(dirty)]) == 1
    assert "1 new finding (1 baselined)" in capsys.readouterr().out


def test_baseline_matches_on_message_not_line(tmp_path: Path) -> None:
    finding = Finding(
        code="RPL101", message="msg", path="pkg/a.py", line=10, col=0
    )
    moved = Finding(code="RPL101", message="msg", path="pkg/a.py", line=99, col=4)
    baseline = tmp_path / "b.json"
    write_baseline([finding], str(baseline))
    fresh, suppressed = apply_baseline([moved], load_baseline(str(baseline)))
    assert fresh == [] and suppressed == 1


def test_baseline_version_mismatch_is_an_error(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    dirty = write_dirty(tmp_path)
    stale = tmp_path / "stale.json"
    stale.write_text('{"version": 99, "findings": []}', encoding="utf-8")
    assert flow_main(["--baseline", str(stale), str(dirty)]) == 2
    assert "baseline" in capsys.readouterr().err


def test_committed_baseline_is_empty() -> None:
    """The repository ships at zero findings; the baseline must agree."""
    repo_root = Path(__file__).resolve().parents[2]
    budget = load_baseline(str(repo_root / "lint-baseline.json"))
    assert sum(budget.values()) == 0
