"""Tests for richlint, the AST-based domain-invariant analyzer.

Every rule is exercised against a fixture under
``tests/fixtures/richlint/``.  Fixtures carry ``# EXPECT[CODE]`` markers
on exactly the lines that must trip; the harness compares the analyzer's
(line, code) pairs against the markers, so each fixture simultaneously
tests the rule's positives *and* its negatives (any unmarked line that
fires fails the test).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, analyze_source, conserves
from repro.analysis.cli import main as richlint_main
from repro.analysis.engine import (
    default_rules,
    load_baseline,
    resolve_selectors,
    write_baseline,
)

FIXTURES = Path(__file__).parent / "fixtures" / "richlint"
REPO_ROOT = Path(__file__).parent.parent

EXPECT_RE = re.compile(r"#\s*EXPECT\[([A-Z0-9, ]+)\]")


def expected_markers(path: Path) -> set[tuple[int, str]]:
    marks: set[tuple[int, str]] = set()
    for number, text in enumerate(path.read_text().splitlines(), start=1):
        match = EXPECT_RE.search(text)
        if match:
            for code in match.group(1).split(","):
                marks.add((number, code.strip()))
    return marks


def findings_for(fixture: str) -> set[tuple[int, str]]:
    path = FIXTURES / fixture
    report = analyze_paths([path], root=FIXTURES)
    assert not report.parse_errors
    return {(f.line, f.code) for f in report.findings}


FIXTURE_FILES = [
    "r101_unit_mix.py",
    "r102_bare_literal.py",
    "r201_global_rng.py",
    "r202_unseeded_rng.py",
    "core/r203_wallclock.py",
    "core/r204_set_iteration.py",
    "r205_wallclock_duration.py",
    "r301_float_eq.py",
    "r401_mutable_default.py",
    "r402_unfrozen_key.py",
    "r501_conservation.py",
    "runtime/kernels.py",
    "core/r601_layering.py",
    "r701_blocking_async.py",
    "r702_unawaited_coroutine.py",
    "r703_fire_and_forget.py",
    "r704_sync_lock_await.py",
    "r705_unguarded_state.py",
    "suppressions.py",
]

# Negative fixtures: the flow-aware rules must stay silent on the
# idiomatic version of each anti-pattern.
OK_FIXTURES = [
    "core/channels.py",
    "r701_blocking_async_ok.py",
    "r702_unawaited_coroutine_ok.py",
    "r703_fire_and_forget_ok.py",
    "r704_sync_lock_await_ok.py",
    "r705_unguarded_state_ok.py",
]


class TestRuleFixtures:
    @pytest.mark.parametrize("fixture", FIXTURE_FILES)
    def test_findings_match_expect_markers(self, fixture):
        expected = expected_markers(FIXTURES / fixture)
        assert expected, f"fixture {fixture} has no EXPECT markers"
        assert findings_for(fixture) == expected

    @pytest.mark.parametrize("fixture", OK_FIXTURES)
    def test_ok_fixtures_stay_silent(self, fixture):
        assert not expected_markers(FIXTURES / fixture)
        assert findings_for(fixture) == set()

    def test_every_rule_is_covered_by_a_fixture(self):
        covered = set()
        for fixture in FIXTURE_FILES:
            covered |= {code for _, code in expected_markers(FIXTURES / fixture)}
        assert covered == {rule.code for rule in default_rules()}


class TestScoping:
    WALLCLOCK_SRC = "import time\n\n\ndef f():\n    return time.time()\n"

    def test_wallclock_scoped_to_deterministic_zones(self):
        inside = analyze_source(self.WALLCLOCK_SRC, relpath="core/clock.py")
        assert [f.code for f in inside] == ["RL203"]
        for zone in ("sim", "experiments"):
            assert analyze_source(self.WALLCLOCK_SRC, relpath=f"{zone}/clock.py")

    def test_wallclock_silent_outside_zones(self):
        outside = analyze_source(self.WALLCLOCK_SRC, relpath="trace/clock.py")
        assert outside == []

    def test_wallclock_duration_fires_in_every_zone(self):
        source = (
            "import time\n\n\ndef f():\n"
            "    t0 = time.time()\n"
            "    return time.time() - t0\n"
        )
        for relpath in ("service/server.py", "trace/timer.py", "core/clock.py"):
            codes = [f.code for f in analyze_source(source, relpath)]
            assert "RL205" in codes, relpath

    def test_layering_covers_the_trace_package(self):
        """trace/ feeds the columnar path columns; it must not reach up."""
        source = "from repro.experiments.runner import run_user\n"
        assert [f.code for f in analyze_source(source, "trace/io.py")] == ["RL601"]
        assert analyze_source(source, "ml/forest.py") == []

    def test_set_iteration_scoped_to_core(self):
        source = "def f(items: set):\n    return [x for x in items]\n"
        assert [f.code for f in analyze_source(source, "core/hot.py")] == ["RL204"]
        assert analyze_source(source, "ml/cold.py") == []


class TestSuppressions:
    def test_suppressed_findings_carry_reasons(self):
        report = analyze_paths([FIXTURES / "suppressions.py"], root=FIXTURES)
        reasons = [reason for _, reason in report.suppressed]
        assert len(report.suppressed) == 5
        assert any("documented exception" in reason for reason in reasons)
        # The wrong-code line must NOT be suppressed.
        assert [f.code for f in report.findings] == ["RL202"]

    def test_inline_ignore_of_one_code_keeps_other_rules(self):
        source = (
            "import random\n"
            "x = random.Random()  # richlint: ignore[RL202] -- seeded upstream\n"
        )
        assert analyze_source(source) == []
        unrelated = source.replace("RL202", "RL301")
        assert [f.code for f in analyze_source(unrelated)] == ["RL202"]


class TestSelectors:
    def test_family_and_name_selectors_expand(self):
        rules = default_rules()
        assert resolve_selectors(["R2"], rules) == {
            "RL201",
            "RL202",
            "RL203",
            "RL204",
            "RL205",
        }
        assert resolve_selectors(["float-eq"], rules) == {"RL301"}
        assert resolve_selectors(["RL101,R5"], rules) == {"RL101", "RL501"}
        assert resolve_selectors(["R7"], rules) == {
            "RL701",
            "RL702",
            "RL703",
            "RL704",
            "RL705",
        }

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError, match="unknown richlint rule"):
            resolve_selectors(["R99"], default_rules())

    def test_select_and_ignore_filter_rules(self):
        path = FIXTURES / "r201_global_rng.py"
        only_r2 = analyze_paths([path], root=FIXTURES, select="R2")
        assert {f.code for f in only_r2.findings} == {"RL201"}
        none_left = analyze_paths([path], root=FIXTURES, ignore="R2")
        assert none_left.findings == []


class TestBaseline:
    def test_baseline_roundtrip_hides_then_reexposes(self, tmp_path):
        target = tmp_path / "module.py"
        shutil.copy(FIXTURES / "r202_unseeded_rng.py", target)
        baseline = tmp_path / "baseline.json"

        first = analyze_paths([target], root=tmp_path)
        assert first.findings
        write_baseline(baseline, first.findings, first.modules_by_path)
        assert load_baseline(baseline)

        second = analyze_paths([target], root=tmp_path, baseline=baseline)
        assert second.findings == []
        assert len(second.baselined) == len(first.findings)

        # A new violation is NOT covered by the stale baseline.
        target.write_text(
            target.read_text() + "\n\nimport random\nextra = random.random()\n"
        )
        third = analyze_paths([target], root=tmp_path, baseline=baseline)
        assert [f.code for f in third.findings] == ["RL201"]

    def test_baseline_fingerprints_survive_line_shifts(self, tmp_path):
        target = tmp_path / "module.py"
        shutil.copy(FIXTURES / "r202_unseeded_rng.py", target)
        baseline = tmp_path / "baseline.json"
        first = analyze_paths([target], root=tmp_path)
        write_baseline(baseline, first.findings, first.modules_by_path)

        # Insert lines above: line numbers shift, fingerprints must not.
        target.write_text("# shifted\n# shifted\n" + target.read_text())
        shifted = analyze_paths([target], root=tmp_path, baseline=baseline)
        assert shifted.findings == []
        assert len(shifted.baselined) == len(first.findings)

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="malformed baseline"):
            load_baseline(bad)


class TestCli:
    def test_exit_codes(self, capsys, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert richlint_main([str(dirty), "--no-baseline"]) == 1
        assert richlint_main([str(dirty), "--no-baseline", "--warn-only"]) == 0
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert richlint_main([str(clean), "--no-baseline"]) == 0
        capsys.readouterr()

    def test_update_baseline_then_clean(self, capsys, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        baseline = tmp_path / "baseline.json"
        assert (
            richlint_main(
                [str(dirty), "--baseline", str(baseline), "--update-baseline"]
            )
            == 0
        )
        assert richlint_main([str(dirty), "--baseline", str(baseline)]) == 0
        capsys.readouterr()

    def test_json_format(self, capsys, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        richlint_main([str(dirty), "--no-baseline", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["code"] == "RL201"

    def test_parse_error_reported_and_fails(self, capsys, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert richlint_main([str(broken), "--no-baseline"]) == 1
        assert "RL901" in capsys.readouterr().out

    def test_exclude_glob(self, capsys, tmp_path):
        nested = tmp_path / "skipme"
        nested.mkdir()
        (nested / "dirty.py").write_text("import random\nx = random.random()\n")
        code = richlint_main(
            [
                str(tmp_path),
                "--no-baseline",
                "--root",
                str(tmp_path),
                "--exclude",
                "skipme/*",
            ]
        )
        assert code == 0
        capsys.readouterr()

    def test_richnote_lint_subcommand_forwards(self, capsys):
        from repro.cli import main as richnote_main

        assert richnote_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RL501" in out


class TestOnRealTree:
    """The acceptance gate: the shipped tree is richlint-clean."""

    def test_src_tree_is_clean_with_empty_baseline(self):
        baseline = REPO_ROOT / "richlint-baseline.json"
        assert json.loads(baseline.read_text())["entries"] == []
        report = analyze_paths(
            [REPO_ROOT / "src" / "repro"], root=REPO_ROOT, baseline=baseline
        )
        assert not report.parse_errors
        assert report.findings == []

    def test_module_entry_point_runs_clean(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src/repro"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_delivery_engine_is_marked_conserving(self):
        from repro.core.delivery import DeliveryEngine

        source = (REPO_ROOT / "src/repro/core/delivery.py").read_text()
        assert "@conserves(" in source
        assert DeliveryEngine.deliver_batch  # marker is runtime-inert


class TestConservesMarker:
    def test_bare_and_invariant_forms_are_inert(self):
        @conserves
        def f(x):
            return x + 1

        @conserves("a == b + c")
        def g(x):
            return x * 2

        assert f(1) == 2
        assert g(2) == 4


class TestRegressionsFromRealFindings:
    """Each true positive richlint surfaced in src/ gets a pinned test."""

    def test_calibration_last_bin_closed_regardless_of_edge_rounding(self):
        # richlint RL301 flagged `upper == 1.0` in ml/calibration.py; the
        # fix keys the closing bin on its index.  p == 1.0 must always be
        # binned, including bin counts that make the edge grid inexact.
        import numpy as np

        from repro.ml.calibration import calibration_curve

        for n_bins in (3, 7, 10, 13):
            y = np.array([1, 0, 1, 1])
            p = np.array([1.0, 0.0, 0.5, 1.0])
            bins = calibration_curve(y, p, n_bins=n_bins)
            assert sum(b.count for b in bins) == len(p)
            top = bins[-1]
            assert top.count >= 2  # both p == 1.0 samples landed

    def test_quadratic_drift_bound_tolerance_documented_case(self):
        # The Hypothesis falsifying example that exposed the cancellation
        # error in test_drift_theory's original tolerance.
        from repro.core.lyapunov import quadratic_drift_bound

        q, served, arrived = 523645.0, 0.0, 1.778266177799848e-07
        q_next = max(0.0, q - served + arrived)
        realized = 0.5 * (q_next**2 - q**2)
        bound = quadratic_drift_bound(q, served, arrived)
        assert realized <= bound + 1e-9 * max(1.0, q * q)
