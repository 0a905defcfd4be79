"""Smoke tests: every example script must run end to end.

Examples are a deliverable; these tests execute each one in a subprocess
(with scaled-down arguments where supported) and check for the expected
headline output.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: float = 240.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "RichNote" in out
        assert "FIFO-L3" in out
        assert "5-fold CV" in out

    def test_spotify_week_scaled_down(self):
        out = run_example(
            "spotify_week.py", "--budgets", "2,20", "--users", "4"
        )
        assert "Fig 3(a)" in out
        assert "Fig 5(b)" in out
        assert "RichNote" in out

    def test_presentation_survey(self):
        out = run_example("presentation_survey.py")
        assert "useful after skyline pruning" in out
        assert "logarithmic" in out
        assert "metadata+40s@160kbps" in out

    def test_pubsub_broker(self):
        out = run_example("pubsub_broker.py")
        assert "queued at the broker until the round boundary: 4" in out
        assert "round 1: flushed 4;" in out

    def test_multimedia_feeds(self):
        out = run_example("multimedia_feeds.py")
        assert "video 15s@480p" in out
        assert "album_release" in out

    def test_live_system(self):
        out = run_example("live_system.py")
        assert "unlimited" in out
        assert "20/round" in out
