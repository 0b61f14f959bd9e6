"""Smoke tests: the example scripts must run end to end.

The quickstart and manager examples are fast enough for every test
run; the flow-heavy scenario examples are marked slow (they take
minutes and are exercised by the benchmark suite's identical code
path anyway).
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 600) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestFastExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "speed-up" in out
        assert "equivalent" in out
        assert "MISMATCH" not in out

    def test_reconfiguration_manager(self):
        out = run_example("reconfiguration_manager.py")
        assert "Parameterised configuration" in out
        assert "bits rewritten" in out
        assert "Frame model" in out


@pytest.mark.slow
class TestScenarioExamples:
    def test_regexp_multimode(self):
        out = run_example("regexp_multimode.py", timeout=1200)
        assert "MISMATCH" not in out
        assert "speed-up" in out

    def test_fir_multimode(self):
        out = run_example("fir_multimode.py", timeout=1200)
        assert "MISMATCH" not in out
        assert "33%" in out or "of the generic" in out

    def test_mcnc_multimode(self):
        out = run_example("mcnc_multimode.py", timeout=1200)
        assert "Specialisation checks passed" in out

    def test_nmode_multimode(self):
        out = run_example("nmode_multimode.py", timeout=1200)
        assert "all four specialisations" in out
        assert "onehot" in out

    def test_visualize_implementation(self):
        out = run_example("visualize_implementation.py",
                          timeout=1200)
        assert "Tunable-circuit occupancy" in out
        assert "merged_routing.svg" in out
        assert "## Reconfiguration cost" in out

    # The paper's tables come from `repro experiments` (a campaign
    # client; see tests/test_cli.py and the nightly paper-tables
    # job), not from an example script.
