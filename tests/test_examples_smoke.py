"""Smoke tests: the model-based examples must run end to end.

The search-heavy examples (quickstart, comprehensive_analysis,
bootstopping_study, analysis_types) take minutes
and are exercised by the integration tests at smaller scale; here we run
the fast, model-based ones as real subprocesses.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 120) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestModelExamples:
    def test_scaling_study(self):
        out = run_example("scaling_study.py")
        assert "Fig 1" in out
        assert "Fig 4" in out
        assert "fastest configuration per core count" in out

    def test_scaling_study_other_dataset(self):
        out = run_example("scaling_study.py", "19436")
        assert "19436 patterns" in out

    def test_cluster_comparison(self):
        out = run_example("cluster_comparison.py")
        assert "Triton PDAF" in out
        assert "Advisor" in out
        # The advisor must put all 32 threads on Triton at 64 cores.
        triton_line = [l for l in out.splitlines()
                       if "Triton" in l and "procs" in l][0]
        assert "32 threads" in triton_line

    def test_examples_exist_and_documented(self):
        """Every example carries a run-instruction docstring."""
        for path in sorted(EXAMPLES.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert text.startswith('"""'), path.name
            assert "Run:" in text, f"{path.name} lacks run instructions"
