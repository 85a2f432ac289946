"""Smoke tests for the example scripts.

The examples are part of the public surface of the repository; each one must
run end-to-end (at a reduced scale where it accepts arguments) and print its
headline output.
"""

import pathlib
import subprocess
import sys

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=300):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_examples_directory_contents(self):
        names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert {
            "quickstart.py",
            "accidents_mashup.py",
            "streaming_linkage.py",
            "streaming_jobs.py",
            "tuning_exploration.py",
            "runtime_policies.py",
            "serve_and_stream.py",
        }.issubset(names)

    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "adaptive" in output
        assert "recall" in output
        assert "streamed through the jobs API" in output

    def test_streaming_jobs(self):
        output = run_example("streaming_jobs.py")
        assert "first match" in output
        assert "cancelled after" in output
        assert "cancelled=True" in output
        assert "process backend" in output
        assert "sharded stream" in output

    def test_accidents_mashup_reduced_scale(self):
        output = run_example("accidents_mashup.py", "400", "250")
        assert "completeness / cost trade-off" in output
        assert "efficiency" in output

    def test_streaming_linkage(self):
        output = run_example("streaming_linkage.py")
        assert "finished in state" in output
        assert "state transitions" in output

    def test_serve_and_stream(self):
        output = run_example("serve_and_stream.py")
        assert "server listening on http://" in output
        assert "first streamed match" in output
        assert "finished: result_size=" in output
        assert "DELETE /jobs/" in output
        assert "server stopped cleanly" in output

    def test_runtime_policies(self):
        output = run_example("runtime_policies.py")
        assert "mar" in output
        assert "budget-greedy" in output
        assert "after-1000" in output
        assert "event bus:" in output
