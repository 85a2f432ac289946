#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, five workloads.

    python benchmarks/e2e/run.py [--workload NAME] [--seed 42] [--seconds N]
                                 [--trace [0|1]] [--smoke] [--output FILE]

Each workload runs in a fresh subprocess of this script (``--worker``), so
``peak_rss_mb`` is per workload and no cache survives from one workload to
the next.  The worker generates its inputs from ``--seed``, sets up, runs
warm-up ops and then measured ops for ``--seconds`` (an *op* is one
complete linkage run: ``JobHandle.run()``, or ``POST /jobs`` to the last
byte of ``GET /jobs/{id}/matches``), and checks every op's output with
:mod:`oracle`.  The untraced pass (``--trace 0``, the default) yields the
end-to-end metrics; the traced pass (``--trace`` / ``--trace 1``) is a
separate run that yields the per-layer metrics of :mod:`layers` and the
span file.  ``BENCHMARK.json`` at the repository root names every metric,
its unit and its regression bound; this script fills in the values.

Output: one ``workload metric value unit`` line per metric, a JSON
document (``--output``, default ``benchmarks/e2e/out/results.json``, with
``spans.json`` beside it after a traced pass), and as the last line of
standard output one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is non-zero when any op failed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: A worker that has not finished by then is killed (the contract allows 180 s).
WORKER_TIMEOUT_S = 170.0


def exit_on_sigterm() -> None:
    """Make SIGTERM unwind like Ctrl-C does, so that ``finally`` clauses run:
    the driver's reap its worker and remove the work directory, the
    worker's stop its server and unlink its shared-memory blocks."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


def kill_group(process: subprocess.Popen) -> None:
    """End the worker's whole session: server, pool workers, CLI children.

    A worker that is still running gets SIGTERM and a moment to clean up
    after itself before the group is killed.
    """
    try:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGTERM)
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def run_worker(name: str, args, work_dir: Path) -> Dict[str, object]:
    """One workload in a fresh subprocess; returns the worker's report."""
    command = [
        sys.executable, str(HERE / "run.py"), "--worker",
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(work_dir),
    ]
    if args.smoke:
        command.append("--smoke")
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), environment.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        env=environment,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        kill_group(process)
    if process.returncode != 0:
        raise RuntimeError(f"the {name} worker exited with {process.returncode}")
    return json.loads(stdout.splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    completed = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
    )
    return completed.stdout.strip() or "unknown"


def environment_block(args) -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy_available": importlib.util.find_spec("numpy") is not None,
        "gram_verification_env": os.environ.get("REPRO_GRAM_VERIFICATION"),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def declared_metrics(spec: Dict[str, object], traced: bool) -> Dict[str, str]:
    """Metric name -> unit for the pass, as ``BENCHMARK.json`` declares them.

    ``failed_fraction`` is not in the file (the driver's ``attempted`` and
    ``failed`` carry it); it is added to the end-to-end set here.
    """
    rows = spec["per_layer"] if traced else spec["end_to_end"]
    units = {row["name"]: row["unit"] for row in rows}
    if not traced:
        units["failed_fraction"] = "fraction"
    return units


def parse_args(argv, spec) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long the measured phase of one workload runs")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="run the traced (per-layer) pass")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 10 and a fixed, small number of ops")
    parser.add_argument("--output", type=Path, default=HERE / "out" / "results.json")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(args, whys: Dict[str, str]) -> Dict[str, object]:
    """Run each selected workload in its own worker; the raw result document."""
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    document = {
        "benchmark": "e2e",
        "claim": None,
        "pass": "traced" if args.trace else "untraced",
        "environment": environment_block(args),
        "workloads": {},
    }
    try:
        for name in [args.workload] if args.workload else list(whys):
            report = run_worker(name, args, work_dir)
            report["why"] = whys[name]
            document["workloads"][name] = report
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return document


def report(document, units: Dict[str, str], traced: bool) -> Dict[str, object]:
    """Print the metric lines, attach units to the document's metrics and
    return the driver's result object."""
    attempted = failed = 0
    correct = True
    result_metrics = {}
    single = len(document["workloads"]) == 1
    for name, workload in document["workloads"].items():
        attempted += workload["attempted"]
        failed += workload["failed"]
        for failure in workload["failures"]:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        values = workload["metrics"]
        if set(values) != set(units):
            raise RuntimeError(
                f"{name} emitted {sorted(set(values) ^ set(units))} "
                f"differently from BENCHMARK.json"
            )
        workload["bypassed"] = sorted(m for m in units if values[m] is None)
        workload["metrics"] = {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()
        }
        for metric, unit in units.items():
            value = values[metric]
            note = f" n={len(workload['samples']['op_s'])}" if metric == "op_p50_s" else ""
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{name} {metric} {shown} {unit}{note}")
            if metric == "failed_fraction":
                continue  # the result object's attempted / failed carry it
            if value is None and not traced:
                correct = False  # every end-to-end metric is always defined
            # The result object carries numbers only: a layer the workload
            # bypasses reads 0 there and is named under "bypassed" in the
            # document.
            result_metrics[metric if single else f"{name}.{metric}"] = {
                "value": 0 if value is None else value,
                "unit": unit,
            }
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    exit_on_sigterm()
    if args.worker:
        # Only the worker imports the program under test (and needs src/
        # on its path, which run_worker arranges).
        import layers
        import worker
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        run_pass = layers.traced_pass if args.trace else worker.untraced_pass
        print(json.dumps(run_pass(workload, args)))
        return 0
    document = measure(args, {w["name"]: w["why"] for w in spec["workloads"]})
    spans = {
        name: workload.pop("spans", None)
        for name, workload in document["workloads"].items()
    }
    result = report(document, declared_metrics(spec, bool(args.trace)), bool(args.trace))
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    if args.trace:
        spans_path = args.output.with_name("spans.json")
        spans_path.write_text(json.dumps(spans) + "\n", encoding="utf-8")
        print(f"wrote {spans_path}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
