"""Smoke test of the benchmark itself, at a tiny quota.

Run from the repository root (about a minute on two cores)::

    python3 langbench/smoke.py

For every workload, untraced and traced, it runs ``run.py`` for one short
iteration and checks that

* the output checks pass (``correct``, nothing failed);
* the result carries exactly the metric names and units BENCHMARK.json
  declares for that mode;
* the printed table shows each metric with its unit;
* the layer budget adds up (traced runs).

It also checks that a run whose output differs from the reference is
counted as failed, and that the benchmark exits non-zero without a result
in a directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 3
QUOTA = 2


def run_benchmark(workload: str, trace: int, cwd: Path | None = None,
                  ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--quota", str(QUOTA)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(workload: str, trace: int, declared: dict, problems: list[str]) -> None:
    where = f"{workload} --trace {trace}"
    completed = run_benchmark(workload, trace)
    if completed.returncode != 0:
        problems.append(f"{where}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
        return
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: output checks failed\n" + "\n".join(lines[-40:]))
        return
    metrics = result["metrics"]
    expected = declared["per_layer" if trace else "end_to_end"]
    got = {name: entry["unit"] for name, entry in metrics.items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} != declared {expected}")
    table = "\n".join(lines[:-1])
    for name, unit in expected.items():
        if not re.search(rf"^# {re.escape(name)} +\S+  {re.escape(unit)}$", table, re.M):
            problems.append(f"{where}: table lacks {name} with unit {unit}")
    if trace:
        values = {name: entry["value"] for name, entry in metrics.items()}
        budget = sum(values[name] for name in run.SELF_METRICS.values())
        budget += values["unattributed_s"]
        if values["unattributed_s"] < 0 or \
                abs(budget - values["traced_wall_s"]) > 1e-6 * values["traced_wall_s"]:
            problems.append(f"{where}: layer budget {budget} != traced wall"
                            f" {values['traced_wall_s']}")


def check_failed_output(problems: list[str]) -> None:
    """A run whose bytes differ from the reference must count as failed."""
    scratch = Path.cwd() / run.WORK_DIR / "smoke-output"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        output = scratch / "out.jsonl"
        output.write_text("{}\n")
        process = run.Process(code=0, wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0,
                              timed_out=False, log=scratch / "log")
        workload = run.Workload(None, {"dataset": run.sha256(output) + "0"})
        if workload.check_dataset(run.Run(process), output).failure is None:
            problems.append("a dataset differing from the reference passed its check")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check_bare_directory(problems: list[str]) -> None:
    """Without the program's sources the benchmark must fail, printing nothing."""
    bare = Path.cwd() / run.WORK_DIR / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(Path.cwd() / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "analyze",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        if completed.returncode == 0 or completed.stdout.strip():
            problems.append("a bare directory did not fail cleanly:"
                            f" exit {completed.returncode}, stdout {completed.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    declared_file = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    declared = {kind: {entry["name"]: entry["unit"] for entry in declared_file[kind]}
                for kind in ("end_to_end", "per_layer")}
    if [entry["name"] for entry in declared_file["workloads"]] != list(run.WORKLOADS):
        print("BENCHMARK.json declares other workloads than run.py runs")
        return 1
    problems: list[str] = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace, declared, problems)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not problems else 'problems so far'}", flush=True)
    check_failed_output(problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
