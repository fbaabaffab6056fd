"""Fast self-test of the benchmark: every workload, both modes, tiny sizes.

    python3 perfbench/selftest.py

Runs each workload in BENCHMARK.json in a fresh process with ``--tiny``,
once untraced and once traced, and checks that every run exits 0,
reports correct outputs, and prints every metric BENCHMARK.json names
for that mode, each with its declared unit.  Then checks that the
benchmark refuses to run, without printing a result, in a directory
holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _result(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_run(spec, workload: str, trace: int) -> list:
    group = "per_layer" if trace else "end_to_end"
    command = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = f"{workload} --trace {trace}"
    result = _result(proc.stdout)
    if proc.returncode != 0 or result is None:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                f"{proc.stderr[-2000:]}"]
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: outputs not correct: {result}")
    expected = {m["name"]: m["unit"] for m in spec[group]}
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append(f"{where}: metrics differ from BENCHMARK.json "
                        f"{group}: missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        metric = got.get(name)
        if metric is not None and (
                metric.get("unit") != unit
                or not isinstance(metric.get("value"), (int, float))):
            problems.append(f"{where}: {name} = {metric}, unit should be {unit}")
    return problems


def check_bare_directory(spec) -> list:
    """Without the simulator sources the benchmark must fail, silently."""
    bare = os.path.join(ROOT, ".perfbench", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = subprocess.run(
            spec["command"] + ["--workload", workload, "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or _result(proc.stdout) is not None:
        return [f"bare directory: exit {proc.returncode}, stdout "
                f"{proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_bare_directory(spec)
    print(f"bare directory refused: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
