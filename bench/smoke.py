"""Smoke test of the benchmark at reduced sizes.

    python3 bench/smoke.py

Runs every workload once untraced and once traced with ``--smoke``, and
checks that each run exits 0 with a correct result whose last line carries
every metric BENCHMARK.json names, with its unit and a numeric value. It
also runs the benchmark in a directory holding only BENCHMARK.json and the
benchmark's own files, where it must fail without printing a result. Takes
about a minute on a 2-core box; exits 1 if anything is wrong.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _problems(proc: subprocess.CompletedProcess, want: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)}"]
    out = []
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        out.append(f"correct={result['correct']} attempted={result['attempted']} "
                   f"failed={result['failed']}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        out.append(f"metrics missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            out.append(f"{name} has non-numeric value {v!r}")
    return out


def _bare_checkout_fails() -> list[str]:
    """The benchmark without the program must fail and print no result."""
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "wide", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            problems = _problems(_run(ROOT, w["name"], trace), want)
            failures += bool(problems)
            status = "; ".join(problems) or f"ok, {len(want)} metrics"
            print(f"{w['name']} trace={trace}: {status}", flush=True)
    problems = _bare_checkout_fails()
    failures += bool(problems)
    print(f"bare checkout: {'; '.join(problems) or 'ok, fails without a result'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
