"""qadv benchmark: one seeded run of one workload, or of each in turn.

    python3 bench/run.py --workload suite --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root (or a checkout of it). With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics
(wall_ref_s, cpu_ref_s, peak_rss_mb, setup_s, pass_rate); with ``--trace 1``
it carries the per-layer metrics instead. Both are listed, with units, in
BENCHMARK.json. ``--workload all`` runs every workload in turn and prints
one line per workload with every metric by name and unit. The full result,
with provenance, every raw sample and every check, is written to
``bench/out/result-<workload>-seed<seed>-trace<0|1>.json``.

Every measurement happens in fresh child processes (worker.py), so the
workload's peak RSS is its own. The run and its workers are pinned to one
CPU. The three end-to-end times are reported at the reference host speed
(see calibrate.py): the measuring worker takes calibration ticks during
each repetition, and this process takes them around the set-up probes. Set-up time is measured from outside: the time
from starting a worker to the moment it has imported qadv and built its
inputs, taken SETUP_PROBES times and reported as the median.

The run exits 0 only when every output passed its check. It exits 2,
printing no result, when the checkout holds no qadv sources.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 7
#: Calibration ticks taken before the first set-up probe and after each.
TICKS_PER_PROBE = 200
#: Every worker must have finished by this many seconds after start.
DEADLINE_S = 170.0


def _worker(args, workload: str, *extra: str, deadline: float) -> tuple[float, dict]:
    """Start a worker and wait for it; returns its start time and result."""
    result = OUT / f"worker-{workload}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result), *extra]
    if args.smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    try:
        # The program's own output goes to stderr so stdout ends with the result.
        subprocess.run(cmd, stdout=sys.stderr, check=True, cwd=ROOT,
                       timeout=max(1.0, deadline - started))
        return started, json.loads(result.read_text())
    finally:
        result.unlink(missing_ok=True)


def run_workload(args, workload: str, spec: dict) -> dict | None:
    """One run of one workload: the result line's object, or None if a
    worker failed. Writes the full record to out/."""
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup, setup_ticks = [], [calibrate.tick() for _ in range(TICKS_PER_PROBE)]
        for _ in range(SETUP_PROBES):
            started, probe = _worker(args, workload, "--setup-only", deadline=deadline)
            setup.append(probe["ready"] - started)
            setup_ticks += [calibrate.tick() for _ in range(TICKS_PER_PROBE)]
        _, res = _worker(args, workload, deadline=deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: worker failed: {exc}", file=sys.stderr)
        return None

    checks = res["checks"]
    failed = [c for c in checks if not c[1]]
    for item, _, detail in failed:
        print(f"bench: {workload}: check failed: {item}: {detail}", file=sys.stderr)
    if args.trace:
        values = {m["name"]: res["trace"].get(m["name"], 0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "wall_ref_s": statistics.median(map(calibrate.scaled, res["wall_s"], res["ticks_s"])),
            "cpu_ref_s": statistics.median(map(calibrate.scaled, res["cpu_s"], res["ticks_s"])),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
            "setup_s": calibrate.scaled(statistics.median(setup), setup_ticks),
            "pass_rate": 1 - len(failed) / len(checks),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    summary = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {**summary, "provenance": res["provenance"], "samples": {
        "wall_s": res["wall_s"], "cpu_s": res["cpu_s"], "ticks_s": res["ticks_s"],
        "setup_s": setup, "setup_ticks_s": setup_ticks}, "checks": checks}
    (OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("provenance:", json.dumps(res["provenance"]))
    return summary


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*names, "all"],
                   help="one workload, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes, for checking the harness itself")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "qadv" / "__init__.py").is_file():
        print(f"bench: no qadv sources under {ROOT / 'src'}; run from a qadv checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    calibrate.pin()

    if args.workload != "all":
        summary = run_workload(args, args.workload, spec)
        if summary is None:
            return 1
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    ok = True
    for name in names:
        summary = run_workload(args, name, spec)
        ok = ok and summary is not None and summary["correct"]
        if summary is not None:
            print(f"{name}: " + ", ".join(
                f"{k} = {m['value']:.6g} {m['unit']}" for k, m in summary["metrics"].items()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
