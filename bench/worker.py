"""One measuring process of the benchmark; run.py starts it.

It imports qadv from the checkout's ``src``, builds the workload's inputs
from the seed, stamps the moment it is ready (the end of set-up), then runs
the timed repetitions and checks every output. Calibration ticks run during
each untraced repetition (see calibrate.py). With ``--setup-only`` it
stops after the stamp. With ``--trace 1`` it adds one traced repetition
after the untraced ones and writes the spans, per-layer metrics and (for the
propagation workloads) the per-declared-layer table to ``out/``.

The result goes to ``--result`` as JSON; the worker's standard output is
left to the program under test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qadv  # noqa: E402
from qadv import pauli  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _timed(wl: workloads.Workload, inputs: dict, mark,
           ticking: bool) -> tuple[float, float, list[float], object]:
    """One repetition: its wall and CPU seconds, the calibration ticks taken
    during it (see calibrate.py; none unless ``ticking``), and its output.
    The times exclude the ticks."""
    # Every repetition starts from the caches a fresh process has, so a
    # later repetition does not reuse what an earlier one computed.
    reset = getattr(pauli, "clear_transfer_cache", None)
    if reset is not None:
        reset()
    gc.collect()
    with calibrate.ticking() if ticking else nullcontext([]) as ticks:
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        out = wl.run(inputs, mark)
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
    spent = sum(ticks[1:])
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return t1 - t0 - spent, cpu - spent, ticks, out


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qadv").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, sizes: dict, reps: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "repetitions": reps,
        "sizes": sizes,
    }


def _trace_checks(wl, metrics: dict, tracer: tracing.Tracer, wall: float) -> list:
    rows = [(f"span {name}", False, "wrapped function not found") for name in tracer.missing]
    rows += [(f"span {name}", False, "recorded no calls")
             for name in wl.expected_spans if not metrics.get(f"{name}.calls")]
    self_sum = sum(metrics.get(f"{m}.self_s", 0.0) for m in tracing.MODULES)
    rows.append(("self-time", self_sum <= wall,
                 f"module self times sum to {self_sum:.6f} s, traced wall {wall:.6f} s"))
    return rows


def measure(wl: workloads.Workload, inputs: dict, args, sizes: dict) -> dict:
    reps = max(1, round(args.seconds / wl.nominal_s))
    walls, cpus, ticks, checks = [], [], [], []
    for _ in range(reps):
        wall, cpu, rep_ticks, out = _timed(wl, inputs, lambda item: None, ticking=True)
        walls.append(wall)
        cpus.append(cpu)
        ticks.append(rep_ticks)
        checks += wl.check(inputs, out)
    result = {
        "wall_s": walls,
        "cpu_s": cpus,
        "ticks_s": ticks,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "provenance": provenance(args, sizes, reps),
    }
    if args.trace:
        tracer = tracing.Tracer(wl.opener, wl.item_key)
        tracer.item = wl.name
        tracer.install()
        try:
            wall, _, _, out = _timed(wl, inputs, lambda item: setattr(tracer, "item", item),
                                     ticking=False)
        finally:
            tracer.uninstall()
        checks += wl.check(inputs, out)
        metrics = tracing.summarize(tracer.spans)
        metrics["trace.wall_s"] = wall
        # Against the last untraced repetition: it ran just before and, like
        # the traced one, after the process had warmed up.
        metrics["trace.overhead_s"] = wall - walls[-1]
        metrics["trace.spans"] = len(tracer.spans)
        checks += _trace_checks(wl, metrics, tracer, wall)
        result["trace"] = metrics
        _write_trace(args, result["provenance"], metrics, tracer,
                     tracing.layer_table(tracer.spans) if wl.layer_table else None)
    result["checks"] = [(str(item), bool(ok), str(detail)) for item, ok, detail in checks]
    return result


def _write_trace(args, prov: dict, metrics: dict, tracer: tracing.Tracer, layers) -> None:
    t0 = tracer.spans[0][tracing.START] if tracer.spans else 0.0
    body = {
        "provenance": prov,
        "metrics": metrics,
        "layers": layers,
        "span_fields": tracing.SPAN_FIELDS,
        # Times in seconds from the first span's start; digests as hex.
        "spans": [[name, parent, item, start - t0, end - t0,
                   {k: (v.hex() if isinstance(v, bytes) else v) for k, v in (counts or {}).items()}]
                  for name, parent, item, start, end, counts in tracer.spans],
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(body, separators=(",", ":")) + "\n")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(qadv.__file__).resolve().parents:
        raise SystemExit(f"qadv was imported from {qadv.__file__}, not from {src}")
    wl = workloads.WORKLOADS[args.workload]
    sizes = wl.smoke_sizes if args.smoke else wl.sizes
    workdir = OUT / f"work-{os.getpid()}"
    try:
        inputs = wl.setup(args.seed, sizes, workdir)
        result = {"ready": time.monotonic()}
        if not args.setup_only:
            result.update(measure(wl, inputs, args, sizes))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
