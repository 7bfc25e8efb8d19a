"""The five benchmark workloads.

Each workload turns the benchmark seed into inputs (`setup`, untimed), does
its fixed work through qadv's public functions (`run`, timed), and checks
the outputs (`check`). A check returns one ``(item, ok, detail)`` row per
item attempted: instances, trials, circuits, inputs, estimates and sweeps.
README.md in this directory says why each workload is in the set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qadv import bell, circuits, cli, propagation, sensing, sq
from qadv.pauli import PauliMap, PauliString

REFERENCES = Path(__file__).resolve().parent / "references.json"

#: Relative tolerance of the comparison with the stored wide/trotter outputs.
REFERENCE_RTOL = 1e-9

#: Largest disagree fraction a NO suite instance may show at s=32. At about
#: one disagreeing input in 300, five or more of 32 has probability ~1e-7.
NO_DISAGREE_MAX = 4 / 32

#: The decay check accepts |final mean - (2/5)^L| up to this many of the
#: report's own stated standard errors.
DECAY_STDERRS = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: Seconds one repetition takes at full size on a 2-core box; with
    #: ``--seconds`` it fixes how many repetitions a run makes.
    nominal_s: float
    sizes: dict
    smoke_sizes: dict
    setup: Callable[[int, dict, Path], dict]
    run: Callable[[dict, Callable[[object], None]], object]
    check: Callable[[dict, object], list[tuple[str, bool, str]]]
    #: Spans a traced run must record at least once.
    expected_spans: tuple[str, ...]
    #: Span that opens a new work item inside the program, and the map from
    #: its call arguments to the item id (None numbers items in call order).
    opener: str | None = None
    item_key: Callable | None = None
    layer_table: bool = False


def _random_bits(rng: np.random.Generator, width: int, count: int) -> list[str]:
    return ["".join(str(b) for b in rng.integers(0, 2, size=width)) for _ in range(count)]


# ---------------------------------------------------------------------------
# CLI workloads: suite and decay


def _run_cli(inputs: dict, mark) -> Path:
    try:
        cli.main(inputs["args"], standalone_mode=False)
    except SystemExit as exc:
        if exc.code:
            raise RuntimeError(f"qadv {inputs['args'][0]} exited with code {exc.code}") from None
    return inputs["out"]


def _cli_inputs(command: str, options: dict, seed: int, workdir: Path) -> dict:
    out = workdir / command
    args = [command]
    for key, value in options.items():
        args += [f"--{key}", str(value)]
    return {"args": args + ["--seed", str(seed), "--out-dir", str(out)], "out": out}


def _suite_setup(seed: int, z: dict, workdir: Path) -> dict:
    return {**_cli_inputs("suite", z, seed, workdir), "instances": z["yes"] + z["no"]}


def _suite_check(inputs: dict, out: Path) -> list[tuple[str, bool, str]]:
    """Every verdict matches its label and no instance violates the promise.

    YES instances must disagree on at least 31/32 of their inputs, as in
    criterion 4. NO instances may disagree on at most NO_DISAGREE_MAX of
    them, not criterion 4's 1/32: a NO input disagrees when a random 6-qubit
    circuit happens to push |<Z>| past 1/3, which about one input in 300
    does, so 2/32 occurs on a few percent of seeds (seed 23 of 0-29).
    """
    report = json.loads((out / "suite_report.json").read_text())
    rows = []
    for e in report["entries"]:
        df = e["report"]["disagree_fraction"]
        if e["label"] == "YES":
            ok = e["report"]["verdict"] == "advantage" and df >= 31 / 32
        else:
            ok = e["report"]["verdict"] == "no-advantage" and df <= NO_DISAGREE_MAX
        ok = ok and e["correct"] and not e["report"]["promise_violated"]
        rows.append((e["name"], ok, f"{e['label']} verdict={e['report']['verdict']} df={df}"))
    if len(rows) != inputs["instances"]:
        rows.append(("entries", False, f"{len(rows)} entries for {inputs['instances']} instances"))
    return rows


def _decay_setup(seed: int, z: dict, workdir: Path) -> dict:
    return _cli_inputs("decay", z, seed, workdir)


def _decay_check(inputs: dict, out: Path) -> list[tuple[str, bool, str]]:
    report = json.loads((out / "decay_report.json").read_text())
    expected = 0.4 ** report["layers"]
    gap = abs(report["final_mean"] - expected)
    ok = gap <= DECAY_STDERRS * report["final_stderr"]
    detail = (f"final mean {report['final_mean']:.6g} vs {expected:.6g}, "
              f"{gap / report['final_stderr']:.2f} stderr")
    # The check is on the mean over all trials, so it passes or fails them together.
    return [(f"trial{i}", ok, detail) for i in range(report["trials"])]


# ---------------------------------------------------------------------------
# API workloads: wide and trotter propagation


def _wide_setup(seed: int, z: dict, workdir: Path) -> dict:
    circuit_seed, input_seed = np.random.SeedSequence(seed).spawn(2)
    n = z["n"]
    return {
        "circuit": circuits.random_brickwork(n, z["L"], seed=circuit_seed),
        "observable": propagation.z_first(n),
        "cfg": propagation.PropagationConfig(k=z["k"]),
        "inputs": _random_bits(np.random.default_rng(input_seed), n, z["inputs"]),
        "reference": _reference("wide", seed, z),
    }


def _trotter_circuit(n: int, steps: int, rx: float, rz: float) -> circuits.Circuit:
    """Trotterized Ising-type evolution: per step an RX layer, then for each
    brick offset CNOT on the pairs, RZ on each pair's second qubit, CNOT."""
    layers: list[circuits.Layer] = []
    for _ in range(steps):
        layers.append(circuits.ElementaryLayer(
            tuple(circuits.Gate("RX", (q,), param=rx) for q in range(n))))
        for offset in (0, 1):
            pairs = [(q, q + 1) for q in range(offset, n - 1, 2)]
            cnots = circuits.ElementaryLayer(tuple(circuits.Gate("CNOT", p) for p in pairs))
            rzs = circuits.ElementaryLayer(
                tuple(circuits.Gate("RZ", (b,), param=rz) for _, b in pairs))
            layers += [cnots, rzs, cnots]
    return circuits.Circuit(n, tuple(layers))


def _trotter_setup(seed: int, z: dict, workdir: Path) -> dict:
    n = z["n"]
    magnetization = {PauliString(n, 0, 1 << q): 1 / math.sqrt(n) for q in range(n)}
    return {
        "circuit": _trotter_circuit(n, z["steps"], z["rx"], z["rz"]),
        "observable": PauliMap(n, magnetization),
        "cfg": propagation.PropagationConfig(k=z["k"]),
        "inputs": _random_bits(np.random.default_rng(seed), n, z["inputs"]),
        "reference": _reference("trotter", seed, z),
    }


def _propagate(inputs: dict, mark):
    mark("circuit")
    o0 = propagation.backpropagate(inputs["circuit"], inputs["observable"], inputs["cfg"])
    values = []
    for i, x in enumerate(inputs["inputs"]):
        mark(f"input{i}")
        values.append(propagation.evaluate_product_state(o0, x))
    return o0, values


def _propagate_check(inputs: dict, out) -> list[tuple[str, bool, str]]:
    o0, values = out
    k = inputs["cfg"].k
    norm0 = inputs["observable"].frobenius_normalized()
    norm = o0.frobenius_normalized()
    heaviest = max((p.weight() for p in o0.terms), default=0)
    rows = [("circuit", norm <= norm0 * (1 + 1e-12) and heaviest <= k,
             f"norm {norm:.12g} <= {norm0:.12g}, {len(o0)} terms, max weight {heaviest}")]
    ref = inputs["reference"]
    if ref["norm"] is not None:
        rows.append(("reference-norm", _close(norm, ref["norm"]), f"{norm!r} vs {ref['norm']!r}"))
    if ref["values"] is not None:
        for i, (got, want) in enumerate(zip(values, ref["values"], strict=True)):
            rows.append((f"input{i}", _close(got, want), f"{got!r} vs {want!r}"))
    return rows


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REFERENCE_RTOL * abs(want)


def _reference(workload: str, seed: int, sizes: dict) -> dict:
    """Stored outputs for this workload and seed: the final norm and the
    per-input values, each None where none is stored. A norm stored outside
    the per-seed entries does not depend on the seed (trotter's circuit and
    observable are fixed). Nothing is stored for other sizes."""
    ref = json.loads(REFERENCES.read_text())[workload]
    if ref["sizes"] != sizes:
        return {"norm": None, "values": None}
    entry = ref["seeds"].get(str(seed), {})
    return {"norm": entry.get("norm", ref.get("norm")), "values": entry.get("values")}


# ---------------------------------------------------------------------------
# API workload: sampling (sq, sensing, bell)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _sampling_setup(seed: int, z: dict, workdir: Path) -> dict:
    vec_seed, *seeds = np.random.SeedSequence(seed).spawn(7)
    rng = np.random.default_rng(vec_seed)
    x = _unit(rng.standard_normal(z["dim"]))
    # Queries with a spread of overlaps with x, from about 0 to about 0.9.
    ys = [_unit(t * x + _unit(rng.standard_normal(z["dim"])))
          for t in np.linspace(0.0, 2.0, z["estimates"])]
    return {"x": x, "ys": ys, "seeds": dict(zip(
        ("estimate", "ghz", "ghz_confirm", "separable_lo", "separable_hi", "socks"), seeds)),
        "sizes": z}


GHZ_THETA = 0.01
GHZ_PROBES = (2, 4, 8)
SEPARABLE_GAMMA = 0.2
SEPARABLE_THETAS = (0.02, 0.04)


def _sampling_run(inputs: dict, mark) -> dict:
    z, seeds = inputs["sizes"], inputs["seeds"]
    mark("tree")
    sqx = sq.build(inputs["x"])
    sqx.check_tree()
    rng = np.random.default_rng(seeds["estimate"])
    estimates = []
    for i, y in enumerate(inputs["ys"]):
        mark(f"estimate{i}")
        estimates.append(sq.inner_product_estimate(sqx, y, z["samples"], rng))
    # Criterion 7: noiseless GHZ detection at T = ceil(pi/(N theta)).
    mark("ghz-sweep")
    grid = [{"N": n, "theta": GHZ_THETA, "gamma": 0.0,
             "T": math.ceil(math.pi / (n * GHZ_THETA))} for n in GHZ_PROBES]
    ghz = sensing.scaling_sweep("ghz", grid, trials=z["ghz_trials"], seed=seeds["ghz"])
    t_star = {n: sensing.minimal_ghz_uses(n, GHZ_THETA, 0.9) for n in GHZ_PROBES}
    confirm = sensing.scaling_sweep(
        "ghz", [{"N": 4, "theta": GHZ_THETA, "gamma": 0.0, "T": t_star[4]}],
        trials=z["ghz_trials"], seed=seeds["ghz_confirm"])[0]
    # Criterion 8: separable N*T at the noisy floor for two signal angles.
    mark("separable-scan")
    nts = {theta: sensing.minimal_separable_nt(
        theta, SEPARABLE_GAMMA, trials=z["separable_trials"], seed=seeds[key])[0]
        for theta, key in zip(SEPARABLE_THETAS, ("separable_lo", "separable_hi"))}
    mark("bell")
    socks = bell.socks_simulation(z["socks_trials"], np.random.default_rng(seeds["socks"]))
    table = bell.strategy_table()
    return {"sqx": sqx, "estimates": estimates, "ghz": ghz, "t_star": t_star,
            "confirm": confirm, "nts": nts, "socks": socks, "table": table}


def _sampling_check(inputs: dict, out: dict) -> list[tuple[str, bool, str]]:
    sqx = out["sqx"]  # check_tree already passed in the timed run, or it raised
    rows = [("tree", sqx.dim == len(inputs["x"]) and abs(sqx.tree[1] - 1.0) <= 1e-9,
             f"dim {sqx.dim}, root {sqx.tree[1]!r}")]
    for i, (y, est) in enumerate(zip(inputs["ys"], out["estimates"])):
        exact = float(inputs["x"] @ y)
        gap = abs(est.estimate - exact)
        rows.append((f"estimate{i}", gap <= 5 * est.stderr,
                     f"{est.estimate:.6g} vs {exact:.6g}, {gap / est.stderr:.2f} stderr"))
    t = out["t_star"]
    ghz_ok = (all(c.success >= 0.95 for c in out["ghz"])
              and abs(t[4] - t[2] / 2) <= 1 and abs(t[8] - t[4] / 2) <= 1
              and out["confirm"].success >= 0.88)
    rows.append(("ghz-sweep", ghz_ok, f"successes {[c.success for c in out['ghz']]}, "
                 f"minimal T {t}, confirm {out['confirm'].success}"))
    # Criterion 8's factor-4 condition. Its log-log slope condition
    # (|slope + 2| <= 0.3) holds at the criterion's seed but failed on 18 of
    # seeds 0-39 here (slope -2.03 +- 0.43 at 600 trials), so the slope is
    # reported, not checked.
    nts = out["nts"]
    lo, hi = SEPARABLE_THETAS
    slope = (math.log(nts[lo]) - math.log(nts[hi])) / (math.log(lo) - math.log(hi))
    floor_ok = all(SEPARABLE_GAMMA / th**2 / 4 <= nt <= SEPARABLE_GAMMA / th**2 * 4
                   for th, nt in nts.items())
    rows.append(("separable-scan", floor_ok, f"NT* {nts}, slope {slope:.3f}"))
    best = max(v for _, v in out["table"])
    rows.append(("strategy-table", best == 2 and len(out["table"]) == 16, f"max {best}"))
    quantum = bell.quantum_single_basis_distribution()
    joint = out["socks"].joint
    tv = 0.5 * sum(abs(joint.get(k, 0.0) - quantum.get(k, 0.0)) for k in set(joint) | set(quantum))
    rows.append(("socks", tv < 0.01, f"TV {tv:.5f}"))
    return rows


# ---------------------------------------------------------------------------

_PROPAGATION_SPANS = (
    "propagation.backpropagate", "propagation.evaluate_product_state",
    "pauli.conjugate_layer", "pauli.transfer_matrix", "pauli.PauliMap.project_weight",
)
_CLI_SPANS = (
    "cli.main", "circuits.random_brickwork", "circuits.haar_two_qubit",
    "propagation.backpropagate", "propagation.z_first", "pauli.conjugate_layer",
    "pauli.transfer_matrix", "pauli.PauliMap.project_weight",
    "manifest.write_json_report", "manifest.write_csv_table", "manifest.write_manifest",
)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="suite",
        nominal_s=8.0,
        sizes={"yes": 2, "no": 2, "n": 6, "m": 2, "copies": 3, "L": 78, "s": 32, "k": 1,
               "jobs": 1},
        smoke_sizes={"yes": 1, "no": 1, "n": 6, "m": 2, "copies": 3, "L": 78, "s": 4, "k": 1,
                     "jobs": 1},
        setup=_suite_setup,
        run=_run_cli,
        check=_suite_check,
        expected_spans=(
            *_CLI_SPANS, "detection.default_instances", "detection.instance_suite",
            "detection.verify_promise", "detection.detect", "circuits.build_cnew",
            "statevector.output_prob", "statevector.apply_circuit",
            "propagation.block_unitary", "propagation.evaluate_product_state",
            "pauli.conjugate_dense",
        ),
        opener="detection.verify_promise",
        item_key=lambda inst: inst.name,
    ),
    Workload(
        name="decay",
        nominal_s=8.0,
        sizes={"n": 8, "L": 10, "trials": 300, "jobs": 1},
        smoke_sizes={"n": 8, "L": 10, "trials": 40, "jobs": 1},
        setup=_decay_setup,
        run=_run_cli,
        check=_decay_check,
        expected_spans=(*_CLI_SPANS, "detection.decay_experiment"),
        opener="circuits.random_brickwork",
    ),
    Workload(
        name="wide",
        nominal_s=6.5,
        sizes={"n": 24, "L": 14, "k": 2, "inputs": 8},
        smoke_sizes={"n": 12, "L": 6, "k": 2, "inputs": 8},
        setup=_wide_setup,
        run=_propagate,
        check=_propagate_check,
        expected_spans=_PROPAGATION_SPANS,
        layer_table=True,
    ),
    Workload(
        name="trotter",
        nominal_s=6.5,
        sizes={"n": 24, "steps": 10, "rx": 0.9, "rz": 0.7, "k": 4, "inputs": 8},
        smoke_sizes={"n": 12, "steps": 3, "rx": 0.9, "rz": 0.7, "k": 4, "inputs": 8},
        setup=_trotter_setup,
        run=_propagate,
        check=_propagate_check,
        expected_spans=_PROPAGATION_SPANS,
        layer_table=True,
    ),
    Workload(
        name="sampling",
        nominal_s=4.0,
        sizes={"dim": 2**20, "estimates": 4, "samples": 10**6, "ghz_trials": 2000,
               "separable_trials": 600, "socks_trials": 10**6},
        smoke_sizes={"dim": 2**14, "estimates": 4, "samples": 10**4, "ghz_trials": 2000,
                     "separable_trials": 600, "socks_trials": 10**4},
        setup=_sampling_setup,
        run=_sampling_run,
        check=_sampling_check,
        expected_spans=(
            "sq.build", "sq.SQVector.check_tree", "sq.sample_many", "sq.inner_product_estimate",
            "sensing.scaling_sweep", "sensing.minimal_ghz_uses", "sensing.minimal_separable_nt",
            "bell.socks_simulation", "bell.strategy_table",
        ),
    ),
)}
