"""Single command-line entry point exposing every experiment.

Every subcommand except ``rerun`` is one row of the ``_COMMANDS`` table:
name, help text, and options, each with its flag, config key, default and
type. The table is the only place defaults live; a config file overrides
them, and explicit flags override the config file. Keys without a flag
(``drop_tolerance``, ``cells``) can only be set by a config file.

Outputs land in --out-dir (or $QADV_OUTPUT_DIR): a JSON report, CSV
tables, and a run manifest. Exit codes: 2 config/schema error, 3 runtime
invariant violation, 4 resource limit exceeded.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from typing import NamedTuple

import click
import numpy as np

from . import bell, circuits, detection, manifest, propagation, sensing, sq, statevector
from .errors import ConfigError, InvariantViolation, ResourceLimitExceeded


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def _resolve(defaults: dict, file_config: dict, flags: dict) -> dict:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    out = dict(defaults)
    unknown = set(file_config) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out.update(file_config)
    out.update({k: v for k, v in flags.items() if v is not None})
    return out


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, ValueError) as exc:
            # ValueError reaching the CLI boundary means a bad parameter value.
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except InvariantViolation as exc:
            click.echo(f"invariant violation: {exc}", err=True)
            sys.exit(3)
        except ResourceLimitExceeded as exc:
            click.echo(f"resource limit: {exc}", err=True)
            sys.exit(4)

    return wrapper


def _execute(subcommand: str, config: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()
    mhash = manifest.manifest_hash(subcommand, config)
    payload, outputs = _EXECUTORS[subcommand](config, out_dir, mhash)
    duration = time.perf_counter() - started
    m = manifest.RunManifest(
        subcommand=subcommand,
        config=config,
        seed=config.get("seed"),
        version=manifest.ARTIFACT_VERSION,
        manifest_hash=mhash,
        outputs=outputs,
        duration_s=duration,
    )
    mpath = os.path.join(out_dir, f"{subcommand.replace('-', '_')}_manifest.json")
    manifest.write_manifest(mpath, m)
    click.echo(f"{subcommand}: wrote {', '.join(outputs)} (manifest {mpath})")
    for line in payload.get("summary_lines", []):
        click.echo(f"  {line}")


# ---------------------------------------------------------------------------
# Executors: resolved config -> (report payload, output paths)


def _exec_decay(config: dict, out_dir: str, mhash: str):
    result = detection.decay_experiment(
        n=config["n"],
        layers=config["L"],
        trials=config["trials"],
        seed=config["seed"],
        jobs=config["jobs"],
        drop_tolerance=config["drop_tolerance"],
    )
    report = result.to_dict()
    jpath = os.path.join(out_dir, "decay_report.json")
    cpath = os.path.join(out_dir, "decay_layers.csv")
    manifest.write_json_report(jpath, report, mhash)
    rows = [
        (j, result.layer_means[j], result.ratios[j - 1] if j else "")
        for j in range(len(result.layer_means))
    ]
    manifest.write_csv_table(cpath, ["layer", "mean_norm", "ratio"], rows, mhash)
    report["summary_lines"] = [
        f"ratios min={min(result.ratios):.4f} max={max(result.ratios):.4f} (expect 0.4)",
        f"final mean={result.final_mean:.6g} expected={result.expected_final:.6g}",
    ]
    return report, [jpath, cpath]


def _exec_detect(config: dict, out_dir: str, mhash: str):
    c = circuits.load_circuit(config["circuit"])
    cfg = propagation.PropagationConfig(
        k=config["k"], drop_tolerance=config["drop_tolerance"]
    )
    report = detection.detect(
        c, s=config["s"], k=config["k"], seed=config["seed"], shots=config["shots"],
        cfg=cfg,
    )
    jpath = os.path.join(out_dir, "detect_report.json")
    cpath = os.path.join(out_dir, "detect_records.csv")
    manifest.write_json_report(jpath, report.to_dict(), mhash)
    manifest.write_csv_table(
        cpath,
        ["x", "exact", "heuristic", "difference"],
        [(r.x, r.exact, r.heuristic, r.difference) for r in report.records],
        mhash,
    )
    payload = report.to_dict()
    payload["summary_lines"] = [
        f"verdict={report.verdict} disagree_fraction={report.disagree_fraction:.4f}"
    ]
    return payload, [jpath, cpath]


def _exec_suite(config: dict, out_dir: str, mhash: str):
    instances = detection.default_instances(
        config["yes"], config["no"], config["m"], seed=config["seed"]
    )
    result = detection.instance_suite(
        instances,
        n=config["n"],
        depth=config["L"],
        copies=config["copies"],
        s=config["s"],
        k=config["k"],
        seed=config["seed"],
        jobs=config["jobs"],
        drop_tolerance=config["drop_tolerance"],
    )
    jpath = os.path.join(out_dir, "suite_report.json")
    cpath = os.path.join(out_dir, "suite_entries.csv")
    manifest.write_json_report(jpath, result.to_dict(), mhash)
    manifest.write_csv_table(
        cpath,
        ["name", "label", "exact_probability", "verdict", "disagree_fraction", "correct"],
        [
            (
                e.name,
                e.label,
                e.exact_probability,
                e.report.verdict,
                e.report.disagree_fraction,
                e.correct,
            )
            for e in result.entries
        ],
        mhash,
    )
    payload = result.to_dict()
    payload["summary_lines"] = [f"correct {result.correct}/{result.total}: {result.confusion}"]
    return payload, [jpath, cpath]


def _load_sq(path: str, normalize: bool) -> sq.SQVector:
    try:
        return sq.build(sq.load_vector(path), normalize=normalize)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot build sample access from {path}: {exc}") from exc


def _exec_dequant_build(config: dict, out_dir: str, mhash: str):
    sqv = _load_sq(config["vector"], config["normalize"])
    sqv.check_tree()
    report = {
        "dim": sqv.dim,
        "root": float(sqv.tree[1]),
        "nonzero": int(np.count_nonzero(sqv.values)),
    }
    jpath = os.path.join(out_dir, "dequant_build_report.json")
    manifest.write_json_report(jpath, report, mhash)
    report["summary_lines"] = [f"dim={sqv.dim} root={report['root']:.12g}"]
    return report, [jpath]


def _exec_dequant_sample(config: dict, out_dir: str, mhash: str):
    sqv = _load_sq(config["vector"], config["normalize"])
    rng = np.random.default_rng(config["seed"])
    idx = sq.sample_many(sqv, rng.random(config["draws"]))
    counts = np.bincount(idx, minlength=sqv.dim)
    probs = sqv.tree[sqv.dim :]
    tv = 0.5 * float(np.abs(counts / config["draws"] - probs).sum())
    report = {"dim": sqv.dim, "draws": config["draws"], "tv_distance": tv}
    jpath = os.path.join(out_dir, "dequant_sample_report.json")
    cpath = os.path.join(out_dir, "dequant_samples.csv")
    manifest.write_json_report(jpath, report, mhash)
    manifest.write_csv_table(
        cpath,
        ["index", "count", "probability"],
        [(i, int(counts[i]), float(probs[i])) for i in range(sqv.dim)],
        mhash,
    )
    report["summary_lines"] = [f"TV distance to exact distribution: {tv:.4f}"]
    return report, [jpath, cpath]


def _exec_dequant_estimate(config: dict, out_dir: str, mhash: str):
    sqx = _load_sq(config["x"], config["normalize"])
    try:
        y = sq.load_vector(config["y"])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read query vector: {exc}") from exc
    ny = np.linalg.norm(y)
    if config["normalize"]:
        y = y / ny
    if len(y) < sqx.dim:
        y = np.concatenate([y, np.zeros(sqx.dim - len(y))])
    rng = np.random.default_rng(config["seed"])
    est = sq.inner_product_estimate(sqx, y, config["samples"], rng)
    exact = float(np.dot(sqx.values, y))
    report = est.to_dict()
    report["exact"] = exact
    report["abs_error"] = abs(est.estimate - exact)
    jpath = os.path.join(out_dir, "dequant_estimate_report.json")
    manifest.write_json_report(jpath, report, mhash)
    report["summary_lines"] = [
        f"estimate={est.estimate:.6g} exact={exact:.6g} stderr={est.stderr:.2g}"
    ]
    return report, [jpath]


def _exec_sense(config: dict, out_dir: str, mhash: str):
    theta, gamma = config["theta"], config["gamma"]
    r = config["r_uses"] or sensing.default_uses_per_shot(gamma)
    cfg = sensing.SensingConfig(
        n_probes=1, theta=theta, gamma=gamma, repetitions=config["shots"]
    )
    rng = np.random.default_rng(config["seed"])
    outcome = sensing.separable_protocol(cfg, uses_per_shot=r, rng=rng)
    eps = sensing.separable_bias(theta, gamma, r)
    stderr = math.sqrt(0.25 / config["shots"])
    report = {
        "theta": theta,
        "gamma": gamma,
        "uses_per_shot": r,
        "shots": config["shots"],
        "fraction": outcome.fraction,
        "bias_measured": outcome.fraction - 0.5,
        "bias_analytic": eps,
        "fraction_stderr": stderr,
        "decision": outcome.decision,
        "kl_divergence": sensing.kl_divergence(theta, gamma) if theta > 0 else None,
        "kl_sample_bound": sensing.kl_sample_bound(theta, gamma) if theta > 0 else None,
        "nt_bound": sensing.nt_bound_branches(theta, gamma) if theta > 0 else None,
    }
    jpath = os.path.join(out_dir, "sense_report.json")
    manifest.write_json_report(jpath, report, mhash)
    report["summary_lines"] = [
        f"measured bias {report['bias_measured']:.5f} vs analytic {eps:.5f} "
        f"(stderr {stderr:.5f})"
    ]
    return report, [jpath]


def _exec_sweep(config: dict, out_dir: str, mhash: str):
    cells = sensing.scaling_sweep(
        config["protocol"],
        config["cells"],
        trials=config["trials"],
        seed=config["seed"],
        jobs=config["jobs"],
    )
    jpath = os.path.join(out_dir, "sweep_report.json")
    cpath = os.path.join(out_dir, "sweep_results.csv")
    payload = {"protocol": config["protocol"], "cells": [c.to_dict() for c in cells]}
    manifest.write_json_report(jpath, payload, mhash)
    manifest.write_csv_table(
        cpath,
        ["protocol", "N", "theta", "gamma", "T", "K", "trials", "success", "stderr"],
        [
            (
                c.protocol,
                c.n_probes,
                c.theta,
                c.gamma,
                c.channel_uses,
                c.repetitions,
                c.trials,
                c.success,
                c.stderr,
            )
            for c in cells
        ],
        mhash,
    )
    payload["summary_lines"] = [f"{len(cells)} cells swept"]
    return payload, [jpath, cpath]


def _exec_bell(config: dict, out_dir: str, mhash: str):
    rng = np.random.default_rng(config["seed"])
    socks = bell.socks_simulation(config["trials"], rng)
    quantum = bell.quantum_single_basis_distribution()
    tv = 0.5 * sum(
        abs(socks.joint.get(k, 0.0) - quantum.get(k, 0.0))
        for k in set(socks.joint) | set(quantum)
    )
    table = bell.strategy_table()
    report = {
        "socks": socks.to_dict(),
        "quantum_single_basis": quantum,
        "tv_socks_vs_quantum": tv,
        "classical_chsh_max": bell.classical_chsh_max(),
        "quantum_chsh_optimal": bell.quantum_chsh_value(bell.OPTIMAL_ANGLES),
        "optimal_angles": list(bell.OPTIMAL_ANGLES),
        "tsirelson_bound": bell.TSIRELSON_BOUND,
    }
    jpath = os.path.join(out_dir, "bell_report.json")
    cpath = os.path.join(out_dir, "bell_strategies.csv")
    manifest.write_json_report(jpath, report, mhash)
    manifest.write_csv_table(
        cpath,
        ["a0", "a1", "b0", "b1", "chsh_value"],
        [(s[0], s[1], s[2], s[3], v) for s, v in table],
        mhash,
    )
    report["summary_lines"] = [
        "strategy (a0 a1 b0 b1) -> value:",
        *[f"  ({s[0]:+d} {s[1]:+d} {s[2]:+d} {s[3]:+d}) -> {v:+d}" for s, v in table],
        f"classical max {report['classical_chsh_max']}, "
        f"quantum optimum {report['quantum_chsh_optimal']:.7f}, "
        f"socks vs quantum TV {tv:.5f}"
    ]
    return report, [jpath, cpath]


def _exec_oracle_check(config: dict, out_dir: str, mhash: str):
    rng = np.random.default_rng(config["seed"])
    worst = 0.0
    rows = []
    for i in range(config["instances"]):
        n = int(rng.integers(2, config["max_n"] + 1))
        layers = int(rng.integers(1, config["max_layers"] + 1))
        c = circuits.random_brickwork(n, layers, seed=rng.integers(2**63))
        cfg = propagation.PropagationConfig(k=n)
        o0 = propagation.backpropagate(c, propagation.z_first(n), cfg)
        for _ in range(config["inputs_per_circuit"]):
            x = "".join(str(b) for b in rng.integers(0, 2, size=n))
            heur = propagation.evaluate_product_state(o0, x)
            exact = 1.0 - 2.0 * statevector.output_prob(c, x)
            dev = abs(heur - exact)
            worst = max(worst, dev)
            rows.append((i, n, layers, x, exact, heur, dev))
    report = {
        "instances": config["instances"],
        "inputs_per_circuit": config["inputs_per_circuit"],
        "max_abs_deviation": worst,
        "tolerance": 1e-9,
        "passed": worst <= 1e-9,
    }
    jpath = os.path.join(out_dir, "oracle_check_report.json")
    cpath = os.path.join(out_dir, "oracle_check_records.csv")
    manifest.write_json_report(jpath, report, mhash)
    manifest.write_csv_table(
        cpath,
        ["instance", "n", "layers", "x", "exact", "heuristic", "deviation"],
        rows,
        mhash,
    )
    report["summary_lines"] = [f"max |heuristic - exact| = {worst:.3g}"]
    if not report["passed"]:
        raise InvariantViolation(
            f"heuristic with k=n deviated from the statevector oracle by {worst}"
        )
    return report, [jpath, cpath]


_EXECUTORS = {
    "decay": _exec_decay,
    "detect": _exec_detect,
    "suite": _exec_suite,
    "dequant-build": _exec_dequant_build,
    "dequant-sample": _exec_dequant_sample,
    "dequant-estimate": _exec_dequant_estimate,
    "sense": _exec_sense,
    "sweep": _exec_sweep,
    "bell": _exec_bell,
    "oracle-check": _exec_oracle_check,
}


# ---------------------------------------------------------------------------
# Command table. A required option must not get a default, not even None:
# click 8.4 then accepts the missing flag, and the run crashes (exit 1)
# instead of failing as a usage error (exit 2).


class Opt(NamedTuple):
    flag: str | None
    key: str
    default: object = None
    type: object = int
    help: str | None = None
    required: bool = False


_PATH = click.Path(exists=True)
_SEED = Opt("--seed", "seed", 0)
_JOBS = Opt("--jobs", "jobs", 1)
_DROP = Opt(None, "drop_tolerance", 1e-12)
_NORMALIZE = Opt("--normalize", "normalize", False, bool)

_COMMANDS = (
    ("decay", "Per-layer Frobenius-decay Monte Carlo (expected ratio 2/5).", (
        Opt("--n", "n", 8, help="Qubit count (even)."),
        Opt("--L", "L", 10, help="Brickwork depth."),
        Opt("--trials", "trials", 500),
        _SEED, _JOBS, _DROP,
    )),
    ("detect", "Classify one circuit file: advantage vs no-advantage.", (
        Opt("--circuit", "circuit", type=_PATH, required=True),
        Opt("--s", "s", 32, help="Sampled inputs."),
        Opt("--k", "k", 1, help="Weight cutoff."),
        _SEED,
        Opt("--shots", "shots", None, help="Shot-based exact side (default: exact probabilities)."),
        _DROP,
    )),
    ("suite", "Labeled YES/NO detection suite with confusion counts.", (
        Opt("--yes", "yes", 20, help="YES instances."),
        Opt("--no", "no", 20, help="NO instances."),
        Opt("--n", "n", 6, help="Main register width."),
        Opt("--m", "m", 2, help="Instance circuit width."),
        Opt("--copies", "copies", 3, help="Majority-vote copies (odd)."),
        Opt("--L", "L", None, help="Random depth (default 6*width)."),
        Opt("--s", "s", 32), Opt("--k", "k", 1),
        _SEED, _JOBS, _DROP,
    )),
    ("dequant-build", "Build the prefix-sum tree and verify its invariants.", (
        Opt("--vector", "vector", type=_PATH, required=True),
        _NORMALIZE,
    )),
    ("dequant-sample", "Draw indices with probability values[i]^2 and tabulate frequencies.", (
        Opt("--vector", "vector", type=_PATH, required=True),
        _NORMALIZE, Opt("--draws", "draws", 100000), _SEED,
    )),
    ("dequant-estimate", "Importance-sampling inner-product estimate with standard error.", (
        Opt("--x", "x", type=_PATH, required=True),
        Opt("--y", "y", type=_PATH, required=True),
        _NORMALIZE, Opt("--samples", "samples", 10000), _SEED,
    )),
    ("sense", "Separable-protocol bias measurement plus the KL sample bound.", (
        Opt("--theta", "theta", 0.05, float, "Signal angle (radians)."),
        Opt("--gamma", "gamma", 0.2, float, "Noise variance per use."),
        Opt("--r-uses", "r_uses", None, help="Uses per shot (default ceil(1/gamma))."),
        Opt("--shots", "shots", 100000), _SEED,
    )),
    ("sweep", "Two-hypothesis success rates over a (N, theta, gamma, T, K) grid.\n\n"
              'The config file must supply the grid as {"cells": [{...}, ...]}.', (
        Opt("--protocol", "protocol", "ghz", click.Choice(["ghz", "separable"])),
        Opt("--trials", "trials", 400),
        _SEED, _JOBS,
        Opt(None, "cells", None),
    )),
    ("bell", "Socks protocol, 16-strategy table, and the quantum optimum.", (
        Opt("--trials", "trials", 100000), _SEED,
    )),
    ("oracle-check", "Heuristic with k=n against the statevector oracle (must agree to 1e-9).", (
        Opt("--instances", "instances", 100),
        Opt("--max-n", "max_n", 6),
        Opt("--max-layers", "max_layers", 8),
        Opt("--inputs-per-circuit", "inputs_per_circuit", 3),
        _SEED,
    )),
)


def _option(o: Opt) -> click.Option:
    if o.type is bool:
        # An absent flag arrives as None, so it never overrides the config file.
        return click.Option([o.flag, o.key], is_flag=True, default=None, help=o.help)
    return click.Option([o.flag, o.key], type=o.type, required=o.required, help=o.help)


def _command(name: str, help_text: str, options: tuple[Opt, ...]) -> click.Command:
    """A click command that resolves the row's defaults, the config file and
    the given flags, then runs the subcommand's executor."""
    defaults = {o.key: o.default for o in options}

    @guarded
    def run(out_dir, config_path, **flags):
        _execute(name, _resolve(defaults, _load_config(config_path), flags), out_dir)

    params = [_option(o) for o in options if o.flag] + [
        click.Option(["--config", "config_path"], help="JSON config file; flags override it."),
        click.Option(["--out-dir"], envvar="QADV_OUTPUT_DIR", default=".", show_default=True,
                     help="Directory for reports, tables, and the manifest."),
    ]
    return click.Command(name.removeprefix("dequant-"), params=params, callback=run,
                         help=help_text)


@click.group()
def main():
    """Desk-scale experiments: Pauli-propagation decay, advantage detection,
    dequantized sampling, noisy sensing, and Bell games."""


@main.group()
def dequant():
    """Sample-and-query access over classical vectors."""


for _row in _COMMANDS:
    (dequant if _row[0].startswith("dequant-") else main).add_command(_command(*_row))


@main.command()
@click.argument("manifest_path", type=click.Path(exists=True))
@click.option("--out-dir", envvar="QADV_OUTPUT_DIR", default=".", show_default=True)
@guarded
def rerun(manifest_path, out_dir):
    """Re-run an experiment from its manifest; outputs are bit-identical."""
    m = manifest.load_manifest(manifest_path)
    if m.subcommand not in _EXECUTORS:
        raise ConfigError(f"manifest names unknown subcommand {m.subcommand!r}")
    _execute(m.subcommand, m.config, out_dir)


if __name__ == "__main__":
    main()
