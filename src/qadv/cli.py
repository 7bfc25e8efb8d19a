"""Single command-line entry point exposing every experiment.

Every subcommand except ``rerun`` is one row of the ``_COMMANDS`` table:
name, help text, options (each with its flag, config key, default and
type), and the executor that runs it. The table is the only place defaults
and option ranges live: a range is its option's click type (``--draws`` is
an ``IntRange(1)``), so a flag, a config-file value and a manifest value
are refused alike. A config file overrides the defaults, and explicit
flags override the config file, whose values are typed as their flags'
text would be. Only ``cells`` (``sweep``'s grid, checked by
``scaling_sweep``) has no flag. A check across options (``--yes`` plus
``--no``) stays with its executor, and the library's own checks (an odd
``--copies``, a positive ``--gamma``) raise ValueError.

An executor maps the resolved config to an `Output` and writes nothing;
`_execute` alone writes files into --out-dir (or $QADV_OUTPUT_DIR): the
report ``<subcommand>_report.json``, at most one CSV table, and last the
manifest ``<subcommand>_manifest.json``, only when the run succeeded.
``rerun`` refuses a manifest whose stored hash does not match its
subcommand, config and version, that another version of qadv wrote, or
whose config does not hold exactly its row's keys with values their flags
accept. Exit codes: 2 config/schema error, 3 runtime invariant violation,
4 resource limit exceeded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple, fields
from typing import NamedTuple

import click
import numpy as np

from . import bell, circuits, detection, manifest, sensing, sq
from .errors import (ConfigError, InvariantViolation, ResourceLimitExceeded, read_json,
                     read_vector, typed)

ORACLE_TOLERANCE = 1e-9  # oracle-check: largest |heuristic(k=n) - exact| that passes


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    return typed(read_json(path, "config"), dict, f"config {path}")


def _from_file(o: Opt, value):
    """A config-file value as its flag would take the same text, range
    included: a number as its JSON literal, so neither ``"30"`` nor ``2.5``
    is an integer (click alone truncates 2.5 to 2). Only a path or a choice
    takes a string as its text. Null is kept where it is the default of an
    optional key."""
    if o.flag is None or (value is None and o.default is None and not o.required):
        return value
    text = str(value) if isinstance(o.type, (click.Path, click.Choice)) else json.dumps(value)
    try:
        return click.types.convert_type(o.type).convert(text, None, None)
    except click.BadParameter as exc:
        raise ConfigError(f"config key {o.key!r}: {exc.message}") from exc


def _resolve(options: tuple[Opt, ...], file_config: dict, flags: dict) -> dict:
    """Defaults, overridden by the config file, overridden by explicit flags.
    A required option may come from either; with neither it is refused here."""
    by_key = {o.key: o for o in options}
    unknown = set(file_config) - set(by_key)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {o.key: o.default for o in options}
    out.update((k, _from_file(by_key[k], v)) for k, v in file_config.items())
    out.update({k: v for k, v in flags.items() if v is not None})
    for o in options:
        if o.required and out[o.key] is None:
            raise ConfigError(f"Missing option '{o.flag}': give the flag or the config key "
                              f"{o.key!r}")
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
        except (ResourceLimitExceeded, MemoryError) as exc:
            # A failed allocation is a resource limit too, not a traceback.
            click.echo(f"resource limit: {str(exc) or 'out of memory'}", err=True)
            sys.exit(4)

    return wrapper


class Output(NamedTuple):
    """What an executor returns: the report, the console summary, at most one
    CSV table as (file stem, header, rows), and a failure that `_execute`
    raises once the report and table are written, so no manifest follows."""

    report: dict
    summary: list[str]
    table: tuple[str, list[str], list] | None = None
    failure: InvariantViolation | None = None


def _execute(subcommand: str, config: dict, out_dir: str) -> None:
    """Run one executor and write everything it produced: the report, the
    optional CSV table, and last the manifest."""
    started = time.perf_counter()
    mhash = manifest.manifest_hash(subcommand, config)
    out = _EXECUTORS[subcommand](config)
    os.makedirs(out_dir, exist_ok=True)
    stem = subcommand.replace("-", "_")
    outputs = [os.path.join(out_dir, f"{stem}_report.json")]
    manifest.write_json_report(outputs[0], out.report, mhash)
    if out.table is not None:
        table_stem, header, rows = out.table
        outputs.append(os.path.join(out_dir, f"{table_stem}.csv"))
        manifest.write_csv_table(outputs[1], header, rows, mhash)
    if out.failure is not None:
        raise out.failure
    m = manifest.RunManifest(
        subcommand=subcommand,
        config=config,
        seed=config.get("seed"),
        version=manifest.ARTIFACT_VERSION,
        manifest_hash=mhash,
        outputs=outputs,
        duration_s=time.perf_counter() - started,
    )
    mpath = os.path.join(out_dir, f"{stem}_manifest.json")
    manifest.write_manifest(mpath, m)
    click.echo(f"{subcommand}: wrote {', '.join(outputs)} (manifest {mpath})")
    for line in out.summary:
        click.echo(f"  {line}")


def _records(stem: str, items: list) -> tuple[str, list[str], list]:
    """A CSV table with one row per dataclass instance, its header the field names."""
    return stem, [f.name for f in fields(items[0])], [astuple(item) for item in items]


# ---------------------------------------------------------------------------
# Executors: resolved config -> Output


def _exec_decay(config: dict) -> Output:
    result = detection.decay_experiment(
        n=config["n"],
        layers=config["L"],
        trials=config["trials"],
        seed=config["seed"],
        jobs=config["jobs"],
    )
    rows = [(j, m, r) for j, (m, r) in enumerate(zip(result.layer_means, (None, *result.ratios)))]
    summary = [f"final mean={result.final_mean:.6g} expected={result.expected_final:.6g}"]
    defined = [r for r in result.ratios if r is not None]
    if defined:
        summary.insert(0, f"ratios min={min(defined):.4f} max={max(defined):.4f} "
                          f"(expect {result.expected_ratio})")
    return Output(asdict(result), summary, ("decay_layers", ["layer", "mean_norm", "ratio"], rows))


def _exec_detect(config: dict) -> Output:
    report = detection.detect(
        circuits.load_circuit(config["circuit"]),
        s=config["s"],
        k=config["k"],
        seed=config["seed"],
        shots=config["shots"],
    )
    return Output(
        asdict(report),
        [f"verdict={report.verdict} disagree_fraction={report.disagree_fraction:.4f}"],
        _records("detect_records", report.records),
    )


def _exec_suite(config: dict) -> Output:
    if config["yes"] + config["no"] < 1:
        raise ConfigError("--yes plus --no must be at least 1: a suite needs an instance")
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
    )
    rows = [
        (e.name, e.label, e.exact_probability, e.report.verdict, e.report.disagree_fraction,
         e.correct)
        for e in result.entries
    ]
    header = ["name", "label", "exact_probability", "verdict", "disagree_fraction", "correct"]
    return Output(
        asdict(result),
        [f"correct {result.correct}/{result.total}: {result.confusion}"],
        ("suite_entries", header, rows),
    )


def _exec_dequant_build(config: dict) -> Output:
    sqv = sq.build(read_vector(config["vector"]), normalize=config["normalize"])
    sqv.check_tree()
    root = float(sqv.cdf[-1])
    report = {"dim": sqv.dim, "root": root, "nonzero": int(np.count_nonzero(sqv.values))}
    return Output(report, [f"dim={sqv.dim} root={root:.12g}"])


def _exec_dequant_sample(config: dict) -> Output:
    draws = config["draws"]
    sqv = sq.build(read_vector(config["vector"]), normalize=config["normalize"])
    rng = np.random.default_rng(config["seed"])
    counts = sq.sample_counts(sqv, draws, rng)
    probs = np.square(sqv.values)
    tv = 0.5 * float(np.abs(counts / draws - probs).sum())
    return Output(
        {"dim": sqv.dim, "draws": draws, "tv_distance": tv},
        [f"TV distance to exact distribution: {tv:.4f}"],
        ("dequant_samples", ["index", "count", "probability"],
         [(i, int(counts[i]), float(probs[i])) for i in range(sqv.dim)]),
    )


def _exec_dequant_estimate(config: dict) -> Output:
    x, y = read_vector(config["x"]), read_vector(config["y"])
    if len(x) != len(y):
        raise ConfigError(f"--x has {len(x)} entries and --y {len(y)}: they must agree")
    sqx = sq.build(x, normalize=config["normalize"])
    if config["normalize"]:
        y = y / np.linalg.norm(y)
    y = np.concatenate([y, np.zeros(sqx.dim - len(y))])  # x's padding
    rng = np.random.default_rng(config["seed"])
    est = sq.inner_product_estimate(sqx, y, config["samples"], rng)
    exact = float(np.dot(sqx.values, y))
    return Output(
        {**asdict(est), "exact": exact, "abs_error": abs(est.estimate - exact)},
        [f"estimate={est.estimate:.6g} exact={exact:.6g} stderr={est.stderr:.2g}"],
    )


def _exec_sense(config: dict) -> Output:
    theta, gamma, shots = config["theta"], config["gamma"], config["shots"]
    r = sensing.default_uses_per_shot(gamma) if config["r_uses"] is None else config["r_uses"]
    rng = np.random.default_rng(config["seed"])
    fraction = float(sensing.separable_fractions(shots, r, [theta], gamma, rng)[0])
    eps = sensing.separable_bias(theta, gamma, r)
    stderr = math.sqrt(0.25 / shots)
    bias = fraction - 0.5
    bounds = None, None, None
    if theta > 0 and gamma > 0:
        # Also None where no float holds a bound: theta^2 over- or
        # underflows, or a quotient overflows.
        with contextlib.suppress(ArithmeticError):
            kl, nt = sensing.kl_divergence(theta, gamma), sensing.nt_bound_branches(theta, gamma)
            if all(map(math.isfinite, (kl, 1.0 / kl, nt["max"]))):
                bounds = kl, sensing.kl_sample_bound(theta, gamma), nt
    report = {
        "theta": theta,
        "gamma": gamma,
        "uses_per_shot": r,
        "shots": shots,
        "fraction": fraction,
        "bias_measured": bias,
        "bias_analytic": eps,
        "fraction_stderr": stderr,
        "decision": "signal-present" if fraction > 0.5 + eps / 2 else "signal-absent",
        **dict(zip(("kl_divergence", "kl_sample_bound", "nt_bound"), bounds)),
    }
    return Output(
        report, [f"measured bias {bias:.5f} vs analytic {eps:.5f} (stderr {stderr:.5f})"]
    )


def _exec_sweep(config: dict) -> Output:
    cells = sensing.scaling_sweep(
        config["protocol"],
        config["cells"],
        trials=config["trials"],
        seed=config["seed"],
        jobs=config["jobs"],
    )
    return Output(
        {"protocol": config["protocol"], "cells": [asdict(c) for c in cells]},
        [f"{len(cells)} cells swept"],
        _records("sweep_results", cells),
    )


def _exec_bell(config: dict) -> Output:
    rng = np.random.default_rng(config["seed"])
    socks = bell.socks_simulation(config["trials"], rng)
    quantum = bell.quantum_single_basis_distribution()
    tv = 0.5 * sum(
        abs(socks.joint.get(k, 0.0) - quantum.get(k, 0.0))
        for k in set(socks.joint) | set(quantum)
    )
    table = bell.strategy_table()
    classical = bell.classical_chsh_max()
    optimum = bell.quantum_chsh_value(bell.OPTIMAL_ANGLES)
    report = {
        "socks": asdict(socks),
        "quantum_single_basis": quantum,
        "tv_socks_vs_quantum": tv,
        "classical_chsh_max": classical,
        "quantum_chsh_optimal": optimum,
        "optimal_angles": list(bell.OPTIMAL_ANGLES),
        "tsirelson_bound": bell.TSIRELSON_BOUND,
    }
    return Output(
        report,
        [
            "strategy (a0 a1 b0 b1) -> value:",
            *[f"  ({s[0]:+d} {s[1]:+d} {s[2]:+d} {s[3]:+d}) -> {v:+d}" for s, v in table],
            f"classical max {classical}, quantum optimum {optimum:.7f}, "
            f"socks vs quantum TV {tv:.5f}",
        ],
        ("bell_strategies", ["a0", "a1", "b0", "b1", "chsh_value"],
         [(*s, v) for s, v in table]),
    )


def _exec_oracle_check(config: dict) -> Output:
    rng = np.random.default_rng(config["seed"])
    rows = []
    for i in range(config["instances"]):
        n = int(rng.integers(2, config["max_n"] + 1))
        layers = int(rng.integers(1, config["max_layers"] + 1))
        c = circuits.random_brickwork(n, layers, seed=rng.integers(2**63))
        # The generator itself is the seed, so detect draws the inputs from it.
        report = detection.detect(c, s=config["inputs_per_circuit"], k=n, seed=rng)
        rows += [(i, n, layers, *astuple(r)) for r in report.records]
    worst = max(row[-1] for row in rows)
    passed = worst <= ORACLE_TOLERANCE
    report = {
        "instances": config["instances"],
        "inputs_per_circuit": config["inputs_per_circuit"],
        "max_abs_deviation": worst,
        "tolerance": ORACLE_TOLERANCE,
        "passed": passed,
    }
    failure = None if passed else InvariantViolation(
        f"heuristic with k=n deviated from the statevector oracle by {worst}"
    )
    return Output(
        report,
        [f"max |heuristic - exact| = {worst:.3g}"],
        ("oracle_check_records",
         ["instance", "n", "layers", "x", "exact", "heuristic", "deviation"], rows),
        failure,
    )


# ---------------------------------------------------------------------------
# Command table. A required option keeps the default None and is not
# required of click, which would refuse it before --config is read:
# `_resolve` refuses it (exit 2) when neither the flag nor the config file
# gives it.


class Opt(NamedTuple):
    flag: str | None
    key: str
    default: object = None
    type: object = int
    help: str | None = None
    required: bool = False


_PATH = click.Path(exists=True, dir_okay=False)
_SEED = Opt("--seed", "seed", 0)
_JOBS = Opt("--jobs", "jobs", 1)
_NORMALIZE = Opt("--normalize", "normalize", False, bool)

_COMMANDS = (
    ("decay", "Per-layer Frobenius-decay Monte Carlo (expected ratio 2/5).", (
        Opt("--n", "n", 8, help="Qubit count (even)."),
        Opt("--L", "L", 10, help="Brickwork depth."),
        Opt("--trials", "trials", 500),
        _SEED, _JOBS,
    ), _exec_decay),
    ("detect", "Classify one circuit file: advantage vs no-advantage.", (
        Opt("--circuit", "circuit", type=_PATH, required=True),
        Opt("--s", "s", 32, help="Sampled inputs."),
        Opt("--k", "k", 1, help="Weight cutoff."),
        _SEED,
        Opt("--shots", "shots", None, help="Shot-based exact side (default: exact probabilities)."),
    ), _exec_detect),
    ("suite", "Labeled YES/NO detection suite with confusion counts.", (
        Opt("--yes", "yes", 20, click.IntRange(0), "YES instances."),
        Opt("--no", "no", 20, click.IntRange(0), "NO instances."),
        Opt("--n", "n", 6, help="Main register width."),
        Opt("--m", "m", 2, help="Instance circuit width."),
        Opt("--copies", "copies", 3, help="Majority-vote copies (odd)."),
        Opt("--L", "L", None, help="Random depth (default 6*width)."),
        Opt("--s", "s", 32), Opt("--k", "k", 1),
        _SEED, _JOBS,
    ), _exec_suite),
    ("dequant-build", "Build the cumulative table and its guide, and verify their invariants.", (
        Opt("--vector", "vector", type=_PATH, required=True),
        _NORMALIZE,
    ), _exec_dequant_build),
    ("dequant-sample", "Draw indices with probability values[i]^2 and tabulate frequencies.", (
        Opt("--vector", "vector", type=_PATH, required=True),
        _NORMALIZE, Opt("--draws", "draws", 100000, click.IntRange(1)), _SEED,
    ), _exec_dequant_sample),
    ("dequant-estimate", "Importance-sampling inner-product estimate with standard error.", (
        Opt("--x", "x", type=_PATH, required=True),
        Opt("--y", "y", type=_PATH, required=True),
        _NORMALIZE, Opt("--samples", "samples", 10000), _SEED,
    ), _exec_dequant_estimate),
    ("sense", "Separable-protocol bias measurement plus the KL sample bound.", (
        Opt("--theta", "theta", 0.05, float, "Signal angle (radians)."),
        Opt("--gamma", "gamma", 0.2, float, "Noise variance per use."),
        Opt("--r-uses", "r_uses", None, help="Uses per shot (default ceil(1/gamma))."),
        Opt("--shots", "shots", 100000), _SEED,
    ), _exec_sense),
    ("sweep", "Two-hypothesis success rates over a (N, theta, gamma, T, K) grid.\n\n"
              'The config file must supply the grid as {"cells": [{...}, ...]}.', (
        Opt("--protocol", "protocol", "ghz", click.Choice(["ghz", "separable"])),
        Opt("--trials", "trials", 400),
        _SEED, _JOBS,
        Opt(None, "cells", None),
    ), _exec_sweep),
    ("bell", "Socks protocol, 16-strategy table, and the quantum optimum.", (
        Opt("--trials", "trials", 100000), _SEED,
    ), _exec_bell),
    ("oracle-check", "Heuristic with k=n against the statevector oracle "
                     f"(must agree to {ORACLE_TOLERANCE:g}).", (
        Opt("--instances", "instances", 100, click.IntRange(1)),
        Opt("--max-n", "max_n", 6, click.IntRange(2)),
        Opt("--max-layers", "max_layers", 8, click.IntRange(1)),
        Opt("--inputs-per-circuit", "inputs_per_circuit", 3),
        _SEED,
    ), _exec_oracle_check),
)

_EXECUTORS = {name: executor for name, _, _, executor in _COMMANDS}
_OPTIONS = {name: options for name, _, options, _ in _COMMANDS}


def _option(o: Opt) -> click.Option:
    if o.type is bool:
        # An absent flag arrives as None, so it never overrides the config file.
        return click.Option([o.flag, o.key], is_flag=True, default=None, help=o.help)
    help_text = "Required, as this flag or its config key." if o.required else o.help
    return click.Option([o.flag, o.key], type=o.type, help=help_text)


def _command(name: str, help_text: str, options: tuple[Opt, ...]) -> click.Command:
    """A click command that resolves the row's defaults, the config file and
    the given flags, then runs the subcommand's executor."""
    @guarded
    def run(out_dir, config_path, **flags):
        _execute(name, _resolve(options, _load_config(config_path), flags), out_dir)

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
    (dequant if _row[0].startswith("dequant-") else main).add_command(_command(*_row[:3]))


@main.command()
@click.argument("manifest_path", type=_PATH)
@click.option("--out-dir", envvar="QADV_OUTPUT_DIR", default=".", show_default=True)
@guarded
def rerun(manifest_path, out_dir):
    """Re-run an experiment from its manifest; outputs are bit-identical.
    A manifest whose hash does not match its subcommand and config is refused,
    and so is one that another version wrote or whose config a run could not
    have recorded."""
    subcommand, config = manifest.load_manifest(manifest_path)
    if subcommand not in _EXECUTORS:
        raise ConfigError(f"manifest names unknown subcommand {subcommand!r}")
    options = _OPTIONS[subcommand]
    keys = {o.key for o in options}
    if set(config) != keys:
        raise ConfigError(
            f"manifest config must hold exactly the keys {sorted(keys)}, "
            f"not {sorted(config)}"
        )
    _resolve(options, config, {})  # refuses a value its flag would refuse
    # The config as stored: the hash covers it.
    _execute(subcommand, config, out_dir)


if __name__ == "__main__":
    main()
