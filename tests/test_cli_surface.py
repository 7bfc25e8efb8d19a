"""The CLI's surface: flags, usage errors, exit codes and manifest hashes
that scripts and earlier manifests depend on."""

import json
import tempfile
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

import qadv
from qadv import circuits, cli, manifest
from qadv.cli import main

FLAGS = {
    "decay": ["--n", "--L", "--trials", "--seed", "--jobs"],
    "detect": ["--circuit", "--s", "--k", "--seed", "--shots"],
    "suite": ["--yes", "--no", "--n", "--m", "--copies", "--L", "--s", "--k", "--seed", "--jobs"],
    "dequant build": ["--vector", "--normalize"],
    "dequant sample": ["--vector", "--normalize", "--draws", "--seed"],
    "dequant estimate": ["--x", "--y", "--normalize", "--samples", "--seed"],
    "sense": ["--theta", "--gamma", "--r-uses", "--shots", "--seed"],
    "sweep": ["--protocol", "--trials", "--seed", "--jobs"],
    "bell": ["--trials", "--seed"],
    "oracle-check": ["--instances", "--max-n", "--max-layers", "--inputs-per-circuit", "--seed"],
}
REQUIRED = {"detect": ["--circuit"], "dequant build": ["--vector"],
            "dequant sample": ["--vector"], "dequant estimate": ["--x", "--y"]}


def _command(name):
    cmd = main
    for part in name.split():
        cmd = cmd.commands[part]
    return cmd


@pytest.mark.parametrize("name", sorted(FLAGS))
def test_subcommand_flags(name):
    opts = [p.opts[0] for p in _command(name).params]
    assert opts == FLAGS[name] + ["--config", "--out-dir"]
    # Required options are checked after the config file is merged, so a
    # required path may come from --config; click itself requires none.
    required = [o.flag for o in cli._OPTIONS[name.replace(" ", "-")] if o.required]
    assert required == REQUIRED.get(name, [])
    assert not any(p.required for p in _command(name).params)


@pytest.mark.parametrize(
    "args",
    [["detect"], ["dequant", "build"], ["dequant", "estimate", "--x", "{file}"]],
    ids=["detect-no-circuit", "build-no-vector", "estimate-no-y"],
)
def test_missing_required_flag_exits_2(tmp_path, args):
    f = tmp_path / "v.txt"
    f.write_text("1\n")
    args = [a.format(file=f) for a in args]
    r = CliRunner().invoke(main, [*args, "--out-dir", str(tmp_path)])
    assert r.exit_code == 2, r.output
    assert "Missing option" in r.output


@pytest.mark.parametrize("name", sorted(FLAGS))
def test_unknown_config_key_exits_2(tmp_path, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    # Any existing file satisfies the required path flags: the config is
    # rejected before an input file is read.
    required = [a for flag in REQUIRED.get(name, []) for a in (flag, str(cfg))]
    r = CliRunner().invoke(
        main, [*name.split(), *required, "--config", str(cfg), "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 2, r.output
    assert not list(tmp_path.glob("*_manifest.json"))


@pytest.mark.parametrize(
    "args, manifest_name, expected",
    [
        (["decay", "--n", "4", "--L", "3", "--trials", "8", "--seed", "1"], "decay_manifest.json",
         "c0da518185c8f78d39cafb711fda184d75c80f8b755acea165f1cf0f538980e7"),
        (["bell", "--trials", "20000", "--seed", "0"], "bell_manifest.json",
         "8a35fc16d9ab0f0f5830de0b9b24d279f6e7892fc21e90bafe10db1be2c34dc5"),
    ],
    ids=["decay", "bell"],
)
def test_manifest_hash_is_pinned(tmp_path, args, manifest_name, expected):
    # The hash covers subcommand, resolved config and version: a change in
    # any default or in the version string moves it and orphans old manifests.
    r = CliRunner().invoke(main, [*args, "--out-dir", str(tmp_path)])
    assert r.exit_code == 0, r.output
    assert json.loads((tmp_path / manifest_name).read_text())["manifest_hash"] == expected


def test_one_version_string():
    assert qadv.__version__ is manifest.ARTIFACT_VERSION


#: The text every int and float option draws from: small values, tiny and
#: huge floats, non-finite values and text of no number type.
_NUMBERS = ["0", "1", "-1", "2", "1e-300", "5e-324", "1e300", "nan", "inf", "-inf", "two"]
#: Options given "2" when not drawn: their defaults (up to 500 trials or
#: 100 instances, a suite depth of 6 times its width) take seconds a run.
_CAPPED = {"yes", "no", "n", "L", "s", "trials", "instances"}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Small input files by option key, each good or bad: vectors,
    circuits, and config files that carry sweep grids."""
    d = tmp_path_factory.mktemp("cli_files")
    rng = np.random.default_rng(0)
    vectors = {"x5.txt": rng.standard_normal(5), "y5.txt": rng.standard_normal(5),
               "y3.txt": np.ones(3), "y7.txt": np.ones(7), "zero.txt": np.zeros(4)}
    for name, v in vectors.items():
        np.savetxt(d / name, v / (np.linalg.norm(v) or 1.0))
    np.save(d / "complex.npy", np.array([0.6 + 0.8j, 0]))
    (d / "words.txt").write_text("a b\n")
    circuits.save_circuit(circuits.random_brickwork(3, 2, seed=0), str(d / "c.json"))
    (d / "schema.json").write_text('{"n_qubits": 0}')
    (d / "truncated.json").write_text('{"n_qubits": 3, "lay')
    (d / "latin1.json").write_bytes(b'{"n_qubits": "\xff"}')
    (d / "deep.json").write_text("[" * 100000 + "]" * 100000)
    grids = {"grid.json": {"cells": [{"N": 2, "theta": 0.1, "gamma": 0.0, "T": 4}]},
             "grid_no_theta.json": {"cells": [{"N": 2}]}, "grid_not_a_list.json": {"cells": 5}}
    for name, grid in grids.items():
        (d / name).write_text(json.dumps(grid))
    vectors = [str(d / name) for name in [*vectors, "complex.npy", "words.txt"]]
    return d, {"vector": vectors, "x": vectors, "y": vectors,
               "circuit": [str(d / name) for name in
                           ("c.json", "schema.json", "truncated.json", "latin1.json",
                            "deep.json")],
               "cells": [str(d / name) for name in [*grids, "deep.json"]]}


def _arguments(o: cli.Opt, files: dict):
    """Flag and value lists for one option of the command table."""
    if o.flag is None:  # sweep's grid, from a config file
        return st.sampled_from([["--config", path] for path in files[o.key]])
    if o.key == "jobs":
        return st.sampled_from([["--jobs", "1"], ["--jobs", "2"]])
    if o.type is bool:
        return st.sampled_from([[], [o.flag]])
    if isinstance(o.type, click.Path):
        return st.sampled_from([[o.flag, path] for path in files[o.key]])
    if isinstance(o.type, click.Choice):
        return st.sampled_from([[o.flag, c] for c in [*o.type.choices, "bogus"]])
    texts = st.sampled_from(_NUMBERS)
    if o.key in ("n", "m", "copies"):
        # A width past any limit, refused before work starts (exit 4).
        texts |= st.just("66")
    return texts.map(lambda t: [o.flag, t])


@given(st.data())
@settings(max_examples=500)
def test_every_subcommand_exits_0_2_or_4(cli_files, data):
    # Exit 1 is a traceback: every input a user can give ends in a report
    # and its manifest (0), or in nothing written at all (2 or 4). Up to
    # three options are drawn; the rest keep their defaults, or "2".
    d, files = cli_files
    name, _, options, _ = data.draw(st.sampled_from(cli._COMMANDS), label="subcommand")
    free = [o.key for o in options if o.flag and not o.required]
    drawn = data.draw(st.sets(st.sampled_from(free), max_size=3), label="drawn")
    args = []
    for o in options:
        if o.key in drawn or o.required or o.flag is None:
            args += data.draw(_arguments(o, files), label=o.key)
        elif o.key in _CAPPED:
            args += [o.flag, "2"]
    out = Path(tempfile.mkdtemp(dir=d)) / "out"
    command = ["dequant", name.removeprefix("dequant-")] if name.startswith("dequant-") else [name]
    r = CliRunner().invoke(main, [*command, *args, "--out-dir", str(out)])
    event(f"{name} exit {r.exit_code}")
    assert r.exit_code in (0, 2, 4), (args, r.output, r.exception)
    stem = name.replace("-", "_")
    if r.exit_code == 0:
        assert (out / f"{stem}_report.json").exists() and (out / f"{stem}_manifest.json").exists()
    else:
        assert not out.exists() or not any(out.iterdir()), (args, r.output)
