"""The CLI's surface: flags, usage errors and manifest hashes that scripts
and earlier manifests depend on."""

import json

import pytest
from click.testing import CliRunner

import qadv
from qadv import manifest
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
    required = [p.opts[0] for p in _command(name).params if p.required]
    assert required == REQUIRED.get(name, [])


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
         "4ebcc2d795541c23bfefe4d4a83ce66d0f2df4bf4c67163c813e25dd5c43916b"),
        (["bell", "--trials", "20000", "--seed", "0"], "bell_manifest.json",
         "175ed1b7abb90ccd0b4d1b1cf1c6df21f27022e560fcb3714d54e4d40df42a61"),
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
