import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qadv import circuits, cli, manifest, sq
from qadv.cli import main
from qadv.errors import ConfigError, InvariantViolation
from qadv.pauli import DROP_TOLERANCE


@pytest.fixture
def runner():
    return CliRunner()


def _read(path: Path) -> str:
    return path.read_text()


def test_unknown_subcommand_exits_2(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == 2
    assert "Usage" in result.output or "No such command" in result.output


def test_decay_outputs_and_manifest(runner, tmp_path):
    result = runner.invoke(
        main,
        ["decay", "--n", "4", "--L", "3", "--trials", "8", "--seed", "1",
         "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(_read(tmp_path / "decay_report.json"))
    man = json.loads(_read(tmp_path / "decay_manifest.json"))
    csv_text = _read(tmp_path / "decay_layers.csv")
    assert report["manifest_hash"] == man["manifest_hash"]
    assert csv_text.startswith(f"# manifest_hash={man['manifest_hash']}")
    assert man["config"] == {"n": 4, "L": 3, "trials": 8, "seed": 1, "jobs": 1}
    assert len(report["ratios"]) == 3


def test_rerun_is_bit_identical(runner, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    r = runner.invoke(
        main,
        ["decay", "--n", "4", "--L", "3", "--trials", "8", "--seed", "2",
         "--out-dir", str(out1)],
    )
    assert r.exit_code == 0, r.output
    r = runner.invoke(
        main, ["rerun", str(out1 / "decay_manifest.json"), "--out-dir", str(out2)]
    )
    assert r.exit_code == 0, r.output
    assert _read(out1 / "decay_report.json") == _read(out2 / "decay_report.json")
    assert _read(out1 / "decay_layers.csv") == _read(out2 / "decay_layers.csv")


def test_detect_command_on_circuit_file(runner, tmp_path):
    cq, _ = circuits.promise_instance("x", 1)
    c = circuits.build_cnew(cq, n=3, depth=12, copies=1, seed=3)
    cpath = tmp_path / "circuit.json"
    circuits.save_circuit(c, str(cpath))
    result = runner.invoke(
        main,
        ["detect", "--circuit", str(cpath), "--s", "8", "--k", "1", "--seed", "7",
         "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(_read(tmp_path / "detect_report.json"))
    assert report["verdict"] in ("advantage", "no-advantage")
    assert len(report["records"]) == 8
    assert (tmp_path / "detect_records.csv").exists()


def test_detect_rejects_malformed_circuit(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_qubits": 0}')
    result = runner.invoke(
        main, ["detect", "--circuit", str(bad), "--out-dir", str(tmp_path)]
    )
    assert result.exit_code == 2


def test_detect_refuses_nan_gate_angle(runner, tmp_path):
    c = circuits.Circuit(2, (circuits.ElementaryLayer((circuits.Gate("RX", (0,), param=0.5),)),))
    text = circuits.serialize_json(c).replace('"param": 0.5', '"param": NaN')
    assert '"param": NaN' in text
    cpath = tmp_path / "circuit.json"
    cpath.write_text(text)
    out = tmp_path / "out"
    result = runner.invoke(main, ["detect", "--circuit", str(cpath), "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert "finite" in result.output
    assert not out.exists() or not any(out.iterdir())


def _x_then_brickwork() -> circuits.Circuit:
    # X on qubit 0, then a 6-qubit brickwork on qubits 1-6: the exact
    # probability of measuring 1 from |0...0> rounds to 1 + 2.2e-16.
    bw = circuits.random_brickwork(6, 12, seed=18)
    moved = [circuits.ElementaryLayer(tuple([
        circuits.Gate("matrix", tuple([q + 1 for q in g.targets]), matrix=g.matrix)
        for g in layer.gates])) for layer in bw.layers]
    x = circuits.ElementaryLayer((circuits.Gate("X", (0,)),))
    return circuits.Circuit(7, (x, *moved))


def test_detect_shots_take_a_rounding_residue_past_1(runner, tmp_path):
    from qadv import statevector

    c = _x_then_brickwork()
    assert statevector.output_prob(c, "0" * 7) > 1.0
    cpath = tmp_path / "circuit.json"
    circuits.save_circuit(c, str(cpath))
    out = tmp_path / "out"
    result = runner.invoke(main, ["detect", "--circuit", str(cpath), "--s", "4", "--seed", "0",
                                  "--shots", "100", "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads(_read(out / "detect_report.json"))
    assert len(report["records"]) == 4


def test_detect_shots_refuse_a_probability_far_outside_0_1(runner, tmp_path, monkeypatch):
    from qadv import statevector

    cpath = tmp_path / "circuit.json"
    circuits.save_circuit(_x_then_brickwork(), str(cpath))
    monkeypatch.setattr(statevector, "output_prob", lambda c, x: 1.5)
    out = tmp_path / "out"
    result = runner.invoke(main, ["detect", "--circuit", str(cpath), "--s", "4", "--seed", "0",
                                  "--shots", "100", "--out-dir", str(out)])
    assert result.exit_code == 3, result.output
    assert "outside [0, 1]" in result.output
    assert not out.exists() or not any(out.iterdir())


def test_detect_exits_3_when_an_oracle_ket_loses_its_norm(runner, tmp_path, monkeypatch):
    # The exact side of C_new sums out the amplified block's ancillas; a
    # later op that is not unitary breaks an invariant of the oracle, not
    # the configuration.
    import dataclasses

    from qadv import statevector

    cq, _ = circuits.promise_instance("x", 2)
    cpath = tmp_path / "circuit.json"
    circuits.save_circuit(circuits.build_cnew(cq, n=3, depth=12, copies=1, seed=3), str(cpath))
    fuse = statevector.fuse

    def scaled(c):
        fused = fuse(c)
        support, u = fused.ops[-1]
        return dataclasses.replace(fused, ops=(*fused.ops[:-1], (support, 1.1 * u)))

    monkeypatch.setattr(statevector, "fuse", scaled)
    out = tmp_path / "out"
    result = runner.invoke(main, ["detect", "--circuit", str(cpath), "--s", "2", "--seed", "0",
                                  "--out-dir", str(out)])
    assert result.exit_code == 3, result.output
    assert "norm deviates from 1" in result.output
    assert not out.exists() or not any(out.iterdir())


def test_suite_exits_3_when_the_full_oracle_route_loses_the_norm(runner, tmp_path,
                                                                  monkeypatch):
    # Each instance's promise check runs its whole state (no spectators to
    # sum out); a first op scaled by 1.5 leaves a state of norm 1.5, which
    # no input can build.
    import dataclasses

    from qadv import statevector

    fuse = statevector.fuse

    def scaled(c):
        fused = fuse(c)
        support, u = fused.ops[0]
        return dataclasses.replace(fused, ops=((support, 1.5 * u), *fused.ops[1:]))

    monkeypatch.setattr(statevector, "fuse", scaled)
    out = tmp_path / "out"
    result = runner.invoke(main, ["suite", "--yes", "1", "--no", "1", "--L", "4", "--s", "4",
                                  "--out-dir", str(out)])
    assert result.exit_code == 3, result.output
    assert "state norm 1.5 deviates from 1" in result.output
    assert not out.exists() or not any(out.iterdir())


def test_decay_exits_3_on_a_gate_it_built_that_is_not_unitary(runner, tmp_path, monkeypatch):
    # The Ginibre matrices go through unmade. A NonUnitaryError is a
    # ValueError, yet this one is no configuration error: the run built it.
    monkeypatch.setattr(circuits, "haar_from_ginibre", lambda z: z)
    out = tmp_path / "out"
    result = runner.invoke(main, ["decay", "--n", "4", "--L", "3", "--trials", "5",
                                  "--out-dir", str(out)])
    assert result.exit_code == 3, result.output
    assert "invariant violation: matrix is not unitary" in result.output
    assert not out.exists() or not any(out.iterdir())


def test_circuit_file_with_a_matrix_that_is_not_unitary_exits_2(runner, tmp_path):
    data = circuits.serialize(circuits.random_brickwork(2, 1, seed=0))
    data["layers"][0]["gates"][0]["matrix"][0][0] = [2.0, 0.0]
    cpath = tmp_path / "circuit.json"
    cpath.write_text(json.dumps(data))
    out = tmp_path / "out"
    result = runner.invoke(main, ["detect", "--circuit", str(cpath), "--s", "2",
                                  "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output and "not unitary" in result.output
    assert not out.exists()


def test_detect_shots_past_the_binomial_range_exit_2(runner, tmp_path):
    # The binomial draw takes counts up to 2^63 - 1; one more is a
    # configuration error, not an OverflowError traceback.
    cpath = tmp_path / "circuit.json"
    circuits.save_circuit(circuits.random_brickwork(2, 1, seed=0), str(cpath))
    for shots, code in ((2**63, 2), (2**63 - 1, 0)):
        out = tmp_path / f"out{code}"
        result = runner.invoke(main, ["detect", "--circuit", str(cpath), "--s", "2", "--seed", "0",
                                      "--shots", str(shots), "--out-dir", str(out)])
        assert result.exit_code == code, (shots, result.output)
        assert any(out.glob("*")) == (code == 0), shots


def test_sense_and_sweep_counts_past_the_binomial_range_exit_2(runner, tmp_path):
    # Shots, a 310-digit N (at gamma = 0 and gamma > 0) and a separable K*N
    # past 2^63 - 1 are configuration errors, refused before any draw.
    runs = [["sense", "--theta", "0.05", "--gamma", "0.2", "--shots", str(2**63)]]
    for protocol, cell in (("ghz", {"N": 10**309, "theta": 0.1, "gamma": 0.0}),
                           ("ghz", {"N": 10**309, "theta": 0.1, "gamma": 0.1}),
                           ("separable", {"N": 4, "theta": 0.1, "gamma": 0.1, "K": 2**62})):
        cfg = tmp_path / f"cells{len(runs)}.json"
        cfg.write_text(json.dumps({"cells": [cell]}))
        runs.append(["sweep", "--protocol", protocol, "--config", str(cfg)])
    for i, args in enumerate(runs):
        out = tmp_path / f"out{i}"
        result = runner.invoke(main, [*args, "--out-dir", str(out)])
        assert result.exit_code == 2, (args, result.output)
        assert "2**63 - 1" in result.output
        assert not out.exists()


def test_sense_draws_a_trillion_shots(runner, tmp_path):
    # One binomial draw: nothing the run holds grows with the shot count.
    result = runner.invoke(main, ["sense", "--theta", "0.05", "--gamma", "0.2", "--shots",
                                  str(10**12), "--seed", "3", "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(_read(tmp_path / "sense_report.json"))
    assert report["shots"] == 10**12
    gap = abs(report["bias_measured"] - report["bias_analytic"])
    assert gap < 4 * report["fraction_stderr"]


def test_memory_error_exits_4_and_writes_nothing(runner, tmp_path, monkeypatch):
    def starved(config):
        raise MemoryError

    monkeypatch.setitem(cli._EXECUTORS, "bell", starved)
    out = tmp_path / "out"
    result = runner.invoke(main, ["bell", "--out-dir", str(out)])
    assert result.exit_code == 4, result.output
    assert "resource limit: out of memory" in result.output
    assert not out.exists()


@pytest.mark.parametrize("depth, code", [(10**30, 2), (10**8, 4)])
def test_suite_depth_past_any_memory_exits_cleanly(tmp_path, depth, code):
    # `random_brickwork` draws its Haar stack before it builds a per-layer
    # list: it refuses 10^30 layers up front, naming the depth and the gate
    # count, since no numpy array can hold their draw (exit 2), and numpy
    # cannot allocate the 24 GiB of 10^8 layers (MemoryError, exit 4). The
    # run gets a 2 GiB address-space cap, so that a regression fails here
    # instead of filling the machine's memory.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    out = tmp_path / "out"
    args = ["suite", "--yes", "1", "--no", "0", "--n", "2", "--m", "1", "--copies", "1",
            "--L", str(depth), "--out-dir", str(out)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", "from qadv.cli import main; main()", *args],
                         env=env, capture_output=True, text=True, preexec_fn=cap, timeout=120)
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr
    if code == 2:
        assert f"brickwork depth {depth} needs {depth} two-qubit gates" in run.stderr
    assert not out.exists()


@pytest.mark.parametrize("depth", ["-1", "-8"])
def test_decay_negative_depth_exits_2(runner, tmp_path, depth):
    out = tmp_path / "out"
    result = runner.invoke(main, ["decay", "--L", depth, "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert "depth" in result.output
    assert not out.exists()


def test_suite_sector_mismatch_exits_3(runner, tmp_path, monkeypatch):
    # A wrong index table in the sector pass fails the suite's check of its
    # first instance: exit 3, and no report, table or manifest.
    from qadv import pauli

    monkeypatch.setitem(pauli._WEIGHT_ONE, 2, np.array([8, 4, 12, 1, 2, 3]))
    out = tmp_path / "out"
    result = runner.invoke(main, ["suite", "--yes", "1", "--no", "1", "--L", "4", "--s", "4",
                                  "--out-dir", str(out)])
    assert result.exit_code == 3, result.output
    assert "suite instance 0" in result.output
    assert not out.exists()


@pytest.mark.parametrize("patch", ["pairing", "first-target signs"])
def test_decay_trial_zero_mismatch_exits_3(runner, tmp_path, monkeypatch, patch):
    # A wrong pairing, or the first target's signs negated in the sector
    # step's bit tables, fails the run's trial-0 check: exit 3, and no
    # report, table or manifest.
    from qadv import detection, propagation

    real = detection._brick_pairs
    if patch == "pairing":
        monkeypatch.setattr(detection, "_brick_pairs", lambda n, depth: real(n, depth)[::-1])
    else:
        flips, signs = propagation._bit_tables(2)
        monkeypatch.setattr(propagation, "_bit_tables", lambda w: (flips, signs * [[-1], [1]]))
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["decay", "--n", "4", "--L", "3", "--trials", "5", "--out-dir", str(out)])
    assert result.exit_code == 3, result.output
    assert "trial 0" in result.output
    assert not out.exists()


def test_config_file_with_flag_override(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "L": 2, "trials": 4, "seed": 5}))
    result = runner.invoke(
        main,
        ["decay", "--config", str(cfg), "--trials", "6", "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    man = json.loads(_read(tmp_path / "decay_manifest.json"))
    assert man["config"]["trials"] == 6  # flag wins
    assert man["config"]["L"] == 2  # file wins over default


def test_unknown_config_key_exits_2(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    result = runner.invoke(
        main, ["decay", "--config", str(cfg), "--out-dir", str(tmp_path)]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("name", ["decay", "detect", "suite"])
def test_drop_tolerance_is_not_a_config_key(runner, tmp_path, name):
    # The tolerance is the constant pauli.DROP_TOLERANCE: even its own value
    # is an unknown key, refused before anything runs.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"drop_tolerance": DROP_TOLERANCE}))
    circuit = ["--circuit", str(cfg)] if name == "detect" else []
    out = tmp_path / "out"
    r = runner.invoke(main, [name, *circuit, "--config", str(cfg), "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert "drop_tolerance" in r.output
    assert not out.exists()


@pytest.mark.parametrize(
    "config, key",
    [
        ({"n": 4, "L": 2, "trials": "30"}, "trials"),
        ({"n": 4, "L": 2.5, "trials": 4}, "L"),
        ({"n": 4, "L": 2, "trials": 4, "seed": 1.5}, "seed"),
    ],
    ids=["string-trials", "fractional-L", "fractional-seed"],
)
def test_config_value_of_the_wrong_type_exits_2(runner, tmp_path, config, key):
    # A value is typed as its flag's text would be: "30" is a string and
    # 2.5 is no integer (not truncated to 2).
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    r = runner.invoke(main, ["decay", "--config", str(cfg), "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert repr(key) in r.output
    assert not out.exists()


def test_config_value_and_flag_give_one_manifest(runner, tmp_path):
    # The JSON integer 1 for a float option is the flag text "1": both runs
    # record theta = 1.0, so their manifests hash alike.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 1, "shots": 100}))
    hashes = []
    for args in (["--config", str(cfg)], ["--theta", "1", "--shots", "100"]):
        out = tmp_path / str(len(hashes))
        r = runner.invoke(main, ["sense", *args, "--out-dir", str(out)])
        assert r.exit_code == 0, r.output
        man = json.loads(_read(out / "sense_manifest.json"))
        assert man["config"]["theta"] == 1.0 and isinstance(man["config"]["theta"], float)
        hashes.append(man["manifest_hash"])
    assert hashes[0] == hashes[1]


def test_sweep_requires_cells(runner, tmp_path):
    result = runner.invoke(main, ["sweep", "--out-dir", str(tmp_path)])
    assert result.exit_code == 2


def test_sweep_with_grid(runner, tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(
        json.dumps(
            {"cells": [{"N": 2, "theta": 0.01, "gamma": 0.0, "T": 158}], "trials": 200}
        )
    )
    result = runner.invoke(
        main,
        ["sweep", "--protocol", "ghz", "--config", str(cfg), "--seed", "4",
         "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(_read(tmp_path / "sweep_report.json"))
    assert report["cells"][0]["success"] >= 0.9
    assert (tmp_path / "sweep_results.csv").exists()


def test_dequant_commands(runner, tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(64)
    y = rng.standard_normal(64)
    xp = tmp_path / "x.txt"
    yp = tmp_path / "y.txt"
    np.savetxt(xp, x / np.linalg.norm(x))
    np.savetxt(yp, y / np.linalg.norm(y))

    r = runner.invoke(main, ["dequant", "build", "--vector", str(xp), "--out-dir", str(tmp_path)])
    assert r.exit_code == 0, r.output
    assert json.loads(_read(tmp_path / "dequant_build_report.json"))["dim"] == 64

    r = runner.invoke(
        main,
        ["dequant", "sample", "--vector", str(xp), "--draws", "2000", "--seed", "1",
         "--out-dir", str(tmp_path)],
    )
    assert r.exit_code == 0, r.output
    rep = json.loads(_read(tmp_path / "dequant_sample_report.json"))
    assert rep["tv_distance"] < 0.2

    r = runner.invoke(
        main,
        ["dequant", "estimate", "--x", str(xp), "--y", str(yp), "--samples", "4000",
         "--seed", "2", "--out-dir", str(tmp_path)],
    )
    assert r.exit_code == 0, r.output
    rep = json.loads(_read(tmp_path / "dequant_estimate_report.json"))
    assert abs(rep["estimate"] - rep["exact"]) < 0.1


def test_dequant_sample_table_is_one_sample_counts_draw(tmp_path):
    # Every row of the table, padding included, from one `sample_counts`
    # call on the seed's generator.
    vp = tmp_path / "v.txt"
    np.savetxt(vp, np.random.default_rng(4).standard_normal(100))
    draws = 400_005
    out = cli._exec_dequant_sample({"vector": str(vp), "normalize": True, "draws": draws,
                                    "seed": 9})
    v = sq.build(np.loadtxt(vp), normalize=True)
    want = sq.sample_counts(v, draws, np.random.default_rng(9))
    assert [row[:2] for row in out.table[2]] == list(enumerate(want.tolist()))


def test_dequant_sample_draws_past_the_multinomial_range_exit_2(runner, tmp_path):
    # The multinomial draw takes counts up to 2^63 - 1; one more is a
    # configuration error, not an OverflowError traceback.
    vp = tmp_path / "v.txt"
    np.savetxt(vp, [0.6, 0.8])
    for draws, code in ((2**63, 2), (2**63 - 1, 0)):
        out = tmp_path / f"out{code}"
        result = runner.invoke(main, ["dequant", "sample", "--vector", str(vp), "--draws",
                                      str(draws), "--out-dir", str(out)])
        assert result.exit_code == code, (draws, result.output)
        assert any(out.glob("*")) == (code == 0), draws


def test_dequant_sample_memory_does_not_grow_with_draws(tmp_path):
    # The counts are one multinomial draw over the entries of nonzero mass,
    # so no per-draw array is made: 2 x 10^6 draws on a dim-16 vector peak
    # no higher than 2^18 do (whole-run uniforms and indices alone would be
    # 32 MB).
    vp = tmp_path / "v.txt"
    np.savetxt(vp, np.random.default_rng(5).standard_normal(16))
    peaks = []
    for draws in (2 * sq._DRAW_BLOCK, 2 * 10**6):
        config = {"vector": str(vp), "normalize": True, "draws": draws, "seed": 1}
        cli._exec_dequant_sample(config)  # warm numpy's caches
        gc.collect()
        tracemalloc.start()
        try:
            cli._exec_dequant_sample(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_dequant_zero_vector_exits_2(runner, tmp_path):
    vp = tmp_path / "z.txt"
    np.savetxt(vp, np.zeros(4))
    r = runner.invoke(main, ["dequant", "build", "--vector", str(vp), "--out-dir", str(tmp_path)])
    assert r.exit_code == 2


def test_dequant_build_accepts_every_norm_that_build_accepts(runner, tmp_path):
    # A norm 0.9e-9 short of 1 passes build's check, and its total mass,
    # about 1.8e-9 short, passes the table's check.
    vp, out = tmp_path / "v.npy", tmp_path / "out"
    np.save(vp, np.array([0.6, 0.8]) * (1 - 0.9e-9))
    r = runner.invoke(main, ["dequant", "build", "--vector", str(vp), "--out-dir", str(out)])
    assert r.exit_code == 0, r.output
    report = json.loads(_read(out / "dequant_build_report.json"))
    assert report["dim"] == 2 and abs(report["root"] - (1 - 1.8e-9)) < 1e-15


def test_dequant_build_refuses_a_norm_past_the_bound(runner, tmp_path):
    vp, out = tmp_path / "v.npy", tmp_path / "out"
    np.save(vp, np.array([0.6, 0.8]) * (1 - 1.1e-9))
    r = runner.invoke(main, ["dequant", "build", "--vector", str(vp), "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert "norm" in r.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "estimate"])
def test_dequant_complex_vector_exits_2(runner, tmp_path, command):
    # Casting to float would keep [0.6, 0] of [0.6 + 0.8j, 0] and report on
    # its normalization [1, 0].
    cp, rp = tmp_path / "c.npy", tmp_path / "r.npy"
    np.save(cp, np.array([0.6 + 0.8j, 0]))
    np.save(rp, np.array([0.6, 0.8]))
    args = (["build", "--vector", str(cp)] if command == "build"
            else ["estimate", "--x", str(rp), "--y", str(cp)])
    out = tmp_path / "out"
    r = runner.invoke(main, ["dequant", *args, "--normalize", "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert "complex" in r.output
    assert not out.exists()


def test_sense_command(runner, tmp_path):
    r = runner.invoke(
        main,
        ["sense", "--theta", "0.05", "--gamma", "0.2", "--shots", "20000", "--seed", "3",
         "--out-dir", str(tmp_path)],
    )
    assert r.exit_code == 0, r.output
    rep = json.loads(_read(tmp_path / "sense_report.json"))
    assert rep["uses_per_shot"] == 5
    assert abs(rep["bias_measured"] - rep["bias_analytic"]) < 0.01
    assert rep["kl_sample_bound"] == pytest.approx(2 * 0.2 / 0.05**2)


def _strict_json(text: str):
    """The parsed JSON, refusing the NaN and Infinity tokens json.dumps
    writes by default."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("args", [
    ["--theta", "1e-200"], ["--theta", "1e-170"], ["--theta", "1e-160"],
    ["--theta", "1e-155"], ["--theta", "1e155"], ["--theta", "1e300"],
    ["--gamma", "1e-320", "--r-uses", "3"], ["--gamma", "0", "--r-uses", "3"],
])
def test_sense_bounds_beyond_float_range_stay_strict_json(runner, tmp_path, args):
    # theta^2 under- or overflows, or a quotient overflows: the bound no
    # float holds is reported as null, as at theta = 0.
    r = runner.invoke(main, ["sense", *args, "--shots", "1000", "--out-dir", str(tmp_path)])
    assert r.exit_code == 0, r.output
    rep = _strict_json(_read(tmp_path / "sense_report.json"))
    assert rep["kl_divergence"] is rep["kl_sample_bound"] is rep["nt_bound"] is None


@pytest.mark.parametrize("gamma", ["1e-320", "5e-324"])
def test_sense_subnormal_gamma_without_uses_exits_2(runner, tmp_path, gamma):
    # 1/gamma overflows to inf, so no default uses per shot exists: a
    # configuration error, with nothing written.
    r = runner.invoke(main, ["sense", "--gamma", gamma, "--shots", "10",
                             "--out-dir", str(tmp_path)])
    assert r.exit_code == 2, r.output
    assert "too small" in r.output
    assert list(tmp_path.iterdir()) == []


def test_bell_command(runner, tmp_path):
    r = runner.invoke(
        main, ["bell", "--trials", "20000", "--seed", "0", "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 0, r.output
    rep = json.loads(_read(tmp_path / "bell_report.json"))
    assert rep["classical_chsh_max"] == 2.0
    assert rep["quantum_chsh_optimal"] == pytest.approx(2 * np.sqrt(2), abs=1e-9)
    lines = _read(tmp_path / "bell_strategies.csv").splitlines()
    assert len(lines) == 2 + 16  # hash comment + header + strategies


def test_oracle_check_command(runner, tmp_path):
    r = runner.invoke(
        main,
        ["oracle-check", "--instances", "5", "--max-n", "4", "--max-layers", "4",
         "--seed", "5", "--out-dir", str(tmp_path)],
    )
    assert r.exit_code == 0, r.output
    rep = json.loads(_read(tmp_path / "oracle_check_report.json"))
    assert rep["passed"] is True
    assert rep["max_abs_deviation"] <= 1e-9


def test_output_dir_env_var(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("QADV_OUTPUT_DIR", str(tmp_path / "envout"))
    r = runner.invoke(main, ["bell", "--trials", "1000", "--seed", "0"])
    assert r.exit_code == 0, r.output
    assert (tmp_path / "envout" / "bell_report.json").exists()


def test_json_numbers_rounded_to_12_digits(runner, tmp_path):
    r = runner.invoke(
        main, ["bell", "--trials", "1000", "--seed", "0", "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 0
    rep = json.loads(_read(tmp_path / "bell_report.json"))
    text = f"{rep['quantum_chsh_optimal']!r}"
    digits = text.replace("-", "").replace(".", "").lstrip("0")
    assert len(digits) <= 13


def test_invariant_violation_exits_3(runner, tmp_path, monkeypatch):
    from qadv import cli
    from qadv.errors import InvariantViolation

    def boom(config):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setitem(cli._EXECUTORS, "bell", boom)
    r = runner.invoke(main, ["bell", "--out-dir", str(tmp_path)])
    assert r.exit_code == 3


def test_internal_check_failure_exits_3(runner, tmp_path, monkeypatch):
    # A failed internal consistency check is a broken invariant, not a
    # configuration error: with a negative tolerance every transfer matrix
    # fails its realness check.
    from qadv import pauli

    monkeypatch.setattr(pauli, "_HERMITICITY_TOL", -1)
    r = runner.invoke(
        main, ["decay", "--n", "4", "--L", "1", "--trials", "2", "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 3
    assert "invariant violation" in r.output


def test_resource_limit_exits_4(runner, tmp_path):
    wide = circuits.Circuit(17, ())
    cpath = tmp_path / "wide.json"
    circuits.save_circuit(wide, str(cpath))
    r = runner.invoke(
        main, ["detect", "--circuit", str(cpath), "--s", "2", "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 4
    # Refused before the 2^40 amplitudes are allocated.
    circuits.save_circuit(circuits.Circuit(40, ()), str(cpath))
    r = runner.invoke(
        main, ["detect", "--circuit", str(cpath), "--s", "2", "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 4
    # Pauli masks are one uint64 word: a 66-qubit propagation is refused.
    r = runner.invoke(
        main, ["decay", "--n", "66", "--L", "1", "--trials", "2", "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 4


def test_decay_refuses_a_wide_register_before_any_sector_work(runner, tmp_path, monkeypatch):
    # Checked beside the other argument checks, not by trial 0's check
    # after every chunk has propagated.
    from qadv import detection

    def spy(*_):
        raise AssertionError("sector work started")

    monkeypatch.setattr(detection, "_sector_norms", spy)
    out = tmp_path / "out"
    r = runner.invoke(
        main, ["decay", "--n", "66", "--L", "4", "--trials", "2000", "--out-dir", str(out)])
    assert r.exit_code == 4, r.output
    assert "64-qubit" in r.output
    assert not out.exists()


@pytest.mark.parametrize("args", [["--copies", "27"], ["--n", "200"]], ids=["copies", "n"])
def test_suite_refuses_a_wide_detection_circuit_before_building_it(
        runner, tmp_path, monkeypatch, args):
    # n + m*copies + 1 is checked against the dense limit before any
    # detection circuit, with its 2^(copies + 1)-entry majority
    # permutation, is built.
    def spy(*_, **__):
        raise AssertionError("a detection circuit was built")

    monkeypatch.setattr(circuits, "build_cnew", spy)
    out = tmp_path / "out"
    r = runner.invoke(main, ["suite", "--yes", "1", "--no", "1", *args, "--out-dir", str(out)])
    assert r.exit_code == 4, r.output
    assert "dense limit" in r.output
    assert not out.exists()
    # Even copies that fit reach the majority vote, which refuses them.
    monkeypatch.undo()
    r = runner.invoke(main, ["suite", "--yes", "1", "--no", "1", "--copies", "4",
                             "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert "odd" in r.output
    assert not out.exists()


def test_bad_parameter_value_exits_2(runner, tmp_path):
    vp = tmp_path / "v.txt"
    np.savetxt(vp, [0.6, 0.8])
    cpath = tmp_path / "c.json"
    circuits.save_circuit(circuits.random_brickwork(3, 2, seed=0), str(cpath))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cells": [{"N": 2, "theta": 0.1}]}))
    nan_grid = tmp_path / "nan_grid.json"
    nan_grid.write_text(json.dumps({"cells": [{"N": 2, "theta": float("nan")}]}))
    nan_vec = tmp_path / "nan.txt"
    np.savetxt(nan_vec, [0.6, np.nan])
    inf_vec = tmp_path / "inf.txt"
    np.savetxt(inf_vec, [0.6, np.inf])
    out = tmp_path / "out"
    for args in (
        ["sense", "--gamma", "-0.5"],
        ["decay", "--n", "5"],  # odd n rejected
        ["decay", "--n", "0"],  # no qubits to pair
        ["decay", "--L", "-1"],
        ["suite", "--yes", "1", "--no", "0", "--L", "-1"],  # a negative depth
        ["decay", "--jobs", "0"],
        ["suite", "--yes", "1", "--no", "1", "--s", "0"],
        ["suite", "--yes", "0", "--no", "0"],  # a suite with no instances
        ["dequant", "estimate", "--x", str(vp), "--y", str(vp), "--samples", "0"],
        ["bell", "--trials", "0"],
        ["dequant", "sample", "--vector", str(vp), "--draws", "0"],
        ["sense", "--r-uses", "0"],  # 0 is a value, not "use the default"
        ["oracle-check", "--inputs-per-circuit", "0"],
        ["oracle-check", "--instances", "0"],
        ["detect", "--circuit", str(cpath), "--shots", "0"],  # a rate over 0 draws
        ["sweep", "--config", str(grid), "--trials", "0"],  # a rate over 0 trials
        # NaN passes every "x < 0" and "|x - 1| > tol" test.
        ["sense", "--theta", "nan"],
        ["sense", "--gamma", "nan", "--r-uses", "5"],
        ["sweep", "--config", str(nan_grid)],
        ["dequant", "build", "--vector", str(nan_vec)],
        ["dequant", "sample", "--vector", str(nan_vec)],
        ["dequant", "estimate", "--x", str(vp), "--y", str(nan_vec)],
        ["dequant", "build", "--vector", str(inf_vec), "--normalize"],
    ):
        r = runner.invoke(main, [*args, "--out-dir", str(out)])
        assert r.exit_code == 2, (args, r.output)
        assert not any(out.glob("*")), args


@pytest.mark.parametrize("flag,value", [("--max-n", "1"), ("--max-layers", "0")])
def test_oracle_check_out_of_range_bound_names_the_flag(runner, tmp_path, flag, value):
    out = tmp_path / "out"
    r = runner.invoke(main, ["oracle-check", flag, value, "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert flag in r.output
    assert not out.exists()


@pytest.mark.parametrize(
    "execute, config",
    [
        (cli._exec_suite, {"yes": 0, "no": 0}),
    ],
    ids=["yes-no"],
)
def test_parameter_checks_raise_config_error(execute, config):
    # A config error, not a ValueError, so exit 2 does not rest on ValueError.
    with pytest.raises(ConfigError):
        execute(config)


# (command, other flags, flag, config key, a value outside its range). The
# suite's other count is 2, so that the sum passes the cross-option check.
_RANGES = [(["dequant", "sample"], ["--vector", "{v}"], "--draws", "draws", 0),
           (["oracle-check"], [], "--instances", "instances", 0),
           (["oracle-check"], [], "--max-n", "max_n", 1),
           (["oracle-check"], [], "--max-layers", "max_layers", 0),
           (["suite"], ["--no", "2"], "--yes", "yes", -1),
           (["suite"], ["--yes", "2"], "--no", "no", -1)]


@pytest.mark.parametrize("command, others, flag, key, value", _RANGES,
                         ids=[r[2] for r in _RANGES])
def test_option_ranges_are_refused_where_a_value_enters(runner, tmp_path, command, others,
                                                        flag, key, value):
    # The range is the option's type in the table: config resolution
    # refuses the value as a ConfigError naming the key, and the flag
    # exits 2 naming the flag, before anything is written.
    with pytest.raises(ConfigError, match=repr(key)):
        cli._resolve(cli._OPTIONS["-".join(command)], {key: value}, {})
    vp = tmp_path / "v.txt"
    np.savetxt(vp, [0.6, 0.8])
    out = tmp_path / "out"
    r = runner.invoke(main, [*command, *(a.format(v=vp) for a in others), flag, str(value),
                             "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert flag in r.output
    assert not out.exists()


@pytest.mark.parametrize("y_len", [3, 7])
def test_dequant_estimate_refuses_vectors_of_different_lengths(runner, tmp_path, y_len):
    # Both pad to 8 entries, but a y of another length is not x's query vector.
    xp, yp, out = tmp_path / "x.txt", tmp_path / "y.txt", tmp_path / "out"
    np.savetxt(xp, np.ones(5))
    np.savetxt(yp, np.ones(y_len))
    r = runner.invoke(main, ["dequant", "estimate", "--x", str(xp), "--y", str(yp),
                             "--normalize", "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert f"--x has 5 entries and --y {y_len}" in r.output
    assert not out.exists()


@pytest.mark.parametrize("config", [{"draws": 0}, {"draws": "30"}])
def test_config_draws_out_of_range_or_of_the_wrong_type_exits_2(runner, tmp_path, config):
    vp, cfg, out = tmp_path / "v.txt", tmp_path / "cfg.json", tmp_path / "out"
    np.savetxt(vp, [0.6, 0.8])
    cfg.write_text(json.dumps(config))
    r = runner.invoke(main, ["dequant", "sample", "--vector", str(vp), "--config", str(cfg),
                             "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert "'draws'" in r.output
    assert not out.exists()


def test_rerun_refuses_a_rehashed_count_out_of_range(runner, tmp_path):
    r = runner.invoke(main, ["oracle-check", "--instances", "1", "--max-n", "2",
                             "--max-layers", "1", "--out-dir", str(tmp_path)])
    assert r.exit_code == 0, r.output
    man = json.loads(_read(tmp_path / "oracle_check_manifest.json"))
    man["config"]["instances"] = 0
    man["manifest_hash"] = manifest.manifest_hash("oracle-check", man["config"])
    mpath = tmp_path / "edited.json"
    mpath.write_text(json.dumps(man))
    out = tmp_path / "out"
    r = runner.invoke(main, ["rerun", str(mpath), "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert "'instances'" in r.output
    assert not out.exists()


@pytest.mark.parametrize("text", [b'{"trials": 4, "seed": "\xff"}',
                                  b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "nested-past-the-recursion-limit"])
def test_config_file_that_cannot_be_read_is_named(runner, tmp_path, text):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_bytes(text)
    r = runner.invoke(main, ["bell", "--config", str(cfg), "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert f"cannot read config {cfg}" in r.output
    assert not out.exists()


def test_every_default_lies_in_its_own_range():
    # Defaults reach a run unconverted, so a range that excluded its own
    # default would go unnoticed by every run that leaves the flag out.
    for _, _, options, _ in cli._COMMANDS:
        for o in options:
            if o.flag is not None and o.default is not None:
                assert cli._from_file(o, o.default) == o.default, o.key


def test_decay_zero_layers_writes_one_row(runner, tmp_path):
    r = runner.invoke(
        main, ["decay", "--n", "4", "--L", "0", "--trials", "4", "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 0, r.output
    rows = [l for l in _read(tmp_path / "decay_layers.csv").splitlines()
            if not l.startswith("#")]
    assert rows == ["layer,mean_norm,ratio", "0,1,"]


def test_deep_decay_reports_undefined_ratios_as_null(runner, tmp_path):
    # At n = 2 the mean norm underflows to 0 long before layer 900; every
    # later ratio is 0/0.
    r = runner.invoke(
        main, ["decay", "--n", "2", "--L", "900", "--trials", "2", "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 0, r.output
    rep = _strict_json(_read(tmp_path / "decay_report.json"))
    first = rep["ratios"].index(None)
    assert 0 < first < 900 and rep["layer_means"][first] == 0.0
    assert set(rep["ratios"][first:]) == {None}
    defined = rep["ratios"][:first]
    assert f"ratios min={min(defined):.4f} max={max(defined):.4f}" in r.output
    rows = [l.split(",") for l in _read(tmp_path / "decay_layers.csv").splitlines()[2:]]
    assert [row[2] == "" for row in rows] == [j == 0 or j > first for j in range(901)]


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_report_with_a_non_finite_float_raises_and_writes_nothing(tmp_path, bad):
    path = tmp_path / "report.json"
    with pytest.raises(InvariantViolation, match="report"):
        manifest.write_json_report(str(path), {"ok": 1.0, "nested": [{"bad": bad}]}, "h")
    assert not path.exists()


def _sweep_cells(runner, tmp_path, cells):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cells": cells}))
    out = tmp_path / "out"
    r = runner.invoke(main, ["sweep", "--config", str(grid), "--out-dir", str(out)])
    assert not out.exists()
    return r


def test_sweep_cell_without_theta_exits_2(runner, tmp_path):
    r = _sweep_cells(runner, tmp_path, [{"N": 2, "gamma": 0.0}])
    assert r.exit_code == 2, r.output
    assert "'theta'" in r.output


def test_sweep_cell_with_misspelt_key_exits_2(runner, tmp_path):
    # "n" is not "N": the cell must not silently run with the default N = 1.
    r = _sweep_cells(runner, tmp_path, [{"n": 4, "theta": 0.1}])
    assert r.exit_code == 2, r.output
    assert "['n']" in r.output


# Rehashed edits: the hash matches, but no run could have recorded the config.
_REHASHED = {
    "L_as_text": lambda config: {**config, "L": "2"},
    "no_L": lambda config: {k: v for k, v in config.items() if k != "L"},
    "config_list": lambda config: list(config.items()),
    "unknown_key": lambda config: {**config, "depth": 2},
}


@pytest.mark.parametrize(
    "edit", ["trials", "subcommand", "config", "manifest_hash", *_REHASHED]
)
def test_rerun_refuses_modified_manifest(runner, tmp_path, edit):
    r = runner.invoke(
        main, ["decay", "--n", "4", "--L", "2", "--trials", "4", "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 0, r.output
    man = json.loads(_read(tmp_path / "decay_manifest.json"))
    if edit == "trials":
        man["config"]["trials"] = 6  # the stored hash no longer matches
    elif edit in _REHASHED:
        man["config"] = _REHASHED[edit](man["config"])
        man["manifest_hash"] = manifest.manifest_hash("decay", man["config"])
    else:
        del man[edit]
    mpath = tmp_path / "edited.json"
    mpath.write_text(json.dumps(man))
    out = tmp_path / "out"
    out.mkdir()
    r = runner.invoke(main, ["rerun", str(mpath), "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert not list(out.iterdir())


def test_rerun_refuses_a_null_required_value(runner, tmp_path):
    # Null stands for a default, and a required key has none.
    cpath = tmp_path / "c.json"
    circuits.save_circuit(circuits.random_brickwork(3, 2, seed=0), str(cpath))
    r = runner.invoke(main, ["detect", "--circuit", str(cpath), "--s", "2",
                             "--out-dir", str(tmp_path)])
    assert r.exit_code == 0, r.output
    man = json.loads(_read(tmp_path / "detect_manifest.json"))
    man["config"]["circuit"] = None
    man["manifest_hash"] = manifest.manifest_hash("detect", man["config"])
    mpath = tmp_path / "edited.json"
    mpath.write_text(json.dumps(man))
    out = tmp_path / "out"
    r = runner.invoke(main, ["rerun", str(mpath), "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert "'circuit'" in r.output
    assert not out.exists()


def _required_inputs(tmp_path) -> dict:
    """A config per subcommand with required options: its required keys
    (input paths) and small counts."""
    cpath = tmp_path / "c.json"
    circuits.save_circuit(circuits.random_brickwork(3, 2, seed=0), str(cpath))
    rng = np.random.default_rng(3)
    for name in ("x", "y"):
        np.savetxt(tmp_path / f"{name}.txt", rng.standard_normal(6))
    x, y = str(tmp_path / "x.txt"), str(tmp_path / "y.txt")
    return {
        "detect": {"circuit": str(cpath), "s": 2},
        "dequant build": {"vector": x, "normalize": True},
        "dequant sample": {"vector": x, "normalize": True, "draws": 50},
        "dequant estimate": {"x": x, "y": y, "normalize": True, "samples": 50},
    }


@pytest.mark.parametrize("name", ["detect", "dequant build", "dequant sample", "dequant estimate"])
def test_required_options_may_come_from_the_config_file(runner, tmp_path, name):
    cfg = tmp_path / "cfg.json"
    config = _required_inputs(tmp_path)[name]
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    r = runner.invoke(main, [*name.split(), "--config", str(cfg), "--out-dir", str(out)])
    assert r.exit_code == 0, r.output
    stem = name.replace(" ", "_")
    assert json.loads(_read(out / f"{stem}_manifest.json"))["config"].items() >= config.items()


@pytest.mark.parametrize("name, flag, key", [
    ("detect", "--circuit", "circuit"), ("dequant build", "--vector", "vector"),
    ("dequant sample", "--vector", "vector"), ("dequant estimate", "--y", "y"),
])
def test_required_option_in_neither_flag_nor_config_exits_2(runner, tmp_path, name, flag, key):
    cfg = tmp_path / "cfg.json"
    config = _required_inputs(tmp_path)[name]
    del config[key]
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    r = runner.invoke(main, [*name.split(), "--config", str(cfg), "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert f"Missing option '{flag}'" in r.output and repr(key) in r.output
    assert not out.exists()


def _decay_manifest_with_drop_tolerance(tmp_path, version, drop_tolerance=DROP_TOLERANCE):
    """A decay manifest whose config holds a drop tolerance, as qadv 0.1.0
    wrote it before the tolerance became a constant, hashed under
    `version`."""
    config = {"n": 6, "L": 7, "trials": 50, "seed": 2, "jobs": 1,
              "drop_tolerance": drop_tolerance}
    mpath = tmp_path / "old_manifest.json"
    mpath.write_text(json.dumps({
        "subcommand": "decay", "config": config, "seed": 2, "version": version,
        "manifest_hash": manifest.manifest_hash("decay", config, version),
        "outputs": [], "duration_s": 0.0,
    }))
    return mpath


def test_rerun_refuses_a_0_1_0_manifest_that_recorded_the_drop_tolerance(runner, tmp_path):
    # Only 0.1.0 wrote the key; the version check refuses the manifest first.
    mpath = _decay_manifest_with_drop_tolerance(tmp_path, "0.1.0")
    out = tmp_path / "out"
    r = runner.invoke(main, ["rerun", str(mpath), "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert f"written by qadv 0.1.0; this is qadv {manifest.ARTIFACT_VERSION}" in r.output
    assert not out.exists()


@pytest.mark.parametrize("drop_tolerance", [1e-9, float("nan"), DROP_TOLERANCE])
def test_rerun_refuses_another_recorded_drop_tolerance(runner, tmp_path, drop_tolerance):
    # A current manifest cannot hold the key, whatever its value: the
    # exact-keys check refuses it and names the key.
    mpath = _decay_manifest_with_drop_tolerance(
        tmp_path, manifest.ARTIFACT_VERSION, drop_tolerance
    )
    out = tmp_path / "out"
    r = runner.invoke(main, ["rerun", str(mpath), "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert "manifest config must hold exactly the keys" in r.output
    assert "drop_tolerance" in r.output
    assert not out.exists()


def test_oracle_check_failure_writes_data_but_no_manifest(runner, tmp_path, monkeypatch):
    from qadv import statevector

    exact = statevector.output_prob
    monkeypatch.setattr(statevector, "output_prob", lambda c, x: exact(c, x) + 1e-6)
    r = runner.invoke(
        main, ["oracle-check", "--instances", "2", "--max-n", "3", "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 3
    assert json.loads(_read(tmp_path / "oracle_check_report.json"))["passed"] is False
    assert (tmp_path / "oracle_check_records.csv").exists()
    assert not (tmp_path / "oracle_check_manifest.json").exists()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_report_bytes_are_pinned(runner, tmp_path):
    # Report and table bytes, not only manifest hashes, are the output
    # contract. Suite is not pinned: its exact values come from BLAS
    # products whose rounding may differ between machines (decay is pinned
    # below, for the numpy build in use, because chunking its trials must
    # not move its floats).
    r = runner.invoke(
        main, ["bell", "--trials", "20000", "--seed", "0", "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 0, r.output
    assert _sha256(tmp_path / "bell_report.json") == (
        "c49baac55b5f9cd49aa2e263ca254d5dc964d646ede4dbbe6a4941df05731009")
    assert _sha256(tmp_path / "bell_strategies.csv") == (
        "69cce51774f3970fa706ce654c39e11a650d0a440b92b3c2e16cf30e221f46de")
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(
        {"cells": [{"N": 2, "theta": 0.01, "gamma": 0.0, "T": 158}], "trials": 200}))
    r = runner.invoke(
        main, ["sweep", "--protocol", "ghz", "--config", str(cfg), "--seed", "4",
               "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 0, r.output
    assert _sha256(tmp_path / "sweep_report.json") == (
        "d48f4378be2b3f14fd2131befd304d43be471df0887c5da4baa2dac4ae443446")
    assert _sha256(tmp_path / "sweep_results.csv") == (
        "a6bb497922cbaaee64b172ba8aca976a8c3985afc92e59d40617d2b03fbeb8ed")


def test_sensing_report_bytes_are_pinned(runner, tmp_path):
    # The separable decision rule and the theta = 0 expected answer both
    # reach these bytes; the second sweep cell has theta = 0.
    r = runner.invoke(
        main, ["sense", "--theta", "0.05", "--gamma", "0.2", "--shots", "20000", "--seed", "3",
               "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 0, r.output
    assert _sha256(tmp_path / "sense_report.json") == (
        "9ebf6733df36268c3cc8ab74709e3f6a65dabbee7dbc7fbbb8baf08ee2aad4a5")
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"cells": [
        {"N": 2, "theta": 0.05, "gamma": 0.1, "K": 3},
        {"N": 1, "theta": 0.0, "gamma": 0.2, "K": 2},
        {"N": 3, "theta": 0.2, "gamma": 0.5, "T": 4, "K": 5},
    ]}))
    r = runner.invoke(
        main, ["sweep", "--protocol", "separable", "--trials", "301", "--config", str(cfg),
               "--seed", "5", "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 0, r.output
    assert _sha256(tmp_path / "sweep_report.json") == (
        "4e4e7f0b92de9ff68a7b1f153d3b81f4be0f80fec1f12914c13c9bffc7707ba8")
    assert _sha256(tmp_path / "sweep_results.csv") == (
        "c5efdbabebb2ebc89d00332e54562097ccbd5c729270a4c6c89b0de47816ab5a")



def test_decay_report_bytes_are_pinned(runner, tmp_path):
    # Trials propagate in chunks; each trial's norms are the same floats in
    # any chunk, so these bytes hold whatever the chunk size.
    # Only the manifest_hash line moved when the drop tolerance left the
    # config and when the version went to 0.2.0, 0.3.0, 0.4.0, 0.5.0, 0.6.0,
    # 0.7.0, 0.8.0 and 0.9.0; at 0.8.0 Gram-Schmidt replaced QR and moved
    # the Haar gates by about 1e-15, which no reported digit shows.
    # The Haar draws use numpy's complex multiply, which may fuse its
    # multiply-adds on one CPU and not on another, so another numpy build or
    # machine may need the hashes re-taken.
    pinned = [
        (["--n", "8", "--L", "10", "--trials", "300", "--seed", "1"],
         "b2cd5f7f0eff7af964a05b50dbb5d51b03f75ac86868732fbfd021be716f4899",
         "34341deab795b4a25e3fc5e9d0b6b6a25aaa9a0027a17d521027d1e003b39f33"),
        (["--n", "6", "--L", "7", "--trials", "50", "--seed", "2"],
         "e9d2c45b64057c3df44db6f125714c58c6744f77ccace18a7eb522a4e3651755",
         "c834c8c95a0c85e008b173234b97ee815ad8c7b370fc105c4725069d2aa99904"),
    ]
    for args, report_sha, csv_sha in pinned:
        out = tmp_path / args[-1]
        r = runner.invoke(main, ["decay", *args, "--out-dir", str(out)])
        assert r.exit_code == 0, r.output
        assert _sha256(out / "decay_report.json") == report_sha
        assert _sha256(out / "decay_layers.csv") == csv_sha


def test_dequant_report_bytes_are_pinned(runner, tmp_path, monkeypatch):
    # The counts are one multinomial draw over 1,000 entries; the estimate's
    # draws cross several descent blocks, so a kernel that changed a single
    # index would move these bytes. The vector paths enter the manifest
    # hash, so they are given relative to the working directory.
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(11)
    np.savetxt("x.txt", rng.standard_normal(1000))
    np.savetxt("y.txt", rng.standard_normal(1000))
    r = runner.invoke(
        main, ["dequant", "sample", "--vector", "x.txt", "--normalize", "--draws", "50000",
               "--seed", "6", "--out-dir", "out"]
    )
    assert r.exit_code == 0, r.output
    assert _sha256(tmp_path / "out" / "dequant_sample_report.json") == (
        "b198c8d463662a2c8947ef279a8e5dc1c4e41b26e4f8d5b561394cd1712edd2c")
    assert _sha256(tmp_path / "out" / "dequant_samples.csv") == (
        "530bc85566fc5c4255bdd4327a74c42fbb6058f338fccba16a7314f43dc0c882")
    r = runner.invoke(
        main, ["dequant", "estimate", "--x", "x.txt", "--y", "y.txt", "--normalize",
               "--samples", "40000", "--seed", "7", "--out-dir", "out"]
    )
    assert r.exit_code == 0, r.output
    assert _sha256(tmp_path / "out" / "dequant_estimate_report.json") == (
        "f80a00e1be5238848846c4e5d0ea1191e418418dab9e1279e79105d2938c39c2")


@pytest.mark.parametrize("cell, key", [
    ({"N": 1.5, "T": 2, "theta": 0.1}, "N"),  # not run as N = 1
    ({"T": 2.7, "theta": 0.1}, "T"),
    ({"N": True, "theta": 0.1}, "N"),  # not run as N = 1
    ({"K": 2.0, "theta": 0.1}, "K"),
    ({"theta": "0.5"}, "theta"),
    ({"theta": True}, "theta"),
    ({"theta": 0.1, "gamma": "0"}, "gamma"),
    ({"theta": int("1" * 400)}, "theta"),  # a number, but no float holds it
])
def test_sweep_cell_of_the_wrong_type_exits_2(runner, tmp_path, cell, key):
    r = _sweep_cells(runner, tmp_path, [{"theta": 0.2}, cell])
    assert r.exit_code == 2, r.output
    assert f"sweep cell 1 key {key!r}" in r.output


@pytest.mark.parametrize("cells", [5, True, 1.5, "ab"])
def test_sweep_cells_that_are_not_a_list_exit_2(runner, tmp_path, cells):
    r = _sweep_cells(runner, tmp_path, cells)
    assert r.exit_code == 2, r.output
    assert "sweep cells: expected a list" in r.output


@pytest.mark.parametrize("args", [
    ["sense", "--theta", "inf"],
    ["sense", "--gamma", "inf"],
    ["sweep", "--config", "grid.json"],
])
def test_non_finite_theta_or_gamma_exits_2(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    Path("grid.json").write_text('{"cells": [{"theta": 1e400}]}')  # JSON reads it as inf
    r = runner.invoke(main, [*args, "--out-dir", "out"])
    assert r.exit_code == 2, r.output
    assert "theta and gamma must be finite" in r.output
    assert not Path("out").exists()


@pytest.mark.parametrize("subcommand", [["decay"], {"decay": 1}])
def test_rerun_refuses_a_subcommand_that_is_not_text(runner, tmp_path, subcommand):
    # Rehashed, so the type check and not the hash check refuses it.
    config = {"n": 4, "L": 2, "trials": 4, "seed": 1, "jobs": 1}
    mpath = tmp_path / "edited.json"
    mpath.write_text(json.dumps({"subcommand": subcommand, "config": config,
                                 "manifest_hash": manifest.manifest_hash(subcommand, config)}))
    out = tmp_path / "out"
    r = runner.invoke(main, ["rerun", str(mpath), "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert "$.subcommand: expected a string" in r.output
    assert not out.exists()


def test_detect_names_a_circuit_file_that_is_not_text(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_bytes(b"\xff\xfe\x00\x01\x02\x03\x04")
    r = runner.invoke(main, ["detect", "--circuit", "c.json", "--out-dir", "out"])
    assert r.exit_code == 2, r.output
    assert "cannot read circuit c.json" in r.output
    assert not Path("out").exists()


@pytest.mark.parametrize("args", [["rerun", "d"], ["detect", "--circuit", "d"]])
def test_a_directory_given_as_a_file_exits_2(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    Path("d").mkdir()
    r = runner.invoke(main, [*args, "--out-dir", "out"])
    assert r.exit_code == 2, r.output
    assert "is a directory" in r.output
    assert not Path("out").exists()


def test_rerun_names_a_truncated_manifest(runner, tmp_path):
    r = runner.invoke(
        main, ["decay", "--n", "4", "--L", "2", "--trials", "4", "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 0, r.output
    text = _read(tmp_path / "decay_manifest.json")
    mpath = tmp_path / "truncated.json"
    mpath.write_text(text[: len(text) // 2])
    out = tmp_path / "out"
    r = runner.invoke(main, ["rerun", str(mpath), "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert f"cannot read manifest {mpath}" in r.output
    assert not out.exists()


def test_rerun_refuses_a_manifest_of_another_version(runner, tmp_path):
    # Rehashed under its own version: the version, not drift, is refused.
    r = runner.invoke(
        main, ["decay", "--n", "4", "--L", "2", "--trials", "4", "--out-dir", str(tmp_path)]
    )
    assert r.exit_code == 0, r.output
    man = json.loads(_read(tmp_path / "decay_manifest.json"))
    man["version"] = "0.0.9"
    man["manifest_hash"] = manifest.manifest_hash("decay", man["config"], "0.0.9")
    mpath = tmp_path / "old.json"
    mpath.write_text(json.dumps(man))
    out = tmp_path / "out"
    r = runner.invoke(main, ["rerun", str(mpath), "--out-dir", str(out)])
    assert r.exit_code == 2, r.output
    assert f"written by qadv 0.0.9; this is qadv {manifest.ARTIFACT_VERSION}" in r.output
    assert "does not match" not in r.output
    assert not out.exists()
