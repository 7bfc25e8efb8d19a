import math
import tracemalloc

import numpy as np
import pytest

from qadv import sensing
from qadv.errors import SchemaError
from qadv.sensing import (
    default_uses_per_shot,
    ghz_minus_probability,
    ghz_trials,
    kl_divergence,
    kl_sample_bound,
    minimal_ghz_uses,
    minimal_separable_nt,
    nt_bound_branches,
    scaling_sweep,
    separable_bias,
    separable_fractions,
)

from oracles import (
    ghz_trials_per_shot,
    separable_fractions_per_shot,
    separable_success_closed_form,
    sweep_cell_per_trial,
)


def test_closed_forms_are_elementwise_in_theta():
    # The GHZ minus probability is sin^2(N T theta / 2) without noise; the
    # fringe shrinks by exp(-N T gamma / 2) with it.
    thetas = np.array([0.0, 0.01, 0.05])
    got = ghz_minus_probability(4, 10, thetas, 0.02)
    want = [0.5 * (1 - math.cos(40 * t) * math.exp(-0.4)) for t in thetas]
    assert got == pytest.approx(want, rel=1e-14)
    assert ghz_minus_probability(4, 10, 0.05, 0.0) == pytest.approx(math.sin(1.0) ** 2)
    assert separable_bias(thetas, 0.2, 5) == pytest.approx(
        [separable_bias(t, 0.2, 5) for t in thetas], rel=1e-15)


@pytest.mark.parametrize("counts", [(2**63, 1), (1, 2**63), (10**309, 1)])
def test_counts_past_the_binomial_range_are_refused(counts):
    # rng.binomial takes counts up to 2^63 - 1; the trial functions refuse
    # larger ones with ValueError before they draw.
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="2\\*\\*63 - 1"):
        ghz_trials(*counts, [0.1], 0.1, rng)
    with pytest.raises(ValueError, match="2\\*\\*63 - 1"):
        separable_fractions(*counts, [0.1], 0.1, rng)
    assert rng.random() == np.random.default_rng(0).random()
    # The largest count is drawn.
    assert separable_fractions(2**63 - 1, 1, [0.1], 0.1, rng).shape == (1,)


def test_config_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ghz_trials(0, 1, [0.1], 0.1, rng)
    with pytest.raises(ValueError):
        ghz_trials(1, 1, [-0.1], 0.1, rng)
    with pytest.raises(ValueError):
        separable_fractions(0, 1, [0.1], 0.1, rng)
    with pytest.raises(ValueError):
        separable_fractions(1, 1, [-0.1], 0.1, rng)
    # NaN passes every "x < 0" test, so it is refused explicitly.
    with pytest.raises(ValueError):
        ghz_trials(1, 1, [math.nan], 0.1, rng)
    with pytest.raises(ValueError):
        separable_fractions(1, 1, [0.1], math.nan, rng)
    # Infinity passes "x >= 0", and a non-finite angle or noise variance
    # has no meaning.
    for theta, gamma in ((math.inf, 0.1), (0.1, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            ghz_trials(1, 1, [theta], gamma, rng)
        with pytest.raises(ValueError, match="finite"):
            separable_fractions(1, 1, [theta], gamma, rng)


# ---------------------------------------------------------------------------
# GHZ protocol


def test_ghz_no_signal_never_heralds():
    rng = np.random.default_rng(3)
    for _ in range(200):
        assert not ghz_trials(4, 10, [0.0], 0.0, rng)[0]


def test_ghz_pi_phase_always_heralds():
    rng = np.random.default_rng(4)
    for _ in range(200):
        assert ghz_trials(2, 4, [math.pi / 8], 0.0, rng)[0]  # N*T*theta = pi


def test_ghz_detection_rate_matches_closed_form():
    # N=8, theta=0.01, T=40: Pr[minus] = sin^2(1.6) ~ 0.9992.
    rng = np.random.default_rng(5)
    want = ghz_minus_probability(8, 40, 0.01, 0.0)
    assert want == pytest.approx(math.sin(1.6) ** 2)
    hits = sum(ghz_trials(8, 40, [0.01], 0.0, rng)[0] for _ in range(1000))
    assert hits / 1000 >= 0.99


def test_ghz_noisy_phase_accumulates_nt_noise_draws():
    # N*T uses of N(0, gamma) noise damp the fringe by exp(-N T gamma / 2):
    # with full dephasing the herald rate drops to about 1/2.
    rng = np.random.default_rng(6)
    hits = sum(ghz_trials(4, 50, [0.0], 0.5, rng)[0] for _ in range(4000))
    assert hits / 4000 == pytest.approx(0.5, abs=0.03)


# ---------------------------------------------------------------------------
# Separable protocol


def test_separable_zero_signal_fraction_half():
    rng = np.random.default_rng(7)
    fraction = separable_fractions(100_000, 5, [0.0], 0.2, rng)[0]
    assert abs(fraction - 0.5) < 0.01


def test_separable_bias_formula_value():
    # theta=0.05, gamma=0.2, R=5: eps = sin(0.25) e^{-0.5} / 2.
    eps = separable_bias(0.05, 0.2, 5)
    assert eps == pytest.approx(math.sin(0.25) * math.exp(-0.5) / 2)
    assert eps == pytest.approx(0.07503, abs=2e-5)


def test_separable_measured_bias_matches_formula():
    rng = np.random.default_rng(8)
    shots = 100_000
    fraction = separable_fractions(shots, 5, [0.05], 0.2, rng)[0]
    eps = separable_bias(0.05, 0.2, 5)
    stderr = math.sqrt(0.25 / shots)
    assert abs((fraction - 0.5) - eps) < 3 * stderr


def test_separable_deterministic_quarter_turn():
    # gamma = 0 and R*theta = pi/2 puts every shot at +i.
    rng = np.random.default_rng(9)
    assert separable_fractions(500, 4, [math.pi / 8], 0.0, rng)[0] == 1.0


def test_default_uses_per_shot():
    assert default_uses_per_shot(0.2) == 5
    assert default_uses_per_shot(0.3) == 4
    with pytest.raises(ValueError):
        default_uses_per_shot(0.0)
    with pytest.raises(ValueError, match="gamma > 0"):
        default_uses_per_shot(math.nan)


# ---------------------------------------------------------------------------
# Bounds


def test_kl_formula_and_bound():
    assert kl_divergence(0.1, 0.5) == pytest.approx(0.01)
    assert kl_sample_bound(0.1, 0.5) == pytest.approx(100.0)
    assert kl_sample_bound(0.1, 1.0) == pytest.approx(200.0)  # linear in gamma
    with pytest.raises(ValueError):
        kl_sample_bound(0.0, 0.5)
    for theta, gamma in ((math.nan, 0.5), (0.1, math.nan)):
        with pytest.raises(ValueError):
            kl_sample_bound(theta, gamma)
        with pytest.raises(ValueError):
            nt_bound_branches(theta, gamma)


def test_nt_bound_branches_regime_switch():
    b = nt_bound_branches(0.1, 0.005)
    assert b["gamma_over_theta_sq"] == pytest.approx(0.5)
    assert b["one_over_theta"] == pytest.approx(10.0)
    assert b["max"] == pytest.approx(10.0)
    b2 = nt_bound_branches(0.02, 0.2)
    assert b2["max"] == pytest.approx(b2["gamma_over_theta_sq"])


# ---------------------------------------------------------------------------
# Sweeps


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        scaling_sweep("ghz", [], trials=10, seed=0)


def test_sweep_refuses_unknown_protocol_first():
    # Refused before the grid is even read, so no cell runs.
    with pytest.raises(ValueError, match="unknown protocol 'bogus'"):
        scaling_sweep("bogus", [], trials=10, seed=0)


def test_sweep_reads_numpy_scalars_and_refuses_a_bool_cell_value():
    # One reader types every JSON value: numpy scalars pass as numbers and
    # become Python ones; a bool is no integer, and the refusal is a
    # SchemaError naming the cell and key.
    (cell,) = scaling_sweep("ghz", [{"N": np.int64(2), "theta": np.float32(0.25)}],
                            trials=10, seed=0)
    assert (type(cell.N), type(cell.theta)) == (int, float)
    with pytest.raises(SchemaError, match="sweep cell 0 key 'N'"):
        scaling_sweep("ghz", [{"N": True, "theta": 0.1}], trials=10, seed=0)


def test_sweep_parallel_matches_serial():
    grid = [
        {"N": 2, "theta": 0.05, "gamma": 0.1, "T": 4},
        {"N": 1, "theta": 0.2, "gamma": 0.5, "K": 3},
        {"N": 3, "theta": 0.01, "gamma": 0.02, "T": 50},
    ]
    for protocol in ("ghz", "separable"):
        serial = scaling_sweep(protocol, grid, trials=60, seed=8, jobs=1)
        parallel = scaling_sweep(protocol, grid, trials=60, seed=8, jobs=2)
        assert serial == parallel


def test_noiseless_ghz_sweep_at_pi_schedule():
    theta = 0.01
    grid = [
        {"N": n, "theta": theta, "gamma": 0.0, "T": math.ceil(math.pi / (n * theta))}
        for n in (2, 4, 8)
    ]
    cells = scaling_sweep("ghz", grid, trials=1000, seed=10)
    for cell in cells:
        assert cell.success >= 0.95


def test_noisy_ghz_sweep_loses_advantage():
    # N*T*gamma >> 1 randomizes the phase; success collapses to 1/2.
    grid = [{"N": 4, "theta": 0.05, "gamma": 0.2, "T": 100}]
    (cell,) = scaling_sweep("ghz", grid, trials=2000, seed=11)
    assert cell.success == pytest.approx(0.5, abs=0.04)


def test_minimal_ghz_uses_halves_with_doubling_n():
    theta = 0.01
    t_values = {n: minimal_ghz_uses(n, theta, 0.9) for n in (2, 4, 8)}
    assert abs(t_values[4] - t_values[2] / 2) <= 1
    assert abs(t_values[8] - t_values[4] / 2) <= 1


@pytest.mark.parametrize(
    "n_probes, theta",
    [(0, 0.1), (-1, 0.1), (2, 0.0), (2, -0.1), (2, math.inf), (2, math.nan)],
)
def test_minimal_ghz_uses_refuses_bad_input(n_probes, theta):
    with pytest.raises(ValueError):
        minimal_ghz_uses(n_probes, theta, 0.9)


def test_minimal_ghz_uses_monte_carlo_agreement():
    # The analytic minimal T must be minimal in simulation too: success at
    # T* clears the target and at T*-2 falls short (1-step tolerance).
    theta, n = 0.01, 4
    t_star = minimal_ghz_uses(n, theta, 0.9)
    grid = [
        {"N": n, "theta": theta, "gamma": 0.0, "T": t}
        for t in (max(1, t_star - 2), t_star)
    ]
    below, at = scaling_sweep("ghz", grid, trials=4000, seed=12)
    assert at.success >= 0.9 - 0.02
    assert below.success <= 0.9 + 0.02


def test_outcome_frequencies_match_analytic_probability():
    # Monte Carlo herald frequency vs (1 - cos(N T theta))/2 within 4 SE.
    rng = np.random.default_rng(13)
    trials = 100_000
    p = 0.5 * (1 - math.cos(3 * 3 * 0.07))
    hits = sum(ghz_trials(3, 3, [0.07], 0.0, rng)[0] for _ in range(trials))
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 4 * se


def test_minimal_separable_nt_near_theory():
    nt, _ = minimal_separable_nt(0.04, 0.2, trials=400, seed=14)
    target = 0.2 / 0.04**2
    assert target / 4 <= nt <= target * 4


def test_minimal_separable_nt_spawns_a_seed_per_cell_it_runs():
    # The scan stops early; the K cells it never reaches spawn no child.
    ss = np.random.SeedSequence(14)
    nt, cells = minimal_separable_nt(0.2, 0.2, trials=40, seed=ss)
    assert ss.n_children_spawned == len(cells)
    # Cell i still runs on child i of the seed.
    assert minimal_separable_nt(0.2, 0.2, trials=40, seed=14) == (nt, cells)


def test_decisions_reproducible_for_fixed_seed():
    def run():
        rng = np.random.default_rng(300)
        g = ghz_trials(2, 20, [0.03], 0.1, rng)[0]
        s = separable_fractions(2 * 50, 10, [0.03], 0.1, rng)[0]
        return g, s

    assert run() == run()


# ---------------------------------------------------------------------------
# Trials drawn in blocks


def test_block_functions_refuse_any_bad_theta():
    rng = np.random.default_rng(0)
    for thetas in ([0.1, -0.1], [0.1, math.nan], [0.0, math.inf]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ghz_trials(2, 3, thetas, 0.1, rng)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            separable_fractions(4, 2, thetas, 0.1, rng)


@pytest.mark.parametrize("gamma", [0.05, 0.2, 0.5])
def test_lone_trials_are_lane_0_of_a_block_of_one(gamma):
    # A lone trial is one binomial or one uniform draw, written out here;
    # the generators end in the same state. Lane 0 of a longer block draws
    # first, so it is the lone trial too.
    for seed in range(4):
        b, c = (np.random.default_rng(seed) for _ in range(2))
        theta = 0.03 * seed
        lone = separable_fractions(37, 4, [theta], gamma, b)[0]
        p_plus_i = 0.5 + math.sin(4 * theta) * math.exp(-2 * gamma) / 2
        assert lone == c.binomial(37, p_plus_i) / 37
        block = separable_fractions(37, 4, [theta, 0.1, 0.0], gamma, np.random.default_rng(seed))
        assert block[0] == lone
        lone = ghz_trials(3, 5, [theta], gamma, b)[0]
        assert lone == (c.random() < 0.5 * (1 - math.cos(15 * theta) * math.exp(-7.5 * gamma)))
        assert b.random() == c.random()


def test_noiseless_ghz_cell_equals_the_per_trial_loop(monkeypatch):
    # A block draws one uniform per trial, one contiguous stream, so the
    # cell's success is the per-trial loop's whatever the blocks. Blocks of
    # 7 trials: 100 trials cross 15 of them.
    monkeypatch.setattr(sensing, "_TRIAL_BLOCK", 7)
    n, t, theta, trials = 2, 37_449, 1e-5, 100
    cell = sensing._run_cell(("ghz", n, theta, 0.0, t, 1, trials), np.random.SeedSequence(9))
    want = sweep_cell_per_trial("ghz", n, theta, 0.0, t, 1, trials,
                                np.random.default_rng(np.random.SeedSequence(9)))
    assert 0.5 < want < 1.0
    assert cell.success == want


def test_noiseless_separable_cell_equals_the_per_trial_loop(monkeypatch):
    # The separable schedule needs gamma > 0, so the cell is given R = 4 at
    # gamma = 0. Blocks of 4 trials: 41 trials cross 11.
    monkeypatch.setattr(sensing, "default_uses_per_shot", lambda gamma: 4)
    monkeypatch.setattr(sensing, "_TRIAL_BLOCK", 4)
    k, theta, trials = 26_215, 0.0025, 41
    cell = sensing._run_cell(("separable", 1, theta, 0.0, 1, k, trials),
                             np.random.SeedSequence(10))
    want = sweep_cell_per_trial("separable", 1, theta, 0.0, 1, k, trials,
                                np.random.default_rng(np.random.SeedSequence(10)),
                                uses_per_shot=4)
    assert 0.5 < want < 1.0
    assert cell.success == want
    # The fractions themselves, however the trials are split into blocks.
    thetas = np.where(np.arange(trials) % 2 == 1, theta, 0.0)
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    whole = separable_fractions(k, 4, thetas, 0.0, a)
    split = [separable_fractions(k, 4, part, 0.0, b) for part in np.array_split(thetas, 5)]
    assert np.array_equal(whole, np.concatenate(split))


@pytest.mark.parametrize("n, theta, gamma, k", [
    (1, 0.05, 0.2, 20),
    (2, 0.1, 0.5, 10),
    (3, 0.02, 0.1, 15),
])
def test_noisy_separable_cell_matches_the_binomial_closed_form(n, theta, gamma, k):
    # Each shot's noise is its own, so a trial's +i count is binomial with
    # p = 1/2 under the null and 1/2 + separable_bias under the signal,
    # whatever order the blocks draw in.
    trials = 20_000
    (cell,) = scaling_sweep("separable", [{"N": n, "theta": theta, "gamma": gamma, "K": k}],
                            trials=trials, seed=15)
    r = default_uses_per_shot(gamma)
    bias = separable_bias(theta, gamma, r)
    want = separable_success_closed_form(k * n, 0.5 + bias / 2, bias)
    stderr = math.sqrt(want * (1 - want) / trials)
    assert abs(cell.success - want) < 4 * stderr


_NOISY_CELLS = [("ghz", 3, 0.04, 0.05, 6, 1), ("separable", 2, 0.05, 0.1, 1, 30)]


@pytest.mark.parametrize("protocol, n, theta, gamma, t, k", _NOISY_CELLS)
def test_noisy_cell_equals_the_per_trial_loop(monkeypatch, protocol, n, theta, gamma, t, k):
    # One variate per trial, one stream: blocks of 7 trials give the
    # per-trial loop's success, noise and all. 101 trials cross 15 blocks.
    monkeypatch.setattr(sensing, "_TRIAL_BLOCK", 7)
    cell = sensing._run_cell((protocol, n, theta, gamma, t, k, 101), np.random.SeedSequence(17))
    want = sweep_cell_per_trial(protocol, n, theta, gamma, t, k, 101,
                                np.random.default_rng(np.random.SeedSequence(17)))
    assert 0.5 < want < 1.0
    assert cell.success == want


@pytest.mark.parametrize("protocol, n, theta, gamma, t, k", _NOISY_CELLS)
def test_noisy_cell_bytes_do_not_depend_on_the_trial_block(monkeypatch, protocol, n, theta,
                                                           gamma, t, k):
    args = (protocol, n, theta, gamma, t, k, 1_000)
    whole = sensing._run_cell(args, np.random.SeedSequence(18))
    monkeypatch.setattr(sensing, "_TRIAL_BLOCK", 7)
    assert sensing._run_cell(args, np.random.SeedSequence(18)) == whole


def _mean_and_variance_agree(a: np.ndarray, b: np.ndarray) -> None:
    # Two independent samples of one distribution: their means, and their
    # sample variances, differ by less than 4 standard errors of the
    # difference. A sample variance's standard error is
    # sqrt((m4 - var^2) / n), m4 the fourth central moment.
    def moments(x):
        mean, var = x.mean(), x.var(ddof=1)
        return mean, var, x.var(ddof=1) / len(x), (np.mean((x - mean) ** 4) - var**2) / len(x)

    (ma, va, sa, wa), (mb, vb, sb, wb) = moments(a), moments(b)
    assert abs(ma - mb) < 4 * math.sqrt(sa + sb)
    assert abs(va - vb) < 4 * math.sqrt(wa + wb)


def test_separable_fractions_match_the_per_shot_reference():
    # K*N = 100 shots, R = 5, theta = 0.04, gamma = 0.2, 20,000 trials: the
    # binomial draw against every shot's own noise and uniform. The per-shot
    # reference runs in chunks of 1,000 trials (4 MB of noise each).
    trials, shots, r, theta, gamma = 20_000, 100, 5, 0.04, 0.2
    got = separable_fractions(shots, r, np.full(trials, theta), gamma, np.random.default_rng(19))
    rng = np.random.default_rng(20)
    ref = np.concatenate([separable_fractions_per_shot(shots, r, np.full(1_000, theta), gamma, rng)
                          for _ in range(trials // 1_000)])
    _mean_and_variance_agree(got, ref)
    # Both sit on the exact binomial mean, 1/2 + separable_bias.
    p = 0.5 + separable_bias(theta, gamma, r)
    for fractions in (got, ref):
        assert abs(fractions.mean() - p) < 4 * math.sqrt(p * (1 - p) / shots / trials)


def test_ghz_trials_match_the_per_shot_reference():
    # N = 4, T = 10, gamma = 0.05: N*T = 40 noise draws a trial in the
    # reference, the damped closed form here. Null and signal trials
    # alternate, so the outcomes mix two Bernoulli rates.
    trials, n, t, gamma = 20_000, 4, 10, 0.05
    thetas = np.where(np.arange(trials) % 2 == 1, 0.05, 0.0)
    got = ghz_trials(n, t, thetas, gamma, np.random.default_rng(21)).astype(float)
    ref = ghz_trials_per_shot(n, t, thetas, gamma, np.random.default_rng(22)).astype(float)
    _mean_and_variance_agree(got, ref)
    for outcomes in (got, ref):
        for parity in (0, 1):
            p = ghz_minus_probability(n, t, thetas[parity], gamma)
            half = outcomes[parity::2]
            assert abs(half.mean() - p) < 4 * math.sqrt(p * (1 - p) / len(half))


def test_cell_memory_does_not_grow_with_shots():
    # 600 trials of K = 10^9 shots with R = 5: drawn shot by shot, one
    # trial's phase noise alone would be 40 GB. One binomial a trial keeps
    # the cell's tracemalloc peak under 64 KiB (about 31 KiB measured). A
    # first cell imports lazily, so one runs before the trace starts.
    args = ("separable", 1, 0.02, 0.2, 1, 10**9, 600)
    sensing._run_cell(args, np.random.SeedSequence(15))
    tracemalloc.start()
    try:
        cell = sensing._run_cell(args, np.random.SeedSequence(16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cell.success == 1.0
    assert peak < 64 * 1024
