import math

import numpy as np
import pytest

from qadv import bell
from qadv.bell import (
    OPTIMAL_ANGLES,
    TSIRELSON_BOUND,
    all_strategies,
    classical_chsh_max,
    quantum_chsh_value,
    quantum_correlator,
    quantum_single_basis_distribution,
    socks_simulation,
    strategy_table,
    strategy_value,
)


def test_socks_outcomes_always_equal():
    stats = socks_simulation(500, np.random.default_rng(0))
    assert stats.correlation == 1.0
    assert stats.joint["01"] == 0.0
    assert stats.joint["10"] == 0.0


def test_socks_marginals_balanced():
    stats = socks_simulation(100_000, np.random.default_rng(1))
    assert 0.49 <= stats.alice_marginal <= 0.51
    assert 0.49 <= stats.bob_marginal <= 0.51


def test_socks_match_quantum_single_basis():
    # The single-basis quantum joint distribution is exactly {00: 1/2, 11: 1/2};
    # the classical socks protocol reproduces it to statistical accuracy.
    quantum = quantum_single_basis_distribution()
    assert quantum["00"] == pytest.approx(0.5, abs=1e-12)
    assert quantum["11"] == pytest.approx(0.5, abs=1e-12)
    assert quantum["01"] == pytest.approx(0.0, abs=1e-12)
    stats = socks_simulation(100_000, np.random.default_rng(2))
    tv = 0.5 * sum(abs(stats.joint[k] - quantum[k]) for k in quantum)
    assert tv < 0.01


def test_classical_max_is_exactly_two():
    assert classical_chsh_max() == 2.0


def test_every_deterministic_strategy_is_plus_minus_two():
    table = strategy_table()
    assert len(table) == 16
    assert {v for _, v in table} == {-2, 2}


def test_constant_strategy_value():
    assert strategy_value((1, 1, 1, 1)) == 2


def test_aligned_angles_give_two():
    val = quantum_chsh_value((0.0, 0.0, 0.0, 0.0))
    assert val == pytest.approx(2.0, abs=1e-12)


def test_correlator_closed_form():
    # E(alpha, beta) = cos(2(alpha - beta)) on the shared pair.
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.uniform(-math.pi, math.pi, 2)
        assert quantum_correlator(a, b) == pytest.approx(math.cos(2 * (a - b)), abs=1e-12)


def test_optimal_angles_reach_tsirelson():
    val = quantum_chsh_value(OPTIMAL_ANGLES)
    assert val == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert val - classical_chsh_max() >= 0.8


def test_random_angles_never_exceed_tsirelson():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10_000):
        angles = tuple(rng.uniform(-math.pi, math.pi, 4))
        worst = max(worst, abs(quantum_chsh_value(angles)))
    assert worst <= TSIRELSON_BOUND + 1e-9


def test_strategy_space_size():
    assert len(all_strategies()) == 16


def test_bell_pair_is_a_read_only_constant():
    amps = bell._BELL_PAIR.amplitudes
    assert not amps.flags.writeable
    with pytest.raises(ValueError):
        amps[0] = 0.0
    assert quantum_single_basis_distribution() == pytest.approx(
        {"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5}, abs=1e-12
    )
