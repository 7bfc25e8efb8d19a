"""Noisy-sensing model: Gaussian-dephased Z-rotations, GHZ and separable
detection protocols, the closed-form measurement bias, and the
KL-divergence sample bound.

Every protocol state here is characterized by a single accumulated phase,
so the simulation is phase bookkeeping plus Bernoulli draws; no qubit-level
state is needed. A phase phi gives outcome probabilities (1 - cos phi)/2
for the GHZ minus outcome and (1 + sin phi)/2 for the separable +i outcome.
The trial functions return what was measured; the decision on it (the GHZ
minus outcome heralds the signal, a separable +i fraction above
1/2 + separable_bias/2 does) is the caller's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import typed
from .pool import child_seeds, seeded_map


def _check(theta: float, gamma: float, *counts: int) -> None:
    # Written so that NaN fails too: every comparison with NaN is False.
    if not (0 <= theta < math.inf and 0 <= gamma < math.inf):
        raise ValueError(f"theta and gamma must be finite and nonnegative, got {theta}, {gamma}")
    if min(counts) < 1:
        raise ValueError("N, T, K and uses per shot must be at least 1")


def ghz_trial(
    n_probes: int, uses: int, theta: float, gamma: float, rng: np.random.Generator
) -> bool:
    """One GHZ trial: N entangled probes through T parallel channel uses,
    then a measurement in the GHZ +/- basis. Returns the minus outcome."""
    _check(theta, gamma, n_probes, uses)
    phase = n_probes * uses * theta
    if gamma > 0:
        phase += rng.normal(0.0, math.sqrt(gamma), size=n_probes * uses).sum()
    return bool(rng.random() < 0.5 * (1.0 - math.cos(phase)))


def ghz_minus_probability(n_probes: int, uses: int, theta: float) -> float:
    """Noiseless closed form: sin^2(N T theta / 2)."""
    return math.sin(n_probes * uses * theta / 2.0) ** 2


def default_uses_per_shot(gamma: float) -> int:
    if not gamma > 0:
        raise ValueError("separable schedule needs gamma > 0")
    return math.ceil(1.0 / gamma)


def separable_bias(theta: float, gamma: float, uses_per_shot: int) -> float:
    """Bias of the +i outcome: sin(theta * R) * exp(-gamma * R / 2) / 2."""
    return math.sin(theta * uses_per_shot) * math.exp(-gamma * uses_per_shot / 2) / 2


def separable_fraction(
    shots: int, uses_per_shot: int, theta: float, gamma: float, rng: np.random.Generator
) -> float:
    """One separable trial: `shots` independent |+> probes, each evolved R
    times and measured in the Y basis. Returns the +i fraction."""
    _check(theta, gamma, shots, uses_per_shot)
    if gamma > 0:
        # Adding the signal to the noise sums in place gives the same floats
        # as adding the noise to the signal: IEEE addition commutes.
        phases = rng.normal(0.0, math.sqrt(gamma), size=(shots, uses_per_shot)).sum(axis=1)
        phases += uses_per_shot * theta
    else:
        phases = np.full(shots, uses_per_shot * theta)
    p_plus_i = 0.5 * (1.0 + np.sin(phases))
    return np.count_nonzero(rng.random(shots) < p_plus_i) / shots


# ---------------------------------------------------------------------------
# Sample-complexity bounds


def kl_divergence(theta: float, gamma: float) -> float:
    """D_KL(N(0, gamma) || N(theta, gamma)) = theta^2 / (2 gamma)."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return theta**2 / (2 * gamma)


def kl_sample_bound(theta: float, gamma: float) -> float:
    """1 / D_KL: the sample-count lower bound with its Omega-constant
    reported as 1."""
    if not theta > 0:
        raise ValueError("the bound is undefined for theta = 0")
    return 1.0 / kl_divergence(theta, gamma)


def nt_bound_branches(theta: float, gamma: float) -> dict:
    """Both branches of the channel-use lower bound max(gamma/theta^2, 1/theta)."""
    if not (theta > 0 and gamma > 0):
        raise ValueError("theta and gamma must be positive")
    noisy = gamma / theta**2
    noiseless = 1.0 / theta
    return {
        "gamma_over_theta_sq": noisy,
        "one_over_theta": noiseless,
        "max": max(noisy, noiseless),
        "omega_constant": 1.0,
    }


# ---------------------------------------------------------------------------
# Two-hypothesis benchmark sweeps


@dataclass(frozen=True)
class SweepCell:
    """One grid cell's result; the fields carry the grid's names."""

    protocol: str
    N: int  # probes
    theta: float
    gamma: float
    T: int  # channel uses
    K: int  # repetitions
    trials: int
    success: float
    stderr: float


def _run_cell(args, ss) -> SweepCell:
    protocol, n, theta, gamma, t_uses, k_reps, trials = args
    # Checked here too: with trials = 1 only a null trial runs, never theta.
    _check(theta, gamma, n, t_uses, k_reps)
    rng = np.random.default_rng(ss)
    if protocol == "separable":
        r = default_uses_per_shot(gamma)
        # The threshold is the hypothesized signal's, also on null trials.
        threshold = 0.5 + separable_bias(theta, gamma, r) / 2
    correct = 0
    for trial in range(trials):
        # Equal priors: even trials are null, odd trials carry the signal.
        true_theta = 0.0 if trial % 2 == 0 else theta
        if protocol == "ghz":
            present = ghz_trial(n, t_uses, true_theta, gamma, rng)
        else:
            present = separable_fraction(k_reps * n, r, true_theta, gamma, rng) > threshold
        correct += present == (true_theta != 0)
    success = correct / trials
    return SweepCell(
        protocol=protocol,
        N=n,
        theta=theta,
        gamma=gamma,
        T=t_uses,
        K=k_reps,
        trials=trials,
        success=success,
        stderr=math.sqrt(max(success * (1 - success), 1e-12) / trials),
    )


#: Each key a sweep grid cell may set, in `_run_cell`'s order, with its
#: JSON type and default; theta has no default.
_CELL_KEYS = {"N": (int, 1), "theta": (float, None), "gamma": (float, 0.0),
              "T": (int, 1), "K": (int, 1)}


def scaling_sweep(
    protocol: str,
    grid: list[dict],
    trials: int,
    seed: int | None = None,
    jobs: int = 1,
) -> list[SweepCell]:
    """Per grid cell, the fraction of correct two-hypothesis decisions
    (half the trials run with theta=0, half with the signal). The grid is a
    list of objects with the keys of `_CELL_KEYS`; a value of the wrong
    type raises SchemaError."""
    if protocol not in ("ghz", "separable"):
        raise ValueError(f"unknown protocol {protocol!r}")
    grid = typed(grid, list, "sweep cells")
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    work = []
    for i, cell in enumerate(grid):
        cell = typed(cell, dict, f"sweep cell {i}")
        unknown = sorted(cell.keys() - _CELL_KEYS.keys())
        if unknown:
            raise ValueError(f"sweep cell {i} has unknown keys {unknown}")
        if "theta" not in cell:
            raise ValueError(f"sweep cell {i} lacks 'theta'")
        work.append((protocol, *(typed(cell.get(key, default), kind, f"sweep cell {i} key {key!r}")
                                 for key, (kind, default) in _CELL_KEYS.items()), trials))
    return seeded_map(_run_cell, work, seed, jobs)


def minimal_ghz_uses(
    n_probes: int,
    theta: float,
    success_target: float = 0.9,
) -> int:
    """Smallest noiseless T whose two-hypothesis success meets the target,
    from the closed form success = (1 + sin^2(N T theta / 2)) / 2."""
    need = 2 * success_target - 1
    if not 0 < need < 1:
        raise ValueError("success target must lie in (1/2, 1)")
    return math.ceil(2 * math.asin(math.sqrt(need)) / (n_probes * theta))


#: The separable scan stops at the first cell whose success rate reaches
#: SEPARABLE_TARGET; K grows by SEPARABLE_GROWTH per cell while K*R stays
#: within SEPARABLE_MAX_SHOTS.
SEPARABLE_TARGET = 2 / 3
SEPARABLE_GROWTH = 1.15
SEPARABLE_MAX_SHOTS = 10**7


def minimal_separable_nt(
    theta: float,
    gamma: float,
    trials: int,
    seed: int | np.random.SeedSequence | None = None,
) -> tuple[int, list[SweepCell]]:
    """Scan K geometrically, stopping at the first cell whose success rate
    meets SEPARABLE_TARGET; returns (N*T at that cell, all swept cells).
    Cell i runs on child i of ``seed``, spawned only as the cell starts."""
    r = default_uses_per_shot(gamma)
    k_values: list[int] = []
    k = 1.0
    while k * r <= SEPARABLE_MAX_SHOTS:
        kk = int(round(k))
        if not k_values or kk != k_values[-1]:
            k_values.append(kk)
        k *= SEPARABLE_GROWTH
    cells: list[SweepCell] = []
    for kk, ss in zip(k_values, child_seeds(seed)):
        (cell,) = scaling_sweep(
            "separable",
            [{"N": 1, "theta": theta, "gamma": gamma, "K": kk}],
            trials,
            seed=ss,
        )
        cells.append(cell)
        if cell.success >= SEPARABLE_TARGET:
            return kk * r, cells
    raise RuntimeError("no swept cell met the success target within SEPARABLE_MAX_SHOTS")
