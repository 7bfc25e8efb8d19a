"""Noisy-sensing model: Gaussian-dephased Z-rotations, GHZ and separable
detection protocols, the closed-form measurement bias, and the
KL-divergence sample bound.

Every protocol state here is characterized by a single accumulated phase
whose Gaussian noise has a closed form, so each trial is one draw from its
exact distribution; no phase noise and no qubit-level state is sampled. A
GHZ trial's minus outcome is Bernoulli(`ghz_minus_probability`), and a
separable trial's +i count is Binomial(shots, 1/2 + `separable_bias`): its
shots are independent, each with that +i probability.
The trial functions return what was measured; the decision on it (the GHZ
minus outcome heralds the signal, a separable +i fraction above
1/2 + separable_bias/2 does) is the caller's.

Trials are drawn in blocks, one per-trial theta each: one uniform or one
binomial draw per trial, in trial order. A lone trial is a block of one: a
one-element `thetas`. A sweep cell runs its trials in blocks of
`_TRIAL_BLOCK`; chunked draws continue one stream, so the block size moves
no output byte and only bounds the cell's memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import typed
from .pool import child_seeds, seeded_map


def _check(thetas, gamma: float, *counts: int) -> None:
    # The smallest and largest theta stand for all, and a NaN reaches both.
    # Written so that NaN fails too: every comparison with NaN is False.
    for theta in (np.min(thetas, initial=0.0), np.max(thetas, initial=0.0)):
        if not (0 <= theta < math.inf and 0 <= gamma < math.inf):
            raise ValueError(
                f"theta and gamma must be finite and nonnegative, got {theta}, {gamma}")
    # rng.binomial takes at most 2^63 - 1 shots.
    if not all(1 <= count <= np.iinfo(np.int64).max for count in counts):
        raise ValueError("N, T, K, K*N, uses per shot and shots must lie in [1, 2**63 - 1]")


def ghz_minus_probability(n_probes: int, uses: int, theta, gamma: float):
    """Probability of the GHZ minus outcome, elementwise in theta:
    (1 - cos(N T theta) exp(-N T gamma / 2)) / 2. The phase noise of N*T
    channel uses is N(0, N T gamma), whose characteristic function gives
    the damping."""
    return 0.5 * (1.0 - np.cos(n_probes * uses * theta) * math.exp(-n_probes * uses * gamma / 2))


def ghz_trials(
    n_probes: int, uses: int, thetas, gamma: float, rng: np.random.Generator
) -> np.ndarray:
    """GHZ trials, one per entry of `thetas`: N entangled probes through T
    parallel channel uses, then a measurement in the GHZ +/- basis. Draws
    one uniform per trial. Returns the minus outcomes."""
    thetas = np.asarray(thetas, dtype=float)
    _check(thetas, gamma, n_probes, uses)
    return rng.random(len(thetas)) < ghz_minus_probability(n_probes, uses, thetas, gamma)


def default_uses_per_shot(gamma: float) -> int:
    if not gamma > 0:
        raise ValueError("separable schedule needs gamma > 0")
    uses = 1.0 / gamma
    # A subnormal gamma has no float reciprocal.
    if not math.isfinite(uses):
        raise ValueError(f"gamma {gamma!r} is too small for a default uses per shot")
    return math.ceil(uses)


def separable_bias(theta, gamma: float, uses_per_shot: int):
    """Bias of the +i outcome, elementwise in theta:
    sin(theta * R) * exp(-gamma * R / 2) / 2."""
    return np.sin(theta * uses_per_shot) * math.exp(-gamma * uses_per_shot / 2) / 2


def separable_fractions(
    shots: int, uses_per_shot: int, thetas, gamma: float, rng: np.random.Generator
) -> np.ndarray:
    """Separable trials, one per entry of `thetas`: `shots` independent |+>
    probes, each evolved R times and measured in the Y basis. Draws one
    binomial +i count per trial. Returns each trial's +i fraction."""
    thetas = np.asarray(thetas, dtype=float)
    _check(thetas, gamma, shots, uses_per_shot)
    return rng.binomial(shots, 0.5 + separable_bias(thetas, gamma, uses_per_shot)) / shots


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


#: Trials per block of a sweep cell. Chunked uniform and binomial draws
#: continue one stream, so this bounds a cell's memory and moves no byte.
_TRIAL_BLOCK = 2**16


def _run_cell(args, ss) -> SweepCell:
    """One grid cell: its trials in blocks of `_TRIAL_BLOCK`, each block one
    `ghz_trials` or `separable_fractions` call.
    Equal priors: even trials are null (theta = 0), odd trials carry the
    signal; a separable trial heralds it when its +i fraction exceeds the
    signal's threshold 1/2 + separable_bias/2, also on null trials."""
    protocol, n, theta, gamma, t_uses, k_reps, trials = args
    # Checked here too: with trials = 1 only a null trial runs, never theta.
    _check(theta, gamma, n, t_uses, k_reps)
    rng = np.random.default_rng(ss)
    if protocol == "separable":
        r = default_uses_per_shot(gamma)
        threshold = 0.5 + separable_bias(theta, gamma, r) / 2
    correct = 0
    for start in range(0, trials, _TRIAL_BLOCK):
        odd = np.arange(start, min(start + _TRIAL_BLOCK, trials)) % 2 == 1
        thetas = np.where(odd, theta, 0.0)
        if protocol == "ghz":
            present = ghz_trials(n, t_uses, thetas, gamma, rng)
        else:
            present = separable_fractions(k_reps * n, r, thetas, gamma, rng) > threshold
        correct += int(np.count_nonzero(present == (thetas != 0)))
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
    if n_probes < 1:
        raise ValueError("N must be at least 1")
    # Written so that NaN fails too.
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be finite and positive, got {theta}")
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
