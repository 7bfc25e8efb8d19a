"""Noisy-sensing model: Gaussian-dephased Z-rotations, GHZ and separable
detection protocols, the closed-form measurement bias, and the
KL-divergence sample bound.

Every protocol state here is characterized by a single accumulated phase,
so the simulation is phase bookkeeping plus Bernoulli draws; no qubit-level
state is needed. A phase phi gives outcome probabilities (1 - cos phi)/2
for the GHZ minus outcome and (1 + sin phi)/2 for the separable +i outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pool import seeded_map, spawn_seeds


@dataclass(frozen=True)
class SensingConfig:
    n_probes: int  # N
    theta: float  # signal angle per channel use (radians)
    gamma: float  # dephasing noise variance per channel use (radians^2)
    channel_uses: int = 1  # T
    repetitions: int = 1  # K

    def __post_init__(self) -> None:
        if self.theta < 0 or self.gamma < 0:
            raise ValueError("theta and gamma must be nonnegative")
        if min(self.n_probes, self.channel_uses, self.repetitions) < 1:
            raise ValueError("N, T, and K must be at least 1")


@dataclass(frozen=True)
class TrialOutcome:
    protocol: str
    minus_outcome: bool | None
    fraction: float | None
    decision: str  # "signal-present" | "signal-absent"


def dephased_angle(theta: float, gamma: float, rng: np.random.Generator) -> float:
    """One noisy rotation angle: theta plus a zero-mean Gaussian of variance gamma."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0:
        return theta
    return theta + rng.normal(0.0, math.sqrt(gamma))


def coherence_damping(gamma: float) -> float:
    """Expected |E[e^{i phase}]| damping from one noise draw."""
    return math.exp(-gamma / 2)


def ghz_protocol(cfg: SensingConfig, rng: np.random.Generator) -> TrialOutcome:
    """One GHZ trial: N entangled probes through T parallel channel uses,
    then a measurement in the GHZ +/- basis. The minus outcome heralds the
    signal."""
    n, t = cfg.n_probes, cfg.channel_uses
    phase = n * t * cfg.theta
    if cfg.gamma > 0:
        phase += rng.normal(0.0, math.sqrt(cfg.gamma), size=n * t).sum()
    p_minus = 0.5 * (1.0 - math.cos(phase))
    minus = bool(rng.random() < p_minus)
    return TrialOutcome(
        protocol="ghz",
        minus_outcome=minus,
        fraction=None,
        decision="signal-present" if minus else "signal-absent",
    )


def ghz_minus_probability(n_probes: int, uses: int, theta: float) -> float:
    """Noiseless closed form: sin^2(N T theta / 2)."""
    return math.sin(n_probes * uses * theta / 2.0) ** 2


def default_uses_per_shot(gamma: float) -> int:
    if gamma <= 0:
        raise ValueError("separable schedule needs gamma > 0")
    return math.ceil(1.0 / gamma)


def separable_bias(theta: float, gamma: float, uses_per_shot: int) -> float:
    """Bias of the +i outcome: sin(theta * R) * exp(-gamma * R / 2) / 2."""
    return math.sin(theta * uses_per_shot) * math.exp(-gamma * uses_per_shot / 2) / 2


def separable_protocol(
    cfg: SensingConfig,
    uses_per_shot: int,
    rng: np.random.Generator,
    signal_theta: float | None = None,
) -> TrialOutcome:
    """One separable trial: K*N independent |+> probes, each evolved R times
    and measured in the Y basis; decide on the +i fraction.

    The decision threshold is 1/2 + eps/2 with eps the analytic bias of the
    hypothesized signal (`signal_theta`, defaulting to cfg.theta). The
    simulated evolution always uses cfg.theta, so null trials run with
    theta=0 but keep the signal's threshold.
    """
    if uses_per_shot < 1:
        raise ValueError("uses per shot must be at least 1")
    shots = cfg.repetitions * cfg.n_probes
    phases = np.full(shots, uses_per_shot * cfg.theta)
    if cfg.gamma > 0:
        phases += rng.normal(0.0, math.sqrt(cfg.gamma), size=(shots, uses_per_shot)).sum(axis=1)
    p_plus_i = 0.5 * (1.0 + np.sin(phases))
    fraction = float((rng.random(shots) < p_plus_i).mean())
    theta = signal_theta if signal_theta is not None else cfg.theta
    eps = separable_bias(theta, cfg.gamma, uses_per_shot)
    present = fraction > 0.5 + eps / 2
    return TrialOutcome(
        protocol="separable",
        minus_outcome=None,
        fraction=fraction,
        decision="signal-present" if present else "signal-absent",
    )


# ---------------------------------------------------------------------------
# Sample-complexity bounds


def kl_divergence(theta: float, gamma: float) -> float:
    """D_KL(N(0, gamma) || N(theta, gamma)) = theta^2 / (2 gamma)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return theta**2 / (2 * gamma)


def kl_sample_bound(theta: float, gamma: float) -> float:
    """1 / D_KL: the sample-count lower bound with its Omega-constant
    reported as 1."""
    if theta <= 0:
        raise ValueError("the bound is undefined for theta = 0")
    return 1.0 / kl_divergence(theta, gamma)


def nt_bound_branches(theta: float, gamma: float) -> dict:
    """Both branches of the channel-use lower bound max(gamma/theta^2, 1/theta)."""
    if theta <= 0 or gamma <= 0:
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
    rng = np.random.default_rng(ss)
    correct = 0
    for trial in range(trials):
        # Equal priors: even trials are null, odd trials carry the signal.
        true_theta = 0.0 if trial % 2 == 0 else theta
        if protocol == "ghz":
            cfg = SensingConfig(n, true_theta, gamma, channel_uses=t_uses)
            out = ghz_protocol(cfg, rng=rng)
        elif protocol == "separable":
            r = default_uses_per_shot(gamma)
            cfg = SensingConfig(n, true_theta, gamma, repetitions=k_reps)
            out = separable_protocol(cfg, uses_per_shot=r, rng=rng, signal_theta=theta)
        else:
            raise ValueError(f"unknown protocol {protocol!r}")
        want = "signal-absent" if true_theta == 0 else "signal-present"
        correct += out.decision == want
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


#: The keys a sweep grid cell may set; only theta has no default.
_CELL_KEYS = frozenset({"N", "theta", "gamma", "T", "K"})


def scaling_sweep(
    protocol: str,
    grid: Sequence[dict],
    trials: int,
    seed: int | None = None,
    jobs: int = 1,
) -> list[SweepCell]:
    """Per grid cell, the fraction of correct two-hypothesis decisions
    (half the trials run with theta=0, half with the signal)."""
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    for i, cell in enumerate(grid):
        if not isinstance(cell, dict):
            raise ValueError(f"sweep cell {i} must be an object")
        unknown = sorted(set(cell) - _CELL_KEYS)
        if unknown:
            raise ValueError(f"sweep cell {i} has unknown keys {unknown}")
        if "theta" not in cell:
            raise ValueError(f"sweep cell {i} lacks 'theta'")
    work = [
        (
            protocol,
            int(cell.get("N", 1)),
            float(cell["theta"]),
            float(cell.get("gamma", 0.0)),
            int(cell.get("T", 1)),
            int(cell.get("K", 1)),
            trials,
        )
        for cell in grid
    ]
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
    seed: int | None = None,
) -> tuple[int, list[SweepCell]]:
    """Scan K geometrically, stopping at the first cell whose success rate
    meets SEPARABLE_TARGET; returns (N*T at that cell, all swept cells)."""
    r = default_uses_per_shot(gamma)
    k_values: list[int] = []
    k = 1.0
    while k * r <= SEPARABLE_MAX_SHOTS:
        kk = int(round(k))
        if not k_values or kk != k_values[-1]:
            k_values.append(kk)
        k *= SEPARABLE_GROWTH
    cells: list[SweepCell] = []
    for kk, ss in zip(k_values, spawn_seeds(seed, len(k_values))):
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
