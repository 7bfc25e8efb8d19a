"""Bell-game experiments: the shared-bit socks protocol that reproduces
single-basis statistics exactly, exhaustive deterministic strategy search,
and two-qubit correlators at tunable measurement angles.

Measurement settings are basis-rotation angles in the real (X-Z) plane: a
setting t measures the observable cos(2t) Z + sin(2t) X, the +-1 observable
of the standard basis rotated by t. The shared state is (|00> + |11>)/sqrt(2),
prepared once at import as a read-only constant; observables are built from
Pauli masks. The combination E(a0,b0) + E(a0,b1) + E(a1,b0) - E(a1,b1) is
capped at 2 for every local deterministic strategy and reaches 2*sqrt(2)
quantum-mechanically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import statevector
from .circuits import Circuit, ElementaryLayer, Gate
from .pauli import PauliMap

#: Settings achieving the quantum maximum under this angle convention:
#: (a0, a1, b0, b1) = (0, pi/4, pi/8, -pi/8).
OPTIMAL_ANGLES = (0.0, math.pi / 4, math.pi / 8, -math.pi / 8)

TSIRELSON_BOUND = 2 * math.sqrt(2)


@dataclass(frozen=True)
class SocksStats:
    trials: int
    joint: dict[str, float]  # empirical frequencies of (alice, bob) outcomes
    alice_marginal: float  # frequency of outcome 1
    bob_marginal: float
    correlation: float  # mean of product of +-1 outcomes


def socks_simulation(trials: int, rng: np.random.Generator) -> SocksStats:
    """Shared uniform bit, both parties report it: perfectly correlated
    uniform outcomes, the classical twin of single-basis entanglement."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    bits = rng.integers(0, 2, size=trials)
    ones = float(bits.mean())
    return SocksStats(
        trials=trials,
        joint={"00": 1.0 - ones, "01": 0.0, "10": 0.0, "11": ones},
        alice_marginal=ones,
        bob_marginal=ones,
        correlation=1.0,
    )


#: The shared pair, prepared by H then CNOT. Its amplitudes are read-only,
#: so no caller can change the state the others measure.
_BELL_PAIR = statevector.apply_circuit(
    statevector.prepare_basis(2, "00"),
    Circuit(2, (ElementaryLayer((Gate("H", (0,)),)), ElementaryLayer((Gate("CNOT", (0, 1)),)))),
)
_BELL_PAIR.amplitudes.setflags(write=False)


def quantum_single_basis_distribution() -> dict[str, float]:
    """Joint outcome distribution when both parties measure the standard
    basis on the shared pair."""
    probs = np.abs(_BELL_PAIR.amplitudes) ** 2
    return {format(i, "02b"): float(p) for i, p in enumerate(probs)}


# ---------------------------------------------------------------------------
# Classical side: exhaustive deterministic strategies

#: A deterministic local strategy: for each party, an outcome in {+1, -1}
#: per basis choice, packed as (a0, a1, b0, b1).
LocalStrategy = tuple[int, int, int, int]


def all_strategies() -> list[LocalStrategy]:
    return [s for s in product((1, -1), repeat=4)]


def strategy_value(strategy: LocalStrategy) -> int:
    a0, a1, b0, b1 = strategy
    return a0 * b0 + a0 * b1 + a1 * b0 - a1 * b1


def strategy_table() -> list[tuple[LocalStrategy, int]]:
    return [(s, strategy_value(s)) for s in all_strategies()]


def classical_chsh_max() -> float:
    """Exhaustive maximum over all 16 deterministic strategies; shared
    randomness mixes strategies and cannot exceed it."""
    return float(max(strategy_value(s) for s in all_strategies()))


# ---------------------------------------------------------------------------
# Quantum side: correlators on the shared pair


def measurement_observable(angle: float, qubit: int) -> PauliMap:
    """The +-1 observable of the standard basis rotated by `angle`, on one
    qubit of the pair."""
    bit = 1 << qubit
    return PauliMap._from_masks(2, [0, bit], [bit, 0], [math.cos(2 * angle), math.sin(2 * angle)])


def quantum_correlator(alpha: float, beta: float) -> float:
    """E(alpha, beta): expectation of the product observable on the pair."""
    a = measurement_observable(alpha, 0)
    b = measurement_observable(beta, 1)
    # The parties act on different qubits, so every pair of terms gives a
    # distinct product term.
    product = PauliMap._from_arrays(
        2,
        (a.x[:, None] | b.x).ravel(),
        (a.z[:, None] | b.z).ravel(),
        np.outer(a.coeffs, b.coeffs).ravel(),
    )
    return statevector.expectation(_BELL_PAIR, product)


def quantum_chsh_value(angles: tuple[float, float, float, float]) -> float:
    a0, a1, b0, b1 = angles
    return (
        quantum_correlator(a0, b0)
        + quantum_correlator(a0, b1)
        + quantum_correlator(a1, b0)
        - quantum_correlator(a1, b1)
    )
