"""Low-weight Pauli propagation: backward Heisenberg evolution of an
observable with a weight-k projection after every declared layer.

Elementary layers evolve exactly through Pauli transfer matrices, memoized
by gate unitary within one backward pass (nothing outlives the call) and
built per layer, one stack per gate width for the unitaries not yet seen;
composite blocks (and elementary gates wider than 3 qubits) evolve by
dense conjugation of the truncated observable over the block support.
`statevector.block_unitary`, imported here by name, builds that dense
unitary in one pass of the statevector interpreter, applied to the identity
with its columns on a batch axis.
Projection happens exactly once per declared layer, so composite blocks
count as a single step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import circuits
from .pauli import (
    DROP_TOLERANCE,
    PauliMap,
    conjugate_dense,
    conjugate_layer,
    transfer_matrix,
)
from .statevector import block_unitary, check_block_width


@dataclass(frozen=True)
class PropagationConfig:
    k: int = 1
    drop_tolerance: float = DROP_TOLERANCE

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("weight cutoff k must be at least 1")


def _conjugate_declared_layer(
    m: PauliMap, layer: circuits.Layer, cfg: PropagationConfig, memo: dict[bytes, np.ndarray]
) -> PauliMap:
    if isinstance(layer, circuits.ElementaryLayer):
        narrow = [g for g in layer.gates if len(g.targets) <= 3]
        wide = [g for g in layer.gates if len(g.targets) > 3]
        if narrow:
            unitaries = [np.asarray(g.unitary(), dtype=complex) for g in narrow]
            # As complex128, the byte length alone tells 1-, 2- and 3-qubit gates apart.
            keys = [u.tobytes() for u in unitaries]
            misses: dict[int, dict[bytes, np.ndarray]] = {}
            for key, u in zip(keys, unitaries):
                if key not in memo:
                    misses.setdefault(len(u), {})[key] = u
            for group in misses.values():
                memo.update(zip(group, transfer_matrix(np.stack(list(group.values())))))
            m = conjugate_layer(
                m,
                [(g.targets, memo[key]) for g, key in zip(narrow, keys)],
                drop_tolerance=cfg.drop_tolerance,
            )
        for g in wide:
            m = _conjugate_block(m, circuits.ElementaryLayer((g,)), cfg)
        return m
    return _conjugate_block(m, layer, cfg)


def _conjugate_block(
    m: PauliMap, layer: circuits.Layer, cfg: PropagationConfig
) -> PauliMap:
    # Refuse before building: the unitary alone has 4^width entries.
    check_block_width(len(layer.support))
    support, u = block_unitary(layer)
    return conjugate_dense(m, u, support, drop_tolerance=cfg.drop_tolerance)


def backpropagate(
    c: circuits.Circuit,
    o: PauliMap,
    cfg: PropagationConfig,
    record_norms: bool = False,
) -> PauliMap | tuple[PauliMap, list[float]]:
    """Evolve the observable backward through the whole circuit.

    Projects the observable to weight <= k up front, then for each layer
    from last to first conjugates exactly and projects once. With
    record_norms, also returns the normalized squared Frobenius norm after
    the initial projection and after each layer step. Transfer matrices
    are memoized for this pass only.
    """
    if o.n_qubits != c.n_qubits:
        raise ValueError("observable and circuit qubit counts differ")
    acc = o.project_weight(cfg.k)
    norms = [acc.frobenius_normalized()]
    memo: dict[bytes, np.ndarray] = {}
    for layer in reversed(c.layers):
        acc = _conjugate_declared_layer(acc, layer, cfg, memo).project_weight(cfg.k)
        if record_norms:
            norms.append(acc.frobenius_normalized())
    if record_norms:
        return acc, norms
    return acc


def evaluate_product_state(o: PauliMap, bits: str | Sequence[int]) -> float:
    """Tr[O |x><x|] for a computational basis state x (full width).

    Only I/Z terms survive; each contributes its coefficient times the
    parity sign of the Z support against x.
    """
    if len(bits) != o.n_qubits:
        raise ValueError("bitstring length must equal qubit count")
    xmask = 0
    for q, b in enumerate(bits):
        if int(b):
            xmask |= 1 << q
    diagonal = o.x == 0
    flipped = np.bitwise_count(o.z[diagonal] & np.uint64(xmask)) & 1
    c = o.coeffs[diagonal]
    return float(np.sum(np.where(flipped, -c, c)))


def heuristic_expectation(
    c: circuits.Circuit,
    o: PauliMap,
    bits: str | Sequence[int],
    cfg: PropagationConfig,
) -> float:
    """Backpropagate then evaluate on |x, 0...0>; x addresses the circuit's
    input register and all other qubits start at 0."""
    full = c.full_input(bits)
    return evaluate_product_state(backpropagate(c, o, cfg), full)


def z_first(n_qubits: int) -> PauliMap:
    """The observable Z on the first qubit, identity elsewhere."""
    return PauliMap._from_masks(n_qubits, [0], [1], [1.0])
