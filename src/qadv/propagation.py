"""Low-weight Pauli propagation: backward Heisenberg evolution of an
observable with a weight-k projection after every declared layer.

Elementary layers evolve exactly through Pauli transfer matrices, built
per layer, one stack per gate width for the unitaries not yet seen. A lone
pass memoizes them by gate unitary for the unitaries that occur more than
once in it (nothing outlives the call); composite blocks
(and elementary gates wider than 3 qubits) evolve by dense conjugation of
the truncated observable over the block support.
A block's dense unitary comes from a `statevector.FusedCircuit` when one is
given; otherwise `statevector.block_unitary`, imported here by name, builds
it in one pass of the statevector interpreter over the identity.
Projection happens exactly once per declared layer, so composite blocks
count as a single step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import circuits
from .pauli import PauliMap, conjugate_dense, conjugate_layer, transfer_matrix
from .statevector import FusedCircuit, block_unitary, check_block_width


@dataclass(frozen=True)
class PropagationConfig:
    k: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("weight cutoff k must be at least 1")


def _split(layer: circuits.Layer) -> tuple[list[circuits.Gate], list[circuits.Layer]]:
    """A declared layer as its gates of up to 3 qubits and its dense steps:
    a block, or each wider gate on its own."""
    if not isinstance(layer, circuits.ElementaryLayer):
        return [], [layer]
    wide = [circuits.ElementaryLayer((g,)) for g in layer.gates if len(g.targets) > 3]
    return [g for g in layer.gates if len(g.targets) <= 3], wide


def _transfer_matrices(
    gates: list[circuits.Gate], keys: list[bytes], memo: dict[bytes, np.ndarray], uses: Counter
) -> list[np.ndarray]:
    """The transfer matrix of each gate, keyed by its unitary's bytes: from
    the memo, or built in one stack per gate width for the unitaries not
    seen before. Only those of unitaries that occur more than once in the
    pass go into the memo, so one-shot gates (fresh Haar draws) hold no
    memory past their layer."""
    misses: dict[int, dict[bytes, circuits.Gate]] = {}
    for key, g in zip(keys, gates):
        if key not in memo:
            # As complex128, the byte length alone tells 1-, 2- and 3-qubit gates apart.
            misses.setdefault(len(key), {})[key] = g
    built: dict[bytes, np.ndarray] = {}
    for group in misses.values():
        built.update(zip(group, transfer_matrix(np.stack([g.unitary() for g in group.values()]))))
    memo.update((key, entries) for key, entries in built.items() if uses[key] > 1)
    return [built[key] if key in built else memo[key] for key in keys]


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
    the initial projection and after each layer step. The pass memoizes
    the transfer matrices of recurring unitaries for this pass only; a
    `FusedCircuit` lends its block layers' dense unitaries.
    """
    if c.n_qubits != o.n_qubits:
        raise ValueError("observable and circuit qubit counts differ")
    blocks = c.blocks if isinstance(c, FusedCircuit) else {}
    # Each declared layer, last first: its gates of up to 3 qubits, their
    # unitaries' keys and its dense steps.
    steps = []
    for layer in reversed(c.layers):
        gates, dense = _split(layer)
        steps.append((gates, [g.unitary().tobytes() for g in gates], dense))
    uses = Counter(key for _, keys, _ in steps for key in keys)
    memo: dict[bytes, np.ndarray] = {}
    acc = o.project_weight(cfg.k)
    norms = [acc.frobenius_normalized()]
    for gates, keys, dense in steps:
        if gates:
            # Built in the call, so no name keeps this layer's matrices
            # alive while the next layer's are built.
            acc = conjugate_layer(acc, zip(
                [g.targets for g in gates], _transfer_matrices(gates, keys, memo, uses)))
        for layer in dense:
            # Refuse before building: the unitary alone has 4^width entries.
            check_block_width(len(layer.support))
            support, u = blocks.get(layer) or block_unitary(layer)
            acc = conjugate_dense(acc, u, support)
        acc = acc.project_weight(cfg.k)
        if record_norms:
            norms.append(acc.frobenius_normalized())
    return (acc, norms) if record_norms else acc


def evaluate_product_state(o: PauliMap, bits: str | Sequence[int]) -> float:
    """Tr[O |x><x|] for a computational basis state x (full width).

    Only I/Z terms survive; each contributes its coefficient times the
    parity sign of the Z support against x.
    """
    values = circuits.bit_values(bits)
    if len(values) != o.n_qubits:
        raise ValueError("bitstring length must equal qubit count")
    xmask = 0
    for q, b in enumerate(values):
        if b:
            xmask |= 1 << q
    diagonal = o.x == 0
    flipped = np.bitwise_count(o.z[diagonal] & np.uint64(xmask)) & 1
    c = o.coeffs[diagonal]
    return float(np.sum(np.where(flipped, -c, c)))


def z_first(n_qubits: int) -> PauliMap:
    """The observable Z on the first qubit, identity elsewhere."""
    return PauliMap._from_masks(n_qubits, [0], [1], [1.0])
