"""Low-weight Pauli propagation: backward Heisenberg evolution of an
observable with a weight-k projection after every declared layer.

Elementary layers evolve exactly through Pauli transfer matrices. A pass
builds them a window at a time: at the first layer with a matrix not yet
built, one stack per gate width for the unitaries not yet built in that
layer and in as many following layers as fit in `TRANSFER_WINDOW_BYTES`.
A recurring unitary is built once per pass, and every matrix is dropped
after the last layer that uses it (nothing outlives the call). Composite
blocks (and elementary gates wider than 3 qubits) evolve by dense
conjugation of the truncated observable over the block support.
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

#: Bytes of transfer matrices one build of a backward pass may output:
#: 512 two-qubit or 32 three-qubit matrices. A layer whose own new matrices
#: take more is still built whole, in one build of its own.
TRANSFER_WINDOW_BYTES = 1024 * 1024


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


def _build_window(
    steps: list, start: int, built: dict[bytes, np.ndarray], left: Counter
) -> None:
    """Add to ``built`` the transfer matrices not yet built of step
    ``start`` and of as many following steps as fit in
    `TRANSFER_WINDOW_BYTES` of output (always step ``start``): one
    `transfer_matrix` stack per gate width. A matrix whose unitary has uses
    ``left`` after this one is copied out of its stack, so that it alone
    outlives the window."""
    misses: dict[int, dict[bytes, circuits.Gate]] = {}
    size = 0
    for gates, keys, _ in steps[start:]:
        new = {key: g for key, g in zip(keys, gates)
               if key not in built and key not in misses.get(len(key), ())}
        # A d x d complex128 unitary has 16 d^2 bytes, its transfer matrix
        # 8 d^4; the byte length alone also tells the widths apart.
        grow = sum(8 * (len(key) // 16) ** 2 for key in new)
        if size and size + grow > TRANSFER_WINDOW_BYTES:
            break
        size += grow
        for key, g in new.items():
            misses.setdefault(len(key), {})[key] = g
    for group in misses.values():
        stack = transfer_matrix(np.stack([g.unitary() for g in group.values()]))
        built.update((key, entries.copy() if left[key] > 1 else entries)
                     for key, entries in zip(group, stack))


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
    the initial projection and after each layer step.

    Transfer matrices are built a window at a time (`_build_window`): at
    the first layer with a matrix not yet built, for it and the following
    layers up to `TRANSFER_WINDOW_BYTES` of new matrices. Each distinct
    unitary is built once per pass and dropped after its last layer; each
    matrix has the bytes of its one-matrix build. A `FusedCircuit` lends
    its block layers' dense unitaries.
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
    left = Counter(key for _, keys, _ in steps for key in keys)
    built: dict[bytes, np.ndarray] = {}
    acc = o.project_weight(cfg.k)
    norms = [acc.frobenius_normalized()]
    for i, (gates, keys, dense) in enumerate(steps):
        if gates:
            if not all(key in built for key in keys):
                _build_window(steps, i, built, left)
            acc = conjugate_layer(acc, zip([g.targets for g in gates], [built[key] for key in keys]))
            for key in keys:
                left[key] -= 1
                if not left[key]:
                    del built[key]
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
