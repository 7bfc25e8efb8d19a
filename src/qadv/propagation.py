"""Low-weight Pauli propagation: backward Heisenberg evolution of an
observable with a weight-k projection after every declared layer.

Elementary layers evolve exactly through Pauli transfer matrices. A pass
walks the circuit a window at a time: a run of consecutive layers whose
distinct unitaries' matrices fit in `TRANSFER_WINDOW_BYTES`, built in one
stack per gate width and dropped with the window. A unitary that recurs in
a window is built once; one that recurs across windows is built again, with
the same bytes. Composite blocks (and elementary gates wider than 3 qubits)
evolve by dense conjugation of the truncated observable over the block
support.
A block's dense unitary comes from a `statevector.FusedCircuit` when one is
given; otherwise `statevector.block_unitary`, imported here by name, builds
it in one pass of the statevector interpreter over the identity.
Projection happens exactly once per declared layer, so composite blocks
count as a single step.
"""

from __future__ import annotations

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


def _window(
    layers: Sequence[circuits.Layer], start: int
) -> list[tuple[list[circuits.Gate], list[np.ndarray], list[circuits.Layer]]]:
    """The window from ``layers[start]``: that layer and each following one
    while the window's distinct unitaries of up to 3 qubits have transfer
    matrices within `TRANSFER_WINDOW_BYTES` (a layer whose own take more is
    a window of its own). Each layer comes as its gates, their matrices and
    its dense steps; the matrices are views into one `transfer_matrix`
    stack per gate width, so they live as long as the window."""
    steps = []
    distinct: dict[int, dict[bytes, circuits.Gate]] = {}
    size = 0
    for layer in layers[start:]:
        gates, dense = _split(layer)
        keys = [g.unitary().tobytes() for g in gates]
        new = {key: g for key, g in zip(keys, gates) if key not in distinct.get(len(key), ())}
        # A d x d complex128 unitary has 16 d^2 bytes, its transfer matrix
        # 8 d^4; the byte length alone also tells the widths apart.
        grow = sum(8 * (len(key) // 16) ** 2 for key in new)
        if size and size + grow > TRANSFER_WINDOW_BYTES:
            break
        size += grow
        for key, g in new.items():
            distinct.setdefault(len(key), {})[key] = g
        steps.append((gates, keys, dense))
    built: dict[bytes, np.ndarray] = {}
    for group in distinct.values():
        built.update(zip(group, transfer_matrix(np.stack([g.unitary() for g in group.values()]))))
    return [(gates, [built[key] for key in keys], dense) for gates, keys, dense in steps]


def backpropagate(c: circuits.Circuit, o: PauliMap, cfg: PropagationConfig) -> PauliMap:
    """Evolve the observable backward through the whole circuit.

    Projects the observable to weight <= k up front, then for each layer
    from last to first conjugates exactly and projects once. A pass over a
    bare circuit is byte-equal to the chain of its one-layer passes, last
    layer first, so a caller that wants the map after each layer makes
    those passes itself.

    The layers are taken a window at a time (`_window`), last first: each
    window builds its matrices, runs its layers and is dropped before the
    next. Each matrix has the bytes of its one-matrix build. A
    `FusedCircuit` lends its block layers' dense unitaries.
    """
    if c.n_qubits != o.n_qubits:
        raise ValueError("observable and circuit qubit counts differ")
    blocks = c.blocks if isinstance(c, FusedCircuit) else {}
    layers = c.layers[::-1]
    acc = o.project_weight(cfg.k)
    done = 0
    while done < len(layers):
        window = _window(layers, done)
        done += len(window)
        for gates, matrices, dense in window:
            if gates:
                acc = conjugate_layer(acc, zip([g.targets for g in gates], matrices))
            for layer in dense:
                # Refuse before building: the unitary alone has 4^width entries.
                check_block_width(len(layer.support))
                support, u = blocks.get(layer) or block_unitary(layer)
                acc = conjugate_dense(acc, u, support)
            acc = acc.project_weight(cfg.k)
        # The last layer's matrices are views that pin the window's stacks:
        # release them before the next window is built.
        del window, matrices
    return acc


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
