"""Low-weight Pauli propagation: backward Heisenberg evolution of an
observable with a weight-k projection after every declared layer.

Elementary layers evolve exactly through cached Pauli transfer matrices;
composite blocks (and elementary gates wider than 3 qubits) evolve by
dense conjugation of the truncated observable over the block support.
Projection happens exactly once per declared layer, so composite blocks
count as a single step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import circuits, statevector
from .errors import ResourceLimitExceeded
from .pauli import (
    DROP_TOLERANCE,
    PauliMap,
    PauliString,
    conjugate_dense,
    conjugate_layer,
    transfer_matrix,
)

@dataclass(frozen=True)
class PropagationConfig:
    k: int = 1
    drop_tolerance: float = DROP_TOLERANCE
    dense_block_limit: int = 12

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("weight cutoff k must be at least 1")
        if self.dense_block_limit > statevector.DEFAULT_DENSE_LIMIT:
            raise ValueError("dense_block_limit exceeds the statevector dense limit")


def block_unitary(block: circuits.BlockLayer) -> tuple[tuple[int, ...], np.ndarray]:
    """Dense unitary of a block over its sorted support (targets + control)."""
    support = tuple(sorted(block.support))
    pos = {q: i for i, q in enumerate(support)}
    local = circuits.BlockLayer(
        block.name,
        block.circuit,
        tuple(pos[t] for t in block.targets),
        control=pos[block.control] if block.control is not None else None,
    )
    w = len(support)
    dim = 2**w
    u = np.zeros((dim, dim), dtype=complex)
    col = np.zeros(dim, dtype=complex)
    for j in range(dim):
        col[:] = 0.0
        col[j] = 1.0
        out = statevector._apply_block(col.reshape((2,) * w), local, list(range(w)))
        u[:, j] = out.reshape(-1)
    return support, u


def _wrap_wide_gate(gate: circuits.Gate) -> circuits.BlockLayer:
    w = len(gate.targets)
    local = circuits.Gate(gate.kind, tuple(range(w)), param=gate.param,
                          matrix=gate.matrix, perm=gate.perm)
    sub = circuits.Circuit(w, (circuits.ElementaryLayer((local,)),))
    return circuits.BlockLayer("wide_gate", sub, gate.targets)


def _conjugate_declared_layer(
    m: PauliMap, layer: circuits.Layer, cfg: PropagationConfig
) -> PauliMap:
    if isinstance(layer, circuits.ElementaryLayer):
        narrow = [g for g in layer.gates if len(g.targets) <= 3]
        wide = [g for g in layer.gates if len(g.targets) > 3]
        if narrow:
            m = conjugate_layer(
                m,
                [(g.targets, transfer_matrix(g.unitary())) for g in narrow],
                drop_tolerance=cfg.drop_tolerance,
            )
        for g in wide:
            m = _conjugate_block(m, _wrap_wide_gate(g), cfg)
        return m
    return _conjugate_block(m, layer, cfg)


def _conjugate_block(
    m: PauliMap, block: circuits.BlockLayer, cfg: PropagationConfig
) -> PauliMap:
    # Refuse before building: the unitary alone has 4^width entries.
    if len(block.support) > cfg.dense_block_limit:
        raise ResourceLimitExceeded(
            f"block on {len(block.support)} qubits exceeds dense block limit "
            f"{cfg.dense_block_limit}"
        )
    support, u = block_unitary(block)
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
    the initial projection and after each layer step.
    """
    if o.n_qubits != c.n_qubits:
        raise ValueError("observable and circuit qubit counts differ")
    acc = o.project_weight(cfg.k)
    norms = [acc.frobenius_normalized()]
    for layer in reversed(c.layers):
        acc = _conjugate_declared_layer(acc, layer, cfg).project_weight(cfg.k)
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
    lo, hi = c.input_register()
    if len(bits) != hi - lo + 1:
        raise ValueError("input length must match the input register")
    full = ["0"] * c.n_qubits
    for i, b in enumerate(bits):
        full[lo + i] = str(int(b))
    o0 = backpropagate(c, o, cfg)
    return evaluate_product_state(o0, "".join(full))


def z_first(n_qubits: int) -> PauliMap:
    """The observable Z on the first qubit, identity elsewhere."""
    return PauliMap.single(PauliString(n_qubits, 0, 1))
