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

`backpropagate` also takes a batch of circuits of elementary layers of
gates of up to 3 qubits with the same targets layer by layer (the trials of
a Monte Carlo over random brickworks). The batch travels as one PauliMap
with a batch column, so each gate slot costs one kernel call for all
trials, and each trial's result is bit-identical to its lone pass. A batch
keeps no memo: its trials draw fresh Haar gates, which never repeat, so
each layer builds every trial's matrices in one stack per gate width.
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


def _slot_stacks(gates: list[circuits.Gate], trials: int) -> list[np.ndarray]:
    """The transfer-matrix stack of each gate slot of a batched layer, whose
    ``gates`` run slot by slot, ``trials`` to a slot: one build per gate
    width, and each slot a view of its build. A batch of Haar trials never
    repeats a unitary, so nothing is keyed or kept."""
    by_width: dict[int, list[int]] = {}
    for j in range(0, len(gates), trials):
        by_width.setdefault(len(gates[j].targets), []).append(j)
    stacks = {}
    for slots in by_width.values():
        built = transfer_matrix(np.stack([g.unitary() for j in slots for g in gates[j:j + trials]]))
        stacks.update((j, built[i * trials:(i + 1) * trials]) for i, j in enumerate(slots))
    return [stacks[j] for j in range(0, len(gates), trials)]


def _trial_slices(m: PauliMap, trials: int) -> list[slice]:
    """Where each trial's terms lie (all of them for a map without a batch
    column)."""
    if m.batch is None:
        return [slice(None)]
    bounds = np.searchsorted(m.batch, np.arange(trials + 1)).tolist()
    return [slice(s, e) for s, e in zip(bounds[:-1], bounds[1:])]


def _trial_norms(m: PauliMap, trials: int) -> list[float]:
    """Each trial's `frobenius_normalized`: one dot over its own terms."""
    return [float(m.coeffs[t] @ m.coeffs[t]) for t in _trial_slices(m, trials)]


def backpropagate(
    c: circuits.Circuit | Sequence[circuits.Circuit],
    o: PauliMap,
    cfg: PropagationConfig,
    record_norms: bool = False,
) -> PauliMap | tuple[PauliMap, list[float]] | list:
    """Evolve the observable backward through the whole circuit.

    Projects the observable to weight <= k up front, then for each layer
    from last to first conjugates exactly and projects once. With
    record_norms, also returns the normalized squared Frobenius norm after
    the initial projection and after each layer step. A lone pass memoizes
    the transfer matrices of recurring unitaries for this pass only; a
    `FusedCircuit` lends its block layers' dense unitaries.

    ``c`` may also be a sequence of circuits of elementary layers of gates
    of up to 3 qubits, with the same gate targets layer by layer. They then
    evolve in one batched pass, one kernel call per gate slot for all of
    them, and the result is a list with one entry per circuit, each
    bit-identical to what that circuit's own pass returns.
    """
    lone = isinstance(c, circuits.Circuit)
    batch = [c] if lone else list(c)
    blocks = c.blocks if isinstance(c, FusedCircuit) else {}
    if not batch:
        raise ValueError("backpropagate needs at least one circuit")
    if any(b.n_qubits != o.n_qubits for b in batch):
        raise ValueError("observable and circuit qubit counts differ")
    trials = len(batch)
    if len({len(b.layers) for b in batch}) > 1:
        raise ValueError("batched circuits must share their gate targets layer by layer")
    # Each declared layer, last first: its gate targets, its gates slot by
    # slot (gate j of every trial, then gate j + 1), their unitaries' keys
    # (a lone pass only) and its dense steps. Gathered by index here and in
    # the norms below, not by zipping: CPython 3.11 never reuses a freed
    # 20-tuple, so zipping 20 trials (or 20 norms) would leave up to 400 KiB
    # in its free list.
    steps = []
    for depth in reversed(range(len(batch[0].layers))):
        split = [_split(b.layers[depth]) for b in batch]
        if not lone and any(dense for _, dense in split):
            raise ValueError("a batch holds only elementary layers of gates of up to 3 qubits")
        targets = [g.targets for g in split[0][0]]
        if any([g.targets for g in narrow] != targets for narrow, _ in split):
            raise ValueError("batched circuits must share their gate targets layer by layer")
        gates = [narrow[j] for j in range(len(targets)) for narrow, _ in split]
        keys = [g.unitary().tobytes() for g in gates] if trials == 1 else []
        steps.append((targets, gates, keys, split[0][1]))
    uses = Counter(key for _, _, keys, _ in steps for key in keys)
    memo: dict[bytes, np.ndarray] = {}
    if trials > 1:
        o = PauliMap._from_arrays(
            o.n_qubits, np.tile(o.x, trials), np.tile(o.z, trials), np.tile(o.coeffs, trials),
            batch=np.repeat(np.arange(trials), len(o)),
        )
    acc = o.project_weight(cfg.k)
    norms = [_trial_norms(acc, trials)]
    for targets, gates, keys, dense in steps:
        if targets:
            # Built in the call, so no name keeps this layer's matrices
            # alive while the next layer's are built.
            acc = conjugate_layer(acc, zip(targets, (
                _slot_stacks(gates, trials) if trials > 1
                else _transfer_matrices(gates, keys, memo, uses))))
        for layer in dense:
            # Refuse before building: the unitary alone has 4^width entries.
            check_block_width(len(layer.support))
            support, u = blocks.get(layer) or block_unitary(layer)
            acc = conjugate_dense(acc, u, support)
        acc = acc.project_weight(cfg.k)
        if record_norms:
            norms.append(_trial_norms(acc, trials))
    out = [acc] if acc.batch is None else [
        PauliMap._from_arrays(acc.n_qubits, acc.x[t], acc.z[t], acc.coeffs[t])
        for t in _trial_slices(acc, trials)
    ]
    if record_norms:
        out = [(m, [row[t] for row in norms]) for t, m in enumerate(out)]
    return out[0] if lone else out


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
