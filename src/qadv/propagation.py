"""Low-weight Pauli propagation: backward Heisenberg evolution of an
observable with a weight-k projection after every declared layer.

Elementary layers evolve exactly through Pauli transfer matrices
(`pauli.conjugate_layer`). A layer's one-qubit gates that are not
Clifford step first, all together, in at most as many rounds as the
terms' largest weight, with one merge of equal terms per round. Then the
other gates step in order. A Clifford gate's matrix has one nonzero entry
in each row, which one count of its nonzeros finds, as orthonormal rows
are never zero; a run of such gates steps in place, bit-parallel on the
masks, one pass per matrix and set of target offsets. Every other gate
takes one grouped step of its own. Both passes below take their layers
from one walk (`_walk`), last first and a window at a time: a run of
consecutive layers whose distinct unitaries' matrices fit in
`TRANSFER_WINDOW_BYTES`, built in one stack per gate width and dropped
with the window. A unitary that recurs in a window is built
once; one that recurs across windows is built again, with the same bytes.
Composite blocks (and elementary gates wider than 3 qubits) evolve by dense
conjugation of the truncated observable over the block support.
A block's dense unitary comes from a `statevector.FusedCircuit` when one is
given; otherwise `statevector.block_unitary`, imported here by name, builds
it in one pass of the statevector interpreter over the identity.
Projection happens exactly once per declared layer, so composite blocks
count as a single step.

At k = 1 `weight_one_pass` gives the same projected map in the weight-1
sector, as an (n, 3) array of X, Y and Z coefficients per qubit
(`sector_map` wraps it as a map): each gate of up to 3 qubits acts through
the weight-1 block of its transfer matrix (`weight_one_step`), each dense
step through one matmul of its unitary (`_dense_step`). Decay's sector
pass uses each Haar gate once, so it steps its gates straight from their
unitaries (`unitary_step`), with `_dense_step`'s row action and read-off
and every sum in a fixed order. `backpropagate` stays the route for k >= 2
and the reference the sector passes are checked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import circuits
from .errors import InvariantViolation
from .pauli import (
    _HERMITICITY_TOL,
    DROP_TOLERANCE,
    PauliMap,
    conjugate_dense,
    conjugate_layer,
    transfer_matrix,
    weight_one_blocks,
)
from .statevector import FusedCircuit, block_unitary, check_block_width

#: Bytes of matrices one build of a backward pass may output: 512 two-qubit
#: or 32 three-qubit transfer matrices, or 3,640 two-qubit weight-1 blocks.
#: A layer whose own new matrices take more is still built whole, in one
#: build of its own.
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


def _walk(
    c: circuits.Circuit,
    build: Callable[[np.ndarray], np.ndarray],
    side: Callable[[int], int],
) -> Iterator[tuple[list[circuits.Gate], list[np.ndarray], list[circuits.Layer]]]:
    """Each declared layer of ``c``, last first, as its gates, their
    matrices and its dense steps (`_split`), taken a window at a time: a
    layer and each following one while the window's distinct unitaries of
    up to 3 qubits have matrices within `TRANSFER_WINDOW_BYTES` (a layer
    whose own take more is a window of its own). ``build`` makes the
    matrices of a stack of d x d unitaries, each ``side(d)`` square:
    `transfer_matrix` or `weight_one_blocks`, called once per gate width
    and window. A layer's matrices are views into those stacks, in a list
    that is emptied when the caller asks for the next layer: no caller
    pins a window's stacks while the next window is built."""
    layers = c.layers[::-1]
    done = 0
    while done < len(layers):
        steps, distinct, size, built = [], {}, 0, {}
        for layer in layers[done:]:
            gates, dense = _split(layer)
            keys = [g.unitary().tobytes() for g in gates]
            new = {key: g for key, g in zip(keys, gates) if key not in distinct.get(len(key), ())}
            # A d x d complex128 unitary has 16 d^2 bytes; the byte length alone
            # also tells the widths apart.
            grow = sum(8 * side(math.isqrt(len(key) // 16)) ** 2 for key in new)
            if size and size + grow > TRANSFER_WINDOW_BYTES:
                break
            size += grow
            for key, g in new.items():
                distinct.setdefault(len(key), {})[key] = g
            steps.append((gates, keys, dense))
        done += len(steps)
        for group in distinct.values():
            built.update(zip(group, build(np.stack([g.unitary() for g in group.values()]))))
        for gates, keys, dense in steps:
            matrices = [built[key] for key in keys]
            yield gates, matrices, dense
            matrices.clear()


def backpropagate(c: circuits.Circuit, o: PauliMap, cfg: PropagationConfig) -> PauliMap:
    """Evolve the observable backward through the whole circuit.

    Projects the observable to weight <= k up front, then for each layer
    from last to first conjugates exactly and projects once. A pass over a
    bare circuit is byte-equal to the chain of its one-layer passes, last
    layer first, so a caller that wants the map after each layer makes
    those passes itself.

    The layers come from `_walk` with `transfer_matrix`, a window at a
    time; each matrix has the bytes of its one-matrix build. A
    `FusedCircuit` lends its block layers' dense unitaries.
    """
    if c.n_qubits != o.n_qubits:
        raise ValueError("observable and circuit qubit counts differ")
    blocks = c.blocks if isinstance(c, FusedCircuit) else {}
    acc = o.project_weight(cfg.k)
    for gates, matrices, dense in _walk(c, transfer_matrix, lambda d: d * d):
        if gates:
            acc = conjugate_layer(acc, zip([g.targets for g in gates], matrices))
        for layer in dense:
            # Refuse before building: the unitary alone has 4^width entries.
            check_block_width(len(layer.support))
            support, u = blocks.get(layer) or block_unitary(layer)
            acc = conjugate_dense(acc, u, support)
        acc = acc.project_weight(cfg.k)
    return acc


def _sector(o: PauliMap) -> np.ndarray:
    """The weight-1 terms of ``o`` as an ``(n, 3)`` array: row q holds the
    coefficients of X, Y and Z on qubit q."""
    v = np.zeros((o.n_qubits, 3))
    one = np.bitwise_count(o.x | o.z) == 1
    x, z = o.x[one] != 0, o.z[one] != 0
    # A weight-1 mask is one bit: the bits below it count its qubit.
    q = np.bitwise_count((o.x[one] | o.z[one]) - np.uint64(1))
    v[q, np.where(z, 2 - x, 0)] = o.coeffs[one]
    return v


def sector_map(v: np.ndarray) -> PauliMap:
    """The inverse of `_sector`: the map whose terms are the nonzero
    entries of ``v`` (X, Y, Z on each qubit in turn)."""
    q, a = v.nonzero()
    bit = np.uint64(1) << q.astype(np.uint64)
    return PauliMap._from_masks(len(v), np.where(a < 2, bit, 0), np.where(a > 0, bit, 0), v[q, a])


def weight_one_step(v: np.ndarray, targets: np.ndarray, blocks: np.ndarray) -> None:
    """Apply, in place, one layer's gates of one width w to the weight-1
    coefficients ``v`` (``(..., n, 3)``): gate i acts on qubits
    ``targets[i]`` (a ``(g, w)`` array) through ``blocks[..., i, :, :]``,
    its 3w x 3w weight-1 block. Exact for the weight-1 part, since a gate
    maps a weight-1 term on its targets to terms on its targets alone.

    Row r of a block lists how the input Pauli r spreads, so each output
    is the sum over r of row r times its input, summed in index order
    rather than by matmul, whose BLAS or loop path, and so its rounding,
    can change with the shape of the leading axes."""
    rows = v[..., targets, :]
    out = (rows.reshape(rows.shape[:-2] + (-1, 1)) * blocks).sum(axis=-2)
    v[..., targets, :] = out.reshape(rows.shape)


@functools.cache
def _bit_tables(w: int) -> tuple[np.ndarray, np.ndarray]:
    """For each position j of a w-qubit support (first qubit most
    significant) and each row r of a 2^w x 2^w matrix: r xor b_j, with b_j
    the bit of position j, and (-1)^(bit j of r), as two read-only (w, 2^w)
    arrays. The row action and the read-off of the weight-1 steps read
    both."""
    index = np.arange(1 << w)
    shifts = np.arange(w - 1, -1, -1)[:, None]
    tables = index ^ (1 << shifts), 1.0 - 2 * (index >> shifts & 1)
    for t in tables:
        t.flags.writeable = False
    return tables


def _times_rows(u: np.ndarray, rows: np.ndarray, z: np.ndarray, positions) -> np.ndarray:
    """O U, for O = sum_{j, a} rows[..., j, a] P_{j, a} over a w-qubit
    support and ``u`` a ``(..., d, d)`` stack, from U's rows without a
    product: a Pauli on support position j maps row r to +-row r, or to row
    r xor b_j (`_bit_tables`). ``z`` is the ``(..., d)`` sum of rows[...,
    j, 2] sign_j over j, which each caller sums its own way, and only
    ``positions`` carry X or Y."""
    flips, signs = _bit_tables(rows.shape[-2])
    # Z_j U = sign_j U and (X_j U)[r] = U[r xor b_j], (Y_j U)[r] = -i sign_j U[r xor b_j].
    ou = z[..., None] * u
    xy = rows[..., 0, None] - 1j * rows[..., 1, None] * signs
    for j in positions:
        ou += xy[..., j, :, None] * u.take(flips[j], axis=-2)
    return ou


def _read_off(flipped: np.ndarray, z: np.ndarray, d: int) -> np.ndarray:
    """The weight-1 coefficients Tr(P M) / d of a ``(..., d, d)`` M, as a
    real ``(..., w, 3)`` array, from flipped[..., j, r] = M[r xor b_j, r]
    and z[..., j] = sum_r sign_j(r) M[r, r]: Tr(P M) = sum_{r, c} P[r, c]
    M[c, r], and X_j and Y_j have their entries at c = r xor b_j (1 and -i
    sign_j), Z_j on the diagonal (sign_j). A residue past
    `_HERMITICITY_TOL` in the imaginary parts is an InvariantViolation."""
    _, signs = _bit_tables(flipped.shape[-2])
    out = np.stack((flipped.sum(axis=-1), (-1j * signs * flipped).sum(axis=-1), z),
                   axis=-1) / d
    if np.abs(out.imag).max() > _HERMITICITY_TOL:
        raise InvariantViolation("conjugation produced nonreal Pauli coefficients")
    return out.real


def unitary_step(v: np.ndarray, targets: np.ndarray, u: np.ndarray) -> None:
    """Apply, in place, one layer's gates of one width w to the weight-1
    coefficients ``v`` (``(..., n, 3)``), as `weight_one_step` does, but
    from their unitaries: gate i acts on qubits ``targets[i]`` (a ``(g,
    w)`` array) through ``u[..., i, :, :]``. Its step is the weight-1 part
    of U^dag O U for O = sum_{j, a} v[q_j, a] P_{j, a}, read as
    `_dense_step` reads it, with O U from U's rows (`_times_rows`) and only
    the entries of U^dag (O U) that `_read_off` needs.

    A gate's output is the same floats in any stack. The sums over the
    positions j and over the rows k of U are elementwise adds in index
    order, not matmuls, whose BLAS or loop path, and so its rounding, can
    change with the shape of the leading axes. The read-off sums each row
    of a C-ordered array along its innermost axis, which numpy sums the
    same way however many rows there are; along an outer axis it would sum
    in another order once a leading axis of size 1 is dropped."""
    rows = v[..., targets, :]
    w, d = targets.shape[1], u.shape[-1]
    flips, signs = _bit_tables(w)
    z = rows[..., 0, 2, None] * signs[0]
    for j in range(1, w):
        z = z + rows[..., j, 2, None] * signs[j]
    ou = _times_rows(u, rows, z, range(w))
    # M[c, r] = sum_k conj(U[k, c]) (O U)[k, r], wanted at c = r xor b_j
    # (one row of m per position j) and at c = r (the last row). Both
    # factors are gathered to (..., k, w + 1, d), so that the product
    # broadcasts nothing within a gate. The gathers lay their index axes
    # out first in memory, so m is asked for in C order.
    cols = np.vstack((flips, np.arange(d)))
    prod = u.conj()[..., cols]
    prod *= ou[..., np.broadcast_to(np.arange(d), cols.shape)]
    m = np.add(prod[..., 0, :, :], prod[..., 1, :, :], order="C")
    for k in range(2, d):
        m += prod[..., k, :, :]
    v[..., targets, :] = _read_off(m[..., :w, :], (signs * m[..., w, None, :]).sum(axis=-1), d)


def _dense_step(v: np.ndarray, support: Sequence[int], u: np.ndarray) -> None:
    """Apply, in place, a dense unitary ``u`` on ``support`` (first qubit
    most significant) to the weight-1 coefficients ``v``: the weight-1 part
    of U^dag O U for O = sum_{q, a} v[q, a] P_{q, a} over the support.

    O U comes from U's rows (`_times_rows`, skipping positions with no X or
    Y), M = U^dag (O U) is one matmul, and `_read_off` reads M on its
    bit-flipped diagonals and its diagonal."""
    support = list(support)
    rows = v[support]
    d = len(u)
    flips, signs = _bit_tables(len(support))
    ou = _times_rows(u, rows, rows[:, 2] @ signs, rows[:, :2].any(axis=1).nonzero()[0])
    m = u.conj().T @ ou
    v[support] = _read_off(m[flips, np.arange(d)], signs @ np.diagonal(m), d)


def weight_one_pass(c: circuits.Circuit, o: PauliMap) -> np.ndarray:
    """The k = 1 backward pass in the weight-1 sector: the ``(n, 3)`` X, Y
    and Z coefficients per qubit of what ``backpropagate(c, o,
    PropagationConfig(k=1))`` returns, without its identity part (which no
    step changes) and with the rounding of its own sums.

    ``o`` is projected to weight 1 up front. A declared layer's gates are
    disjoint, so a weight-1 term meets at most one of them, and the
    projected step is the gate's weight-1 block (`weight_one_step`): the
    layers come from `backpropagate`'s walk (`_walk`), with
    `weight_one_blocks` in place of `transfer_matrix`. A dense step (a
    block, or a gate wider than 3 qubits) is `_dense_step`, with a
    `FusedCircuit`'s block ops lent; a block too wide is refused first, and
    one whose support rows are all zero is skipped, since zero in gives
    zero out. After a layer's gate step and after each dense step,
    every coefficient at or below `DROP_TOLERANCE` is zeroed, where
    `conjugate_layer` and `conjugate_dense` drop.
    """
    if c.n_qubits != o.n_qubits:
        raise ValueError("observable and circuit qubit counts differ")
    blocks = c.blocks if isinstance(c, FusedCircuit) else {}
    v = _sector(o)
    for gates, matrices, dense in _walk(c, weight_one_blocks, lambda d: 3 * (d.bit_length() - 1)):
        if gates:
            widths = [len(g.targets) for g in gates]
            for w in set(widths):
                group = [i for i, x in enumerate(widths) if x == w]
                weight_one_step(v, np.array([gates[i].targets for i in group]),
                                np.array([matrices[i] for i in group]))
            v[np.abs(v) <= DROP_TOLERANCE] = 0.0
        for layer in dense:
            check_block_width(len(layer.support))
            if v[list(layer.support)].any():
                _dense_step(v, *(blocks.get(layer) or block_unitary(layer)))
            v[np.abs(v) <= DROP_TOLERANCE] = 0.0
    return v


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
