"""Exact dense statevector simulator, the oracle side of every comparison.

Amplitude indexing is big-endian: qubit 0 is the most significant bit of
the index, so ``prepare_basis(2, "10")`` puts the amplitude at index 2.

A circuit runs in two steps. `fuse` compiles it once into a `FusedCircuit`,
the circuit plus its dense ops, each a sorted support and its unitary:
every block layer becomes one op, and every maximal run of elementary
layers whose union support stays within `FUSE_WIDTH` qubits becomes one op
(a layer wider than that is split into its gates first). `apply_circuit`
and `output_prob` then run the ops, each as one multiply on the state; both
fuse a bare `Circuit` on entry, so a caller with many inputs fuses once.
`apply_circuit` also takes the bits of a basis state, which it prepares
and multiplies like any other state. `propagation` conjugates by the ops
of block layers, never by fused runs.

`output_prob` sums out the spectators of its input's first op, the qubits
of its support that no later op touches (qubit 0 aside), when they
outnumber its other qubits. It reads that op's output off the column of
its unitary that the bits select (the floats a multiply would give: a
product of one exact 1 and zeros is exact in any summation order); the
later ops multiply one basis ket per setting of its other qubits, over the
kept qubits only, and the column enters through its Gram matrix over the
spectators. In `circuits.build_cnew`'s circuit that first op is the
amplified block, and all its ancillas but the majority qubit are spectators.

`block_unitary` builds every op but one kind, and every other dense unitary
`propagation` conjugates by: it runs the gate-by-gate interpreter
(`_apply_layers`) once on the identity, whose columns ride on a trailing
batch axis. The exception is a controlled block whose sub-circuit undoes,
gate for gate, the run that directly follows it (the controlled inverse of
`circuits.build_cnew`): its op is the identity and the adjoint of the
run's op, placed without arithmetic (`_controlled_adjoint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import circuits
from .errors import InvariantViolation, ResourceLimitExceeded
from .pauli import PauliMap

#: Widest system simulated densely; every acceptance experiment fits in 14.
DENSE_LIMIT = 16

#: Widest dense unitary built; it has 4^w entries (256 MB at w = 12).
DENSE_BLOCK_LIMIT = 12

#: Widest run of elementary layers fused into one op, chosen by measurement
#: on 12- and 14-qubit brickwork (CHANGES.md): an op costs 4^w per gate to
#: build and 2^w per amplitude to apply, so wider ops lost to narrower ones.
FUSE_WIDTH = 6

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError("amplitude length must be 2^n_qubits")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1")


def _bits_to_index(bits: Sequence[int]) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


def check_dense_limit(n_qubits: int) -> None:
    """Refuse a statevector wider than DENSE_LIMIT before it is built."""
    if n_qubits > DENSE_LIMIT:
        raise ResourceLimitExceeded(f"{n_qubits} qubits exceeds dense limit {DENSE_LIMIT}")


def prepare_basis(n_qubits: int, bits: str | Sequence[int]) -> StateVector:
    """Computational basis state |bits>, first character = qubit 0."""
    values = circuits.bit_values(bits)
    if len(values) != n_qubits:
        raise ValueError("bitstring length must equal qubit count")
    # Refuse before allocating the 2^n amplitudes.
    check_dense_limit(n_qubits)
    amp = np.zeros(2**n_qubits, dtype=complex)
    amp[_bits_to_index(values)] = 1.0
    return StateVector(n_qubits, amp)


#: Qubit -> array axis, a list indexed by qubit or a dict keyed by qubit.
AxisMap = Mapping[int, int] | Sequence[int]


def _front(ndim: int, axes: Sequence[int]) -> tuple[list[int], list[int]]:
    """The transpose that moves `axes` to the front in their order (the
    others keep theirs), and its inverse: the views `np.moveaxis` makes."""
    perm = [*axes, *(a for a in range(ndim) if a not in axes)]
    back = [0] * ndim
    for i, a in enumerate(perm):
        back[a] = i
    return perm, back


def _apply_matrix(arr: np.ndarray, u: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Move `axes` to the front, flatten them to 2^w rows (first axis most
    significant), multiply the rows by u, and move the axes back."""
    perm, back = _front(arr.ndim, axes)
    moved = arr.transpose(perm)
    out = u @ moved.reshape(len(u), -1)
    return out.reshape(moved.shape).transpose(back)


def _apply_gate(arr: np.ndarray, gate: circuits.Gate, axis_map: AxisMap) -> np.ndarray:
    axes = [axis_map[t] for t in gate.targets]
    if gate.kind != "perm":
        return _apply_matrix(arr, gate.unitary(), axes)
    # A basis permutation moves whole rows: index them instead of multiplying.
    perm, back = _front(arr.ndim, axes)
    moved = arr.transpose(perm)
    out = moved.reshape(len(gate.perm), -1)[np.argsort(gate.perm)]
    return out.reshape(moved.shape).transpose(back)


def _apply_layers(arr: np.ndarray, layers, axis_map: AxisMap) -> np.ndarray:
    """Apply layers to the qubit axes named by axis_map; axes no qubit maps
    to are batch axes and pass through."""
    for layer in layers:
        if isinstance(layer, circuits.ElementaryLayer):
            for gate in layer.gates:
                arr = _apply_gate(arr, gate, axis_map)
        else:
            arr = _apply_block(arr, layer, axis_map)
    return arr


def _apply_block(arr: np.ndarray, block: circuits.BlockLayer, axis_map: AxisMap) -> np.ndarray:
    target_axes = [axis_map[t] for t in block.targets]
    if block.control is None:
        return _apply_layers(arr, block.circuit.layers, target_axes)
    c_axis = axis_map[block.control]
    out = arr.copy()
    idx = [slice(None)] * arr.ndim
    idx[c_axis] = 1
    # Sub-circuit acts only on the control=1 slice; axes past the sliced-out
    # control axis shift down by one.
    sub_axes = [a - (a > c_axis) for a in target_axes]
    out[tuple(idx)] = _apply_layers(out[tuple(idx)], block.circuit.layers, sub_axes)
    return out


def check_block_width(width: int) -> None:
    """Refuse a dense unitary wider than DENSE_BLOCK_LIMIT before it is built."""
    if width > DENSE_BLOCK_LIMIT:
        raise ResourceLimitExceeded(
            f"block on {width} qubits exceeds dense block limit {DENSE_BLOCK_LIMIT}"
        )


#: One dense op: the sorted qubits it acts on and its unitary over them.
Op = tuple[tuple[int, ...], np.ndarray]


def block_unitary(*layers: circuits.Layer) -> Op:
    """Dense unitary of one layer, or of a run of layers applied in order,
    over their sorted union support (for a block, targets + control). One
    pass of the interpreter over the identity, whose columns ride on a
    trailing batch axis."""
    support = tuple(sorted(frozenset().union(*(layer.support for layer in layers))))
    dim = 2 ** len(support)
    eye = np.eye(dim, dtype=complex).reshape((2,) * len(support) + (dim,))
    u = _apply_layers(eye, layers, {q: i for i, q in enumerate(support)})
    return support, u.reshape(dim, dim)


@dataclass(frozen=True, eq=False)
class FusedCircuit(circuits.Circuit):
    """A circuit with what `fuse` compiled: its dense ops in application
    order, and each block layer's op (the same object as in `ops`)."""

    ops: tuple[Op, ...] = ()
    blocks: Mapping[circuits.BlockLayer, Op] = field(default_factory=dict)


def _fusion_units(layer: circuits.Layer) -> Sequence[circuits.Layer]:
    """A layer as the units fusion groups: itself, or, for an elementary
    layer wider than FUSE_WIDTH, one single-gate layer per gate (its gates
    are disjoint, so their order does not matter)."""
    if isinstance(layer, circuits.BlockLayer) or len(layer.support) <= FUSE_WIDTH:
        return (layer,)
    return [circuits.ElementaryLayer((g,)) for g in layer.gates]


def _undoes(
    sub: circuits.Circuit, targets: Sequence[int], run: Sequence[circuits.ElementaryLayer]
) -> bool:
    """Whether ``sub``, placed on ``targets``, undoes ``run`` gate for gate:
    its layer j pairs with run layer L-1-j, gate by gate in order, with the
    same targets once mapped through ``targets``, and each gate the
    `Gate.adjoint` of its partner (a matrix gate: the conjugate transpose
    of its partner's matrix, exactly)."""
    if len(sub.layers) != len(run):
        return False
    for sub_layer, layer in zip(sub.layers, reversed(run)):
        if not isinstance(sub_layer, circuits.ElementaryLayer) or (
                len(sub_layer.gates) != len(layer.gates)):
            return False
        for s, g in zip(sub_layer.gates, layer.gates):
            if tuple([targets[t] for t in s.targets]) != g.targets:
                return False
            if g.kind == "matrix":
                if s.kind != "matrix" or not np.array_equal(s.matrix, g.matrix.conj().T):
                    return False
            elif (s.kind, s.param, s.perm) != ((a := g.adjoint()).kind, a.param, a.perm):
                return False
    return True


def _controlled_adjoint(control: int, op: Op) -> Op:
    """The op of a block that applies the adjoint of ``op`` when ``control``
    is 1 and the identity when it is 0, over the sorted support of both:
    the identity and ``op``'s conjugate transpose placed, entry for entry,
    on the control's two diagonal blocks."""
    targets, u = op
    support = tuple(sorted((*targets, control)))
    d, w = len(u), len(support)
    m = np.zeros((2, d, 2, d), dtype=complex)
    m[0, :, 0, :] = np.eye(d)
    m[1, :, 1, :] = u.conj().T
    # The control axis leads the rows and the columns; move it to its rank.
    p = support.index(control)
    m = np.moveaxis(m.reshape((2,) * (2 * w)), (0, w), (p, w + p))
    return support, m.reshape(2 * d, 2 * d)


def fuse(c: circuits.Circuit) -> FusedCircuit:
    """Compile a circuit into dense ops: one per block layer, and one per
    maximal run of elementary units whose union support fits in FUSE_WIDTH.

    A controlled block directly followed by a run that acts on exactly its
    targets, and whose sub-circuit undoes that run gate for gate
    (`_undoes`), takes its op from the run's: the identity on control 0
    and the run's adjoint on control 1 (`_controlled_adjoint`), built after
    the run's. Every other op is built by `block_unitary`. Only the layers
    are read, never the metadata.

    Widths are checked before anything is built: the circuit against
    DENSE_LIMIT, every op against DENSE_BLOCK_LIMIT.
    """
    check_dense_limit(c.n_qubits)
    runs: list[list[circuits.Layer]] = []
    supports: list[frozenset[int]] = []
    extendable = False  # the last run is elementary and may still grow
    for layer in c.layers:
        for unit in _fusion_units(layer):
            elementary = isinstance(unit, circuits.ElementaryLayer)
            if extendable and elementary and len(supports[-1] | unit.support) <= FUSE_WIDTH:
                runs[-1].append(unit)
                supports[-1] |= unit.support
            else:
                runs.append([unit])
                supports.append(unit.support)
            extendable = elementary
    for support in supports:
        check_block_width(len(support))
    # The runs whose op comes from the next run's.
    derived = {
        i for i, (run, nxt) in enumerate(zip(runs, runs[1:]))
        if isinstance(block := run[0], circuits.BlockLayer) and block.control is not None
        and isinstance(nxt[0], circuits.ElementaryLayer)
        and supports[i + 1] == frozenset(block.targets)
        and _undoes(block.circuit, block.targets, nxt)
    }
    ops = {i: block_unitary(*run) for i, run in enumerate(runs) if supports[i] and i not in derived}
    ops.update((i, _controlled_adjoint(runs[i][0].control, ops[i + 1])) for i in derived)
    built = [(run, ops[i]) for i, run in enumerate(runs) if i in ops]
    blocks = {run[0]: op for run, op in built if isinstance(run[0], circuits.BlockLayer)}
    return FusedCircuit(c.n_qubits, c.layers, c.registers, c.metadata,
                        tuple(op for _, op in built), blocks)


def apply_circuit(s: StateVector | str | Sequence[int], c: circuits.Circuit) -> StateVector:
    """Run the circuit's ops on a state, or on the basis state |s> for the
    bits ``s`` (first = qubit 0): each op is one multiply."""
    n = c.n_qubits
    s = s if isinstance(s, StateVector) else prepare_basis(n, s)
    if s.n_qubits != n:
        raise ValueError("circuit and state qubit counts differ")
    fused = c if isinstance(c, FusedCircuit) else fuse(c)
    arr = s.amplitudes.reshape((2,) * n)
    for support, u in fused.ops:
        arr = _apply_matrix(arr, u, support)
    return StateVector(n, arr.reshape(-1))


def _index_mask(qubit_mask: int, n: int) -> int:
    """Translate a qubit bitmask (bit i = qubit i) to an amplitude-index mask
    (qubit i = bit n-1-i): reverse the n low bits."""
    return int(format(qubit_mask, f"0{n}b")[::-1], 2)


def expectation(s: StateVector, o: PauliMap) -> float:
    """<s|O|s> for a Hermitian PauliMap; the imaginary residue is checked.

    One pass over the 2^n amplitudes per term, read from the masks: the x
    mask flips amplitude indices, the z mask's parity gives the sign, and
    each Y (x & z) contributes a factor i.
    """
    if o.n_qubits != s.n_qubits:
        raise ValueError("observable and state qubit counts differ")
    n = s.n_qubits
    amp = s.amplitudes
    idx = np.arange(2**n, dtype=np.uint64)
    total = 0.0 + 0.0j
    for x, z, coeff in zip(o.x.tolist(), o.z.tolist(), o.coeffs.tolist()):
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(_index_mask(z, n))) & 1).astype(float)
        flipped = (idx ^ np.uint64(_index_mask(x, n))).astype(np.int64)
        phase = 1j ** ((x & z).bit_count() % 4)
        total += coeff * phase * np.vdot(amp[flipped], signs * amp)
    if abs(total.imag) > _NORM_TOL:
        raise InvariantViolation(f"expectation has imaginary residue {total.imag}")
    return float(total.real)


def output_prob(c: circuits.Circuit, bits: str | Sequence[int]) -> float:
    """Pr[first qubit measures 1] after running the circuit on |bits, 0...0>.

    ``bits`` addresses the circuit's input register (the ``main`` register
    when declared, otherwise all qubits); remaining qubits start at 0. Pass
    a `FusedCircuit` to run many inputs through one compiled circuit.

    The first op's support splits into K, the qubits a later op touches
    plus qubit 0, and the spectators S, which no later op touches. When
    |K| < |S| the spectators are summed out: the first op's output column,
    as a 2^|K| x 2^|S| matrix C, gives the Gram matrix G = C C^dag, the
    later ops, renumbered onto the n - |S| kept qubits, multiply the 2^|K|
    basis kets |bits, k> of those, and Pr = Re sum G[k, k'] <h_k'|h_k>
    with h_k the qubit-0 = 1 half of ket k's output. That costs 2^|K| runs
    of 2^(n - |S|) amplitudes in place of one of 2^n, so it is taken only
    when |K| < |S|; otherwise the whole state runs. A ket norm or an
    imaginary residue off by more than `_NORM_TOL` raises InvariantViolation.
    """
    fused = c if isinstance(c, FusedCircuit) else fuse(c)
    n = c.n_qubits
    full = circuits.bit_values(c.full_input(bits))
    k_qubits: list[int] = []
    spectators: list[int] = []
    if fused.ops:
        (support, u), later = fused.ops[0], fused.ops[1:]
        touched = {0}.union(*(s for s, _ in later))
        for q in support:
            (k_qubits if q in touched else spectators).append(q)
    if len(k_qubits) >= len(spectators):
        half = apply_circuit(full, fused).amplitudes[2 ** (n - 1) :]
        return float(np.real(np.vdot(half, half)))
    column = u[:, _bits_to_index([full[q] for q in support])].reshape((2,) * len(support))
    axes = [support.index(q) for q in (*k_qubits, *spectators)]
    cmat = column.transpose(axes).reshape(2 ** len(k_qubits), -1)
    gram = cmat @ cmat.conj().T
    # The later ops act on the kept qubits alone, renumbered in order (so
    # each support stays sorted and qubit 0 stays first).
    kept = [q for q in range(n) if q not in spectators]
    ops = [(tuple([kept.index(q) for q in s]), v) for s, v in later]
    kets = []
    for k in range(2 ** len(k_qubits)):
        at = {q: k >> (len(k_qubits) - 1 - j) & 1 for j, q in enumerate(k_qubits)}
        arr = np.zeros((2,) * len(kept), dtype=complex)
        arr[tuple([at.get(q, full[q]) for q in kept])] = 1.0
        for s, v in ops:
            arr = _apply_matrix(arr, v, s)
        kets.append(arr.reshape(-1))
    # Written so that a NaN norm fails.
    off = np.abs(np.linalg.norm(kets, axis=1) - 1.0)
    if not (off <= _NORM_TOL).all():
        raise InvariantViolation(f"an output ket's norm deviates from 1 by {off.max()}")
    h = np.array(kets)[:, 2 ** (len(kept) - 1) :]
    # sum_k' <h_k'| sum_k G[k, k'] h_k>, the rows of G^T @ h.
    total = np.vdot(h, gram.T @ h)
    if abs(total.imag) > _NORM_TOL:
        raise InvariantViolation(f"output probability has imaginary residue {total.imag}")
    return float(total.real)
