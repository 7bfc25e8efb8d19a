"""Exact dense statevector simulator, the oracle side of every comparison.

Amplitude indexing is big-endian: qubit 0 is the most significant bit of
the index, so ``prepare_basis(2, "10")`` puts the amplitude at index 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import circuits
from .errors import InvariantViolation, ResourceLimitExceeded
from .pauli import PauliMap

#: Widest system simulated densely; every acceptance experiment fits in 14.
DENSE_LIMIT = 16

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


def _bits_to_index(bits: str | Sequence[int]) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def _check_dense_limit(n_qubits: int) -> None:
    if n_qubits > DENSE_LIMIT:
        raise ResourceLimitExceeded(f"{n_qubits} qubits exceeds dense limit {DENSE_LIMIT}")


def prepare_basis(n_qubits: int, bits: str | Sequence[int]) -> StateVector:
    """Computational basis state |bits>, first character = qubit 0."""
    if len(bits) != n_qubits:
        raise ValueError("bitstring length must equal qubit count")
    # Refuse before allocating the 2^n amplitudes.
    _check_dense_limit(n_qubits)
    amp = np.zeros(2**n_qubits, dtype=complex)
    amp[_bits_to_index(bits)] = 1.0
    return StateVector(n_qubits, amp)


#: Qubit -> array axis, a list indexed by qubit or a dict keyed by qubit.
AxisMap = Mapping[int, int] | Sequence[int]


def _apply_gate(arr: np.ndarray, gate: circuits.Gate, axis_map: AxisMap) -> np.ndarray:
    """Move the target axes to the front, flatten them to 2^w rows (first
    target most significant), multiply or permute the rows, and move the
    axes back."""
    axes = [axis_map[t] for t in gate.targets]
    w = len(axes)
    moved = np.moveaxis(arr, axes, range(w))
    rows = moved.reshape(2**w, -1)
    if gate.kind == "perm":
        out = np.empty_like(rows)
        out[list(gate.perm)] = rows
    else:
        out = gate.unitary() @ rows
    return np.moveaxis(out.reshape(moved.shape), range(w), axes)


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


def apply_circuit(s: StateVector, c: circuits.Circuit) -> StateVector:
    if c.n_qubits != s.n_qubits:
        raise ValueError("circuit and state qubit counts differ")
    _check_dense_limit(c.n_qubits)
    arr = s.amplitudes.reshape((2,) * s.n_qubits)
    arr = _apply_layers(arr, c.layers, list(range(s.n_qubits)))
    return StateVector(s.n_qubits, arr.reshape(-1))


def _index_mask(qubit_mask: int, n: int) -> int:
    """Translate a qubit bitmask (bit i = qubit i) to an amplitude-index mask."""
    out = 0
    for q in range(n):
        if (qubit_mask >> q) & 1:
            out |= 1 << (n - 1 - q)
    return out


def expectation(s: StateVector, o: PauliMap) -> float:
    """<s|O|s> for a Hermitian PauliMap; the imaginary residue is checked."""
    if o.n_qubits != s.n_qubits:
        raise ValueError("observable and state qubit counts differ")
    n = s.n_qubits
    amp = s.amplitudes
    idx = np.arange(2**n, dtype=np.uint64)
    total = 0.0 + 0.0j
    for p, coeff in o.terms.items():
        xm = _index_mask(p.x, n)
        zm = _index_mask(p.z, n)
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(zm)) & 1).astype(float)
        flipped = (idx ^ np.uint64(xm)).astype(np.int64)
        phase = 1j ** ((p.x & p.z).bit_count() % 4)
        total += coeff * phase * np.vdot(amp[flipped], signs * amp)
    if abs(total.imag) > _NORM_TOL:
        raise InvariantViolation(f"expectation has imaginary residue {total.imag}")
    return float(total.real)


def first_qubit_one_probability(s: StateVector) -> float:
    half = s.amplitudes[2 ** (s.n_qubits - 1) :]
    return float(np.real(np.vdot(half, half)))


def output_prob(c: circuits.Circuit, bits: str | Sequence[int]) -> float:
    """Pr[first qubit measures 1] after running the circuit on |bits, 0...0>.

    ``bits`` addresses the circuit's input register (the ``main`` register
    when declared, otherwise all qubits); remaining qubits start at 0.
    """
    out = apply_circuit(prepare_basis(c.n_qubits, c.full_input(bits)), c)
    return first_qubit_one_probability(out)
