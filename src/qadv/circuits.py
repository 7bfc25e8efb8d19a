"""Circuit IR, Haar-random brickwork, amplified majority-vote constructions,
and circuit-file serialization.

A circuit is an ordered list of layers. A layer is either a set of disjoint
elementary gates or a composite block (a sub-circuit placed on a target
register, optionally controlled by one qubit) that downstream consumers
treat as a single atomic step.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SchemaError, field, read_json, typed
from .pauli import check_unitary

CIRCUIT_FORMAT_VERSION = 1
ENDIANNESS = "q1-msb"  # the first qubit is the most significant amplitude bit

_SQ2 = 1.0 / math.sqrt(2.0)

FIXED_GATES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}

_SELF_ADJOINT = {"I", "X", "Y", "Z", "H", "CNOT", "CZ", "SWAP"}


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


PARAM_GATES = {"RX": _rx, "RY": _ry, "RZ": _rz}


_BIT_VALUE = {"0": 0, "1": 1, 0: 0, 1: 1}


def bit_values(bits: str | Sequence[int]) -> list[int]:
    """The entries of a bitstring or bit sequence as ints; ValueError on
    any character or entry other than 0 and 1."""
    try:
        return [_BIT_VALUE[b] for b in bits]
    except (KeyError, TypeError):
        raise ValueError(f"bits must be 0s and 1s, got {bits!r}") from None


def _qubits(qubits, what: str) -> tuple[int, ...]:
    """`qubits` as a tuple of ints: numpy integers become ints, and anything
    else that is not an int (a bool, a float) is refused."""
    qubits = tuple(qubits)
    if any(type(q) is not int for q in qubits):
        if not all(isinstance(q, np.integer) or type(q) is int for q in qubits):
            raise ValueError(f"{what} must be integers, got {qubits}")
        qubits = tuple(map(int, qubits))
    return qubits


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate: a named gate, an explicit 1-3 qubit unitary, or a
    classical-reversible basis permutation of arbitrary width.

    A matrix is checked for unitarity here, unless ``_stack_checked`` says
    that it was already checked: as part of one stacked `check_unitary`
    call (`random_brickwork`), or as the adjoint of a checked matrix
    (`Gate.adjoint`)."""

    kind: str
    targets: tuple[int, ...]
    param: float | None = None
    matrix: np.ndarray | None = None
    perm: tuple[int, ...] | None = None
    _stack_checked: dataclasses.InitVar[bool] = False

    def __post_init__(self, _stack_checked: bool) -> None:
        object.__setattr__(self, "targets", _qubits(self.targets, "gate targets"))
        w = len(self.targets)
        if len(set(self.targets)) != w or w == 0:
            raise ValueError("gate targets must be distinct and nonempty")
        if self.kind == "matrix":
            if self.matrix is None:
                raise ValueError("matrix gate needs a matrix")
            if w > 3:
                raise ValueError("explicit matrices are limited to 3 qubits")
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (2**w, 2**w):
                raise ValueError("matrix size does not match target count")
            if not _stack_checked:
                check_unitary(m)
            object.__setattr__(self, "matrix", m)
        elif self.kind == "perm":
            if self.perm is None:
                raise ValueError("perm gate needs a permutation")
            perm = tuple(int(p) for p in self.perm)
            if sorted(perm) != list(range(2**w)):
                raise ValueError("perm must be a bijection over basis states")
            object.__setattr__(self, "perm", perm)
        elif self.kind in FIXED_GATES:
            if w != FIXED_GATES[self.kind].shape[0].bit_length() - 1:
                raise ValueError(f"{self.kind} expects a different target count")
        elif self.kind in PARAM_GATES:
            if self.param is None:
                raise ValueError(f"{self.kind} needs an angle parameter")
            if not math.isfinite(self.param):
                raise ValueError(f"{self.kind} angle must be finite, got {self.param}")
            if w != 1:
                raise ValueError(f"{self.kind} acts on one qubit")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")

    def unitary(self) -> np.ndarray:
        if self.kind == "matrix":
            return self.matrix
        if self.kind == "perm":
            u = np.zeros((len(self.perm), len(self.perm)), dtype=complex)
            for j, pj in enumerate(self.perm):
                u[pj, j] = 1.0
            return u
        if self.kind in PARAM_GATES:
            return PARAM_GATES[self.kind](self.param)
        return FIXED_GATES[self.kind]

    def adjoint(self) -> "Gate":
        if self.kind in _SELF_ADJOINT:
            return self
        if self.kind == "S":
            return Gate("SDG", self.targets)
        if self.kind == "SDG":
            return Gate("S", self.targets)
        if self.kind in PARAM_GATES:
            return Gate(self.kind, self.targets, param=-self.param)
        if self.kind == "perm":
            inv = [0] * len(self.perm)
            for j, pj in enumerate(self.perm):
                inv[pj] = j
            return Gate("perm", self.targets, perm=tuple(inv))
        # U^dag U - I and U U^dag - I have the same singular values, so the
        # check this gate's matrix passed covers its adjoint.
        return Gate("matrix", self.targets, matrix=self.matrix.conj().T, _stack_checked=True)


@dataclass(frozen=True, eq=False)
class ElementaryLayer:
    """Gates on disjoint targets, applied together. ``support``, the union
    of their targets, is set once at construction by the overlap check."""

    gates: tuple[Gate, ...]
    support: frozenset[int] = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        seen: set[int] = set()
        for g in self.gates:
            if not seen.isdisjoint(g.targets):
                raise ValueError("overlapping gate supports in one layer")
            seen.update(g.targets)
        object.__setattr__(self, "support", frozenset(seen))


@dataclass(frozen=True, eq=False)
class BlockLayer:
    """A sub-circuit placed on `targets`, applied when `control` is |1> (or
    unconditionally when control is None). Treated as one atomic step.
    ``support``, the targets plus the control, is set once at construction
    by the checks."""

    name: str
    circuit: "Circuit"
    targets: tuple[int, ...]
    control: int | None = None
    support: frozenset[int] = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", _qubits(self.targets, "block targets"))
        if self.control is not None:
            object.__setattr__(self, "control", _qubits((self.control,), "block control")[0])
        support = frozenset(self.targets)
        if len(support) != len(self.targets):
            raise ValueError("block targets must be distinct")
        if self.circuit.n_qubits != len(self.targets):
            raise ValueError("block target count must match sub-circuit width")
        if self.control is not None:
            if self.control in support:
                raise ValueError("control qubit cannot be a block target")
            support |= {self.control}
        object.__setattr__(self, "support", support)


Layer = ElementaryLayer | BlockLayer


@dataclass(frozen=True, eq=False)
class Circuit:
    n_qubits: int
    layers: tuple[Layer, ...] = ()
    registers: dict[str, tuple[int, int]] = dataclasses.field(default_factory=dict)
    metadata: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        for layer in self.layers:
            bad = [q for q in layer.support if not 0 <= q < self.n_qubits]
            if bad:
                raise ValueError(f"layer touches out-of-range qubits {bad}")
        if self.registers:
            covered: list[int] = []
            for name, (lo, hi) in self.registers.items():
                if not 0 <= lo <= hi < self.n_qubits:
                    raise ValueError(f"register {name!r} out of range")
                covered.extend(range(lo, hi + 1))
            # The length first: a huge n_qubits must not build its range.
            if len(covered) != self.n_qubits or sorted(covered) != list(range(self.n_qubits)):
                raise ValueError("declared registers must partition the qubits")

    def input_register(self) -> tuple[int, int]:
        if "main" in self.registers:
            return self.registers["main"]
        return (0, self.n_qubits - 1)

    def full_input(self, bits: str | Sequence[int]) -> str:
        """The full-width bitstring of |bits, 0...0>: ``bits`` on the input
        register, 0 on every other qubit."""
        lo, hi = self.input_register()
        values = bit_values(bits)
        if len(values) != hi - lo + 1:
            raise ValueError("input length must match the input register")
        return "0" * lo + "".join(map(str, values)) + "0" * (self.n_qubits - 1 - hi)

    def inverse(self) -> "Circuit":
        """Layer-wise inverse, each gate its `Gate.adjoint`; only defined
        for elementary layers."""
        layers = self.layers[::-1]
        if not all(isinstance(layer, ElementaryLayer) for layer in layers):
            raise ValueError("inverse is only supported for elementary layers")
        return Circuit(self.n_qubits, tuple(
            ElementaryLayer(tuple(g.adjoint() for g in layer.gates)) for layer in layers))


# ---------------------------------------------------------------------------
# Random circuit generation


def ginibre_two_qubit(rng: np.random.Generator, count: int) -> np.ndarray:
    """A ``(count, 4, 4)`` stack of complex Ginibre matrices, the input of
    `haar_from_ginibre`. One draw of 16 real then 16 imaginary normals per
    matrix serves the stack: the same stream as ``count`` one-matrix
    draws."""
    g = rng.standard_normal((count, 2, 4, 4))
    z = np.empty((count, 4, 4), dtype=complex)
    z.real = g[:, 0]
    z.imag = g[:, 1]
    z *= _SQ2
    return z


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """The Haar unitaries of a ``(..., 4, 4)`` stack of Ginibre matrices,
    made in place in ``z``, which is returned.

    Classical Gram-Schmidt, run twice over each column, orthonormalizes the
    four columns of every matrix. It leaves R with a positive real
    diagonal, so Q is Haar as it stands, with no phase fix (Mezzadri, Notices
    AMS 54, 592, 2007), and the second pass brings the columns to
    orthonormal within rounding ("twice is enough": Giraud, Langou &
    Rozloznik, Comput. Math. Appl. 50, 1069, 2005). Every dot product and
    norm is elementwise multiply-adds over the rows in order, not BLAS or
    a reduction, so a matrix comes out with the same bytes in any stack. A
    column that falls to exactly zero, as a zero column does, comes out
    NaN, and so do the columns after it; `pauli.check_unitary` refuses
    them."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(4):
            v, q = z[..., j], z[..., :j]
            for _ in range(2 if j else 0):
                # p[..., i] = <q_i, v> for every i < j, all taken before any
                # is subtracted.
                p = q[..., 0, :].conj() * v[..., 0, None]
                for k in range(1, 4):
                    p += q[..., k, :].conj() * v[..., k, None]
                for i in range(j):
                    v -= q[..., i] * p[..., i, None]
            s = np.square(v.real) + np.square(v.imag)
            v *= (1.0 / np.sqrt(s[..., 0] + s[..., 1] + s[..., 2] + s[..., 3]))[..., None]
    return z


def haar_two_qubit(rng: np.random.Generator, count: int) -> np.ndarray:
    """A ``(count, 4, 4)`` stack of Haar unitaries: `haar_from_ginibre` of
    ``ginibre_two_qubit(rng, count)``."""
    return haar_from_ginibre(ginibre_two_qubit(rng, count))


def _layer_pairs(n: int, layer_idx: int) -> list[tuple[int, int]]:
    offset = layer_idx % 2
    pairs = [(i, i + 1) for i in range(offset, n - 1, 2)]
    if offset == 1 and n % 2 == 0:
        pairs.append((n - 1, 0))
    return pairs


def random_brickwork(
    n: int,
    layers: int,
    seed: int | np.random.SeedSequence | None = None,
) -> Circuit:
    """Brickwork of fresh Haar two-qubit gates; deterministic for fixed seed.

    Even n is covered completely each layer (the shifted layer wraps
    around); odd n leaves one qubit idle per layer. The whole Haar stack is
    checked for unitarity once, in one `check_unitary` call, and its gates
    skip the per-matrix check.
    """
    if n < 2:
        raise ValueError("brickwork needs at least 2 qubits")
    if layers < 0:
        raise ValueError("brickwork depth must be nonnegative")
    # One draw for the whole circuit, n // 2 gates a layer, handed out to
    # the layers in order. Drawn first, so that a depth no memory can hold
    # fails in numpy before any per-layer list grows; a depth whose draw
    # (256 bytes a gate) no array can index is refused here.
    count = n // 2 * layers
    if count > np.iinfo(np.intp).max // 256:
        raise ValueError(f"brickwork depth {layers} needs {count} two-qubit gates, "
                         "more than one numpy array can hold")
    stack = haar_two_qubit(np.random.default_rng(seed), count)
    pairs = [_layer_pairs(n, j) for j in range(layers)]
    # Unitary by construction (Gram-Schmidt): the check guards, not filters.
    check_unitary(stack)
    matrices = iter(stack)
    out = [
        ElementaryLayer(tuple(Gate("matrix", ab, matrix=next(matrices), _stack_checked=True)
                              for ab in layer))
        for layer in pairs
    ]
    meta = {"generator": "brickwork", "seed": _seed_repr(seed), "pairing": "brick"}
    return Circuit(n, tuple(out), registers={"main": (0, n - 1)}, metadata=meta)


def _seed_repr(seed) -> int | list | None:
    if isinstance(seed, np.random.SeedSequence):
        return list(seed.entropy) if isinstance(seed.entropy, (list, tuple)) else seed.entropy
    if isinstance(seed, np.integer):
        return int(seed)
    return seed


# ---------------------------------------------------------------------------
# Amplified majority-vote construction


def majority_gate(vote_qubits: Sequence[int], out_qubit: int) -> Gate:
    """Reversible gate flipping `out_qubit` iff the majority of the vote
    qubits is 1; realized as one basis permutation over all of them."""
    votes = tuple(vote_qubits)
    ell = len(votes)
    if ell % 2 == 0:
        raise ValueError("majority needs an odd number of voters")
    perm = []
    for j in range(2 ** (ell + 1)):
        v, q = j >> 1, j & 1
        if v.bit_count() > ell // 2:
            q ^= 1
        perm.append((v << 1) | q)
    return Gate("perm", (*votes, out_qubit), perm=tuple(perm))


def amplify(c_q: Circuit, copies: int) -> Circuit:
    """Run `copies` independent copies of c_q and coherently majority-vote
    their first qubits into a fresh ancilla (the last qubit)."""
    if copies < 1 or copies % 2 == 0:
        raise ValueError("copies must be odd so the majority is well-defined")
    m = c_q.n_qubits
    width = m * copies + 1
    q_maj = width - 1
    layers: list[Layer] = [
        BlockLayer(f"copy{i}", c_q, tuple(range(i * m, (i + 1) * m)))
        for i in range(copies)
    ]
    layers.append(ElementaryLayer((majority_gate([i * m for i in range(copies)], q_maj),)))
    registers = {"copies": (0, m * copies - 1), "q_maj": (q_maj, q_maj)}
    meta = {"generator": "amplify", "copies": copies, "m": m}
    return Circuit(width, tuple(layers), registers=registers, metadata=meta)


def default_depth(width: int) -> int:
    """Sufficient random-circuit depth for the advantage construction."""
    return 6 * width


def build_cnew(
    c_q: Circuit,
    n: int,
    depth: int | None = None,
    copies: int = 3,
    seed: int | np.random.SeedSequence | None = None,
) -> Circuit:
    """The detection circuit: amplified promise circuit on ancillas, an
    inverse random circuit on the main register controlled by the majority
    qubit, then the same random circuit applied openly.

    Width is n + m*copies + 1. The same seed generates both the controlled
    inverse and the trailing open layers, so on a firing control they cancel.
    """
    m = c_q.n_qubits
    width = n + m * copies + 1
    if depth is None:
        depth = default_depth(width)
    cext = amplify(c_q, copies)
    bw = random_brickwork(n, depth, seed)
    q_maj = width - 1
    layers: tuple[Layer, ...] = (
        BlockLayer("c_ext", cext, tuple(range(n, width))),
        BlockLayer("ctrl_inverse", bw.inverse(), tuple(range(n)), control=q_maj),
        *bw.layers,
    )
    registers = {
        "main": (0, n - 1),
        "ancilla": (n, width - 2),
        "q_maj": (q_maj, q_maj),
    }
    meta = {
        "generator": "cnew",
        "seed": _seed_repr(seed),
        "n": n,
        "m": m,
        "copies": copies,
        "depth": depth,
    }
    return Circuit(width, layers, registers=registers, metadata=meta)


# ---------------------------------------------------------------------------
# Promise-instance library


def promise_instance(kind: str, m: int, angle: float | None = None) -> tuple[Circuit, float]:
    """A labeled-success circuit on m qubits and its exact probability of
    measuring 1 on the first qubit from |0^m>.

    Kinds: "x" (probability 1), "identity" (0), "ry" (sin^2(angle/2)).
    """
    if kind == "x":
        gates = (Gate("X", (0,)),)
        prob = 1.0
    elif kind == "identity":
        gates = (Gate("I", (0,)),)
        prob = 0.0
    elif kind == "ry":
        if angle is None:
            raise ValueError("ry instance needs an angle")
        gates = (Gate("RY", (0,), param=float(angle)),)
        prob = math.sin(angle / 2) ** 2
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    meta = {"generator": "promise_instance", "kind": kind, "angle": angle}
    return Circuit(m, (ElementaryLayer(gates),), metadata=meta), prob


# ---------------------------------------------------------------------------
# Serialization


def _gate_to_dict(g: Gate) -> dict:
    out: dict = {"kind": g.kind, "targets": list(g.targets)}
    if g.param is not None:
        out["param"] = g.param
    if g.matrix is not None:
        out["matrix"] = [[[float(v.real), float(v.imag)] for v in row] for row in g.matrix]
    if g.perm is not None:
        out["perm"] = list(g.perm)
    return out


def _layer_to_dict(layer: Layer) -> dict:
    if isinstance(layer, ElementaryLayer):
        return {"type": "elementary", "gates": [_gate_to_dict(g) for g in layer.gates]}
    out = {
        "type": "block",
        "name": layer.name,
        "targets": list(layer.targets),
        "circuit": serialize(layer.circuit),
    }
    if layer.control is not None:
        out["control"] = layer.control
    return out


def serialize(c: Circuit) -> dict:
    return {
        "version": CIRCUIT_FORMAT_VERSION,
        "n_qubits": c.n_qubits,
        "endianness": ENDIANNESS,
        "registers": {k: list(v) for k, v in c.registers.items()},
        "layers": [_layer_to_dict(l) for l in c.layers],
        "metadata": c.metadata,
    }


def serialize_json(c: Circuit) -> str:
    return json.dumps(serialize(c), indent=2, sort_keys=True)


@contextlib.contextmanager
def _at(path: str):
    """Report a constructor's ValueError as a SchemaError at ``path``."""
    try:
        yield
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _parse_gate(obj, path: str) -> Gate:
    obj = typed(obj, dict, path)
    rows = field(obj, "matrix", path, [[(float, float)]], None)
    with _at(path):
        return Gate(
            field(obj, "kind", path, str),
            field(obj, "targets", path, [int]),
            param=field(obj, "param", path, float, None),
            matrix=None if rows is None else [[complex(*e) for e in row] for row in rows],
            perm=field(obj, "perm", path, [int], None),
        )


def _parse_layer(obj, path: str) -> Layer:
    obj = typed(obj, dict, path)
    kind = field(obj, "type", path, str)
    with _at(path):
        if kind == "elementary":
            gates = field(obj, "gates", path, list)
            return ElementaryLayer(_parse_gate(g, f"{path}.gates[{i}]") for i, g in enumerate(gates))
        if kind == "block":
            return BlockLayer(
                field(obj, "name", path, str, "block"),
                _parse_circuit(field(obj, "circuit", path, dict), f"{path}.circuit"),
                field(obj, "targets", path, [int]),
                control=field(obj, "control", path, int, None),
            )
    raise SchemaError(f"{path}.type: expected 'elementary' or 'block', got {kind!r}")


def _parse_circuit(obj, path: str) -> Circuit:
    obj = typed(obj, dict, path)
    if field(obj, "version", path, int, CIRCUIT_FORMAT_VERSION) != CIRCUIT_FORMAT_VERSION:
        raise SchemaError(f"{path}.version: unsupported version {obj['version']}")
    if field(obj, "endianness", path, str, ENDIANNESS) != ENDIANNESS:
        raise SchemaError(f"{path}.endianness: expected {ENDIANNESS!r}")
    n_qubits = field(obj, "n_qubits", path, int)
    layers = field(obj, "layers", path, list)
    layers = tuple(_parse_layer(l, f"{path}.layers[{i}]") for i, l in enumerate(layers))
    spans = field(obj, "registers", path, dict, {})
    registers = {k: typed(v, (int, int), f"{path}.registers.{k}") for k, v in spans.items()}
    with _at(path):
        return Circuit(n_qubits, layers, registers, field(obj, "metadata", path, dict, {}))


def deserialize(data: dict) -> Circuit:
    """The inverse of `serialize`; a file is read through `load_circuit`."""
    return _parse_circuit(data, "$")


def load_circuit(path: str) -> Circuit:
    return deserialize(read_json(path, "circuit"))


def save_circuit(c: Circuit, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_json(c))
        fh.write("\n")
