"""Pauli-string algebra on (x, z) bitmask pairs.

Conventions used throughout the package:

- Qubits are indexed 0..n-1. Qubit 0 is "the first qubit" and is the most
  significant bit of a statevector amplitude index.
- A Pauli term is a pair of integer bitmasks (x, z); bit i refers to
  qubit i. Qubit i carries X iff the x-bit is set, Z iff the z-bit is set,
  Y iff both, I iff neither. Each site holds the Hermitian Pauli with phase
  +1 (Y itself, not XZ), so Hermitian operators expand with real
  coefficients and conjugation by any unitary keeps them real.
- A PauliMap holds its terms in three parallel numpy arrays: x-masks and
  z-masks as uint64 and float64 coefficients. These masks are the only
  form the library computes on. One uint64 word per mask limits a PauliMap
  to 64 qubits; a wider one raises ResourceLimitExceeded.
- Labels are the human-facing form: ``PauliMap.from_labels`` and
  ``to_labels`` convert ``{"XIZ": 0.5, ...}`` to and from masks; letter i
  of a label acts on qubit i. ``PauliString`` and ``PauliMap.terms`` (a new
  dict on each call) remain only for external callers, such as the
  benchmark, that key a map by ``PauliString(n, x, z)``.
- Gate-local Pauli operators are indexed in base 4 with digits
  0=I, 1=X, 2=Y, 3=Z and the gate's first target as the most significant
  digit, matching the Kronecker order of the gate matrix.
- ``conjugate_layer`` (gates of up to 3 qubits, through their transfer
  matrices) and ``conjugate_dense`` (one unitary, by dense conjugation)
  share one group-and-scatter step and differ only in how a row of local
  coefficients spreads. Both refuse repeated and out-of-range targets. The
  step finds the terms a gate moves from their masks, gathers the local
  digits of those terms alone, and groups them with one argsort of a packed
  uint64 key (off-target x, off-target z); np.lexsort on the separate keys
  takes over when the key needs more than 64 bits (n > 32). It places the
  outputs' target digits from a table of at most 64 masks per three
  targets. ``conjugate_layer`` steps Clifford gates without it: such a
  gate maps each Pauli string to one signed Pauli string, so its transfer
  matrix, whose 4^w rows are orthonormal and so never zero, has exactly
  4^w nonzero entries, and one ``np.count_nonzero`` tells it apart (the
  build's snap to zero lets rotations by multiples of pi/2 through). As in
  a stabilizer tableau (Aaronson & Gottesman, PRA 70, 052328, 2004), each
  matrix becomes a GF(2) map of its targets' x- and z-bits, and +-1 gates
  with equal matrices and target offsets step together in one pass of
  shifts and XORs over the mask arrays, a term's sign the parity of one
  ``np.bitwise_count``. In a Clifford run terms never move, and every
  output has the bytes and order of stepping gate by gate. A layer's other
  one-qubit gates step together, in rounds, before anything else: each
  round steps every term through its lowest gated qubit not yet stepped,
  by the row of its digit there in one (n, 4, 4) table of the layer's
  matrices, and merges equal children with `_group` and ``np.bincount``.
  This is the rotation step of sparse Pauli dynamics (Begusic, Gray &
  Chan, Sci. Adv. 10, eadk4321, 2024), taken a declared layer at a time; a
  layer takes at most as many rounds as its terms' largest weight, not one
  grouped step per gate, and sums in another order than that step.
- ``transfer_matrix`` builds one matrix or a stack, a fixed number of
  matrices at a time into one output, so its transient memory does not
  grow with the stack; the module keeps no cache, so a caller memoizes
  reused gates. ``weight_one_blocks`` builds, in the same loop, only the
  3w x 3w weight-1 block of each w-qubit matrix (w = 1..3), with the
  bytes of the full build sliced there: the one narrowed build that
  `propagation.weight_one_pass` needs. Decay steps its gates from their
  unitaries instead (`propagation.unitary_step`), since it uses each once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import InvariantViolation, ResourceLimitExceeded

# Hermitian single-qubit basis, indexed I=0, X=1, Y=2, Z=3.
PAULI_1Q = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_LABELS = "IXYZ"

#: Coefficients at or below this are dropped after each layer step: a guard
#: on memory that is also part of the truncation rule. It is fixed, not an
#: option, so the version names it: changing it is a new
#: ``manifest.ARTIFACT_VERSION``.
DROP_TOLERANCE = 1e-12

#: Widest PauliMap: each mask is one uint64 word.
MAX_QUBITS = 64

_UNITARITY_TOL = 1e-10
_HERMITICITY_TOL = 1e-10

#: Matrices per step of a stacked `transfer_matrix` build. A step's
#: temporaries take about 12.6 KiB per two-qubit matrix (16 times that per
#: three-qubit one), so a build holds its output plus this many of them.
#: Most of that forms the superoperators, which `weight_one_blocks` forms in
#: full too, so its step takes about as much; it saves in its products and
#: in its output of 9w^2 floats a matrix.
_TRANSFER_CHUNK = 16

#: The local indices of a w-qubit gate's weight-1 Paulis, one table per
#: width w = 1..3: X, Y and Z on its first target (the most significant
#: base-4 digit), then on its second, and so on.
_WEIGHT_ONE = {
    1: np.array([1, 2, 3]),
    2: np.array([4, 8, 12, 1, 2, 3]),
    3: np.array([16, 32, 48, 4, 8, 12, 1, 2, 3]),
}


class NonUnitaryError(ValueError):
    """Raised when a matrix fails the unitarity check."""


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator without phase, as its (x, z) masks: the
    key of ``PauliMap(n, {PauliString: coeff})`` and of ``PauliMap.terms``."""

    n_qubits: int
    x: int
    z: int

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        mask = (1 << self.n_qubits) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("bitmask exceeds n_qubits")

    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return (self.x | self.z).bit_count()


def _checked_arrays(n_qubits: int, x, z, coeffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The masks and coefficients as arrays, after the public checks: a
    width of 1..MAX_QUBITS and finite coefficients."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    if n_qubits > MAX_QUBITS:
        raise ResourceLimitExceeded(
            f"PauliMap on {n_qubits} qubits exceeds the {MAX_QUBITS}-qubit mask width"
        )
    coeffs = np.array([float(c) for c in coeffs], dtype=np.float64)
    if not np.isfinite(coeffs).all():
        raise ValueError("Pauli coefficients must be finite")
    return np.array(x, dtype=np.uint64), np.array(z, dtype=np.uint64), coeffs


class PauliMap:
    """A finite real-weighted sum of Pauli strings (a Hermitian observable).

    The terms are the parallel arrays ``x``, ``z`` (uint64 masks) and
    ``coeffs`` (float64); each (x, z) pair occurs at most once. Immutable
    after construction (the arrays are read-only); all operations return
    new maps. Zero coefficients are discarded; the conjugation kernels also
    discard those at or below ``DROP_TOLERANCE``.
    """

    __slots__ = ("n_qubits", "x", "z", "coeffs")

    def __init__(
        self,
        n_qubits: int,
        terms: Mapping[PauliString, float] | None = None,
    ) -> None:
        items = list((terms or {}).items())
        if any(p.n_qubits != n_qubits for p, _ in items):
            raise ValueError("term qubit count mismatch")
        x, z, coeffs = _checked_arrays(
            n_qubits, [p.x for p, _ in items], [p.z for p, _ in items], [c for _, c in items]
        )
        self._assign(n_qubits, x, z, coeffs, 0.0)

    def _assign(self, n_qubits, x, z, coeffs, threshold) -> None:
        keep = np.abs(coeffs) > threshold
        if not keep.all():
            x, z, coeffs = x[keep], z[keep], coeffs[keep]
        for a in (x, z, coeffs):
            a.flags.writeable = False
        self.n_qubits, self.x, self.z, self.coeffs = n_qubits, x, z, coeffs

    @classmethod
    def _from_arrays(
        cls,
        n_qubits: int,
        x: np.ndarray,
        z: np.ndarray,
        coeffs: np.ndarray,
        threshold: float = 0.0,
    ) -> "PauliMap":
        """Wrap arrays that already hold distinct (x, z) pairs, without
        copying or validating them; terms with |coefficient| at or below
        ``threshold`` are dropped."""
        m = object.__new__(cls)
        m._assign(n_qubits, x, z, coeffs, threshold)
        return m

    @classmethod
    def _from_masks(cls, n_qubits: int, x, z, coeffs) -> "PauliMap":
        """Build from sequences of distinct (x, z) mask pairs and their
        coefficients, with the checks of the public constructor."""
        return cls._from_arrays(n_qubits, *_checked_arrays(n_qubits, x, z, coeffs))

    @classmethod
    def from_labels(cls, terms: Mapping[str, float]) -> "PauliMap":
        """Parse ``{label: coeff}``, where letter q of a label (I, X, Y or Z)
        acts on qubit q; the inverse of `to_labels`."""
        if not terms:
            raise ValueError("from_labels needs at least one term")
        n = len(next(iter(terms)))
        xs, zs = [], []
        for label in terms:
            if len(label) != n:
                raise ValueError("term qubit count mismatch")
            x = z = 0
            for q, ch in enumerate(label):
                if ch not in _LABELS:
                    raise ValueError(f"unknown Pauli letter {ch!r}")
                x |= (ch in "XY") << q
                z |= (ch in "YZ") << q
            xs.append(x)
            zs.append(z)
        return cls._from_masks(n, xs, zs, terms.values())

    def to_labels(self) -> dict[str, float]:
        """The terms as ``{label: coeff}``; the inverse of `from_labels`."""
        qubits = range(self.n_qubits)
        return {
            "".join("IZXY"[2 * (x >> q & 1) | (z >> q & 1)] for q in qubits): c
            for x, z, c in zip(self.x.tolist(), self.z.tolist(), self.coeffs.tolist())
        }

    @property
    def terms(self) -> dict[PauliString, float]:
        """The terms as a new dict on each call. Not for hot loops."""
        n = self.n_qubits
        return {
            PauliString(n, x, z): c
            for x, z, c in zip(self.x.tolist(), self.z.tolist(), self.coeffs.tolist())
        }

    def frobenius_normalized(self) -> float:
        """Squared Pauli-2 norm: sum of squared coefficients = Tr[O^2]/2^n."""
        return float(self.coeffs @ self.coeffs)

    def project_weight(self, k: int) -> "PauliMap":
        """Keep only terms of weight <= k; coefficients unchanged."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        keep = np.bitwise_count(self.x | self.z) <= k
        return PauliMap._from_arrays(self.n_qubits, self.x[keep], self.z[keep], self.coeffs[keep])

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{l}: {c:+.6g}" for l, c in sorted(self.to_labels().items()))
        return f"PauliMap({self.n_qubits}, {{{inner}}})"


@functools.cache
def _basis(arity: int) -> np.ndarray:
    """All 4^arity Hermitian Pauli matrices, first qubit most significant.
    Only for transfer matrices (arity <= 3): the array holds 16^arity entries."""
    basis = PAULI_1Q
    for _ in range(arity - 1):
        basis = np.einsum("iab,jcd->ijacbd", basis, PAULI_1Q).reshape(
            basis.shape[0] * 4, basis.shape[1] * 2, basis.shape[1] * 2
        )
    return basis


def check_unitary(u: np.ndarray) -> None:
    """Raise NonUnitaryError unless ``u`` is one square unitary or a
    ``(g, d, d)`` stack of them (an empty stack passes)."""
    d = u.shape[-1]
    if u.ndim not in (2, 3) or u.shape[-2:] != (d, d):
        raise NonUnitaryError("matrix is not square")
    with np.errstate(invalid="ignore", over="ignore"):  # inf or NaN, refused below
        err = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(d)).max(initial=0.0)
    # Written so that a NaN deviation fails too.
    if not err <= _UNITARITY_TOL:
        raise NonUnitaryError("matrix is not unitary within tolerance")


def _transfer(u: np.ndarray, rows: dict[int, np.ndarray] | None) -> np.ndarray:
    """Transfer matrices of a w-qubit unitary or stack (w = 1..3),
    restricted on both axes to the local indices ``rows[w]``, or all of
    them when ``rows`` is None."""
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-1] not in (2, 4, 8) or u.shape[-2] != u.shape[-1]:
        raise ValueError("need a unitary on 1, 2 or 3 qubits, or a stack of them")
    check_unitary(u)
    d = u.shape[-1]
    w = d.bit_length() - 1
    flat = _basis(w).reshape(d * d, d * d)[slice(None) if rows is None else rows[w]]
    flat_h = flat.conj().T
    stack = u.reshape(-1, d, d)
    m = len(flat)
    out = np.empty((len(stack), m, m))
    for start in range(0, len(stack), _TRANSFER_CHUNK):
        part = stack[start:start + _TRANSFER_CHUNK]
        # Row a of the flattened basis is vec(P_a), and vec(P_a) kron(conj U,
        # U) is vec(U^dag P_a U) with its two indices swapped; the product
        # with conj(vec(P_b)) = vec(P_b^T) then sums to Tr(P_b U^dag P_a U).
        # The Kronecker product is formed by broadcasting, which is faster
        # than np.kron.
        superop = part.conj()[:, :, None, :, None] * part[:, None, :, None, :]
        raw = flat @ superop.reshape(len(part), d * d, d * d)
        del superop
        raw = raw @ flat_h
        raw /= d
        if np.abs(raw.imag).max() > _HERMITICITY_TOL:
            raise InvariantViolation("transfer matrix has nonreal entries")
        entries = out[start:start + len(part)]
        entries[...] = raw.real
        del raw
        # Snap trace-noise to exact zeros so structurally absent outputs are
        # skipped; the perturbation is far below the orthogonality tolerance.
        entries[np.abs(entries) < 1e-13] = 0.0
    return out.reshape(u.shape[:-2] + (m, m))


def transfer_matrix(u: np.ndarray) -> np.ndarray:
    """Real Pauli transfer matrix of a 1-3 qubit unitary, or the
    ``(g, 4^w, 4^w)`` stack of them for a ``(g, 2^w, 2^w)`` stack.

    entries[a, b] = Tr(P_b U^dag P_a U) / 2^w, so a row lists how the input
    Pauli P_a spreads over output Paulis under backward evolution. Rows are
    orthonormal (conjugation is an isometry of the Pauli basis) and the
    identity row is the identity unit row. A stack is built
    `_TRANSFER_CHUNK` matrices at a time into one preallocated output, so
    the build holds the output plus a fixed transient, however long the
    stack; each matrix comes out as its own one-matrix build.
    """
    return _transfer(u, None)


def weight_one_blocks(u: np.ndarray) -> np.ndarray:
    """The 3w x 3w weight-1 block of a w-qubit unitary's transfer matrix
    (w = 1..3), or the ``(g, 3w, 3w)`` stack of them for a ``(g, 2^w,
    2^w)`` stack: rows and columns X, Y, Z on the first target, then on the
    second, and so on (`_WEIGHT_ONE` of the width). Only those rows of the
    Pauli basis are contracted, in `transfer_matrix`'s chunked loop, and
    each block has the bytes of the full build sliced there on both axes."""
    return _transfer(u, _WEIGHT_ONE)


def _target_mask(n_qubits: int, targets: Sequence[int]) -> int:
    """Bitmask of ``targets``; raises ValueError unless they are distinct
    qubits of 0..n_qubits-1."""
    mask = 0
    for t in targets:
        if not 0 <= t < n_qubits:
            raise ValueError(f"gate target {t} out of range")
        if mask >> t & 1:
            raise ValueError(f"gate target {t} repeated")
        mask |= 1 << t
    return mask


def _gather_digits(
    x: np.ndarray, z: np.ndarray, targets: Sequence[int], rows: np.ndarray
) -> np.ndarray:
    """Flat index of every term in a ``(rows, 4^w)`` array: its row times
    4^w plus its base-4 local index on ``targets`` (first most
    significant)."""
    w = len(targets)
    # Digit bits: low = x xor z, high = z (I=00, X=01, Y=10, Z=11). The
    # masks are viewed as int64 to combine with the intp row numbers, as
    # uint64 with intp would promote to float.
    y, z = (x ^ z).view(np.int64), z.view(np.int64)
    a = rows << 2 * w
    for j, t in enumerate(targets):
        for v, p in ((y, 2 * (w - 1 - j)), (z, 2 * (w - 1 - j) + 1)):
            a |= (v >> t - p if t >= p else v << p - t) & (1 << p)
    return a


@functools.cache
def _digit_bits(width: int) -> np.ndarray:
    """The x and z bit of every digit of every local index on ``width``
    targets, first target most significant: a read-only ``(2, 4^width,
    width)`` uint64 array."""
    digits = np.array(list(np.ndindex(*(4,) * width)), dtype=np.uint64).reshape(-1, width)
    high = digits >> 1
    bits = np.stack(((digits & 1) ^ high, high))
    bits.flags.writeable = False
    return bits


def _mask_table(targets: Sequence[int]) -> np.ndarray:
    """The x- and z-masks of every local index on 1-3 ``targets``: a
    ``(2, 4^w)`` uint64 array."""
    return _digit_bits(len(targets)) @ np.array([1 << t for t in targets], dtype=np.uint64)


def _scatter_digits(b: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """The x- and z-masks, as one ``(2, len(b))`` array, of the local
    indices ``b`` placed on ``targets``: looked up three targets (six bits
    of ``b``) at a time in a `_mask_table` of at most 64 entries."""
    w = len(targets)
    if w <= 3:
        return _mask_table(targets).take(b, axis=1)
    xz = 0
    for end in range(w, 0, -3):
        # The digits of targets[end-3:end] are bits 2(w-end) to 2(w-end)+5
        # of b; the first targets' are its top bits, so b < 4^w masks them.
        part = _mask_table(targets[max(end - 3, 0):end])
        xz = xz | part.take(b >> 2 * (w - end) & 63, axis=1)
    return xz


def _group(
    rest_x: np.ndarray, rest_z: np.ndarray, n_qubits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct (rest_x, rest_z) pairs in sorted order. Returns
    each term's group and the index of one term of every group.

    The pair is sorted as one packed uint64 key when its 2n bits fit in 64,
    and by np.lexsort on the separate keys otherwise; both give the same
    numbering.
    """
    if 2 * n_qubits <= 64:
        key = rest_x << n_qubits | rest_z
        order = key.argsort()
        key = key[order]
        starts = np.empty(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=starts[1:])
    else:
        keys = (rest_z, rest_x)
        order = np.lexsort(keys)
        starts = np.zeros(len(order), dtype=bool)
        for k in keys:
            k = k[order]
            starts[1:] |= k[1:] != k[:-1]
    starts[0] = True
    first = order[starts]
    starts[0] = False  # so that the running count numbers groups from 0
    group = np.empty(len(order), dtype=np.intp)
    group[order] = starts.cumsum()
    return group, first


def _conjugate_terms(
    x: np.ndarray,
    z: np.ndarray,
    c: np.ndarray,
    n_qubits: int,
    targets: Sequence[int],
    tmask: int,
    spread_rows: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward-evolve the terms through one unitary on ``targets``;
    ``tmask`` is their `_target_mask`.

    Terms that are the identity on the targets pass through. The others are
    grouped by their off-target part; each group's coefficients over the
    local indices form one row of a (groups, 4^w) array, and
    ``spread_rows(rows)`` maps the rows to the coefficients of the
    non-identity local outputs (columns 1..4^w-1), summing every collision.
    A unitary preserves the trace, so a term that is not the identity on the
    targets never maps onto one that is: the identity output is rounding
    noise and is not kept, and no new term can coincide with a passing one.
    The passing terms come out first, in their order, then the new terms by
    group.
    """
    hit = (x | z) & np.uint64(tmask)
    moving = hit.nonzero()[0]
    if not len(moving):
        return x, z, c
    off = ~np.uint64(tmask)
    mx, mz = x[moving], z[moving]
    rest_x, rest_z = mx & off, mz & off
    group, first = _group(rest_x, rest_z, n_qubits)
    width = 4 ** len(targets)
    local = np.zeros((len(first), width))
    local.reshape(-1)[_gather_digits(mx, mz, targets, group)] = c[moving]
    spread = spread_rows(local)
    flat = spread.reshape(-1).nonzero()[0]
    g = flat // (width - 1)
    xz = _scatter_digits(flat % (width - 1) + 1, targets)
    stay = (hit == 0).nonzero()[0]
    x = np.concatenate((x[stay], rest_x[first][g] | xz[0]))
    z = np.concatenate((z[stay], rest_z[first][g] | xz[1]))
    c = np.concatenate((c[stay], spread.reshape(-1)[flat]))
    return x, z, c


def _rounds(x, z, c, n_qubits: int, gated: int, table: np.ndarray):
    """Step the terms through one-qubit gates on the bits of ``gated``,
    qubit q's transfer matrix at ``table[q]``, in rounds.

    A one-qubit gate maps a non-identity Pauli only to non-identity ones
    (column 0 of rows 1..3 is zero, so it is not read), so the gated qubits
    a term touches, its hits, never change. In each round every live term
    steps through its lowest unstepped hit: the nonzero entries of its
    digit's row there give at most 3 children, and children with equal
    masks, which have equal hits and so have stepped through the same ones,
    merge by `_group` with their coefficients summed in child order. A term
    with no hit left is done. Equal masks never meet across rounds or with
    a term without hits, so the terms without hits come out first, in their
    order, then the done terms by round, each round's in sorted order.
    """
    hits = (x | z) & np.uint64(gated)
    live = hits.nonzero()[0]
    if not len(live):
        return x, z, c
    stay = (hits == 0).nonzero()[0]
    out = [(x[stay], z[stay], c[stay])]
    x, z, c, hits = x[live], z[live], c[live], hits[live]
    # Row 4q + d holds columns 1..3 of qubit q's row for digit d.
    cols = table[:, :, 1:].reshape(-1, 3)
    while len(x):
        low = hits & ~hits + np.uint64(1)
        q = np.bitwise_count(low - np.uint64(1))
        digit = (x ^ z) >> q & 1 | (z >> q & 1) << 1
        rows = cols[q.astype(np.intp) << 2 | digit.view(np.intp)]
        flat = rows.reshape(-1).nonzero()[0]
        # Child b of a term is X, Y or Z (b = 0, 1, 2) at its qubit.
        i, b = np.divmod(flat, 3)
        low = low[i]
        off = ~low
        x, z, hits = x[i] & off | low * (b < 2), z[i] & off | low * (b > 0), hits[i] & off
        group, first = _group(x, z, n_qubits)
        c = np.bincount(group, weights=c[i] * rows.reshape(-1)[flat])
        x, z, hits = x[first], z[first], hits[first]
        done = hits == 0
        if done.any():
            d, keep = done.nonzero()[0], (~done).nonzero()[0]
            out.append((x[d], z[d], c[d]))
            x, z, c, hits = x[keep], z[keep], c[keep], hits[keep]
    return tuple(np.concatenate(a) for a in zip(*out))


def _clifford_rule(entries: np.ndarray) -> tuple[list, np.ndarray | None, list | None]:
    """A Clifford gate's transfer matrix as a GF(2) map of the 2w bits of a
    local Pauli, the x-bit of target j at bit 2(w-1-j) and its z-bit above.

    Returns the map's rows (for each output bit, the input bits whose
    images set it) and then either the entry at each bit pattern, or, when
    every entry but the identity's is exactly +-1, the sign's algebraic
    normal form: the patterns whose bit products XOR to 1 where the entry
    is -1. The identity's entry never counts, as no step multiplies by it.
    Raises InvariantViolation unless the map is linear on all 4^w patterns.
    """
    d = len(entries)
    nonzero = entries.nonzero()
    # A local index's digit bits (x xor z, z) and its pattern (x, z) turn
    # into each other by one XOR of each high bit into the low bit below.
    swap = [a ^ (a >> 1 & (d - 1) // 3) for a in range(d)]
    cols = nonzero[1].tolist()
    image = [swap[cols[a]] for a in swap]
    bits = d.bit_length() - 1
    units = [image[1 << k] for k in range(bits)]
    span = [0]
    for u in units:
        span += [s ^ u for s in span]
    if span != image:
        raise InvariantViolation("Clifford transfer matrix is not linear on the Pauli bits")
    rows = [[i for i, u in enumerate(units) if u >> k & 1] for k in range(bits)]
    entry = entries[nonzero].tolist()
    entry = [entry[a] for a in swap]
    if any(abs(e) != 1.0 for e in entry[1:]):
        return rows, np.array(entry), None
    # The sign's truth table, one bit per pattern, and its Moebius
    # transform: each variable's 0 half folded into its 1 half.
    anf = sum(1 << v for v in range(1, d) if entry[v] < 0)
    for k in range(bits):
        low = ((1 << d) - 1) // ((1 << (2 << k)) - 1) * ((1 << (1 << k)) - 1)
        anf ^= (anf & low) << (1 << k)
    return rows, None, [v for v in range(d) if anf >> v & 1]


def _shift(a: np.ndarray, by: int) -> np.ndarray:
    """``a`` shifted right by ``by`` bits, or left by ``-by`` when negative."""
    return a >> by if by > 0 else a << -by if by < 0 else a


def _clifford_pass(x, z, c, firsts: int, offsets: Sequence[int], rule):
    """Step every term through the gates whose first targets are the bits
    of ``firsts``, which share one `_clifford_rule` and one set of target
    ``offsets`` from the first. Returns the new masks and scales ``c`` in
    place; terms never move.

    Plane k holds bit k of each gate's local pattern, shifted onto its
    first target. Each output plane that is not its own input is the XOR of
    its row's planes, shifted back onto its cleared targets. A sign form
    negates the terms with an odd number of -1 entries over the gates;
    otherwise the pass has one gate, and each term it moves is multiplied
    by the entry at its pattern.
    """
    rows, entry, anf = rule
    w = len(offsets)
    first = np.uint64(firsts)
    shifts = [offsets[w - 1 - k // 2] for k in range(2 * w)]
    planes = [_shift(z if k & 1 else x, o) & first for k, o in enumerate(shifts)]
    new = []
    cleared = [0, 0]
    for k, (o, inputs) in enumerate(zip(shifts, rows)):
        if inputs != [k]:
            new.append((k, o, functools.reduce(np.bitwise_xor, [planes[i] for i in inputs])))
            cleared[k & 1] |= firsts << o if o >= 0 else firsts >> -o
    out = [a & ~np.uint64(m) if m else a for a, m in zip((x, z), cleared)]
    for k, o, bit in new:
        out[k & 1] |= _shift(bit, -o)
    if entry is not None:
        t = firsts.bit_length() - 1
        local = functools.reduce(np.bitwise_or, [_shift(p, t - k) for k, p in enumerate(planes)])
        moving = local.nonzero()[0]
        # The entry itself, not its sign: the grouped path's product bytes.
        c[moving] *= entry[local[moving]]
    elif anf:
        odd = functools.reduce(np.bitwise_xor, [
            functools.reduce(np.bitwise_and, [p for k, p in enumerate(planes) if m >> k & 1])
            for m in anf
        ])
        np.negative(c, out=c, where=(np.bitwise_count(odd) & 1).view(bool))
    return out


def conjugate_layer(m: PauliMap, gates: Iterable[tuple[Sequence[int], np.ndarray]]) -> PauliMap:
    """Backward-evolve a PauliMap through one layer of disjoint gates, each
    given as its targets and its ``transfer_matrix``.

    Computes U^dag O U for the layer unitary U; exact up to
    ``DROP_TOLERANCE``, so the Frobenius norm is preserved.

    A matrix with 4^w nonzero entries has one in each row, as orthonormal
    rows are never zero, and each in its own column: a Clifford gate's
    signed permutation. The gates step in this order. First every
    one-qubit gate that is not Clifford, all together in `_rounds`. Then
    the others in gate order: in each run of consecutive Clifford gates,
    the gates with equal matrix bytes and target offsets whose entries are
    all +-1 take one `_clifford_pass`, and every other gate one of its own,
    in gate order, so each coefficient takes its products in the order of
    the gate-by-gate step; each distinct matrix's `_clifford_rule` is
    derived once per call. Every gate of 2 or 3 qubits that is not Clifford
    takes `_conjugate_terms` and ends the run, so the terms keep their
    gate-by-gate order. A layer's gates are disjoint, so the order does not
    change the map, only how its sums round.
    """
    table = np.zeros((m.n_qubits, 4, 4))
    gated = seen = 0
    rest = []
    for targets, entries in gates:
        tmask = _target_mask(m.n_qubits, targets)
        if tmask & seen:
            raise ValueError("overlapping gate supports in one layer")
        if entries.shape != (4 ** len(targets),) * 2:
            raise ValueError("transfer matrix shape does not match targets")
        seen |= tmask
        clifford = np.count_nonzero(entries) == len(entries)
        if len(targets) == 1 and not clifford:
            table[targets[0]] = entries
            gated |= tmask
        else:
            rest.append((targets, entries, tmask, clifford))

    x, z, c = m.x, m.z, m.coeffs
    if gated:
        x, z, c = _rounds(x, z, c, m.n_qubits, gated, table)
    rules: dict[bytes, tuple] = {}
    for clifford, run in itertools.groupby(rest, key=lambda gate: gate[3]):
        if not clifford:
            for targets, entries, tmask, _ in run:
                x, z, c = _conjugate_terms(
                    x, z, c, m.n_qubits, targets, tmask, lambda rows: rows @ entries[:, 1:]
                )
            continue
        # One pass per (bytes, offsets) for +-1 gates, and per first target
        # for the others, in order of first use.
        passes: dict = {}
        for targets, entries, _, _ in run:
            key = entries.tobytes()
            rule = rules.get(key)
            if rule is None:
                rule = rules[key] = _clifford_rule(entries)
            offsets = tuple([t - targets[0] for t in targets])
            one = passes.setdefault(
                targets[0] if rule[1] is not None else (key, offsets), [rule, offsets, 0]
            )
            one[2] |= 1 << targets[0]
        c = c.copy()
        for rule, offsets, firsts in passes.values():
            x, z = _clifford_pass(x, z, c, firsts, offsets, rule)
    return PauliMap._from_arrays(m.n_qubits, x, z, c, DROP_TOLERANCE)


def _local_matrix(coeffs: np.ndarray, w: int) -> np.ndarray:
    """Inverse of _pauli_coefficients: sum_a coeffs[a] P_a as a 2^w x 2^w
    matrix, contracted one qubit at a time (every intermediate has 4^w
    entries)."""
    t = coeffs.reshape((4,) * w)
    for _ in range(w):
        # Contract the leading digit axis; its row and column axes go last.
        t = np.tensordot(t, PAULI_1Q, axes=([0], [0]))
    rows_then_cols = tuple(range(0, 2 * w, 2)) + tuple(range(1, 2 * w, 2))
    return t.transpose(rows_then_cols).reshape(2**w, 2**w)


def _pauli_coefficients(matrix: np.ndarray, w: int) -> np.ndarray:
    """Expand a 2^w x 2^w matrix in the Pauli basis: c_b = Tr(P_b M)/2^w."""
    t = matrix.reshape((2,) * (2 * w))
    for i in range(w):
        # Contract row axis b_i (position i) and column axis a_i (position w)
        # with the single-qubit basis; the new digit axis lands in front.
        t = np.tensordot(PAULI_1Q, t, axes=([1, 2], [w, i]))
    t = np.transpose(t, tuple(range(w - 1, -1, -1)))
    return t.reshape(-1) / 2**w


def conjugate_dense(m: PauliMap, unitary: np.ndarray, support: Sequence[int]) -> PauliMap:
    """Backward-evolve through a wide unitary by dense matrix conjugation.

    The unitary acts on ``support`` in the given qubit order (first qubit
    most significant); terms disjoint from the support pass through
    untouched. Each group of touched terms that share an off-support factor
    is materialized as a dense matrix M, conjugated as U^dag M U, and
    re-expanded in the Pauli basis.
    """
    support = tuple(support)
    w = len(support)
    tmask = _target_mask(m.n_qubits, support)
    if unitary.shape != (2**w, 2**w):
        raise ValueError("unitary size does not match support")
    check_unitary(unitary)
    udag = unitary.conj().T

    def spread_rows(rows: np.ndarray) -> np.ndarray:
        out = np.empty((len(rows), 4**w - 1))
        for g, row in enumerate(rows):
            coeffs = _pauli_coefficients(udag @ _local_matrix(row, w) @ unitary, w)
            if np.abs(coeffs.imag).max() > _HERMITICITY_TOL:
                raise InvariantViolation("conjugation produced nonreal Pauli coefficients")
            out[g] = coeffs.real[1:]
        return out

    x, z, c = _conjugate_terms(m.x, m.z, m.coeffs, m.n_qubits, support, tmask, spread_rows)
    return PauliMap._from_arrays(m.n_qubits, x, z, c, DROP_TOLERANCE)
