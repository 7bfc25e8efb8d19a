"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and separate from the package's
optimized code paths: dense Kronecker products, explicit trace loops, and
basis-permutation embeddings. Keep it that way; these are the reference
side of every dual-route check.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Callable, Sequence

import numpy as np

_P = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(label: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for ch in label:
        out = np.kron(out, _P[ch])
    return out


def all_labels(n: int):
    return ("".join(t) for t in product("IXYZ", repeat=n))


def paulimap_matrix(m) -> np.ndarray:
    """Dense matrix of a qadv PauliMap, built from labels only."""
    n = m.n_qubits
    out = np.zeros((2**n, 2**n), dtype=complex)
    for label, c in m.to_labels().items():
        out += c * pauli_matrix(label)
    return out


def pauli_decompose(matrix: np.ndarray, n: int) -> dict[str, float]:
    """Coefficients via explicit traces; drops magnitudes below 1e-13."""
    out = {}
    for label in all_labels(n):
        coeff = np.trace(pauli_matrix(label) @ matrix) / 2**n
        assert abs(coeff.imag) < 1e-9
        if abs(coeff.real) > 1e-13:
            out[label] = float(coeff.real)
    return out


def conjugate_map_dense(m, unitary_full: np.ndarray) -> dict[str, float]:
    """U^dag O U for a full-width unitary, re-expanded over all Paulis."""
    mat = unitary_full.conj().T @ paulimap_matrix(m) @ unitary_full
    return pauli_decompose(mat, m.n_qubits)


def basis_permutation(n: int, order: list[int]) -> np.ndarray:
    """Permutation matrix sending standard qubit order to `order`: qubit
    order[j] of the input lands at position j of the output index."""
    dim = 2**n
    perm = np.zeros((dim, dim), dtype=complex)
    for i_old in range(dim):
        bits = [(i_old >> (n - 1 - q)) & 1 for q in range(n)]
        i_new = 0
        for j, q in enumerate(order):
            i_new |= bits[q] << (n - 1 - j)
        perm[i_new, i_old] = 1.0
    return perm


def embed(matrix: np.ndarray, targets: list[int], n: int) -> np.ndarray:
    """Embed an operator on `targets` (in that order) into n qubits."""
    w = len(targets)
    rest = [q for q in range(n) if q not in targets]
    big = np.kron(matrix, np.eye(2 ** (n - w), dtype=complex))
    perm = basis_permutation(n, list(targets) + rest)
    return perm.conj().T @ big @ perm


def gate_unitary(gate) -> np.ndarray:
    if gate.kind == "perm":
        u = np.zeros((2 ** len(gate.targets),) * 2, dtype=complex)
        for j, pj in enumerate(gate.perm):
            u[pj, j] = 1.0
        return u
    return gate.unitary()


def circuit_unitary(c) -> np.ndarray:
    """Full unitary of a circuit by composing embedded layer matrices."""
    from qadv import circuits

    n = c.n_qubits
    total = np.eye(2**n, dtype=complex)
    for layer in c.layers:
        if isinstance(layer, circuits.ElementaryLayer):
            lu = np.eye(2**n, dtype=complex)
            for g in layer.gates:
                lu = embed(gate_unitary(g), list(g.targets), n) @ lu
            total = lu @ total
        else:
            sub = circuit_unitary(layer.circuit)
            placed = embed(sub, list(layer.targets), n)
            if layer.control is not None:
                p0 = embed(np.diag([1.0, 0.0]).astype(complex), [layer.control], n)
                p1 = embed(np.diag([0.0, 1.0]).astype(complex), [layer.control], n)
                placed = p0 + placed @ p1
            total = placed @ total
    return total


def apply_matrix_moveaxis(arr: np.ndarray, u: np.ndarray, axes) -> np.ndarray:
    """u on the named axes of a tensor, by two `np.moveaxis` calls: move the
    axes to the front, multiply the flattened rows, move them back. This is
    the transposing route of `qadv.statevector._apply_matrix`, the one it
    takes for axes that are not consecutive and ascending, and the
    reference its reshaped route is checked against."""
    w = len(axes)
    moved = np.moveaxis(arr, axes, range(w))
    out = u @ moved.reshape(2**w, -1)
    return np.moveaxis(out.reshape(moved.shape), range(w), axes)


def basis_run_copying_the_first_column(ops, bits) -> np.ndarray:
    """Dense ops run on the basis state |bits> the way
    `qadv.statevector.apply_circuit` once ran them: the first op's output is
    its unitary's column at the bits on its support, copied into the slice
    of the other qubits' bits, and every later op multiplies
    (`apply_matrix_moveaxis`). No ops leave the basis state."""
    arr = np.zeros((2,) * len(bits), dtype=complex)
    if not ops:
        arr[tuple(bits)] = 1.0
        return arr.reshape(-1)
    (support, u), *rest = ops
    column = u[:, int("".join(str(bits[q]) for q in support), 2)]
    arr[tuple(slice(None) if q in support else b for q, b in enumerate(bits))] = (
        column.reshape((2,) * len(support)))
    for support, u in rest:
        arr = apply_matrix_moveaxis(arr, u, support)
    return arr.reshape(-1)


def output_prob_per_ket(fused, bits) -> float:
    """`qadv.statevector.output_prob` of a fused circuit by the route it once
    took. The first op's spectators (qubits of its support that no later op
    touches, qubit 0 aside), when they outnumber its other qubits K, are
    summed out: the Gram matrix of its column over them weighs the outputs
    of one run of the later ops, renumbered onto the kept qubits, per
    setting of K (`basis_run_copying_the_first_column`). Otherwise the
    whole state runs once."""
    n = fused.n_qubits
    full = [int(b) for b in fused.full_input(bits)]
    ops = list(fused.ops)
    support, u = ops[0] if ops else ((), None)
    touched = {0}.union(*(s for s, _ in ops[1:]))
    k_qubits = [q for q in support if q in touched]
    spectators = [q for q in support if q not in touched]
    if len(k_qubits) >= len(spectators):
        half = basis_run_copying_the_first_column(ops, full)[2 ** (n - 1) :]
        return float(np.real(np.vdot(half, half)))
    column = u[:, int("".join(str(full[q]) for q in support), 2)].reshape((2,) * len(support))
    order = [support.index(q) for q in (*k_qubits, *spectators)]
    cmat = column.transpose(order).reshape(2 ** len(k_qubits), -1)
    gram = cmat @ cmat.conj().T
    kept = [q for q in range(n) if q not in spectators]
    later = [([kept.index(q) for q in s], v) for s, v in ops[1:]]
    halves = []
    for k_bits in product((0, 1), repeat=len(k_qubits)):
        at = dict(zip(k_qubits, k_bits))
        ket = [at.get(q, full[q]) for q in kept]
        halves.append(basis_run_copying_the_first_column(later, ket)[2 ** (len(kept) - 1) :])
    h = np.array(halves)
    return float(np.vdot(h, gram.T @ h).real)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def conjugate_gate_labels(m, targets, entries) -> dict[str, float]:
    """One gate applied term by term from its transfer matrix, rewriting
    the target letters of each label; keyed by label."""
    w = len(targets)
    out: dict[str, float] = {}
    for label, c in m.to_labels().items():
        a = 0
        for t in targets:
            a = 4 * a + "IXYZ".index(label[t])
        for b in range(4**w):
            v = entries[a, b]
            if v == 0.0:
                continue
            letters = list(label)
            for j, t in enumerate(targets):
                letters[t] = "IXYZ"[(b >> 2 * (w - 1 - j)) & 3]
            q = "".join(letters)
            out[q] = out.get(q, 0.0) + c * v
    return out


def sample_many_lockstep(sq, rs: np.ndarray) -> np.ndarray:
    """The full-length descent of the prefix-sum tree that
    `qadv.sq.sample_many` once ran: every lane steps one tree level per
    iteration, with fresh arrays each level. r is scaled by min(root mass, 1) first, as
    `sample_many` scales it by min(F(dim-1), 1)."""
    tree = sq.tree  # rebuilt on every read, so read once
    r = np.array(rs, dtype=float) * min(tree[1], 1.0)
    node = np.ones(len(r), dtype=np.int64)
    while len(node) and node[0] < sq.dim:
        left = tree[2 * node]
        go_right = r >= left
        r -= np.where(go_right, left, 0.0)
        node = 2 * node + go_right
    return node - sq.dim


def sorted_uniforms_one_shot(n: int, rng) -> np.ndarray:
    """n sorted uniforms, largest first, as one whole-run array (Bentley &
    Saxe): U_(j) = exp(-sum_{i>=j} E_i / i) for j = n, ..., 1, each clamped
    below 1. The reference for `qadv.sq._index_blocks`' blocked draw."""
    spacings = rng.standard_exponential(n) / np.arange(n, 0, -1)
    return np.minimum(np.exp(-np.cumsum(spacings)), np.nextafter(1.0, 0.0))


def inner_product_estimate_one_shot(sq_x, y, n_samples: int, rng) -> tuple[float, float, float]:
    """The whole-run estimator that `qadv.sq.inner_product_estimate`
    replaced: every uniform, index and draw of the run held at once, then
    ``mean`` and ``var(ddof=1)``. Returns (estimate, stderr, sample_variance)."""
    from qadv.sq import sample_many

    yv = np.asarray(y, dtype=float)
    idx = sample_many(sq_x, sorted_uniforms_one_shot(n_samples, rng))
    draws = yv[idx] / sq_x.values[idx]
    var = float(draws.var(ddof=1)) if n_samples > 1 else 0.0
    return float(draws.mean()), float(np.sqrt(var / n_samples)), var


def ghz_trials_per_shot(n_probes, uses, thetas, gamma, rng) -> np.ndarray:
    """The GHZ sampler that `qadv.sensing.ghz_trials` replaced: every
    channel use draws its own N(0, gamma) phase noise, (trials, N*T) normals
    in all, then one uniform per trial. Returns the minus outcomes."""
    phases = n_probes * uses * np.asarray(thetas, dtype=float)
    if gamma > 0:
        size = (len(phases), n_probes * uses)
        phases = phases + rng.normal(0.0, math.sqrt(gamma), size=size).sum(axis=1)
    return rng.random(len(phases)) < 0.5 * (1.0 - np.cos(phases))


def separable_fractions_per_shot(shots, uses_per_shot, thetas, gamma, rng) -> np.ndarray:
    """The separable sampler that `qadv.sensing.separable_fractions`
    replaced: every shot sums its own R normals of phase noise, (trials,
    shots, R) in all, then draws one uniform. Returns the +i fractions."""
    phases = uses_per_shot * np.asarray(thetas, dtype=float)[:, None]
    if gamma > 0:
        size = (len(phases), shots, uses_per_shot)
        phases = phases + rng.normal(0.0, math.sqrt(gamma), size=size).sum(axis=2)
    p_plus_i = 0.5 * (1.0 + np.sin(phases))
    return np.count_nonzero(rng.random((len(phases), shots)) < p_plus_i, axis=1) / shots


def sweep_cell_per_trial(protocol, n, theta, gamma, t_uses, k_reps, trials, rng,
                         uses_per_shot=None) -> float:
    """A sweep cell as a per-trial loop, the reference of
    `qadv.sensing._run_cell`: every trial draws one variate from its exact
    distribution, a uniform against the GHZ minus probability
    (1 - cos(N T theta) exp(-N T gamma / 2)) / 2 or a binomial +i count
    with p = 1/2 + sin(R theta) exp(-gamma R / 2) / 2. Even trials are
    null, odd ones carry theta; returns the success rate. A separable cell
    takes R = ceil(1/gamma) uses per shot unless `uses_per_shot` says."""
    r = uses_per_shot
    if protocol == "separable" and r is None:
        r = math.ceil(1.0 / gamma)
    correct = 0
    for trial in range(trials):
        true_theta = 0.0 if trial % 2 == 0 else theta
        if protocol == "ghz":
            nt = n * t_uses
            p_minus = 0.5 * (1.0 - math.cos(nt * true_theta) * math.exp(-nt * gamma / 2))
            present = bool(rng.random() < p_minus)
        else:
            shots = k_reps * n
            damping = math.exp(-gamma * r / 2)
            fraction = rng.binomial(shots, 0.5 + math.sin(r * true_theta) * damping / 2) / shots
            present = fraction > 0.5 + math.sin(theta * r) * damping / 4
        correct += present == (true_theta != 0)
    return correct / trials


def separable_success_closed_form(shots: int, threshold: float, bias: float) -> float:
    """Two-hypothesis success of the separable decision "the +i fraction
    exceeds the threshold" with equal priors: each of the `shots` outcomes
    is +i with probability 1/2 under the null and 1/2 + bias under the
    signal, so the count is binomial."""
    def exceeds(p):
        return sum(math.comb(shots, c) * p**c * (1 - p) ** (shots - c)
                   for c in range(shots + 1) if c / shots > threshold)

    return 0.5 * ((1.0 - exceeds(0.5)) + exceeds(0.5 + bias))


# ---------------------------------------------------------------------------
# The group-and-scatter step of `qadv.pauli` in its lexsort form: every
# term's digits gathered and tested, groups sorted by np.lexsort on separate
# keys, outputs scattered digit by digit. Kept, less the batch column maps
# no longer carry, as the reference the packed-key kernel must match byte
# for byte.


def _gather_digits(x: np.ndarray, z: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Base-4 local index of every term on ``targets`` (first most significant)."""
    a = np.zeros(len(x), dtype=np.uint64)
    y = x ^ z
    for t in targets:
        # Digit bits: low = x xor z, high = z (I=00, X=01, Y=10, Z=11).
        a = (a << 2) | ((y >> t) & 1) | (((z >> t) & 1) << 1)
    return a.astype(np.intp)


def _scatter_digits(b: np.ndarray, targets: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """x- and z-masks of the local indices ``b`` placed on ``targets``."""
    b = b.astype(np.uint64)
    x = np.zeros(len(b), dtype=np.uint64)
    z = np.zeros(len(b), dtype=np.uint64)
    w = len(targets)
    for j, t in enumerate(targets):
        digit = (b >> (2 * (w - 1 - j))) & 3
        high = digit >> 1
        x |= ((digit & 1) ^ high) << t
        z |= high << t
    return x, z


def _group(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct key tuples in sorted order, the last key most
    significant (as in np.lexsort): returns each element's group and the
    index of one element of every group."""
    order = np.lexsort(keys)
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for k in keys:
        k = k[order]
        starts[1:] |= k[1:] != k[:-1]
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return group, order[starts]


def _conjugate_terms(
    x: np.ndarray,
    z: np.ndarray,
    c: np.ndarray,
    targets: Sequence[int],
    spread_rows: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward-evolve the terms through one unitary on ``targets``.

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
    a = _gather_digits(x, z, targets)
    moving = a != 0
    if not moving.any():
        return x, z, c
    off = ~np.uint64(sum(1 << t for t in targets))
    rest_x, rest_z = x[moving] & off, z[moving] & off
    group, first = _group(rest_z, rest_x)
    rest_x, rest_z = rest_x[first], rest_z[first]
    local = np.zeros((len(first), 4 ** len(targets)))
    local[group, a[moving]] = c[moving]
    spread = spread_rows(local)
    g, b = np.nonzero(spread)
    bx, bz = _scatter_digits(b + 1, targets)
    stay = ~moving
    x = np.concatenate((x[stay], rest_x[g] | bx))
    z = np.concatenate((z[stay], rest_z[g] | bz))
    c = np.concatenate((c[stay], spread[g, b]))
    return x, z, c


# ---------------------------------------------------------------------------
# The Clifford step of `qadv.pauli.conjugate_layer` one gate at a time: each
# moving term's local index goes through the one nonzero of its row, its new
# digits are placed in its own slot, and its coefficient is multiplied by
# that entry. Kept as the reference the layer's bit-parallel passes must
# match byte for byte, in order, and that its rounds of one-qubit gates must
# match within `ROUNDS_RTOL`.


def clifford_step(x: np.ndarray, z: np.ndarray, c: np.ndarray, targets: Sequence[int],
                  entries: np.ndarray) -> None:
    """Step the terms, in place, through one gate on ``targets`` whose
    transfer matrix ``entries`` has one nonzero in each row. Terms that are
    the identity on the targets are not touched."""
    b = _gather_digits(x, z, targets)
    hit = b != 0
    b = b[hit]
    pb = entries.nonzero()[1][b]
    px, pz = _scatter_digits(pb, targets)
    off = ~np.uint64(sum(1 << t for t in targets))
    x[hit] = x[hit] & off | px
    z[hit] = z[hit] & off | pz
    c[hit] *= entries[b, pb]


def conjugate_layer_gate_by_gate(m, gates):
    """`qadv.pauli.conjugate_layer` one gate at a time, on copies of the
    map's arrays: a gate with one nonzero per row through `clifford_step`,
    every other through `_conjugate_terms`."""
    from qadv.pauli import DROP_TOLERANCE, PauliMap

    x, z, c = m.x.copy(), m.z.copy(), m.coeffs.copy()
    for targets, entries in gates:
        if np.count_nonzero(entries) == len(entries):
            clifford_step(x, z, c, targets, entries)
        else:
            x, z, c = _conjugate_terms(x, z, c, targets, lambda rows: rows @ entries[:, 1:])
    return PauliMap._from_arrays(m.n_qubits, x, z, c, DROP_TOLERANCE)


#: How far a coefficient of the rounds route may lie from the gate-by-gate
#: step's, relative to the input's largest |coefficient|. The two sum in
#: other orders, one by BLAS (which may fuse multiply-adds) and one by
#: `np.bincount`; at k <= 4 an output sums at most 81 products of entries
#: of magnitude at most 1, so each side rounds by a few ulps of the input.
ROUNDS_RTOL = 1e-14


def assert_terms_close(got, want, scale: float) -> None:
    """Assert that maps ``got`` and ``want`` hold the same terms, with
    coefficients within ``ROUNDS_RTOL * scale``. A term that only one of
    them holds must lie within that bound of `DROP_TOLERANCE`, which the
    other route's rounding may have put it below."""
    from qadv.pauli import DROP_TOLERANCE

    tol = ROUNDS_RTOL * scale
    g = dict(zip(zip(got.x.tolist(), got.z.tolist()), got.coeffs.tolist()))
    w = dict(zip(zip(want.x.tolist(), want.z.tolist()), want.coeffs.tolist()))
    for key in g.keys() ^ w.keys():
        assert abs(abs(g.get(key, w.get(key))) - DROP_TOLERANCE) <= tol, key
    for key in g.keys() & w.keys():
        assert abs(g[key] - w[key]) <= tol, (key, g[key], w[key])


# ---------------------------------------------------------------------------
# The per-layer backward pass of `qadv.propagation`: each layer builds the
# transfer matrices of its unitaries not yet kept, one stack per gate width,
# and keeps those of unitaries that recur in the pass for the whole pass.
# The windowed pass builds a recurring unitary again in each window instead;
# each matrix has the bytes of its one-matrix build, so the two must match
# byte for byte. Its norms after each layer are the reference for a chain
# of one-layer `backpropagate` passes, which is how callers get them.


def backpropagate_per_layer(c, o, k: int):
    """`qadv.propagation.backpropagate`, building per layer: the final map,
    and the norms after the initial projection and after each layer."""
    from collections import Counter

    from qadv import circuits, propagation, statevector
    from qadv.pauli import conjugate_dense, conjugate_layer, transfer_matrix

    blocks = c.blocks if isinstance(c, statevector.FusedCircuit) else {}
    steps = []
    for layer in reversed(c.layers):
        gates, dense = propagation._split(layer)
        steps.append((gates, [g.unitary().tobytes() for g in gates], dense))
    uses = Counter(key for _, keys, _ in steps for key in keys)
    memo: dict[bytes, np.ndarray] = {}
    acc = o.project_weight(k)
    norms = [acc.frobenius_normalized()]
    for gates, keys, dense in steps:
        if gates:
            misses: dict[int, dict[bytes, circuits.Gate]] = {}
            for key, g in zip(keys, gates):
                if key not in memo:
                    misses.setdefault(len(key), {})[key] = g
            built: dict[bytes, np.ndarray] = {}
            for group in misses.values():
                stack = transfer_matrix(np.stack([g.unitary() for g in group.values()]))
                built.update(zip(group, stack))
            memo.update((key, entries) for key, entries in built.items() if uses[key] > 1)
            matrices = [built[key] if key in built else memo[key] for key in keys]
            acc = conjugate_layer(acc, zip([g.targets for g in gates], matrices))
        for layer in dense:
            support, u = blocks.get(layer) or statevector.block_unitary(layer)
            acc = conjugate_dense(acc, u, support)
        acc = acc.project_weight(k)
        norms.append(acc.frobenius_normalized())
    return acc, norms
