import hashlib
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qadv import circuits, pauli
from qadv.errors import InvariantViolation, ResourceLimitExceeded
from qadv.pauli import (
    NonUnitaryError,
    PauliMap,
    PauliString,
    conjugate_dense,
    conjugate_layer,
    transfer_matrix,
    weight_one_blocks,
)

import oracles
from oracles import (
    conjugate_gate_labels,
    conjugate_map_dense,
    embed,
    haar_unitary,
    pauli_matrix,
    paulimap_matrix,
)


def test_weight_examples():
    assert PauliString(3, 0, 0).weight() == 0
    assert PauliString(5, 0, 0b00001).weight() == 1
    # XYIZ: X and Y set x-bits 0 and 1; Y and Z set z-bits 1 and 3.
    assert PauliString(4, 0b0011, 0b1010).weight() == 3


def test_pauli_string_equality_is_bitwise():
    # XY sets x-bits 0 and 1 and z-bit 1; YX has the same x-bits and z-bit 0.
    xy = PauliMap.from_labels({"XY": 1.0})
    assert (int(xy.x[0]), int(xy.z[0])) == (0b11, 0b10)
    assert PauliString(2, 0b11, 0b10) == PauliString(2, 0b11, 0b10)
    assert PauliString(2, 0b11, 0b10) != PauliString(2, 0b11, 0b01)


def test_label_round_trip():
    for label in ("I", "XYZ", "ZIIX", "YY"):
        assert PauliMap.from_labels({label: 1.0}).to_labels() == {label: 1.0}
    labels = {"XIZY": 0.25, "IIII": -1.5, "YZXI": 3.0}
    assert PauliMap.from_labels(labels).to_labels() == labels


def test_mask_bounds_rejected():
    with pytest.raises(ValueError):
        PauliString(1, 0b10, 0)


def test_pauli_map_drops_zero_terms():
    m = PauliMap.from_labels({"XZ": 0.0, "ZI": 0.5})
    assert len(m) == 1
    assert m.to_labels() == {"ZI": 0.5}


def test_pauli_map_wider_than_64_qubits_refused():
    PauliMap(64, {PauliString(64, 1 << 63, 1 << 63): 1.0})
    with pytest.raises(ResourceLimitExceeded):
        PauliMap(65)
    with pytest.raises(ResourceLimitExceeded):
        PauliMap.from_labels({"I" * 64 + "Z": 1.0})


def test_from_labels_refuses_malformed_input():
    with pytest.raises(ValueError, match="at least one term"):
        PauliMap.from_labels({})
    with pytest.raises(ValueError, match="unknown Pauli letter"):
        PauliMap.from_labels({"XQ": 1.0})
    with pytest.raises(ValueError, match="qubit count mismatch"):
        PauliMap.from_labels({"XX": 1.0, "Z": 1.0})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_coefficients_are_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        PauliMap.from_labels({"XX": bad})
    with pytest.raises(ValueError, match="finite"):
        PauliMap.from_labels({"ZI": 0.5, "XX": bad})
    with pytest.raises(ValueError, match="finite"):
        PauliMap(2, {PauliString(2, 0b11, 0): bad})


def test_repr_sorts_labels():
    m = PauliMap.from_labels({"ZI": 0.5, "XY": -0.25})
    assert repr(m) == "PauliMap(2, {XY: -0.25, ZI: +0.5})"


# ---------------------------------------------------------------------------
# Transfer matrices


def test_transfer_identity_unitary():
    assert np.allclose(transfer_matrix(np.eye(4)), np.eye(16))


def test_transfer_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        transfer_matrix(np.ones((2, 2)))


def test_transfer_swap_permutes_pairs():
    # Brute-force expectation: entries[a, b] = Tr(P_b SWAP P_a SWAP)/4,
    # which exchanges the two base-4 digits of a.
    tm = transfer_matrix(circuits.FIXED_GATES["SWAP"])
    labels = [a + b for a in "IXYZ" for b in "IXYZ"]
    swap = circuits.FIXED_GATES["SWAP"]
    for a, la in enumerate(labels):
        expected = np.array(
            [
                np.trace(pauli_matrix(lb) @ swap.conj().T @ pauli_matrix(la) @ swap).real / 4
                for lb in labels
            ]
        )
        assert np.allclose(tm[a], expected, atol=1e-12)
        assert tm[a, labels.index(la[1] + la[0])] == pytest.approx(1.0)


def test_transfer_cnot_known_rows():
    tm = transfer_matrix(circuits.FIXED_GATES["CNOT"])
    labels = [a + b for a in "IXYZ" for b in "IXYZ"]
    zi = labels.index("ZI")
    xi = labels.index("XI")
    row = np.zeros(16)
    row[zi] = 1.0
    assert np.allclose(tm[zi], row, atol=1e-12)
    row = np.zeros(16)
    row[labels.index("XX")] = 1.0
    assert np.allclose(tm[xi], row, atol=1e-12)


def test_transfer_stack_matches_one_matrix_at_a_time():
    rng = np.random.default_rng(5)
    for dim in (2, 4, 8):
        stack = np.stack([haar_unitary(dim, rng) for _ in range(5)])
        got = transfer_matrix(stack)
        assert got.shape == (5, dim * dim, dim * dim)
        for entries, u in zip(got, stack):
            assert np.abs(entries - transfer_matrix(u)).max() <= 1e-15


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_chunked_transfer_stack_equals_one_matrix_builds(dim):
    # Stacks that end just before, on and just after a chunk boundary, and
    # one of several chunks: every matrix is the bytes of its lone build.
    rng = np.random.default_rng(dim)
    chunk = pauli._TRANSFER_CHUNK
    for count in (chunk - 1, chunk, chunk + 1, 3 * chunk + 2):
        stack = np.stack([haar_unitary(dim, rng) for _ in range(count)])
        got = transfer_matrix(stack)
        assert got.shape == (count, dim * dim, dim * dim)
        for entries, u in zip(got, stack):
            assert np.array_equal(entries, transfer_matrix(u))


def test_chunked_transfer_stack_checks_hermiticity(monkeypatch):
    monkeypatch.setattr(pauli, "_HERMITICITY_TOL", -1.0)
    stack = circuits.haar_two_qubit(np.random.default_rng(4), 3 * pauli._TRANSFER_CHUNK + 2)
    with pytest.raises(InvariantViolation, match="nonreal"):
        transfer_matrix(stack)


def test_transfer_stack_memory_is_its_output_plus_one_chunk():
    # 1,000 two-qubit matrices: the output takes 2,048,000 bytes, and one
    # chunk's temporaries about 12 KiB per matrix. Built all at once they
    # would take about 12 MB.
    stack = circuits.haar_two_qubit(np.random.default_rng(8), 1000)
    transfer_matrix(stack[:2])  # build the cached Pauli basis outside the trace
    tracemalloc.start()
    try:
        out = transfer_matrix(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 256 * 1024


@pytest.mark.parametrize("fill", [np.nan, np.inf])
def test_unitarity_check_rejects_non_finite_matrices(fill):
    # A NaN deviation compares False against any tolerance, so the check
    # must be written to fail on it.
    bad = np.eye(4, dtype=complex)
    bad[1, 2] = fill
    for u in (bad, np.full((2, 2), fill), np.stack([np.eye(4), bad])):
        with pytest.raises(NonUnitaryError):
            transfer_matrix(u)


def test_transfer_stack_rejects_one_non_unitary_member():
    stack = np.stack([np.eye(4), circuits.FIXED_GATES["CNOT"], np.ones((4, 4))])
    with pytest.raises(NonUnitaryError):
        transfer_matrix(stack)


@given(st.none() | st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
# Stacks that end just short of, on and just past a chunk boundary, and
# one across three chunks.
@example(15, 0)
@example(16, 0)
@example(17, 0)
@example(40, 0)
def test_narrowed_transfer_build_is_the_sliced_full_build(count, seed):
    rng = np.random.default_rng(seed)
    u = np.stack([haar_unitary(4, rng) for _ in range(count or 1)])
    if count is None:
        u = u[0]
    got = weight_one_blocks(u)
    w = pauli._WEIGHT_ONE[2]
    want = transfer_matrix(u)[..., w[:, None], w]
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("w", [1, 2, 3])
def test_weight_one_blocks_are_the_sliced_full_build_at_every_width(w):
    # Byte-equal to the full transfer matrices sliced at the width's table,
    # for one unitary and for a stack across a chunk boundary; the table
    # lists X, Y, Z on the first target, then on the next (base-4 digits,
    # first target most significant).
    rng = np.random.default_rng(w)
    table = pauli._WEIGHT_ONE[w]
    assert table.tolist() == [a * 4 ** (w - 1 - j) for j in range(w) for a in (1, 2, 3)]
    for u in (haar_unitary(2**w, rng), np.stack([haar_unitary(2**w, rng) for _ in range(17)])):
        got = weight_one_blocks(u)
        want = transfer_matrix(u)[..., table[:, None], table]
        assert got.shape == want.shape == u.shape[:-2] + (3 * w, 3 * w)
        assert got.tobytes() == want.tobytes()


def test_weight_one_blocks_refuse_other_widths():
    # Both builds share one shape check, transfer_matrix included.
    for build in (transfer_matrix, weight_one_blocks):
        for u in (np.eye(1), np.eye(16), np.stack([np.eye(16)] * 3), np.eye(6), np.ones((4, 2)),
                  np.array(1.0), np.ones(4)):
            with pytest.raises(ValueError, match="1, 2 or 3 qubits"):
                build(u)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8]))
@settings(max_examples=40)
def test_transfer_orthogonal_and_identity_row(seed, dim):
    u = haar_unitary(dim, np.random.default_rng(seed))
    tm = transfer_matrix(u)
    d = dim * dim
    assert np.abs(tm @ tm.T - np.eye(d)).max() < 1e-10
    ident = np.zeros(d)
    ident[0] = 1.0
    assert np.abs(tm[0] - ident).max() < 1e-10


# ---------------------------------------------------------------------------
# Layer conjugation


def _layer(*gate_specs):
    return [(targets, transfer_matrix(u)) for targets, u in gate_specs]


def test_conjugate_identity_layer_is_noop():
    m = PauliMap.from_labels({"XZ": 0.3, "YI": -0.7})
    out = conjugate_layer(m, _layer(((0,), np.eye(2)), ((1,), np.eye(2))))
    assert out.to_labels() == m.to_labels()


def test_conjugate_z_through_cnot():
    m = PauliMap.from_labels({"ZI": 1.0})
    out = conjugate_layer(m, _layer(((0, 1), circuits.FIXED_GATES["CNOT"])))
    assert out.to_labels() == {"ZI": pytest.approx(1.0)}


def test_conjugate_x_through_hadamard():
    m = PauliMap.from_labels({"X": 1.0})
    out = conjugate_layer(m, _layer(((0,), circuits.FIXED_GATES["H"])))
    assert out.to_labels() == {"Z": pytest.approx(1.0)}


def test_overlapping_supports_rejected():
    with pytest.raises(ValueError):
        conjugate_layer(
            PauliMap.from_labels({"ZZ": 1.0}),
            _layer(((0, 1), np.eye(4)), ((1,), np.eye(2))),
        )


@pytest.mark.parametrize("targets", [(1, 1), (0, 5), (-1, 0), (0, 64)])
def test_kernels_refuse_repeated_or_out_of_range_targets(targets):
    # A repeated target names one qubit twice, and one outside 0..n-1 names
    # none; neither may pass through as if the gate did nothing.
    m = PauliMap.from_labels({"ZIZ": 1.0, "XYI": 0.5})
    cnot = circuits.FIXED_GATES["CNOT"]
    with pytest.raises(ValueError, match="target"):
        conjugate_layer(m, [(targets, transfer_matrix(cnot))])
    with pytest.raises(ValueError, match="target"):
        conjugate_dense(m, cnot, targets)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_conjugate_layer_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    terms = {}
    for _ in range(rng.integers(1, 6)):
        p = PauliString(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)))
        terms[p] = float(rng.normal())
    m = PauliMap(n, terms)
    gates = [((0, 1), haar_unitary(4, rng))]
    if n >= 3:
        gates.append(((2,), haar_unitary(2, rng)))
    out = conjugate_layer(m, _layer(*gates))
    assert out.frobenius_normalized() == pytest.approx(m.frobenius_normalized(), abs=1e-9)
    assert all(isinstance(c, float) for c in out.to_labels().values())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_conjugate_layer_matches_dense_oracle(seed):
    # Round trip: expand to a dense matrix, conjugate by the full layer
    # unitary, re-expand by traces; must agree term by term.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    terms = {}
    for _ in range(rng.integers(1, 5)):
        p = PauliString(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)))
        terms[p] = float(rng.normal())
    m = PauliMap(n, terms)
    u2 = haar_unitary(4, rng)
    gate_specs = [((0, 1), u2)]
    full = embed(u2, [0, 1], n)
    if n >= 3:
        u1 = haar_unitary(2, rng)
        gate_specs.append(((2,), u1))
        full = embed(u1, [2], n) @ full
    out = conjugate_layer(m, _layer(*gate_specs))
    expected = conjugate_map_dense(m, full)
    got = out.to_labels()
    assert set(got) == set(expected)
    for label, coeff in expected.items():
        assert got[label] == pytest.approx(coeff, abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_conjugate_layer_unsorted_targets_match_dense_oracle(seed):
    # Targets out of qubit order, and a three-qubit gate whose first target
    # is the most significant local digit.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    terms = {}
    for _ in range(rng.integers(1, 6)):
        p = PauliString(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)))
        terms[p] = float(rng.normal())
    m = PauliMap(n, terms)
    if n == 3:
        targets = [(2, 0), (1,)]
    else:
        targets = [(3, 1, 0)] + ([(4, 2)] if n == 5 else [(2,)])
    gate_specs = [(t, haar_unitary(2 ** len(t), rng)) for t in targets]
    full = np.eye(2**n, dtype=complex)
    for t, u in gate_specs:
        full = embed(u, list(t), n) @ full
    out = conjugate_layer(m, _layer(*gate_specs))
    expected = conjugate_map_dense(m, full)
    got = out.to_labels()
    assert set(got) == set(expected)
    for label, coeff in expected.items():
        assert got[label] == pytest.approx(coeff, abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_conjugate_layer_at_64_qubits_matches_label_reference(seed):
    # Gates on the top uint64 bits and across the 32-bit boundary, checked
    # gate by gate against label-level rewriting.
    rng = np.random.default_rng(seed)
    n = 64
    hot = [0, 31, 32, 62, 63]
    terms = {}
    for _ in range(rng.integers(1, 6)):
        letters = ["I"] * n
        for q in rng.choice(hot, size=int(rng.integers(1, 4)), replace=False):
            letters[int(q)] = "IXYZ"[int(rng.integers(1, 4))]
        terms["".join(letters)] = float(rng.normal())
    m = PauliMap.from_labels(terms)
    gates = _layer(
        ((62, 63), haar_unitary(4, rng)),
        ((32, 31), haar_unitary(4, rng)),
        ((0,), haar_unitary(2, rng)),
    )
    expected = m
    for targets, entries in gates:
        expected = PauliMap.from_labels(conjugate_gate_labels(expected, targets, entries))
    out = conjugate_layer(m, gates)
    got = out.to_labels()
    want = {l: c for l, c in expected.to_labels().items() if abs(c) > 1e-12}
    assert set(got) == set(want)
    for label, coeff in want.items():
        assert got[label] == pytest.approx(coeff, abs=1e-12)
    assert out.frobenius_normalized() == pytest.approx(m.frobenius_normalized(), rel=1e-12)


@pytest.mark.parametrize(
    "labels, support",
    [
        ({"ZIIII": 0.5, "IXIYI": -0.25, "IIIIZ": 0.8, "YIIIX": 0.1}, (1, 2, 3)),
        ({"ZIXIIY": 0.5, "IXIYIZ": -0.25, "IIZIII": 0.8, "YZIIXI": 0.1, "IIXZII": 0.3},
         (0, 1, 3, 4, 5)),
        # Full support: the oracle's cost grows as 8^n, and the cases above
        # already cover terms grouped by an off-support factor.
        ({"ZIXIIY": 0.5, "IXIYIZ": -0.25, "IIZIII": 0.8, "YZIIXI": 0.1}, (0, 1, 2, 3, 4, 5)),
    ],
    ids=["w3-off-support", "w5-off-support", "w6-full-support"],
)
def test_conjugate_dense_matches_oracle(labels, support):
    m = PauliMap.from_labels(labels)
    u = haar_unitary(2 ** len(support), np.random.default_rng(11))
    out = conjugate_dense(m, u, support)
    expected = conjugate_map_dense(m, embed(u, list(support), m.n_qubits))
    got = out.to_labels()
    assert set(got) == set(expected)
    for label, coeff in expected.items():
        assert got[label] == pytest.approx(coeff, abs=1e-9)


def test_conjugate_dense_memory_is_small_on_six_qubits():
    # The block's 4^6 Pauli matrices alone would take 268 MB; the local
    # matrix is built qubit by qubit instead. Measured in a fresh
    # interpreter, so no cache warmed by an earlier test hides an allocation.
    code = """
import tracemalloc
import numpy as np
from oracles import haar_unitary
from qadv.pauli import PauliMap, conjugate_dense
u = haar_unitary(64, np.random.default_rng(6))
m = PauliMap.from_labels({"IZIIIII": 1.0})
tracemalloc.start()
out = conjugate_dense(m, u, (1, 2, 3, 4, 5, 6))
print(tracemalloc.get_traced_memory()[1], out.frobenius_normalized())
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    peak, norm = run.stdout.split()
    assert int(peak) < 8 * 2**20
    assert float(norm) == pytest.approx(1.0, rel=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_conjugate_dense_agrees_with_conjugate_layer(seed):
    # Both kernels on the same 1-3 qubit unitary, targets in any order:
    # conjugate_dense takes the unitary in target order, as a gate does.
    rng = np.random.default_rng(seed)
    n = 5
    terms = {}
    for _ in range(rng.integers(1, 8)):
        p = PauliString(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)))
        terms[p] = float(rng.normal())
    m = PauliMap(n, terms)
    w = int(rng.integers(1, 4))
    targets = tuple(int(t) for t in rng.permutation(n)[:w])
    u = haar_unitary(2**w, rng)
    dense = conjugate_dense(m, u, targets)
    layer = conjugate_layer(m, _layer((targets, u)))
    got = dense.to_labels()
    want = layer.to_labels()
    assert set(got) == set(want)
    for label, coeff in want.items():
        assert got[label] == pytest.approx(coeff, abs=1e-12)


def test_conjugate_dense_untouched_terms_pass_through():
    m = PauliMap.from_labels({"ZII": 1.0})
    u = haar_unitary(4, np.random.default_rng(0))
    out = conjugate_dense(m, u, (1, 2))
    assert out.to_labels() == m.to_labels()


# ---------------------------------------------------------------------------
# Projection and norms


def test_project_weight_examples():
    m = PauliMap.from_labels({"ZI": 0.6, "XX": 0.8})
    out = m.project_weight(1)
    assert out.to_labels() == {"ZI": pytest.approx(0.6)}
    assert PauliMap.from_labels({"XX": 0.5}).project_weight(1).to_labels() == {}
    low = PauliMap.from_labels({"ZI": 0.3, "IX": 0.4})
    assert low.project_weight(1).to_labels() == low.to_labels()


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=30)
def test_project_weight_contracts_norm(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    terms = {}
    for _ in range(rng.integers(1, 8)):
        p = PauliString(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)))
        terms[p] = float(rng.normal())
    m = PauliMap(n, terms)
    assert m.project_weight(k).frobenius_normalized() <= m.frobenius_normalized() + 1e-15


def test_frobenius_examples():
    assert PauliMap.from_labels({"Z": 1.0}).frobenius_normalized() == pytest.approx(1.0)
    assert PauliMap(3).frobenius_normalized() == 0.0
    m = PauliMap.from_labels({"XI": 0.6, "IZ": 0.8})
    assert m.frobenius_normalized() == pytest.approx(1.0)
    # Dense oracle: Tr[O^dag O] / 2^n.
    dense = paulimap_matrix(m)
    assert np.trace(dense.conj().T @ dense).real / 4 == pytest.approx(1.0)


def test_terms_is_a_new_dict_on_each_call():
    m = PauliMap.from_labels({"ZI": 0.5})
    m.terms[PauliString(2, 0b11, 0)] = 1.0
    assert m.terms == {PauliString(2, 0, 0b01): 0.5}
    assert m.terms is not m.terms


def test_drop_tolerance_filters_small_terms():
    m = PauliMap.from_labels({"Z": 1.0, "X": 1e-15})
    out = conjugate_layer(m, _layer(((0,), np.eye(2))))
    assert "X" not in out.to_labels()


# ---------------------------------------------------------------------------
# Kernel bytes pinned across rewrites


def _random_map(n, rng, size):
    x = rng.integers(0, 2**n, size=size, dtype=np.uint64)
    z = rng.integers(0, 2**n, size=size, dtype=np.uint64)
    pairs = dict.fromkeys(zip(x.tolist(), z.tolist()))
    return PauliMap._from_masks(
        n, [p[0] for p in pairs], [p[1] for p in pairs], rng.normal(size=len(pairs))
    )


def test_lone_map_kernels_are_byte_equal_to_the_per_map_kernel():
    # sha256 of x, z and coeffs from conjugate_layer and conjugate_dense on
    # 30 seeded random maps (n 3-8, 1-3-qubit gates, dense supports of 2-5
    # qubits), taken with the kernel as it was before maps could carry a
    # batch column, and unchanged since the column was removed. The
    # unitaries come from LAPACK's QR, so another numpy build may need the
    # digest re-taken.
    h = hashlib.sha256()
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        m = _random_map(n, rng, int(rng.integers(1, 60)))
        qubits = rng.permutation(n).tolist()
        gates = []
        while qubits:
            w = min(int(rng.integers(1, 4)), len(qubits))
            targets, qubits = tuple(qubits[:w]), qubits[w:]
            gates.append((targets, transfer_matrix(haar_unitary(2**w, rng))))
        w = int(rng.integers(2, min(n, 5) + 1))
        support = rng.choice(n, size=w, replace=False).tolist()
        for out in (conjugate_layer(m, gates), conjugate_dense(m, haar_unitary(2**w, rng), support)):
            for a in (out.x, out.z, out.coeffs):
                h.update(a.tobytes())
    assert h.hexdigest() == "4bfdc1e167fd2bed16a87c2d58aaa58e9e71ea3adef645fd4267cffb9bc44431"


def test_stacked_matrices_need_a_batched_map():
    m = PauliMap.from_labels({"ZI": 1.0})
    stack = transfer_matrix(np.stack([np.eye(4), circuits.FIXED_GATES["CNOT"]]))
    # A map is one observable, so each gate takes one matrix, not a stack.
    with pytest.raises(ValueError, match="shape"):
        conjugate_layer(m, [((0, 1), stack)])
    with pytest.raises(ValueError, match="size"):
        conjugate_dense(m, np.stack([np.eye(4)] * 2), (0, 1))


# ---------------------------------------------------------------------------
# The group-and-scatter step against its lexsort form


def _local_masks(a, targets):
    """x- and z-masks of the base-4 local index ``a`` on ``targets``."""
    x = z = 0
    for j, t in enumerate(targets):
        d = a >> 2 * (len(targets) - 1 - j) & 3
        x |= (d in (1, 2)) << t
        z |= (d in (2, 3)) << t
    return x, z


def _signed_permutation(dim, rng):
    """A sparse orthogonal matrix that fixes the identity index, as a
    Clifford gate's transfer matrix does."""
    perm = np.concatenate(([0], 1 + rng.permutation(dim - 1)))
    return np.eye(dim)[perm] * np.concatenate(([1.0], rng.choice([-1.0, 1.0], dim - 1)))


def _dense_spread(u, w):
    """The row spread of `conjugate_dense`: each row as a matrix, conjugated
    by ``u`` and expanded in the Pauli basis again."""
    def spread_rows(rows):
        return np.stack([
            pauli._pauli_coefficients(u.conj().T @ pauli._local_matrix(row, w) @ u, w).real[1:]
            for row in rows
        ])
    return spread_rows


@st.composite
def _bookkeeping_case(draw, packed):
    """A map, its targets and a row spread. With ``packed`` the sort key
    fits in 64 bits (2n of them), otherwise it does not: maps wider than 32
    qubits."""
    kind = draw(st.sampled_from(["gate", "dense"]))
    n = draw(st.one_of(st.sampled_from([1, 32]), st.integers(1, 32)) if packed
             else st.one_of(st.sampled_from([33, 64]), st.integers(33, 64)))
    w = draw(st.integers(1, min(6 if kind == "dense" else 3, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = tuple(rng.permutation(n)[:w].tolist())
    tmask = sum(1 << t for t in targets)
    # Off-target parts from a small pool, so that groups gather several
    # terms; some terms are the identity on the targets and pass through.
    full = (1 << n) - 1
    pool = [(int(rng.integers(0, 2**63)) * 2 & full & ~tmask,
             int(rng.integers(0, 2**63)) * 2 & full & ~tmask) for _ in range(rng.integers(1, 5))]
    terms = {}
    # The first term always moves.
    for i in range(int(rng.integers(1, 25))):
        rx, rz = pool[rng.integers(len(pool))]
        a = int(rng.integers(1 if i == 0 else 0, 4**w))
        lx, lz = _local_masks(a, targets)
        terms[(rx | lx, rz | lz)] = None
    x = np.array([p[0] for p in terms], dtype=np.uint64)
    z = np.array([p[1] for p in terms], dtype=np.uint64)
    c = rng.normal(size=len(terms))
    if kind == "dense":
        spread = _dense_spread(haar_unitary(2**w, rng), w)
    else:
        entries = (transfer_matrix(haar_unitary(2**w, rng)) if rng.random() < 0.5
                   else _signed_permutation(4**w, rng))

        def spread(rows):
            return rows @ entries[:, 1:]
    return n, x, z, c, targets, spread


@pytest.mark.parametrize("packed", [True, False], ids=["packed-key", "lexsort"])
@given(data=st.data())
@settings(max_examples=60)
def test_group_and_scatter_matches_the_lexsort_form(packed, data):
    # The step must give the lexsort form's bytes, in its order: the same
    # rows reach the same spread, and every output term lands where it did.
    n, x, z, c, targets, spread = data.draw(_bookkeeping_case(packed))
    want = oracles._conjugate_terms(x, z, c, targets, spread)
    tmask = pauli._target_mask(n, targets)
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        got = pauli._conjugate_terms(x, z, c, n, targets, tmask, spread)
    assert lexsort.called == (not packed)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()



# ---------------------------------------------------------------------------
# Clifford gates as signed permutations of Pauli terms

_QUARTER_TURNS = (np.pi / 2, -np.pi / 2, np.pi, -np.pi)
_CLIFFORD_1Q = ("I", "X", "Y", "Z", "H", "S", "SDG")
_CLIFFORD_2Q = ("CNOT", "CZ", "SWAP")
_TOFFOLI = (0, 1, 2, 3, 4, 5, 7, 6)


def _grouped_reference(m, gates):
    """The layer stepped gate by gate through the grouped oracle, as
    ``{(x, z): float.hex(coeff)}`` after the layer's drop."""
    x, z, c = m.x, m.z, m.coeffs
    for targets, entries in gates:
        x, z, c = oracles._conjugate_terms(x, z, c, targets, lambda rows: rows @ entries[:, 1:])
    return _hex_terms(PauliMap._from_arrays(m.n_qubits, x, z, c, pauli.DROP_TOLERANCE))


def _hex_terms(m):
    return {(x, z): c.hex() for x, z, c in zip(m.x.tolist(), m.z.tolist(), m.coeffs.tolist())}


def _grouped_targets(m, gates):
    """The layer through `conjugate_layer`, and the targets of every gate
    that took the grouped path."""
    with mock.patch.object(pauli, "_conjugate_terms", wraps=pauli._conjugate_terms) as grouped:
        out = conjugate_layer(m, gates)
    return out, {tuple(call.args[4]) for call in grouped.call_args_list}


@st.composite
def _mixed_clifford_layer(draw):
    """A random map and one layer on shuffled (so unsorted) targets: a
    Toffoli, then named Clifford gates, RX/RY/RZ at quarter and half turns,
    Haar gates and 1-3-qubit perm gates. Each gate comes with whether it is
    Clifford: True, False, or None for a random 3-qubit perm, which may be
    either (every permutation of 1 or 2 bits is affine, so Clifford)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(4, 10))
    m = _random_map(n, rng, int(rng.integers(1, 80)))
    qubits = rng.permutation(n).tolist()
    gates = [(circuits.Gate("perm", qubits[:3], perm=_TOFFOLI), False)]
    qubits = qubits[3:]
    while qubits:
        kind = rng.choice(["clifford", "clifford", "rotation", "haar", "perm"])
        w = min(int(rng.integers(1, 4)), len(qubits))
        if kind == "clifford":
            w = min(w, 2)
            name = str(rng.choice(_CLIFFORD_1Q if w == 1 else _CLIFFORD_2Q))
            gates.append((circuits.Gate(name, qubits[:w]), True))
        elif kind == "rotation":
            w = 1
            name = str(rng.choice(["RX", "RY", "RZ"]))
            theta = float(rng.choice(_QUARTER_TURNS))
            gates.append((circuits.Gate(name, qubits[:1], param=theta), True))
        elif kind == "haar":
            gates.append((circuits.Gate("matrix", qubits[:w], matrix=haar_unitary(2**w, rng)), False))
        else:
            perm = tuple(rng.permutation(2**w).tolist())
            gates.append((circuits.Gate("perm", qubits[:w], perm=perm), w < 3 or None))
        qubits = qubits[w:]
    return m, [(g.targets, transfer_matrix(g.unitary())) for g, _ in gates], [c for _, c in gates]


@given(case=_mixed_clifford_layer())
@settings(max_examples=60)
def test_clifford_steps_match_the_grouped_path_bytes(case):
    # Clifford gates step as signed permutations and every other gate takes
    # the grouped path; the layer must give the gate-by-gate grouped
    # oracle's terms and coefficient bytes, whatever their order.
    m, gates, clifford = case
    out, grouped = _grouped_targets(m, gates)
    assert _hex_terms(out) == _grouped_reference(m, gates)
    for (targets, _), is_clifford in zip(gates, clifford):
        if is_clifford is not None:
            assert (targets in grouped) != is_clifford


@pytest.mark.parametrize("theta, clifford", [(np.pi / 2, True), (np.pi / 2 + 1e-12, False)])
def test_rz_quarter_turn_is_clifford_only_after_the_snap(theta, clifford):
    # transfer_matrix snaps entries below 1e-13 to zero, so RZ(pi/2) has one
    # nonzero per row; 1e-12 off it keeps 6 nonzeros and steps grouped.
    entries = transfer_matrix(circuits.Gate("RZ", (1,), param=theta).unitary())
    assert np.count_nonzero(entries) == (4 if clifford else 6)
    m = PauliMap.from_labels({"IXZ": 0.5, "ZYI": -0.25, "XZY": 0.8, "IIZ": 0.1})
    gates = [((1,), entries)]
    out, grouped = _grouped_targets(m, gates)
    assert grouped == (set() if clifford else {(1,)})
    assert _hex_terms(out) == _grouped_reference(m, gates)


def test_clifford_steps_never_write_the_input_map():
    # Terms move in place on a copy taken once per layer. The input must
    # keep its bytes, and every output be read-only, after a layer that
    # opens with a Clifford gate, mixed layers (one whose grouped gate moves
    # no term before a Clifford gate that does), and a layer whose Clifford
    # gate moves no term.
    rng = np.random.default_rng(7)
    m = PauliMap.from_labels({"XIZY": 0.5, "ZYII": -0.25, "IXXZ": 0.8, "YIIX": 0.1})
    idle = PauliMap.from_labels({"XIZY": 0.5, "ZIII": -0.25})
    cnot, cz, h = (circuits.FIXED_GATES[g] for g in ("CNOT", "CZ", "H"))
    cases = [
        (m, _layer(((0, 1), cnot), ((2,), haar_unitary(2, rng)), ((3,), h))),
        (m, _layer(((3, 1), haar_unitary(4, rng)), ((2, 0), cz))),
        (idle, _layer(((1,), haar_unitary(2, rng)), ((0,), h))),
        (idle, _layer(((1,), h))),
        (idle, _layer(((0, 2), haar_unitary(4, rng)), ((1,), h))),
    ]
    for src, gates in cases:
        before = [a.tobytes() for a in (src.x, src.z, src.coeffs)]
        out = conjugate_layer(src, gates)
        assert [a.tobytes() for a in (src.x, src.z, src.coeffs)] == before
        assert not any(a.flags.writeable for a in (out.x, out.z, out.coeffs))
        assert _hex_terms(out) == _grouped_reference(src, gates)
