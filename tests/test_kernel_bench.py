"""Micro-benchmarks of the propagation, statevector and sampling kernels
(pytest-benchmark).

Timing is off by default (see ``conftest.py``): each kernel runs once as a
plain correctness test. Run ``pytest tests/test_kernel_bench.py
--benchmark-enable`` for timings. Every benchmark asserts that its kernel
preserves the Pauli-2 norm, gives the bytes of the lexsort group-and-scatter
step (its terms, within a stated bound, for the rounds of one-qubit gates),
gives the norms of the backward pass, makes Haar unitaries with the bytes
of one-matrix conversions, gives the bytes of the per-layer
transfer-matrix builds, matches the backward pass in the weight-1 sector,
builds a unitary, builds the
adjoint's bytes, gives the bytes of the sliced full transfer-matrix build,
matches the gate-by-gate interpreter, draws what the lockstep tree descent
draws (or, where a bucket is crowded, the count of prefixes at or below r),
estimates what the one-shot estimator estimates, or succeeds as often
as the closed form says.
"""

import hashlib
import math
from itertools import combinations

import numpy as np
import pytest

from qadv import circuits, detection, pauli, propagation, sensing, sq, statevector
from qadv.pauli import (
    DROP_TOLERANCE,
    PauliMap,
    conjugate_layer,
    transfer_matrix,
    weight_one_blocks,
)
from qadv.propagation import (
    PropagationConfig,
    backpropagate,
    block_unitary,
    weight_one_pass,
    z_first,
)

import oracles
from oracles import (
    apply_matrix_moveaxis,
    haar_unitary,
    inner_product_estimate_one_shot,
    sample_many_lockstep,
    separable_success_closed_form,
    sorted_uniforms_one_shot,
)

N_WIDE = 24


def _all_low_weight(n: int, rng: np.random.Generator) -> PauliMap:
    """Every Pauli string of weight 1 or 2 on n qubits with random
    coefficients: the steady-state map of k=2 propagation through Haar
    brickwork (2,556 terms at n=24)."""
    terms = {}
    for support in [(q,) for q in range(n)] + list(combinations(range(n), 2)):
        for digits in np.ndindex(*(3,) * len(support)):
            letters = ["I"] * n
            for q, d in zip(support, digits):
                letters[q] = "XYZ"[d]
            terms["".join(letters)] = float(rng.normal())
    return PauliMap.from_labels(terms)


def test_conjugate_layer_wide_step(benchmark):
    rng = np.random.default_rng(0)
    m = _all_low_weight(N_WIDE, rng)
    assert len(m) == 2556
    layer = [((q, q + 1), transfer_matrix(haar_unitary(4, rng))) for q in range(0, N_WIDE, 2)]
    out = benchmark(conjugate_layer, m, layer)
    assert out.frobenius_normalized() == pytest.approx(m.frobenius_normalized(), rel=1e-12)


def test_conjugate_layer_trotter_step(benchmark):
    # One RX layer on all 24 qubits over 1,500 random strings of weight 1-4,
    # the trotter workload's shape: 24 one-qubit rotations, which step
    # together in at most 4 rounds, one merge each. The rounds sum in
    # another order than the gate-by-gate grouped step, so the terms are
    # its terms and the coefficients lie within oracles.ROUNDS_RTOL of its
    # own; the route's bytes are pinned (the transfer matrix comes from a
    # matmul, so another numpy build may need the digest re-taken).
    rng = np.random.default_rng(5)
    pairs = {}
    while len(pairs) < 1500:
        support = rng.choice(N_WIDE, size=rng.integers(1, 5), replace=False)
        digits = rng.integers(1, 4, size=len(support))
        x = sum(int(d != 3) << int(q) for q, d in zip(support, digits))
        z = sum(int(d != 1) << int(q) for q, d in zip(support, digits))
        pairs[(x, z)] = None
    m = PauliMap._from_masks(N_WIDE, [p[0] for p in pairs], [p[1] for p in pairs],
                             rng.normal(size=len(pairs)))
    rx = transfer_matrix(circuits.Gate("RX", (0,), param=0.9).unitary())
    layer = [((q,), rx) for q in range(N_WIDE)]
    out = benchmark(conjugate_layer, m, layer)
    assert out.frobenius_normalized() == pytest.approx(m.frobenius_normalized(), rel=1e-12)
    x, z, c = m.x, m.z, m.coeffs
    for targets, entries in layer:
        x, z, c = oracles._conjugate_terms(x, z, c, targets, lambda rows: rows @ entries[:, 1:])
    want = PauliMap._from_arrays(N_WIDE, x, z, c, pauli.DROP_TOLERANCE)
    oracles.assert_terms_close(out, want, np.abs(m.coeffs).max())
    h = hashlib.sha256()
    for a in (out.x, out.z, out.coeffs):
        h.update(a.tobytes())
    assert h.hexdigest() == "32d520c206258ae51023c48a95331c5c46b20e83e4f70883f3cc35766994e2e8"


def _trotter_map(rng) -> PauliMap:
    """1,500 random strings of weight 1-4 on 24 qubits with random
    coefficients: the trotter workload's map shape."""
    pairs = {}
    while len(pairs) < 1500:
        support = rng.choice(N_WIDE, size=rng.integers(1, 5), replace=False)
        digits = rng.integers(1, 4, size=len(support))
        x = sum(int(d != 3) << int(q) for q, d in zip(support, digits))
        z = sum(int(d != 1) << int(q) for q, d in zip(support, digits))
        pairs[(x, z)] = None
    return PauliMap._from_masks(N_WIDE, [p[0] for p in pairs], [p[1] for p in pairs],
                                rng.normal(size=len(pairs)))


def test_conjugate_layer_cnot_layer(benchmark):
    # One CNOT layer of the trotter workload over its map shape: 12 CNOTs,
    # each a signed permutation that moves its terms in place. The terms and
    # coefficient bytes are those of the grouped step, in another order.
    m = _trotter_map(np.random.default_rng(6))
    cnot = transfer_matrix(circuits.FIXED_GATES["CNOT"])
    layer = [((q, q + 1), cnot) for q in range(0, N_WIDE, 2)]
    out = benchmark(conjugate_layer, m, layer)
    x, z, c = m.x, m.z, m.coeffs
    for targets, entries in layer:
        x, z, c = oracles._conjugate_terms(x, z, c, targets, lambda rows: rows @ entries[:, 1:])
    want = PauliMap._from_arrays(N_WIDE, x, z, c, pauli.DROP_TOLERANCE)
    assert len(out) == len(want) == len(m)
    got_order = np.lexsort((out.z, out.x))
    want_order = np.lexsort((want.z, want.x))
    for got, ref in ((out.x, want.x), (out.z, want.z), (out.coeffs, want.coeffs)):
        assert got[got_order].tobytes() == ref[want_order].tobytes()


def _assert_gate_by_gate(out, m, layer):
    want = oracles.conjugate_layer_gate_by_gate(m, layer)
    for got, ref in ((out.x, want.x), (out.z, want.z), (out.coeffs, want.coeffs)):
        assert got.tobytes() == ref.tobytes()


def test_conjugate_layer_h_layer(benchmark):
    # H on all 24 qubits over the trotter map shape. H's entries are
    # +-(1 - 2^-52), not +-1, so each gate takes a pass of its own: the
    # layer's slowest Clifford shape. The terms have the gate-by-gate
    # step's bytes, in its order.
    m = _trotter_map(np.random.default_rng(7))
    h = transfer_matrix(circuits.FIXED_GATES["H"])
    layer = [((q,), h) for q in range(N_WIDE)]
    out = benchmark(conjugate_layer, m, layer)
    _assert_gate_by_gate(out, m, layer)


def test_conjugate_layer_scattered_cz_layer(benchmark):
    # CZ on 12 random pairs of the 24 qubits over the trotter map shape: the
    # pairs' target offsets all differ, so each gate takes a pass of its
    # own. The terms have the gate-by-gate step's bytes, in its order.
    rng = np.random.default_rng(10)
    m = _trotter_map(rng)
    qubits = rng.permutation(N_WIDE).tolist()
    cz = transfer_matrix(circuits.FIXED_GATES["CZ"])
    layer = [((qubits[i], qubits[i + 1]), cz) for i in range(0, N_WIDE, 2)]
    assert len({b - a for (a, b), _ in layer}) == 12
    out = benchmark(conjugate_layer, m, layer)
    _assert_gate_by_gate(out, m, layer)

def test_decay_sector_step(benchmark):
    # One layer of the decay Monte Carlo in the weight-1 sector at its
    # shape: 32 trials at n = 8, each drawing its own four Haar gates. Each
    # trial's norms match its one-layer backward pass to the tolerance of
    # the run's own trial-0 check. Timed, it took 2.1 ms median against
    # 2.8 ms with the 6 x 6 block builds it replaced (paired runs, 2-vCPU
    # x86_64 VM under load).
    n, trials = 8, 32
    seeds = np.random.SeedSequence(3).spawn(trials)
    got = benchmark(detection._sector_norms, n, 1, seeds)
    cfg = PropagationConfig(k=1)
    for ss, row in zip(seeds, got):
        final = backpropagate(circuits.random_brickwork(n, 1, seed=ss), z_first(n), cfg)
        want = [1.0, final.frobenius_normalized()]
        np.testing.assert_allclose(row, want, rtol=1e-12, atol=2 * math.sqrt(3 * n) * DROP_TOLERANCE)


@pytest.mark.parametrize("count", [152, 1520])
def test_haar_from_ginibre(benchmark, count):
    # The decay chunk's conversion at n = 8, L = 10: one layer of 38 trials
    # (152 gates), and the whole chunk (1,520) in one call, as
    # `detection._sector_norms` makes it. Each round converts a fresh copy
    # in place; every matrix comes out unitary, with the bytes it has when
    # made on its own.
    z = circuits.ginibre_two_qubit(np.random.default_rng(7), count)

    def fresh():
        return (z.copy(),), {}

    got = benchmark.pedantic(circuits.haar_from_ginibre, setup=fresh, rounds=200)
    pauli.check_unitary(got)
    want = np.stack([circuits.haar_from_ginibre(m.copy()) for m in z[:: count // 38]])
    assert got[:: count // 38].tobytes() == want.tobytes()


def test_backpropagate_suite_shape(benchmark):
    # One k = 1 backward pass over the fused suite-shape C_new (n=6, m=2,
    # copies=3, L=78), its block ops lent: the 234 brickwork gates build
    # their transfer matrices in one window. It gives the bytes of the
    # per-layer builds, whose norms decay from 1 to below the drop
    # tolerance, where the map empties.
    cq, _ = circuits.promise_instance("x", 2)
    fused = statevector.fuse(circuits.build_cnew(cq, n=6, depth=78, copies=3, seed=0))
    o = z_first(fused.n_qubits)
    got = benchmark(backpropagate, fused, o, PropagationConfig(k=1))
    want, want_norms = oracles.backpropagate_per_layer(fused, o, 1)
    assert sum(v > 0 for v in want_norms) > 20
    for a, b in ((got.x, want.x), (got.z, want.z), (got.coeffs, want.coeffs)):
        assert a.tobytes() == b.tobytes()


def test_weight_one_pass_suite_shape(benchmark):
    # The k = 1 heuristic of one suite-shape detect: the weight-1 sector
    # pass over the fused C_new of `test_backpropagate_suite_shape`. Its 234
    # gates' 6 x 6 blocks come from one build, and its map empties as the
    # backward pass's does. At depth 8 the map survives, and its
    # coefficients match the backward pass's to the suite check's
    # tolerance.
    cq, _ = circuits.promise_instance("x", 2)
    for depth in (78, 8):
        fused = statevector.fuse(circuits.build_cnew(cq, n=6, depth=depth, copies=3, seed=0))
        o = z_first(fused.n_qubits)
        got = benchmark(weight_one_pass, fused, o) if depth == 78 else weight_one_pass(fused, o)
        want = backpropagate(fused, o, PropagationConfig(k=1))
        assert got.any() == (depth == 8) and len(want) == np.count_nonzero(got)
        atol = 2 * len(fused.layers) * math.sqrt(3 * fused.n_qubits) * DROP_TOLERANCE
        np.testing.assert_allclose(got, propagation._sector(want), rtol=1e-12, atol=atol)


def test_transfer_matrix_two_qubit(benchmark):
    rng = np.random.default_rng(1)

    def fresh():
        return (haar_unitary(4, rng),), {}

    tm = benchmark.pedantic(transfer_matrix, setup=fresh, rounds=500)
    assert np.abs(tm @ tm.T - np.eye(16)).max() < 1e-12


def test_transfer_matrix_weight_one_block(benchmark):
    # One layer of a decay chunk at n = 8, L = 10: 38 trials of four Haar
    # gates, each narrowed to its 6 x 6 weight-1 block.
    stack = circuits.haar_two_qubit(np.random.default_rng(6), 152)
    w = pauli._WEIGHT_ONE[2]
    got = benchmark(weight_one_blocks, stack)
    assert got.tobytes() == transfer_matrix(stack)[:, w[:, None], w].tobytes()


def test_block_unitary_suite_block(benchmark):
    # The suite shape (n=6, m=2, copies=3, L=78): the controlled inverse
    # brickwork is a 7-qubit block of 78 layers.
    cq, _ = circuits.promise_instance("x", 2)
    block = circuits.build_cnew(cq, n=6, depth=78, copies=3, seed=0).layers[1]
    assert block.name == "ctrl_inverse" and len(block.support) == 7
    assert len(block.circuit.layers) == 78
    support, u = benchmark(block_unitary, block)
    assert support == tuple(sorted(block.support))
    assert np.abs(u @ u.conj().T - np.eye(2**7)).max() < 1e-12


def test_build_cnew_suite_shape(benchmark):
    # The suite shape's C_new: the brickwork, its inverse (one stacked
    # unitarity check) and the amplified instance.
    cq, _ = circuits.promise_instance("x", 2)
    cnew = benchmark(circuits.build_cnew, cq, n=6, depth=78, copies=3, seed=0)
    assert cnew.n_qubits == 13 and len(cnew.layers) == 80
    inverse = cnew.layers[1].circuit
    for inv_layer, layer in zip(inverse.layers, reversed(cnew.layers[2:]), strict=True):
        for gi, g in zip(inv_layer.gates, layer.gates, strict=True):
            assert gi.matrix.tobytes() == g.adjoint().matrix.tobytes()


@pytest.mark.parametrize("axes", [(2, 3), (5, 0)], ids=["reshaped", "transposed"])
def test_apply_matrix_suite_shapes(benchmark, axes):
    # One 4 x 4 gate on the open run's tensor as `block_unitary` holds it:
    # 6 qubit axes and the identity's 64 columns. Axes (2, 3) are
    # consecutive and ascending, so the tensor is reshaped and multiplied in
    # place; the brickwork's wrap pair (5, 0) takes the transposing route.
    rng = np.random.default_rng(3)
    shape = (2,) * 6 + (64,)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    u = haar_unitary(4, rng)
    got = benchmark(statevector._apply_matrix, arr, u, axes)
    assert np.abs(got - apply_matrix_moveaxis(arr, u, axes)).max() <= 1e-14


def test_fuse_suite_shape(benchmark, monkeypatch):
    # Compiling the suite shape's C_new: the amplified block and the open
    # run, each one dense op built by the interpreter, and the controlled
    # inverse, whose op is placed from the open run's adjoint. Every op
    # agrees with the one the transposing route builds.
    cq, _ = circuits.promise_instance("x", 2)
    cnew = circuits.build_cnew(cq, n=6, depth=78, copies=3, seed=0)
    fused = benchmark(statevector.fuse, cnew)
    with monkeypatch.context() as m:
        m.setattr(statevector, "_apply_matrix", apply_matrix_moveaxis)
        reference = statevector.fuse(cnew)
    for (support, u), (want_support, want) in zip(fused.ops, reference.ops, strict=True):
        assert support == want_support and np.abs(u - want).max() <= 1e-14
    assert [len(support) for support, _ in fused.ops] == [7, 7, 6]
    amplified, ctrl = cnew.layers[:2]
    assert np.array_equal(fused.blocks[amplified][1], block_unitary(amplified)[1])
    run_support, run = fused.ops[2]
    assert np.array_equal(run, block_unitary(*cnew.layers[2:])[1])
    # Control (qubit 12) last: identity on its 0 rows, the run's adjoint on its 1 rows.
    support, u = fused.blocks[ctrl]
    assert support == (*run_support, 12)
    want = np.zeros((128, 128), dtype=complex)
    want[0::2, 0::2] = np.eye(64)
    want[1::2, 1::2] = run.conj().T
    assert u.tobytes() == want.tobytes()
    assert np.abs(u - block_unitary(ctrl)[1]).max() < 1e-12
    for _, u in fused.ops:
        assert np.abs(u @ u.conj().T - np.eye(len(u))).max() < 1e-12


def test_output_prob_fused_suite_shape(benchmark, monkeypatch):
    # The exact side of one suite-shape detect: 32 inputs through one fused
    # C_new (13 qubits: three ops on 7, 7 and 6 qubits). Every probability
    # agrees with the one the transposing route gives.
    cq, _ = circuits.promise_instance("x", 2)
    cnew = circuits.build_cnew(cq, n=6, depth=78, copies=3, seed=0)
    fused = statevector.fuse(cnew)
    assert sorted(len(support) for support, _ in fused.ops) == [6, 7, 7]
    rng = np.random.default_rng(2)
    xs = ["".join(str(b) for b in rng.integers(0, 2, 6)) for _ in range(32)]
    got = benchmark(lambda: [statevector.output_prob(fused, x) for x in xs])
    with monkeypatch.context() as m:
        m.setattr(statevector, "_apply_matrix", apply_matrix_moveaxis)
        reference = statevector.fuse(cnew)
        want = [statevector.output_prob(reference, x) for x in xs]
    assert np.abs(np.subtract(got, want)).max() <= 1e-14
    n = cnew.n_qubits
    for x, prob in zip(xs, got):
        # Unfused reference: the interpreter, gate by gate, on the basis state.
        state = statevector.prepare_basis(n, cnew.full_input(x)).amplitudes
        out = statevector._apply_layers(state.reshape((2,) * n), cnew.layers, range(n))
        assert prob == pytest.approx(np.sum(np.abs(out[1]) ** 2), abs=1e-12)


def test_sample_many_2_20(benchmark):
    # The sampling workload's shape: 10^6 draws on a 2^20 tree, at sorted
    # uniforms, largest first, as `sq._index_blocks` sends them.
    rng = np.random.default_rng(4)
    v = sq.build(rng.standard_normal(1 << 20), normalize=True)
    rs = sorted_uniforms_one_shot(10**6, rng)
    got = benchmark(sq.sample_many, v, rs)
    part = slice(3 * sq._LANES - 5, 3 * sq._LANES + 40_000)
    assert np.array_equal(got[part], sample_many_lockstep(v, rs[part]))


def test_sample_many_spiked_2_20(benchmark):
    # The guide's worst case: 10^6 draws that all land in bucket 0, among
    # the 2^18 entries before a spike, so nearly every one goes to the
    # binary search after `_GUIDE_STEPS` steps. The uniforms come sorted,
    # largest first, as `sq._index_blocks` sends them.
    n = 1 << 20
    x = np.full(n, 1e-7)
    x[n // 4] = 1.0
    v = sq.build(x, normalize=True)
    rs = v.cdf[n // 4 - 1] * sorted_uniforms_one_shot(10**6, np.random.default_rng(5))
    got = benchmark(sq.sample_many, v, rs)
    assert np.array_equal(got, np.searchsorted(v.cdf, rs * min(v.cdf[-1], 1.0), side="right"))


def test_inner_product_estimate_2_20(benchmark):
    # The sampling workload's estimate: 10^6 samples on a 2^20 tree, drawn
    # in blocks; each round starts from the same seed.
    rng = np.random.default_rng(6)
    x = sq.build(rng.standard_normal(1 << 20), normalize=True)
    y = sq.build(rng.standard_normal(1 << 20), normalize=True).values
    got = benchmark(lambda: sq.inner_product_estimate(x, y, 10**6, np.random.default_rng(7)))
    want = inner_product_estimate_one_shot(x, y, 10**6, np.random.default_rng(7))
    assert (got.estimate, got.stderr, got.sample_variance) == want


def test_sample_counts_2_20(benchmark):
    # `dequant sample`'s path at the sampling workload's shape: the counts
    # of 10^6 draws on a 2^20 table, one multinomial over the entries of
    # nonzero mass; each round starts from the same seed.
    x = sq.build(np.random.default_rng(8).standard_normal(1 << 20), normalize=True)
    got = benchmark(lambda: sq.sample_counts(x, 10**6, np.random.default_rng(9)))
    p = np.square(x.values)
    hit = np.flatnonzero(p)
    want = np.zeros(x.dim, dtype=np.int64)
    want[hit] = np.random.default_rng(9).multinomial(10**6, p[hit] / p[hit].sum())
    assert got.tobytes() == want.tobytes()


def test_separable_cell_600_trials(benchmark):
    # One cell of the sampling workload's separable scan near its stopping
    # point: 600 trials of K = 150 shots with R = 5 uses each.
    theta, gamma, k, trials = 0.02, 0.2, 150, 600
    args = ("separable", 1, theta, gamma, 1, k, trials)
    cell = benchmark(sensing._run_cell, args, np.random.SeedSequence(5))
    r = sensing.default_uses_per_shot(gamma)
    bias = sensing.separable_bias(theta, gamma, r)
    want = separable_success_closed_form(k, 0.5 + bias / 2, bias)
    assert abs(cell.success - want) < 4 * math.sqrt(want * (1 - want) / trials)
