import os
import tempfile
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadv import circuits, propagation as prop, statevector as sv
from qadv.circuits import BlockLayer, Circuit, ElementaryLayer, Gate, majority_gate
from qadv.detection import circuit_id
from qadv.errors import ResourceLimitExceeded
from qadv.pauli import (
    DROP_TOLERANCE,
    PauliMap,
    PauliString,
    conjugate_dense,
    weight_one_blocks,
)
from qadv.propagation import (
    PropagationConfig,
    backpropagate,
    block_unitary,
    evaluate_product_state,
    weight_one_pass,
    z_first,
)

import oracles
from oracles import circuit_unitary, conjugate_map_dense, haar_unitary


def _circ(n, *gate_layers):
    return Circuit(n, tuple(ElementaryLayer(tuple(gs)) for gs in gate_layers))


def test_identity_layers_leave_observable():
    c = _circ(3, [Gate("I", (0,)), Gate("I", (1,))], [Gate("I", (2,))])
    out = backpropagate(c, z_first(3), PropagationConfig(k=1))
    assert out.to_labels() == z_first(3).to_labels()


def test_cnot_keeps_z_on_control():
    c = _circ(2, [Gate("CNOT", (0, 1))])
    out = backpropagate(c, z_first(2), PropagationConfig(k=1))
    assert out.to_labels() == {"ZI": pytest.approx(1.0)}


def test_double_hadamard_truncates_zz():
    c = _circ(2, [Gate("H", (0,)), Gate("H", (1,))])
    o = PauliMap.from_labels({"ZZ": 1.0})
    out = backpropagate(c, o, PropagationConfig(k=1))
    assert out.to_labels() == {}


def test_initial_projection_applies_to_observable():
    c = Circuit(2, ())
    o = PauliMap.from_labels({"ZI": 0.6, "XX": 0.8})
    out = backpropagate(c, o, PropagationConfig(k=1))
    assert out.to_labels() == {"ZI": pytest.approx(0.6)}


def test_evaluate_product_state_examples():
    assert evaluate_product_state(PauliMap.from_labels({"ZII": 1.0}), "000") == 1.0
    assert evaluate_product_state(PauliMap.from_labels({"XII": 0.7}), "010") == 0.0
    assert evaluate_product_state(PauliMap.from_labels({"ZZI": 0.5}), "100") == -0.5


@pytest.mark.parametrize("bits", ["12", "0a0", "1 0", [0, 1, 2], [1, 0, -1]], ids=repr)
def test_evaluate_product_state_refuses_non_binary_bits(bits):
    # The heuristic must read an input as the oracle does: a digit other
    # than 0 or 1 is refused, not read as a 1.
    o = PauliMap.from_labels({"ZII": 1.0, "IZZ": 0.5})
    assert evaluate_product_state(o, [1, 0, 1]) == evaluate_product_state(o, "101") == -1.5
    with pytest.raises(ValueError):
        evaluate_product_state(o, bits)


def test_depth_zero_expectation():
    c = Circuit(2, ())
    o = backpropagate(c, z_first(2), PropagationConfig(k=1))
    assert evaluate_product_state(o, c.full_input("10")) == -1.0


def test_exact_mode_matches_statevector():
    # k = n makes the projection a no-op, so the backward evolution is exact.
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        layers = int(rng.integers(1, 9))
        c = circuits.random_brickwork(n, layers, seed=int(rng.integers(2**32)))
        cfg = PropagationConfig(k=n)
        o0 = backpropagate(c, z_first(n), cfg)
        fused = sv.fuse(c)
        for _ in range(3):
            x = "".join(str(b) for b in rng.integers(0, 2, n))
            heur = evaluate_product_state(o0, x)
            exact = 1 - 2 * sv.output_prob(fused, x)
            assert heur == pytest.approx(exact, abs=1e-9)


def _chain(c, o, k):
    """One-layer passes over a bare circuit, last layer first: the final map
    and the norms after the initial projection and after each layer."""
    cfg = PropagationConfig(k=k)
    acc = o.project_weight(k)
    norms = [acc.frobenius_normalized()]
    for layer in reversed(c.layers):
        acc = backpropagate(Circuit(c.n_qubits, (layer,)), acc, cfg)
        norms.append(acc.frobenius_normalized())
    return acc, norms


def test_norm_monotone_per_layer():
    rng = np.random.default_rng(23)
    cq, _ = circuits.promise_instance("x", 1)
    c = circuits.build_cnew(cq, n=4, depth=8, copies=1, seed=3)
    _, norms = _chain(c, z_first(c.n_qubits), 1)
    for before, after in zip(norms, norms[1:]):
        assert after <= before + 1e-9


def test_block_single_projection_semantics():
    # A block is one declared layer: conjugate through the whole block
    # unitary, then project once. Projecting between the block's internal
    # layers would give a different (wrong) result here.
    rng = np.random.default_rng(31)
    sub = _circ(
        2,
        [Gate("matrix", (0, 1), matrix=haar_unitary(4, rng))],
        [Gate("matrix", (0, 1), matrix=haar_unitary(4, rng))],
    )
    blk = Circuit(3, (BlockLayer("b", sub, (0, 1)),))
    cfg = PropagationConfig(k=1)
    got = backpropagate(blk, z_first(3), cfg)

    full = circuit_unitary(blk)
    expected_all = conjugate_map_dense(z_first(3), full)
    expected = {
        label: coeff
        for label, coeff in expected_all.items()
        if sum(ch != "I" for ch in label) <= 1
    }
    got_labels = got.to_labels()
    assert set(got_labels) == set(expected)
    for label, coeff in expected.items():
        assert got_labels[label] == pytest.approx(coeff, abs=1e-9)

    inlined = Circuit(3, (BlockLayer("g1", _circ(2, [sub.layers[0].gates[0]]), (0, 1)),
                          BlockLayer("g2", _circ(2, [sub.layers[1].gates[0]]), (0, 1))))
    per_gate = backpropagate(inlined, z_first(3), cfg)
    per_gate_labels = per_gate.to_labels()
    assert per_gate_labels != pytest.approx(got_labels)


def test_controlled_block_matches_dense_oracle():
    from oracles import embed

    cq, _ = circuits.promise_instance("x", 1)
    cnew = circuits.build_cnew(cq, n=2, depth=2, copies=1, seed=6)
    assert isinstance(cnew.layers[1], BlockLayer) and cnew.layers[1].control is not None
    rng = np.random.default_rng(8)
    sub = circuits.random_brickwork(3, 3, seed=9)
    sub = Circuit(3, sub.layers + (ElementaryLayer((
        Gate("matrix", (2, 0, 1), matrix=haar_unitary(8, rng)),)),))
    cases = {
        "build_cnew ctrl_inverse": (cnew.n_qubits, cnew.layers[1]),
        # Unsorted targets with the control between them.
        "unsorted targets": (6, BlockLayer("b", sub, (5, 1, 3), control=2)),
        "uncontrolled": (6, BlockLayer("b", sub, (4, 0, 2))),
    }
    for name, (n, block) in cases.items():
        support, u = block_unitary(block)
        assert support == tuple(sorted(block.support)), name
        want = circuit_unitary(Circuit(n, (block,)))
        assert np.abs(embed(u, list(support), n) - want).max() < 1e-12, name


def test_wide_perm_gate_backpropagates_densely():
    # The second gate has unsorted targets and its output below its voters.
    for n, g in ((4, majority_gate([0, 1, 2], 3)), (6, majority_gate([5, 1, 3], 0))):
        c = _circ(n, [g])
        got = backpropagate(c, z_first(n), PropagationConfig(k=n))
        expected = conjugate_map_dense(z_first(n), circuit_unitary(c))
        got_labels = got.to_labels()
        assert set(got_labels) == set(expected)
        for label, coeff in expected.items():
            assert got_labels[label] == pytest.approx(coeff, abs=1e-9)


def _ctrl_inverse_block(w: int) -> BlockLayer:
    """A controlled-inverse block on w qubits, the shape `build_cnew` makes."""
    bw = circuits.random_brickwork(w - 1, 6, seed=1)
    return BlockLayer("ctrl_inverse", bw.inverse(), tuple(range(w - 1)), control=w - 1)


def test_block_unitary_is_one_interpreter_pass(monkeypatch):
    # Count outermost calls only: a block re-enters _apply_layers for its
    # sub-circuit.
    real = sv._apply_layers
    depth, outer = 0, 0

    def counting(*args):
        nonlocal depth, outer
        outer += depth == 0
        depth += 1
        try:
            return real(*args)
        finally:
            depth -= 1

    monkeypatch.setattr(sv, "_apply_layers", counting)
    for layer in (_ctrl_inverse_block(5), ElementaryLayer((majority_gate([4, 0, 2], 1),))):
        outer = 0
        block_unitary(layer)
        assert outer == 1


def test_block_unitary_transient_memory():
    # The price of the batch axis: a controlled block holds the identity,
    # its copy and two half-size arrays of the control=1 slice (3.0x the
    # unitary's bytes); a perm gate holds three full-size arrays (3x).
    for layer in (_ctrl_inverse_block(10), ElementaryLayer((majority_gate(range(1, 10), 0),))):
        tracemalloc.start()
        try:
            _, u = block_unitary(layer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert u.nbytes == 16 * 4**10
        assert peak < 4 * u.nbytes


def test_block_limit_checked_before_building_unitary(monkeypatch):
    def refuse(block):
        raise AssertionError("block_unitary called for an oversized block")

    monkeypatch.setattr(prop, "block_unitary", refuse)
    sub = _circ(13, [Gate("H", (q,)) for q in range(13)])
    block = Circuit(14, (BlockLayer("wide", sub, tuple(range(13)), control=13),))
    wide_gate = _circ(13, [Gate("perm", tuple(range(13)), perm=tuple(range(2**13)))])
    for c in (block, wide_gate):
        with pytest.raises(ResourceLimitExceeded):
            backpropagate(c, z_first(c.n_qubits), PropagationConfig(k=1))


def test_transfer_matrices_memoized_per_backward_pass(monkeypatch):
    # Trotter-style: RX, CNOT and RZ layers repeated, so three distinct
    # unitaries across 4 * 3 * 2 = 24 gates. Each pass builds each once, in
    # one window: one call per gate width.
    n, steps = 4, 3
    layers = []
    for _ in range(steps):
        layers.append([Gate("RX", (q,), param=0.3) for q in range(n)])
        layers.append([Gate("CNOT", (q, q + 1)) for q in range(0, n, 2)])
        layers.append([Gate("RZ", (q,), param=0.7) for q in range(n)])
    c = _circ(n, *layers)
    calls = []
    real = prop.transfer_matrix

    def counting(u):
        calls.append([m.tobytes() for m in u])
        return real(u)

    monkeypatch.setattr(prop, "transfer_matrix", counting)
    cfg = PropagationConfig(k=n)
    first = backpropagate(c, z_first(n), cfg)
    built = [m for call in calls for m in call]
    assert len(calls) == 2 and len(built) == 3 and len(set(built)) == 3
    second = backpropagate(c, z_first(n), cfg)
    assert len(calls) == 4 and sorted(m for call in calls[2:] for m in call) == sorted(built)
    assert second.to_labels() == first.to_labels()


def test_mixed_width_layers_match_dense_route(monkeypatch):
    # Layers mixing 1-, 2- and 3-qubit matrix gates, with one unitary
    # repeated inside a layer and one repeated across layers: the pass
    # builds its distinct transfer matrices as one stack per gate width.
    rng = np.random.default_rng(83)
    u1, u2, v2, u3 = (haar_unitary(d, rng) for d in (2, 4, 4, 8))
    n = 6
    c = _circ(
        n,
        [Gate("matrix", (0,), matrix=u1), Gate("matrix", (1, 2), matrix=u2),
         Gate("matrix", (5, 3, 4), matrix=u3)],
        [Gate("matrix", (1, 0), matrix=u2), Gate("matrix", (2,), matrix=u1),
         Gate("matrix", (3,), matrix=u1), Gate("matrix", (4, 5), matrix=v2)],
    )
    shapes = []
    real = prop.transfer_matrix

    def recording(stack):
        shapes.append(stack.shape)
        return real(stack)

    monkeypatch.setattr(prop, "transfer_matrix", recording)
    o = PauliMap.from_labels({"ZIIIII": 1.0, "IXIIYI": 0.5, "IIZIIX": -0.3})
    got = backpropagate(c, o, PropagationConfig(k=n))
    assert sorted(shapes) == [(1, 2, 2), (1, 8, 8), (2, 4, 4)]
    expected = conjugate_map_dense(o, circuit_unitary(c))
    got_labels = got.to_labels()
    for label in set(got_labels) | set(expected):
        assert got_labels.get(label, 0.0) == pytest.approx(expected.get(label, 0.0), abs=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        PropagationConfig(k=0)


def test_accuracy_improves_with_k():
    # Over random 6-qubit brickworks the mean absolute error against the
    # exact value must not increase as k goes 1 -> 2 -> 3 (bootstrap check).
    rng = np.random.default_rng(41)
    n, trials = 6, 50
    errors = {1: [], 2: [], 3: []}
    for _ in range(trials):
        c = circuits.random_brickwork(n, 4, seed=int(rng.integers(2**32)))
        x = "".join(str(b) for b in rng.integers(0, 2, n))
        exact = 1 - 2 * sv.output_prob(c, x)
        for k in (1, 2, 3):
            o = backpropagate(c, z_first(n), PropagationConfig(k=k))
            val = evaluate_product_state(o, c.full_input(x))
            errors[k].append(abs(val - exact))
    e1, e2, e3 = (np.array(errors[k]) for k in (1, 2, 3))
    assert e1.mean() >= e2.mean() >= e3.mean()
    boot = np.random.default_rng(7)
    for hi, lo in ((e1, e2), (e2, e3)):
        diffs = []
        for _ in range(2000):
            idx = boot.integers(0, trials, trials)
            diffs.append(hi[idx].mean() - lo[idx].mean())
        # Non-increasing with 95% confidence: at most 5% of bootstrap
        # resamples may show an increase.
        assert np.mean(np.array(diffs) < 0) <= 0.05


def test_single_gate_decay_independent_monte_carlo():
    # One Haar two-qubit gate on Z x I, projected to weight <= 1: the mean
    # surviving normalized norm is 2/5. Computed here by dense conjugation
    # only (no propagation engine), as an independent check of the law.
    rng = np.random.default_rng(53)
    trials = 3000
    total = 0.0
    m = PauliMap.from_labels({"ZI": 1.0})
    for _ in range(trials):
        u = haar_unitary(4, rng)
        coeffs = conjugate_map_dense(m, u)
        total += sum(c**2 for label, c in coeffs.items() if sum(ch != "I" for ch in label) <= 1)
    assert total / trials == pytest.approx(0.4, abs=0.02)


def test_backprop_rejects_mismatched_widths():
    with pytest.raises(ValueError):
        backpropagate(Circuit(2, ()), z_first(3), PropagationConfig(k=1))


def test_yes_detection_circuit_heuristic_collapses():
    # At depth 60 on 3 main qubits (1-qubit promise circuit, 3 copies) the
    # truncated observable's evaluation must drop below 0.01 for every input.
    cq, _ = circuits.promise_instance("x", 1)
    cnew = circuits.build_cnew(cq, n=3, depth=60, copies=3, seed=5)
    cfg = PropagationConfig(k=1)
    o0 = prop.backpropagate(cnew, z_first(cnew.n_qubits), cfg)
    for x in ("000", "111", "010", "101"):
        val = evaluate_product_state(o0, x + "0000")
        assert abs(val) < 0.01


def test_round_trip_against_dense_oracle_six_qubits():
    rng = np.random.default_rng(61)
    n = 6
    terms = {}
    for _ in range(4):
        p = PauliString(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)))
        terms[p] = float(rng.normal())
    m = PauliMap(n, terms)
    from qadv.pauli import conjugate_layer, transfer_matrix
    from oracles import embed

    u_a, u_b, u_c = (haar_unitary(4, rng) for _ in range(3))
    layer = [((0, 1), transfer_matrix(u_a)), ((2, 3), transfer_matrix(u_b)),
             ((4, 5), transfer_matrix(u_c))]
    got = conjugate_layer(m, layer)
    full = embed(u_a, [0, 1], n) @ embed(u_b, [2, 3], n) @ embed(u_c, [4, 5], n)
    expected = conjugate_map_dense(m, full)
    got_labels = got.to_labels()
    assert set(got_labels) == set(expected)
    for label, coeff in expected.items():
        assert got_labels[label] == pytest.approx(coeff, abs=1e-9)


def test_multilayer_truncated_chain_matches_dense_route():
    # Full engine chain (conjugate, project, conjugate, project, ...) against
    # a brute-force route that conjugates dense matrices and projects by
    # explicit weight filtering after every layer.
    rng = np.random.default_rng(71)
    n, layers, k = 4, 3, 1
    c = circuits.random_brickwork(n, layers, seed=17)
    got = backpropagate(c, z_first(n), PropagationConfig(k=k))

    from oracles import embed, pauli_decompose, pauli_matrix

    coeffs = {"Z" + "I" * (n - 1): 1.0}
    for layer in reversed(c.layers):
        full = np.eye(2**n, dtype=complex)
        for g in layer.gates:
            full = embed(g.matrix, list(g.targets), n) @ full
        dense = sum(v * pauli_matrix(l) for l, v in coeffs.items())
        rotated = full.conj().T @ dense @ full
        coeffs = {
            label: v
            for label, v in pauli_decompose(rotated, n).items()
            if sum(ch != "I" for ch in label) <= k
        }
    got_labels = got.to_labels()
    assert set(got_labels) == set(coeffs)
    for label, v in coeffs.items():
        assert got_labels[label] == pytest.approx(v, abs=1e-9)


def _owner(entries: np.ndarray) -> np.ndarray:
    """The array that holds a transfer matrix's memory: its window's stack."""
    return entries.base


def test_one_shot_transfer_matrices_are_not_kept(monkeypatch):
    # With a window of one Haar layer, each window builds the matrices of
    # its distinct unitaries in one call per gate width and is dropped
    # before the next is built, so a pass holds one window's stack at a
    # time. A gate that recurs within a window is built once; one that
    # recurs across windows is built again, with the same bytes.
    shapes, owners, alive = [], [], []
    real_build, real_layer = prop.transfer_matrix, prop.conjugate_layer

    def build(stack):
        shapes.append(stack.shape)
        return real_build(stack)

    def layer(m, gates):
        gates = list(gates)
        owners.extend(weakref.ref(_owner(entries)) for _, entries in gates)
        alive.append(len({id(o) for r in owners if (o := r()) is not None}))
        return real_layer(m, gates)

    monkeypatch.setattr(prop, "transfer_matrix", build)
    monkeypatch.setattr(prop, "conjugate_layer", layer)
    monkeypatch.setattr(prop, "TRANSFER_WINDOW_BYTES", 3 * 8 * 4**4)
    backpropagate(circuits.random_brickwork(6, 5, seed=0), z_first(6), PropagationConfig(k=1))
    assert shapes == [(3, 4, 4)] * 5
    assert alive == [1] * 5
    shapes.clear()
    owners.clear()
    alive.clear()
    backpropagate(_circ(2, *[[Gate("CNOT", (0, 1))]] * 4), z_first(2), PropagationConfig(k=2))
    assert shapes == [(1, 4, 4)]
    assert alive == [1] * 4
    shapes.clear()
    owners.clear()
    alive.clear()
    # A CNOT layer after each Haar layer: the window holds a Haar layer or
    # a CNOT, not both, so the CNOT is built again in each of its windows.
    cnot = ElementaryLayer((Gate("CNOT", (0, 1)),))
    c = Circuit(6, tuple(layer for haar in circuits.random_brickwork(6, 4, seed=0).layers
                         for layer in (haar, cnot)))
    got = backpropagate(c, z_first(6), PropagationConfig(k=1))
    assert shapes == [(1, 4, 4), (3, 4, 4)] * 4
    assert alive == [1] * 8
    want, _ = oracles.backpropagate_per_layer(c, z_first(6), 1)
    for a, b in ((got.x, want.x), (got.z, want.z), (got.coeffs, want.coeffs)):
        assert a.tobytes() == b.tobytes()


def _blocks_and_wide_gate():
    # An uncontrolled block, a controlled block and a 4-qubit perm gate,
    # between Haar layers.
    rng = np.random.default_rng(5)
    sub = _circ(2, [Gate("matrix", (0, 1), matrix=haar_unitary(4, rng))])
    mixing = ElementaryLayer((Gate("matrix", (0, 1), matrix=haar_unitary(4, rng)),
                              Gate("matrix", (2, 3), matrix=haar_unitary(4, rng))))
    return Circuit(5, (
        mixing,
        BlockLayer("open", sub, (1, 2)),
        ElementaryLayer((majority_gate([0, 1, 2], 3),)),
        BlockLayer("controlled", sub, (3, 2), control=4),
        mixing,
    ))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_fused_circuit_propagates_bit_identically(k):
    c = _blocks_and_wide_gate()
    cfg = PropagationConfig(k=k)
    want = backpropagate(c, z_first(5), cfg)
    got = backpropagate(sv.fuse(c), z_first(5), cfg)
    for a, b in ((want.x, got.x), (want.z, got.z), (want.coeffs, got.coeffs)):
        assert a.tobytes() == b.tobytes()


def test_fused_circuit_lends_block_unitaries(monkeypatch):
    # Both blocks come from the fused circuit; only the wide gate is built.
    c = _blocks_and_wide_gate()
    fused = sv.fuse(c)
    assert set(fused.blocks) == {c.layers[1], c.layers[3]}
    assert all(any(op is f for f in fused.ops) for op in fused.blocks.values())
    built = []

    def counting(*layers):
        built.append(layers)
        return block_unitary(*layers)

    monkeypatch.setattr(prop, "block_unitary", counting)
    backpropagate(fused, z_first(5), PropagationConfig(k=2))
    assert [layer.gates for (layer,) in built] == [c.layers[2].gates]


_NAMED = {1: ["I", "X", "Y", "Z", "H", "S", "SDG", "RX", "RY", "RZ"], 2: ["CNOT", "CZ", "SWAP"]}


def _random_gate(rng, targets, pool) -> Gate:
    """A gate on ``targets``: named, a perm, or a matrix, fresh or drawn
    from ``pool`` so that it recurs."""
    w = len(targets)
    kind = rng.choice(["named"] * (w in _NAMED) + ["perm", "pool", "pool", "fresh"])
    if kind == "named":
        name = str(rng.choice(_NAMED[w]))
        param = float(rng.choice([0.3, -0.3, 1.1])) if name.startswith("R") else None
        return Gate(name, targets, param=param)
    if kind == "perm":
        return Gate("perm", targets, perm=tuple(rng.permutation(2**w)))
    u = pool[w][rng.integers(len(pool[w]))] if kind == "pool" else haar_unitary(2**w, rng)
    return Gate("matrix", targets, matrix=u)


def _random_layer(rng, n, pool) -> circuits.Layer:
    """Disjoint 1-3 qubit gates with some qubits idle, a perm gate on 4 or
    more qubits, or a block (controlled or not) of one or two such layers."""
    kinds = ["gates", "gates"] + ["block"] * (n >= 2) + ["wide"] * (n >= 4)
    kind = rng.choice(kinds)
    if kind == "wide":
        w = int(rng.integers(4, n + 1))
        targets = tuple(int(q) for q in rng.permutation(n)[:w])
        return ElementaryLayer((Gate("perm", targets, perm=tuple(rng.permutation(2**w))),))
    if kind == "block":
        order = [int(q) for q in rng.permutation(n)]
        w = int(rng.integers(1, min(3, n - 1) + 1))
        sub = Circuit(w, tuple(_random_layer(rng, w, pool) for _ in range(rng.integers(1, 3))))
        control = order[w] if rng.random() < 0.5 else None
        return BlockLayer("b", sub, tuple(order[:w]), control=control)
    qubits = [int(q) for q in rng.permutation(n)]
    gates = []
    while qubits:
        w = min(int(rng.integers(1, 4)), len(qubits))
        targets, qubits = tuple(qubits[:w]), qubits[w:]
        if rng.random() < 0.8:
            gates.append(_random_gate(rng, targets, pool))
    return ElementaryLayer(tuple(gates))


def _random_circuit_and_observable(n, seed):
    """A bare circuit of 1-8 `_random_layer`s, an observable of three random
    Pauli strings and a cutoff k in 1..n, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    pool = {w: [haar_unitary(2**w, rng)] for w in (1, 2, 3)}
    c = Circuit(n, tuple(_random_layer(rng, n, pool) for _ in range(rng.integers(1, 9))))
    labels = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(3)]
    o = PauliMap.from_labels({label: float(rng.normal()) for label in labels})
    return c, o, int(rng.integers(1, n + 1))


@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.sampled_from([1, 6 * 1024, 1 << 20]),
       st.booleans())
@settings(max_examples=60)
def test_windowed_pass_matches_the_per_layer_route(n, seed, window, fused):
    # Byte for byte against the per-layer builds, whatever the window: a
    # window of 1 byte builds every layer on its own, 6 KiB a few layers of
    # two-qubit gates at a time, 1 MiB the whole pass at once.
    c, o, k = _random_circuit_and_observable(n, seed)
    if fused:
        c = sv.fuse(c)
    with mock.patch.object(prop, "TRANSFER_WINDOW_BYTES", window):
        got = backpropagate(c, o, PropagationConfig(k=k))
    want, _ = oracles.backpropagate_per_layer(c, o, k)
    for a, b in ((got.x, want.x), (got.z, want.z), (got.coeffs, want.coeffs)):
        assert a.tobytes() == b.tobytes()


@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.sampled_from([1, 6 * 1024, 1 << 20]))
@settings(max_examples=60)
def test_pass_is_the_chain_of_its_one_layer_passes(n, seed, window):
    # A whole pass over a bare circuit is byte-equal to its one-layer passes
    # chained last layer first, whatever the window: the up-front
    # projection of a projected map keeps every term in order, and each
    # transfer matrix has the bytes of its one-matrix build. The chain's
    # norms are the per-layer reference's.
    c, o, k = _random_circuit_and_observable(n, seed)
    with mock.patch.object(prop, "TRANSFER_WINDOW_BYTES", window):
        whole = backpropagate(c, o, PropagationConfig(k=k))
        got, norms = _chain(c, o, k)
    want, want_norms = oracles.backpropagate_per_layer(c, o, k)
    assert norms == want_norms
    for a, b in ((whole.x, got.x), (whole.z, got.z), (whole.coeffs, got.coeffs)):
        assert a.tobytes() == b.tobytes()
    for a, b in ((got.x, want.x), (got.z, want.z), (got.coeffs, want.coeffs)):
        assert a.tobytes() == b.tobytes()


@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_exact_pass_matches_the_dense_oracle_on_generated_circuits(n, seed):
    # At k = n the projection keeps everything, so the pass is the exact
    # Heisenberg conjugation, whatever mix of gates, perms and blocks the
    # circuit holds. n = 6 takes seconds an example through the dense
    # oracle, so the property stops at 5.
    c, o, _ = _random_circuit_and_observable(n, seed)
    got = backpropagate(c, o, PropagationConfig(k=n)).to_labels()
    want = conjugate_map_dense(o, circuit_unitary(c))
    for label in set(got) | set(want):
        assert got.get(label, 0.0) == pytest.approx(want.get(label, 0.0), abs=1e-10)


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_output_prob_matches_the_dense_oracle_on_generated_circuits(n, seed):
    # For every input x, Pr[qubit 0 = 1] is the mass of the lower half of
    # column x of the circuit's unitary, whichever route output_prob takes.
    # About a quarter of the generated circuits sum out their first op's
    # spectators, but nearly all of those have no later op. So the circuit
    # also runs as a block followed by a gate on qubit 0 and a new last
    # qubit: from n = 3 its spectators 1..n-1 lie below a kept qubit, and
    # the later op is renumbered.
    c, _, _ = _random_circuit_and_observable(n, seed)
    gate = Gate("matrix", (0, n), matrix=haar_unitary(4, np.random.default_rng(seed)))
    wide = Circuit(n + 1, (BlockLayer("c", c, tuple(range(n))), ElementaryLayer((gate,))))
    for circuit in (c, wide):
        m = circuit.n_qubits
        fused = sv.fuse(circuit)
        want = np.sum(np.abs(circuit_unitary(circuit)[2 ** (m - 1) :]) ** 2, axis=0)
        for x in range(2**m):
            got = sv.output_prob(fused, format(x, f"0{m}b"))
            assert got == pytest.approx(want[x], abs=1e-12), (m, x)


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_fused_pass_is_the_bare_pass_byte_for_byte(n, seed):
    # Every block op that fuse does not derive is the same block_unitary
    # call that the bare passes make, so when fuse derives none, lending
    # its ops moves no byte of either pass. A derived op (a controlled
    # block that undoes the next run) is built another way, with other
    # rounding.
    c, o, k = _random_circuit_and_observable(n, seed)
    controlled_adjoint, derived = sv._controlled_adjoint, []

    def derive(control, op):
        derived.append(controlled_adjoint(control, op))
        return derived[-1]

    with mock.patch.object(sv, "_controlled_adjoint", derive):
        fused = sv.fuse(c)
    for layer, (support, u) in fused.blocks.items():
        if not any(u is v for _, v in derived):
            want_support, want_u = block_unitary(layer)
            assert support == want_support and u.tobytes() == want_u.tobytes()
    if derived:
        return
    got, want = (backpropagate(x, o, PropagationConfig(k=k)) for x in (fused, c))
    for a, b in ((got.x, want.x), (got.z, want.z), (got.coeffs, want.coeffs)):
        assert a.tobytes() == b.tobytes()
    assert weight_one_pass(fused, o).tobytes() == weight_one_pass(c, o).tobytes()


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_generated_circuit_survives_its_file(n, seed):
    # save_circuit then load_circuit gives back the same circuit: the same
    # file text, the same id, and at k = n the same backward pass byte for
    # byte, whatever mix of gates, perms and blocks it holds.
    c, o, _ = _random_circuit_and_observable(n, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        circuits.save_circuit(c, path)
        back = circuits.load_circuit(path)
    assert circuits.serialize_json(back) == circuits.serialize_json(c)
    assert circuit_id(back) == circuit_id(c)
    got, want = (backpropagate(x, o, PropagationConfig(k=n)) for x in (back, c))
    for a, b in ((got.x, want.x), (got.z, want.z), (got.coeffs, want.coeffs)):
        assert a.tobytes() == b.tobytes()


def _weight_one_labels(v: np.ndarray) -> dict[str, float]:
    """The nonzero entries of an (n, 3) weight-1 array as labels: row q,
    column a is X, Y or Z (a = 0, 1, 2) on qubit q."""
    n = len(v)
    return {"I" * q + "XYZ"[a] + "I" * (n - 1 - q): float(v[q, a]) for q, a in zip(*v.nonzero())}


def _assert_weight_one_close(v: np.ndarray, want: PauliMap, layers: int) -> None:
    """The sector array ``v`` against the weight-1 terms of a k = 1 map, to
    the suite check's tolerance: rtol 1e-12, and per layer twice sqrt(3n)
    times the drop tolerance, since either pass may drop at a layer what
    the other keeps."""
    n = len(v)
    got = _weight_one_labels(v)
    ref = {p: c for p, c in want.to_labels().items() if p.count("I") == n - 1}
    atol = 2 * layers * np.sqrt(3 * n) * DROP_TOLERANCE
    for label in set(got) | set(ref):
        assert got.get(label, 0.0) == pytest.approx(ref.get(label, 0.0), rel=1e-12, abs=atol)


def test_sector_holds_the_weight_one_terms():
    o = PauliMap.from_labels({"XII": 1.0, "IYI": 2.0, "IIZ": 3.0, "ZZI": 4.0, "III": 5.0})
    assert prop._sector(o).tolist() == [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    v = np.random.default_rng(0).normal(size=(5, 3))
    assert prop._sector(PauliMap.from_labels(_weight_one_labels(v))).tolist() == v.tolist()


@pytest.mark.parametrize("w", [1, 2, 3, 5])
def test_dense_sector_step_is_the_projected_dense_conjugation(w):
    # A Haar unitary on w of 6 qubits in unsorted order, with weight-1
    # terms on every qubit: on the support the step is the weight-1 part of
    # conjugate_dense's output; off it the rows stay.
    rng = np.random.default_rng(w)
    support = tuple(int(q) for q in rng.permutation(6)[:w])
    u = haar_unitary(2**w, rng)
    v = rng.normal(size=(6, 3))
    want = conjugate_dense(PauliMap.from_labels(_weight_one_labels(v)), u, support)
    prop._dense_step(v, support, u)
    _assert_weight_one_close(v, want, 1)


@pytest.mark.parametrize("w", [1, 2, 3])
def test_unitary_step_is_the_block_step(w):
    # Random w-qubit unitaries on shuffled disjoint targets of 7 qubits, in
    # a (3, 2, g, d, d) stack whose every leading index has its own rows:
    # the step from the unitaries is the step through their weight-1
    # blocks, to rounding. A qubit that no gate targets keeps its row.
    rng = np.random.default_rng(10 + w)
    n, d = 7, 2**w
    g = n // w
    targets = rng.permutation(n)[:g * w].reshape(g, w)
    u = np.stack([haar_unitary(d, rng) for _ in range(6 * g)]).reshape(3, 2, g, d, d)
    v = rng.normal(size=(3, 2, n, 3))
    want = v.copy()
    blocks = weight_one_blocks(u.reshape(-1, d, d)).reshape(3, 2, g, 3 * w, 3 * w)
    prop.weight_one_step(want, targets, blocks)
    prop.unitary_step(v, targets, u)
    np.testing.assert_allclose(v, want, rtol=0, atol=1e-14)


def test_unitary_step_gives_a_gate_the_same_bytes_in_any_stack():
    # Decay's shape: trials of four Haar gates on 8 qubits, one pair
    # wrapping around. A trial's rows come out as the same floats alone,
    # in each stack of 7 and in one stack of all 38, and so does each gate
    # stepped on its own (a stack of one gate, where numpy drops every
    # leading axis).
    rng = np.random.default_rng(5)
    targets = np.array([[1, 2], [3, 4], [5, 6], [7, 0]])
    u = circuits.haar_two_qubit(rng, 38 * 4).reshape(38, 4, 4, 4)
    v = rng.normal(size=(38, 8, 3))
    whole = v.copy()
    prop.unitary_step(whole, targets, u)
    for size in (1, 7):
        for start in range(0, 38, size):
            part = v[start:start + size].copy()
            prop.unitary_step(part, targets, u[start:start + size])
            assert part.tobytes() == whole[start:start + size].tobytes()
    for t in range(38):
        part = v[t].copy()
        for i in range(4):
            prop.unitary_step(part, targets[i:i + 1], u[t, i:i + 1])
        assert part.tobytes() == whole[t].tobytes()


@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60)
def test_weight_one_pass_matches_backpropagate_at_k_1(n, seed, fused):
    # Shallow circuits (at most 6 layers) of the generator's named, perm
    # and matrix gates of 1-3 qubits, perm gates on 4 or more, and bare,
    # controlled and nested blocks, so the weight-1 map survives; the
    # observable adds a weight-1 term on every qubit and letter to the
    # generator's three strings. The sector sums in another order than the
    # Pauli kernels, so the match is to a tolerance, not in bytes.
    c, o, _ = _random_circuit_and_observable(n, seed)
    c = Circuit(n, c.layers[:6])
    terms = o.to_labels()
    extra = _weight_one_labels(np.random.default_rng(seed).normal(size=(n, 3)))
    for label, coeff in extra.items():
        terms[label] = terms.get(label, 0.0) + coeff
    o = PauliMap.from_labels(terms)
    if fused:
        c = sv.fuse(c)
    got = weight_one_pass(c, o)
    _assert_weight_one_close(got, backpropagate(c, o, PropagationConfig(k=1)), len(c.layers))


def test_weight_one_pass_empties_where_backpropagate_does():
    # 100 Haar brickwork layers take the weight-1 mass to about 0.4^100;
    # both passes drop it at the tolerance after each layer, so both maps
    # are exactly empty, as at the suite's default depth.
    c = circuits.random_brickwork(6, 100, seed=3)
    assert len(backpropagate(c, z_first(6), PropagationConfig(k=1))) == 0
    assert not weight_one_pass(c, z_first(6)).any()


@pytest.mark.parametrize("window", [1, 6 * 1024, 1 << 20])
def test_weight_one_pass_windows_give_the_same_bytes(window):
    # Each block has the bytes of its one-block build, so the window that
    # builds it does not matter: 1 byte builds every layer on its own.
    c = _three_qubit_haar(6, 12)
    c = Circuit(6, c.layers + circuits.random_brickwork(6, 12, seed=1).layers)
    o = PauliMap.from_labels(_weight_one_labels(np.random.default_rng(2).normal(size=(6, 3))))
    with mock.patch.object(prop, "TRANSFER_WINDOW_BYTES", window):
        got = weight_one_pass(c, o)
    assert got.any()
    assert got.tobytes() == weight_one_pass(c, o).tobytes()
    _assert_weight_one_close(got, backpropagate(c, o, PropagationConfig(k=1)), len(c.layers))


@pytest.mark.parametrize("k", [1, 2])
def test_window_stacks_are_released_before_the_next_build(monkeypatch, k):
    # A window of one Haar layer: by the time a pass builds the next
    # window's stack, no earlier stack is alive, in the sector pass (k = 1)
    # and in backpropagate (k = 2). Each stack is weakly held through the
    # array that owns its memory, which its views keep alive.
    owners = []

    def spy(real):
        def build(u):
            assert [r for r in owners if r() is not None] == []
            out = real(u)
            owners.append(weakref.ref(out if out.base is None else out.base))
            return out
        return build

    monkeypatch.setattr(prop, "transfer_matrix", spy(prop.transfer_matrix))
    monkeypatch.setattr(prop, "weight_one_blocks", spy(prop.weight_one_blocks))
    monkeypatch.setattr(prop, "TRANSFER_WINDOW_BYTES", 1)
    c = circuits.random_brickwork(6, 5, seed=0)
    if k == 1:
        weight_one_pass(c, z_first(6))
    else:
        backpropagate(c, z_first(6), PropagationConfig(k=k))
    assert len(owners) == 5


def _three_qubit_haar(n: int, depth: int) -> Circuit:
    rng = np.random.default_rng(depth)
    return _circ(n, *[[Gate("matrix", (q, q + 1, q + 2), matrix=haar_unitary(8, rng))
                       for q in range(0, n, 3)] for _ in range(depth)])


@pytest.mark.parametrize("n", [3, 6])
def test_windowed_pass_memory_is_bounded_by_the_window(n):
    # Depths 40 and 400 of fresh three-qubit Haar gates (32 KiB a transfer
    # matrix), one or two a layer: the deeper pass builds ten times as many
    # matrices in windows of TRANSFER_WINDOW_BYTES, so its peak barely
    # grows. The slack covers the build's fixed transient (two 1 MiB
    # complex arrays for a chunk of 16 three-qubit matrices) and the maps.
    slack = 3 * 2**20
    peaks = []
    for depth in (40, 400):
        c = _three_qubit_haar(n, depth)
        tracemalloc.start()
        try:
            backpropagate(c, z_first(n), PropagationConfig(k=2))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] <= 1.25
    assert max(peaks) < prop.TRANSFER_WINDOW_BYTES + slack


def test_weight_one_pass_memory_is_bounded_by_the_window():
    # The sector pass builds its 9 x 9 blocks (648 B each) in windows too:
    # at a 16 KiB window, depth 400 of fresh three-qubit Haar gates takes
    # ten times the windows of depth 40 and about the same peak, which the
    # build's fixed transient (about 1 MiB for a chunk of 16 three-qubit
    # gates) sets. All 800 blocks at once would add 0.5 MiB.
    peaks = []
    for depth in (40, 400):
        c = _three_qubit_haar(6, depth)
        with mock.patch.object(prop, "TRANSFER_WINDOW_BYTES", 16 * 1024):
            tracemalloc.start()
            try:
                weight_one_pass(c, z_first(6))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] / peaks[0] <= 1.25
