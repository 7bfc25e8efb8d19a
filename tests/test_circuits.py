import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from qadv import circuits
from qadv import statevector as sv
from qadv.circuits import (
    FIXED_GATES,
    PARAM_GATES,
    BlockLayer,
    Circuit,
    ElementaryLayer,
    Gate,
    amplify,
    build_cnew,
    deserialize,
    ginibre_two_qubit,
    haar_from_ginibre,
    haar_two_qubit,
    majority_gate,
    promise_instance,
    random_brickwork,
    serialize_json,
)
from qadv.detection import circuit_id
from qadv.errors import SchemaError
from qadv.pauli import NonUnitaryError, check_unitary
from qadv.propagation import unitary_step

from oracles import circuit_unitary, haar_unitary


# ---------------------------------------------------------------------------
# Haar sampling


def test_haar_unitarity():
    rng = np.random.default_rng(0)
    for u in haar_two_qubit(rng, 50):
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10


def test_haar_first_moment():
    # E |<00|U|00>|^2 = 1/d = 1/4 for Haar on dimension 4.
    rng = np.random.default_rng(1)
    vals = np.abs(haar_two_qubit(rng, 100_000)[:, 0, 0]) ** 2
    assert vals.mean() == pytest.approx(0.25, abs=0.005)


def test_haar_trace_moment():
    # E |Tr U|^2 = 1 for Haar, so the mean of |Tr U|^2 / 16 is 1/16.
    rng = np.random.default_rng(2)
    vals = np.abs(np.trace(haar_two_qubit(rng, 100_000), axis1=1, axis2=2)) ** 2 / 16
    assert vals.mean() == pytest.approx(1 / 16, abs=0.003)


def test_haar_fourth_moment():
    # E |<00|U|00>|^4 = 2 / (d (d + 1)) = 1/10 for Haar on dimension 4.
    rng = np.random.default_rng(3)
    vals = np.abs(haar_two_qubit(rng, 100_000)[:, 0, 0]) ** 4
    assert vals.mean() == pytest.approx(0.1, abs=0.002)


def test_haar_gate_keeps_six_fifteenths_of_a_weight_one_term():
    # A Haar gate sends a weight-1 Pauli on its pair to a unit vector over
    # the 15 nonidentity Paulis, which keeps on average 6/15 of its squared
    # weight on the 6 weight-1 ones: decay's ratio per layer.
    count = 100_000
    u = haar_two_qubit(np.random.default_rng(4), count)
    v = np.zeros((count, 2, 3))
    v[:, 0, 2] = 1.0  # Z on the first qubit
    unitary_step(v, np.array([[0, 1]]), u[:, None])
    assert np.square(v).sum(axis=(1, 2)).mean() == pytest.approx(6 / 15, abs=0.003)


def test_haar_unitarity_tail_over_a_million_draws():
    # Two Gram-Schmidt passes leave each stack unitary to rounding; a single
    # pass leaves an error that grows with the draw's condition number.
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        u = haar_two_qubit(rng, 20_000)
        worst = max(worst, np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(4)).max())
    assert worst < 1e-14


def test_ginibre_keeps_the_bytes_of_the_complex_sum():
    # Filling the real and imaginary parts and scaling in place gives the
    # bytes of the expression it replaced.
    for count in (0, 1, 40, 1520):
        g = np.random.default_rng(count).standard_normal((count, 2, 4, 4))
        want = (g[:, 0] + 1j * g[:, 1]) / math.sqrt(2)
        got = ginibre_two_qubit(np.random.default_rng(count), count)
        assert got.tobytes() == want.tobytes()


def _one_at_a_time(rng, count):
    """``count`` one-matrix Ginibre draws from ``rng``, and their Haar
    unitaries, each made on its own."""
    z = np.stack([ginibre_two_qubit(rng, 1)[0] for _ in range(count)])
    return z, np.stack([haar_from_ginibre(m.copy()) for m in z])


def _assert_near_qr(got, z, rng):
    """Each of ``got`` within 2e-15 kappa_2(Z) of the QR route's unitary
    drawn from ``rng``, kappa_2(Z) the condition number of the Ginibre
    matrix it came from: both routes are backward stable, so they part by
    rounding magnified by the matrix's conditioning."""
    for u, m in zip(got, z):
        assert np.abs(u - haar_unitary(4, rng)).max() <= 2e-15 * np.linalg.cond(m)


@pytest.mark.parametrize("count", [1, 4, 37])
def test_haar_stack_matches_one_at_a_time_draws(count):
    stack = haar_two_qubit(np.random.default_rng(count), count)
    _, want = _one_at_a_time(np.random.default_rng(count), count)
    assert stack.shape == (count, 4, 4)
    assert stack.tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [1, 4, 37, 2000])
def test_haar_stack_agrees_with_the_qr_oracle(count):
    # The reference is the one-matrix QR sampler with Mezzadri's phase fix.
    z = ginibre_two_qubit(np.random.default_rng(count), count)
    _assert_near_qr(haar_two_qubit(np.random.default_rng(count), count), z,
                    np.random.default_rng(count))


@pytest.mark.parametrize(
    "trials, layers, half", [(1, 1, 1), (2, 3, 1), (3, 2, 4), (38, 10, 4), (39, 3, 5)])
def test_split_haar_recipe_gives_each_trials_bytes(trials, layers, half):
    # The decay sector's layout: each trial draws its Ginibre matrices from
    # its own stream, and one Gram-Schmidt call makes the whole chunk Haar,
    # so each trial's gates lie strided through the stack.
    seeds = np.random.SeedSequence(trials).spawn(trials)
    ginibre = np.stack([
        ginibre_two_qubit(np.random.default_rng(ss), layers * half).reshape(layers, half, 4, 4)
        for ss in seeds
    ], axis=1)
    got = haar_from_ginibre(ginibre)
    assert got is ginibre
    for t, ss in enumerate(seeds):
        want = haar_two_qubit(np.random.default_rng(ss), layers * half)
        assert got[:, t].tobytes() == want.tobytes()


def test_brickwork_hands_out_one_stream_in_layer_order():
    c = random_brickwork(5, 3, seed=9)
    _, want = _one_at_a_time(np.random.default_rng(9), 6)
    got = np.stack([g.matrix for layer in c.layers for g in layer.gates])
    assert got.tobytes() == want.tobytes()


def test_brickwork_gates_agree_with_the_qr_oracle():
    c = random_brickwork(5, 3, seed=9)
    z, _ = _one_at_a_time(np.random.default_rng(9), 6)
    _assert_near_qr([g.matrix for layer in c.layers for g in layer.gates], z,
                    np.random.default_rng(9))


def test_rank_deficient_ginibre_comes_out_nan_and_is_refused():
    # A zero column, or one that Gram-Schmidt reduces to exactly zero (here
    # column 3 repeats column 1 of the identity), has no direction to
    # normalize: it and the columns after it come out NaN.
    zero = ginibre_two_qubit(np.random.default_rng(6), 2)
    zero[0, :, 1] = 0.0
    repeat = np.eye(4, dtype=complex)[None]
    repeat[0, :, 3] = repeat[0, :, 1]
    got = haar_from_ginibre(zero)
    assert np.isnan(got[0, :, 1:]).all() and not np.isnan(got[0, :, 0]).any()
    assert not np.isnan(got[1]).any()
    assert np.isnan(haar_from_ginibre(repeat)[0, :, 3]).all()
    for u in (got, repeat):
        with pytest.raises(NonUnitaryError, match="unitary"):
            check_unitary(u)


# ---------------------------------------------------------------------------
# Brickwork


def test_brickwork_shape():
    c = random_brickwork(4, 3, seed=0)
    assert len(c.layers) == 3
    for layer in c.layers:
        assert isinstance(layer, ElementaryLayer)
        assert len(layer.gates) == 2
        assert layer.support == frozenset(range(4))


def test_brickwork_deterministic():
    a = random_brickwork(6, 4, seed=123)
    b = random_brickwork(6, 4, seed=123)
    assert serialize_json(a) == serialize_json(b)
    c = random_brickwork(6, 4, seed=124)
    assert serialize_json(a) != serialize_json(c)


def test_brickwork_minimal():
    c = random_brickwork(2, 1, seed=5)
    assert len(c.layers) == 1
    (gate,) = c.layers[0].gates
    assert gate.targets == (0, 1)


def test_brickwork_covers_even_n_every_layer():
    c = random_brickwork(8, 5, seed=7)
    for layer in c.layers:
        assert layer.support == frozenset(range(8))


def test_brickwork_odd_n_leaves_one_idle():
    c = random_brickwork(5, 4, seed=3)
    for layer in c.layers:
        assert len(layer.support) == 4


def test_brickwork_rejects_width_one():
    with pytest.raises(ValueError):
        random_brickwork(1, 1, seed=0)


def test_brickwork_refuses_a_depth_no_array_can_hold(monkeypatch):
    # 2^57 gates of 256 bytes each pass numpy's largest array: refused
    # before any draw, naming the depth and the gate count.
    def no_draw(rng, count):
        raise AssertionError("drew")

    monkeypatch.setattr(circuits, "haar_two_qubit", no_draw)
    with pytest.raises(ValueError, match=f"depth {2**56} needs {2**57} two-qubit gates"):
        random_brickwork(4, 2**56, seed=0)


def test_brickwork_refuses_a_stack_with_one_non_unitary_matrix(monkeypatch):
    # The stack is checked once, as a whole, instead of matrix by matrix.
    def one_bad(rng, count):
        stack = haar_two_qubit(rng, count)
        stack[count // 2] *= 1.01
        return stack

    monkeypatch.setattr(circuits, "haar_two_qubit", one_bad)
    with pytest.raises(NonUnitaryError):
        random_brickwork(4, 3, seed=0)


@pytest.mark.parametrize("n, layers", [(2, 1), (5, 3), (6, 4)])
def test_brickwork_gates_equal_checked_matrix_gates(n, layers):
    c = random_brickwork(n, layers, seed=11)
    stack = iter(haar_two_qubit(np.random.default_rng(11), sum(len(l.gates) for l in c.layers)))
    for layer in c.layers:
        for g in layer.gates:
            ref = Gate("matrix", g.targets, matrix=next(stack))
            assert (g.kind, g.targets) == (ref.kind, ref.targets)
            assert all(type(t) is int for t in g.targets)
            assert g.matrix.dtype == ref.matrix.dtype == np.complex128
            assert g.matrix.tobytes() == ref.matrix.tobytes()
    assert serialize_json(deserialize(json.loads(serialize_json(c)))) == serialize_json(c)


def test_brickwork_of_no_layers_is_empty():
    # An empty Haar stack passes its one unitarity check.
    c = random_brickwork(4, 0, seed=0)
    assert c.n_qubits == 4 and c.layers == ()


@pytest.mark.parametrize("angle", [float("nan"), float("inf"), -float("inf")])
def test_rotation_refuses_non_finite_angle(angle):
    # A NaN angle gives a NaN matrix; propagated, it used to read as an
    # empty observable instead of an error.
    with pytest.raises(ValueError, match="finite"):
        Gate("RX", (0,), param=angle)


def test_matrix_gate_refuses_nan_entries():
    with pytest.raises(ValueError):
        Gate("matrix", (0,), matrix=np.full((2, 2), np.nan))


_EVERY_KIND = [
    *(Gate(k, tuple(range(u.shape[0].bit_length() - 1))) for k, u in FIXED_GATES.items()),
    *(Gate(k, (0,), param=0.3) for k in PARAM_GATES),
    Gate("matrix", (0, 1), matrix=np.eye(4, dtype=np.float32)),  # stored as complex128
    Gate("perm", (0, 1), perm=(1, 0, 3, 2)),
]


@pytest.mark.parametrize("gate", _EVERY_KIND, ids=[g.kind for g in _EVERY_KIND])
def test_every_gate_kind_gives_a_complex128_unitary(gate):
    # backpropagate stacks these as they are and keys its transfer-matrix
    # memo by their bytes, which tell gate widths apart only as complex128.
    u = gate.unitary()
    assert u.dtype == np.complex128
    assert u.shape == (2 ** len(gate.targets),) * 2


# ---------------------------------------------------------------------------
# Majority vote and amplification


def _prob_qubit_one(state: sv.StateVector, qubit: int) -> float:
    probs = np.abs(state.amplitudes.reshape((2,) * state.n_qubits)) ** 2
    axes = tuple(i for i in range(state.n_qubits) if i != qubit)
    return float(probs.sum(axis=axes)[1])


def test_majority_gate_is_involution_on_votes():
    g = majority_gate([0, 1, 2], 3)
    u = g.unitary()
    assert np.allclose(u @ u, np.eye(16))


def test_amplify_single_copy_x():
    cq, _ = promise_instance("x", 1)
    amp = amplify(cq, 1)
    out = sv.apply_circuit(sv.prepare_basis(2, "00"), amp)
    assert _prob_qubit_one(out, 1) == pytest.approx(1.0)


def test_amplify_three_copies():
    cq, _ = promise_instance("x", 1)
    amp = amplify(cq, 3)
    assert amp.n_qubits == 4
    out = sv.apply_circuit(sv.prepare_basis(4, "0000"), amp)
    assert _prob_qubit_one(out, 3) == pytest.approx(1.0)

    ident, _ = promise_instance("identity", 1)
    out = sv.apply_circuit(sv.prepare_basis(4, "0000"), amplify(ident, 3))
    assert _prob_qubit_one(out, 3) == pytest.approx(0.0)


def test_amplify_rejects_even_copies():
    cq, _ = promise_instance("x", 1)
    with pytest.raises(ValueError):
        amplify(cq, 2)


@pytest.mark.parametrize("copies", [1, 3, 5])
def test_amplify_matches_binomial_majority(copies):
    # Per-copy success p = sin^2(angle/2); the majority-vote probability must
    # equal the exact binomial tail since copies are independent.
    angle = 2 * math.asin(math.sqrt(0.75))
    cq, p = promise_instance("ry", 1, angle=angle)
    amp = amplify(cq, copies)
    out = sv.apply_circuit(sv.prepare_basis(amp.n_qubits, "0" * amp.n_qubits), amp)
    got = _prob_qubit_one(out, amp.n_qubits - 1)
    want = sum(
        math.comb(copies, j) * p**j * (1 - p) ** (copies - j)
        for j in range(copies // 2 + 1, copies + 1)
    )
    assert got == pytest.approx(want, abs=1e-9)
    assert want >= 1 - 2 ** (-0.1 * copies)  # amplification only helps


# ---------------------------------------------------------------------------
# The detection circuit


def test_build_cnew_width_and_registers():
    cq, _ = promise_instance("x", 2)
    c = build_cnew(cq, n=4, depth=6, copies=3, seed=0)
    assert c.n_qubits == 4 + 2 * 3 + 1
    assert c.registers["main"] == (0, 3)
    assert c.registers["q_maj"] == (10, 10)
    assert c.input_register() == (0, 3)


def test_build_cnew_default_depth():
    cq, _ = promise_instance("x", 1)
    c = build_cnew(cq, n=3, copies=3, seed=0)
    assert c.metadata["depth"] == 6 * (3 + 1 * 3 + 1)
    assert len(c.layers) == 2 + 6 * 7


def test_build_cnew_zero_depth_acts_as_cext_only():
    cq, _ = promise_instance("x", 1)
    c = build_cnew(cq, n=2, depth=0, copies=1, seed=0)
    for x in ("00", "10"):
        expect = 1 - 2 * sv.output_prob(c, x)
        assert expect == pytest.approx((-1) ** int(x[0]), abs=1e-12)


def test_build_cnew_yes_instance_exact_expectation():
    cq, _ = promise_instance("x", 1)
    c = build_cnew(cq, n=3, depth=6, copies=3, seed=4)
    for x in ("000", "100", "011", "111"):
        expect = 1 - 2 * sv.output_prob(c, x)
        assert expect == pytest.approx((-1) ** int(x[0]), abs=1e-9)


def test_build_cnew_no_instance_matches_bare_random_circuit():
    cq, _ = promise_instance("identity", 1)
    c = build_cnew(cq, n=3, depth=6, copies=3, seed=4)
    bare = random_brickwork(3, 6, seed=4)
    for x in ("000", "101"):
        via_cnew = 1 - 2 * sv.output_prob(c, x)
        direct = 1 - 2 * sv.output_prob(bare, x)
        assert via_cnew == pytest.approx(direct, abs=1e-9)


def test_build_cnew_controlled_block_is_adjoint_reversed():
    cq, _ = promise_instance("x", 1)
    c = build_cnew(cq, n=4, depth=5, copies=1, seed=9)
    ctrl = c.layers[1]
    assert isinstance(ctrl, BlockLayer) and ctrl.control == c.n_qubits - 1
    trailing = c.layers[2:]
    assert len(ctrl.circuit.layers) == len(trailing)
    for inv_layer, fwd_layer in zip(ctrl.circuit.layers, reversed(trailing)):
        for gi, gf in zip(inv_layer.gates, fwd_layer.gates):
            assert gi.targets == gf.targets
            assert np.allclose(gi.matrix, gf.matrix.conj().T)


def _union_of_targets(layer) -> frozenset[int]:
    if isinstance(layer, BlockLayer):
        return frozenset(layer.targets) | ({layer.control} - {None})
    return frozenset(q for g in layer.gates for q in g.targets)


def _fields_repr(layer) -> str:
    """The dataclass repr of a layer from its init fields alone."""
    args = ", ".join(f"{f.name}={getattr(layer, f.name)!r}"
                     for f in dataclasses.fields(layer) if f.init)
    return f"{type(layer).__name__}({args})"


def test_layers_store_their_support():
    cq, _ = promise_instance("x", 2)
    cnew = build_cnew(cq, n=4, depth=3, copies=3, seed=5)
    c_ext, ctrl = cnew.layers[:2]
    assert ctrl.control == 10 and c_ext.control is None
    perm = ElementaryLayer((majority_gate([0, 2, 5], 3),))  # one 4-qubit perm gate
    brick = random_brickwork(5, 3, seed=2)
    for layer in (*brick.layers, c_ext, ctrl, perm):
        want = _union_of_targets(layer)
        assert layer.support == want
        assert pickle.loads(pickle.dumps(layer)).support == want
        assert repr(layer) == _fields_repr(layer)
    # A copy with edited fields builds its own support.
    moved = [dataclasses.replace(g, targets=tuple(q + 1 for q in g.targets)) for g in perm.gates]
    for layer, want in [
        (dataclasses.replace(ctrl, control=7), frozenset({0, 1, 2, 3, 7})),
        (dataclasses.replace(ctrl, control=None), frozenset(range(4))),
        (dataclasses.replace(c_ext, circuit=amplify(cq, 3)), frozenset(range(4, 11))),
        (dataclasses.replace(perm, gates=tuple(moved)), frozenset({1, 3, 6, 4})),
    ]:
        assert layer.support == want
    # The stored field reaches no output: a pickled circuit serializes and
    # hashes as the original does.
    for c in (cnew, brick):
        back = pickle.loads(pickle.dumps(c))
        assert serialize_json(back) == serialize_json(c)
        assert circuit_id(back) == circuit_id(c)
        assert [l.support for l in back.layers] == [l.support for l in c.layers]
        assert "support" not in serialize_json(c)


def test_inverse_makes_no_unitarity_check(monkeypatch):
    c = random_brickwork(6, 5, seed=3)
    calls = []

    def counting(u):
        calls.append(u.shape)
        check_unitary(u)

    monkeypatch.setattr(circuits, "check_unitary", counting)
    inv = c.inverse()
    # Each adjoint's source passed the check, so nothing is checked again.
    assert calls == []
    monkeypatch.undo()
    assert len(inv.layers) == len(c.layers)
    for inv_layer, layer in zip(inv.layers, reversed(c.layers)):
        assert len(inv_layer.gates) == len(layer.gates)
        for gi, g in zip(inv_layer.gates, layer.gates):
            ref = g.adjoint()
            assert (gi.kind, gi.targets) == (ref.kind, ref.targets)
            assert gi.matrix.strides == ref.matrix.strides
            assert gi.matrix.tobytes() == ref.matrix.tobytes()


def test_inverse_of_mixed_gates_is_each_gates_adjoint(monkeypatch):
    rng = np.random.default_rng(4)
    layers = [
        ElementaryLayer((Gate("matrix", (0,), matrix=haar_unitary(2, rng)),
                         Gate("matrix", (3, 1), matrix=haar_unitary(4, rng)), Gate("S", (2,)))),
        ElementaryLayer((Gate("matrix", (2, 0, 3), matrix=haar_unitary(8, rng)),
                         Gate("RX", (1,), param=0.3))),
        ElementaryLayer((Gate("perm", (1, 2), perm=(1, 3, 0, 2)), Gate("Z", (3,)),
                         Gate("matrix", (0,), matrix=haar_unitary(2, rng)))),
    ]
    c = Circuit(4, layers)
    calls = []
    monkeypatch.setattr(circuits, "check_unitary", lambda u: calls.append(u.shape))
    inv = c.inverse()
    assert calls == []
    monkeypatch.undo()
    for inv_layer, layer in zip(inv.layers, reversed(c.layers)):
        for gi, g in zip(inv_layer.gates, layer.gates, strict=True):
            ref = g.adjoint()
            assert (gi.kind, gi.targets, gi.param, gi.perm) == (
                ref.kind, ref.targets, ref.param, ref.perm)
            assert gi.unitary().tobytes() == ref.unitary().tobytes()
    want = circuit_unitary(c).conj().T
    assert np.abs(circuit_unitary(inv) - want).max() < 1e-12
    block = BlockLayer("b", Circuit(1, ()), (0,))
    with pytest.raises(ValueError):
        Circuit(4, [block, *layers]).inverse()


@pytest.mark.parametrize("bits", ["12", "1x", [0, 2], ["0", "01"], [1.5, 0]], ids=repr)
def test_full_input_refuses_non_binary_bits(bits):
    c = Circuit(4, (), registers={"a": (0, 0), "main": (1, 2), "b": (3, 3)})
    assert c.full_input("10") == c.full_input([1, 0]) == c.full_input(np.array([1, 0])) == "0100"
    with pytest.raises(ValueError):
        c.full_input(bits)


def test_build_cnew_unitary_identity_when_control_fires():
    # With the ancilla block forcing q_maj = 1, the controlled inverse and
    # the trailing layers cancel on the main register.
    cq, _ = promise_instance("x", 1)
    c = build_cnew(cq, n=2, depth=4, copies=1, seed=2)
    u = circuit_unitary(c)
    state = np.zeros(2**c.n_qubits, dtype=complex)
    state[0] = 1.0
    out = u @ state
    # q_maj fired: the main register must still be |00>; the ancilla holds |11>.
    nonzero = np.nonzero(np.abs(out) > 1e-12)[0]
    assert len(nonzero) == 1
    idx = nonzero[0]
    bits = format(idx, f"0{c.n_qubits}b")
    assert bits[:2] == "00"
    assert bits[-1] == "1"


# ---------------------------------------------------------------------------
# Promise instances


def test_promise_instance_probabilities():
    for kind, angle, want in (
        ("x", None, 1.0),
        ("identity", None, 0.0),
        ("ry", 1.0, math.sin(0.5) ** 2),
    ):
        c, p = promise_instance(kind, 2, angle=angle)
        assert p == pytest.approx(want)
        assert sv.output_prob(c, "00") == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# Serialization


def test_round_trip_brickwork():
    c = random_brickwork(4, 3, seed=77)
    again = deserialize(json.loads(serialize_json(c)))
    assert serialize_json(again) == serialize_json(c)


def test_round_trip_nested_blocks_and_perm():
    cq, _ = promise_instance("ry", 1, angle=0.3)
    c = build_cnew(cq, n=2, depth=3, copies=3, seed=8)
    again = deserialize(json.loads(serialize_json(c)))
    assert serialize_json(again) == serialize_json(c)
    # Matrices survive the decimal round trip to full precision.
    g = c.layers[-1].gates[0]
    g2 = again.layers[-1].gates[0]
    assert np.abs(g.matrix - g2.matrix).max() < 1e-15


def test_deserialize_takes_a_parsed_document_not_json_text():
    # JSON text is parsed once, by errors.read_json, on load_circuit's route.
    with pytest.raises(SchemaError, match=r"\$: expected an object, got a string"):
        deserialize(serialize_json(random_brickwork(2, 1, seed=1)))


def test_deserialize_rejects_overlapping_supports():
    doc = {
        "version": 1,
        "n_qubits": 2,
        "layers": [
            {
                "type": "elementary",
                "gates": [
                    {"kind": "X", "targets": [0]},
                    {"kind": "H", "targets": [0]},
                ],
            }
        ],
    }
    with pytest.raises(SchemaError, match=r"layers\[0\]"):
        deserialize(doc)


def test_deserialize_rejects_non_unitary_matrix():
    doc = {
        "version": 1,
        "n_qubits": 1,
        "layers": [
            {
                "type": "elementary",
                "gates": [
                    {
                        "kind": "matrix",
                        "targets": [0],
                        "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                    }
                ],
            }
        ],
    }
    with pytest.raises(SchemaError, match=r"gates\[0\]"):
        deserialize(doc)


def test_deserialize_rejects_bad_endianness():
    with pytest.raises(SchemaError, match="endianness"):
        deserialize({"version": 1, "n_qubits": 1, "endianness": "q1-lsb", "layers": []})


def test_deserialize_rejects_bad_perm():
    doc = {
        "version": 1,
        "n_qubits": 2,
        "layers": [
            {
                "type": "elementary",
                "gates": [{"kind": "perm", "targets": [0, 1], "perm": [0, 0, 1, 2]}],
            }
        ],
    }
    with pytest.raises(SchemaError, match="bijection"):
        deserialize(doc)


def test_serialized_matrices_have_full_precision():
    c = random_brickwork(2, 1, seed=1)
    text = serialize_json(c)
    doc = json.loads(text)
    entry = doc["layers"][0]["gates"][0]["matrix"][0][0]
    # json round-trips Python floats exactly (repr with up to 17 digits).
    assert entry[0] == c.layers[0].gates[0].matrix[0, 0].real
