import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadv import circuits, statevector as sv
from qadv.circuits import BlockLayer, Circuit, ElementaryLayer, Gate
from qadv.errors import InvariantViolation, ResourceLimitExceeded
from qadv.pauli import PauliMap

from oracles import (
    apply_matrix_moveaxis,
    circuit_unitary,
    gate_unitary,
    haar_unitary,
    output_prob_per_ket,
    paulimap_matrix,
)


def _circ(n, *gate_layers):
    return Circuit(n, tuple(ElementaryLayer(tuple(gs)) for gs in gate_layers))


def test_prepare_basis_examples():
    assert np.allclose(sv.prepare_basis(2, "00").amplitudes, [1, 0, 0, 0])
    assert np.allclose(sv.prepare_basis(2, "10").amplitudes, [0, 0, 1, 0])
    assert np.allclose(sv.prepare_basis(1, "1").amplitudes, [0, 1])
    with pytest.raises(ValueError):
        sv.prepare_basis(2, "101")


_NON_BINARY = ["12", "1 ", "ab", [0, 2], [1, -1], ["1", "x"], [0.5, 1]]


@pytest.mark.parametrize("bits", _NON_BINARY, ids=repr)
def test_basis_inputs_refuse_non_binary_bits(bits):
    # The oracle and the heuristic must read an input alike: a stray digit
    # is refused, neither ORed into the amplitude index nor read as a 1.
    c = _circ(2, [Gate("H", (0,))])
    with pytest.raises(ValueError):
        sv.prepare_basis(2, bits)
    with pytest.raises(ValueError):
        sv.apply_circuit(bits, c)
    with pytest.raises(ValueError):
        sv.output_prob(c, bits)


def test_basis_inputs_take_strings_ints_and_numpy_bits():
    want = sv.prepare_basis(3, "101").amplitudes
    for bits in ([1, 0, 1], (True, False, True), np.array([1, 0, 1])):
        assert np.array_equal(sv.prepare_basis(3, bits).amplitudes, want)
        assert np.array_equal(sv.apply_circuit(bits, Circuit(3, ())).amplitudes, want)


def _bits_case(name: str) -> Circuit:
    rng = np.random.default_rng(7)
    bw = circuits.random_brickwork(5, 3, seed=2).layers
    if name.startswith("brickwork"):
        n = int(name.split("-")[1])
        return circuits.random_brickwork(n, 4, seed=n)
    if name == "perm-first":
        perm = tuple(int(v) for v in rng.permutation(8))
        return Circuit(5, (ElementaryLayer((Gate("perm", (3, 0, 4), perm=perm),)), *bw))
    if name == "controlled-block-first":
        sub = circuits.random_brickwork(3, 2, seed=1)
        return Circuit(5, (BlockLayer("c", sub, (4, 0, 2), control=1), *bw))
    if name == "no-layers":
        return Circuit(3, ())
    return Circuit(3, (ElementaryLayer(()),))


@pytest.mark.parametrize("name", ["brickwork-2", "brickwork-5", "brickwork-8", "perm-first",
                                  "controlled-block-first", "no-layers", "empty-layer"])
def test_basis_bits_give_the_prepared_basis_state_bytes(name):
    # The bits form prepares the basis state and multiplies every op: the
    # same floats, for every basis input. brickwork-8 is wider than
    # FUSE_WIDTH, so its first op covers only some qubits.
    c = _bits_case(name)
    fused = sv.fuse(c)
    assert not fused.ops if name in ("no-layers", "empty-layer") else fused.ops
    n = c.n_qubits
    for x in range(2**n):
        bits = format(x, f"0{n}b")
        want = sv.apply_circuit(sv.prepare_basis(n, bits), fused).amplitudes
        assert np.array_equal(sv.apply_circuit(bits, fused).amplitudes, want)
    bits = [x & 1 for x in range(n)]
    want = sv.apply_circuit(sv.prepare_basis(n, bits), c).amplitudes
    assert np.array_equal(sv.apply_circuit(bits, c).amplitudes, want)


@pytest.mark.parametrize("seed", range(24))
def test_apply_matrix_equals_moveaxis_reference(seed):
    # One transpose and its inverse make the views two np.moveaxis calls
    # make: the same bytes, on qubit axes in any order, with or without a
    # trailing batch axis, from C- or Fortran-ordered tensors.
    rng = np.random.default_rng(seed)
    ndim = int(rng.integers(1, 8))
    w = int(rng.integers(1, min(ndim, 3) + 1))
    axes = [int(a) for a in rng.permutation(ndim)[:w]]
    shape = (2,) * ndim + ((int(rng.integers(1, 6)),) if seed % 2 else ())
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if seed % 3 == 0:
        arr = np.asfortranarray(arr)
    u = haar_unitary(2**w, rng)
    got = sv._apply_matrix(arr, u, axes)
    want = apply_matrix_moveaxis(arr, u, axes)
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()
    # A perm gate indexes rows: the product with its permutation matrix.
    gate = Gate("perm", tuple(range(w)), perm=tuple(int(v) for v in rng.permutation(2**w)))
    got = sv._apply_gate(arr, gate, axes)
    assert np.array_equal(got, apply_matrix_moveaxis(arr, gate_unitary(gate), axes))


def test_apply_x_and_cnot():
    out = sv.apply_circuit(sv.prepare_basis(1, "0"), _circ(1, [Gate("X", (0,))]))
    assert np.allclose(out.amplitudes, [0, 1])
    out = sv.apply_circuit(sv.prepare_basis(2, "10"), _circ(2, [Gate("CNOT", (0, 1))]))
    assert np.allclose(out.amplitudes, sv.prepare_basis(2, "11").amplitudes)


def test_bell_preparation():
    c = _circ(2, [Gate("H", (0,))], [Gate("CNOT", (0, 1))])
    out = sv.apply_circuit(sv.prepare_basis(2, "00"), c)
    r = 1 / np.sqrt(2)
    assert np.allclose(out.amplitudes, [r, 0, 0, r], atol=1e-12)


def test_expectation_examples():
    z = PauliMap.from_labels({"Z": 1.0})
    assert sv.expectation(sv.prepare_basis(1, "0"), z) == pytest.approx(1.0)
    plus = sv.apply_circuit(sv.prepare_basis(1, "0"), _circ(1, [Gate("H", (0,))]))
    assert sv.expectation(plus, z) == pytest.approx(0.0, abs=1e-12)


def test_ghz_xxx_expectation():
    c = _circ(3, [Gate("H", (0,))], [Gate("CNOT", (0, 1))], [Gate("CNOT", (1, 2))])
    ghz = sv.apply_circuit(sv.prepare_basis(3, "000"), c)
    xxx = PauliMap.from_labels({"XXX": 1.0})
    assert sv.expectation(ghz, xxx) == pytest.approx(1.0)
    # Dense matrix-vector oracle.
    from oracles import paulimap_matrix

    dense = paulimap_matrix(xxx)
    assert np.vdot(ghz.amplitudes, dense @ ghz.amplitudes).real == pytest.approx(1.0)


def test_expectation_y_phase():
    plus_i = sv.StateVector(1, np.array([1, 1j]) / np.sqrt(2))
    assert sv.expectation(plus_i, PauliMap.from_labels({"Y": 1.0})) == pytest.approx(1.0)


def test_output_prob_examples():
    ident = Circuit(2, ())
    assert sv.output_prob(ident, "00") == pytest.approx(0.0)
    flip = _circ(2, [Gate("X", (0,))])
    assert sv.output_prob(flip, "00") == pytest.approx(1.0)
    had = _circ(1, [Gate("H", (0,))])
    assert sv.output_prob(had, "0") == pytest.approx(0.5)


def _haar_layer(rng: np.random.Generator, *targets: int) -> ElementaryLayer:
    return ElementaryLayer((Gate("matrix", targets, matrix=haar_unitary(2 ** len(targets), rng)),))


def _first_block(targets, control=None, seed=0) -> BlockLayer:
    """A Haar brickwork block: its op has complex entries, so a G that is
    transposed or unconjugated reads wrong."""
    return BlockLayer("first", circuits.random_brickwork(len(targets), 3, seed=seed),
                      targets, control)


def _split_case(name: str) -> Circuit:
    """Circuits around the first op's split into kept qubits K and
    spectators S (see `output_prob`)."""
    rng = np.random.default_rng(11)
    if name == "q0_untouched_later":  # K = (0, 4), S = (1, 2, 3)
        return Circuit(6, (_first_block((0, 1, 2, 3, 4)), _haar_layer(rng, 4, 5),
                           ElementaryLayer((Gate("H", (5,)),))))
    if name == "two_kept_controlled":  # K = (1, 6), S = (2, 3, 4, 5)
        return Circuit(7, (_first_block((2, 3, 4, 5, 6), control=1, seed=1),
                           _haar_layer(rng, 0, 6), _haar_layer(rng, 1, 0)))
    if name == "no_spectators":  # every qubit of the first op is touched later
        return Circuit(4, (_first_block((0, 1, 2)), _haar_layer(rng, 1, 2),
                           _haar_layer(rng, 0, 3)))
    if name == "one_op":  # K = (0,), S = (1, 2, 3, 4)
        return Circuit(5, (_first_block((0, 1, 2, 3, 4), seed=2),))
    if name == "one_op_without_q0":  # K empty, S = (1, 2, 3, 4)
        return Circuit(5, (_first_block((1, 2, 3, 4), seed=3),))
    if name == "no_ops":
        return Circuit(3, ())
    if name == "main_overlaps_first":  # K = (1,), S = (2, 3, 4, 5)
        return Circuit(6, (_first_block((1, 2, 3, 4, 5), seed=4), _haar_layer(rng, 0, 1)),
                       registers={"main": (0, 3), "anc": (4, 5)})
    raise AssertionError(name)


#: Per input: the kets the later ops run on, and their width (the whole
#: state counts as one ket).
_SPLIT_ROUTES = {
    "q0_untouched_later": (4, 3),
    "two_kept_controlled": (4, 3),
    "no_spectators": (1, 4),
    "one_op": (2, 1),
    "one_op_without_q0": (1, 1),
    "no_ops": (1, 3),
    "main_overlaps_first": (2, 2),
}


def _check_against_oracle(c: Circuit, route: tuple[int, int], monkeypatch) -> None:
    """output_prob on every input equals the dense oracle's to 1e-12, and
    runs ``route``'s kets: its one `np.vdot` takes their qubit-0 = 1
    halves, one row per ket (a single row when the whole state runs)."""
    u = circuit_unitary(c)
    fused = sv.fuse(c)
    lo, hi = c.input_register()
    shapes = []
    vdot = np.vdot

    def spy(a, b):
        shapes.append(np.shape(a))
        return vdot(a, b)

    monkeypatch.setattr(np, "vdot", spy)
    for i in range(2 ** (hi - lo + 1)):
        x = format(i, f"0{hi - lo + 1}b")
        column = u[:, int(c.full_input(x), 2)]
        want = np.sum(np.abs(column[len(column) // 2 :]) ** 2)
        shapes.clear()
        assert sv.output_prob(fused, x) == pytest.approx(want, abs=1e-12)
        [shape] = shapes
        kets, half = shape if len(shape) == 2 else (1, *shape)
        assert (kets, half.bit_length()) == route


@pytest.mark.parametrize("name", _SPLIT_ROUTES)
def test_output_prob_split_matches_the_dense_oracle(name, monkeypatch):
    _check_against_oracle(_split_case(name), _SPLIT_ROUTES[name], monkeypatch)


@pytest.mark.parametrize("n,m,copies", [(2, 1, 1), (3, 2, 1), (3, 1, 3), (4, 2, 1),
                                        (4, 1, 3), (2, 2, 3)])
def test_output_prob_of_cnew_matches_the_dense_oracle(n, m, copies, monkeypatch):
    # The amplified block comes first; every qubit of it but the majority
    # qubit is a spectator, so m * copies >= 2 takes the split route: two
    # kets of the main register and the majority qubit.
    cq, _ = circuits.promise_instance("ry", m, angle=1.1)
    c = circuits.build_cnew(cq, n=n, depth=3, copies=copies, seed=n + m + copies)
    route = (2, n + 1) if m * copies >= 2 else (1, c.n_qubits)
    _check_against_oracle(c, route, monkeypatch)


def test_output_prob_sums_out_the_suite_spectators(monkeypatch):
    # The suite shape: 13 qubits, the amplified block on 6 ancillas and the
    # majority qubit first. Its 6 ancillas are spectators, so the later ops
    # multiply kets of 2^7 amplitudes, never the 2^13 state.
    cq, _ = circuits.promise_instance("x", 2)
    fused = sv.fuse(circuits.build_cnew(cq, n=6, depth=78, copies=3, seed=0))
    sizes = []
    apply = sv._apply_matrix

    def spy(arr, u, axes):
        sizes.append(arr.size)
        return apply(arr, u, axes)

    monkeypatch.setattr(sv, "_apply_matrix", spy)
    for x in ("000000", "101101", "111111"):
        sizes.clear()
        sv.output_prob(fused, x)
        assert sizes and max(sizes) <= 2**7


def _suite_shape(kind: str) -> Circuit:
    """The suite's C_new: 6 main qubits, a 2-qubit instance amplified to 3
    copies, depth 6 * 13."""
    cq, _ = circuits.promise_instance(kind, 2, angle=None if kind == "x" else 2.5)
    return circuits.build_cnew(cq, n=6, depth=78, copies=3, seed=0)


_PER_KET_CASES = [
    *(("split", name) for name in _SPLIT_ROUTES),
    *(("cnew", n, m, copies) for n, m, copies in
      [(2, 1, 1), (3, 2, 1), (3, 1, 3), (4, 2, 1), (4, 1, 3), (2, 2, 3)]),
    ("suite", "x"), ("suite", "ry"),
]


@pytest.mark.parametrize("case", _PER_KET_CASES, ids=str)
def test_output_prob_bytes_equal_the_per_ket_route(case):
    # No pin holds the bytes of a suite or detect report, so this test does:
    # on every input, output_prob gives the float of the route it once took,
    # each ket run as a column copy then multiplies (oracles.output_prob_per_ket).
    if case[0] == "split":
        c = _split_case(case[1])
    elif case[0] == "cnew":
        _, n, m, copies = case
        cq, _ = circuits.promise_instance("ry", m, angle=1.1)
        c = circuits.build_cnew(cq, n=n, depth=3, copies=copies, seed=n + m + copies)
    else:
        c = _suite_shape(case[1])
    fused = sv.fuse(c)
    lo, hi = c.input_register()
    for i in range(2 ** (hi - lo + 1)):
        x = format(i, f"0{hi - lo + 1}b")
        assert sv.output_prob(fused, x).hex() == output_prob_per_ket(fused, x).hex(), x


def test_output_prob_refuses_a_ket_whose_norm_drifts():
    # A later op scaled by 1.1 scales every ket's norm by 1.1: the one norm
    # check raises InvariantViolation (exit 3), not the ValueError of a
    # StateVector (exit 2).
    fused = sv.fuse(_suite_shape("ry"))
    support, u = fused.ops[1]
    for scale in (1.1, np.nan):
        bad = dataclasses.replace(fused, ops=(fused.ops[0], (support, scale * u),
                                              *fused.ops[2:]))
        with pytest.raises(InvariantViolation, match="norm deviates from 1"):
            sv.output_prob(bad, "101101")


def test_expectation_consistent_with_output_prob():
    rng = np.random.default_rng(5)
    c = circuits.random_brickwork(4, 4, seed=9)
    x = "0110"
    state = sv.apply_circuit(sv.prepare_basis(4, x), c)
    z1 = PauliMap.from_labels({"ZIII": 1.0})
    assert sv.expectation(state, z1) == pytest.approx(
        1 - 2 * sv.output_prob(c, x), abs=1e-9
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_norm_preserved_each_layer(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    c = circuits.random_brickwork(n, 5, seed=int(rng.integers(2**32)))
    state = sv.prepare_basis(n, "".join(str(b) for b in rng.integers(0, 2, n)))
    for layer in c.layers:
        state = sv.apply_circuit(state, Circuit(n, (layer,)))
        assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-9


def test_circuit_then_inverse_restores_state():
    c = circuits.random_brickwork(5, 6, seed=21)
    x = "10101"
    state = sv.prepare_basis(5, x)
    out = sv.apply_circuit(sv.apply_circuit(state, c), c.inverse())
    assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-8


def test_permutation_gate_matches_unitary_oracle():
    rng = np.random.default_rng(3)
    perm = tuple(int(v) for v in rng.permutation(8))
    g = Gate("perm", (2, 0, 3), perm=perm)
    c = _circ(4, [g])
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amps /= np.linalg.norm(amps)
    state = sv.StateVector(4, amps)
    got = sv.apply_circuit(state, c).amplitudes
    want = circuit_unitary(c) @ amps
    assert np.abs(got - want).max() < 1e-12


def test_controlled_block_matches_unitary_oracle():
    rng = np.random.default_rng(8)
    sub = _circ(2, [Gate("matrix", (0, 1), matrix=haar_unitary(4, rng))])
    blk = BlockLayer("ctrl", sub, (3, 1), control=0)
    c = Circuit(4, (blk,))
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amps /= np.linalg.norm(amps)
    got = sv.apply_circuit(sv.StateVector(4, amps), c).amplitudes
    want = circuit_unitary(c) @ amps
    assert np.abs(got - want).max() < 1e-12


def test_nested_blocks_match_unitary_oracle():
    rng = np.random.default_rng(13)
    inner = _circ(1, [Gate("matrix", (0,), matrix=haar_unitary(2, rng))])
    mid = Circuit(2, (BlockLayer("inner", inner, (1,), control=0),))
    outer = Circuit(3, (BlockLayer("outer", mid, (2, 0), control=1),))
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    got = sv.apply_circuit(sv.StateVector(3, amps), outer).amplitudes
    want = circuit_unitary(outer) @ amps
    assert np.abs(got - want).max() < 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=40)
def test_expectation_matches_dense_oracle(seed, n):
    # Random normalized states against <psi|M|psi> with M built from labels;
    # every map holds a Y term, whose phase the masks must get right.
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    labels = {}
    for _ in range(int(rng.integers(1, 9))):
        labels["".join(rng.choice(list("IXYZ"), size=n))] = float(rng.normal())
    with_y = list(rng.choice(list("IXYZ"), size=n))
    with_y[int(rng.integers(n))] = "Y"
    labels["".join(with_y)] = float(rng.normal())
    m = PauliMap.from_labels(labels)
    want = np.vdot(amps, paulimap_matrix(m) @ amps).real
    assert sv.expectation(sv.StateVector(n, amps), m) == pytest.approx(want, abs=1e-12)


def test_qubit_count_mismatch_rejected():
    with pytest.raises(ValueError):
        sv.apply_circuit(sv.prepare_basis(2, "00"), Circuit(3, ()))
    with pytest.raises(ValueError):
        sv.expectation(sv.prepare_basis(2, "00"), PauliMap.from_labels({"Z": 1.0}))


def test_dense_limit_enforced():
    amps = np.zeros(2**17, dtype=complex)  # 2 MB
    amps[0] = 1.0
    with pytest.raises(ResourceLimitExceeded):
        sv.apply_circuit(sv.StateVector(17, amps), Circuit(17, ()))


def test_output_prob_refuses_before_allocating():
    # 2^40 amplitudes would be 16 TiB: the refusal must come first.
    with pytest.raises(ResourceLimitExceeded):
        sv.output_prob(Circuit(40, ()), "0" * 40)


def test_out_of_range_targets_rejected():
    with pytest.raises(ValueError):
        Circuit(2, (ElementaryLayer((Gate("X", (2,)),)),))


def _fusion_case(rng: np.random.Generator) -> Circuit:
    """A random circuit on FUSE_WIDTH + 2 qubits mixing every kind of op
    fusion handles: full-width brickwork runs (wider than FUSE_WIDTH, so
    split into gates), narrow runs that merge, a 4-qubit perm gate with
    unsorted targets, and blocks with unsorted targets, with and without a
    control."""
    n = sv.FUSE_WIDTH + 2
    sub = circuits.random_brickwork(3, 3, seed=int(rng.integers(2**32)))
    sub = Circuit(3, sub.layers + (ElementaryLayer((
        Gate("matrix", (2, 0, 1), matrix=haar_unitary(8, rng)),)),))
    order = [int(q) for q in rng.permutation(n)]
    kinds = ["brick", "brick", "narrow", "narrow", "perm", "block", "ctrl"]
    layers = []
    for kind in rng.permutation(kinds):
        if kind == "brick":
            layers += circuits.random_brickwork(n, 3, seed=int(rng.integers(2**32))).layers
        elif kind == "narrow":
            qs = order[:3]
            layers += [ElementaryLayer((Gate("matrix", (qs[j], qs[j + 1]),
                                             matrix=haar_unitary(4, rng)),)) for j in (0, 1, 0)]
        elif kind == "perm":
            perm = tuple(int(v) for v in rng.permutation(16))
            layers.append(ElementaryLayer((Gate("perm", tuple(order[:4]), perm=perm),
                                           Gate("H", (order[4],)))))
        elif kind == "block":
            layers.append(BlockLayer("b", sub, tuple(order[-3:])))
        else:
            layers.append(BlockLayer("c", sub, (order[5], order[1], order[3]), control=order[2]))
    return Circuit(n, tuple(layers))


@pytest.mark.parametrize("seed", range(3))
def test_fused_apply_matches_unitary_oracle(seed):
    rng = np.random.default_rng(seed)
    c = _fusion_case(rng)
    fused = sv.fuse(c)
    blocks = [layer for layer in c.layers if isinstance(layer, BlockLayer)]
    assert len(fused.ops) < sum(
        len(layer.gates) for layer in c.layers if isinstance(layer, ElementaryLayer))
    for support, u in fused.ops:
        assert list(support) == sorted(support)
        assert u.shape == (2 ** len(support),) * 2
        assert len(support) <= sv.FUSE_WIDTH or any(
            set(support) == b.support for b in blocks)
    want_u = circuit_unitary(c)
    for _ in range(2):
        amps = rng.standard_normal(2**c.n_qubits) + 1j * rng.standard_normal(2**c.n_qubits)
        amps /= np.linalg.norm(amps)
        state = sv.StateVector(c.n_qubits, amps)
        got = sv.apply_circuit(state, fused).amplitudes
        assert np.abs(got - want_u @ amps).max() < 1e-12
        assert np.array_equal(sv.apply_circuit(state, c).amplitudes, got)


def test_fuse_groups_runs_within_fuse_width():
    # Three narrow layers and a block: the layers fuse into one op, the
    # block is one op of its own, and the run after it starts afresh.
    n = sv.FUSE_WIDTH + 2
    h = [ElementaryLayer((Gate("H", (q,)),)) for q in range(n)]
    blk = BlockLayer("b", _circ(1, [Gate("X", (0,))]), (0,))
    c = Circuit(n, (h[0], h[1], h[2], blk, h[3]))
    assert [s for s, _ in sv.fuse(c).ops] == [(0, 1, 2), (0,), (3,)]
    # One layer wider than FUSE_WIDTH is split into gates, then regrouped.
    wide = Circuit(n, (ElementaryLayer(tuple(Gate("H", (q,)) for q in range(n))),))
    assert [len(s) for s, _ in sv.fuse(wide).ops] == [sv.FUSE_WIDTH, 2]


def test_fuse_refuses_wide_block_before_building(monkeypatch):
    def refuse(*layers):
        raise AssertionError("block_unitary called for an oversized op")

    monkeypatch.setattr(sv, "block_unitary", refuse)
    w = sv.DENSE_BLOCK_LIMIT + 1
    sub = _circ(w, [Gate("H", (q,)) for q in range(w)])
    with pytest.raises(ResourceLimitExceeded):
        sv.fuse(Circuit(w + 1, (BlockLayer("wide", sub, tuple(range(w)), control=w),)))


def _mixed_run(w: int, depth: int, rng: np.random.Generator) -> list[ElementaryLayer]:
    """``depth`` layers on qubits 0..w-1: a brickwork of Haar matrices whose
    first layer is named gates (S, whose adjoint is SDG, and rotations) and
    whose third is a perm gate."""
    layers = list(circuits.random_brickwork(w, depth, seed=int(rng.integers(2**32))).layers)
    layers[0] = ElementaryLayer(tuple([Gate("S", (0,))] + [
        Gate("RX", (q,), param=0.3 * q) for q in range(1, w)]))
    perm = tuple(int(v) for v in rng.permutation(4))
    layers[2] = ElementaryLayer((Gate("perm", (1, 0), perm=perm),))
    return layers


def _placed(layers, targets) -> list[ElementaryLayer]:
    """The layers with qubit i moved to ``targets[i]``."""
    return [ElementaryLayer(tuple([dataclasses.replace(g, targets=tuple([targets[t] for t in g.targets]))
                                   for g in layer.gates])) for layer in layers]


def _undo_then_run(w: int, where: str, rng: np.random.Generator, depth: int = 6):
    """A controlled block whose sub-circuit undoes the run that follows it,
    on w shuffled targets with the control below, between or above them."""
    control = {"below": 0, "between": w // 2, "above": w}[where]
    targets = tuple(int(q) for q in rng.permutation([q for q in range(w + 1) if q != control]))
    run = _mixed_run(w, depth, rng)
    sub = Circuit(w, tuple(run)).inverse()
    return BlockLayer("inv", sub, targets, control=control), _placed(run, targets)


def _controlled_adjoint_by_entries(control, op):
    """The identity on control 0 and op's adjoint on control 1, over the
    sorted support, placed entry by entry."""
    targets, u = op
    support = sorted((*targets, control))
    w = len(support)
    out = np.zeros((2**w, 2**w), dtype=complex)
    adj = u.conj().T
    p = support.index(control)
    for r in range(2**w):
        for c in range(2**w):
            bits_r = [(r >> (w - 1 - i)) & 1 for i in range(w)]
            bits_c = [(c >> (w - 1 - i)) & 1 for i in range(w)]
            if bits_r[p] != bits_c[p]:
                continue
            t_r = int("".join(map(str, bits_r[:p] + bits_r[p + 1:])), 2)
            t_c = int("".join(map(str, bits_c[:p] + bits_c[p + 1:])), 2)
            out[r, c] = adj[t_r, t_c] if bits_r[p] else float(t_r == t_c)
    return out


_CONTROL_AT = ["below", "between", "above"]


@pytest.mark.parametrize("where", _CONTROL_AT)
@pytest.mark.parametrize("w", range(2, 7))
def test_fuse_derives_a_controlled_inverse_from_the_open_run(monkeypatch, w, where):
    rng = np.random.default_rng(10 * w + _CONTROL_AT.index(where))
    block, run = _undo_then_run(w, where, rng)
    c = Circuit(w + 1, (block, *run))
    built = []
    real = sv.block_unitary

    def counting(*layers):
        built.append(layers)
        return real(*layers)

    monkeypatch.setattr(sv, "block_unitary", counting)
    fused = sv.fuse(c)
    # Only the run goes through the interpreter; the block's op follows it.
    assert [len(layers) for layers in built] == [len(run)]
    (run_op,) = [op for op in fused.ops if op is not fused.blocks[block]]
    support, u = fused.blocks[block]
    assert support == tuple(range(w + 1))
    assert u.tobytes() == _controlled_adjoint_by_entries(block.control, run_op).tobytes()
    assert np.abs(u - real(block)[1]).max() < 1e-12
    assert np.abs(u - circuit_unitary(Circuit(w + 1, (block,)))).max() < 1e-12


def _altered(block: BlockLayer, rng) -> BlockLayer:
    """The block with the first matrix of its sub-circuit replaced."""
    layers = list(block.circuit.layers)
    gates = list(layers[0].gates)
    gates[0] = Gate("matrix", gates[0].targets, matrix=haar_unitary(4, rng))
    layers[0] = ElementaryLayer(tuple(gates))
    return dataclasses.replace(block, circuit=Circuit(block.circuit.n_qubits, tuple(layers)))


@pytest.mark.parametrize("case", ["altered gate", "one layer short", "wider run", "rotation"])
def test_fuse_builds_the_block_when_it_does_not_undo_the_run(case):
    rng = np.random.default_rng(7)
    block, run = _undo_then_run(4, "between", rng)
    n = 5
    if case == "altered gate":
        block = _altered(block, rng)
    elif case == "one layer short":
        sub = block.circuit
        block = dataclasses.replace(block, circuit=Circuit(sub.n_qubits, sub.layers[:-1]))
    elif case == "wider run":
        n = 6
        run[1] = ElementaryLayer((*run[1].gates, Gate("H", (5,))))
    else:
        # RX(0.3) undone by RX(0.3), not RX(-0.3).
        sub = block.circuit
        last = sub.layers[-1]
        gates = tuple(Gate("RX", g.targets, param=abs(g.param)) if g.kind == "RX" else g
                      for g in last.gates)
        block = dataclasses.replace(block, circuit=Circuit(
            sub.n_qubits, (*sub.layers[:-1], ElementaryLayer(gates))))
    fused = sv.fuse(Circuit(n, (block, *run)))
    assert fused.blocks[block][1].tobytes() == sv.block_unitary(block)[1].tobytes()
