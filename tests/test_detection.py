import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qadv import circuits, detection, pauli, propagation
from qadv.circuits import Circuit, ElementaryLayer, Gate
from qadv.detection import (
    PromiseInstance,
    decay_experiment,
    default_instances,
    detect,
    instance_suite,
    verify_promise,
)
from qadv.errors import InvariantViolation, PromiseViolation
from qadv.pauli import DROP_TOLERANCE


def test_identity_circuit_is_no_advantage():
    c = Circuit(3, (ElementaryLayer((Gate("I", (0,)),)),))
    rep = detect(c, s=8, k=1, seed=0)
    assert rep.verdict == "no-advantage"
    assert rep.disagree_fraction == 0.0
    assert not rep.promise_violated


def test_detect_is_reproducible_for_fixed_seed():
    cq, _ = circuits.promise_instance("x", 1)
    c = circuits.build_cnew(cq, n=3, depth=12, copies=3, seed=2)
    a = detect(c, s=8, k=1, seed=99)
    b = detect(c, s=8, k=1, seed=99)
    assert a == b
    c2 = detect(c, s=8, k=1, seed=100)
    assert a.records != c2.records


def test_detect_reuses_single_backpropagation(monkeypatch):
    # At k >= 2 one backward pass serves every input; at k = 1 one
    # weight-1 sector pass does, and detect never backpropagates.
    cq, _ = circuits.promise_instance("x", 1)
    c = circuits.build_cnew(cq, n=3, depth=8, copies=1, seed=5)
    passes = _count_calls(monkeypatch, propagation, "backpropagate", (detection,))
    sectors = _count_calls(monkeypatch, propagation, "weight_one_pass", (detection,))
    for k, want in ((2, [1, 0]), (1, [1, 1])):
        rep = detect(c, s=16, k=k, seed=0)
        assert [len(passes), len(sectors)] == want
        assert len(rep.records) == 16


def test_detect_fuses_its_circuit_once(monkeypatch):
    from qadv import statevector

    cq, _ = circuits.promise_instance("x", 1)
    c = circuits.build_cnew(cq, n=3, depth=8, copies=1, seed=5)
    real, calls = statevector.fuse, []

    def counting(circuit):
        calls.append(circuit)
        return real(circuit)

    monkeypatch.setattr(statevector, "fuse", counting)
    rep = detect(c, s=16, k=1, seed=0)
    assert calls == [c]
    assert len(rep.records) == 16
    # A fused circuit is taken as it is, with the same report.
    assert detect(real(c), s=16, k=1, seed=0) == rep
    assert calls == [c]


def test_detect_verdicts_on_small_instances():
    yes_cq, _ = circuits.promise_instance("x", 1)
    yes = detect(circuits.build_cnew(yes_cq, n=3, depth=42, copies=3, seed=7), s=16, k=1, seed=1)
    assert yes.verdict == "advantage"
    assert yes.disagree_fraction == 1.0

    no_cq, _ = circuits.promise_instance("identity", 1)
    no = detect(circuits.build_cnew(no_cq, n=3, depth=42, copies=3, seed=7), s=16, k=1, seed=1)
    assert no.verdict == "no-advantage"


def test_detect_shot_mode():
    cq, _ = circuits.promise_instance("x", 1)
    c = circuits.build_cnew(cq, n=3, depth=42, copies=3, seed=3)
    rep = detect(c, s=8, k=1, seed=11, shots=200)
    assert rep.verdict == "advantage"
    # Shot estimates are rationals with denominator `shots`.
    for r in rep.records:
        assert abs((1 - r.exact) / 2 * 200 - round((1 - r.exact) / 2 * 200)) < 1e-9


def test_promise_violated_flag_set_in_band():
    # An off-promise instance (success probability exactly 1/3, one copy)
    # lands the disagreement fraction inside (1/3, 2/3) for these seeds.
    angle = 2 * np.arcsin(np.sqrt(1 / 3))
    cq, _ = circuits.promise_instance("ry", 1, angle=angle)
    mid_no = detect(circuits.build_cnew(cq, n=4, depth=30, copies=1, seed=4), s=32, k=1, seed=104)
    assert 1 / 3 < mid_no.disagree_fraction < 2 / 3
    assert mid_no.promise_violated
    assert mid_no.verdict == "no-advantage"
    mid_yes = detect(circuits.build_cnew(cq, n=4, depth=30, copies=1, seed=1), s=32, k=1, seed=101)
    assert mid_yes.promise_violated
    assert mid_yes.verdict == "advantage"


# ---------------------------------------------------------------------------
# Decay experiment


def test_decay_zero_layers():
    r = decay_experiment(4, 0, trials=3, seed=0)
    assert r.layer_means == (1.0,)
    assert r.ratios == ()


def test_decay_rejects_odd_n():
    with pytest.raises(ValueError):
        decay_experiment(5, 2, trials=2, seed=0)


@pytest.mark.parametrize("layers", [-1, -8])
def test_decay_rejects_negative_depth(layers):
    with pytest.raises(ValueError, match="depth"):
        decay_experiment(4, layers, trials=2, seed=0)


def test_decay_two_qubit_single_layer_mean():
    r = decay_experiment(2, 1, trials=4000, seed=12)
    assert r.layer_means[1] == pytest.approx(0.4, abs=0.015)


def test_decay_stderr_shrinks_with_trials():
    small = decay_experiment(2, 1, trials=400, seed=5)
    big = decay_experiment(2, 1, trials=6400, seed=5)
    # i.i.d. scaling: quadrupling trials should halve the standard error,
    # up to sampling noise in the variance estimate itself.
    ratio = small.final_stderr / big.final_stderr
    assert ratio == pytest.approx(4.0, rel=0.35)


def _per_trial_norms(n, layers, trials, seed):
    # Each trial's norms after each layer, from one-layer passes chained
    # last layer first, as the run's own trial-0 check takes them.
    cfg = propagation.PropagationConfig(k=1)
    rows = []
    for ss in np.random.SeedSequence(seed).spawn(trials):
        acc = propagation.z_first(n)
        row = [acc.frobenius_normalized()]
        for layer in reversed(circuits.random_brickwork(n, layers, seed=ss).layers):
            acc = propagation.backpropagate(circuits.Circuit(n, (layer,)), acc, cfg)
            row.append(acc.frobenius_normalized())
        rows.append(row)
    return np.array(rows)


@given(
    n=st.sampled_from([2, 4, 6, 8, 10]),
    layers=st.integers(0, 8),
    trials=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25)
# Chunks of 34 (n = 10, L = 8) and 42 (n = 8, L = 8) trials: 41 and 51
# trials run in two chunks, the rest in one.
@example(n=10, layers=8, trials=19, seed=1)
@example(n=10, layers=8, trials=20, seed=2)
@example(n=10, layers=8, trials=21, seed=3)
@example(n=10, layers=8, trials=41, seed=4)
@example(n=8, layers=8, trials=25, seed=5)
@example(n=8, layers=8, trials=51, seed=6)
def test_decay_norms_equal_per_trial_passes(n, layers, trials, seed):
    # Each row is what the trial's own pass records, up to rounding (at most
    # 1.3e-15 relative, measured over eight shapes) and the pass's drops:
    # the sector sums in another order and drops nothing.
    got = detection._decay_norms(n, layers, trials, seed)
    want = _per_trial_norms(n, layers, trials, seed)
    np.testing.assert_allclose(
        got, want, rtol=1e-13, atol=2 * layers * np.sqrt(3 * n) * DROP_TOLERANCE)


def test_decay_batch_sizes_straddle_the_examples():
    assert detection._chunk_trials(10, 8) == 34
    assert detection._chunk_trials(8, 8) == 42
    assert detection._chunk_trials(8, 10) == 38
    assert detection._chunk_trials(2, 0) == 296


@pytest.mark.parametrize("n, layers, trials", [(10, 8, 69), (8, 8, 43), (2, 3, 9)])
def test_decay_norms_do_not_depend_on_the_chunk(monkeypatch, n, layers, trials):
    # Reruns are byte for byte only if a trial's row is the same floats in
    # any chunk: the default chunk (here cut twice, once, or not at all),
    # chunks of 7 and of 1, in this process and in two workers.
    want = detection._decay_norms(n, layers, trials, seed=11)
    for size in (1, 7):
        monkeypatch.setattr(detection, "_chunk_trials", lambda n, layers: size)
        for jobs in (1, 2):
            got = detection._decay_norms(n, layers, trials, seed=11, jobs=jobs)
            assert got.tobytes() == want.tobytes()
    monkeypatch.undo()
    got = detection._decay_norms(n, layers, trials, seed=11, jobs=2)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("patch", ["pairing", "first-target signs"])
def test_decay_trial_zero_check_bites(monkeypatch, patch):
    # A sector step that disagrees with the backward pass must not reach a
    # report: a layer's targets in the other order, or the first target's
    # signs negated in the step's bit tables, so that each gate steps as
    # (X x I) U (X x I). Negating every sign would not do: X on every qubit
    # of every layer leaves each norm as it is.
    real = detection._brick_pairs
    if patch == "pairing":
        monkeypatch.setattr(detection, "_brick_pairs", lambda n, depth: real(n, depth)[::-1])
    else:
        flips, signs = propagation._bit_tables(2)
        monkeypatch.setattr(propagation, "_bit_tables", lambda w: (flips, signs * [[-1], [1]]))
    with pytest.raises(InvariantViolation, match="trial 0"):
        decay_experiment(4, 3, trials=5, seed=2)


@pytest.mark.parametrize("patch", ["not unitary", "nonreal", "rank-deficient"])
def test_decay_keeps_its_step_checks(monkeypatch, patch):
    # Each layer's Haar stack passes the unitarity check before it steps
    # (here the Ginibre matrices go through unmade, or a zero draw comes out
    # of Gram-Schmidt as NaN), and an imaginary residue past the tolerance
    # (here any at all) stops the step. The sector pass runs alone: trial
    # 0's check would refuse the Ginibre matrices as gates of its own
    # circuit.
    if patch == "not unitary":
        monkeypatch.setattr(circuits, "haar_from_ginibre", lambda z: z)
        error, match = pauli.NonUnitaryError, "unitary"
    elif patch == "rank-deficient":
        monkeypatch.setattr(circuits, "ginibre_two_qubit",
                            lambda rng, count: np.zeros((count, 4, 4), dtype=complex))
        error, match = pauli.NonUnitaryError, "unitary"
    else:
        monkeypatch.setattr(propagation, "_HERMITICITY_TOL", -1.0)
        error, match = InvariantViolation, "nonreal"
    with pytest.raises(error, match=match):
        detection._sector_norms(4, 3, np.random.SeedSequence(2).spawn(5))


@pytest.mark.parametrize("table", [[1, 2, 3, 4, 8, 12], [8, 4, 12, 1, 2, 3]],
                         ids=["target order", "X and Y"])
def test_suite_check_bites(monkeypatch, table):
    # A sector pass that disagrees with the backward pass must not reach a
    # report: the width-2 weight-1 table with the targets in the other
    # order, or with the first target's X and Y swapped. At depth 4 the
    # first instance's map survives the brickwork and both blocks.
    monkeypatch.setitem(pauli._WEIGHT_ONE, 2, np.array(table))
    with pytest.raises(InvariantViolation, match="suite instance 0"):
        instance_suite(default_instances(1, 1, 2, seed=0), n=6, depth=4, copies=3, s=4, seed=0)


@pytest.mark.parametrize("k, passes", [(1, 1), (2, 3)])
def test_suite_backpropagates_once_at_k_1(monkeypatch, k, passes):
    # At k = 1 only the first instance's check runs a backward pass; at
    # k = 2 each instance's detect runs its own and there is no check.
    calls = _count_calls(monkeypatch, propagation, "backpropagate", (detection,))
    instance_suite(default_instances(2, 1, 1, seed=0), n=3, depth=4, copies=1, s=4, k=k, seed=0)
    assert len(calls) == passes


def test_suite_derives_the_checked_map_once(monkeypatch):
    # The first instance's detect uses the weight-1 map its check verified,
    # so four instances make four sector passes, not five.
    calls = _count_calls(monkeypatch, propagation, "weight_one_pass", (detection,))
    instance_suite(default_instances(2, 2, 1, seed=0), n=3, depth=4, copies=1, s=4, k=1, seed=0)
    assert len(calls) == 4


def test_decay_memory_does_not_grow_with_trials():
    # Trials run a chunk at a time and their seeds are spawned per chunk,
    # so traced memory is set by the chunk, not by the trial count. The
    # slack covers the norms array (35 KB at 400 trials) and allocator
    # noise.
    decay_experiment(8, 10, trials=20, seed=0)  # warm numpy's caches
    peaks = []
    for trials in (40, 400):
        # The traces include the interpreter's free lists, which a full
        # collection empties: start each run from one, so the peaks do not
        # depend on what ran before this test.
        gc.collect()
        tracemalloc.start()
        try:
            decay_experiment(8, 10, trials=trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]
    assert max(peaks) <= detection.DECAY_BATCH_BYTES + 256 * 1024


@pytest.mark.parametrize("layers", [10, 150, 400])
def test_decay_chunk_stays_within_its_budget(layers):
    # One whole chunk holds its Ginibre stack while Gram-Schmidt makes all
    # of it Haar at once, so its temporaries grow with the depth; past 12
    # layers they outgrow the layer in flight, and chunks must shrink.
    seeds = np.random.SeedSequence(0).spawn(detection._chunk_trials(8, layers))
    detection._sector_norms(8, layers, seeds[:1])  # warm numpy's caches
    gc.collect()
    tracemalloc.start()
    try:
        detection._sector_norms(8, layers, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= detection.DECAY_BATCH_BYTES


def test_decay_parallel_matches_serial():
    serial = decay_experiment(4, 3, trials=12, seed=9, jobs=1)
    parallel = decay_experiment(4, 3, trials=12, seed=9, jobs=2)
    assert serial.layer_means == parallel.layer_means


# ---------------------------------------------------------------------------
# Instance suites


def test_verify_promise_accepts_and_rejects():
    good_c, good_p = circuits.promise_instance("x", 1)
    verify_promise(PromiseInstance("ok", "YES", good_c, good_p))

    mid_c, mid_p = circuits.promise_instance("ry", 1, angle=np.pi / 2)
    with pytest.raises(PromiseViolation):
        verify_promise(PromiseInstance("mid", "NO", mid_c, mid_p))
    with pytest.raises(PromiseViolation):
        verify_promise(PromiseInstance("mislabeled", "NO", good_c, good_p))
    with pytest.raises(PromiseViolation):
        verify_promise(PromiseInstance("wrong-claim", "YES", good_c, 0.9))


def test_empty_suite():
    result = instance_suite([], n=3, depth=6, copies=1, s=4, k=1, seed=0)
    assert result.entries == ()
    assert result.total == 0
    assert result.confusion == {}


def test_suite_rejects_off_promise_instance_before_running():
    mid_c, mid_p = circuits.promise_instance("ry", 1, angle=np.pi / 2)
    inst = PromiseInstance("mid", "NO", mid_c, mid_p)
    with pytest.raises(PromiseViolation):
        instance_suite([inst], n=3, depth=6, copies=1, s=4, k=1, seed=0)


def test_small_suite_all_correct():
    instances = default_instances(2, 2, m=1, seed=8)
    result = instance_suite(instances, n=4, depth=30, copies=3, s=16, k=1, seed=9)
    assert result.correct == result.total == 4
    assert result.confusion == {"YES:advantage": 2, "NO:no-advantage": 2}
    assert not any(e.markov_outlier for e in result.entries)


def test_suite_parallel_matches_serial():
    instances = default_instances(1, 1, m=1, seed=2)
    serial = instance_suite(instances, n=3, depth=18, copies=1, s=8, k=1, seed=4, jobs=1)
    parallel = instance_suite(instances, n=3, depth=18, copies=1, s=8, k=1, seed=4, jobs=2)
    assert [e.report for e in serial.entries] == [e.report for e in parallel.entries]


def test_default_instances_well_formed():
    instances = default_instances(5, 5, m=2, seed=3)
    assert len(instances) == 10
    for inst in instances:
        prob = verify_promise(inst)
        if inst.label == "YES":
            assert prob >= 2 / 3
        else:
            assert prob <= 1 / 3


def test_yes_instance_every_input_disagrees_by_two_thirds():
    # With exact expectations, every sampled input of a YES circuit shows
    # |exact - heuristic| well past the decision gap.
    cq, _ = circuits.promise_instance("x", 2)
    c = circuits.build_cnew(cq, n=4, depth=66, copies=3, seed=13)
    rep = detect(c, s=16, k=1, seed=3)
    assert all(r.difference >= 2 / 3 for r in rep.records)


def _count_calls(monkeypatch, module, name, owners):
    """Count calls of ``module.name`` through every binding in ``owners``,
    as the benchmark's tracer does."""
    real, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counting)
    return calls


def test_detect_builds_each_block_unitary_once(monkeypatch):
    from qadv import statevector

    cq, _ = circuits.promise_instance("x", 1)
    c = circuits.build_cnew(cq, n=3, depth=8, copies=1, seed=5)
    ops = len(statevector.fuse(c).ops)
    built = _count_calls(monkeypatch, statevector, "block_unitary", (statevector, propagation))
    detect(c, s=4, k=1, seed=0)
    # fuse's ops only, less the controlled inverse, which comes from the
    # open run's op: the two blocks are not built again for propagation.
    assert ops == 3
    assert len(built) == ops - 1


def test_suite_keeps_the_traced_dense_spans(monkeypatch):
    # The benchmark's traced suite run expects spans of both functions: at
    # k = 1 `fuse` builds the block unitaries, and the first instance's
    # backward pass conjugates its two blocks.
    from qadv import pauli, statevector

    built = _count_calls(monkeypatch, statevector, "block_unitary", (statevector, propagation))
    dense = _count_calls(monkeypatch, pauli, "conjugate_dense", (pauli, propagation))
    instance_suite(default_instances(1, 1, 1, seed=0), n=3, depth=8, copies=1, s=4, k=1, seed=0)
    assert built and len(dense) == 2


def test_fused_circuit_has_the_circuit_id():
    from qadv import statevector

    cq, _ = circuits.promise_instance("ry", 1, angle=0.4)
    c = circuits.build_cnew(cq, n=3, depth=4, copies=3, seed=2)
    assert detection.circuit_id(statevector.fuse(c)) == detection.circuit_id(c)


def test_circuit_id_is_pinned():
    # Ids from before each distinct gate head was encoded once per call: a
    # suite-shape C_new (re-taken when Gram-Schmidt replaced QR and moved
    # its Haar gates by about 1e-15), and RX(0.0) and RX(-0.0) on one qubit
    # in either order (equal as keys, apart as text).
    cq, _ = circuits.promise_instance("x", 2)
    cnew = circuits.build_cnew(cq, n=6, depth=78, copies=3, seed=0)
    assert detection.circuit_id(cnew) == "ad9b2b2d892a"
    rx = [ElementaryLayer((Gate("RX", (0,), param=t),)) for t in (0.0, -0.0)]
    assert detection.circuit_id(Circuit(1, tuple(rx))) == "f0c687497e97"
    assert detection.circuit_id(Circuit(1, tuple(rx[::-1]))) == "df1b15897940"


def test_circuit_id_survives_a_serialize_round_trip():
    cq, _ = circuits.promise_instance("ry", 1, angle=0.4)
    for c in (circuits.build_cnew(cq, n=3, depth=4, copies=3, seed=2),
              circuits.random_brickwork(4, 3, seed=1), _id_circuit()):
        back = circuits.deserialize(json.loads(circuits.serialize_json(c)))
        assert detection.circuit_id(back) == detection.circuit_id(c)


def _id_circuit() -> Circuit:
    """A circuit with one of every field the id covers."""
    sub = Circuit(2, (ElementaryLayer((Gate("H", (0,)),)),))
    return Circuit(
        4,
        (
            ElementaryLayer((Gate("RX", (0,), param=0.3),
                             Gate("matrix", (1, 2), matrix=np.diag([1, 1j, -1, 1])))),
            ElementaryLayer((Gate("perm", (0, 1), perm=(1, 0, 2, 3)),)),
            circuits.BlockLayer("b", sub, (1, 2), control=0),
        ),
        registers={"main": (0, 1), "anc": (2, 3)},
        metadata={"note": "x"},
    )


_ID_EDITS = {
    "kind": lambda d: d["layers"][0]["gates"][0].update(kind="RY"),
    "target": lambda d: d["layers"][0]["gates"][0].update(targets=[3]),
    "param": lambda d: d["layers"][0]["gates"][0].update(param=0.3 + 1e-15),
    "matrix_entry": lambda d: d["layers"][0]["gates"][1]["matrix"][3].__setitem__(3, [0.0, 1.0]),
    "perm": lambda d: d["layers"][1]["gates"][0].update(perm=[0, 1, 3, 2]),
    "register": lambda d: d.update(registers={"main": [0, 2], "anc": [3, 3]}),
    "metadata": lambda d: d.update(metadata={"note": "y"}),
    "block_control": lambda d: d["layers"][2].update(control=3),
}


@pytest.mark.parametrize("edit", _ID_EDITS)
def test_circuit_id_changes_with_any_one_field(edit):
    data = circuits.serialize(_id_circuit())
    before = detection.circuit_id(circuits.deserialize(data))
    _ID_EDITS[edit](data)
    assert detection.circuit_id(circuits.deserialize(data)) != before
