"""Advantage-detection experiments: heuristic-vs-exact comparison over
sampled inputs, the Frobenius-decay Monte Carlo, and labeled instance
suites with confusion counts.

At k = 1 the observable holds only weight-1 terms, so both `detect` and
the decay Monte Carlo compute in that sector: an ``(n, 3)`` array of X, Y
and Z coefficients. `detect` takes its map from
`propagation.weight_one_pass`, which steps each gate through the weight-1
block of its transfer matrix, wrapped by `propagation.sector_map`; at
k >= 2 it runs `propagation.backpropagate`. Both passes walk the same
layers in the same windows and borrow the same fused block ops. Once per
suite, the first instance's k = 1 map is re-derived through
`backpropagate` (`_check_sector`), and that instance's `detect` uses the
map the check verified, so the map is derived once. Decay uses each Haar
gate once, so it steps each straight from its unitary
(`propagation.unitary_step`) and builds no block.

Each decay trial draws its Ginibre matrices from its own stream; the
Gram-Schmidt that makes them Haar runs once per chunk, over every gate
of every trial and layer. Once per run, trial 0 is re-derived through
`circuits.random_brickwork` and `backpropagate`. Either disagreement is an
`InvariantViolation`.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import circuits, statevector
from .errors import InvariantViolation, PromiseViolation, ResourceLimitExceeded
from .pauli import DROP_TOLERANCE, MAX_QUBITS, PauliMap, check_unitary
from .pool import child_seeds, seeded_chunks, seeded_map
from .propagation import (
    PropagationConfig,
    backpropagate,
    evaluate_product_state,
    sector_map,
    unitary_step,
    weight_one_pass,
    z_first,
)

#: A heuristic and an exact value disagree when they differ by at least this.
DISAGREEMENT_GAP = 1.0 / 3.0

#: Bytes of memory one chunk of decay trials may hold while it propagates.
#: `_chunk_trials` reserves a fixed 208 KiB a chunk, and per trial and
#: gate its Ginibre stack (256 B a layer) plus the larger of 224 B a layer
#: for the Gram-Schmidt that makes the whole stack Haar at once and 2.75
#: KiB for the layer in flight. So 1 MiB holds 38 trials at n = 8, L = 10,
#: and chunks shrink faster with depth past 12 layers. Measured with
#: `tracemalloc` over chunks of 38 to 152 trials at L = 10 and 40, the
#: Gram-Schmidt's temporaries take 180 to 225 B a gate and layer, and the
#: layer in flight about 2 KiB a gate (its unitarity check, and the step's
#: O U and gathered columns). The Gram-Schmidt sets the peak: 726 KiB for
#: a 38-trial chunk at L = 10. The reservation was sized for block builds
#: that decay no longer makes; it is kept as headroom, so the chunk sizes
#: stand. It also covers a trial's draw in flight (`DECAY_DRAW_BYTES`).
DECAY_BATCH_BYTES = 1024 * 1024

#: Bytes one piece of a trial's Ginibre draw may hold on its way into the
#: chunk's stack: 512 B a gate (its float normals and their complex
#: matrix), so 32 layers at n = 8. A piece is whole layers, at least one.
DECAY_DRAW_BYTES = 64 * 1024


def _hash_circuit(update, gates: dict, c: circuits.Circuit) -> None:
    # The layer count ends a sub-circuit, and a gate's kind and width fix
    # its matrix's length, so the stream reads back one way only.
    update(json.dumps([c.n_qubits, len(c.layers), c.registers, c.metadata],
                      sort_keys=True).encode())
    for layer in c.layers:
        if isinstance(layer, circuits.BlockLayer):
            update(json.dumps([layer.name, layer.targets, layer.control]).encode())
            _hash_circuit(update, gates, layer.circuit)
        else:
            for g in layer.gates:
                # 0.0 and -0.0 are one key but encode apart: key zeros by text.
                key = (g.kind, g.targets, g.param if g.param else str(g.param), g.perm)
                if (head := gates.get(key)) is None:
                    param = None if g.param is None else float(g.param)
                    head = gates[key] = json.dumps([g.kind, g.targets, param, g.perm]).encode()
                update(head)
                if g.matrix is not None:
                    update(g.matrix.tobytes())
        update(b";")


def circuit_id(c: circuits.Circuit) -> str:
    """A sha256 prefix over the circuit's fields: per circuit its width,
    layer count, registers and metadata; per gate its kind, targets, angle
    and permutation, then its complex128 matrix bytes; per block its name,
    targets and control, then its sub-circuit; a terminator after each
    layer. Unchanged by a serialize/deserialize round trip."""
    h = hashlib.sha256()
    # Each distinct gate head (kind, targets, angle, permutation) is
    # encoded once per call; the stream goes to the hash piece by piece.
    _hash_circuit(h.update, {}, c)
    return h.hexdigest()[:12]


@dataclass(frozen=True)
class InputRecord:
    x: str
    exact: float
    heuristic: float
    difference: float


@dataclass(frozen=True)
class DetectionReport:
    circuit_id: str
    s: int
    k: int
    seed: int | None
    records: tuple[InputRecord, ...]
    disagree_fraction: float
    verdict: str  # "advantage" iff disagree_fraction > 1/2, else "no-advantage"
    promise_violated: bool  # disagree_fraction strictly inside (1/3, 2/3)
    heuristic_norm: float  # normalized squared Frobenius norm of O_0


def detect(
    c: circuits.Circuit,
    s: int = 32,
    k: int = 1,
    seed: int | np.random.SeedSequence | None = None,
    shots: int | None = None,
    *,
    heuristic: PauliMap | None = None,
) -> DetectionReport:
    """Sample s uniform inputs over the main register, compare the exact
    first-qubit expectation against the weight-k heuristic, and classify.

    The exact side is 1 - 2*C(x) from the statevector oracle, which sums
    out the spectators of the circuit's first op (`statevector.output_prob`).
    In a `circuits.build_cnew` circuit those are the amplified block's
    ancillas, all its qubits but the majority qubit; with two or more of
    them, each input runs two kets of the main register and the majority
    qubit, not the full state. Passing `shots` switches it to an empirical
    estimate from that many Bernoulli draws per input, matching the
    repeated-measurement procedure; a probability within
    `statevector._NORM_TOL` of [0, 1] is clipped for the draw, and one
    farther out raises InvariantViolation. One fused circuit (``c`` itself
    when it is a `statevector.FusedCircuit`) serves every sampled input and
    lends its block unitaries to the heuristic, so none is built twice. At
    k = 1 the heuristic is `propagation.weight_one_pass` wrapped as a
    `PauliMap` (`propagation.sector_map`); at k >= 2 it is
    `backpropagate`. Of a `circuits.build_cnew` circuit's ops,
    `statevector.fuse` derives the controlled inverse's from the open
    run's. A caller that already holds that heuristic observable passes it
    as ``heuristic`` (the suite's first instance: the map `_check_sector`
    verified), and it is not derived again.
    """
    if s < 1:
        raise ValueError("sample count must be at least 1")
    if shots is not None and not 1 <= shots <= np.iinfo(np.int64).max:
        raise ValueError("shots must be between 1 and 2^63 - 1")
    cfg = PropagationConfig(k=k)
    rng = np.random.default_rng(seed)
    lo, hi = c.input_register()
    width = hi - lo + 1

    fused = c if isinstance(c, statevector.FusedCircuit) else statevector.fuse(c)
    z = z_first(c.n_qubits)
    if (o0 := heuristic) is None:
        o0 = backpropagate(fused, z, cfg) if k > 1 else sector_map(weight_one_pass(fused, z))

    records = []
    for _ in range(s):
        x = "".join(str(int(b)) for b in rng.integers(0, 2, size=width))
        prob = statevector.output_prob(fused, x)
        if shots is not None:
            # Rounding can carry an exact probability of 0 or 1 a few ulps
            # past it; the draw takes it clipped, and anything farther out
            # is a broken oracle.
            if not -statevector._NORM_TOL <= prob <= 1.0 + statevector._NORM_TOL:
                raise InvariantViolation(f"output probability {prob} lies outside [0, 1]")
            prob = rng.binomial(shots, min(max(prob, 0.0), 1.0)) / shots
        exact = 1.0 - 2.0 * prob
        heur = evaluate_product_state(o0, c.full_input(x))
        records.append(InputRecord(x, exact, heur, abs(exact - heur)))

    disagree = sum(r.difference >= DISAGREEMENT_GAP for r in records) / s
    return DetectionReport(
        circuit_id=circuit_id(c),
        s=s,
        k=k,
        seed=seed if isinstance(seed, int) else None,
        records=tuple(records),
        disagree_fraction=disagree,
        verdict="advantage" if disagree > 0.5 else "no-advantage",
        promise_violated=DISAGREEMENT_GAP < disagree < 1.0 - DISAGREEMENT_GAP,
        heuristic_norm=o0.frobenius_normalized(),
    )


# ---------------------------------------------------------------------------
# Frobenius-decay Monte Carlo


@dataclass(frozen=True)
class DecayResult:
    n: int
    layers: int
    trials: int
    seed: int | None
    layer_means: tuple[float, ...]  # index j = after j layer steps; [0] = 1
    ratios: tuple[float | None, ...]  # layer_means[j+1] / layer_means[j]; None if 0/0
    final_mean: float
    final_stderr: float
    expected_final: float  # (2/5)^layers
    expected_ratio: float = 0.4


def _brick_pairs(n: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and second targets of the gates of layer ``depth`` of an
    even-n `circuits.random_brickwork`, in its gate order: (q, q + 1 mod n)
    for every other q from depth mod 2. Derived here, not taken from
    `circuits`, so that the trial-0 check compares two derivations."""
    first = np.arange(depth % 2, n, 2)
    return first, (first + 1) % n


def _sector_norms(n: int, layers: int, seeds) -> np.ndarray:
    """The k = 1 norms of one trial per seed: a row of layers + 1.

    Trial t draws the Ginibre stack that ``circuits.random_brickwork(n,
    layers, seeds[t])`` draws, in pieces of at most `DECAY_DRAW_BYTES`
    straight into the chunk's stack (one stream, so the same normals).
    Every gate of every trial and layer becomes Haar in one
    `circuits.haar_from_ginibre` call, in place, which gives each gate
    `random_brickwork`'s bytes. A trial's observable is an
    (n, 3) array of weight-1 coefficients. A gate moves a weight-1 term on
    its pair to terms on the pair alone, and the projection keeps their
    weight-1 part, so each gate acts on the 6 coefficients of its pair.
    Layer by layer, after `pauli.check_unitary` passes the layer's Haar
    stack (one check of the whole chunk would hold two more copies of
    it), one `propagation.unitary_step` steps every gate of every trial
    straight from its unitary; its sums run in a fixed order, so they do
    not depend on the chunk's shape. No drop tolerance applies. A trial's
    rows never meet another trial's, so its norms do not depend on the
    other seeds.
    """
    half, trials = n // 2, len(seeds)
    ginibre = np.empty((layers, trials, half, 4, 4), dtype=complex)
    piece = max(1, DECAY_DRAW_BYTES // (512 * half))
    for t, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        for lo in range(0, layers, piece):
            hi = min(lo + piece, layers)
            ginibre[lo:hi, t] = circuits.ginibre_two_qubit(
                rng, half * (hi - lo)).reshape(hi - lo, half, 4, 4)
    coeffs = np.zeros((trials, n, 3))
    coeffs[:, 0, 2] = 1.0  # Z on the first qubit
    norms = np.empty((trials, layers + 1))
    norms[:, 0] = 1.0
    haar = circuits.haar_from_ginibre(ginibre)
    for depth in reversed(range(layers)):
        check_unitary(haar[depth].reshape(-1, 4, 4))
        unitary_step(coeffs, np.stack(_brick_pairs(n, depth), axis=1), haar[depth])
        norms[:, layers - depth] = np.square(coeffs).sum(axis=(1, 2))
    return norms


def _chunk_trials(n: int, layers: int) -> int:
    """Trials per chunk: what is left of `DECAY_BATCH_BYTES` after a
    chunk's 208 KiB, at (256 layers + max(224 layers, 2816)) B per trial
    and gate of a layer: more than a chunk measures (see
    `DECAY_BATCH_BYTES`)."""
    trial = (n // 2) * (256 * layers + max(224 * layers, 2816))
    return max(1, (DECAY_BATCH_BYTES - 208 * 1024) // trial)


def _within_drops(got, want, n: int, layers: int) -> bool:
    """Whether two k = 1 results over ``layers`` layers of ``n`` qubits
    agree to rounding and the passes' drops. A layer's drops move a pass's
    coefficients by at most sqrt(3n) times the tolerance in 2-norm, and
    later layers do not stretch that; two passes compared, or a squared
    norm at most 1, move by at most twice that distance."""
    return np.allclose(got, want, rtol=1e-12, atol=2 * layers * np.sqrt(3 * n) * DROP_TOLERANCE)


def _decay_norms(n: int, layers: int, trials: int, seed, jobs: int = 1) -> np.ndarray:
    """One row of layers + 1 norms per trial (`_sector_norms`), in chunks of
    `_chunk_trials`. Trial 0 is re-derived through `backpropagate`, one
    declared layer at a time, last first: a pass over a bare circuit is
    the chain of its one-layer passes, so the chain's norms are the pass's
    own. A row that differs from them by more than rounding and the pass's
    drops raises InvariantViolation."""
    entropy = np.random.SeedSequence(seed).entropy  # a None seed is drawn once, here
    size = _chunk_trials(n, layers)
    norms = np.empty((trials, layers + 1))
    run = functools.partial(_sector_norms, n, layers)
    for start, rows in zip(range(0, trials, size), seeded_chunks(run, trials, size, entropy, jobs)):
        norms[start:start + len(rows)] = rows
    circuit = circuits.random_brickwork(n, layers, seed=next(child_seeds(entropy)))
    acc, cfg = z_first(n), PropagationConfig(k=1)
    want = [acc.frobenius_normalized()]
    for layer in reversed(circuit.layers):
        acc = backpropagate(circuits.Circuit(n, (layer,)), acc, cfg)
        want.append(acc.frobenius_normalized())
    if not _within_drops(norms[0], want, n, layers):
        raise InvariantViolation("decay norms of trial 0 differ from its backward pass")
    return norms


def decay_experiment(
    n: int,
    layers: int,
    trials: int,
    seed: int | None = None,
    jobs: int = 1,
) -> DecayResult:
    """Mean normalized norm of the k=1 heuristic observable after each
    brickwork layer, over fresh random circuits.

    Requires even n >= 2: the per-layer decay law needs every qubit covered
    by exactly one two-qubit gate per layer. Trial i draws its circuit from
    child i of ``seed``; trials propagate in chunks sized by
    `DECAY_BATCH_BYTES`, and with jobs > 1 each worker takes whole chunks.
    A trial's norms do not depend on its chunk.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("decay experiment requires an even qubit count of at least 2")
    if n > MAX_QUBITS:
        raise ResourceLimitExceeded(
            f"decay on {n} qubits exceeds the {MAX_QUBITS}-qubit mask width")
    if layers < 0:
        raise ValueError("decay depth must be nonnegative")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    norms = _decay_norms(n, layers, trials, seed, jobs)
    means = norms.mean(axis=0)
    ratios = tuple(float(means[j + 1] / means[j]) if means[j] else None for j in range(layers))
    final = norms[:, -1]
    stderr = float(final.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return DecayResult(
        n=n,
        layers=layers,
        trials=trials,
        seed=seed,
        layer_means=tuple(float(v) for v in means),
        ratios=ratios,
        final_mean=float(final.mean()),
        final_stderr=stderr,
        expected_final=0.4**layers,
    )


# ---------------------------------------------------------------------------
# Labeled instance suites


@dataclass(frozen=True)
class PromiseInstance:
    name: str
    label: str  # "YES" or "NO"
    circuit: circuits.Circuit
    claimed_probability: float


def verify_promise(inst: PromiseInstance) -> float:
    """Exact success probability of the instance; raises PromiseViolation
    when it falls in the forbidden (1/3, 2/3) band or contradicts the label."""
    prob = statevector.output_prob(inst.circuit, "0" * inst.circuit.n_qubits)
    if abs(prob - inst.claimed_probability) > 1e-9:
        raise PromiseViolation(
            f"{inst.name}: claimed probability {inst.claimed_probability} "
            f"but exact value is {prob}"
        )
    if inst.label == "YES" and prob < 2 / 3:
        raise PromiseViolation(f"{inst.name}: YES label needs probability >= 2/3, got {prob}")
    if inst.label == "NO" and prob > 1 / 3:
        raise PromiseViolation(f"{inst.name}: NO label needs probability <= 1/3, got {prob}")
    if inst.label not in ("YES", "NO"):
        raise PromiseViolation(f"{inst.name}: unknown label {inst.label!r}")
    return prob


def default_instances(
    n_yes: int, n_no: int, m: int, seed: int | None = None
) -> list[PromiseInstance]:
    """A labeled corpus: one X and one identity instance, the rest Y-rotations.

    NO-instance probabilities are kept near 0. At desk sizes a borderline
    NO instance (probability near 1/3) leaves a majority-vote residual that
    is not yet negligible and would blur the separation the suite asserts.
    """
    rng = np.random.default_rng(seed)
    out: list[PromiseInstance] = []
    for i in range(n_yes):
        if i == 0:
            circ, p = circuits.promise_instance("x", m)
        else:
            target = rng.uniform(5 / 6, 0.995)
            circ, p = circuits.promise_instance("ry", m, angle=2 * np.arcsin(np.sqrt(target)))
        out.append(PromiseInstance(f"yes{i:02d}", "YES", circ, p))
    for i in range(n_no):
        if i == 0:
            circ, p = circuits.promise_instance("identity", m)
        else:
            target = rng.uniform(0.002, 0.05)
            circ, p = circuits.promise_instance("ry", m, angle=2 * np.arcsin(np.sqrt(target)))
        out.append(PromiseInstance(f"no{i:02d}", "NO", circ, p))
    return out


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    label: str
    exact_probability: float
    report: DetectionReport
    correct: bool
    markov_outlier: bool


@dataclass(frozen=True)
class SuiteResult:
    entries: tuple[SuiteEntry, ...]
    confusion: dict[str, int]
    correct: int
    total: int


def _check_sector(c: statevector.FusedCircuit) -> PauliMap:
    """Derive the k = 1 heuristic of ``c`` as `detect` does (the wrapped
    `weight_one_pass`) and again through `backpropagate`, and return the
    first, for `detect` to use. Raise InvariantViolation unless the two
    maps agree label by label (`_within_drops`), a stray identity term
    included."""
    z = z_first(c.n_qubits)
    heuristic = sector_map(weight_one_pass(c, z))
    got = heuristic.to_labels()
    want = backpropagate(c, z, PropagationConfig(k=1)).to_labels()
    labels = sorted(set(got) | set(want))
    if not _within_drops([got.get(p, 0.0) for p in labels], [want.get(p, 0.0) for p in labels],
                         c.n_qubits, len(c.layers)):
        raise InvariantViolation(
            "weight-1 heuristic of suite instance 0 differs from its backward pass")
    return heuristic


def _suite_entry(args, ss) -> SuiteEntry:
    inst, prob, n, depth, copies, s, k, first = args
    u_seed, detect_seed = ss.spawn(2)
    cnew = statevector.fuse(
        circuits.build_cnew(inst.circuit, n=n, depth=depth, copies=copies, seed=u_seed))
    heuristic = _check_sector(cnew) if first and k == 1 else None
    report = detect(cnew, s=s, k=k, seed=detect_seed, heuristic=heuristic)
    expected = "advantage" if inst.label == "YES" else "no-advantage"
    # Markov budget on the final heuristic norm: exceeded for at most a
    # 2^-n fraction of random circuits; an exceedance is flagged, not fatal.
    budget = 0.4 ** cnew.metadata["depth"] * 2**n
    return SuiteEntry(
        name=inst.name,
        label=inst.label,
        exact_probability=prob,
        report=report,
        correct=report.verdict == expected,
        markov_outlier=report.heuristic_norm > budget,
    )


def instance_suite(
    instances: Sequence[PromiseInstance],
    n: int,
    depth: int | None = None,
    copies: int = 3,
    s: int = 32,
    k: int = 1,
    seed: int | None = None,
    jobs: int = 1,
) -> SuiteResult:
    """Check every detection circuit's width, n + m*copies + 1, against
    `statevector.DENSE_LIMIT` and verify every label before any detection
    work, then build one detection circuit per instance with a fresh
    random-circuit seed (and, without ``depth``, the default depth of its
    own width), run detect, and tally verdict-vs-label counts. At k = 1 the
    first instance's heuristic is re-derived through `backpropagate`
    (`_check_sector`), and a disagreement raises InvariantViolation; the
    map it checked is the one that instance's detect uses."""
    for inst in instances:
        statevector.check_dense_limit(n + inst.circuit.n_qubits * copies + 1)
    probs = [verify_promise(inst) for inst in instances]
    work = [(inst, prob, n, depth, copies, s, k, i == 0)
            for i, (inst, prob) in enumerate(zip(instances, probs))]
    entries = tuple(seeded_map(_suite_entry, work, seed, jobs))
    confusion: dict[str, int] = {}
    for e in entries:
        key = f"{e.label}:{e.report.verdict}"
        confusion[key] = confusion.get(key, 0) + 1
    correct = sum(e.correct for e in entries)
    return SuiteResult(entries=entries, confusion=confusion, correct=correct, total=len(entries))
