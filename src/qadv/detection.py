"""Advantage-detection experiments: heuristic-vs-exact comparison over
sampled inputs, the Frobenius-decay Monte Carlo, and labeled instance
suites with confusion counts."""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import circuits, statevector
from .errors import PromiseViolation
from .pool import seeded_chunks, seeded_map
from .propagation import PropagationConfig, backpropagate, evaluate_product_state, z_first

#: A heuristic and an exact value disagree when they differ by at least this.
DISAGREEMENT_GAP = 1.0 / 3.0

#: Bytes of memory one batch of decay trials may hold while it propagates.
#: Measured with `tracemalloc`, a batch holds about 240 KiB however many
#: trials it has (most of it one step of a transfer-matrix build), and each
#: trial about (3 + 0.6 L) KiB per two-qubit gate of a layer: 0.6 KiB per
#: gate of its circuit, and 3 KiB for its share of the layer being built.
#: So 1 MiB batches 21 trials at n = 8, L = 10.
DECAY_BATCH_BYTES = 1024 * 1024


def _hash_circuit(h, c: circuits.Circuit) -> None:
    # The layer count ends a sub-circuit, and a gate's kind and width fix
    # its matrix's length, so the stream reads back one way only.
    h.update(json.dumps([c.n_qubits, len(c.layers), c.registers, c.metadata],
                        sort_keys=True).encode())
    for layer in c.layers:
        if isinstance(layer, circuits.BlockLayer):
            h.update(json.dumps([layer.name, layer.targets, layer.control]).encode())
            _hash_circuit(h, layer.circuit)
        else:
            for g in layer.gates:
                param = None if g.param is None else float(g.param)
                h.update(json.dumps([g.kind, g.targets, param, g.perm]).encode())
                if g.matrix is not None:
                    h.update(g.matrix.tobytes())
        h.update(b";")


def circuit_id(c: circuits.Circuit) -> str:
    """A sha256 prefix over the circuit's fields: per circuit its width,
    layer count, registers and metadata; per gate its kind, targets, angle
    and permutation, then its complex128 matrix bytes; per block its name,
    targets and control, then its sub-circuit; a terminator after each
    layer. Unchanged by a serialize/deserialize round trip."""
    h = hashlib.sha256()
    _hash_circuit(h, c)
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
) -> DetectionReport:
    """Sample s uniform inputs over the main register, compare the exact
    first-qubit expectation against the weight-k heuristic, and classify.

    The exact side is 1 - 2*C(x) from the statevector oracle; passing
    `shots` switches it to an empirical estimate from that many Bernoulli
    draws per input, matching the repeated-measurement procedure. One
    fused circuit serves every sampled input and lends its block unitaries
    to the one backward propagation, so none is built twice.
    """
    if s < 1:
        raise ValueError("sample count must be at least 1")
    if shots is not None and shots < 1:
        raise ValueError("shots must be at least 1")
    cfg = PropagationConfig(k=k)
    rng = np.random.default_rng(seed)
    lo, hi = c.input_register()
    width = hi - lo + 1

    fused = statevector.fuse(c)
    o0 = backpropagate(fused, z_first(c.n_qubits), cfg)

    records = []
    for _ in range(s):
        x = "".join(str(int(b)) for b in rng.integers(0, 2, size=width))
        prob = statevector.output_prob(fused, x)
        if shots is not None:
            prob = rng.binomial(shots, prob) / shots
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


def _decay_batch(n: int, layers: int, seeds) -> list[list[float]]:
    """The norms of one trial per seed, from one batched backward pass."""
    batch = [circuits.random_brickwork(n, layers, seed=ss) for ss in seeds]
    cfg = PropagationConfig(k=1)
    return [norms for _, norms in backpropagate(batch, z_first(n), cfg, record_norms=True)]


def _batch_trials(n: int, layers: int) -> int:
    """Trials per batch: what is left of `DECAY_BATCH_BYTES` after a batch's
    240 KiB, at (3 + 0.6 layers) KiB per trial and two-qubit gate of a
    layer."""
    trial = (3 + 0.6 * layers) * 1024 * (n // 2)
    return max(1, int((DECAY_BATCH_BYTES - 240 * 1024) // trial))


def _decay_norms(n: int, layers: int, trials: int, seed, jobs: int = 1) -> np.ndarray:
    """One row of layers + 1 norms per trial, each the trial's own
    ``backpropagate(..., record_norms=True)`` norms."""
    size = _batch_trials(n, layers)
    norms = np.empty((trials, layers + 1))
    run = functools.partial(_decay_batch, n, layers)
    for start, rows in zip(range(0, trials, size), seeded_chunks(run, trials, size, seed, jobs)):
        norms[start:start + len(rows)] = rows
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
    child i of ``seed``; trials propagate in batches sized by
    `DECAY_BATCH_BYTES`, and with jobs > 1 each worker takes whole batches.
    A trial's norms do not depend on its batch.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("decay experiment requires an even qubit count of at least 2")
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


def _suite_entry(args, ss) -> SuiteEntry:
    inst, prob, n, depth, copies, s, k = args
    u_seed, detect_seed = ss.spawn(2)
    cnew = circuits.build_cnew(inst.circuit, n=n, depth=depth, copies=copies, seed=u_seed)
    report = detect(cnew, s=s, k=k, seed=detect_seed)
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
    """Verify every label before any detection work, then build one
    detection circuit per instance with a fresh random-circuit seed (and,
    without ``depth``, the default depth of its own width), run detect, and
    tally verdict-vs-label counts."""
    probs = [verify_promise(inst) for inst in instances]
    work = [(inst, prob, n, depth, copies, s, k) for inst, prob in zip(instances, probs)]
    entries = tuple(seeded_map(_suite_entry, work, seed, jobs))
    confusion: dict[str, int] = {}
    for e in entries:
        key = f"{e.label}:{e.report.verdict}"
        confusion[key] = confusion.get(key, 0) + 1
    correct = sum(e.correct for e in entries)
    return SuiteResult(entries=entries, confusion=confusion, correct=correct, total=len(entries))
