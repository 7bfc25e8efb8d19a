"""Files from outside the program: a bad field of a circuit file exits 2 and
names its JSON path, never a traceback, and never a run on a circuit the
file does not describe. Sweep configs and run manifests keep the same
promise of exit 0 or 2."""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from qadv import circuits, manifest
from qadv.circuits import Gate
from qadv.cli import main
from qadv.detection import circuit_id

BRICKWORK = circuits.serialize(circuits.random_brickwork(4, 2, seed=1))
CNEW = circuits.serialize(
    circuits.build_cnew(circuits.promise_instance("x", 1)[0], n=2, depth=2, copies=1, seed=1)
)


def _detect(doc) -> tuple[int, str, list[Path]]:
    """Run ``qadv detect`` on the document; its exit code, output and files."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "circuit.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        r = CliRunner().invoke(
            main, ["detect", "--circuit", str(path), "--s", "2", "--seed", "1",
                   "--out-dir", str(out)])
        return r.exit_code, r.output, sorted(out.glob("*")) if out.exists() else []


def _edited(doc, path, value):
    """A copy of doc with the node at path (keys and indices) replaced; a
    replacement of ... deletes an object's key."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is ...:
        del node[last]
    else:
        node[last] = value
    return doc


_GATE = ("layers", 0, "gates", 0)


@pytest.mark.parametrize("path, value, where", [
    (_GATE + ("targets",), "01", "$.layers[0].gates[0].targets"),
    (_GATE + ("targets",), [0.0, 1.0], "$.layers[0].gates[0].targets[0]"),
    (("layers", 0, "gates"), None, "$.layers[0].gates"),
    (("registers",), {"main": [0]}, "$.registers.main"),
    (("registers",), "main", "$.registers"),
    (("layers",), {}, "$.layers"),
    (("layers",), ..., "$.layers"),
    (("n_qubits",), "4", "$.n_qubits"),
    (("n_qubits",), 4.0, "$.n_qubits"),
], ids=["targets-text", "targets-floats", "gates-null", "register-short", "registers-text",
        "layers-object", "layers-missing", "n_qubits-text", "n_qubits-float"])
def test_bad_field_exits_2_naming_its_path(path, value, where):
    code, output, written = _detect(_edited(BRICKWORK, path, value))
    assert code == 2, output
    assert written == []
    assert f"{where}: " in output, output


def test_unedited_file_runs():
    for doc in (BRICKWORK, CNEW):
        code, output, written = _detect(doc)
        assert code == 0, output
        assert written


@pytest.mark.parametrize("targets", [(0.0, 1.0), (True, 1), ("0", "1")])
def test_gate_refuses_targets_that_are_not_integers(targets):
    with pytest.raises(ValueError, match="integers"):
        Gate("CNOT", targets)


def test_gate_takes_numpy_integer_targets_as_ints():
    g = Gate("CNOT", tuple(np.arange(2)))
    assert g.targets == (0, 1)
    assert all(type(t) is int for t in g.targets)


def test_block_takes_numpy_integer_targets_and_control_as_ints():
    sub = circuits.random_brickwork(2, 1, seed=3)
    block = circuits.BlockLayer("b", sub, (np.int64(1), np.int64(2)), control=np.int64(0))
    assert block.targets == (1, 2) and block.control == 0
    assert all(type(q) is int for q in (*block.targets, block.control))
    c = circuits.Circuit(3, (block,))
    plain = circuits.Circuit(3, (circuits.BlockLayer("b", sub, (1, 2), control=0),))
    assert circuit_id(c) == circuit_id(plain)
    again = circuits.deserialize(json.loads(circuits.serialize_json(c)))
    assert circuits.serialize_json(again) == circuits.serialize_json(c)


@pytest.mark.parametrize("targets, control", [
    ((1.0, 2), None), ((True, 2), None), (("1", "2"), None), ((1, 2), 0.0), ((1, 2), False),
])
def test_block_refuses_targets_or_control_that_are_not_integers(targets, control):
    sub = circuits.random_brickwork(2, 1, seed=3)
    with pytest.raises(ValueError, match="integers"):
        circuits.BlockLayer("b", sub, targets, control=control)


def _nodes(doc, path=()):
    """The path of every node below the root: each object value, each list item."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3),
)


@given(
    doc_and_path=st.sampled_from([BRICKWORK, CNEW]).flatmap(
        lambda doc: st.tuples(st.just(doc), st.sampled_from(list(_nodes(doc))))),
    value=_VALUES,
)
def test_any_one_replaced_field_exits_0_or_2(doc_and_path, value):
    doc, path = doc_and_path
    code, output, written = _detect(_edited(doc, path, value))
    assert code in (0, 2), output
    assert bool(written) == (code == 0)


SWEEP = {"protocol": "ghz", "trials": 4, "seed": 1,
         "cells": [{"N": 2, "theta": 0.3, "gamma": 0.1, "T": 2, "K": 1}]}
_DECAY = {"n": 4, "L": 2, "trials": 4, "seed": 1, "jobs": 1}
DECAY_MANIFEST = {"subcommand": "decay", "config": _DECAY, "seed": 1,
                  "version": manifest.ARTIFACT_VERSION,
                  "manifest_hash": manifest.manifest_hash("decay", _DECAY),
                  "outputs": [], "duration_s": 0.0}


def _run(kind, doc) -> tuple[int, str, list[Path]]:
    """Run ``qadv sweep --config`` on a sweep config, or ``qadv rerun`` on a
    manifest; its exit code, output and files."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "doc.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        args = ["sweep", "--config", str(path)] if kind == "sweep" else ["rerun", str(path)]
        r = CliRunner().invoke(main, [*args, "--out-dir", str(out)])
        return r.exit_code, r.output, sorted(out.glob("*")) if out.exists() else []


def test_unedited_sweep_config_and_manifest_run():
    for kind, doc in (("sweep", SWEEP), ("manifest", DECAY_MANIFEST)):
        code, output, written = _run(kind, doc)
        assert code == 0, output
        assert written


# Small integers only, so that no edit asks for a long run.
_SMALL_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-8, 8), st.floats(),
                           st.text(max_size=4))
_SMALL_VALUES = st.one_of(
    _SMALL_SCALARS,
    st.lists(_SMALL_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), _SMALL_SCALARS, max_size=3),
)
# The manifest's jobs stays 1, so that no edit starts worker processes.
_DOCS = [("sweep", SWEEP, list(_nodes(SWEEP))),
         ("manifest", DECAY_MANIFEST,
          [p for p in _nodes(DECAY_MANIFEST) if p != ("config", "jobs")])]


@given(
    doc_and_path=st.sampled_from(_DOCS).flatmap(
        lambda d: st.tuples(st.just(d[:2]), st.sampled_from(d[2]))),
    value=_SMALL_VALUES,
)
def test_any_one_replaced_config_or_manifest_field_exits_0_or_2(doc_and_path, value):
    (kind, doc), path = doc_and_path
    doc = _edited(doc, path, value)
    if kind == "manifest" and path != ("manifest_hash",):
        # Rehashed, so that the hash check does not hide the field checks.
        doc["manifest_hash"] = manifest.manifest_hash(doc["subcommand"], doc["config"])
    code, output, written = _run(kind, doc)
    assert code in (0, 2), output
    assert bool(written) == (code == 0)
