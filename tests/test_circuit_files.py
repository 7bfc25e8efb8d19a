"""Circuit files from outside the program: a bad field exits 2 and names its
JSON path, never a traceback, and never a run on a circuit the file does
not describe."""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from qadv import circuits
from qadv.circuits import Gate
from qadv.cli import main

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
