"""In-memory span tracer that wraps qadv's public functions from outside.

A span records its name, start, end, parent span and item id, plus the
counts its wrapper takes at the layer boundary (Pauli terms in and out,
bytes written, a digest of a transfer-matrix input). Spans stay in a list
until the run ends; `summarize` then turns them into per-layer metrics and
`layer_table` into a per-declared-layer table.

Each wrapper is bound on every name in the loaded ``qadv`` modules that
refers to the wrapped object, not only on the defining module:
``propagation`` and ``detection`` import kernels with ``from .x import y``
and look them up under their own names.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import numpy as np

# Span record fields, in order.
NAME, PARENT, ITEM, START, END, COUNTS = range(6)
SPAN_FIELDS = ["name", "parent", "item", "start", "end", "counts"]

MODULES = ("circuits", "pauli", "propagation", "statevector", "detection",
           "sq", "sensing", "bell", "manifest", "cli")


def _terms(args, kwargs, out):
    return {"terms_in": len(args[0]), "terms_out": len(out)}


def _digest(args, kwargs, out):
    raw = np.ascontiguousarray(np.asarray(args[0], dtype=complex)).tobytes()
    return {"digest": hashlib.blake2b(raw, digest_size=16).digest()}


def _bytes_written(args, kwargs, out):
    return {"bytes_out": os.path.getsize(args[0])}


#: (module, attribute path, counter) for every wrapped public function.
#: An attribute path with a dot names a method on a public class.
TARGETS = (
    ("circuits", "haar_two_qubit", None),
    ("circuits", "random_brickwork", None),
    ("circuits", "build_cnew", None),
    ("pauli", "transfer_matrix", _digest),
    ("pauli", "conjugate_layer", _terms),
    ("pauli", "conjugate_dense", _terms),
    ("pauli", "PauliMap.project_weight", _terms),
    ("propagation", "backpropagate", None),
    ("propagation", "block_unitary", None),
    ("propagation", "evaluate_product_state", None),
    ("propagation", "z_first", None),
    ("statevector", "output_prob", None),
    ("statevector", "apply_circuit", None),
    ("detection", "detect", None),
    ("detection", "verify_promise", None),
    ("detection", "default_instances", None),
    ("detection", "instance_suite", None),
    ("detection", "decay_experiment", None),
    ("sq", "build", None),
    ("sq", "SQVector.check_tree", None),
    ("sq", "sample_many", None),
    ("sq", "inner_product_estimate", None),
    ("sensing", "scaling_sweep", None),
    ("sensing", "minimal_ghz_uses", None),
    ("sensing", "minimal_separable_nt", None),
    ("bell", "socks_simulation", None),
    ("bell", "strategy_table", None),
    ("manifest", "write_json_report", _bytes_written),
    ("manifest", "write_csv_table", _bytes_written),
    ("manifest", "write_manifest", _bytes_written),
    ("cli", "main", None),
)


class Tracer:
    """Records spans while installed; `install` and `uninstall` bracket one
    traced repetition.

    ``opener`` names the span that starts a new work item, and ``item_key``
    maps that span's call arguments to the item id; without a key, items
    are numbered in call order. Opened items end when the span that called
    the opener returns. Other spans carry the id the harness last set
    through ``item``.
    """

    def __init__(self, opener: str | None = None, item_key=None) -> None:
        self.spans: list[list] = []
        self.item = None
        self.missing: list[str] = []
        self._opener = opener
        self._item_key = item_key
        self._opened = 0
        # (span whose return closes the opened items, the item to restore)
        self._scope: tuple[int, object] | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        opens_item = name == self._opener

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if opens_item:
                if self._scope is None:
                    self._scope = (parent, self.item)
                self.item = (self._item_key(*args, **kwargs) if self._item_key
                             else self._opened)
                self._opened += 1
            rec = [name, parent, self.item, 0.0, 0.0, None]
            spans.append(rec)
            index = len(spans) - 1
            stack.append(index)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if self._scope is not None and self._scope[0] == index:
                    self.item, self._scope = self._scope[1], None
            if counter is not None:
                rec[COUNTS] = counter(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "qadv" or n.startswith("qadv."))]
        for module, path, counter in TARGETS:
            owner = sys.modules.get(f"qadv.{module}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{path}")
                continue
            wrapper = self._wrap(f"{module}.{path}", original, counter)
            if cls_path:
                self._bind(owner, attr, wrapper)
                continue
            for mod in loaded:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, binding, wrapper)

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-function and per-module totals from the recorded spans.

    For each span name: ``.s`` (inclusive time), ``.self_s``, ``.calls`` and
    the sums of its counters. For each module: ``<module>.self_s``. Ratios:
    transfer-matrix ``reuse`` = 1 - distinct/calls, projection ``kept`` =
    terms out / terms in, dense-conjugation ``useful`` = share of calls that
    received at least one term. A ratio whose base is 0 reads 0.
    """
    own = self_times(spans)
    out: dict[str, float] = {}
    digests: set[bytes] = set()
    useful = 0
    for s, self_s in zip(spans, own):
        name = s[NAME]
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (s[END] - s[START])
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        module = name.split(".", 1)[0]
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + self_s
        for key, value in (s[COUNTS] or {}).items():
            if key == "digest":
                digests.add(value)
            else:
                out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
        if name == "pauli.conjugate_dense" and s[COUNTS]["terms_in"] > 0:
            useful += 1
    tm_calls = out.get("pauli.transfer_matrix.calls", 0)
    out["pauli.transfer_matrix.distinct"] = len(digests)
    out["pauli.transfer_matrix.reuse"] = 1.0 - len(digests) / tm_calls if tm_calls else 0.0
    pw_in = out.get("pauli.PauliMap.project_weight.terms_in", 0)
    out["pauli.PauliMap.project_weight.kept"] = (
        out.get("pauli.PauliMap.project_weight.terms_out", 0) / pw_in if pw_in else 0.0)
    cd_calls = out.get("pauli.conjugate_dense.calls", 0)
    out["pauli.conjugate_dense.useful"] = useful / cd_calls if cd_calls else 0.0
    out["manifest.bytes_out"] = sum(
        v for k, v in out.items() if k.startswith("manifest.") and k.endswith(".bytes_out"))
    return out


def layer_table(spans: list[list]) -> list[dict]:
    """One row per declared layer of every traced backpropagate call.

    Rows follow the call order of the ``conjugate_layer`` and
    ``project_weight`` spans under each ``backpropagate`` span: the first
    projection is the up-front one, and each later projection closes the
    layer conjugated since the previous one. ``seconds`` runs from the end of
    the previous projection to the end of this one, so it includes building
    the layer's transfer matrices.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)
    rows: list[dict] = []
    for call, bp in enumerate(i for i, s in enumerate(spans)
                              if s[NAME] == "propagation.backpropagate"):
        projections = [i for i in children.get(bp, [])
                       if spans[i][NAME] == "pauli.PauliMap.project_weight"]
        conjugations = [i for i in children.get(bp, [])
                        if spans[i][NAME] == "pauli.conjugate_layer"]
        depth = len(projections) - 1
        for step in range(depth):
            prev, proj = spans[projections[step]], spans[projections[step + 1]]
            conj = [spans[i] for i in conjugations if prev[END] <= spans[i][START] < proj[START]]
            conjugated, projected = proj[COUNTS]["terms_in"], proj[COUNTS]["terms_out"]
            rows.append({
                "call": call,
                "layer": depth - 1 - step,
                "seconds": proj[END] - prev[END],
                "terms_in": conj[0][COUNTS]["terms_in"] if conj else conjugated,
                "terms_conjugated": conjugated,
                "terms_out": projected,
                "kept": projected / conjugated if conjugated else 0.0,
            })
    return rows
