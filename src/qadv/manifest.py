"""Run manifests and machine-readable output writers.

Every output file embeds the manifest hash, computed over the subcommand,
the fully resolved configuration, and the artifact version. Numeric output
is rounded to 12 significant digits before writing, so a re-run from the
same manifest reproduces files byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass

from .errors import ConfigError

#: The package version: qadv.__version__ and pyproject.toml read it here.
ARTIFACT_VERSION = "0.1.0"

SIGNIFICANT_DIGITS = 12


def round_floats(obj):
    """Recursively round floats to the output precision."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.{SIGNIFICANT_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(round_floats(obj), sort_keys=True, separators=(",", ":"))


def manifest_hash(subcommand: str, config: dict) -> str:
    blob = canonical_json(
        {"subcommand": subcommand, "config": config, "version": ARTIFACT_VERSION}
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    config: dict
    seed: int | None
    version: str
    manifest_hash: str
    outputs: list[str]
    duration_s: float


def load_manifest(path: str) -> RunManifest:
    """Read a manifest, refusing one that lacks a required key or whose
    stored hash no longer matches its subcommand and config."""
    with open(path) as fh:
        data = json.load(fh)
    required = ("subcommand", "config", "manifest_hash")
    if not isinstance(data, dict) or any(key not in data for key in required):
        raise ConfigError(f"manifest {path} must hold the keys {', '.join(required)}")
    if manifest_hash(data["subcommand"], data["config"]) != data["manifest_hash"]:
        raise ConfigError(
            f"manifest {path}: stored hash does not match its subcommand and config"
        )
    return RunManifest(
        subcommand=data["subcommand"],
        config=data["config"],
        seed=data.get("seed"),
        version=data.get("version", ARTIFACT_VERSION),
        manifest_hash=data["manifest_hash"],
        outputs=data.get("outputs", []),
        duration_s=data.get("duration_s", 0.0),
    )


def write_manifest(path: str, m: RunManifest) -> None:
    payload = asdict(m)
    # Duration is wall-clock bookkeeping and must not affect reproducibility
    # of the data files; it lives only here.
    with open(path, "w") as fh:
        json.dump(round_floats(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_json_report(path: str, payload: dict, mhash: str) -> None:
    body = {"manifest_hash": mhash}
    body.update(payload)
    with open(path, "w") as fh:
        json.dump(round_floats(body), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return f"{v:.{SIGNIFICANT_DIGITS}g}"
    return str(v)


def write_csv_table(path: str, header: list[str], rows, mhash: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest_hash={mhash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
