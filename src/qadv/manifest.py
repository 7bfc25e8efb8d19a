"""Run manifests and machine-readable output writers.

Every output file embeds the manifest hash, computed over the subcommand,
the fully resolved configuration, and the artifact version. Numeric output
is rounded to 12 significant digits before writing, so a re-run from the
same manifest reproduces files byte for byte. `load_manifest` reads back
only the subcommand, the config, the version and the stored hash, each
checked for its JSON type; the seed, outputs and duration are there for the
reader.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass

from .errors import ConfigError, InvariantViolation, field, read_json, typed

#: The package version: qadv.__version__ and pyproject.toml read it here.
ARTIFACT_VERSION = "0.9.0"

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


def manifest_hash(subcommand: str, config: dict, version: str = ARTIFACT_VERSION) -> str:
    blob = canonical_json({"subcommand": subcommand, "config": config, "version": version})
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


def load_manifest(path: str) -> tuple[str, dict]:
    """A manifest's subcommand and config, refusing a manifest that is not
    JSON, whose subcommand, config, version or stored hash is missing or of
    the wrong type, whose stored hash no longer matches its subcommand,
    config and version, or that another version of qadv wrote."""
    data = typed(read_json(path, "manifest"), dict, "$")
    subcommand, config = field(data, "subcommand", "$", str), field(data, "config", "$", dict)
    version = field(data, "version", "$", str)
    if manifest_hash(subcommand, config, version) != field(data, "manifest_hash", "$", str):
        raise ConfigError(
            f"manifest {path}: stored hash does not match its subcommand, config and version"
        )
    if version != ARTIFACT_VERSION:
        raise ConfigError(
            f"manifest {path} was written by qadv {version}; this is qadv {ARTIFACT_VERSION}"
        )
    return subcommand, config


def write_manifest(path: str, m: RunManifest) -> None:
    payload = asdict(m)
    # Duration is wall-clock bookkeeping and must not affect reproducibility
    # of the data files; it lives only here.
    with open(path, "w") as fh:
        json.dump(round_floats(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_json_report(path: str, payload: dict, mhash: str) -> None:
    """Write strict JSON: a NaN or infinity raises before the file opens."""
    body = round_floats({"manifest_hash": mhash, **payload})
    try:
        text = json.dumps(body, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InvariantViolation(f"report {path}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return f"{v:.{SIGNIFICANT_DIGITS}g}"
    return "" if v is None else str(v)


def write_csv_table(path: str, header: list[str], rows, mhash: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest_hash={mhash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
