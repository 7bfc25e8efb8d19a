"""Exception types shared across the package, the one reader of JSON
files and the one checked reader of JSON values.

The CLI maps these onto exit codes: ConfigError -> 2,
InvariantViolation -> 3, ResourceLimitExceeded -> 4.

Every JSON file the package reads (circuit files, run manifests, config
files, which carry the sweep grids) is opened and parsed by `read_json`,
which names the file in a ConfigError when it cannot be opened, is not
UTF-8, is not JSON or nests too deep to parse. Its values' types are checked through `typed` and
`field`, which raise SchemaError naming the value's path.
"""

import json
import numbers


class ConfigError(Exception):
    """Bad configuration, schema violation, or malformed input file."""


class SchemaError(ConfigError):
    """File schema violation; the message carries the offending path."""


class InvariantViolation(Exception):
    """A runtime invariant failed (promise violation, consistency check)."""


class PromiseViolation(InvariantViolation):
    """An instance's exact success probability falls outside the promise."""


class ResourceLimitExceeded(Exception):
    """A width or memory limit would be exceeded."""


#: JSON type names for `typed`'s errors.
_JSON_NAMES = {type(None): "null", bool: "a bool", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object"}
#: What passes as an int or a float, so numpy scalars do too.
_NUMBERS = {int: numbers.Integral, float: numbers.Real}
_REQUIRED = object()


def read_json(path: str, what: str):
    """The JSON value in the file at ``path``; a file that cannot be read
    raises ConfigError naming ``what`` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError: not JSON, or not UTF-8; RecursionError: nested too deep to parse.
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def typed(value, kind, path: str):
    """``value`` checked to have JSON type ``kind``: `int` (any integer,
    read as an int), `float` (any number, read as a float), `str`, `list`,
    `dict`, ``[k]`` for a list of items of type k, or a tuple of types for a
    list of exactly those. A bool is never a number. Raises SchemaError at
    path."""
    if isinstance(kind, (list, tuple)):
        items = typed(value, list, path)
        kinds = kind * len(items) if isinstance(kind, list) else kind
        if len(items) != len(kinds):
            raise SchemaError(f"{path}: expected {len(kinds)} items, got {len(items)}")
        return type(kind)(typed(v, k, f"{path}[{i}]") for i, (v, k) in enumerate(zip(items, kinds)))
    if isinstance(value, bool) or not isinstance(value, _NUMBERS.get(kind, kind)):
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise SchemaError(f"{path}: expected {_JSON_NAMES[kind]}, got {got}")
    if kind not in _NUMBERS:
        return value
    try:
        return kind(value)
    except OverflowError:
        raise SchemaError(f"{path}: integer out of range for a float") from None


def field(obj: dict, key: str, path: str, kind, default=_REQUIRED):
    """``obj[key]`` checked by `typed`. A missing key gives ``default`` (and
    so does null, where the default is None); without one it is refused."""
    if key not in obj or (obj[key] is None and default is None):
        if default is _REQUIRED:
            raise SchemaError(f"{path}.{key}: missing")
        return default
    return typed(obj[key], kind, f"{path}.{key}")
