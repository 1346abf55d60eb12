"""Canonical JSON helpers shared by set files, certificates and reports.

Everything written to disk goes through ``canonical_json`` so that repeated
runs with identical inputs produce byte-identical files: keys are sorted,
floats use Python's shortest round-trip repr, and numpy scalars and arrays
are encoded as the Python values they hold.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from .gpauli import is_integer


def _json_default(obj):
    """numpy scalars and arrays as Python values, sets as sorted lists."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """Serialize with sorted keys and a trailing newline (byte-deterministic)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_json_default) + "\n"


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def complex_to_pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def integer(x) -> int:
    """A JSON integer as an int; Python and numpy ints qualify, bools and floats do not."""
    if not is_integer(x):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def boolean(x) -> bool:
    """A JSON boolean as a bool; Python and numpy bools qualify, numbers and strings do not."""
    if not isinstance(x, (bool, np.bool_)):
        raise ValueError(f"{x!r} is not a boolean")
    return bool(x)


def number(x) -> float:
    """A JSON number as a float; Python and numpy ints and floats qualify, bools and strings do not."""
    if not isinstance(x, (int, float, np.integer, np.floating)) or isinstance(x, bool):
        raise ValueError(f"{x!r} is not a number")
    return float(x)


def pair_to_complex(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ValueError(f"expected a [re, im] pair, got {pair!r}")
    return complex(number(pair[0]), number(pair[1]))


def matrix_to_json(mat: np.ndarray) -> list:
    """d x d complex matrix -> nested [[ [re, im], ... ] ... ] lists."""
    return [[complex_to_pair(z) for z in row] for row in np.asarray(mat)]


def matrix_from_json(rows, d: int) -> np.ndarray:
    mat = np.empty((d, d), dtype=np.complex128)
    if len(rows) != d:
        raise ValueError(f"expected {d} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != d:
            raise ValueError(f"row {i}: expected {d} entries, got {len(row)}")
        for j, pair in enumerate(row):
            mat[i, j] = pair_to_complex(pair)
    return mat
