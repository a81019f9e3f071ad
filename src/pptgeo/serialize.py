"""Flat-file formats shared by the library, the harness, and the CLI.

Matrix JSON: an object with fields

    "dim":     integer N
    "factors": optional [m, n] bipartite split metadata
    "data":    row-major list of [re, im] pairs (N*N entries for a matrix,
               N entries for a state vector)

Floats are written at full precision (17 significant digits) so files
round-trip exactly; every report carries a header block with the tool
version, generator identity, and seed (`report_header`), as `# key=value`
lines in CSV reports (`to_csv`).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .states import GENERATOR_ID

TOOL_VERSION = "0.1.0"


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def report_header(seed: int | None = None, generator: str | None = GENERATOR_ID) -> dict:
    header = {"tool_version": TOOL_VERSION}
    if generator is not None:
        header["generator"] = generator
    if seed is not None:
        header["seed"] = int(seed)
    return header


def to_csv(header: dict, columns, rows) -> str:
    """`# key=value` header lines, the column names, then one line per row;
    floats are written by `fmt17` and bools as 0/1."""
    def cell(x) -> str:
        return str(int(x)) if isinstance(x, bool) else fmt17(x) if isinstance(x, float) else str(x)

    lines = [f"# {key}={cell(value)}" for key, value in header.items()] + [",".join(columns)]
    lines += [",".join(map(cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _pairs(values: np.ndarray) -> list:
    flat = np.asarray(values, dtype=np.complex128).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def matrix_to_json(matrix: np.ndarray, factors: tuple[int, int] | None = None) -> dict:
    """Serialize a square complex matrix to the shared JSON layout."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    obj = {"dim": int(m.shape[0]), "data": _pairs(m)}
    if factors is not None:
        obj["factors"] = [int(factors[0]), int(factors[1])]
    return obj


def vector_to_json(amplitudes: np.ndarray, factors: tuple[int, int] | None = None) -> dict:
    """Serialize a state vector; distinguished from a matrix by data length N."""
    v = np.asarray(amplitudes, dtype=np.complex128).ravel()
    obj = {"dim": int(v.size), "data": _pairs(v)}
    if factors is not None:
        obj["factors"] = [int(factors[0]), int(factors[1])]
    return obj


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def array_from_json(obj: dict) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Decode matrix JSON into an ndarray (N x N matrix or length-N vector).

    Raises ValueError naming the field when the object does not follow the
    layout above.
    """
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object with 'dim' and 'data' fields")
    dim = obj.get("dim")
    if not is_int(dim) or dim < 1:
        raise ValueError(f"'dim' must be a positive integer, got {dim!r}")
    if "data" not in obj:
        raise ValueError("missing field 'data'")
    data = obj["data"]
    if not isinstance(data, list):
        raise ValueError("'data' must be a list of [re, im] pairs")
    for index, entry in enumerate(data):
        if not (isinstance(entry, list) and len(entry) == 2 and all(map(is_number, entry))):
            raise ValueError(f"'data' entry {index} is not a [re, im] pair: {entry!r}")
    flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    if flat.size == dim * dim:
        arr = flat.reshape(dim, dim)
    elif flat.size == dim:
        arr = flat
    else:
        raise ValueError(f"data length {flat.size} matches neither {dim}^2 nor {dim}")
    factors = obj.get("factors")
    if factors is not None:
        if not (isinstance(factors, list) and len(factors) == 2 and all(map(is_int, factors))):
            raise ValueError(f"'factors' must be an [m, n] pair of integers, got {factors!r}")
        factors = (factors[0], factors[1])
        if factors[0] * factors[1] != dim:
            raise ValueError(f"factors {factors} do not multiply to dim {dim}")
    return arr, factors


def save_json(obj: dict, path) -> None:
    Path(path).write_text(dumps(obj) + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def dumps(obj: dict) -> str:
    """Deterministic JSON encoding used for all reports."""
    return json.dumps(obj, indent=2, sort_keys=False)
