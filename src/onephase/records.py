"""The file formats of records, reports, sidecars and tables.

A record is a dataclass whose fields are JSON values, tuples, arrays or
nested records; its JSON form maps each field name to that value, with
tuples and arrays as lists.  JSON files hold one object with sorted keys,
a two-space indent and a trailing newline, so reruns write the same bytes.

A table is a CSV file with the bytes `np.savetxt` writes: one header line
of comma-separated column names, then one line per row, each value as
"%.17g" (so it reloads bit for bit) unless the writer gives per-column
formats.  Its JSON sidecar, if any, has the same path with suffix ".json".
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np

__all__ = ["to_json", "from_json", "write_json", "read_json", "write_table", "read_table"]

_CHUNK = 1024  # rows per `%`: twice np.savetxt's speed, with the memory held bounded


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def to_json(record) -> dict:
    """Field name -> value of a dataclass record, nested records as dicts."""
    return _plain(dataclasses.asdict(record))


def from_json(cls, payload: dict):
    """Build cls from its JSON dict; unknown keys raise ValueError."""
    extra = set(payload) - {f.name for f in dataclasses.fields(cls)}
    if extra:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(extra)}")
    return cls(**payload)


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_table(
    path: str | Path, header: str, rows: np.ndarray, sidecar: dict | None = None, fmt=None
) -> None:
    """Write the (n, k) array rows under header; fmt holds one %-format per column."""
    path = Path(path)
    line = ",".join(fmt or ["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, len(rows), _CHUNK):
            block = rows[start : start + _CHUNK]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))
    if sidecar is not None:
        write_json(path.with_suffix(".json"), sidecar)


def read_table(path: str | Path) -> tuple[np.ndarray, dict]:
    """Rows (n, k), k from the header, and the sidecar of a written table."""
    path = Path(path)
    sidecar = read_json(path.with_suffix(".json"))
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # a valid table
        width = len(fh.readline().split(","))
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return rows.reshape(-1, width), sidecar
