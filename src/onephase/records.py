"""The JSON format of records, reports and file sidecars.

A record is a dataclass whose fields are JSON values, tuples, arrays or
nested records; its JSON form maps each field name to that value, with
tuples and arrays as lists.  Files hold one object with sorted keys, a
two-space indent and a trailing newline, so reruns write the same bytes.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

__all__ = ["to_json", "from_json", "write_json", "read_json"]


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
