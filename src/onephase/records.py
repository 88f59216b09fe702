"""The file formats of records, reports, sidecars and tables.

A record is a dataclass whose fields are JSON values, tuples, arrays or
nested records; its JSON form maps each field name to that value, with
tuples and arrays as lists.  JSON files hold one object with sorted keys,
a two-space indent and a trailing newline, so reruns write the same bytes.

A table is a CSV file with the bytes `np.savetxt` writes: one header line
of comma-separated column names, then one line per row, each value as
"%.17g" (so it reloads bit for bit); a grid table writes its node indices
as "%d".  Its JSON sidecar, if any, has the same path with suffix ".json".
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
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _write_chunks(path: str | Path, header: str, chunks, sidecar: dict | None) -> None:
    """Write header, then template % values for each (template, values) chunk."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for template, values in chunks:
            fh.write(template % values)
    if sidecar is not None:
        write_json(path.with_suffix(".json"), sidecar)


def write_table(
    path: str | Path, header: str, rows: np.ndarray, sidecar: dict | None = None
) -> None:
    """Write the (n, k) array rows under header."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    blocks = (rows[start : start + _CHUNK] for start in range(0, len(rows), _CHUNK))
    chunks = ((line * len(b), tuple(b.ravel().tolist())) for b in blocks)
    _write_chunks(path, header, chunks, sidecar)


def _write_grid_table(
    path: str | Path, header: str, axes, values: np.ndarray, sidecar: dict
) -> None:
    """Write one row "i[,j],x[,y],v" per node of a tensor grid, in row-major order.

    The bytes are np.savetxt's with fmt ["%d"] * dim + ["%.17g"] * (dim + 1),
    but each axis's indices and coordinates are formatted once: the rows of
    an axis-0 line share a template holding them as literals, so "%.17g"
    runs only on the values.
    """
    index = [[f"{k}," for k in range(len(a))] for a in axes]
    coord = [["%.17g," % x for x in a.tolist()] for a in axes]
    # (j, "y,%.17g\n") per node of an axis-0 line; a 1D line is one node.
    inner = [("", "%.17g\n")]
    if len(axes) == 2:
        inner = [(j, y + "%.17g\n") for j, y in zip(index[1], coord[1])]
    lines = values.reshape(len(axes[0]), len(inner))
    step = max(1, _CHUNK // len(inner))

    def chunks():
        for start in range(0, len(lines), step):
            heads = zip(index[0][start : start + step], coord[0][start : start + step])
            template = "".join([f"{i}{j}{x}{tail}" for i, x in heads for j, tail in inner])
            yield template, tuple(lines[start : start + step].ravel().tolist())

    _write_chunks(path, header, chunks(), sidecar)


def _read(path: str | Path, usecols) -> tuple[np.ndarray, int, dict]:
    """Parsed columns usecols (None: all), the header's column count, the sidecar."""
    path = Path(path)
    sidecar = read_json(path.with_suffix(".json"))
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # a valid table
        width = len(fh.readline().split(","))
        data = np.loadtxt(fh, delimiter=",", usecols=usecols, ndmin=2)
    return data, width, sidecar


def read_table(path: str | Path) -> tuple[np.ndarray, dict]:
    """Rows (n, k), k from the header, and the sidecar of a written table."""
    rows, width, sidecar = _read(path, None)
    return rows.reshape(-1, width), sidecar


def _read_last_column(path: str | Path) -> tuple[np.ndarray, dict]:
    """The last column of a written table, (n,), and its sidecar; only it is parsed."""
    column, _, sidecar = _read(path, -1)
    return column.ravel(), sidecar
