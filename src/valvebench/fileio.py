"""Small text I/O helpers: CSV export and key=value config parsing.

Every float leaving the package is printed with ``FLOAT_FMT`` (9
significant digits) so that repeated runs produce byte-identical artifacts.
Reports go through :func:`format_value` value by value.  A CSV is written
through one row template compiled from its column kinds: ``FLOAT_FMT`` for
a float column, ``%d`` for an integer one and ``%s`` for any other, whose
cells :func:`format_value` spells first.  Each column enters the template
as a list of plain Python values, and only format codes and commas make up
the template, never header or data text.  The body of a file is one ``%``
of the row template repeated once per row over the cells in row order.  A
CSV therefore keeps the exact bytes of per-cell :func:`format_value`
formatting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

FLOAT_FMT = "%.9g"


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


def format_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format_float(x)
    return str(x)


def _column_field(col: np.ndarray) -> tuple[str, list]:
    """The template field of one column and the values it formats, which
    render as :func:`format_value` spells each element."""
    kind = col.dtype.kind
    if kind == "f":
        return FLOAT_FMT, col.tolist()
    if kind in ("i", "u"):
        return "%d", col.tolist()
    if kind == "b":
        return "%s", ["true" if v else "false" for v in col.tolist()]
    return "%s", [format_value(v) for v in col]


def write_csv(path: str | os.PathLike, header: list[str], columns: list[np.ndarray]) -> None:
    """Write columns of equal length as CSV with LF endings.

    The header line is joined on its own; the body is one ``%`` of the row
    template repeated n times over the cells in row order, flattened into
    one tuple.
    """
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError("header/column count mismatch")
    n = len(cols[0]) if cols else 0
    for c in cols:
        if len(c) != n:
            raise ValueError("columns must have equal length")
    fields, cells = zip(*map(_column_field, cols)) if cols else ((), ())
    row, m = ",".join(fields) + "\n", len(cells)
    flat = [None] * (n * m)
    for i, values in enumerate(cells):
        flat[i::m] = values
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.write((row * n) % tuple(flat))


def write_report(path: str | os.PathLike, items: list[tuple[str, object]]) -> None:
    """One `name = value` line per headline number, grep friendly."""
    with open(path, "w", newline="\n") as f:
        for name, value in items:
            f.write(f"{name} = {format_value(value)}\n")


@dataclass(frozen=True)
class ConfigEntry:
    line: int
    section: str
    key: str
    value: str


def parse_key_values(text: str) -> list[ConfigEntry]:
    """Parse `key = value` lines with optional `[section]` headers.

    Blank lines and `#` comments are ignored.  Malformed lines raise
    :class:`ConfigError` carrying the offending line number.
    """
    entries = []
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError("empty section header", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        entries.append(ConfigEntry(lineno, section, key, value.strip()))
    return entries


def read_key_values(path: str | os.PathLike) -> list[ConfigEntry]:
    with open(path) as f:
        return parse_key_values(f.read())
