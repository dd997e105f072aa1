"""Small text I/O helpers: CSV export and key=value config parsing.

Every float leaving the package is printed with ``FLOAT_FMT`` (9
significant digits) so that repeated runs produce byte-identical artifacts.
Reports go through :func:`format_value` value by value.  CSV columns are
formatted column-wise, one pass per column: a float column with the same
``FLOAT_FMT`` applied to its plain Python floats, any other column through
:func:`format_value`.  That is why a CSV keeps the exact bytes of per-cell
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


def _format_column(col: np.ndarray) -> list[str]:
    """The cells of one column, as :func:`format_value` spells each element."""
    kind = col.dtype.kind
    if kind == "f":
        return [FLOAT_FMT % v for v in col.tolist()]
    if kind in ("b", "i", "u"):
        # tolist() gives plain bools and ints, spelled by format_value
        return [format_value(v) for v in col.tolist()]
    return [format_value(v) for v in col]


def write_csv(path: str | os.PathLike, header: list[str], columns: list[np.ndarray]) -> None:
    """Write columns of equal length as CSV with LF endings."""
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError("header/column count mismatch")
    n = len(cols[0]) if cols else 0
    for c in cols:
        if len(c) != n:
            raise ValueError("columns must have equal length")
    lines = [",".join(header)]
    lines += map(",".join, zip(*[_format_column(c) for c in cols]))
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


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
