"""Delimiter-separated file readers and atomic writers.

All writers go through a temp file plus atomic rename, so a failed run
never leaves a partially written output.  Floats are formatted with %.17g,
which round-trips exactly.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import Sample
from .process import Ecdf, StepProcess


def write_text_atomic(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table(path, header: list[str], rows, delimiter: str = ",", footer: str | None = None) -> None:
    """Header line, one line per row, optional footer line.

    ``rows`` is any iterable of sequences, or a 2-D array.  A float array
    is formatted by one %-format call over all its values; other rows by
    one %-format string per distinct tuple of value types.  Both give the
    same bytes for the same values.
    """
    joiner = delimiter.replace("%", "%%")
    head = delimiter.join(header) + "\n"
    tail = "" if footer is None else footer + "\n"
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        row_fmt = joiner.join(["%.17g"] * rows.shape[1]) + "\n"
        write_text_atomic(path, head + (row_fmt * rows.shape[0]) % tuple(rows.ravel().tolist()) + tail)
        return
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    formats: dict[tuple, str] = {}
    lines = []
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            # %.17g for Python and numpy floats, str() for everything else
            fmt = formats[kinds] = joiner.join(
                "%.17g" if issubclass(k, (float, np.floating)) else "%s" for k in kinds
            )
        lines.append(fmt % row + "\n")
    write_text_atomic(path, head + "".join(lines) + tail)


def write_ecdf(path, ecdf: Ecdf, delimiter: str = ",") -> None:
    """Columns: statistic value, ECDF level."""
    n = ecdf.size
    levels = np.arange(1, n + 1) / n
    write_table(path, ["value", "level"], np.column_stack((ecdf.sorted_values, levels)), delimiter)


def write_process_dump(path, proc: StepProcess, delimiter: str = ",") -> None:
    """Columns: evaluation point coordinates, process value."""
    p = proc.eval_points.shape[1]
    header = [f"x{j + 1}" for j in range(p)] + ["value"]
    rows = np.column_stack((proc.eval_points, proc.eval_values))
    write_table(path, header, rows, delimiter)


def _parse_rows(path, delimiter: str) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [part.strip() for part in line.split(delimiter)]
            try:
                row = [float(part) for part in parts]
            except ValueError:
                if not rows and lineno <= 2:
                    continue  # optional header line
                raise ConfigError(f"{path}: line {lineno} is not numeric: {line!r}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ConfigError(f"{path}: line {lineno} has {len(row)} fields, expected {width}")
            rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: no data rows found")
    return np.array(rows)


def load_sample(path, delimiter: str = ",") -> Sample:
    """Sample file: p covariate columns then one response column, optional header."""
    data = _parse_rows(path, delimiter)
    if data.shape[1] < 2:
        raise ConfigError(f"{path}: need at least 2 columns (covariates then response)")
    return Sample(X=data[:, :-1], Y=data[:, -1])


def load_points(path, delimiter: str = ",") -> np.ndarray:
    """Covariate-only file: one point per row."""
    return _parse_rows(path, delimiter)
