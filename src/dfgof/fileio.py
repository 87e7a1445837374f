"""Comma-separated file readers and atomic writers.

Every file dfgof reads or writes separates its fields with ",".  A data
file holds one row of numbers per line, with an optional header and '#'
comment lines; one that cannot be opened or decoded is a ConfigError.
All writers go through a temp file plus atomic rename, so a failed run
never leaves a partially written output.  Every table is a 2-D float
array, each value formatted with %.17g, which round-trips exactly and
prints a whole number below 2**53 as an integer; a float array whose
values repeat, such as a process dump with its lattice coordinates,
formats each distinct value once.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import Sample
from .process import Ecdf, StepProcess

# Characters of a data file whose fields are converted together: the field
# strings of one chunk are all a read holds at a time.
CHUNK_CHARS = 1 << 20


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


def write_table(path, header: list[str], rows: np.ndarray, footer: str | None = None) -> None:
    """Header line, one line per row of the 2-D float array ``rows``,
    optional footer line."""
    tail = "" if footer is None else footer + "\n"
    write_text_atomic(path, ",".join(header) + "\n" + _float_lines(rows) + tail)


def _float_lines(rows: np.ndarray) -> str:
    """The lines of a 2-D float array, each value as %.17g.

    When at most half the values are distinct, as in a lattice dump whose
    rows repeat the same coordinates, each distinct value is formatted once
    and the lines are assembled from those strings.  Values are told apart
    by bit pattern, so -0.0 keeps its own "-0".  Otherwise one %-format
    call formats all the values.  Both routes give the same bytes.
    """
    count, width = rows.shape
    values = np.ascontiguousarray(rows, dtype=np.float64).ravel()
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    if 2 * distinct.size > values.size:
        return ((",".join(["%.17g"] * width) + "\n") * count) % tuple(values.tolist())
    texts = (("%.17g\n" * distinct.size) % tuple(distinct.view(np.float64).tolist())).split("\n")
    texts = np.array(texts, dtype=object)
    return ((",".join(["%s"] * width) + "\n") * count) % tuple(texts[inverse].tolist())


def write_ecdf(path, ecdf: Ecdf) -> None:
    """Columns: statistic value, ECDF level."""
    n = ecdf.size
    levels = np.arange(1, n + 1) / n
    write_table(path, ["value", "level"], np.column_stack((ecdf.sorted_values, levels)))


def write_process_dump(path, proc: StepProcess) -> None:
    """Columns: evaluation point coordinates, process value."""
    p = proc.eval_points.shape[1]
    header = [f"x{j + 1}" for j in range(p)] + ["value"]
    rows = np.column_stack((proc.eval_points, proc.eval_values))
    write_table(path, header, rows)


def _fields(line: str) -> list[float]:
    """The numbers of one stripped line; ValueError if a field is not one."""
    return [float(part.strip()) for part in line.split(",")]


def _parse_rows(path) -> np.ndarray:
    """The rows of a comma-separated number file.

    Blank lines and lines starting with '#' are skipped, and so are
    non-numeric lines 1 and 2 before the first row (a header).  A field
    reads as Python's float() reads it.  A file that holds no '#', no
    blank line and at most a header on line 1 is read by ``_plain_rows``;
    any other file, or one it rejects, is read again line by line, which
    gives the same rows and the line numbers of the errors.  A file that
    cannot be opened or decoded raises ConfigError.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            rows = _plain_rows(handle)
            if rows is None:
                handle.seek(0)
                rows = _line_rows(path, handle)
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not text
        raise ConfigError(f"cannot read data file {path}: {getattr(exc, 'strerror', None) or exc}") from None
    return rows


def _plain_rows(handle) -> np.ndarray | None:
    """The rows of an open file without comments or blank lines, or None
    if the file is not of that kind or a field does not convert.

    The file is read in chunks of whole lines, about CHUNK_CHARS
    characters each (text mode turns every line end into a newline), and
    all the fields of a chunk are converted by one numpy call, so a read
    holds the strings of one chunk at a time.  A data line whose fields all convert
    unstripped splits into the same fields as the stripped line the line
    loop splits, so both give the same numbers.
    """
    blocks = []
    seps = None
    line_one = True
    while text := handle.read(CHUNK_CHARS):
        text += handle.readline()  # up to the end of the line the chunk cut
        if "#" in text:
            return None
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()  # the chunk's last line end
        if line_one:
            line_one = False
            try:
                _fields(lines[0].strip())
            except ValueError:
                lines = lines[1:]  # a header, or a line the loop skips as blank
        if not lines:
            continue
        if seps is None:
            seps = lines[0].count(",")
        if any(line.count(",") != seps for line in lines):
            return None
        try:
            values = np.array(",".join(lines).split(","), dtype=float)
        except ValueError:
            return None
        blocks.append(values.reshape(len(lines), seps + 1))
    return np.concatenate(blocks) if blocks else None


def _line_rows(path, lines) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = _fields(line)
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


def load_sample(path) -> Sample:
    """Sample file: p covariate columns then one response column, optional
    header; a file that makes no valid ``Sample`` raises ConfigError."""
    data = _parse_rows(path)
    if data.shape[1] < 2:
        raise ConfigError(f"{path}: need at least 2 columns (covariates then response)")
    try:
        return Sample(X=data[:, :-1], Y=data[:, -1])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_points(path) -> np.ndarray:
    """Covariate-only file: one finite point per row."""
    points = _parse_rows(path)
    if not np.all(np.isfinite(points)):
        raise ConfigError(f"{path}: covariate points must be finite")
    return points
