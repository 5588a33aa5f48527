"""Text tables, the format of every numeric artifact: a header, then one
`fmt % row` line per row of a 2-D array. The mesh and the positions use
%.17g, which round-trips a float; the other tables use %.12g."""

import warnings

import numpy as np

from .exceptions import ArtifactError


def format_rows(fmt, rows):
    """One `fmt % row` line per row of a 2-D array, each ending in a newline;
    a single % over Python numbers, not numpy scalars row by row."""
    rows = np.asarray(rows)
    return ((fmt + "\n") * len(rows)) % tuple(rows.ravel().tolist())


def write_table(path, header, fmt, rows):
    """The header line or lines, then `format_rows(fmt, rows)`."""
    with open(path, "w") as fh:
        fh.write(header + "\n" + format_rows(fmt, rows))


def read_table(path, cols, rows=None, skip=0, dtype=float, delimiter=None):
    """The `rows` (default: all) rows of `cols` values after the first `skip`
    lines of `path`; ArtifactError, naming the file, if the text holds no
    such table (a value that does not parse, a ragged or missing row). No
    text is a comment: a boundary tag may contain "#"."""
    try:
        with warnings.catch_warnings():
            # a table with no rows (no cavities, no jump set) is valid
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, dtype=dtype, comments=None, delimiter=delimiter,
                               skiprows=skip, max_rows=rows, ndmin=2)
    except ValueError as err:
        raise ArtifactError(f"malformed table in {path} after line {skip}: {err}") from err
    if table.size == 0:
        table = table.reshape(0, cols)
    if table.shape[1] != cols or (rows is not None and len(table) != rows):
        want = f"{cols} values a row" + ("" if rows is None else f", {rows} rows")
        raise ArtifactError(f"malformed table in {path} after line {skip}: expected "
                            f"{want}, found shape {table.shape}")
    return table
