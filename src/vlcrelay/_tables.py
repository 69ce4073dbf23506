"""The package's small CSV tables: where the bundled ones live, one strict
reader for bundled and user-supplied tables alike, and the error of a
lookup outside a table's span."""

from __future__ import annotations

import csv


class OutOfRange(ValueError):
    """A lookup key outside the span of a table: the distance of a PER
    table (``channel.per_at``) or the PER of a model table
    (``clusters.ModelTable.model_at``)."""

    def __init__(self, key: str, value: float, table: str, lo: float, hi: float,
                 unit: str = ""):
        unit = f" {unit}" if unit else ""
        super().__init__(f"{key} {value}{unit} outside {table} span [{lo}, {hi}]{unit}")


def data_path(name: str):
    """Path of a table shipped in the package's ``data`` directory; the
    resources API is imported here, so a command that reads no bundled
    table does not load it."""
    import importlib.resources

    return importlib.resources.files("vlcrelay") / "data" / name


def read_table(path, columns, parse, error) -> list:
    """``parse(row)`` for each row of a CSV file whose header is exactly
    ``columns``; ``row`` maps each column to its text.

    A different header, a row with missing or extra fields, or a
    ``ValueError`` from ``parse`` raises ``error`` with the path and line.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(columns):
            raise error(f"{path}: header must be {','.join(columns)}, "
                        f"got {reader.fieldnames}")
        rows = []
        for row in reader:
            # DictReader files extra fields under None and fills missing ones with None
            if None in row or None in row.values():
                raise error(f"{path}:{reader.line_num}: expected {len(columns)} fields")
            try:
                rows.append(parse(row))
            except ValueError as exc:
                raise error(f"{path}:{reader.line_num}: bad row: {exc}") from None
    return rows
