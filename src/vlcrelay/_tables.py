"""The package's small CSV tables: where the bundled ones live, and one
strict reader for bundled and user-supplied tables alike."""

from __future__ import annotations

import csv
import importlib.resources


def data_path(name: str):
    """Path of a table shipped in the package's ``data`` directory."""
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
