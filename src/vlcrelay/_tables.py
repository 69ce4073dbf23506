"""The package's small CSV tables and the text of what the CLI writes:
where the bundled tables live, one strict reader for bundled and
user-supplied tables alike, the error of a lookup outside a table's span,
and one spelling of a number and of a table, every line ending in LF."""

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


def spell(x) -> str:
    """A number as an output file writes it: an ``int`` as written, any
    other number as the ``repr`` of its float, so that ``float`` reads it
    back exactly (``1e-05``, ``nan``, ``-0.0``)."""
    return str(x) if isinstance(x, int) else repr(float(x))


def table_text(columns, rows) -> str:
    """A CSV table's text: the column names, then each row's values by
    ``spell``, every line ending in LF."""
    lines = [",".join(columns), *(",".join(map(spell, row)) for row in rows)]
    return "\n".join(lines) + "\n"
