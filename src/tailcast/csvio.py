"""CSV writing with a fixed float format.

Floats are written with 17 significant digits so values round-trip exactly
and files are byte-identical across runs of the same build.
"""

from __future__ import annotations

import os


def fmt(value) -> str:
    """One CSV cell. Floats get 17 significant digits."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, header, rows):
    """Write ``rows`` (iterables of cells) under a comma-joined ``header``."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
