"""Stable on-disk formats: CSV with 17-significant-digit floats, JSON manifests."""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np


def format_value(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# keyed by exact type, so bool and the numpy scalars go to format_value
_FORMATS = {float: "{:.17g}".format, int: str, str: str}


def write_csv(path, header, rows) -> Path:
    """Write a header and rows of cells in the format of `format_value`.

    Python float, int and str cells take a direct formatter, so callers
    pass numpy columns through `.tolist()`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([_FORMATS.get(type(x), format_value)(x)
                               for x in row]))
    path.write_text("\n".join(lines) + "\n")
    return path


def versions() -> dict:
    from . import __version__

    return {
        "prp": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def write_manifest(path, config: dict, outputs, wall_time_s: float) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "config": config,
        "versions": versions(),
        "outputs": [str(p) for p in outputs],
        "wall_time_s": wall_time_s,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def read_config_document(path) -> dict:
    """Read a config file; a manifest is accepted and unwrapped to its config."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    if "config" in doc and "versions" in doc:
        doc = doc["config"]
    return doc
