"""Matrix file format: JSON, diffable and round-trip exact for finite doubles."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .matcore import as_matrix, require_hermitian, require_unitary

__all__ = ["encode_entries", "save_matrix", "load_matrix", "atomic_write_text"]

FORMAT_VERSION = 1


class MatrixFileError(ValueError):
    """Malformed matrix file."""


def atomic_write_text(path, text: str) -> None:
    """Write a text file via temp-and-rename so readers never see a partial
    file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def encode_entries(m) -> list:
    """A matrix's entries as nested lists of [re, im] pairs, row-major."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def save_matrix(path, m, *, hermitian: bool | None = None,
                unitary: bool | None = None) -> None:
    """Write a matrix as JSON with entries [re, im] row-major.

    Floats are serialized by repr, which round-trips binary64 exactly.
    """
    mm = as_matrix(m)
    n = mm.shape[0]
    doc = {
        "format": FORMAT_VERSION,
        "dim": n,
        "entries": encode_entries(mm),
    }
    if hermitian is not None:
        doc["hermitian"] = bool(hermitian)
    if unitary is not None:
        doc["unitary"] = bool(unitary)
    atomic_write_text(path, json.dumps(doc))


def load_matrix(path) -> np.ndarray:
    """Read a JSON matrix file, checking its declared tags by matcore's gates."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MatrixFileError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict) or "entries" not in doc or "dim" not in doc:
        raise MatrixFileError(f"{path}: missing dim/entries")
    n, rows = doc["dim"], doc["entries"]
    if type(n) is not int:  # not a float, string or bool, even one equal to an integer
        raise MatrixFileError(f"{path}: dim is not an integer")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise MatrixFileError(f"{path}: entries is not a list of rows")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise MatrixFileError(f"{path}: entries do not form a {n}x{n} matrix")
    if not all(type(c) is list and len(c) == 2 and all(type(x) in (int, float) for x in c)
               for row in rows for c in row):
        raise MatrixFileError(f"{path}: bad entry encoding")
    try:
        m = np.array([[complex(*c) for c in row] for row in rows],
                     dtype=np.complex128).reshape(n, n)
    except OverflowError as exc:  # an integer beyond binary64
        raise MatrixFileError(f"{path}: non-finite entries") from exc
    if not np.all(np.isfinite(m)):
        raise MatrixFileError(f"{path}: non-finite entries")
    for tag, gate in (("hermitian", require_hermitian), ("unitary", require_unitary)):
        if doc.get(tag):
            try:
                gate(m, f"a matrix tagged {tag}")
            except ValueError as exc:
                raise MatrixFileError(f"{path}: {exc}") from exc
    return m
