"""Small I/O helpers: CSV matrices, atomic JSON reports.

Matrices travel as plain CSV so that results can be diffed and inspected
without any tooling. Real matrices get one column per entry; complex
matrices get two (``re_j``, ``im_j``). The header row records column names,
and the loader uses it to decide which layout it is looking at.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np


def save_matrix_csv(path: str | Path, A: np.ndarray) -> None:
    """Write a 1-D or 2-D array as CSV with a header row."""
    A = np.atleast_2d(np.asarray(A))
    if A.ndim != 2:
        raise ValueError("save_matrix_csv expects a 1-D or 2-D array")
    path = Path(path)
    if np.iscomplexobj(A):
        header = ",".join(f"re_{j},im_{j}" for j in range(A.shape[1]))
        flat = np.empty((A.shape[0], 2 * A.shape[1]), dtype=float)
        flat[:, 0::2] = A.real
        flat[:, 1::2] = A.imag
    else:
        header = ",".join(f"c_{j}" for j in range(A.shape[1]))
        flat = np.asarray(A, dtype=float)
    _atomic_write_text(path, header + "\n" + _format_rows(flat))


def load_matrix_csv(path: str | Path) -> np.ndarray:
    """Inverse of :func:`save_matrix_csv`. Returns a 2-D array.

    The header decides the layout and the column count.  A file with no
    data rows, rows whose column count differs from the header's, or a
    ``re_`` header with an odd column count raises ``ValueError`` naming
    the file.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
        rows = [line for line in fh if line.strip()]
    complex_layout = names[0].startswith("re_")
    if complex_layout and len(names) % 2:
        raise ValueError(f"{path}: complex header has an odd column count {len(names)}")
    if not rows:
        raise ValueError(f"{path}: no data rows under the header")
    body = np.loadtxt(rows, delimiter=",", ndmin=2)
    if body.shape[1] != len(names):
        raise ValueError(f"{path}: header names {len(names)} columns, "
                         f"the rows have {body.shape[1]}")
    if complex_layout:
        return body[:, 0::2] + 1j * body[:, 1::2]
    return body


def _format_rows(A: np.ndarray) -> str:
    """The rows of a real 2-D array as ``",".join(map(repr, row))`` lines.

    Full double precision: round-tripping a matrix through disk must not
    perturb downstream residual checks.  ``repr`` runs only from each row's
    first to its last entry that is not +0.0 (-0.0 and NaN included); the
    +0.0 runs before and after are slices of one ``"0.0,...,0.0"`` line.
    """
    cols = A.shape[1]
    zeros = ",".join(["0.0"] * cols)
    lines = [zeros] * A.shape[0]
    nz = (A != 0) | np.signbit(A)
    rows = np.flatnonzero(nz.any(axis=1))
    if rows.size:
        first = nz[rows].argmax(axis=1).tolist()
        stop = (cols - nz[rows, ::-1].argmax(axis=1)).tolist()
        for i, f, s in zip(rows.tolist(), first, stop):
            lines[i] = (zeros[:4 * f] + ",".join(map(repr, A[i, f:s].tolist()))
                        + zeros[len(zeros) - 4 * (cols - s):])
    return "\n".join(lines) + "\n"


def _atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file + rename so readers never see a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def save_json(path: str | Path, obj) -> None:
    _atomic_write_text(Path(path), json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in sorted(obj.items()) if not k.endswith("_seconds")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def report_digest(report: dict) -> str:
    """SHA-256 of the canonical report text, ignoring timing fields.

    Wall-clock keys (anything ending in ``_seconds``) vary run to run and
    must not defeat reproducibility checks.
    """
    import hashlib

    text = canonical_json(_strip_timing(report))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
