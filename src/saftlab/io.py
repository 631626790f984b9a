"""File formats: grid files, sequence CSVs, parameter JSON.

Grid file ("SAFTGRID v1")
    Text header followed by one CSV row per cell, row-major::

        SAFTGRID v1
        n 2
        shape 64 64
        origin -8.0 -8.0
        spacing 0.25 0.25
        re,im
        0.0,0.0
        ...

Sequence file
    CSV rows ``k1,...,kn,re,im`` with integer indices; a header line is
    optional on read and written by default.

Parameter file
    JSON, either the full block ``{"n":, "A":, "B":, "C":, "D":, "P":, "Q":}``
    or a preset form such as ``{"preset": "ft", "n": 2}`` /
    ``{"preset": "separable_frft", "theta": [0.7]}``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import GridFn, SeqFn
from .params import SaftParams, preset

__all__ = [
    "read_grid",
    "write_grid",
    "read_sequence",
    "write_sequence",
    "read_params",
    "write_params",
    "params_from_dict",
    "require_finite",
    "parse_rows",
    "sequence_from_rows",
]

_MAGIC = "SAFTGRID v1"


def require_finite(path, rows: list[str], values) -> None:
    """Raise ValueError naming the file and the first data row (1-based,
    after any header) whose value is NaN or infinite."""
    bad = np.flatnonzero(~np.isfinite(np.asarray(values, dtype=complex)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{path}: data row {i + 1} ({rows[i]!r}) has a non-finite value")


def write_grid(path, g: GridFn) -> None:
    path = Path(path)
    lines = [
        _MAGIC,
        f"n {g.n}",
        "shape " + " ".join(str(s) for s in g.shape),
        "origin " + " ".join(repr(float(x)) for x in g.origin),
        "spacing " + " ".join(repr(float(x)) for x in g.spacing),
        "re,im",
    ]
    flat = np.asarray(g.values, dtype=complex).reshape(-1)
    lines.extend(f"{float(z.real)!r},{float(z.imag)!r}" for z in flat)
    path.write_text("\n".join(lines) + "\n")


def read_grid(path) -> GridFn:
    text = Path(path).read_text()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a {_MAGIC} file")
    header: dict[str, list[str]] = {}
    pos = 1
    while pos < len(lines) and lines[pos].split()[0] in ("n", "shape", "origin", "spacing"):
        key, *vals = lines[pos].split()
        header[key] = vals
        pos += 1
    for key in ("n", "shape", "origin", "spacing"):
        if key not in header:
            raise ValueError(f"{path}: missing header line {key!r}")
    n = int(header["n"][0])
    shape = tuple(int(s) for s in header["shape"])
    origin = np.array([float(x) for x in header["origin"]])
    spacing = np.array([float(x) for x in header["spacing"]])
    if len(shape) != n or origin.size != n or spacing.size != n:
        raise ValueError(f"{path}: header lengths inconsistent with n={n}")
    if pos < len(lines) and lines[pos].replace(" ", "") == "re,im":
        pos += 1
    count = int(np.prod(shape))
    rows = lines[pos:]
    if len(rows) != count:
        raise ValueError(f"{path}: expected {count} value rows, found {len(rows)}")
    values = np.empty(count, dtype=complex)
    for i, row in enumerate(rows):
        re_s, im_s = row.split(",")
        values[i] = complex(float(re_s), float(im_s))
    require_finite(path, rows, values)
    return GridFn(
        n=n, shape=shape, origin=origin, spacing=spacing,
        values=values.reshape(shape),
    )


def write_sequence(path, s: SeqFn, header: bool = True) -> None:
    path = Path(path)
    lines = []
    if header:
        lines.append(",".join(f"k{i + 1}" for i in range(s.n)) + ",re,im")
    keys, vals = s.as_arrays()
    for k, re, im in zip(keys.tolist(), vals.real.tolist(), vals.imag.tolist()):
        lines.append(",".join(map(str, k)) + f",{re!r},{im!r}")
    path.write_text("\n".join(lines) + "\n")


def read_sequence(path, n: int | None = None) -> SeqFn:
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if n is None and lines:
        n = len(lines[0].split(",")) - 2       # header or row k1,...,kn,re,im
    if lines and lines[0].lower().startswith("k1"):
        lines = lines[1:]
    # a header-only file is the zero sequence (all-zero entries are never
    # stored), representable only when the dimension is known
    if n is None or n < 1:
        raise ValueError(f"{path}: empty sequence file or rows without k1,re,im")
    keys, vals = parse_rows(path, lines, n)
    return sequence_from_rows(path, n, keys, vals)


def parse_rows(path, lines: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """CSV rows ``i_1,...,i_width,re,im``: the (K, width) int64 columns and
    the K finite complex values."""
    ints, vals = [], []
    for ln in lines:
        parts = ln.split(",")
        if len(parts) != width + 2:
            raise ValueError(f"{path}: row {ln!r} needs {width} index columns and re,im")
        ints.append([int(float(x)) for x in parts[:width]])
        vals.append(complex(float(parts[width]), float(parts[width + 1])))
    require_finite(path, lines, vals)
    return np.array(ints, dtype=np.int64).reshape(-1, width), np.array(vals, dtype=complex)


def sequence_from_rows(path, n: int, keys, vals) -> SeqFn:
    """`SeqFn.from_arrays` with its errors (such as a repeated index)
    naming the file."""
    try:
        return SeqFn.from_arrays(n, keys, vals)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def params_from_dict(d: dict) -> SaftParams:
    d = dict(d)
    if "preset" in d:
        kind = d.pop("preset")
        n = d.pop("n", None)
        return preset(kind, n=n, **d)
    n = int(d["n"])
    zeros_v = [0.0] * n
    return SaftParams(
        n,
        d["A"], d["B"], d["C"], d["D"],
        d.get("P", zeros_v), d.get("Q", zeros_v),
    )


def read_params(path) -> SaftParams:
    with open(path) as fh:
        return params_from_dict(json.load(fh))


def write_params(path, p: SaftParams) -> None:
    d = {
        "n": p.n,
        "A": p.A.tolist(),
        "B": p.B.tolist(),
        "C": p.C.tolist(),
        "D": p.D.tolist(),
        "P": p.P.tolist(),
        "Q": p.Q.tolist(),
    }
    Path(path).write_text(json.dumps(d, indent=2) + "\n")
