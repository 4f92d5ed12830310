"""File formats: trajectory CSV, JSON manifests, EM trace CSV, theta files.

Trajectory CSV schema (header mandatory): one row per time step with columns
    t, T_1..T_n (full state) or y_1..y_ny (measurements), P_1..P_nP
Traces are one row per EM iteration: iter, loglik, theta_rel_change,
q_residual, then the named theta components and constraint parameters.
Both CSVs write every number as ``%.12g`` (12 significant digits; ``nan``,
``inf``, ``-inf`` and ``-0`` as such), the format of earlier files.
"""

from __future__ import annotations

import json
import os

import numpy as np

from thermem.errors import ThermemError
from thermem.estimation import EmTrace
from thermem.model import Trajectory


class DataFormatError(ThermemError):
    """A data file failed to parse; message names the offending location."""


def _ensure_dir(path):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)


# The CSV number format is %.12g, written as np.savetxt(fmt="%.12g") would,
# without formatting each value in Python. A finite value whose %g exponent e
# lies in [-4, 11] is written in fixed notation from its 12-digit mantissa
# m = rint(|x| 10^(11-e)): one correctly rounded product, as 10^k is exact
# for k <= 22. m splits into an integer part and a 12-digit fraction, whose
# 4-digit groups come from _DIGITS with padding zeros as NUL; every field is
# laid out at a fixed width and the NULs are deleted at the end. Values the
# product cannot decide (scaled within 1e-3 of a rounding tie), exponent
# form, nan and inf are formatted one at a time by '%.12g' %. Chunks of 20k
# values keep the temporaries in a 2 MiB L2 cache; 50k took 1.7x as long.
_CHUNK_VALUES = 20_000
_FIELD = np.dtype([("sign", "u1"), ("i0", "u4"), ("i1", "u4"), ("i2", "u4"), ("dot", "u4"),
                   ("f0", "u4"), ("f1", "u4"), ("f2", "u4"), ("sep", "u1")])
_POW10 = (10 ** np.arange(16)).astype(np.float64)


def _digit_tables():
    """Groups '0000'..'9999' as uint32 words in four tables of 10^4 (all
    digits; leading zeros NUL; trailing zeros NUL; leading zeros NUL but 0 as
    '0'), and the words after the integer part by 2 (e + 4) + (fraction > 0):
    '.' and the fraction's -e-1 leading zeros."""
    d = np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    full = d + ord("0")
    lead = np.where(np.logical_or.accumulate(d > 0, axis=1), full, 0)
    trail = np.where(np.logical_or.accumulate(d[:, ::-1] > 0, axis=1)[:, ::-1], full, 0)
    zero = lead.copy()
    zero[0, 3] = ord("0")
    dots = np.zeros((16, 2, 4), np.int64)
    dots[:, 1, 0] = ord(".")
    for e in range(-4, -1):
        dots[e + 4, 1, 1 : -e] = ord("0")
    return [np.asarray(t, np.uint8).view(np.uint32).ravel() for t in ([full, lead, trail, zero], dots)]


_DIGITS, _DOTS = _digit_tables()
_LEAD, _TRAIL, _ZERO = 10_000, 20_000, 30_000


def _format_rows(x):
    """The %.12g CSV lines of the rows of the float64 array ``x``, as bytes."""
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e12)
    e = np.clip(np.floor(np.log10(np.where(fixed, a, 1.0))), -4, 11).astype(np.intp)
    p = _POW10[11 - e]
    scaled = np.where(fixed, a, 0.0) * p
    m = np.rint(scaled)
    slow = np.where(fixed, (m < 1e11) | (m >= 1e12) | (np.abs(scaled - m) > 0.499), a != 0)
    m[slow] = 0.0
    # Exact in float64: every quantity is an integer below 10^12.
    ipart = np.floor(m / p)
    frac = ((m - ipart * p) * _POW10[np.maximum(e + 1, 0)]).astype(np.int64)
    ipart = ipart.astype(np.int64)
    f = np.empty(x.shape, _FIELD)
    f["sign"] = np.signbit(x) * np.uint8(ord("-"))
    # mode="clip" writes straight into the field; every index is in range.
    hi, lo = ipart // 10**8, ipart % 10**8
    np.take(_DIGITS, _LEAD + hi, out=f["i0"], mode="clip")
    np.take(_DIGITS, _LEAD * (hi == 0) + lo // 10**4, out=f["i1"], mode="clip")
    np.take(_DIGITS, _ZERO * (ipart < 10**4) + lo % 10**4, out=f["i2"], mode="clip")
    np.take(_DOTS, 2 * e + 8 + (frac > 0), out=f["dot"], mode="clip")
    hi, lo = frac // 10**8, frac % 10**8
    np.take(_DIGITS, _TRAIL * (lo == 0) + hi, out=f["f0"], mode="clip")
    np.take(_DIGITS, _TRAIL * (lo % 10**4 == 0) + lo // 10**4, out=f["f1"], mode="clip")
    np.take(_DIGITS, _TRAIL + lo % 10**4, out=f["f2"], mode="clip")
    f["sep"] = ord(",")
    f["sep"][:, -1] = ord("\n")
    r, c = np.nonzero(slow)
    if r.size:
        text = np.array(["%.12g" % v for v in x[r, c].tolist()], dtype=f"S{_FIELD.itemsize - 1}")
        f.view(np.uint8).reshape(*x.shape, -1)[r, c, :-1] = text.view(np.uint8).reshape(r.size, -1)
    return f.tobytes().translate(None, b"\0")


def _write_csv(path, header, blocks):
    """Write ``header`` and the rows of the side-by-side ``blocks`` (equal row
    counts) byte for byte as np.savetxt(path, np.hstack(blocks), fmt="%.12g",
    delimiter=",", header=header, comments="") would, one chunk at a time."""
    step = max(1, _CHUNK_VALUES // sum(b.shape[1] for b in blocks))
    with open(path, "wb") as fh:
        fh.write(header.encode("latin1") + b"\n")
        for r in range(0, blocks[0].shape[0], step):
            chunk = np.concatenate([b[r : r + step] for b in blocks], axis=1, dtype=np.float64)
            fh.write(_format_rows(chunk))


def write_trajectory_csv(path, traj: Trajectory, full_state: bool = False):
    """Write measurements (default) or the full state alongside the inputs."""
    _ensure_dir(path)
    if full_state:
        if traj.T is None:
            raise ValueError("trajectory has no full state to write")
        block = traj.T
        labels = [f"T_{i + 1}" for i in range(block.shape[1])]
    else:
        block = traj.y
        labels = [f"y_{i + 1}" for i in range(block.shape[1])]
    P = traj.P
    if P.shape[0] != block.shape[0]:
        kind = "T" if full_state else "y"
        raise ValueError(f"P has {P.shape[0]} rows but the {kind} block has {block.shape[0]}")
    header = ",".join(["t"] + labels + [f"P_{i + 1}" for i in range(P.shape[1])])
    _write_csv(path, header, [np.arange(block.shape[0])[:, None], block, P])


def _read_csv(path):
    """Column names from the header line and the rows as a 2-D float array."""
    with open(path, "r") as fh:
        names = fh.readline().strip().split(",")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    if data.shape[1] != len(names):
        raise DataFormatError(
            f"{path}: column count mismatch with header "
            f"(header names {len(names)} columns, rows carry {data.shape[1]})"
        )
    return names, data


def read_trajectory_csv(path) -> Trajectory:
    """Read a trajectory CSV; column names decide y- vs T-block."""
    names, data = _read_csv(path)
    if names[0] != "t":
        raise DataFormatError(f"{path}: first column must be 't', got header {','.join(names)!r}")
    y_cols = [i for i, nm in enumerate(names) if nm.startswith("y_")]
    T_cols = [i for i, nm in enumerate(names) if nm.startswith("T_")]
    P_cols = [i for i, nm in enumerate(names) if nm.startswith("P_")]
    if not y_cols and not T_cols:
        raise DataFormatError(f"{path}: expected y_* or T_* columns, got {names}")
    P = data[:, P_cols]
    if T_cols:
        T = data[:, T_cols]
        return Trajectory(P=P, y=T.copy(), T=T)
    return Trajectory(P=P, y=data[:, y_cols], T=None)


def write_manifest(path, manifest: dict):
    _ensure_dir(path)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, default=_jsonify)
        fh.write("\n")


def read_manifest(path) -> dict:
    with open(path, "r") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_trace_csv(path, trace: EmTrace):
    _ensure_dir(path)
    theta = np.asarray(trace.theta)
    cparams = np.asarray(trace.constraint_params)
    header = ",".join(
        ["iter", "loglik", "theta_rel_change", "q_residual"]
        + list(trace.theta_names)
        + list(trace.constraint_names)
    )
    rows = np.column_stack(
        [
            np.arange(1, len(trace) + 1),
            np.asarray(trace.loglik),
            np.asarray(trace.theta_rel_change),
            np.asarray(trace.q_residual),
            theta,
            cparams,
        ]
    )
    _write_csv(path, header, [rows])


def read_trace_csv(path):
    """Returns (column_names, data array) of a trace file."""
    return _read_csv(path)


def write_theta_json(path, theta, theta_names=()):
    _ensure_dir(path)
    payload = {
        "k": theta.k.tolist(),
        "z": theta.z.tolist(),
        "dtau": theta.dtau,
    }
    if theta_names:
        payload["names"] = list(theta_names)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_theta_json(path):
    from thermem.model import ThetaParams

    with open(path, "r") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
    return ThetaParams(k=payload["k"], z=payload["z"], dtau=payload.get("dtau", 1.0))


def write_constraint_json(path, constraint):
    _ensure_dir(path)
    payload = {"kind": constraint.kind, "n": constraint.n}
    if constraint.kind == "scalar_identity":
        payload["q"] = constraint.q
    elif constraint.kind == "diagonal":
        payload["q_vec"] = constraint.q_vec.tolist()
    else:
        payload["alpha"] = constraint.alpha
        payload["beta"] = constraint.beta
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
