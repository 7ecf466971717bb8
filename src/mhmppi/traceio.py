"""Closed-loop trace and statistics files.

Traces are comma-separated text: a header row, one row per executed
control step (step index, state, input, mission weights, sample-cost mean
and standard deviation, wall seconds), and a last line of ``# `` and one
JSON object: ``termination`` (its label), ``steps``, ``final_state`` and
whichever of ``targets``, ``scenario``, ``seed``, ``group`` and
``config_hash`` the run's ``meta`` holds, all that :func:`mhmppi.sim.analyze`
reads.  Stats tables are CSV.  Row numbers have 17 significant digits and
metadata floats their repr (``NaN``/``Infinity`` if not finite): both
round-trip float64 exactly.  Files are written to a temp file and renamed
into place, so readers never observe partial output.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile

import numpy as np

from .sim import ClosedLoopTrace, StepRecord, Termination

_META_FIELDS = ("targets", "scenario", "seed", "group", "config_hash")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trace_columns(n_x: int, n_u: int, n_missions: int) -> list:
    return (
        ["step"]
        + [f"x{i}" for i in range(n_x)]
        + [f"u{i}" for i in range(n_u)]
        + [f"alpha{i}" for i in range(n_missions)]
        + ["cost_mean", "cost_std", "step_seconds"]
    )


def write_trace(trace: ClosedLoopTrace, path: str) -> None:
    """Serialize one closed-loop trace; see the module docstring.  The
    header's counts are the run's ``meta["n_u"]`` and ``meta["n_missions"]``."""
    n_u, n_missions = int(trace.meta["n_u"]), int(trace.meta["n_missions"])
    lines = [",".join(trace_columns(trace.final_state.shape[0], n_u, n_missions))]
    for rec in trace.records:
        fields = (
            [str(rec.step)]
            + [_fmt(v) for v in rec.state]
            + [_fmt(v) for v in rec.inp]
            + [_fmt(v) for v in rec.alpha]
            + [_fmt(rec.cost_mean), _fmt(rec.cost_std), _fmt(rec.seconds)]
        )
        lines.append(",".join(fields))
    meta = {
        "termination": trace.termination.label(),
        "steps": trace.termination.steps,
        "final_state": trace.final_state.tolist(),
        **{key: trace.meta[key] for key in _META_FIELDS if key in trace.meta},
    }
    lines.append("# " + json.dumps(meta))
    try:
        _atomic_write(path, "\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def read_trace(path: str) -> ClosedLoopTrace:
    """Parse a trace file back into a ClosedLoopTrace.

    Only the serialized payload comes back: step records, termination,
    final state, and in ``meta`` the metadata object's other keys and the
    header's ``n_u`` and ``n_missions``.  A header other than the
    :func:`trace_columns` of its own counts raises ValueError naming the
    file.  So does a row of another length, and a last line that is not
    ``#`` and a JSON object, or one that lacks a termination label, the
    integer count of step rows as ``steps``, or the header's n_x numbers
    as ``final_state``.  Diagnostics are not in the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or "," not in lines[0]:
        raise ValueError(f"{path}: not a trace file (missing header)")
    header = lines[0].split(",")
    n_x = sum(1 for c in header if c.startswith("x") and c[1:].isdigit())
    n_u = sum(1 for c in header if c.startswith("u") and c[1:].isdigit())
    n_missions = sum(1 for c in header if c.startswith("alpha"))
    columns = trace_columns(n_x, n_u, n_missions)
    if header != columns:
        raise ValueError(f"{path}: header must be {','.join(columns)}, got {lines[0]}")

    meta_line = lines[-1]
    try:
        meta = json.loads(meta_line[1:]) if meta_line.startswith("#") else None
    except json.JSONDecodeError:
        meta = None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: last line is not # and a JSON metadata object")

    records = []
    for line in lines[1:-1]:
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ValueError(f"{path}: row has {len(parts)} fields, expected {len(columns)}")
        vals = [float(v) for v in parts[1:]]
        records.append(
            StepRecord(
                step=int(parts[0]),
                state=np.array(vals[:n_x]),
                inp=np.array(vals[n_x : n_x + n_u]),
                alpha=np.array(vals[n_x + n_u : n_x + n_u + n_missions]),
                cost_mean=vals[-3],
                cost_std=vals[-2],
                seconds=vals[-1],
            )
        )

    label, steps, state = (meta.pop(k, None) for k in ("termination", "steps", "final_state"))
    try:
        termination = Termination.from_label(label, len(records), n_missions)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if type(steps) is not int or steps != len(records):
        raise ValueError(f"{path}: steps must be the {len(records)} step rows, got {steps!r}")
    numbers = isinstance(state, list) and {type(v) for v in state} <= {int, float}
    if not (numbers and len(state) == n_x):
        raise ValueError(f"{path}: final_state must be {n_x} numbers, got {state!r}")
    meta["n_u"], meta["n_missions"] = n_u, n_missions
    return ClosedLoopTrace(records, termination, np.array(state, dtype=float), meta)


def write_stats(rows: list, path: str) -> None:
    """Write analyze() rows as a CSV table (17g floats).  The header is
    every row's columns in first-seen order; a row without a column
    (a group with fewer missions) leaves its cell empty."""
    if not rows:
        raise ValueError("no stats rows to write")
    out = io.StringIO()
    columns = dict.fromkeys(col for row in rows for col in row)
    writer = csv.DictWriter(out, list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(v) if isinstance(v, float) else v for k, v in row.items()})
    _atomic_write(path, out.getvalue())


def _cell(text: str):
    """A stats cell as an int, else a float, else the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_stats(path: str) -> list:
    """Parse a stats table back into a list of dicts of numbers and
    strings; an empty cell is a column the row does not have."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            {col: _cell(text) for col, text in row.items() if text != ""}
            for row in csv.DictReader(fh)
        ]
