import json
import os
import re

import numpy as np
import pytest

from mhmppi.config import scenario_from_dict
from mhmppi.scenarios import get_scenario_dict
from mhmppi.sim import ClosedLoopTrace, StepRecord, Termination, analyze, run_closed_loop
from mhmppi.traceio import read_stats, read_trace, trace_columns, write_stats, write_trace


def make_trace(n_steps=7, n_x=4, n_u=2, n_missions=3, seed=0):
    rng = np.random.default_rng(seed)
    records = [
        StepRecord(
            step=k,
            state=rng.standard_normal(n_x) * 10,
            inp=rng.standard_normal(n_u),
            alpha=rng.dirichlet(np.ones(n_missions)),
            cost_mean=float(rng.uniform(0, 1e4)),
            cost_std=float(rng.uniform(0, 100)),
            seconds=float(rng.uniform(1e-4, 1e-1)),
        )
        for k in range(n_steps)
    ]
    meta = {
        "scenario": "uav-free-1",
        "seed": 3,
        "config_hash": "abc123",
        "group": "g1",
        "n_u": n_u,
        "n_missions": n_missions,
    }
    return ClosedLoopTrace(
        records, Termination("completed", 0, n_steps), rng.standard_normal(n_x), meta
    )


def test_round_trip_exact(tmp_path):
    trace = make_trace()
    path = tmp_path / "trace.csv"
    write_trace(trace, str(path))
    back = read_trace(str(path))
    assert back.termination == trace.termination
    assert np.array_equal(back.final_state, trace.final_state)
    assert len(back.records) == len(trace.records)
    for a, b in zip(trace.records, back.records):
        assert a.step == b.step
        assert np.array_equal(a.state, b.state)
        assert np.array_equal(a.inp, b.inp)
        assert np.array_equal(a.alpha, b.alpha)
        assert a.cost_mean == b.cost_mean
        assert a.cost_std == b.cost_std
        assert a.seconds == b.seconds
    assert back.meta["scenario"] == "uav-free-1"
    assert back.meta["seed"] == 3
    assert back.meta["config_hash"] == "abc123"


def test_column_layout_matches_dimensions(tmp_path):
    trace = make_trace(n_steps=4)
    path = tmp_path / "t.csv"
    write_trace(trace, str(path))
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == trace_columns(4, 2, 3)
    assert len(header) == 1 + 4 + 2 + 3 + 3
    assert len(lines) == 1 + 4 + 1  # header + rows + metadata
    assert lines[-1].startswith("# ")


def test_empty_trace_header_and_metadata_only(tmp_path):
    trace = ClosedLoopTrace(
        [], Termination("completed", 0, 0), np.zeros(4), {"n_missions": 3, "n_u": 2}
    )
    path = tmp_path / "empty.csv"
    write_trace(trace, str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    back = read_trace(str(path))
    assert back.records == []
    assert back.termination == Termination("completed", 0, 0)


def test_trace_file_holds_what_analyze_reads(tmp_path):
    trace = make_trace()
    trace.meta["targets"] = [[1 / 3, 2e-17, 0.1, 0.0], [np.pi, -1.0, 0.0, 5e-324], [9.0] * 4]
    path = tmp_path / "t.csv"
    write_trace(trace, str(path))
    back = read_trace(str(path))
    assert back.meta["targets"] == trace.meta["targets"]  # 17 digits round-trip
    assert analyze([back]) == analyze([trace])


def test_empty_run_trace_takes_its_header_from_the_metadata(tmp_path):
    # a run that completes at its start state has no step rows: the header
    # takes the run's input and mission counts from its metadata
    cfg = get_scenario_dict("ugv-obstacles")
    cfg["x0"] = cfg["missions"][0]["target"]
    trace = run_closed_loop(scenario_from_dict(cfg))
    assert trace.records == [] and trace.meta["n_u"] == 2
    path = tmp_path / "empty.csv"
    write_trace(trace, str(path))
    assert path.read_text().split("\n")[0].split(",") == trace_columns(3, 2, 3)
    back = read_trace(str(path))
    assert back.meta["n_u"] == 2 and back.meta["targets"] == trace.meta["targets"]


def test_no_partial_files_on_disk(tmp_path):
    trace = make_trace()
    path = tmp_path / "a" / "b" / "trace.csv"
    write_trace(trace, str(path))
    assert sorted(os.listdir(tmp_path / "a" / "b")) == ["trace.csv"]


def test_write_failure_surfaces_path(tmp_path):
    # A parent "directory" that is a regular file cannot be created by
    # anyone, root included, so the write fails for every user.
    trace = make_trace()
    (tmp_path / "blocker").write_text("")
    path = str(tmp_path / "blocker" / "trace.csv")
    with pytest.raises(OSError) as excinfo:
        write_trace(trace, path)
    assert f"cannot write trace to {path}: " in str(excinfo.value)


def test_stats_round_trip(tmp_path):
    rows = [
        {"group": "K=100", "n_runs": 5, "mean_cost_std": 12.5, "mean_steps": 60.0},
        {"group": "K=1000", "n_runs": 5, "mean_cost_std": 4.25, "mean_steps": 58.2},
    ]
    path = tmp_path / "stats.csv"
    write_stats(rows, str(path))
    back = read_stats(str(path))
    assert back == rows


def test_metadata_line_not_a_json_object_names_the_file(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(make_trace(n_steps=2), str(path))
    text = path.read_text().rstrip("\n")
    rows = text.rsplit("\n", 1)[0]
    for bad in (text + " stray", rows + "\n# 5"):
        path.write_text(bad + "\n")
        with pytest.raises(ValueError, match=f"{path}: last line is not # and a JSON"):
            read_trace(str(path))


def run_fields(**change):
    """A two-row, four-state trace's metadata object with ``change``."""
    return {"termination": "completed:0", "steps": 2, "final_state": [0.0, 1, 2, 3], **change}


@pytest.mark.parametrize(
    "meta",
    [
        {"steps": 2},
        run_fields(termination="completed:x"),
        run_fields(termination=5),
        run_fields(steps="x"),
        run_fields(steps=3),
        run_fields(steps=2.0),
        run_fields(final_state="abc"),
        run_fields(final_state=None),
        run_fields(final_state=[0.0, 1.0, 2.0]),
        run_fields(final_state=[0.0, 1.0, "2", 3.0]),
        # labels the closed loop never writes for three missions
        run_fields(termination="done"),
        run_fields(termination="max_steps:2"),
        run_fields(termination="completed:7"),
        run_fields(termination="completed"),
        run_fields(termination="completed:1"),
        run_fields(termination="aborted_completed:0"),
        run_fields(termination="aborted_completed:3"),
    ],
)
def test_metadata_object_is_checked_and_names_the_file(tmp_path, meta):
    path = tmp_path / "t.csv"
    write_trace(make_trace(n_steps=2), str(path))
    rows = path.read_text().rstrip("\n").rsplit("\n", 1)[0]
    path.write_text(rows + "\n# " + json.dumps(run_fields()) + "\n")
    assert read_trace(str(path)).final_state.tolist() == [0, 1, 2, 3]
    path.write_text(rows + "\n# " + json.dumps(meta) + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ")):
        read_trace(str(path))


def test_every_termination_the_loop_writes_reads_back(tmp_path):
    path = tmp_path / "t.csv"
    for termination in (
        Termination("completed", 0, 2),
        Termination("aborted_completed", 1, 2),
        Termination("aborted_completed", 2, 2),
        Termination("max_steps", None, 2),
    ):
        trace = make_trace(n_steps=2)
        trace.termination = termination
        write_trace(trace, str(path))
        assert read_trace(str(path)).termination == termination


@pytest.mark.parametrize(
    "edit",
    [
        lambda cols: cols[:1] + cols[5:7] + cols[1:5] + cols[7:],
        lambda cols: cols[:-1] + ["seconds"],
        lambda cols: [col for col in cols if col != "cost_std"],
        lambda cols: cols + ["extra"],
    ],
    ids=["inputs-before-states", "renamed", "missing", "extra"],
)
def test_header_must_be_the_trace_columns(tmp_path, edit):
    # the rows are read by position, so a header in another order or
    # with other names would relabel or misread them
    path = tmp_path / "t.csv"
    write_trace(make_trace(n_steps=2), str(path))
    header, rows = path.read_text().split("\n", 1)
    assert header.split(",") == trace_columns(4, 2, 3)
    path.write_text(",".join(edit(header.split(","))) + "\n" + rows)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: header must be {header}, got")):
        read_trace(str(path))


def test_metadata_line_is_one_json_object(tmp_path):
    # the last line is "# " and one JSON object, and its floats, finite or
    # not, read back bit for bit
    vals = [1 / 3, 5e-324, 1e308, -0.0, 2.0**53 + 1, float("nan"), float("inf")]
    trace = make_trace(n_steps=2, n_x=7)
    trace.final_state = np.array(vals)
    trace.meta["targets"] = [vals, vals[::-1]]
    path = tmp_path / "t.csv"
    write_trace(trace, str(path))
    last = path.read_text().rstrip("\n").rsplit("\n", 1)[1]
    assert last.startswith("# ")
    meta = json.loads(last[2:])
    assert list(meta) == [
        "termination", "steps", "final_state", "targets", "scenario", "seed", "group",
        "config_hash",
    ]
    assert (meta["termination"], meta["steps"]) == ("completed:0", 2)
    back = read_trace(str(path))
    assert back.final_state.tobytes() == trace.final_state.tobytes()
    for got, want in zip(back.meta["targets"], trace.meta["targets"]):
        assert np.array(got).tobytes() == np.array(want).tobytes()
    assert {k: back.meta[k] for k in ("scenario", "seed", "group", "config_hash")} == {
        "scenario": "uav-free-1", "seed": 3, "group": "g1", "config_hash": "abc123"
    }
    assert (back.meta["n_u"], back.meta["n_missions"]) == (2, 3)
    assert all(type(back.meta[k]) is int for k in ("seed", "n_u", "n_missions"))


def test_seventeen_digit_precision(tmp_path):
    # adversarial float values must survive the text round trip bit-exactly
    vals = [1 / 3, np.pi * 1e8, 5e-324, 1e308, -0.1, 2**53 + 1.0]
    trace = make_trace(n_steps=1)
    trace.records[0].state = np.array(vals[:4])
    trace.records[0].inp = np.array(vals[4:6])
    path = tmp_path / "p.csv"
    write_trace(trace, str(path))
    back = read_trace(str(path))
    assert np.array_equal(back.records[0].state, np.array(vals[:4]))
    assert np.array_equal(back.records[0].inp, np.array(vals[4:6]))
