import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mhmppi import cli
from mhmppi.scenarios import builtin_scenarios
from mhmppi.traceio import read_stats, read_trace


def fast_inline_scenario():
    """Tiny scenario so CLI runs finish in well under a second."""
    return {
        "model": {"kind": "double_integrator"},
        "missions": [
            {"target": [2.0, 2.0, 0.0, 0.0]},
            {"target": [0.0, 2.0, 0.0, 0.0]},
        ],
        "controller": {"samples": 48, "horizon": 4, "seed": 0},
        "weights": {"gamma": 0.5},
        "x0": [0.0, 0.0, 0.0, 0.0],
        "max_steps": 60,
        "completion_tol": 0.5,
    }


def write_exp(tmp_path, payload, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_list_scenarios(capsys):
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in builtin_scenarios():
        assert name in out


def test_print_defaults_is_valid_json(capsys):
    assert cli.main(["print-defaults"]) == 0
    reference = json.loads(capsys.readouterr().out)
    assert set(reference["scenarios"]) == set(builtin_scenarios())
    assert reference["scenarios"]["uav-free-1"]["controller"]["samples"] == 1000
    assert reference["scenarios"]["uav-free-1"]["weights"]["gamma"] == 0.66


def test_run_writes_traces_and_stats(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    cfg = write_exp(
        tmp_path,
        {"scenario": fast_inline_scenario(), "seeds": [0, 1, 2], "out_dir": out_dir},
    )
    assert cli.main(["run", cfg]) == 0
    files = sorted(os.listdir(out_dir))
    traces = [f for f in files if f != "stats.csv"]
    assert len(traces) == 3
    assert "stats.csv" in files
    trace = read_trace(os.path.join(out_dir, traces[0]))
    assert trace.termination.kind in ("completed", "max_steps")
    assert len(trace.meta["config_hash"]) == 16


def test_run_sweep_grouping(tmp_path):
    out_dir = str(tmp_path / "out")
    cfg = write_exp(
        tmp_path,
        {
            "scenario": fast_inline_scenario(),
            "sweeps": [{"path": "controller.samples", "values": [16, 32]}],
            "seeds": [0, 1],
            "out_dir": out_dir,
        },
    )
    assert cli.main(["run", cfg]) == 0
    rows = read_stats(os.path.join(out_dir, "stats.csv"))
    assert [r["group"] for r in rows] == ["samples=16", "samples=32"]
    assert all(r["n_runs"] == 2 for r in rows)
    assert len([f for f in os.listdir(out_dir) if f != "stats.csv"]) == 4


def test_run_is_idempotent_excluding_wall_time(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    base = {"scenario": fast_inline_scenario(), "seeds": [0]}
    cfg1 = write_exp(tmp_path, {**base, "out_dir": out1}, "c1.json")
    cfg2 = write_exp(tmp_path, {**base, "out_dir": out2}, "c2.json")
    assert cli.main(["run", cfg1]) == 0
    assert cli.main(["run", cfg2]) == 0
    (f1,) = [f for f in os.listdir(out1) if f != "stats.csv"]
    t1 = read_trace(os.path.join(out1, f1))
    t2 = read_trace(os.path.join(out2, f1))
    assert t1.termination == t2.termination
    assert t1.meta["config_hash"] == t2.meta["config_hash"]
    for a, b in zip(t1.records, t2.records):
        assert np.array_equal(a.state, b.state)
        assert np.array_equal(a.inp, b.inp)
        assert np.array_equal(a.alpha, b.alpha)
        assert a.cost_mean == b.cost_mean and a.cost_std == b.cost_std


def test_stats_recompute_from_trace_files(tmp_path):
    from mhmppi import sim

    out_dir = str(tmp_path / "out")
    cfg = write_exp(
        tmp_path,
        {"scenario": fast_inline_scenario(), "seeds": [0, 1], "out_dir": out_dir},
    )
    assert cli.main(["run", cfg]) == 0
    traces = [
        read_trace(os.path.join(out_dir, f))
        for f in sorted(os.listdir(out_dir))
        if f != "stats.csv"
    ]
    for trace in traces:  # rebuild the fields analyze() needs
        trace.meta["targets"] = [[2, 2, 0, 0], [0, 2, 0, 0]]
    recomputed = sim.analyze(traces)
    stored = read_stats(os.path.join(out_dir, "stats.csv"))
    for rec, sto in zip(recomputed, stored):
        for key in ("n_runs", "completion_rate", "mean_cost_mean", "mean_cost_std",
                    "mean_steps", "mean_min_dist_alt1"):
            assert rec[key] == pytest.approx(sto[key], rel=1e-12)


def test_cli_overrides_and_seed_flags(tmp_path):
    out_dir = str(tmp_path / "out")
    cfg = write_exp(tmp_path, {"scenario": fast_inline_scenario(), "out_dir": out_dir})
    code = cli.main(
        ["run", cfg, "--seed", "5", "--seed", "6", "--override", "max_steps=2"]
    )
    assert code == 0
    traces = [f for f in os.listdir(out_dir) if f != "stats.csv"]
    assert len(traces) == 2
    trace = read_trace(os.path.join(out_dir, traces[0]))
    assert len(trace.records) <= 2


def test_cli_rejects_bad_override(tmp_path):
    cfg = write_exp(tmp_path, {"scenario": fast_inline_scenario()})
    assert cli.main(["run", cfg, "--override", "controller.bogus=1"]) == 2
    assert cli.main(["run", cfg, "--override", "controller.samples=0"]) == 2
    assert cli.main(["run", cfg, "--override", "controller.samples=abc"]) == 2
    assert cli.main(["run", cfg, "--override", 'weights.gamma="x"']) == 2


def test_cli_rejects_negative_seed_flag(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    cfg = write_exp(tmp_path, {"scenario": fast_inline_scenario(), "out_dir": out_dir})
    assert cli.main(["run", cfg, "--seed", "-1", "--seed", "0"]) == 2
    assert capsys.readouterr().err.startswith("config error: --seed: ")
    assert not os.path.exists(out_dir)  # no run started


def test_cli_rejects_negative_config_seed(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    payload = {"scenario": fast_inline_scenario(), "seeds": [-1, 0], "out_dir": out_dir}
    assert cli.main(["run", write_exp(tmp_path, payload)]) == 2
    assert capsys.readouterr().err.startswith("config error: seeds: ")
    assert not os.path.exists(out_dir)


def test_bad_completion_metric_exits_before_any_run(tmp_path, capsys):
    out_dir = tmp_path / "out"
    payload = {
        "scenario": fast_inline_scenario(),
        "overrides": {"completion_metric": "bogus"},
        "out_dir": str(out_dir),
    }
    assert cli.main(["run", write_exp(tmp_path, payload)]) == 2
    assert capsys.readouterr().err.startswith("config error: scenario: ")
    assert not out_dir.exists()


def test_workers_flag_matches_serial(tmp_path):
    out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
    base = {"scenario": fast_inline_scenario(), "seeds": [0, 1]}
    cfg1 = write_exp(tmp_path, {**base, "out_dir": out1}, "w1.json")
    cfg2 = write_exp(tmp_path, {**base, "out_dir": out2}, "w2.json")
    assert cli.main(["run", cfg1]) == 0
    assert cli.main(["run", cfg2, "--workers", "2"]) == 0
    files = sorted(f for f in os.listdir(out1) if f != "stats.csv")
    for name in files:
        a = read_trace(os.path.join(out1, name))
        b = read_trace(os.path.join(out2, name))
        assert a.termination == b.termination
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.state, rb.state)
            assert np.array_equal(ra.inp, rb.inp)


def test_bad_sweep_value_exits_before_any_run(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = write_exp(
        tmp_path,
        {
            "scenario": fast_inline_scenario(),
            "sweeps": [{"path": "controller.samples", "values": [48, 0]}],
            "out_dir": str(out_dir),
        },
    )
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "sweeps" in err and "controller.samples=0" in err
    assert not out_dir.exists()


def test_failed_run_prints_traceback(tmp_path):
    # one good and one bad sweep point: the bad run's traceback reaches
    # stderr whether it ran in this process or in a pool worker.  The bad
    # start state passes the config check and fails only when it runs: its
    # costs overflow at step 0.
    src_dir = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir}
    for workers in ("1", "2"):
        out_dir = tmp_path / f"out{workers}"
        cfg = write_exp(
            tmp_path,
            {
                "scenario": fast_inline_scenario(),
                "sweeps": [{"path": "x0", "values": [[0, 0, 0, 0], [1e200, 0, 0, 0]]}],
                "out_dir": str(out_dir),
            },
        )
        proc = subprocess.run(
            [sys.executable, "-m", "mhmppi.cli", "run", cfg, "--workers", workers],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 1, workers
        failed = [ln for ln in proc.stderr.splitlines() if ln.startswith("FAILED:")]
        assert len(failed) == 1 and "x0" in failed[0], workers
        assert "Traceback (most recent call last)" in proc.stderr, workers
        assert "NonFiniteCostError: control step 0" in proc.stderr, workers
        files = sorted(os.listdir(out_dir))
        assert files == ["custom_x0=-0-0-0-0-_seed0.csv", "stats.csv"], workers
