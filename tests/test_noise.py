import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhmppi import controller as ctrl
from mhmppi import noise
from mhmppi.multi_horizon import dims
from oracle import draw_noise
from test_controller import make_params, n_rows

# ------------------------------------------------------- substream contract


def test_sample_noise_deterministic_and_matches_reference():
    params = make_params()
    rows = n_rows(params, 2)
    batch1 = ctrl.sample_noise(params, 7, rows)
    batch2 = ctrl.sample_noise(params, 7, rows)
    assert np.array_equal(batch1, batch2)
    assert not np.array_equal(batch1, ctrl.sample_noise(params, 8, rows))

    assert np.array_equal(batch1, _reference_batch(params, 7, rows))


@st.composite
def noise_keys(draw):
    """(seed, step, scale): one step's stream key and the noise scales, the
    standard deviations of a diagonal covariance, all 1 or random, for 1
    to 3 components."""
    n_u = draw(st.integers(1, 3))
    seed, step_index = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return seed, step_index, np.ones(n_u)
    scales = st.lists(st.floats(0.1, 3.0), min_size=n_u, max_size=n_u)
    return seed, step_index, np.array(draw(scales))


def _filled(key, horizon, m, n_samples):
    """A whole noise batch from ``_fill_noise``."""
    seed, step_index, scale = key
    out = np.full((scale.size, dims(horizon, m)[0], n_samples), np.nan)
    noise._fill_noise(out, seed, step_index, scale, noise._chunks(out.shape[1]))
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(noise_keys(), st.integers(2, 6), st.integers(0, 3), st.integers(1, 40), st.data())
def test_fill_noise_matches_per_row_oracle(key, horizon, m, n_samples, data):
    # the worker's rows below any split row and the caller's from it on
    # give the oracle's batch bit for bit.  The caller stops the worker's
    # job 7 by moving the job word on once the worker has drawn past the
    # split, and the progress word then counts the worker's whole chunks
    seed, step_index, scale = key
    n_rows = dims(horizon, m)[0]
    split = data.draw(st.integers(0, n_rows))
    shape = (scale.size, n_rows, n_samples)
    shared = np.full(shape, np.nan)
    # the progress word is left over from job 6, which had every row; at
    # split 0 job 7 is handed over before it starts
    words = np.array([6 << 32 | n_rows, 7 if split else 8], np.int64)
    for rows in noise._upward(words, 7, n_rows):
        noise._fill_noise(shared, seed, step_index, scale, [rows])
        if rows.stop >= split:
            words[noise.JOB] = 8
    whole = min(-(-split // noise.CHUNK) * noise.CHUNK, n_rows)
    assert words[noise.PROGRESS] == (7 << 32 | whole if split else 6 << 32 | n_rows)
    out = np.full(shape, np.nan)
    out[:, :split] = shared[:, :split]
    noise._fill_noise(out, seed, step_index, scale, noise._chunks(n_rows, split))
    ref = draw_noise(noise.stream_key(seed, step_index), shape, np.diag(scale))
    assert np.array_equal(out, ref)


def test_upward_stops_once_the_job_word_names_another_job():
    # a job handed over before it started draws no chunk and leaves the
    # progress word as it was; one handed over after its first chunk
    # counts that chunk and draws no other
    words = np.array([6 << 32 | 40, 8], np.int64)
    assert list(noise._upward(words, 7, 40)) == []
    assert words[noise.PROGRESS] == 6 << 32 | 40
    words[noise.JOB] = 7
    chunks = noise._upward(words, 7, 40)
    assert next(chunks) == range(noise.CHUNK)
    words[noise.JOB] = 8
    assert list(chunks) == []
    assert words[noise.PROGRESS] == 7 << 32 | noise.CHUNK


@settings(max_examples=25, deadline=None, derandomize=True)
@given(noise_keys(), st.integers(2, 6))
def test_noise_primary_prefix_shared_across_widths(key, horizon):
    # the primary rows draw the same words whatever the number of backup
    # missions: the noise side of the gamma=0 equivalence
    primary = _filled(key, horizon, 0, 16)
    for m in (1, 2):
        assert np.array_equal(_filled(key, horizon, m, 16)[:, :horizon], primary)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(noise_keys(), st.integers(2, 6), st.integers(0, 2), st.integers(1, 63))
def test_noise_samples_do_not_depend_on_batch_size(key, horizon, m, n_samples):
    wide = _filled(key, horizon, m, 64)
    assert np.array_equal(_filled(key, horizon, m, n_samples), wide[:, :, :n_samples])


def test_noise_stream_template_reuse_is_exact():
    # drawing advances the generator; the next row must still match a
    # freshly keyed one (the state template must not alias the generator's).
    # Chunks in any order, and rows drawn twice, give the same rows
    out = np.full((3, 40, 7), np.nan)
    chunks = [range(20, 36), range(3, 5), range(36, 40), range(0, 4), range(20, 21), range(4, 20)]
    noise._fill_noise(out, 99, 0, np.ones(3), chunks)
    assert np.array_equal(out, draw_noise(noise.stream_key(99, 0), out.shape, np.eye(3)))


_DISPATCH_DRAW = """
import hashlib, json
import numpy as np
from mhmppi import noise
digests = []
for scale in ([1.0, 1.0], [0.5, 2.0]):
    out = np.empty((2, 400, 1000), np.float32)
    noise._fill_noise(out, 7, 3, np.array(scale), noise._chunks(400))
    digests.append(hashlib.sha256(out.tobytes()).hexdigest())
print(json.dumps([np.show_config(mode="dicts")["SIMD Extensions"].get("found", []), digests]))
"""


def _dispatch_draw(disabled: list) -> tuple:
    """(SIMD extensions numpy dispatches to, digests of a 400 x 1000 float32
    batch at unit scales and at scales (0.5, 2)) from a fresh interpreter
    whose numpy has the features ``disabled`` switched off."""
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(noise.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _DISPATCH_DRAW], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


def test_noise_is_bit_identical_under_avx2_and_avx512_dispatch():
    # the noise contract's claim that numpy's float32 log, cos and sin give
    # the same bits under its AVX2 and AVX-512 code paths.  The host's
    # features are read with no NPY_DISABLE_CPU_FEATURES, which this
    # process may run under; the batch is drawn inline, with no worker
    found, digests = _dispatch_draw([])
    avx512 = [name for name in found if name == "X86_V4" or name.startswith("AVX512")]
    if not avx512 or not {"X86_V3", "AVX2"} & set(found):
        pytest.skip(f"numpy finds no AVX2 and AVX-512 code paths on this host to compare: {found}")
    narrowed, avx2_digests = _dispatch_draw(avx512)
    assert not set(avx512) & set(narrowed), narrowed
    assert avx2_digests == digests


def test_fill_noise_builds_no_generator_for_no_rows(monkeypatch):
    # the caller's share is empty when the worker finished every row; a
    # stream key and a Philox generator cost about 25 us for nothing
    keys = []
    key = noise.stream_key

    def spy(seed, step_index):
        keys.append((seed, step_index))
        return key(seed, step_index)

    monkeypatch.setattr(noise, "stream_key", spy)
    out = np.full((2, 20, 5), np.nan)
    noise._fill_noise(out, 3, 4, np.ones(2), noise._chunks(20, 20))
    assert keys == [] and np.isnan(out).all()
    noise._fill_noise(out, 3, 4, np.ones(2), noise._chunks(20, 18))
    assert keys == [(3, 4)] and np.isnan(out[:, :18]).all() and not np.isnan(out[:, 18:]).any()


def test_sample_noise_statistics():
    params = make_params(n_samples=500, horizon=10, seed=11)
    batch = ctrl.sample_noise(params, 0, n_rows(params, 2))  # 2 x 100 x 500 draws
    flat = batch.reshape(2, -1).T
    n = flat.shape[0]
    assert abs(flat.mean()) < 4.0 / np.sqrt(2 * n)
    assert abs(flat.var() - 1.0) < 0.05
    cross = np.mean(flat[:, 0] * flat[:, 1])
    assert abs(cross) < 4.0 / np.sqrt(n)


def test_sample_noise_applies_covariance():
    cov = np.diag([4.0, 2.0])
    params = make_params(n_samples=400, horizon=10, noise_cov=cov)
    batch = ctrl.sample_noise(params, 1, n_rows(params, 1)).reshape(2, -1).T
    emp = np.cov(batch.T)
    assert np.allclose(emp, cov, atol=0.15)


def test_sample_noise_is_standard_normal():
    # 10^6 normals (2 x 100 rows x 5000 samples): the tails and kurtosis of
    # N(0, 1), and no dependence between the two outputs of one word (as a
    # shared uniform, or sin swapped for cos, would give), along samples or
    # between adjacent rows
    params = make_params(n_samples=5000, horizon=10, seed=3)
    batch = ctrl.sample_noise(params, 4, n_rows(params, 2))
    z = batch.ravel()
    n = z.size
    for k in (1, 2, 3):
        exact = math.erfc(k / math.sqrt(2.0))
        beyond = np.count_nonzero(np.abs(z) > k) / n
        assert abs(beyond - exact) < 5.0 * math.sqrt(exact * (1.0 - exact) / n), k
    kurtosis = np.mean(z**4) / np.mean(z**2) ** 2
    assert abs(kurtosis - 3.0) < 5.0 * math.sqrt(24.0 / n)

    def uncorrelated(a, b):
        a, b = a.ravel(), b.ravel()
        return abs(np.corrcoef(a, b)[0, 1]) < 5.0 / math.sqrt(a.size)

    first, second = batch
    assert uncorrelated(first, second)
    assert uncorrelated(first**2, second**2)
    for c in range(2):
        assert uncorrelated(batch[c, :, 1:], batch[c, :, :-1])
        assert uncorrelated(batch[c, 1:], batch[c, :-1])


# ----------------------------------------------------------------- prefetch


def _reference_batch(params, step_index, rows):
    """The noise batch of :func:`oracle.draw_noise`, one fresh generator per row."""
    key = noise.stream_key(params.seed, step_index)
    return draw_noise(key, (params.n_u, rows, params.n_samples), np.diag(params.noise_scale))


@pytest.fixture
def own_prefetch(monkeypatch):
    """A NoisePrefetch of this test's own, used by ``sample_noise`` even on
    one CPU, so that stopping its worker touches no other test."""
    pf = noise.NoisePrefetch()
    monkeypatch.setitem(noise._prefetchers, os.getpid(), pf)
    ahead = []  # per call: how many flat rows the worker had drawn ahead
    fill = pf.fill

    def recorded_fill(*args):
        ahead.append(fill(*args))
        return ahead[-1]

    monkeypatch.setattr(pf, "fill", recorded_fill)
    yield pf, ahead
    if not pf._lock.locked():  # else a fill hung, which its test reports
        pf.close()


def _worker_drew(pf, share):
    """Wait until the worker has drawn its whole pending batch, then make
    it read as if it had drawn only the first ``share`` flat rows."""
    n_rows = pf._key[0][1]
    done = pf._seq << 32 | n_rows
    for _ in range(6000):
        if int(pf._words[noise.PROGRESS]) == done:
            break
        time.sleep(0.01)
    else:
        pytest.fail("the worker did not draw its batch")
    pf._words[noise.PROGRESS] = pf._seq << 32 | share


def _call_within(seconds, fn):
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "sample_noise waited for the worker"
    return result[0]


def test_prefetched_noise_matches_draw_noise(own_prefetch):
    pf, ahead = own_prefetch
    cov = np.diag([2.0, 0.5])  # the worker applies the scales too
    params = make_params(n_samples=16, horizon=5, noise_cov=cov, seed=8)
    # the worker's share of steps 1..5 in flat rows (25 at m=2, 5 at the
    # abort's m=0 problem): all, one, none (a stale job, with the worker
    # stopped), all but one, all
    shares = [25, 1, None, 4, 5]
    for t, rows in enumerate([25] * 3 + [5] * 3):
        share = shares[t - 1] if t else None
        if share is not None:
            _worker_drew(pf, share)
        elif t:
            os.kill(pf.pid, signal.SIGSTOP)
        batch = _call_within(60, lambda: ctrl.sample_noise(params, t, rows))
        if t and share is None:
            os.kill(pf.pid, signal.SIGCONT)
        assert np.array_equal(batch, _reference_batch(params, t, rows)), t
    assert ahead[1:] == [25, 1, 0, 4, 5]
    assert not pf.failed


def test_prefetched_float32_noise_is_the_reference_rounded_once(own_prefetch):
    # the control step's batch is float32: the worker draws and shares it
    # as float32, each entry the float64 scaled normal rounded once, and a
    # float64 batch of the same shape and step is another key, drawn anew
    pf, ahead = own_prefetch
    cov = np.diag([2.0, 0.5])
    params = make_params(n_samples=16, horizon=5, noise_cov=cov, seed=8)
    for t in range(3):
        if t:
            _worker_drew(pf, 25)
        out = np.full((2, 25, 16), np.nan, np.float32)
        _call_within(60, lambda: ctrl.sample_noise(params, t, 25, out=out))
        assert np.array_equal(out, _reference_batch(params, t, 25).astype(np.float32)), t
    assert ahead[1:] == [25, 25]
    _worker_drew(pf, 25)
    batch = _call_within(60, lambda: ctrl.sample_noise(params, 3, 25))
    assert batch.dtype == np.float64 and np.array_equal(batch, _reference_batch(params, 3, 25))
    assert ahead[-1] == 0 and not pf.failed


def test_worker_rounds_a_mix_beyond_float32_range_to_inf_silently():
    # a worker's float32 job under noise scales of 3e38: scaled values
    # beyond float32's range are inf, samples of weight 0 in the control
    # step, and the worker raises no overflow warning
    shape = (2, 5, 8)
    scale = np.array([3e38, 2e38])
    shared = bytearray(noise.HEADER + 4 * math.prod(shape))  # the shared file's layout
    np.ndarray(2, np.int64, buffer=shared)[noise.JOB] = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        noise._run_job(shared, 1, shape, np.dtype(np.float32).str, 3, 4, scale)
    batch = np.ndarray(shape, np.float32, buffer=shared, offset=noise.HEADER)
    with np.errstate(over="ignore"):
        expected = draw_noise(noise.stream_key(3, 4), shape, np.diag(scale)).astype(np.float32)
    assert np.isinf(expected).any() and np.isfinite(expected).any()
    assert np.array_equal(batch, expected)


def test_prefetch_grows_its_shared_batch(own_prefetch):
    # each new shape is larger than the last: the caller grows the shared
    # file and maps it again, the worker maps it again on its next job,
    # and the rows the worker drew into the grown file are copied exact
    pf, ahead = own_prefetch
    small = make_params(n_samples=16, horizon=5, seed=7)
    wide = make_params(n_samples=4096, horizon=5, seed=7)
    long = make_params(n_samples=5000, horizon=7, seed=7)
    # (params, m, the worker's forced share of the second batch in flat
    # rows): 5 of 5, 25 of 25, 12 of 25 and 70 of 70
    stages = [(small, 0, 5), (small, 2, 25), (wide, 2, 12), (long, 3, 70)]
    sizes = []
    for i, (params, m, share) in enumerate(stages):
        rows = n_rows(params, m)
        for t in (2 * i, 2 * i + 1):
            if t % 2:
                _worker_drew(pf, share)
            batch = _call_within(60, lambda: ctrl.sample_noise(params, t, rows))
            assert np.array_equal(batch, _reference_batch(params, t, rows)), t
        assert ahead[-1] == share
        sizes.append(len(pf._shared))
    assert sizes == sorted(set(sizes))
    assert not pf.failed


def test_prefetch_never_waits_for_a_stopped_worker(own_prefetch):
    pf, ahead = own_prefetch
    params = make_params(n_samples=16, horizon=5, seed=5)
    ctrl.sample_noise(params, 0, 25)
    _worker_drew(pf, 25)
    ctrl.sample_noise(params, 1, 25)  # asks the worker for step 2
    # stop the worker idle, with its step-2 rows counted as none drawn: it
    # may have drawn some of them before the SIGSTOP, and would else read
    # as having drawn them ahead
    _worker_drew(pf, 0)
    os.kill(pf.pid, signal.SIGSTOP)
    try:
        batch = _call_within(60, lambda: ctrl.sample_noise(params, 2, 25))
    finally:
        os.kill(pf.pid, signal.SIGCONT)
    assert np.array_equal(batch, _reference_batch(params, 2, 25))
    assert ahead[1:] == [25, 0] and not pf.failed


def test_prefetch_taking_over_live_batches_keeps_them_exact(own_prefetch):
    # the caller takes over batches the worker is still drawing: whatever
    # share each draws, every batch equals the reference.  A row of 2 x 4096 normals takes
    # long enough to write that one counted before it is written gets
    # copied half-drawn
    pf, ahead = own_prefetch
    params = make_params(n_samples=4096, horizon=5, seed=9)
    ctrl.sample_noise(params, 0, 25)
    _worker_drew(pf, 25)  # started
    batches = _call_within(60, lambda: [ctrl.sample_noise(params, t, 25) for t in range(1, 41)])
    for t, batch in enumerate(batches, 1):
        assert np.array_equal(batch, _reference_batch(params, t, 25)), t
    assert not pf.failed


def test_prefetch_counts_no_rows_of_an_older_job(own_prefetch):
    # a progress word left by an older job counts no rows, even one that
    # counts every row of a batch of this shape: the rows it counts are
    # not copied
    pf, ahead = own_prefetch
    params = make_params(n_samples=16, horizon=5, seed=3)
    ctrl.sample_noise(params, 0, 25)  # starts the worker on step 1
    _worker_drew(pf, 25)
    shared = np.ndarray((2, 25, 16), buffer=pf._shared, offset=noise.HEADER)
    shared[...] = np.nan
    del shared  # the mapping is closed with the prefetcher
    pf._words[noise.PROGRESS] = (pf._seq - 1) << 32 | 25
    batch = _call_within(60, lambda: ctrl.sample_noise(params, 1, 25))
    assert np.array_equal(batch, _reference_batch(params, 1, 25))
    assert ahead[-1] == 0 and not pf.failed


def test_prefetched_noise_is_private(own_prefetch):
    pf, ahead = own_prefetch
    params = make_params(n_samples=16, horizon=5, seed=4)
    ctrl.sample_noise(params, 0, 25)
    _worker_drew(pf, 25)
    batch = ctrl.sample_noise(params, 1, 25)
    assert ahead[-1] == 25  # drawn by the worker
    assert batch.flags.writeable and batch.flags.owndata
    batch[...] = np.nan
    _worker_drew(pf, 25)
    assert np.array_equal(ctrl.sample_noise(params, 2, 25), _reference_batch(params, 2, 25))
    assert ahead[-1] == 25


def test_prefetch_falls_back_inline_when_worker_dies(own_prefetch):
    pf, ahead = own_prefetch
    params = make_params(n_samples=16, horizon=5, seed=6)
    ctrl.sample_noise(params, 0, 25)  # starts the worker and requests step 1
    os.kill(pf.pid, signal.SIGKILL)
    pf._proc.wait(timeout=60)
    batch = _call_within(60, lambda: ctrl.sample_noise(params, 1, 25))
    assert np.array_equal(batch, _reference_batch(params, 1, 25))
    assert ahead[-1] == 0 and pf.failed
    # from then on every step is drawn here
    assert np.array_equal(ctrl.sample_noise(params, 2, 25), _reference_batch(params, 2, 25))
    assert ahead[-1] == 0


def _first_batch():
    """(failed, pid, exact) of this process's prefetcher after its first
    batch, which is exact when it equals the oracle's."""
    params = make_params(n_samples=16, horizon=5, seed=2)
    batch = ctrl.sample_noise(params, 3, 25)
    pf = noise.process_prefetch()
    return pf.failed, pf.pid, bool(np.array_equal(batch, _reference_batch(params, 3, 25)))


def test_prefetch_draws_inline_on_one_cpu():
    # a process limited to one CPU after it started, before its first step,
    # starts no worker
    code = (
        "import os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "import test_noise\n"
        "print(*test_noise._first_batch())\n"
    )
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(ctrl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((src_dir, tests_dir))},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "None", "True"]


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_prefetch_draws_inline_in_a_pool_child(method):
    # a pool of runs (cli --workers) already keeps the CPUs busy, so its
    # children start no worker
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context(method)) as pool:
        failed, pid, exact = pool.submit(_first_batch).result(timeout=120)
    assert failed and pid is None and exact


def test_noise_worker_module_is_imported_lazily():
    # building a scenario and its first controller state loads none of the
    # worker's modules: sample_noise imports them on the first step, so
    # that they do not weigh on the package's import time
    code = (
        "import sys\n"
        "from mhmppi import config, controller, sim\n"
        "from mhmppi.scenarios import get_scenario_dict\n"
        "s = config.scenario_from_dict(get_scenario_dict('uav-free-1'))\n"
        "controller.init_state(s.x0, s.controller, s.missions, s.weight_law)\n"
        "print(*sorted({'multiprocessing', 'subprocess', 'mhmppi.noise'} & set(sys.modules)))\n"
    )
    src_dir = os.path.dirname(os.path.dirname(ctrl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src_dir},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_prefetching_run_exits_cleanly():
    # a closed loop in a fresh interpreter: the worker is stopped and the
    # shared memory freed with nothing on stderr (no resource_tracker or
    # leaked shared_memory warnings)
    code = (
        "from mhmppi import config, noise, sim\n"
        "from mhmppi.scenarios import get_scenario_dict\n"
        "cfg = get_scenario_dict('uav-free-1')\n"
        "cfg['controller']['samples'] = 32\n"
        "cfg['max_steps'] = 5\n"
        "sim.run_closed_loop(config.scenario_from_dict(cfg))\n"
        "pf = noise.process_prefetch()\n"
        "print(pf.pid)\n"
    )
    src_dir = os.path.dirname(os.path.dirname(ctrl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src_dir},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    pid = proc.stdout.split()[-1]
    if pid != "None":  # a worker ran; it must be gone
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)


def _process_state(pid: int) -> str | None:
    """The state letter of process ``pid``, None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return None


def test_orphaned_noise_worker_exits(tmp_path):
    # a run killed outright never stops its worker: the worker ends when
    # its job pipe hangs up, also when the caller died while the worker
    # was still starting.  Its output goes to DEVNULL, as the worker
    # inherits it and a pipe would block until the worker ended
    pid_file = tmp_path / "worker.pid"
    code = (
        "import os, signal, sys\n"
        "from mhmppi import config, noise, sim\n"
        "from mhmppi.scenarios import get_scenario_dict\n"
        "cfg = get_scenario_dict('uav-free-1')\n"
        "cfg['controller']['samples'] = 32\n"
        "cfg['max_steps'] = 3\n"
        "sim.run_closed_loop(config.scenario_from_dict(cfg))\n"
        "with open(sys.argv[1], 'w') as fh:\n"
        "    fh.write(str(noise.process_prefetch().pid))\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    src_dir = os.path.dirname(os.path.dirname(ctrl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(pid_file)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": src_dir},
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL
    pid = pid_file.read_text()
    if pid == "None":  # no worker ran (one CPU)
        return
    pid = int(pid)
    deadline = time.monotonic() + 10.0
    while _process_state(pid) not in (None, "Z"):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            pytest.fail(f"the orphaned worker {pid} still ran 10 s after its caller died")
        time.sleep(0.05)
