import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhmppi import controller as ctrl
from mhmppi import prefetch
from mhmppi.config import scenario_from_dict
from mhmppi.cost import Mission, MissionSet, ObstacleSet
from mhmppi.dynamics import DoubleIntegrator, SimpleCar, step
from mhmppi.errors import ConfigError, NonFiniteCostError
from mhmppi.multi_horizon import MultiHorizonInput, dims
from mhmppi.scenarios import get_scenario_dict
from mhmppi.weights import WeightLawParams
from oracle import cost_vector, draw_noise, expand, from_parts, tail_cost_vector

NO_OBS = ObstacleSet.empty()
UAV_MISSIONS = MissionSet(
    (
        Mission.build([10, 10, 0, 0]),
        Mission.build([2, 6, 0, 0]),
        Mission.build([8, 6, 0, 0]),
    )
)


def make_params(**kw):
    defaults = dict(n_samples=64, horizon=5, n_u=2, noise_cov=1.0, seed=42)
    defaults.update(kw)
    return ctrl.ControllerParams.build(**defaults)


def n_rows(params, m):
    """Flat rows of a plan over m backup missions."""
    return dims(params.horizon, m)[0]


# ----------------------------------------------------------------- sampling


def test_params_validation():
    with pytest.raises(ConfigError):
        make_params(n_samples=0)
    with pytest.raises(ConfigError):
        make_params(temperature=0.0)
    with pytest.raises(ConfigError):
        make_params(noise_cov=np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PD
    with pytest.raises(ConfigError):
        make_params(noise_cov=np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ConfigError):
        make_params(horizon=1)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        make_params(seed=-1)


def test_params_validated_on_every_construction():
    params = make_params()
    for change in (dict(temperature=0.0), dict(seed=-1), dict(n_samples=0), dict(horizon=1)):
        with pytest.raises(ConfigError):
            replace(params, **change)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        ctrl.ControllerParams(16, 5, np.eye(2), seed=-1)
    with pytest.raises(ConfigError, match="symmetric"):
        ctrl.ControllerParams(16, 5, np.ones(2))
    # the factor follows the covariance through replace
    cov = np.array([[4.0, 1.0], [1.0, 2.0]])
    changed = replace(params, noise_cov=cov)
    assert np.array_equal(changed.noise_chol, np.linalg.cholesky(cov))
    assert np.array_equal(replace(changed, seed=3).noise_chol, changed.noise_chol)


def test_params_fields_checked_not_coerced():
    params = make_params()
    for change in (
        dict(n_samples=100.7),
        dict(n_samples=True),
        dict(seed=1.9),
        dict(horizon="12"),
        dict(control_cost="false"),
        dict(control_cost=1),
        dict(temperature=float("nan")),
        dict(noise_cov=np.array([[1.0, np.nan], [np.nan, 1.0]])),
    ):
        with pytest.raises(ConfigError):
            replace(params, **change)
    with pytest.raises(ConfigError, match="noise_cov"):
        make_params(noise_cov="1.0")


def test_params_hold_only_the_sampling_choices():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    params = ctrl.ControllerParams(16, 5, cov)
    # the caller's array stays the caller's; the params hold read-only copies
    assert cov.flags.writeable
    cov[0, 0] = 9.0
    assert params.noise_cov[0, 0] == 2.0
    assert not params.noise_cov.flags.writeable and not params.noise_chol.flags.writeable
    assert not hasattr(params, "n_alternatives") and not hasattr(params, "with_seed")
    with pytest.raises(ValueError, match="noise_chol"):
        replace(params, noise_chol=np.eye(2))


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
    """(seed, step, chol): one step's stream key and a Cholesky factor, the
    identity or a random lower-triangular one, for 1 to 3 components."""
    n_u = draw(st.integers(1, 3))
    seed, step_index = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return seed, step_index, np.eye(n_u)
    entries = st.lists(st.floats(-2.0, 2.0), min_size=n_u * n_u, max_size=n_u * n_u)
    chol = np.tril(np.reshape(draw(entries), (n_u, n_u)))
    diagonal = st.lists(st.floats(0.1, 3.0), min_size=n_u, max_size=n_u)
    np.fill_diagonal(chol, draw(diagonal))
    return seed, step_index, chol


def _filled(key, horizon, m, n_samples):
    """A whole noise batch from ``_fill_noise``."""
    seed, step_index, chol = key
    out = np.full((chol.shape[0], dims(horizon, m)[0], n_samples), np.nan)
    ctrl._fill_noise(out, seed, step_index, chol, range(out.shape[1]))
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(noise_keys(), st.integers(2, 6), st.integers(0, 3), st.integers(1, 40), st.data())
def test_fill_noise_matches_per_slab_oracle(key, horizon, m, n_samples, data):
    # rows split between an upward and a downward pass, as the worker and
    # the caller draw them, still give the oracle's batch bit for bit
    seed, step_index, chol = key
    n_rows = dims(horizon, m)[0]
    meet = data.draw(st.integers(0, n_rows))
    out = np.full((chol.shape[0], n_rows, n_samples), np.nan)
    ctrl._fill_noise(out, seed, step_index, chol, range(meet))
    ctrl._fill_noise(out, seed, step_index, chol, reversed(range(meet, n_rows)))
    ref = draw_noise(ctrl.stream_key(seed, step_index), out.shape, chol)
    assert np.array_equal(out, ref)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(noise_keys(), st.integers(2, 6))
def test_noise_primary_prefix_shared_across_widths(key, horizon):
    # the primary rows draw the same slabs whatever the number of backup
    # missions: the noise side of the gamma=0 equivalence
    primary = _filled(key, horizon, 0, 16)
    for m in (1, 2):
        assert np.array_equal(_filled(key, horizon, m, 16)[:, :horizon], primary)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(noise_keys(), st.integers(2, 6), st.integers(0, 2))
def test_noise_samples_do_not_depend_on_batch_size(key, horizon, m):
    wide = _filled(key, horizon, m, 64)
    assert np.array_equal(_filled(key, horizon, m, 32), wide[:, :, :32])


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
    cov = np.array([[4.0, 1.0], [1.0, 2.0]])
    params = make_params(n_samples=400, horizon=10, noise_cov=cov)
    batch = ctrl.sample_noise(params, 1, n_rows(params, 1)).reshape(2, -1).T
    emp = np.cov(batch.T)
    assert np.allclose(emp, cov, atol=0.15)


def _reference_batch(params, step_index, rows):
    """The noise batch of :func:`oracle.draw_noise`, one fresh generator per slab."""
    key = ctrl.stream_key(params.seed, step_index)
    return draw_noise(key, (params.n_u, rows, params.n_samples), params.noise_chol)


@pytest.fixture
def own_prefetch(monkeypatch):
    """A NoisePrefetch of this test's own, used by ``sample_noise`` even on
    one CPU, so that stopping its worker touches no other test."""
    pf = prefetch.NoisePrefetch()
    monkeypatch.setitem(prefetch._prefetchers, os.getpid(), pf)
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
        if int(pf._words[prefetch.PROGRESS]) == done:
            break
        time.sleep(0.01)
    else:
        pytest.fail("the worker did not draw its batch")
    pf._words[prefetch.PROGRESS] = pf._seq << 32 | share


def _call_within(seconds, fn):
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "sample_noise waited for the worker"
    return result[0]


def test_prefetched_noise_matches_draw_noise(own_prefetch):
    pf, ahead = own_prefetch
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])  # the worker applies the factor too
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
    os.kill(pf.pid, signal.SIGSTOP)
    try:
        batch = _call_within(60, lambda: ctrl.sample_noise(params, 2, 25))
    finally:
        os.kill(pf.pid, signal.SIGCONT)
    assert np.array_equal(batch, _reference_batch(params, 2, 25))
    assert ahead[1:] == [25, 0] and not pf.failed


def test_prefetch_meeting_in_the_middle_keeps_batches_exact(own_prefetch):
    # the two processes race on live batches: whatever share each draws,
    # every batch equals the reference.  A row of 2 x 4096 normals takes
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


def test_prefetching_run_exits_cleanly():
    # a closed loop in a fresh interpreter: the worker is stopped and the
    # shared memory freed with nothing on stderr (no resource_tracker or
    # leaked shared_memory warnings)
    code = (
        "from mhmppi import config, prefetch, sim\n"
        "from mhmppi.scenarios import get_scenario_dict\n"
        "cfg = get_scenario_dict('uav-free-1')\n"
        "cfg['controller']['samples'] = 32\n"
        "cfg['max_steps'] = 5\n"
        "sim.run_closed_loop(config.scenario_from_dict(cfg))\n"
        "pf = prefetch.process_prefetch()\n"
        "print(None if pf is None else pf.pid)\n"
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


# ------------------------------------------------------------------ softmax


def test_softmax_uniform_and_single():
    assert np.allclose(ctrl.softmax_weights(np.full(7, 3.3), 0.5), np.full(7, 1 / 7))
    assert np.array_equal(ctrl.softmax_weights(np.array([5.0]), 0.5), [1.0])


def test_softmax_frozen_two_point_oracle():
    lam = 0.5
    w = ctrl.softmax_weights(np.array([0.0, lam]), lam)
    assert np.allclose(w, [0.73105858, 0.26894142], atol=1e-8)


def test_softmax_shift_invariance_and_normalization():
    rng = np.random.default_rng(3)
    costs = rng.uniform(0, 100, size=256)
    w = ctrl.softmax_weights(costs, 0.5)
    assert abs(w.sum() - 1.0) < 1e-12
    for shift in (1.0, -50.0, 1e6):
        w2 = ctrl.softmax_weights(costs + shift, 0.5)
        assert np.max(np.abs(w2 - w)) < 1e-9


def test_softmax_gives_non_finite_costs_zero_weight():
    lam = 0.5
    w = ctrl.softmax_weights(np.array([1.0, np.nan, 2.0]), lam)
    finite = ctrl.softmax_weights(np.array([1.0, 2.0]), lam)
    assert np.array_equal(w, [finite[0], 0.0, finite[1]])
    w = ctrl.softmax_weights(np.array([np.inf, 3.0, -np.inf, np.nan]), lam)
    assert np.array_equal(w, [0.0, 1.0, 0.0, 0.0])
    # on finite costs the weights are the plain formula's, bit for bit
    costs = np.random.default_rng(5).uniform(0, 20, size=97)
    z = np.exp(-(costs - costs.min()) / lam)
    assert np.array_equal(ctrl.softmax_weights(costs, lam), z / z.sum())


def test_softmax_all_non_finite_raises():
    with pytest.raises(NonFiniteCostError, match="all 3 sample costs are non-finite"):
        ctrl.softmax_weights(np.array([np.nan, np.inf, -np.inf]), 0.5)


def _step_with_noise(monkeypatch, sample_noise, n_samples=64, step_index=0):
    """One m=0 control step of the double integrator with ``sample_noise``
    in place of the sampler."""
    params = make_params(n_samples=n_samples, horizon=5)
    missions = MissionSet((UAV_MISSIONS[0],))
    wl = WeightLawParams(gamma=0.0)
    monkeypatch.setattr(ctrl, "sample_noise", sample_noise)
    x = np.array([1.0, 2.0, 0.5, -0.5])
    state = ctrl.init_state(x, params, missions, wl)
    state = replace(state, step_index=step_index)
    with np.errstate(over="ignore", invalid="ignore"):
        return ctrl.control_step(x, state, DoubleIntegrator(), missions, NO_OBS, params, wl)


def test_all_non_finite_sample_costs_name_the_step(monkeypatch):
    # every perturbed plan overflows the cost; the noise-free plan stays finite
    huge = lambda params, _, n_inputs: np.full((params.n_u, n_inputs, params.n_samples), 1e300)
    with pytest.raises(NonFiniteCostError, match="control step 7: ") as info:
        _step_with_noise(monkeypatch, huge, step_index=7)
    assert info.value.step == 7


def test_step_diagnostics_effective_sample_size(monkeypatch):
    n = 64
    # equal sample costs: uniform weights, ESS = K
    zero = lambda params, _, n_inputs: np.zeros((params.n_u, n_inputs, params.n_samples))
    u, _, diag = _step_with_noise(monkeypatch, zero, n_samples=n)
    assert diag.ess == n
    assert diag.max_weight == 1.0 / n

    # one finite sample cost: one-hot weights, ESS = 1, and the masked
    # samples move the plan not at all
    def one_finite(params, _, n_inputs):
        noise = np.full((params.n_u, n_inputs, params.n_samples), 1e300)
        noise[:, :, 3] = 0.25
        return noise

    u, _, diag = _step_with_noise(monkeypatch, one_finite, n_samples=n)
    assert diag.ess == 1.0
    assert diag.max_weight == 1.0
    assert np.array_equal(u, [0.25, 0.25])


def test_non_finite_noise_free_row_names_the_step():
    params = make_params(n_samples=16, horizon=5)
    model, wl = DoubleIntegrator(), WeightLawParams(gamma=0.66)
    x = np.zeros(4)
    state = ctrl.init_state(x, params, UAV_MISSIONS, wl)
    flat = state.inputs.flat.copy()
    flat[1, 0] = np.nan  # the shifted plan's first input
    state = replace(state, inputs=state.inputs.with_flat(flat), step_index=12)
    with pytest.raises(NonFiniteCostError, match="control step 12: noise-free") as info:
        ctrl.control_step(x, state, model, UAV_MISSIONS, NO_OBS, params, wl)
    assert info.value.step == 12


def test_step_diagnostics_layer_seconds():
    params = make_params(n_samples=16, horizon=5)
    wl = WeightLawParams(gamma=0.66)
    x = np.zeros(4)
    state = ctrl.init_state(x, params, UAV_MISSIONS, wl)
    _, _, diag = ctrl.control_step(x, state, DoubleIntegrator(), UAV_MISSIONS, NO_OBS, params, wl)
    layers = (diag.noise_s, diag.eval_s, diag.project_s, diag.update_s)
    assert all(s > 0.0 for s in layers)
    assert sum(layers) <= diag.seconds


# -------------------------------------------------------------- mppi update


def test_mppi_update_degenerate_and_cancellation():
    plan = MultiHorizonInput.zeros(3, 1, 2)
    # (n_u, n_inputs, K) batches
    noise = np.random.default_rng(0).standard_normal((2, 6, 2)).transpose(2, 1, 0)
    w = np.array([0.0, 1.0])
    out = ctrl.mppi_update(plan, noise, w)
    assert np.allclose(out.flat, noise[:, :, 1].T)

    out = ctrl.mppi_update(plan, np.zeros((2, 6, 4)), np.full(4, 0.25))
    assert np.array_equal(out.flat, plan.flat)

    sym = np.stack([noise[:, :, 0], -noise[:, :, 0]], axis=-1)
    out = ctrl.mppi_update(plan, sym, np.array([0.5, 0.5]))
    assert np.allclose(out.flat, 0.0, atol=1e-16)


# -------------------------------------------------------- full control step


def test_control_step_is_deterministic():
    params = make_params(n_samples=32, horizon=5)
    model = DoubleIntegrator()
    wl = WeightLawParams(gamma=0.66)
    x = np.zeros(4)
    state = ctrl.init_state(x, params, UAV_MISSIONS, wl)
    u1, s1, _ = ctrl.control_step(x, state, model, UAV_MISSIONS, NO_OBS, params, wl)

    state_b = ctrl.init_state(x, params, UAV_MISSIONS, wl)
    u2, s2, _ = ctrl.control_step(x, state_b, model, UAV_MISSIONS, NO_OBS, params, wl)
    assert np.array_equal(u1, u2)
    assert np.array_equal(s1.inputs.flat, s2.inputs.flat)
    assert np.array_equal(s1.alpha, s2.alpha)


def test_control_step_alpha_on_simplex_and_descent():
    params = make_params(n_samples=48, horizon=6, seed=5)
    model = DoubleIntegrator()
    wl = WeightLawParams(gamma=0.66)
    x = np.zeros(4)
    state = ctrl.init_state(x, params, UAV_MISSIONS, wl)
    for _ in range(15):
        alpha_prev = state.alpha.copy()
        u, state, diag = ctrl.control_step(
            x, state, model, UAV_MISSIONS, NO_OBS, params, wl
        )
        assert abs(diag.alpha.sum() - 1.0) < 1e-9
        assert np.all(diag.alpha >= -1e-12)
        c = diag.plan_costs - diag.tail_costs
        assert c @ diag.alpha <= c @ alpha_prev + 1e-9
        x = step(model, x, u)


def _psd(rng, n):
    """A random positive definite matrix with nonzero off-diagonal entries."""
    L = rng.standard_normal((n, n))
    return L @ L.T + 0.1 * np.eye(n)


def _oracle_case(model_cls, horizon, m, seed, dense=False):
    """Backup missions in distinct modes, mission 1's with a zero channel;
    boxes on the plans' paths; a shifted base plan plus noisy copies.
    With ``dense``, mission 1 weighs its state and input with full
    (non-diagonal) matrices."""
    modes = [np.ones(2), np.array([0.6, 0.8]), np.array([1.0, 0.0])]
    model = model_cls(modes=modes)
    rng = np.random.default_rng(seed)
    missions = MissionSet(
        tuple(
            Mission.build(
                rng.uniform(-2, 2, model.n_x),
                state_weight=_psd(rng, model.n_x) if dense and i == 1 else 1.0 + i,
                input_weight=_psd(rng, 2) if dense and i == 1 else 0.5,
                mode=(3 - i) % 3 if i else 0,
            )
            for i in range(m + 1)
        )
    )
    obstacles = ObstacleSet.from_boxes(
        [((-0.05, -0.3), (0.3, 0.05)), ((0.1, 0.1), (0.6, 0.6))], penalty=5.0
    )
    base = MultiHorizonInput(horizon, m, rng.standard_normal((dims(horizon, m)[0], 2)))
    base = base.shift()  # the last input of every plan is the zero pad
    flat_batch = base.flat[None] + 0.8 * rng.standard_normal((6, *base.flat.shape))
    flat_batch[0] = base.flat
    return model, missions, obstacles, base, flat_batch


def test_batch_costs_match_structure_route():
    # every batch row must reproduce the per-structure cost and tail-cost
    # vectors, for both models, short and long horizons, all input modes,
    # and diagonal as well as dense state and input weights
    for model_cls in (DoubleIntegrator, SimpleCar):
        for horizon, m, dense in [
            (2, 1, False), (3, 3, False), (5, 2, False), (7, 3, False), (5, 2, True)
        ]:
            case = f"{model_cls.__name__} N={horizon} m={m} dense={dense}"
            model, missions, obstacles, base, flat_batch = _oracle_case(
                model_cls, horizon, m, seed=10 * horizon + m, dense=dense
            )
            if dense:
                Q, R = missions[1].state_weight, missions[1].input_weight
                assert np.count_nonzero(Q - np.diag(np.diag(Q))), case
                assert np.count_nonzero(R - np.diag(np.diag(R))), case
            x0 = np.zeros(model.n_x)
            costs, tails = ctrl.evaluate_plan_batch(
                model, x0, flat_batch.transpose(2, 1, 0), horizon, missions, obstacles
            )
            primary_hits = tail_hits = 0
            for q in range(flat_batch.shape[0]):
                plan = base.with_flat(flat_batch[q])
                traj = expand(model, x0, plan, missions.modes)
                direct = cost_vector(traj, plan, missions, obstacles)
                direct_tails = tail_cost_vector(traj, plan, missions, obstacles)
                assert np.allclose(costs[q], direct, rtol=1e-11, atol=0), case
                assert np.allclose(tails[q], direct_tails, rtol=1e-11, atol=0), case
                primary_hits += obstacles.inside(traj.primary_states[1:, :2].T).sum()
                tail_hits += sum(
                    obstacles.inside(states[:, :2].T).sum()
                    for branch in traj.tail_states
                    for states in branch
                )
            assert primary_hits and tail_hits, f"{case}: the plans enter no box"


def test_batch_tail_costs_match_structure_route():
    model = DoubleIntegrator()
    rng = np.random.default_rng(31)
    x0 = rng.standard_normal(4)
    base = MultiHorizonInput(4, 2, rng.standard_normal((dims(4, 2)[0], 2)))
    shifted = base.shift()  # last input of every plan is the zero pad
    costs, tails = ctrl.evaluate_plan_batch(
        model, x0, shifted.flat.T[:, :, None], 4, UAV_MISSIONS, NO_OBS
    )
    traj = expand(model, x0, shifted, UAV_MISSIONS.modes)
    assert np.allclose(costs[0], cost_vector(traj, shifted, UAV_MISSIONS, NO_OBS), rtol=1e-11)
    assert np.allclose(
        tails[0], tail_cost_vector(traj, shifted, UAV_MISSIONS, NO_OBS), rtol=1e-11
    )


def test_noise_stream_template_reuse_is_exact():
    # drawing advances internal state; the next slab must still match a
    # freshly keyed construction (the template must not alias generator state)
    stream = ctrl.NoiseStream(99, 0)
    # with one component, slab s is row s of the reference batch
    slabs = draw_noise(ctrl.stream_key(99, 0), (1, 4, 7), np.eye(1))[0]
    out = np.empty(7)
    for s in [3, 0, 3, 2, 0, 1]:  # revisits must reproduce identical slabs
        stream.slab(s, out)
        assert np.array_equal(out, slabs[s])


def test_single_step_brute_force_oracle(monkeypatch):
    # N=2, m=1 double-integrator toy, K=2, hand-fixed noise, gamma=0:
    # u_exec must equal the softmax-weighted noise average added to the
    # shifted plan, computed here by an independent step-through
    A = DoubleIntegrator.A
    B = DoubleIntegrator.B
    p0 = np.array([1.0, 0.0, 0.0, 0.0])
    p1 = np.array([0.0, 1.0, 0.0, 0.0])
    missions = MissionSet((Mission.build(p0), Mission.build(p1)))
    params = make_params(n_samples=2, horizon=2, temperature=0.7)
    wl = WeightLawParams(gamma=0.0)
    model = DoubleIntegrator()

    prev = from_parts(
        [[0.3, -0.2], [0.1, 0.4]], [[[[-0.5, 0.2]]]]
    )
    fixed_noise = np.array(
        [
            [[0.2, 0.1], [-0.3, 0.4], [0.05, -0.1]],
            [[-0.6, 0.3], [0.2, 0.2], [0.4, 0.0]],
        ]
    )
    # sampled as (n_u, n_inputs, K)
    monkeypatch.setattr(ctrl, "sample_noise", lambda *_: fixed_noise.transpose(2, 1, 0).copy())

    x0 = np.array([0.2, -0.1, 0.05, 0.0])
    state = ctrl.ControllerState(prev, np.array([1.0, 0.0]), 0)
    u_exec, new_state, diag = ctrl.control_step(
        x0, state, model, missions, NO_OBS, params, wl
    )

    # --- independent step-through (plain numpy, no package calls) ---
    shifted = np.array([[0.1, 0.4], [0.0, 0.0]])  # primary of the shifted plan
    j0 = np.empty(2)
    for q in range(2):
        u = shifted + fixed_noise[q, :2]
        x1 = A @ x0 + B @ u[0]
        x2 = A @ x1 + B @ u[1]
        j0[q] = (
            (x1 - p0) @ (x1 - p0) + u[0] @ u[0]
            + (x2 - p0) @ (x2 - p0) + u[1] @ u[1]
            + (x2 - p0) @ (x2 - p0)
        )
    z = np.exp(-(j0 - j0.min()) / params.temperature)
    w = z / z.sum()
    expected_u = shifted[0] + w[0] * fixed_noise[0, 0] + w[1] * fixed_noise[1, 0]

    assert np.array_equal(new_state.alpha, [1.0, 0.0])  # gamma=0 keeps primary-only
    assert np.allclose(u_exec, expected_u, rtol=1e-12)


def test_control_cost_flag_changes_weighting():
    params_off = make_params(n_samples=16, horizon=4, seed=3)
    params_on = ctrl.ControllerParams.build(
        n_samples=16, horizon=4, n_u=2, seed=3, control_cost=True
    )
    model = DoubleIntegrator()
    wl = WeightLawParams(gamma=0.5)
    x = np.array([1.0, 1.0, 0.0, 0.0])
    state0 = ctrl.init_state(x, params_off, UAV_MISSIONS, wl)
    # warm the plan so the shifted plan is nonzero and the alignment term bites
    for _ in range(3):
        u, state0, _ = ctrl.control_step(
            x, state0, model, UAV_MISSIONS, NO_OBS, params_off, wl
        )
    u_off, _, _ = ctrl.control_step(
        x, state0, model, UAV_MISSIONS, NO_OBS, params_off, wl
    )
    u_on, _, _ = ctrl.control_step(x, state0, model, UAV_MISSIONS, NO_OBS, params_on, wl)
    assert not np.array_equal(u_off, u_on)


def _gamma_zero_runs(control_cost: bool, n_steps: int = 40):
    """Executed inputs of the m=2 step with gamma=0 and of the m=0 step on
    the primary mission alone, each closing the loop on its own inputs."""
    cfg = get_scenario_dict("uav-obstacles")
    cfg["controller"].update(samples=50, horizon=10, control_cost=control_cost)
    scenario = scenario_from_dict(cfg)
    model, obstacles = scenario.model, scenario.obstacles
    wl = WeightLawParams(gamma=0.0)
    runs = []
    for missions, params in (
        (scenario.missions, scenario.controller),
        (MissionSet((scenario.missions[0],)), scenario.controller),
    ):
        x = scenario.x0.copy()
        state = ctrl.init_state(x, params, missions, wl)
        inputs = []
        for _ in range(n_steps):
            u, state, _ = ctrl.control_step(x, state, model, missions, obstacles, params, wl)
            inputs.append(u)
            x = step(model, x, u)
        runs.append(np.stack(inputs))
    return runs


def test_gamma_zero_matches_single_mission_step():
    # with no weight on the backups, the branch tails change nothing the
    # plant sees: the m=0 step on the primary mission executes the same bits
    multi, single = _gamma_zero_runs(control_cost=False)
    assert multi.tobytes() == single.tobytes()
    # not so with the control-cost penalty, which spans every flat row,
    # backup tails included; at step 0 the shifted plan is zero and adds none
    multi, single = _gamma_zero_runs(control_cost=True, n_steps=2)
    assert np.array_equal(multi[0], single[0])
    assert not np.array_equal(multi[1], single[1])
