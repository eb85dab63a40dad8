import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import flowfx
from flowfx import host, net, solvers
from flowfx.errors import DomainError, SolverError
from flowfx.net import ModelConfig, init_model
from flowfx.solvers import SolverConfig, dopri5_sample, euler_sample


def small_model(seed=77):
    cfg = ModelConfig(dim=2, hidden=(16,), n_cond=2, cond_dim=4, embed_dim=8, n_freqs=4)
    return init_model(cfg, np.random.default_rng(seed))


def test_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(kind="rk4")
    with pytest.raises(DomainError):
        SolverConfig(steps=0)
    with pytest.raises(DomainError):
        SolverConfig(kind="dopri5", atol=0.0)


def test_unknown_cfg_mode_rejected_at_construction():
    # _field reads the mode only for conditional fields; the config checks it always
    with pytest.raises(DomainError, match="bogus"):
        SolverConfig(cfg_mode="bogus")


def test_euler_constant_field_one_step_exact():
    # dyadic values make the arithmetic exact, not just close
    x0 = np.array([0.5, -0.25])
    x1 = np.array([1.0, 0.75])
    field = lambda x, t, r, cond: x1 - x0
    trace = euler_sample(field, x1, config=SolverConfig(steps=1))
    assert np.array_equal(trace.final, x0)
    assert trace.nfe == 1


def test_euler_exact_linear_path_any_dimension():
    rng = np.random.default_rng(2)
    for dim in (1, 3, 17):
        x0 = rng.standard_normal(dim)
        x1 = rng.standard_normal(dim)
        field = lambda x, t, r, cond: x1 - x0
        trace = euler_sample(field, x1, config=SolverConfig(steps=1))
        assert np.allclose(trace.final, x0, atol=1e-12)


def test_euler_grid_and_nfe():
    calls = []
    field = lambda x, t, r, cond: (calls.append((t, r)), np.zeros_like(x))[1]
    trace = euler_sample(field, np.ones(2), config=SolverConfig(steps=4))
    assert trace.nfe == 4
    assert trace.t_grid == [1.0, 0.75, 0.5, 0.25, 0.0]
    assert calls == [(1.0, 0.75), (0.75, 0.5), (0.5, 0.25), (0.25, 0.0)]
    assert trace.accepted == 4 and trace.rejected == 0


def test_euler_non_finite_state():
    field = lambda x, t, r, cond: np.full_like(x, np.inf)
    with pytest.raises(SolverError) as info:
        euler_sample(field, np.ones(2), config=SolverConfig(steps=4))
    assert info.value.step == 0


def test_euler_cfg_doubles_model_calls():
    calls = {"cond": 0, "uncond": 0}

    def field(x, t, r, cond):
        calls["uncond" if cond is None else "cond"] += 1
        return 0.1 * x if cond is not None else np.zeros_like(x)

    guided = euler_sample(field, np.ones(2), cond=1,
                          config=SolverConfig(steps=4, cfg_scale=7.0))
    assert calls["cond"] == calls["uncond"] == 4
    assert guided.nfe == 2 * 4
    x = np.ones(2)
    for _ in range(4):
        x = x - 0.25 * (7.0 * (0.1 * x))  # v_u + 7 (v_c - v_u) with v_u = 0
    assert np.array_equal(guided.final, x)


def test_euler_nfe_budget():
    field = lambda x, t, r, cond: x
    with pytest.raises(SolverError) as info:
        euler_sample(field, np.ones(2), config=SolverConfig(steps=20, max_nfe=10))
    assert info.value.nfe == 11
    with pytest.raises(SolverError):  # guidance spends two calls per step
        euler_sample(field, np.ones(2), cond=1,
                     config=SolverConfig(steps=4, cfg_scale=7.0, max_nfe=7))
    trace = euler_sample(field, np.ones(2), cond=1,
                         config=SolverConfig(steps=4, cfg_scale=7.0, max_nfe=8))
    assert trace.nfe == 8


@pytest.mark.parametrize("cfg_scale", [1.0, 3.0])
@pytest.mark.parametrize("kind", ["euler", "dopri5"])
def test_shared_time_features_match_per_sample_times(kind, cfg_scale):
    # the solvers pass one scalar (t, r) per call; a field that hands the
    # net per-sample vectors of the same values must give the same bits
    model = small_model(78)
    x1 = np.random.default_rng(79).standard_normal((64, 2))

    def per_sample(x, t, r, cond):
        return net.forward(model, x, np.full(len(x), t), np.full(len(x), r), cond)

    sample = euler_sample if kind == "euler" else dopri5_sample
    config = SolverConfig(kind=kind, steps=4, cfg_scale=cfg_scale)
    shared = sample(model, x1, cond=1, config=config)
    vector = sample(per_sample, x1, cond=1, config=config)
    assert np.array_equal(shared.final, vector.final)
    assert shared.nfe == vector.nfe


def test_dopri5_exponential_decay():
    # u = x integrated from t=1 down to 0 is decay in s = 1 - t: the
    # endpoint is x1 * e^-1
    field = lambda x, t, r, cond: x
    x1 = np.array([2.0, -3.0])
    trace = dopri5_sample(field, x1, config=SolverConfig(kind="dopri5"))
    exact = x1 * np.exp(-1.0)
    assert np.max(np.abs(trace.final - exact)) <= 1e-4
    assert trace.t_grid[0] == 1.0 and trace.t_grid[-1] == 0.0
    assert np.all(np.diff(trace.t_grid) < 0)
    assert trace.accepted == len(trace.t_grid) - 1


def test_dopri5_global_error_within_100x_tolerance():
    field = lambda x, t, r, cond: x
    for tol in (1e-3, 1e-5):
        cfg = SolverConfig(kind="dopri5", atol=tol, rtol=tol)
        trace = dopri5_sample(field, np.array([1.0]), config=cfg)
        err = abs(float(trace.final[0]) - np.exp(-1.0))
        assert err <= 100 * tol


def test_dopri5_zero_field_identity():
    field = lambda x, t, r, cond: np.zeros_like(x)
    trace = dopri5_sample(field, np.array([1.5, -0.5]),
                          config=SolverConfig(kind="dopri5"))
    assert np.array_equal(trace.final, np.array([1.5, -0.5]))
    assert trace.rejected == 0
    # every step accepts at the growth clamp: 0.05, 0.25, then the rest
    assert trace.accepted == 3
    assert trace.nfe == 1 + 6 * trace.accepted  # FSAL reuses stage 7


def test_dopri5_tightening_tolerance_improves_accuracy():
    field = lambda x, t, r, cond: x
    exact = 2.0 * np.exp(-1.0)
    loose = dopri5_sample(field, np.array([2.0]),
                          config=SolverConfig(kind="dopri5", atol=1e-3, rtol=1e-3))
    tight = dopri5_sample(field, np.array([2.0]),
                          config=SolverConfig(kind="dopri5", atol=1e-6, rtol=1e-6))
    err_loose = abs(float(loose.final[0]) - exact)
    err_tight = abs(float(tight.final[0]) - exact)
    assert err_tight * 10 <= err_loose
    assert tight.nfe > loose.nfe


def test_dopri5_cfg_doubles_model_calls():
    calls = {"cond": 0, "uncond": 0}

    def field(x, t, r, cond):
        calls["uncond" if cond is None else "cond"] += 1
        return 0.1 * x

    guided = dopri5_sample(field, np.ones(2), cond=1,
                           config=SolverConfig(kind="dopri5", cfg_scale=7.0))
    assert calls["cond"] == calls["uncond"]
    assert guided.nfe == calls["cond"] + calls["uncond"]
    assert guided.nfe % 2 == 0

    calls["cond"] = calls["uncond"] = 0
    neutral = dopri5_sample(field, np.ones(2), cond=1,
                            config=SolverConfig(kind="dopri5", cfg_scale=1.0))
    assert calls["uncond"] == 0
    assert neutral.nfe == calls["cond"]


def test_dopri5_unconditional_never_doubles():
    count = [0]

    def field(x, t, r, cond):
        count[0] += 1
        return 0.1 * x

    trace = dopri5_sample(field, np.ones(2), cond=None,
                          config=SolverConfig(kind="dopri5", cfg_scale=7.0))
    assert trace.nfe == count[0]


def test_dopri5_nfe_budget():
    field = lambda x, t, r, cond: x
    with pytest.raises(SolverError):
        dopri5_sample(field, np.ones(2),
                      config=SolverConfig(kind="dopri5", max_nfe=5))


def test_dopri5_step_underflow():
    # a wildly oscillating field keeps the error estimate above 1, so the
    # controller shrinks h until it underflows
    field = lambda x, t, r, cond: 1e12 * np.sin(1e9 * t + 1e9 * x)
    with pytest.raises(SolverError):
        dopri5_sample(field, np.ones(1),
                      config=SolverConfig(kind="dopri5", max_nfe=100000))


def test_kind_cross_checks():
    model = small_model()
    with pytest.raises(DomainError):
        euler_sample(model, np.ones(2), config=SolverConfig(kind="dopri5"))
    with pytest.raises(DomainError):
        dopri5_sample(model, np.ones(2), config=SolverConfig(kind="euler"))


def _forward_oracle(model):
    return lambda x, t, r, c: net.forward(model, x, t, r, c)


@pytest.mark.parametrize("rows", [1, 3, 64, "1-D"])
@pytest.mark.parametrize("cond", [None, "scalar", "cycling"])
@pytest.mark.parametrize("cfg_scale", [1.0, 3.0])
@pytest.mark.parametrize("kind", ["euler", "dopri5"])
def test_bound_model_matches_forward_callable(kind, cfg_scale, cond, rows):
    # a model is bound once per request (net.Field); every step must give
    # the bits of the same request through net.forward, and a single (dim,)
    # sample is refused on both paths
    model = small_model(80)
    shape = (2,) if rows == "1-D" else (rows, 2)
    x1 = np.random.default_rng(81).standard_normal(shape)
    n = 1 if rows == "1-D" else rows
    ids = {None: None, "scalar": 1, "cycling": np.arange(n) % model.config.n_cond}[cond]
    sample = euler_sample if kind == "euler" else dopri5_sample
    config = SolverConfig(kind=kind, steps=4, cfg_scale=cfg_scale)
    if rows == "1-D":
        for field in (model, _forward_oracle(model)):
            with pytest.raises(DomainError, match="does not match"):
                sample(field, x1, cond=ids, config=config)
        return
    bound = sample(model, x1, cond=ids, config=config)
    oracle = sample(_forward_oracle(model), x1, cond=ids, config=config)
    assert bound.final.shape == x1.shape
    assert np.array_equal(bound.final, oracle.final)
    assert (bound.nfe, bound.t_grid, bound.accepted, bound.rejected) == (
        oracle.nfe, oracle.t_grid, oracle.accepted, oracle.rejected)


def test_field_refuses_x_with_another_row_count():
    model = small_model()
    field = net.Field(model, 1, 3, net.Workspace())
    assert field(np.ones((3, 2)), 0.5, 0.25).shape == (3, 2)
    for x in (np.ones((4, 2)), np.ones((1, 2)), np.ones(2), np.ones((3, 3))):
        with pytest.raises(DomainError, match="does not match"):
            field(x, 0.5, 0.25)


def _two_threads(monkeypatch):
    """Let a guided request above PARALLEL_MIN_ROWS use two threads, on a
    host with any number of CPUs."""
    monkeypatch.setattr(host, "cpus", lambda: 2)


def _thread_requests():
    """dopri5 and guided euler requests of several sizes, and a guided
    dopri5 request large enough for two threads: (sample, x1, cond,
    config)."""
    rng = np.random.default_rng(82)
    dopri = SolverConfig(kind="dopri5", rtol=1e-4, atol=1e-4)
    guided = SolverConfig(kind="euler", steps=6, cfg_scale=3.0)
    requests = []
    for n in (1, 96, 5, 257):
        requests.append((dopri5_sample, rng.standard_normal((n, 2)), np.arange(n) % 2, dopri))
        requests.append((euler_sample, rng.standard_normal((n, 2)), 1, guided))
    n = solvers.PARALLEL_MIN_ROWS + 3
    guided_dopri = SolverConfig(kind="dopri5", rtol=1e-4, atol=1e-4, cfg_scale=3.0)
    requests.append((dopri5_sample, rng.standard_normal((n, 2)), np.arange(n) % 2,
                     guided_dopri))
    return requests


def _run(model, request):
    sample, x1, cond, config = request
    trace = sample(model, x1, cond=cond, config=config)
    return trace.final, (trace.nfe, trace.t_grid, trace.accepted, trace.rejected)


def test_threads_sampling_one_model_match_serial_runs(monkeypatch):
    # the buffers of a request belong to it, not to the model: two threads
    # sampling from one shared model give the bits of one thread, also when
    # both run unconditional passes on workers of their own
    _two_threads(monkeypatch)
    model = small_model(83)
    requests = _thread_requests() * 2
    serial = [_run(model, req) for req in requests]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda req: _run(model, req), requests, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for (got, got_stats), (want, want_stats) in zip(threaded, serial):
        assert got.tobytes() == want.tobytes()
        assert got_stats == want_stats


def _core_threads(monkeypatch):
    """Wrap net._core to record the name of each thread that runs it."""
    names, core = [], net._core

    def recorded(*args, **kwargs):
        names.append(threading.current_thread().name)
        return core(*args, **kwargs)

    monkeypatch.setattr(net, "_core", recorded)
    return names


@pytest.mark.parametrize("sample, config", [
    (euler_sample, SolverConfig(kind="euler", steps=5, cfg_scale=2.5)),
    (dopri5_sample, SolverConfig(kind="dopri5", rtol=1e-4, atol=1e-4, cfg_scale=2.5)),
])
def test_two_thread_guidance_matches_serial_bitwise(sample, config, monkeypatch):
    model = small_model(84)
    n = solvers.PARALLEL_MIN_ROWS + 1
    x1 = np.random.default_rng(85).standard_normal((n, 2))
    cond = np.arange(n) % 2
    _two_threads(monkeypatch)
    threads = _core_threads(monkeypatch)
    two = sample(model, x1, cond=cond, config=config)
    assert sum(name.startswith("flowfx-uncond") for name in threads) == two.nfe // 2
    threads.clear()
    monkeypatch.setattr(solvers, "PARALLEL_MIN_ROWS", n + 1)
    one = sample(model, x1, cond=cond, config=config)
    assert threads == [threading.current_thread().name] * one.nfe
    assert two.final.tobytes() == one.final.tobytes()
    assert (two.nfe, two.t_grid, two.accepted, two.rejected) == (
        one.nfe, one.t_grid, one.accepted, one.rejected)


@pytest.mark.parametrize("sample, kind, budgets", [
    (euler_sample, "euler", (6, 7)),
    (dopri5_sample, "dopri5", (20, 21)),
])
def test_two_thread_guidance_keeps_the_budget_error(sample, kind, budgets, monkeypatch,
                                                     recorded_futures):
    # every evaluation is charged its two model calls before it runs, and one
    # that would pass max_nfe raises, so the error and its nfe are the serial
    # ones, odd or even budget alike
    model = small_model(86)
    n = solvers.PARALLEL_MIN_ROWS
    x1 = np.random.default_rng(87).standard_normal((n, 2))
    _two_threads(monkeypatch)
    futures = recorded_futures
    for max_nfe in budgets:
        config = SolverConfig(kind=kind, steps=4, cfg_scale=2.0, max_nfe=max_nfe)
        with pytest.raises(SolverError) as two:
            sample(model, x1, cond=1, config=config)
        assert futures and all(f.done() for f in futures)
        with monkeypatch.context() as serial:
            serial.setattr(solvers, "PARALLEL_MIN_ROWS", n + 1)
            with pytest.raises(SolverError) as one:
                sample(model, x1, cond=1, config=config)
        assert (str(two.value), two.value.nfe) == (str(one.value), one.value.nfe)
        assert two.value.nfe == max_nfe + 1


def test_failed_conditional_call_waits_for_the_unconditional_one(monkeypatch):
    # the conditional branch's error is raised only after the pending
    # unconditional pass is done, so no work outlives the request
    model = small_model(88)
    n = solvers.PARALLEL_MIN_ROWS
    _two_threads(monkeypatch)
    finished, core = [], net._core

    def failing(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            raise FloatingPointError("conditional pass failed")
        time.sleep(0.05)
        finished.append(core(*args, **kwargs))
        return finished[-1]

    monkeypatch.setattr(net, "_core", failing)
    config = SolverConfig(kind="euler", steps=2, cfg_scale=2.0)
    with pytest.raises(FloatingPointError, match="conditional pass failed"):
        euler_sample(model, np.ones((n, 2)), cond=0, config=config)
    assert len(finished) == 1


def test_unconditional_branch_runs_under_the_callers_numpy_error_state(monkeypatch):
    # the pool worker sees the error state the request was made under, as
    # the serial unconditional call does
    model = small_model(89)
    n = solvers.PARALLEL_MIN_ROWS
    _two_threads(monkeypatch)
    states, core = [], net._core

    def recorded(*args, **kwargs):
        states.append((threading.current_thread().name, np.geterr()["over"]))
        return core(*args, **kwargs)

    monkeypatch.setattr(net, "_core", recorded)
    with np.errstate(over="raise"):
        euler_sample(model, np.ones((n, 2)), cond=0,
                     config=SolverConfig(kind="euler", steps=1, cfg_scale=2.0))
    assert sorted(over for _, over in states) == ["raise", "raise"]
    assert any(name.startswith("flowfx-uncond") for name, _ in states)


def _guidance_workers():
    return [t.name for t in threading.enumerate() if t.name.startswith("flowfx-uncond")]


def test_guided_request_makes_one_pool_for_all_its_evaluations(monkeypatch,
                                                               recorded_futures):
    # the pool that recorded_futures installs, counted as it is made
    made = []

    class CountingPool(host.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(host, "ThreadPoolExecutor", CountingPool)
    _two_threads(monkeypatch)
    trace = euler_sample(small_model(91), np.ones((solvers.PARALLEL_MIN_ROWS, 2)), cond=0,
                         config=SolverConfig(kind="euler", steps=3, cfg_scale=2.0))
    assert trace.nfe == 6
    assert len(made) == 1 and len(recorded_futures) == 3


def test_no_guidance_worker_outlives_its_request(monkeypatch, recorded_futures):
    # the request makes its worker and joins it before it returns or raises
    model = small_model(90)
    x1 = np.ones((solvers.PARALLEL_MIN_ROWS, 2))
    _two_threads(monkeypatch)
    futures = recorded_futures
    config = SolverConfig(kind="euler", steps=2, cfg_scale=2.0)
    euler_sample(model, x1, cond=0, config=config)
    assert _guidance_workers() == []
    assert len(futures) == 2
    with pytest.raises(SolverError, match="nfe budget 3 exhausted"):
        euler_sample(model, x1, cond=0, config=SolverConfig(
            kind="euler", steps=2, cfg_scale=2.0, max_nfe=3))
    assert _guidance_workers() == []
    assert len(futures) == 3
    core = net._core

    def failing(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            raise FloatingPointError("conditional pass failed")
        return core(*args, **kwargs)

    monkeypatch.setattr(net, "_core", failing)
    with pytest.raises(FloatingPointError, match="conditional pass failed"):
        euler_sample(model, x1, cond=0, config=config)
    assert _guidance_workers() == []
    assert len(futures) == 4


# Samples with two threads, forks, and samples with two threads in the child,
# which exits 0 only if that request finishes within five seconds.
_FORKED_SAMPLE = """
import os, signal
import numpy as np
from flowfx import host, net, solvers
host.cpus = lambda: 2
model = net.init_model(net.ModelConfig(hidden=(16,), n_cond=2), np.random.default_rng(0))
config = solvers.SolverConfig(kind="euler", steps=2, cfg_scale=2.0)
x = np.ones((solvers.PARALLEL_MIN_ROWS, 2))
solvers.euler_sample(model, x, cond=1, config=config)
pid = os.fork()
if pid == 0:
    signal.alarm(5)
    solvers.euler_sample(model, x, cond=1, config=config)
    os._exit(0)
raise SystemExit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_guidance_pool():
    # a guided request makes its own worker, so a child forked after one
    # samples on two threads; a worker kept from the parent would not exist
    # in the child, which would wait on it forever
    src = os.path.dirname(os.path.dirname(os.path.abspath(flowfx.__file__)))
    proc = subprocess.run([sys.executable, "-c", _FORKED_SAMPLE], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
