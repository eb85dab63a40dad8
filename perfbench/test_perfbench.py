"""Tests of the benchmark itself (not of flowfx).  From the repository root:

    python3 -m pytest perfbench/test_perfbench.py

The last test runs every workload once, traced, and takes about two minutes.
"""

import json
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gauge  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer, covered  # noqa: E402

FAKE_SOURCE = """
import time
from concurrent.futures import ThreadPoolExecutor

def _ident(x):
    return x

def inner(x, delay=0.0):
    if delay:
        time.sleep(delay)
    return _ident(x)

def outer(xs, workers, delay):
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda x: inner(x, delay), xs))
"""


@pytest.fixture
def fake_module():
    package = types.ModuleType("perfbench_fake")
    module = types.ModuleType("perfbench_fake.mod")
    exec(FAKE_SOURCE, module.__dict__)
    sys.modules["perfbench_fake"] = package
    sys.modules["perfbench_fake.mod"] = module
    try:
        yield module
    finally:
        del sys.modules["perfbench_fake.mod"], sys.modules["perfbench_fake"]


def _run_traced(module, n, workers, delay):
    tracer = Tracer({"mod": module}, counted=("mod._ident",))
    tracer.install()
    try:
        with tracer.request("r1"):
            assert module.outer(list(range(n)), workers, delay) == list(range(n))
    finally:
        tracer.uninstall()
    return tracer


def test_pool_spans_nest_under_the_submitting_span(fake_module):
    original, helper = fake_module.inner, fake_module._ident
    tracer = _run_traced(fake_module, 4, 2, 0.01)
    assert fake_module.inner is original and fake_module._ident is helper
    assert tracer.counts["mod._ident.calls"] == 4
    assert fake_module.ThreadPoolExecutor is ThreadPoolExecutor
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (request,), (outer,) = by_name["request"], by_name["mod.outer"]
    inner = by_name["mod.inner"]
    assert len(inner) == 4
    assert outer.parent == request.id
    assert all(s.parent == outer.id and s.request == "r1" for s in inner)
    calls, self_s, incl = tracer.self_times()["mod.outer"]
    busy = covered([(s.start, s.end) for s in inner], outer.start, outer.end)
    assert calls == 1 and incl == pytest.approx(outer.end - outer.start)
    assert self_s == pytest.approx(incl - busy)
    assert 0.015 < busy < incl  # two workers overlap four 10 ms calls


def test_span_recording_under_thread_contention(fake_module):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tracer = _run_traced(fake_module, 2000, 8, 0.0)
    finally:
        sys.setswitchinterval(interval)
    outer = next(s for s in tracer.spans if s.name == "mod.outer")
    inner = [s for s in tracer.spans if s.name == "mod.inner"]
    assert len(inner) == 2000
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)
    assert all(s.parent == outer.id for s in inner)


def test_covered_merges_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6), (9, 12)], 1, 10) == pytest.approx(2 + 1 + 1)
    assert covered([], 0, 1) == 0.0


def test_gauge_samples_inside_a_loop_and_restores_it(monkeypatch):
    module = types.SimpleNamespace(step=lambda x: x + 1)
    original = module.step
    monkeypatch.setattr(gauge, "EVERY_S", 0.0)
    g = gauge.Gauge()
    with g.in_loop(module, "step"):
        assert [module.step(i) for i in range(3)] == [1, 2, 3]
    assert module.step is original
    assert len(g.samples) == 3 and g.inside == pytest.approx(sum(g.samples))
    assert g.slowdown() == pytest.approx(sorted(g.samples)[1] / gauge.NOMINAL_S)


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == layers.metric_specs()


def _traced(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_every_layer_metric_moves_on_its_mechanism_workload():
    names = [spec["name"] for spec in layers.metric_specs()]
    runs = {w: _traced(w) for w in ("ring-train", "ring-distill", "ring-sample", "audio")}
    for values in runs.values():
        assert list(values) == names
    for name, (workload, _) in layers.FUNCTIONS.items():
        assert runs[workload][f"{name}.calls"] > 0, (name, workload)
        assert runs[workload][f"{name}.self_s"] > 0, (name, workload)
    for name, (_, _, workload, _) in layers.DERIVED.items():
        if workload != "all":
            assert runs[workload][name] > 0, (name, workload)
    # net._core runs per iteration: 2 in train-fm; in distill 3 in each of
    # the 500 warm-up iterations and 9 in each of the 300 adversarial ones.
    assert runs["ring-train"]["net.primal_passes_per_step"] == 2.0
    assert runs["ring-distill"]["net.primal_passes_per_step"] == (500 * 3 + 300 * 9) / 800
    for workload, name in (("audio", "net.forward"), ("ring-sample", "net.backward"),
                           ("ring-train", "dsp.stft"), ("ring-sample", "distill.gen_step")):
        assert runs[workload][f"{name}.calls"] == 0, (name, workload)
