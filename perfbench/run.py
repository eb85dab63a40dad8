"""flowfx benchmark: one closed-loop client sends flowfx requests one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; flowfx is imported from ``src/``.
Workloads (see workloads.py): ring-train, ring-distill, ring-sample, audio.

``--trace 0`` prints the end-to-end metrics of an untraced run, every
time scaled by the run's host slowdown (see gauge.py).
``--trace 1`` runs units of work untraced and traced in turn, prints
the per-layer metrics of the traced units (see layers.py) and the traced
vs untraced difference as ``trace_overhead_share``.  The last line of
standard output is the result object; earlier lines give the machine,
the request count and per-call timings.  Scratch files go to
``.perfbench_work/`` at the repository root.
"""

import os

# One BLAS thread, set before numpy loads; set-up children inherit it.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--prepare", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(workload: str, seed: int, gauge) -> tuple:
    """Median seconds from starting a fresh interpreter to its inputs being
    ready (``import flowfx`` plus input generation), over SETUP_REPEATS
    children run one after another, with a gauge sample after each.
    Returns (median, inputs of the first)."""
    times = []
    for i in range(SETUP_REPEATS):
        inputs = WORK / workload / f"inputs{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--prepare", str(inputs)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            try:
                line = child.stdout.readline()
                times.append(time.perf_counter() - start)
                child.stdout.read()
                rc = child.wait(timeout=SETUP_TIMEOUT_S)
            except BaseException:  # leave no child behind on any way out
                child.kill()
                raise
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child exited {rc} without getting ready")
        gauge.sample()
    return statistics.median(times), WORK / workload / "inputs0"


class Runner:
    """Runs requests, times them, and checks their outputs."""

    def __init__(self, out_root: Path, gauge):
        self.out_root = out_root
        self.gauge = gauge
        self.fingerprints = {}
        self.attempted = 0
        self.failed = 0

    def execute(self, req, tracer=None) -> float:
        """Run one request; returns its latency in seconds, less the
        gauge samples taken inside it."""
        from flowfx import cli

        out = self.out_root / req.key
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        self.attempted += 1
        value = None
        self.gauge.inside = 0.0
        with tracer.request(req.key) if tracer else nullcontext():
            start = time.perf_counter()
            try:
                rc = cli.main([*req.argv, "--out", str(out)])
                if rc == 0 and req.follow is not None:
                    value = req.follow(out)
            except Exception:  # an uncaught error is a failed request, like a crash
                traceback.print_exc()
                rc = -1
            elapsed = time.perf_counter() - start - self.gauge.inside
        try:
            problems = [f"exit code {rc}"] if rc != 0 else self._verify(req, out, value)
        except Exception as exc:  # a check that cannot read the output fails it
            traceback.print_exc()
            problems = [f"check raised {exc!r}"]
        if problems:
            self.failed += 1
            print(f"failed {req.key}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    def _verify(self, req, out, value) -> list:
        fingerprint = req.fingerprint(out, value)
        if req.key in self.fingerprints:
            if fingerprint != self.fingerprints[req.key]:
                return ["output differs from the first run of this request"]
            return []
        self.fingerprints[req.key] = fingerprint
        return req.check(out, value)


def measure(workload, runner: Runner, seconds: float, tracer=None) -> dict:
    """Warm pass, then whole units of work until ``seconds`` of request time
    (and the workload's minimum unit count) is reached, with a gauge
    sample after each request and, untraced, inside training loops.  With
    a tracer, units go untraced, traced, traced, untraced, in whole groups
    of four, so that a steady drift in host speed cancels out of the
    overhead."""
    block = workload.requests()
    if workload.warm:
        distinct = {req.key: req for req in block}
        for req in [*distinct.values(), *workload.pinned_requests()]:
            runner.execute(req)
    by_key, units = {}, []
    min_units = max(workload.min_units, 4 if tracer else 1)
    paced = runner.gauge.in_loop(*workload.loop) if workload.loop and tracer is None else nullcontext()
    with paced:
        while (sum(busy for _, busy in units) < seconds or len(units) < min_units
               or (tracer is not None and len(units) % 4)):
            traced = tracer is not None and len(units) % 4 in (1, 2)
            if traced:
                tracer.reset_seen()
                tracer.install()
            busy = 0.0
            try:
                for req in block:
                    elapsed = runner.execute(req, tracer if traced else None)
                    runner.gauge.sample()
                    by_key.setdefault(req.key, []).append(elapsed)
                    busy += elapsed
            finally:
                if traced:
                    tracer.uninstall()
            units.append((traced, busy))
    # Every request of the unit at the median latency of its key over the run.
    typical = [statistics.median(by_key[req.key]) for req in block]
    return {"typical": typical, "work": sum(req.work for req in block),
            "timed": sum(len(times) for times in by_key.values()), "units": units}


def p90(values):
    """90th percentile, ``statistics.quantiles`` inclusive; one value is its own."""
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "flowfx" / "__init__.py").is_file():
        print(f"error: flowfx sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    kind = workloads.WORKLOADS[args.workload]
    if args.prepare:
        kind.prepare(Path(args.prepare), args.seed)
        print("ready", flush=True)
        return 0

    import layers
    from gauge import Gauge
    from tracer import Tracer

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    gauge = Gauge()
    setup_s, inputs = measure_setup(args.workload, args.seed, gauge)
    workload = kind(inputs, args.seed)
    runner = Runner(WORK / args.workload / "out", gauge)
    tracer = None
    if args.trace:
        import flowfx

        modules = {name: getattr(flowfx, name) for name in layers.LAYERS}
        tracer = Tracer(modules, layers.OBSERVERS, layers.COUNTED)
    result = measure(workload, runner, args.seconds, tracer)

    print("env:", json.dumps(environment(), sort_keys=True))
    print("requests:", json.dumps({
        "timed": result["timed"], "attempted": runner.attempted, "failed": runner.failed,
        "units": len(result["units"]), "quality": workload.quality,
    }, sort_keys=True))
    if tracer is None:
        typical = result["typical"]
        wall = {
            "setup_s": setup_s,
            "latency_ms_p50": 1e3 * statistics.median(typical),
            "latency_ms_p90": 1e3 * p90(typical),
            "work_per_s": result["work"] / sum(typical),
        }
        slowdown = gauge.slowdown()
        print("wall:", json.dumps({**wall, "slowdown": slowdown,
                                   "gauge_samples": len(gauge.samples)}, sort_keys=True))
        metrics = {
            "setup_s": (wall["setup_s"] / slowdown, "s"),
            "latency_ms_p50": (wall["latency_ms_p50"] / slowdown, "ms"),
            "latency_ms_p90": (wall["latency_ms_p90"] / slowdown, "ms"),
            "work_per_s": (wall["work_per_s"] * slowdown, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    else:
        units = result["units"]
        overhead = (sum(busy for traced, busy in units if traced)
                    / sum(busy for traced, busy in units if not traced) - 1.0)
        traced_units = sum(1 for traced, _ in units if traced)
        metrics = layers.layer_metrics(tracer, traced_units, overhead, workload.quality)
        print("per_call:", json.dumps(layers.breakdown(tracer, traced_units), sort_keys=True))
        with open(WORK / args.workload / "spans.csv", "w") as fh:
            fh.write("id,parent,name,start,end,request\n")
            for s in tracer.spans:
                fh.write(f"{s.id},{'' if s.parent is None else s.parent},{s.name},"
                         f"{s.start!r},{s.end!r},{s.request}\n")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
