"""Per-layer metrics of the traced run and the layer -> end-to-end mapping.

Layers are flowfx's modules.  ``transformer`` is on no CLI path and stays
forward-only, so it is deliberately left unmeasured.

Every traced run prints every metric below; a metric reads 0 on a workload
that never reaches its layer.  Calls, counts and self seconds are per
traced unit of work (one CLI command on the training workloads, one
request block on the serving ones), so counts repeat exactly.
"""

import numpy as np

LAYERS = ("cli", "net", "flow", "distill", "solvers", "dsp", "losses", "metrics", "toy")

# "<layer>.<function>": (mechanism workload, end-to-end metrics it should
# move there).  Each function reports .calls and .self_s; on the other
# workloads the prediction is no change, except net.forward on ring-sample.
FUNCTIONS = {
    "cli.main": ("ring-sample", "every metric: each request enters here"),
    "net.forward": ("ring-train", "work_per_s on ring-train and ring-distill; latency_ms_p90 on ring-sample"),
    "net.backward": ("ring-train", "work_per_s on ring-train and ring-distill"),
    "net.jvp": ("ring-distill", "work_per_s on ring-distill"),
    "net.hidden_forward": ("ring-distill", "work_per_s on ring-distill"),
    "net.hidden_input_gradient": ("ring-distill", "work_per_s on ring-distill"),
    "net.adam_step": ("ring-train", "work_per_s on ring-train and ring-distill"),
    "net.save_checkpoint": ("ring-train", "latency_ms_p50 on ring-train and ring-distill, marginally"),
    "net.load_checkpoint": ("ring-sample", "latency_ms_p50 on ring-sample (small requests)"),
    "flow.fm_loss": ("ring-train", "work_per_s on ring-train"),
    "flow.meanflow_distill_loss": ("ring-distill", "work_per_s on ring-distill"),
    "flow.sample_path": ("ring-train", "work_per_s on ring-train and ring-distill"),
    "toy.sample_ring": ("ring-train", "work_per_s on ring-train and ring-distill"),
    "distill.disc_step": ("ring-distill", "work_per_s on ring-distill"),
    "distill.gen_step": ("ring-distill", "work_per_s on ring-distill"),
    "distill.adversarial_grads": ("ring-distill", "work_per_s on ring-distill"),
    "distill.disc_scores": ("ring-distill", "work_per_s on ring-distill"),
    "solvers.euler_sample": ("ring-sample", "latency_ms_p50 and work_per_s on ring-sample"),
    "solvers.dopri5_sample": ("ring-sample", "latency_ms_p90 and work_per_s on ring-sample"),
    "losses.cfg_combine": ("ring-sample", "work_per_s on ring-sample"),
    "metrics.write_embedding_csv": ("ring-sample", "latency_ms_p50 on ring-sample"),
    "metrics.write_report_csv": ("ring-sample", "latency_ms_p50 on ring-sample"),
    "dsp.stft": ("audio", "latency_ms_p50 and work_per_s on audio"),
    "dsp.istft": ("audio", "latency_ms_p50 and work_per_s on audio"),
    "dsp.head_to_complex": ("audio", "latency_ms_p50 and work_per_s on audio"),
    "dsp.complex_to_head": ("audio", "latency_ms_p50 and work_per_s on audio"),
    "dsp.log_mel": ("audio", "latency_ms_p50 and work_per_s on audio"),
    "dsp.read_wav": ("audio", "latency_ms_p50 and work_per_s on audio"),
    "dsp.write_wav": ("audio", "latency_ms_p50 and work_per_s on audio"),
    "dsp.mel_filterbank": ("audio", "latency_ms_p50 on audio"),
    "losses.multiscale_spectral_l1": ("audio", "latency_ms_p50 on audio"),
    "metrics.mel_dist": ("audio", "latency_ms_p50 on audio"),
    "metrics.stft_dist": ("audio", "latency_ms_p50 on audio"),
    "metrics.si_sdr": ("audio", "latency_ms_p50 on audio"),
    "metrics.recall_at_k": ("audio", "work_per_s on audio (large evals)"),
    "metrics.frechet_distance": ("audio", "work_per_s on audio (large evals)"),
    "metrics.kl_divergence": ("audio", "work_per_s on audio (large evals)"),
    "metrics.read_embedding_csv": ("audio", "work_per_s on audio (large evals)"),
}

# name: (unit, better, mechanism workload, meaning with its base)
DERIVED = {
    "net.primal_passes_per_step": (
        "count", "lower", "ring-train",
        "primal passes of the network (calls of net._core, which forward, backward, "
        "jvp and hidden_forward each run once) / training-loop iterations "
        "(flow.fm_loss + distill.gen_step calls)",
    ),
    "net.adam_step.applied_share": (
        "1", "higher", "ring-train", "optimizer steps applied / net.adam_step.calls",
    ),
    "net.forward.rows": ("count", "lower", "ring-sample", "batch rows through net.forward"),
    "solvers.nfe": ("count", "lower", "ring-sample", "field evaluations reported by the samplers"),
    "solvers.dopri5_sample.steps": (
        "count", "lower", "ring-sample", "dopri5 steps tried (accepted + rejected)",
    ),
    "solvers.dopri5_sample.accept_share": (
        "1", "higher", "ring-sample", "accepted / solvers.dopri5_sample.steps",
    ),
    "dsp.mel_filterbank.repeat_share": (
        "1", "lower", "audio",
        "builds whose (n_mels, n_fft, rate) key was already built in the unit / "
        "dsp.mel_filterbank.calls",
    ),
    "flow.teacher_w2": (
        "1", "lower", "ring-train",
        "ac06 recipe: 2-Wasserstein distance of 2000 teacher dopri5 samples to ring truth",
    ),
    "distill.student_gap": (
        "1", "lower", "ring-distill",
        "ac07 recipe on the ring: mean L2 between 4-step student and teacher dopri5 "
        "endpoints on paired noise",
    ),
    "trace_overhead_share": (
        "1", "lower", "all",
        "(traced - untraced) / untraced busy seconds over the run's units, in groups "
        "of four: untraced, traced, traced, untraced",
    ),
}

PRIMAL_PASS = "net._core"  # counted, not spanned: see tracer.py
COUNTED = (PRIMAL_PASS,)
TRAINING_ITERATIONS = ("flow.fm_loss", "distill.gen_step")


def metric_specs():
    """The per_layer entries of BENCHMARK.json, in output order."""
    specs = []
    for name in FUNCTIONS:
        specs.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better, _, _) in DERIVED.items():
        specs.append({"name": name, "unit": unit, "better": better})
    return specs


def _forward_rows(tracer, args, kwargs, result):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    tracer.count("net.forward.rows", 1 if x.ndim == 1 else x.shape[0])


def _euler(tracer, args, kwargs, trace):
    tracer.count("solvers.nfe", trace.nfe)


def _dopri5(tracer, args, kwargs, trace):
    tracer.count("solvers.nfe", trace.nfe)
    tracer.count("solvers.dopri5_sample.accepted", trace.accepted)
    tracer.count("solvers.dopri5_sample.steps", trace.accepted + trace.rejected)


def _adam(tracer, args, kwargs, applied):
    tracer.count("net.adam_step.applied", bool(applied))


def _mel_filterbank(tracer, args, kwargs, fb):
    config = args[1] if len(args) > 1 else kwargs["config"]
    key = (fb.n_mels, config.n_fft, fb.sample_rate)
    tracer.count("dsp.mel_filterbank.repeats", tracer.seen(key))


OBSERVERS = {
    "net.forward": _forward_rows,
    "solvers.euler_sample": _euler,
    "solvers.dopri5_sample": _dopri5,
    "net.adam_step": _adam,
    "dsp.mel_filterbank": _mel_filterbank,
}


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer, units: int, overhead: float, quality: dict) -> dict:
    """Every per-layer metric from a tracer that recorded ``units`` units."""
    stats = tracer.self_times()
    counts = tracer.counts

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    out = {}
    for name in FUNCTIONS:
        n, self_s, _ = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = n / units
        out[f"{name}.self_s"] = self_s / units
    iterations = sum(calls(n) for n in TRAINING_ITERATIONS)
    steps = counts["solvers.dopri5_sample.steps"]
    out["net.primal_passes_per_step"] = _share(counts[f"{PRIMAL_PASS}.calls"], iterations)
    out["net.adam_step.applied_share"] = _share(counts["net.adam_step.applied"], calls("net.adam_step"))
    out["net.forward.rows"] = counts["net.forward.rows"] / units
    out["solvers.nfe"] = counts["solvers.nfe"] / units
    out["solvers.dopri5_sample.steps"] = steps / units
    out["solvers.dopri5_sample.accept_share"] = _share(counts["solvers.dopri5_sample.accepted"], steps)
    out["dsp.mel_filterbank.repeat_share"] = _share(
        counts["dsp.mel_filterbank.repeats"], calls("dsp.mel_filterbank")
    )
    out["flow.teacher_w2"] = quality.get("teacher_w2", 0.0)
    out["distill.student_gap"] = quality.get("student_gap", 0.0)
    out["trace_overhead_share"] = overhead
    units_of = {spec["name"]: spec["unit"] for spec in metric_specs()}
    return {name: {"value": value, "unit": units_of[name]} for name, value in out.items()}


def _per_call(n, self_s, incl, units):
    return {"calls_per_unit": n / units, "incl_ms_per_call": 1e3 * incl / n,
            "self_ms_per_call": 1e3 * self_s / n}


def breakdown(tracer, units: int) -> dict:
    """Per-call milliseconds (inclusive and self) of every traced name and,
    for the table's functions, split by request kind (the request's key,
    such as ``e2000`` for a 2000-row eval)."""
    out = {name: _per_call(*stats, units) for name, stats in sorted(tracer.self_times().items())}
    by_kind = tracer.self_times(key=lambda span: (span.name, span.request))
    for (name, kind), stats in sorted(by_kind.items(), key=str):
        if name in FUNCTIONS and kind is not None:
            out[name].setdefault("by_request_kind", {})[kind] = _per_call(*stats, units)
    return out
