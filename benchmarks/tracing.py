"""Outside-in tracing of bftprob for the benchmark's traced run.

`traced(log)` rebinds public names of the bftprob modules to wrappers that
record spans into a `SpanLog`, and restores the originals on exit.  Nothing
inside `src/` is changed: each name is rebound in every bftprob module that
imported it, so calls between modules go through the wrappers too.

A span is (name, start, end, parent span, operation id).  Spans are kept in
memory; `layer_metrics` turns one pass's spans into the per-layer metrics and
`write_spans` writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import math
import sys
import time
import tracemalloc
from array import array

import numpy as np

from bftprob import analysis, chain, cli, prob, protocols, sim
from bftprob.prob import Pmf

_clock = time.perf_counter_ns

# Configs of the sim-campaign workload; the per-config sim metrics are
# reported for exactly these labels on every workload.
SIM_CONFIGS = ("pbft-n7", "bft-smart-n7", "zyzzyva-n7", "sbft-n6", "pbft-n31")
MODELS = {"pbft": "pbft", "bft-smart": "smart", "zyzzyva": "zyzzyva", "sbft": "sbft"}
CLI_COMMANDS = ("simulate", "validate")

# Every per-layer metric as (name, unit, better); a traced run reports all
# of them on every workload, zero where the layer does no work.
LAYER_METRICS = (
    [("prob.Pmf.count", "count", "lower"), ("prob.Pmf.self_s", "s", "lower")]
    + [(f"prob.{fn}.{kind}", unit, "lower") for fn in ("pmf_binomial", "binom_range")
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("chain.crash_step.calls", "count", "lower"), ("chain.crash_step.self_s", "s", "lower"),
       ("chain.crash_step.reuse", "ratio", "lower"), ("chain.total_probability.calls", "count", "lower"),
       ("chain.total_probability.self_s", "s", "lower"), ("chain.kernel_calls", "count", "lower"),
       ("chain.joint_via_kernel.self_s", "s", "lower"), ("chain.total_probability_joint.self_s", "s", "lower"),
       ("chain.kernel2_calls", "count", "lower"), ("chain.convolve.calls", "count", "lower")]
    + [(f"protocols.{short}_model.self_s", "s", "lower") for short in MODELS.values()]
    + [("protocols.model_trace.calls", "count", "lower")]
    + [(f"analysis.{fn}.s", "s", "lower") for fn in ("sweep", "gradient_field", "stability_crossing")]
    + [("analysis.evals_per_crossing", "ratio", "lower"), ("analysis.evals_per_gradient_point", "ratio", "lower")]
    + [(f"sim.{kind}.{label}", unit, better) for kind, unit, better in (
        ("run_campaign.s", "s", "lower"), ("kreq_per_s", "kreq/s", "higher"), ("traced_peak_mb", "MB", "lower"))
       for label in SIM_CONFIGS]
    + [("sim.chunks", "count", "lower"), ("sim.compare_to_model.self_s", "s", "lower"),
       ("sim.chunk_p50_ms", "ms", "lower"), ("sim.chunk_p99_ms", "ms", "lower")]
    + [(f"cli.main.s.{command}", "s", "lower") for command in CLI_COMMANDS]
    + [("cli.self_s", "s", "lower"), ("cli.bytes_written", "B", "lower"), ("cli.record_rows", "count", "higher"),
       ("trace.overhead_frac", "ratio", "lower")]
)


def sim_label(config) -> str:
    """Label of a protocol config as used in the per-config sim metrics."""
    return f"{config.protocol}-n{config.n}"


class SpanLog:
    """Spans of one traced pass, in opening order (parents before children)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.attrs: dict[int, dict] = {}
        self.crash_keys: set[tuple[int, float]] = set()
        self.op_id = 0
        self._stack: list[int] = []

    def next_op(self) -> None:
        """Start a new operation: later spans share the new id."""
        self.op_id += 1

    def open(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()


def _spanned(log: SpanLog, fn, name, before=None):
    """Wrap fn in a span.  `name` is a string or a function of (args, kwargs);
    `before(idx, args, kwargs)` may record attributes and rewrite the args."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = log.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            if before is not None:
                args, kwargs = before(idx, args, kwargs)
            return fn(*args, **kwargs)
        finally:
            log.close(idx)

    return wrapper


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _with_arg(args, kwargs, pos: int, key: str, value):
    if len(args) > pos:
        return args[:pos] + (value,) + args[pos + 1:], kwargs
    return args, {**kwargs, key: value}


def _wrappers(log: SpanLog) -> dict[tuple[str, str], object]:
    """Wrapper for each (defining module, public name)."""
    def crash_before(idx, args, kwargs):
        prior = _arg(args, kwargs, 0, "prior")
        log.crash_keys.add((prior.support_max, float(_arg(args, kwargs, 1, "p_c"))))
        return args, kwargs

    def kernel_before(pos, key, name):
        def before(idx, args, kwargs):
            kernel = _spanned(log, _arg(args, kwargs, pos, key), name)
            return _with_arg(args, kwargs, pos, key, kernel)
        return before

    def gradient_before(idx, args, kwargs):
        grid = _arg(args, kwargs, 0, "grid")
        log.attrs[idx] = {"points": len(grid.p_l_values) * len(grid.p_c_values)}
        return args, kwargs

    def run_campaign(sim_config, record_sink=None):
        idx = log.open("sim.run_campaign")
        attrs = log.attrs[idx] = {
            "label": sim_label(sim_config.config),
            "requests": sim_config.requests,
            "intervals": [],
        }
        last = [_clock()]
        try:
            if record_sink is None:
                # Aggregate-only campaigns: their memory is the point.  The
                # per-row sink of `simulate --record` is Python-heavy, and
                # tracemalloc would distort its timing, so it is not traced.
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                try:
                    return original_run_campaign(sim_config)
                finally:
                    attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    if started:
                        tracemalloc.stop()

            def sink(start, res, valid):
                attrs["intervals"].append(_clock() - last[0])
                sink_idx = log.open("cli.record_sink")
                try:
                    record_sink(start, res, valid)
                finally:
                    log.close(sink_idx)
                    last[0] = _clock()

            return original_run_campaign(sim_config, record_sink=sink)
        finally:
            log.close(idx)

    original_run_campaign = sim.run_campaign
    functools.update_wrapper(run_campaign, original_run_campaign)

    def model_name(args, kwargs):
        return f"protocols.model_trace.{_arg(args, kwargs, 0, 'config').protocol}"

    def command_name(args, kwargs):
        argv = (args[0] if args else kwargs.get("argv")) or ["none"]
        return f"cli.main.{argv[0]}"

    return {
        ("bftprob.prob", "pmf_binomial"): _spanned(log, prob.pmf_binomial, "prob.pmf_binomial"),
        ("bftprob.prob", "binom_range"): _spanned(log, prob.binom_range, "prob.binom_range"),
        ("bftprob.chain", "crash_step"): _spanned(log, chain.crash_step, "chain.crash_step", crash_before),
        ("bftprob.chain", "total_probability"): _spanned(
            log, chain.total_probability, "chain.total_probability",
            kernel_before(0, "kernel", "chain.kernel")),
        ("bftprob.chain", "joint_via_kernel"): _spanned(
            log, chain.joint_via_kernel, "chain.joint_via_kernel",
            kernel_before(1, "kernel", "chain.kernel")),
        ("bftprob.chain", "total_probability_joint"): _spanned(
            log, chain.total_probability_joint, "chain.total_probability_joint",
            kernel_before(0, "kernel2", "chain.kernel2")),
        ("bftprob.chain", "convolve"): _spanned(log, chain.convolve, "chain.convolve"),
        ("bftprob.protocols", "model_trace"): _spanned(log, protocols.model_trace, model_name),
        ("bftprob.analysis", "sweep"): _spanned(log, analysis.sweep, "analysis.sweep"),
        ("bftprob.analysis", "gradient_field"): _spanned(
            log, analysis.gradient_field, "analysis.gradient_field", gradient_before),
        ("bftprob.analysis", "stability_crossing"): _spanned(
            log, analysis.stability_crossing, "analysis.stability_crossing"),
        ("bftprob.sim", "run_campaign"): run_campaign,
        ("bftprob.sim", "compare_to_model"): _spanned(log, sim.compare_to_model, "sim.compare_to_model"),
        ("bftprob.cli", "main"): _spanned(log, cli.main, command_name),
    }


@contextlib.contextmanager
def traced(log: SpanLog):
    """Record spans into `log` while the block runs; restore bftprob after."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "bftprob" or name.startswith("bftprob."))]
    patches = []
    try:
        for (home, attr), wrapper in _wrappers(log).items():
            original = getattr(sys.modules[home], attr)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        post_init = Pmf.__post_init__
        patches.append((Pmf, "__post_init__", post_init))
        Pmf.__post_init__ = _spanned(log, post_init, "prob.Pmf")
        yield log
    finally:
        for obj, attr, original in reversed(patches):
            setattr(obj, attr, original)


def _quantile(values, q: float) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


def layer_metrics(log: SpanLog, chunk_requests: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Self time is a span's duration minus the time its child spans cover.
    Kernel callbacks are closures of the protocol models, so their self time
    counts toward the model whose `model_trace` span encloses them.
    """
    names = log.names
    name = np.array(log.name, dtype=np.int64)
    start = np.array(log.start, dtype=np.int64)
    dur = (np.array(log.end, dtype=np.int64) - start).astype(float) / 1e9
    parent = np.array(log.parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.zeros(len(dur))
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_s = dur - covered

    width = len(names)
    count = np.bincount(name, minlength=width)
    self_sum = np.bincount(name, weights=self_s, minlength=width)
    dur_sum = np.bincount(name, weights=dur, minlength=width)
    ids = {n: i for i, n in enumerate(names)}

    def calls(n: str) -> int:
        return int(count[ids[n]]) if n in ids else 0

    def own(n: str) -> float:
        return float(self_sum[ids[n]]) if n in ids else 0.0

    def total(n: str) -> float:
        return float(dur_sum[ids[n]]) if n in ids else 0.0

    # One walk in opening order, where a parent always precedes its children:
    # find each span's nearest enclosing model_trace and analysis spans.
    model_of = [-1] * len(dur)
    analysis_of = [-1] * len(dur)
    model_self = {proto: 0.0 for proto in MODELS}
    crossing_evals = gradient_evals = 0
    for i, (n, p) in enumerate(zip(name.tolist(), parent.tolist())):
        span = names[n]
        is_model = span.startswith("protocols.model_trace.")
        model_of[i] = i if is_model else (model_of[p] if p >= 0 else -1)
        analysis_of[i] = i if span.startswith("analysis.") else (analysis_of[p] if p >= 0 else -1)
        if (is_model or span.startswith("chain.kernel")) and model_of[i] >= 0:
            model_self[names[name[model_of[i]]].rsplit(".", 1)[1]] += self_s[i]
        if is_model and analysis_of[i] >= 0:
            outer = names[name[analysis_of[i]]]
            crossing_evals += outer == "analysis.stability_crossing"
            gradient_evals += outer == "analysis.gradient_field"
    gradient_points = sum(a.get("points", 0) for a in log.attrs.values())

    out: dict[str, float] = {
        "prob.Pmf.count": calls("prob.Pmf"),
        "prob.Pmf.self_s": own("prob.Pmf"),
        "prob.pmf_binomial.calls": calls("prob.pmf_binomial"),
        "prob.pmf_binomial.self_s": own("prob.pmf_binomial"),
        "prob.binom_range.calls": calls("prob.binom_range"),
        "prob.binom_range.self_s": own("prob.binom_range"),
        "chain.crash_step.calls": calls("chain.crash_step"),
        "chain.crash_step.self_s": own("chain.crash_step"),
        "chain.crash_step.reuse": calls("chain.crash_step") / max(len(log.crash_keys), 1),
        "chain.total_probability.calls": calls("chain.total_probability"),
        "chain.total_probability.self_s": own("chain.total_probability"),
        "chain.kernel_calls": calls("chain.kernel"),
        "chain.joint_via_kernel.self_s": own("chain.joint_via_kernel"),
        "chain.total_probability_joint.self_s": own("chain.total_probability_joint"),
        "chain.kernel2_calls": calls("chain.kernel2"),
        "chain.convolve.calls": calls("chain.convolve"),
    }
    for proto, short in MODELS.items():
        out[f"protocols.{short}_model.self_s"] = model_self[proto]
    out["protocols.model_trace.calls"] = sum(calls(f"protocols.model_trace.{p}") for p in MODELS)
    out["analysis.sweep.s"] = total("analysis.sweep")
    out["analysis.gradient_field.s"] = total("analysis.gradient_field")
    out["analysis.stability_crossing.s"] = total("analysis.stability_crossing")
    out["analysis.evals_per_crossing"] = crossing_evals / max(calls("analysis.stability_crossing"), 1)
    out["analysis.evals_per_gradient_point"] = gradient_evals / max(gradient_points, 1)

    campaigns = [(idx, a) for idx, a in log.attrs.items() if "label" in a]
    for label in SIM_CONFIGS:
        mine = [(idx, a) for idx, a in campaigns if a["label"] == label]
        seconds = float(sum(dur[idx] for idx, _ in mine))
        requests = sum(a["requests"] for _, a in mine)
        out[f"sim.run_campaign.s.{label}"] = seconds
        out[f"sim.kreq_per_s.{label}"] = requests / seconds / 1e3 if seconds > 0 else 0.0
        out[f"sim.traced_peak_mb.{label}"] = max((a.get("peak_mb", 0.0) for _, a in mine), default=0.0)
    out["sim.chunks"] = sum(math.ceil(a["requests"] / chunk_requests) for _, a in campaigns)
    out["sim.compare_to_model.self_s"] = own("sim.compare_to_model")
    intervals = [ns / 1e6 for _, a in campaigns for ns in a["intervals"]]
    out["sim.chunk_p50_ms"] = _quantile(intervals, 0.5)
    out["sim.chunk_p99_ms"] = _quantile(intervals, 0.99)
    for command in CLI_COMMANDS:
        out[f"cli.main.s.{command}"] = total(f"cli.main.{command}")
    out["cli.self_s"] = sum(own(n) for n in names if n.startswith("cli."))
    return out


def write_spans(path, logs: list[SpanLog]) -> None:
    """Write the spans of every traced pass as gzipped CSV."""
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write("pass,span,parent,op,name,start_ns,end_ns\n")
        for k, log in enumerate(logs):
            names = log.names
            for i, (n, s, e, p, o) in enumerate(zip(log.name, log.start, log.end, log.parent, log.op)):
                out.write(f"{k},{i},{p},{o},{names[n]},{s},{e}\n")
